"""Property-based contracts for shard partitioning and store merge.

Hypothesis (derandomized — CI's tier-2 job needs fixed seeds) over the
algebra the shard backend depends on:

* :func:`partition_cells` is total, disjoint, deterministic, and
  content-keyed (a cell's shard ignores list order and company);
* **any** partition of a campaign's cells into shard stores — not just
  the backend's hash partition — merges back to exactly the original
  key set, and merging is idempotent;
* a conflicting payload for an existing key (cell record or
  evaluation-cache entry) raises :class:`MergeConflictError` instead of
  silently overwriting;
* torn/incomplete source cells are skipped, never an error.

Everything here writes synthetic records (no simulations), so the file
is cheap enough for wide example counts.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaigns import (
    CampaignSpec,
    MergeConflictError,
    ResultStore,
)
from repro.campaigns.backends import (
    ShardBackend,
    partition_cells,
    shard_index_for,
)

#: One spec, expanded once — 8 evaluate cells with distinct content keys.
SPEC = CampaignSpec(
    name="prop", densities=(100,), n_seeds=8, n_networks=1, n_nodes=8
)
CELLS = SPEC.cells()

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def records_for(cell, salt: str = "") -> list[dict]:
    """Synthetic, cell-distinct records (deterministic, JSON-plain)."""
    return [{"kind": "record", "index": 0, "cell": cell.key, "salt": salt}]


def fill_store(root: Path, cells, salt: str = "") -> ResultStore:
    store = ResultStore(root)
    store.save_spec(SPEC)
    for cell in cells:
        store.write_cell(cell, records_for(cell, salt))
    return store


class TestPartition:
    @given(n_shards=st.integers(1, 6))
    @SETTINGS
    def test_total_disjoint_and_indexed(self, n_shards):
        shards = partition_cells(CELLS, n_shards)
        assert [s.index for s in shards] == list(range(n_shards))
        seen = [key for shard in shards for key in shard.cell_keys]
        assert sorted(seen) == sorted(c.key for c in CELLS)  # total
        assert len(set(seen)) == len(seen)  # disjoint

    @given(
        n_shards=st.integers(1, 6),
        subset=st.lists(
            st.integers(0, len(CELLS) - 1), unique=True, min_size=1
        ),
    )
    @SETTINGS
    def test_assignment_is_content_keyed(self, n_shards, subset):
        """A cell's shard depends only on its own key: any subset, in
        any order, assigns every cell exactly where the full list does."""
        full = {
            key: shard.index
            for shard in partition_cells(CELLS, n_shards)
            for key in shard.cell_keys
        }
        chosen = [CELLS[i] for i in subset]
        for shard in partition_cells(chosen, n_shards):
            for key in shard.cell_keys:
                assert shard.index == full[key] == shard_index_for(
                    key, n_shards
                )

    def test_shard_keys_hash_their_contents(self):
        a, b = partition_cells(CELLS, 2)
        assert a.key != b.key
        assert a.key.startswith("shard-00of02-")
        # Same contents => same key; different contents => different key.
        assert a.key == partition_cells(CELLS, 2)[0].key
        assert (
            partition_cells(CELLS[:4], 2)[0].key
            != partition_cells(CELLS, 2)[0].key
        )

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            partition_cells(CELLS, 0)
        with pytest.raises(ValueError):
            shard_index_for(CELLS[0].key, -1)

    @given(n_shards=st.integers(1, 6))
    @SETTINGS
    def test_cells_keep_input_order_within_a_shard(self, n_shards):
        order = {c.key: i for i, c in enumerate(CELLS)}
        for shard in partition_cells(CELLS, n_shards):
            positions = [order[key] for key in shard.cell_keys]
            assert positions == sorted(positions)

    def test_more_shards_than_cells_keeps_empty_shards(self):
        shards = partition_cells(CELLS[:2], 5)
        assert [s.index for s in shards] == list(range(5))
        assert all(s.n_shards == 5 for s in shards)
        assert sum(len(s.cells) for s in shards) == 2
        assert any(not s.cells for s in shards)


class TestShardBackendArgs:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"n_shards": 0}, "n_shards"),
            ({"n_shards": -1}, "n_shards"),
            ({"n_shards": 2, "max_workers": 0}, "max_workers"),
            ({"n_shards": 2, "max_workers": -3}, "max_workers"),
        ],
    )
    def test_non_positive_counts_rejected_naming_the_field(
        self, kwargs, field
    ):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            ShardBackend(**kwargs)

    def test_name_is_the_cli_spelling(self):
        backend = ShardBackend(4, max_workers=2)
        assert backend.name == "shard:4"
        assert backend.max_workers == 2 and not backend.keep_shards


class TestMergeRoundTrip:
    @given(
        assignment=st.lists(
            st.integers(0, 3), min_size=len(CELLS), max_size=len(CELLS)
        )
    )
    @SETTINGS
    def test_any_partition_merges_back_to_the_same_key_set(self, assignment):
        """Arbitrary (not hash-derived) partitions recombine exactly."""
        with tempfile.TemporaryDirectory() as td:
            td = Path(td)
            for shard_id in set(assignment):
                fill_store(
                    td / f"s{shard_id}",
                    [c for c, a in zip(CELLS, assignment) if a == shard_id],
                )
            dest = ResultStore(td / "dest")
            merged = sum(
                dest.merge_from(td / f"s{a}").cells_merged
                for a in sorted(set(assignment))
            )
            assert merged == len(CELLS)
            assert {c.key for c in dest.completed_cells(SPEC)} == {
                c.key for c in CELLS
            }
            # Idempotent: a second merge pass is pure dedup.
            for shard_id in sorted(set(assignment)):
                report = dest.merge_from(td / f"s{shard_id}")
                assert report.cells_merged == 0
                assert report.cells_deduped == assignment.count(shard_id)

    def test_overlapping_identical_cells_dedup(self, tmp_path):
        fill_store(tmp_path / "a", CELLS[:5])
        fill_store(tmp_path / "b", CELLS[3:])  # cells 3,4 on both sides
        dest = ResultStore(tmp_path / "dest")
        first = dest.merge_from(tmp_path / "a")
        second = dest.merge_from(tmp_path / "b")
        assert first.cells_merged == 5 and first.cells_deduped == 0
        assert second.cells_merged == 3 and second.cells_deduped == 2
        assert dest.status(SPEC).is_complete


class TestMergeConflicts:
    def test_conflicting_cell_payload_raises(self, tmp_path):
        fill_store(tmp_path / "a", CELLS[:1], salt="a")
        fill_store(tmp_path / "b", CELLS[:1], salt="b")
        dest = ResultStore(tmp_path / "dest")
        dest.merge_from(tmp_path / "a")
        with pytest.raises(MergeConflictError, match=CELLS[0].key):
            dest.merge_from(tmp_path / "b")

    def test_conflicting_spec_raises(self, tmp_path):
        fill_store(tmp_path / "a", CELLS[:1])
        other = ResultStore(tmp_path / "b")
        other.save_spec(CampaignSpec(name="other", densities=(300,)))
        dest = ResultStore(tmp_path / "dest")
        dest.merge_from(tmp_path / "a")
        with pytest.raises(MergeConflictError, match="spec"):
            dest.merge_from(tmp_path / "b")

    def test_conflicting_eval_entry_raises(self, tmp_path):
        line_a = json.dumps({"key": "k1", "metrics": {"coverage": 1.0}, "v": 1})
        line_b = json.dumps({"key": "k1", "metrics": {"coverage": 2.0}, "v": 1})
        a = fill_store(tmp_path / "a", [])
        b = fill_store(tmp_path / "b", [])
        a.eval_cache_path.write_text(line_a + "\n")
        b.eval_cache_path.write_text(line_b + "\n")
        dest = ResultStore(tmp_path / "dest")
        report = dest.merge_from(a)
        assert report.eval_entries_merged == 1
        with pytest.raises(MergeConflictError, match="k1"):
            dest.merge_from(b)
        # Identical payloads, by contrast, dedup.
        b.eval_cache_path.write_text(line_a + "\n")
        assert dest.merge_from(b).eval_entries_deduped == 1

    def test_incomplete_local_cell_is_healed_by_complete_source(
        self, tmp_path
    ):
        src = fill_store(tmp_path / "src", CELLS[:1])
        dest = fill_store(tmp_path / "dest", CELLS[:1])
        path = dest.cell_path(CELLS[0])
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn local copy
        assert not dest.is_complete(CELLS[0])
        report = dest.merge_from(src)
        assert report.cells_merged == 1
        assert dest.is_complete(CELLS[0])


class TestMergeSourceValidation:
    def test_missing_source_directory_raises(self, tmp_path):
        """A typo'd source must not report a successful 0-cell merge."""
        dest = ResultStore(tmp_path / "dest")
        with pytest.raises(FileNotFoundError, match="not a campaign"):
            dest.merge_from(tmp_path / "no-such-shard")

    def test_spec_less_directory_raises(self, tmp_path):
        (tmp_path / "junk").mkdir()
        dest = ResultStore(tmp_path / "dest")
        with pytest.raises(FileNotFoundError, match="spec"):
            dest.merge_from(tmp_path / "junk")


class TestMergeTolerance:
    def test_torn_source_cell_is_skipped_not_fatal(self, tmp_path):
        src = fill_store(tmp_path / "src", CELLS[:2])
        victim = src.cell_path(CELLS[0])
        text = victim.read_text()
        victim.write_text(text[: len(text) - 9])  # cut mid done-marker
        dest = ResultStore(tmp_path / "dest")
        report = dest.merge_from(src)
        assert report.cells_merged == 1
        assert report.cells_skipped == 1
        assert not dest.is_complete(CELLS[0])
        assert dest.is_complete(CELLS[1])

    def test_foreign_file_in_cells_dir_is_skipped(self, tmp_path):
        src = fill_store(tmp_path / "src", CELLS[:1])
        (src.root / "cells" / "notes.jsonl").write_text(
            json.dumps({"kind": "cell", "key": "mismatched"})
            + "\n"
            + json.dumps({"kind": "done", "n_records": 0})
            + "\n"
        )
        dest = ResultStore(tmp_path / "dest")
        report = dest.merge_from(src)
        assert report.cells_merged == 1
        assert report.cells_skipped == 1

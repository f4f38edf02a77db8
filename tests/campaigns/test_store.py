"""ResultStore persistence, completeness detection, and resume census."""

import json

import pytest

from repro.campaigns import CampaignSpec, ResultStore


@pytest.fixture()
def spec():
    return CampaignSpec(
        name="t", densities=(100,), n_seeds=2, n_networks=1, n_nodes=8
    )


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "camp")


def fake_records(n=2):
    return [{"kind": "record", "index": i, "value": i * 1.5} for i in range(n)]


class TestSpecPersistence:
    def test_save_and_load(self, spec, store):
        store.save_spec(spec)
        assert store.load_spec() == spec

    def test_save_is_idempotent(self, spec, store):
        store.save_spec(spec)
        store.save_spec(spec)

    def test_conflicting_spec_rejected(self, spec, store):
        store.save_spec(spec)
        other = CampaignSpec(
            name="other", densities=(300,), n_seeds=1, n_networks=1
        )
        with pytest.raises(ValueError):
            store.save_spec(other)

    def test_load_without_spec_raises(self, store):
        with pytest.raises(FileNotFoundError):
            store.load_spec()


class TestCellFiles:
    def test_write_read_roundtrip(self, spec, store):
        cell = spec.cells()[0]
        store.save_spec(spec)
        store.write_cell(cell, fake_records())
        assert store.is_complete(cell)
        records = store.read_cell(cell)
        assert [r["index"] for r in records] == [0, 1]

    def test_missing_cell_is_incomplete(self, spec, store):
        assert not store.is_complete(spec.cells()[0])

    def test_truncated_file_is_incomplete(self, spec, store):
        cell = spec.cells()[0]
        store.save_spec(spec)
        store.write_cell(cell, fake_records())
        path = store.cell_path(cell)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the done marker
        assert not store.is_complete(cell)
        with pytest.raises(FileNotFoundError):
            store.read_cell(cell)

    def test_corrupt_tail_is_incomplete(self, spec, store):
        cell = spec.cells()[0]
        store.save_spec(spec)
        store.write_cell(cell, fake_records())
        path = store.cell_path(cell)
        path.write_text(path.read_text() + "{not json\n")
        assert not store.is_complete(cell)

    def test_delete_cell(self, spec, store):
        cell = spec.cells()[0]
        store.save_spec(spec)
        store.write_cell(cell, fake_records())
        store.delete_cell(cell)
        assert not store.is_complete(cell)
        store.delete_cell(cell)  # idempotent

    def test_file_is_canonical_jsonl(self, spec, store):
        cell = spec.cells()[0]
        store.save_spec(spec)
        store.write_cell(cell, fake_records(1))
        lines = store.cell_path(cell).read_text().splitlines()
        head = json.loads(lines[0])
        assert head["kind"] == "cell" and head["key"] == cell.key
        assert json.loads(lines[-1])["kind"] == "done"


class TestTornTailTolerance:
    """A torn final line is tolerated the way the evaluation cache's
    loader tolerates it: the valid prefix parses, the cell just counts
    as incomplete (and re-runs) — never an error."""

    def write_complete(self, spec, store):
        cell = spec.cells()[0]
        store.save_spec(spec)
        store.write_cell(cell, fake_records())
        return cell, store.cell_path(cell)

    def test_truncated_mid_record_is_incomplete_not_an_error(
        self, spec, store
    ):
        """The regression case: the file is cut mid-record (a crash
        during an external copy), leaving a torn final line."""
        cell, path = self.write_complete(spec, store)
        text = path.read_text()
        cut = text.index('"value"')  # inside the second record's JSON
        path.write_text(text[:cut])
        assert not store.is_complete(cell)
        with pytest.raises(FileNotFoundError):
            store.read_cell(cell)
        # And the atomic rewrite heals it.
        store.write_cell(cell, fake_records())
        assert store.is_complete(cell)
        assert len(store.read_cell(cell)) == 2

    def test_midfile_damage_keeps_read_and_complete_consistent(
        self, spec, store
    ):
        """Damage *before* the tail (done marker still last): the file
        is untrusted as a whole — is_complete and read_cell must agree
        it is incomplete (historically is_complete said True while
        read_cell raised)."""
        cell, path = self.write_complete(spec, store)
        lines = path.read_text().splitlines()
        lines[1] = '{"kind": "record", "index": 0, "val'  # torn mid-file
        path.write_text("\n".join(lines) + "\n")
        assert not store.is_complete(cell)
        with pytest.raises(FileNotFoundError):
            store.read_cell(cell)


class TestCensus:
    def test_status_counts(self, spec, store):
        store.save_spec(spec)
        cells = spec.cells()
        assert store.status(spec).pending == len(cells)
        store.write_cell(cells[0], fake_records())
        status = store.status(spec)
        assert (status.total, status.complete, status.pending) == (2, 1, 1)
        assert not status.is_complete

    def test_pending_and_completed_partition(self, spec, store):
        store.save_spec(spec)
        cells = spec.cells()
        store.write_cell(cells[1], fake_records())
        assert store.completed_cells(spec) == [cells[1]]
        assert store.pending_cells(spec) == [cells[0]]

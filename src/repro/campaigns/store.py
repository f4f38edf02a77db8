"""Resumable on-disk campaign results.

Layout under one campaign directory::

    <root>/
      spec.json            # the CampaignSpec that owns this directory
      cells/<key>.jsonl    # one file per completed cell

The optional ``evaluations.jsonl`` sidecar is the campaign's persistent
per-simulation evaluation cache
(:class:`~repro.tuning.cache.PersistentEvaluationCache`, written by the
executor): cells resolve at cell granularity from ``cells/``, individual
simulations at (scenario, params) granularity from the sidecar — which
also serves *other* campaigns whose grids overlap.

A cell file is JSON Lines: a header line carrying the full cell
description, one line per result record, and a terminal ``done`` marker.
Files are written whole and atomically (temp file + ``os.replace``), so
a crash mid-campaign leaves *missing* cells, never half-written ones —
resume is simply "run the cells whose files lack a done marker".  Cell
files are content-keyed by :attr:`CampaignCell.key`: editing the spec
changes the keys, so stale results are never picked up by mistake.

Reading is torn-tail tolerant, the same contract
:class:`~repro.tuning.cache.PersistentEvaluationCache` applies to its
sidecar: a final line cut mid-record (a crash during an external copy)
drops just that line and leaves the cell *incomplete* — never an
error, and never a half-trusted read.  Damage earlier in the file marks
the whole cell incomplete; either way the next run re-executes it and
the atomic rewrite heals the file.

All JSON is canonically encoded (sorted keys, fixed separators), which
makes a re-run of the same spec + seed produce bit-identical files —
the determinism contract the campaign tests pin down.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.campaigns.spec import CampaignCell, CampaignSpec, canonical_json
from repro.utils import flags

__all__ = ["ResultStore", "CampaignStatus"]


@dataclass(frozen=True)
class CampaignStatus:
    """Completion census of a campaign directory."""

    total: int
    complete: int

    @property
    def pending(self) -> int:
        return self.total - self.complete

    @property
    def is_complete(self) -> bool:
        return self.complete == self.total


class ResultStore:
    """JSONL-per-cell result persistence with content-keyed resume."""

    SPEC_FILE = "spec.json"
    CELLS_DIR = "cells"
    EVAL_CACHE_FILE = "evaluations.jsonl"
    TELEMETRY_FILE = "telemetry.jsonl"
    FAILURES_FILE = "failures.jsonl"

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    @property
    def spec_path(self) -> Path:
        return self.root / self.SPEC_FILE

    @property
    def eval_cache_path(self) -> Path:
        """Default location of the persistent evaluation-cache sidecar."""
        return self.root / self.EVAL_CACHE_FILE

    @property
    def telemetry_path(self) -> Path:
        """The campaign's telemetry stream (DESIGN.md §12).

        An append-only observation log written by the executor's
        :class:`~repro.telemetry.JsonlRecorder` when ``REPRO_TELEMETRY``
        is set.  Deliberately *outside* the bit-identity surface: the
        determinism contract covers ``spec.json`` + ``cells/`` (and the
        eval sidecar's key set), never this file's wall-clock content.
        """
        return self.root / self.TELEMETRY_FILE

    @property
    def failures_path(self) -> Path:
        """The campaign's quarantine ledger (DESIGN.md §13).

        Written by the resilience layer's
        :class:`~repro.campaigns.resilience.FailureLedger` when a cell
        exhausts its retry budget.  Like the telemetry stream, outside
        the bit-identity surface — it exists precisely for the runs
        whose stores are incomplete.
        """
        return self.root / self.FAILURES_FILE

    def cell_path(self, cell: CampaignCell) -> Path:
        return self.root / self.CELLS_DIR / f"{cell.key}.jsonl"

    # ------------------------------------------------------------------ #
    def save_spec(self, spec: CampaignSpec) -> None:
        """Record the owning spec (refuses to mix campaigns in one dir)."""
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / self.CELLS_DIR).mkdir(exist_ok=True)
        text = spec.to_json()
        if self.spec_path.exists():
            existing = self.spec_path.read_text()
            if existing != text:
                raise ValueError(
                    f"{self.spec_path} already holds a different campaign "
                    "spec; use a fresh directory (or delete it) to change "
                    "the grid"
                )
            return
        self._write_atomic(self.spec_path, text)

    def load_spec(self) -> CampaignSpec:
        """The spec recorded by :meth:`save_spec`."""
        if not self.spec_path.exists():
            raise FileNotFoundError(
                f"no campaign spec at {self.spec_path}; run the campaign "
                "first (or point --out at a campaign directory)"
            )
        return CampaignSpec.from_json(self.spec_path.read_text())

    # ------------------------------------------------------------------ #
    def write_cell(self, cell: CampaignCell, records: list[dict]) -> None:
        """Persist one completed cell (atomic; done marker terminates)."""
        lines = [
            canonical_json({"kind": "cell", "key": cell.key,
                            "cell": cell.as_dict()})
        ]
        lines += [canonical_json(record) for record in records]
        lines.append(canonical_json({"kind": "done",
                                     "n_records": len(records)}))
        path = self.cell_path(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._write_atomic(path, "\n".join(lines) + "\n")
        if flags.read_raw("REPRO_FAULTS"):
            # Chaos-only hook: simulate a crash mid-append after the
            # atomic write (DESIGN.md §13).  Unreachable in production.
            from repro.campaigns import faults

            faults.maybe_tear(path, cell.key)

    def read_cell(self, cell: CampaignCell) -> list[dict]:
        """The result records of a completed cell (raises if incomplete).

        Single read: completeness (the terminal done marker, and no
        torn or damaged lines) is checked on the same parse that yields
        the records, so :meth:`read_cell` and :meth:`is_complete` can
        never disagree about a file.
        """
        path = self.cell_path(cell)
        try:
            lines = path.read_text().splitlines()
        except FileNotFoundError:
            raise FileNotFoundError(
                f"cell {cell.key} has no completed results under {self.root}"
            ) from None
        entries = self._complete_entries(lines)
        if entries is None:
            raise FileNotFoundError(
                f"cell {cell.key} has no completed results under {self.root}"
            )
        return [e for e in entries if e.get("kind") == "record"]

    def delete_cell(self, cell: CampaignCell) -> None:
        """Forget one cell's results (the next run re-executes it)."""
        self.cell_path(cell).unlink(missing_ok=True)

    def is_complete(self, cell: CampaignCell) -> bool:
        """True when the cell file parses whole and ends with ``done``."""
        path = self.cell_path(cell)
        try:
            lines = path.read_text().splitlines()
        except FileNotFoundError:
            return False
        return self._complete_entries(lines) is not None

    def heal_cell(self, cell: CampaignCell) -> bool:
        """Repair a cell file whose only damage is a torn tail *after*
        the done marker (junk appended by a crash mid-copy or a chaos
        ``torn-tail`` fault).  The valid prefix — header, records, done
        marker — is rewritten atomically in canonical form, so a healed
        file is byte-identical to a cleanly written one.  Returns True
        iff the file was healed to complete; anything unrecoverable
        (missing, mid-file damage, no done marker: the cell genuinely
        needs re-execution) is left alone and returns False.
        """
        path = self.cell_path(cell)
        try:
            lines = path.read_text().splitlines()
        except FileNotFoundError:
            return False
        entries, damaged = self._parse_entries(lines)
        if not damaged:
            return False  # clean file: complete or not, nothing to heal
        if (
            not entries
            or entries[-1].get("kind") != "done"
            or entries[0].get("kind") != "cell"
            or entries[0].get("key") != cell.key
        ):
            return False
        self._write_atomic(
            path, "\n".join(canonical_json(e) for e in entries) + "\n"
        )
        return True

    # ------------------------------------------------------------------ #
    @staticmethod
    def _parse_entries(lines: list[str]) -> tuple[list[dict], bool]:
        """``(entries, damaged)`` from cell-file lines, tolerating a torn tail.

        A final line cut mid-record — a crash during an external copy or
        append, the exact failure mode the evaluation cache's loader
        already tolerates — drops just that line (``damaged=True``).
        An unparseable line anywhere *earlier* means the file cannot be
        trusted at all and yields ``([], True)``.
        """
        content = [line for line in lines if line.strip()]
        entries: list[dict] = []
        for i, line in enumerate(content):
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                if i == len(content) - 1:
                    return entries, True  # torn tail: valid prefix stands
                return [], True  # mid-file damage: trust nothing
        return entries, False

    @classmethod
    def _complete_entries(cls, lines: list[str]) -> list[dict] | None:
        """The file's entries iff it is a complete cell file, else None."""
        entries, damaged = cls._parse_entries(lines)
        if damaged or not entries or entries[-1].get("kind") != "done":
            return None
        return entries

    # ------------------------------------------------------------------ #
    def completed_cells(self, spec: CampaignSpec) -> list[CampaignCell]:
        return [c for c in spec.cells() if self.is_complete(c)]

    def pending_cells(self, spec: CampaignSpec) -> list[CampaignCell]:
        return [c for c in spec.cells() if not self.is_complete(c)]

    def status(self, spec: CampaignSpec) -> CampaignStatus:
        cells = spec.cells()
        done = sum(1 for c in cells if self.is_complete(c))
        return CampaignStatus(total=len(cells), complete=done)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)

"""Append-safety for the repo's JSON Lines files.

Every JSONL file here (evaluation cache, telemetry stream, failure
ledger) lives under one torn-tail contract: a process
killed mid-append leaves a final partial line, and every *reader*
skips unparseable lines instead of erroring.  That contract has an
append-side half too: a partial line has no trailing newline, so a
later writer that blindly appends would glue its first record onto the
junk — and lose it to the readers' skip rule.  :func:`ensure_line_boundary`
closes that hole: called before opening an append handle, it terminates
any torn tail so the junk stays an isolated (skipped) line and every
subsequent record starts at column zero.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["ensure_line_boundary"]


def ensure_line_boundary(path: str | Path) -> bool:
    """Make sure ``path`` ends on a line boundary before appending.

    If the file exists, is non-empty, and its last byte is not a
    newline (a predecessor crashed mid-append), append one ``\\n`` so
    the torn fragment becomes a complete — unparseable, hence skipped —
    line of its own.  Returns True iff a repair byte was written.
    Missing or clean files are left untouched.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) == b"\n":
                return False
    except FileNotFoundError:
        return False
    except OSError:
        return False  # empty file: seek(-1) from its end is invalid
    with path.open("ab") as fh:
        fh.write(b"\n")
    return True

"""Central registry for every ``REPRO_*`` environment flag.

Every behaviour toggle in this repo crosses process boundaries as an
environment variable (``fork``/``spawn`` pool and population workers
inherit it for free), which means a typo'd name fails silently:
``os.environ.get("REPRO_TELEMTRY")`` is just ``None``.  This module
closes that hole the same way the telemetry layer closed the
counter-naming hole — one registry, consulted at read time, with a
static-analysis rule (``repro-lint`` E301/E302, DESIGN.md §16) that
forbids raw ``os.environ`` reads of ``REPRO_*`` names anywhere else.

Contract (shared by every reader in ``src/``):

* **Reads are per call, never cached at import** — campaign workers
  honour the parent's environment and tests flip flags with
  ``monkeypatch.setenv``.  A module that deliberately samples a flag
  once at import says so in the registry entry's ``doc``.
* **Unregistered reads raise** ``UnknownFlagError`` — the registry is
  the single source of truth for name, accepted values, default, and
  the DESIGN.md anchor documenting the semantics.
* The README flag table is *generated* from this registry
  (:func:`registry_table_markdown`); ``tests/test_docs.py`` asserts the
  two never drift.

Build-time flags (``scope="build"``) are read by ``setup.py`` / CI
before this package is importable; they are registered here purely so
the documentation table and the lint's known-name set stay complete.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "Flag",
    "UnknownFlagError",
    "all_flags",
    "get_flag",
    "is_registered",
    "read_bool",
    "read_raw",
    "register",
    "registry_table_markdown",
]


class UnknownFlagError(KeyError):
    """A ``REPRO_*`` name that no code path registered.

    Raised at *read* time: the registry cannot know a flag the caller
    invented, and silently returning ``None`` would reintroduce exactly
    the typo class this module exists to kill.
    """


@dataclass(frozen=True)
class Flag:
    """One registered environment flag.

    ``values`` is the accepted-value summary shown in docs (free-form
    for specs/paths); ``default`` is the *effective* default the reader
    applies, rendered verbatim in the README table; ``anchor`` points at
    the DESIGN.md (or README) section that owns the semantics.
    """

    name: str
    values: str
    default: str
    doc: str
    anchor: str
    scope: str = "runtime"  # "runtime" | "build"

    def read(self) -> str | None:
        """Raw per-call environment read (``None`` when unset)."""
        return os.environ.get(self.name)


_REGISTRY: dict[str, Flag] = {}


def register(
    name: str,
    *,
    values: str,
    default: str,
    doc: str,
    anchor: str,
    scope: str = "runtime",
) -> Flag:
    """Register ``name`` (idempotent for identical re-registration)."""
    if not name.startswith("REPRO_"):
        raise ValueError(f"flag names must start with REPRO_, got {name!r}")
    flag = Flag(name, values, default, doc, anchor, scope)
    existing = _REGISTRY.get(name)
    if existing is not None and existing != flag:
        raise ValueError(f"conflicting re-registration of {name}")
    _REGISTRY[name] = flag
    return flag


def get_flag(name: str) -> Flag:
    """The registered :class:`Flag`, or :class:`UnknownFlagError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownFlagError(
            f"{name} is not a registered REPRO_* flag; add it to "
            "repro/utils/flags.py (see DESIGN.md §16)"
        ) from None


def is_registered(name: str) -> bool:
    """Whether ``name`` is in the registry (no read performed)."""
    return name in _REGISTRY


def all_flags() -> Iterator[Flag]:
    """Registered flags in definition order (stable: dicts preserve it)."""
    return iter(_REGISTRY.values())


def read_raw(name: str) -> str | None:
    """Per-call environment read of a *registered* flag (else raises)."""
    return get_flag(name).read()


def read_bool(name: str) -> bool:
    """The repo-wide kill-switch convention: only ``"0"`` disables.

    A boolean flag defaults on and is turned off with ``=0``; any other
    value — including the empty string — leaves the feature enabled,
    matching the historical readers byte for byte.
    """
    flag = get_flag(name)
    raw = flag.read()
    if raw is None:
        raw = flag.default
    return raw != "0"


def registry_table_markdown() -> str:
    """The README flag table, generated (one row per registered flag)."""
    rows = [
        "| Flag | Values | Default | What it controls |",
        "| --- | --- | --- | --- |",
    ]
    for flag in all_flags():
        doc = flag.doc
        if flag.scope == "build":
            doc = f"{doc} *(build-time)*"
        rows.append(
            f"| `{flag.name}` | {flag.values} | `{flag.default}` "
            f"| {doc} ([{flag.anchor}]) |"
        )
    return "\n".join(rows)


# --------------------------------------------------------------------- #
# The registry.  Order = README table order: simulation semantics first,
# then observation, then failure handling, then build-time knobs.
# --------------------------------------------------------------------- #

register(
    "REPRO_SCALE",
    values="`quick` \\| `medium` \\| `paper`",
    default="quick",
    doc="Experiment scale preset (grid sizes, seed counts, budgets)",
    anchor="README.md — The command line",
)
register(
    "REPRO_COMPILED",
    values="`auto` \\| `on` \\| `off`",
    default="auto",
    doc="Compiled event core selection; `on` raises without the extension",
    anchor="DESIGN.md §14",
)
register(
    "REPRO_TELEMETRY",
    values="unset/`off` \\| `on` \\| `deep`",
    default="off",
    doc="Telemetry mode: off (null recorder), on, or deep counters",
    anchor="DESIGN.md §12",
)
register(
    "REPRO_FAULTS",
    values="fault spec string",
    default="(unset)",
    doc="Deterministic fault-injection plane (tests/chaos only)",
    anchor="DESIGN.md §13",
)
register(
    "REPRO_REQUIRE_COMPILED",
    values="`1` makes a failed build fatal",
    default="(unset)",
    doc="Hard-fail `setup.py build_ext` when the event core cannot build",
    anchor="DESIGN.md §14",
    scope="build",
)
register(
    "REPRO_SANITIZE",
    values="e.g. `address,undefined`",
    default="(unset)",
    doc="Build `_evcore` with `-fsanitize=<value>` for the CI sanitizer leg",
    anchor="DESIGN.md §16",
    scope="build",
)

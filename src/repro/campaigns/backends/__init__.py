"""Pluggable campaign execution backends.

One campaign, two backends — bit-identical by contract (DESIGN.md §10,
pinned by ``tests/campaigns/test_backend_identity.py``):

==========  ========================================================
backend     strategy
==========  ========================================================
inline      serial, in-process — debuggable reference implementation
pool        one shared process pool, one task per cell (DESIGN §10)
==========  ========================================================

Select one with ``CampaignExecutor(..., backend="pool")`` (a string or a
:class:`Backend` instance) or ``repro-aedb campaign run --backend
pool``; :func:`resolve_backend` is the shared parser.
"""

from __future__ import annotations

from repro.campaigns.backends.base import Backend, ExecutionContext
from repro.campaigns.backends.inline import InlineBackend
from repro.campaigns.backends.pool import PoolBackend

__all__ = [
    "Backend",
    "ExecutionContext",
    "InlineBackend",
    "PoolBackend",
    "resolve_backend",
]


def resolve_backend(value: "Backend | str") -> Backend:
    """A :class:`Backend` from an instance or a CLI-style string.

    Accepted strings: ``"inline"`` and ``"pool"`` (case and surrounding
    blanks ignored).  Anything else — the removed ``shard:N`` and
    ``remote:N`` spellings included — raises a ``ValueError`` naming it.
    """
    if not isinstance(value, str):
        if isinstance(value, Backend):
            return value
        raise ValueError(
            f"backend must be a string or a Backend instance, got {value!r}"
        )
    spec = value.strip().lower()
    if spec == "inline":
        return InlineBackend()
    if spec == "pool":
        return PoolBackend()
    raise ValueError(
        f"unknown backend {value!r}; expected 'inline' or 'pool'"
    )

"""Pluggable campaign execution backends.

One campaign, four ways to run it — all bit-identical by contract
(DESIGN.md §10, pinned by ``tests/campaigns/test_backend_identity.py``):

==========  ========================================================
backend     strategy
==========  ========================================================
inline      serial, in-process — debuggable reference implementation
pool        one shared process pool over every cell's jobs (DESIGN §9)
shard:N     N content-keyed shards, each with its own store, merged
            back with dedup + conflict detection
remote:N    the shard protocol over a pluggable transport — bundles
            shipped to workers, stores streamed back (DESIGN §15);
            ``remote:N`` = ``remote:N@loopback``
==========  ========================================================

Select one with ``CampaignExecutor(..., backend="shard:4")`` (a string
or a :class:`Backend` instance) or ``repro-aedb campaign run --backend
shard:4``; :func:`resolve_backend` is the shared parser.
"""

from __future__ import annotations

from repro.campaigns.backends.base import Backend, ExecutionContext
from repro.campaigns.backends.inline import InlineBackend
from repro.campaigns.backends.pool import PoolBackend
from repro.campaigns.backends.remote import RemoteShardBackend
from repro.campaigns.backends.shard import (
    ShardBackend,
    ShardSpec,
    partition_cells,
    shard_index_for,
)
from repro.campaigns.backends.transport import (
    LoopbackTransport,
    ShardTransport,
    TransportError,
)

__all__ = [
    "Backend",
    "ExecutionContext",
    "InlineBackend",
    "PoolBackend",
    "ShardBackend",
    "ShardSpec",
    "RemoteShardBackend",
    "ShardTransport",
    "LoopbackTransport",
    "TransportError",
    "partition_cells",
    "shard_index_for",
    "resolve_backend",
]

#: Default shard count when ``"shard"``/``"remote"`` is given bare.
DEFAULT_SHARDS = 2


def _parse_count(raw: str, value: str, form: str) -> int:
    """A positive shard count, or a ValueError naming the bad string.

    Validation happens here — at parse time — so ``--backend shard:0``
    fails with the offending string before any campaign state exists,
    not as a partition error mid-run.
    """
    try:
        n_shards = int(raw)
    except ValueError:
        n_shards = 0
    if n_shards <= 0:
        raise ValueError(
            f"bad shard count in backend {value!r}; use {form} with N >= 1"
        )
    return n_shards


def _parse_remote(spec: str, value: str, keep_shards: bool) -> Backend:
    """``remote[:N[@loopback]]`` → a RemoteShardBackend."""
    rest = spec.split(":", 1)[1] if ":" in spec else str(DEFAULT_SHARDS)
    count_part, _, transport_part = rest.partition("@")
    n_shards = _parse_count(count_part, value, "remote:N")
    if transport_part and transport_part != "loopback":
        raise ValueError(
            f"unknown transport in backend {value!r}; use remote:N@loopback"
        )
    return RemoteShardBackend(
        n_shards, transport=LoopbackTransport(), keep_shards=keep_shards
    )


def resolve_backend(
    value: "Backend | str", keep_shards: bool = False
) -> Backend:
    """A :class:`Backend` from an instance or a CLI-style string.

    Accepted strings: ``"inline"``, ``"pool"``, ``"shard"`` (=
    ``shard:2``), ``"shard:N"``, ``"remote"`` (= ``remote:2`` over
    loopback), ``"remote:N"``, ``"remote:N@loopback"``.  ``keep_shards``
    applies to shard-family backends only (other strings ignore it).
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
    if spec == "shard":
        return ShardBackend(DEFAULT_SHARDS, keep_shards=keep_shards)
    if spec.startswith("shard:"):
        n_shards = _parse_count(spec.split(":", 1)[1], value, "shard:N")
        return ShardBackend(n_shards, keep_shards=keep_shards)
    if spec == "remote" or spec.startswith("remote:"):
        return _parse_remote(spec, value, keep_shards)
    raise ValueError(
        f"unknown backend {value!r}; expected 'inline', 'pool', "
        "'shard:N', or 'remote:N[@transport]'"
    )

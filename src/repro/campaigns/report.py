"""Plain-text campaign status, result, and failure rendering (CLI surface)."""

from __future__ import annotations

from repro.campaigns.spec import EVALUATE, CampaignSpec
from repro.campaigns.store import ResultStore

__all__ = [
    "render_status",
    "render_report",
    "render_failures",
]


def render_status(spec: CampaignSpec, store: ResultStore) -> str:
    """Completion census, cache/simulation tallies, pending cell keys."""
    from repro.telemetry import TelemetrySummary
    from repro.tuning.cache import PersistentEvaluationCache

    status = store.status(spec)
    lines = [
        f"campaign '{spec.name}': {status.complete}/{status.total} cells "
        f"complete ({status.pending} pending)",
        f"grid: {len(spec.densities)} densities x "
        f"{len(spec.mobility_models)} mobility models x "
        f"{len(spec.area_sides_m)} arenas x {spec.n_seeds} seeds x "
        f"{len(spec.algorithms)} algorithms",
        f"store: {store.root}",
    ]
    if store.eval_cache_path.exists():
        entries = PersistentEvaluationCache._read_entries(
            store.eval_cache_path
        )
        lines.append(
            f"evaluation cache: {len(entries)} stored simulation(s)"
        )
    telemetry = TelemetrySummary.from_file(store.telemetry_path)
    if not telemetry.is_empty:
        # The same counters `campaign telemetry` reports — status and
        # telemetry must agree because both read one stream.
        lines.append(
            "telemetry: "
            f"{telemetry.counter('campaign.cache_hits')} cache hit(s), "
            f"{telemetry.counter('campaign.simulations_executed')} "
            "simulation(s) executed"
        )
    from repro.campaigns.resilience import FailureLedger

    quarantined = FailureLedger(store.failures_path).latest_by_cell()
    if quarantined:
        lines.append(
            f"quarantined: {len(quarantined)} cell(s) in "
            f"{store.FAILURES_FILE} (see `campaign failures`)"
        )
    pending = store.pending_cells(spec)
    if pending:
        lines.append("pending cells:")
        lines += [
            f"  {cell.key}"
            + ("  [quarantined]" if cell.key in quarantined else "")
            for cell in pending
        ]
    return "\n".join(lines)


def render_report(spec: CampaignSpec, store: ResultStore) -> str:
    """One row per completed record across the whole grid."""
    header = (
        f"{'density':>8s} {'mobility':>16s} {'arena':>6s} {'seed':>4s} "
        f"{'algorithm':>12s} {'coverage':>9s} {'energy':>10s} "
        f"{'forward.':>9s} {'bt[s]':>6s} {'front':>6s} {'evals':>6s}"
    )
    lines = [f"campaign '{spec.name}' results", header]
    incomplete = 0
    for cell in spec.cells():
        try:
            records = store.read_cell(cell)
        except FileNotFoundError:
            incomplete += 1
            continue
        prefix = (
            f"{cell.density_per_km2:>8g} {cell.mobility_model:>16s} "
            f"{cell.area_side_m:>6g} {cell.seed_index:>4d} "
            f"{cell.algorithm:>12s}"
        )
        for record in records:
            if cell.algorithm == EVALUATE:
                agg = record["aggregate"]
                lines.append(
                    f"{prefix} {agg['coverage']:>9.1f} "
                    f"{agg['energy_dbm']:>10.1f} {agg['forwardings']:>9.1f} "
                    f"{agg['broadcast_time_s']:>6.2f} {'-':>6s} {'-':>6s}"
                )
            else:
                lines.append(
                    f"{prefix} {'-':>9s} {'-':>10s} {'-':>9s} {'-':>6s} "
                    f"{len(record['front']):>6d} {record['evaluations']:>6d}"
                )
    if incomplete:
        lines.append(f"({incomplete} cells not yet complete)")
    return "\n".join(lines)


def render_failures(spec: CampaignSpec, store: ResultStore) -> str:
    """The quarantine ledger, newest entry per cell (``campaign
    failures``).  Entries for cells that have since completed were
    pruned by the run that recovered them; anything listed here is a
    cell the retry budget could not save (DESIGN.md §13)."""
    import time as _time

    from repro.campaigns.resilience import FailureLedger

    ledger = FailureLedger(store.failures_path)
    latest = ledger.latest_by_cell()
    if not latest:
        return (
            f"campaign '{spec.name}': no quarantined cells "
            f"(no {store.FAILURES_FILE} entries under {store.root})"
        )
    known = {cell.key: cell for cell in spec.cells()}
    lines = [
        f"campaign '{spec.name}': {len(latest)} quarantined cell(s)",
        f"ledger: {store.failures_path}",
    ]
    for key in sorted(latest, key=lambda k: latest[k].get("t", 0.0)):
        entry = latest[key]
        cell = known.get(key)
        what = (
            f"{cell.density_per_km2:g}/km2 {cell.mobility_model} "
            f"seed {cell.seed_index} {cell.algorithm}"
            if cell is not None
            else "(not in current spec)"
        )
        stamp = _time.strftime(
            "%Y-%m-%d %H:%M:%S", _time.localtime(entry.get("t", 0.0))
        )
        lines.append(
            f"  {key}  {what}\n"
            f"    {entry.get('attempts', '?')} attempt(s), last {stamp}: "
            f"{entry.get('error', '')}"
        )
    lines.append(
        "re-run the campaign to retry quarantined cells "
        "(completed cells are skipped; recovered cells are pruned "
        "from the ledger)"
    )
    return "\n".join(lines)

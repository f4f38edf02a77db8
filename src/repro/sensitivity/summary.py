"""Table I generation — distilling the sensitivity study into arrows.

The paper's Table I states, for each (parameter, objective) pair, the
*direction* the parameter should move to optimise the objective (△ =
increase, ▽ = decrease, △▽ = both matter / non-monotone) and how much
*interaction* the analysis found ("yes" / "few" / "very few" / "no").

Directions come from a monotone trend probe (a one-dimensional sweep of
the parameter with the others fixed at mid-range, correlated against the
objective with Spearman rank correlation); interaction labels bucket the
FAST99 ``ST − S1`` index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.manet.aedb import AEDBParams
from repro.sensitivity.analysis import (
    OBJECTIVE_NAMES,
    SENSITIVITY_RANGES,
    AEDBSensitivityStudy,
)
from repro.tuning.evaluation import NetworkSetEvaluator

__all__ = ["Table1Cell", "build_table1", "trend_probe"]

#: Optimisation sense per objective (Table I header: coverage maximised,
#: forwardings/energy minimised, broadcast time constrained -> minimised).
_OBJECTIVE_SENSE = {
    "coverage": +1,
    "forwardings": -1,
    "energy": -1,
    "broadcast_time": -1,
}

#: Interaction-strength buckets on ST − S1.
_INTERACTION_BUCKETS = (
    (0.30, "yes"),
    (0.15, "few"),
    (0.05, "very few"),
    (0.00, "no"),
)


@dataclass(frozen=True)
class Table1Cell:
    """One (parameter, objective) entry."""

    parameter: str
    objective: str
    #: "increase", "decrease", or "mixed" (non-monotone response).
    direction: str
    #: Spearman correlation between parameter and objective on the probe.
    correlation: float
    #: "yes" / "few" / "very few" / "no".
    interaction: str
    #: Raw FAST99 interaction index (ST − S1).
    interaction_index: float

    @property
    def arrow(self) -> str:
        """The paper's glyph for the direction."""
        return {"increase": "△", "decrease": "▽", "mixed": "△▽"}[
            self.direction
        ]


def trend_probe(
    evaluator: NetworkSetEvaluator,
    parameter: str,
    n_points: int = 9,
) -> dict[str, np.ndarray]:
    """Sweep one parameter over its wide range, others at mid-range.

    Returns ``{"values": sweep, <objective>: responses...}``.
    """
    ranges = {name: (lo, hi) for name, lo, hi in SENSITIVITY_RANGES}
    if parameter not in ranges:
        raise ValueError(f"unknown parameter {parameter!r}")
    mid = {name: 0.5 * (lo + hi) for name, (lo, hi) in ranges.items()}
    lo, hi = ranges[parameter]
    sweep = np.linspace(lo, hi, n_points)

    responses: dict[str, list[float]] = {name: [] for name in OBJECTIVE_NAMES}
    for value in sweep:
        config = dict(mid)
        config[parameter] = float(value)
        params = AEDBParams(
            min_delay_s=config["min_delay_s"],
            max_delay_s=config["max_delay_s"],
            border_threshold_dbm=config["border_threshold_dbm"],
            margin_threshold_db=config["margin_threshold_db"],
            neighbors_threshold=config["neighbors_threshold"],
        )
        metrics = evaluator.evaluate(params)
        responses["broadcast_time"].append(metrics.broadcast_time_s)
        responses["coverage"].append(metrics.coverage)
        responses["forwardings"].append(metrics.forwardings)
        responses["energy"].append(metrics.energy_dbm)

    out: dict[str, np.ndarray] = {"values": sweep}
    for name, series in responses.items():
        out[name] = np.array(series)
    return out


def _direction(sweep: np.ndarray, response: np.ndarray, sense: int) -> tuple[str, float]:
    """Direction to move the parameter to *improve* the objective."""
    from scipy.stats import spearmanr

    if np.allclose(response, response[0]):
        return "mixed", 0.0
    rho = float(spearmanr(sweep, response).statistic)
    if np.isnan(rho) or abs(rho) < 0.3:
        return "mixed", 0.0 if np.isnan(rho) else rho
    # sense=+1: improving means increasing the objective.
    improving_up = (rho > 0) == (sense > 0)
    return ("increase" if improving_up else "decrease"), rho


def build_table1(
    study: AEDBSensitivityStudy,
    probe_points: int = 9,
) -> list[Table1Cell]:
    """Full Table I: one cell per (parameter, objective) pair."""
    indices = study.run()
    cells: list[Table1Cell] = []
    for parameter in study.parameter_names:
        probe = trend_probe(study.evaluator, parameter, n_points=probe_points)
        for objective in OBJECTIVE_NAMES:
            direction, rho = _direction(
                probe["values"], probe[objective], _OBJECTIVE_SENSE[objective]
            )
            sens = indices[objective].result
            idx = sens.names.index(parameter)
            inter_val = float(sens.interactions[idx])
            label = next(
                name for cut, name in _INTERACTION_BUCKETS if inter_val >= cut
            )
            cells.append(
                Table1Cell(
                    parameter=parameter,
                    objective=objective,
                    direction=direction,
                    correlation=rho,
                    interaction=label,
                    interaction_index=inter_val,
                )
            )
    return cells

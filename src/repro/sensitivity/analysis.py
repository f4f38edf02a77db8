"""Sensitivity analysis of the AEDB simulator (paper Sect. III-B).

Runs FAST99 over the paper's *wide* exploration ranges (deliberately
larger than the Table III optimisation domains):

====================  ==================  =========================
 parameter             paper range         here
====================  ==================  =========================
 min_delay              [0, 5] s           [0, 5]
 max_delay              [0, 5] s           [0, 5]
 border_threshold       [0, 95]            [-95, 0] dBm (see note)
 margin_threshold       [0, 16.2] dB       [0, 16.2]
 neighbor_threshold     [0, 100] devices   [0, 100]
====================  ==================  =========================

Note: the paper quotes border thresholds as magnitudes; physically they
are received-power levels in dBm, so the range maps to [−95, 0] dBm.

Each of the four outputs of Fig. 2 (broadcast time, coverage,
forwardings, energy) is analysed as one scalar model over the same
design, so a full study costs ``5 · N`` simulator evaluations per
density with FAST99 (``method="fast99"``, the paper's estimator) or
``(5 + 2) · N`` with the Sobol'/Saltelli estimator (``method="sobol"``,
the independent cross-check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.manet.aedb import AEDBParams
from repro.sensitivity.fast import Fast99Result, fast99_indices, fast99_sample
from repro.sensitivity.sobol import SobolResult, saltelli_sample, sobol_indices
from repro.tuning.evaluation import NetworkSetEvaluator

__all__ = [
    "SENSITIVITY_RANGES",
    "OBJECTIVE_NAMES",
    "ObjectiveSensitivity",
    "AEDBSensitivityStudy",
]

#: The wide exploration ranges of Sect. III-B, canonical variable order.
SENSITIVITY_RANGES: tuple[tuple[str, float, float], ...] = (
    ("min_delay_s", 0.0, 5.0),
    ("max_delay_s", 0.0, 5.0),
    ("border_threshold_dbm", -95.0, 0.0),
    ("margin_threshold_db", 0.0, 16.2),
    ("neighbors_threshold", 0.0, 100.0),
)

#: The four outputs of Fig. 2, in its subfigure order (a)-(d).
OBJECTIVE_NAMES: tuple[str, ...] = (
    "broadcast_time",
    "coverage",
    "forwardings",
    "energy",
)


@dataclass(frozen=True)
class ObjectiveSensitivity:
    """Fig. 2 data for one output: indices per parameter.

    ``result`` is a :class:`Fast99Result` or :class:`SobolResult` — both
    expose ``names`` / ``first_order`` / ``interactions``.
    """

    objective: str
    result: Fast99Result | SobolResult

    def bars(self) -> list[tuple[str, float, float]]:
        """(parameter, main effect, interaction) rows, plot order."""
        return [
            (
                name,
                float(self.result.first_order[i]),
                float(self.result.interactions[i]),
            )
            for i, name in enumerate(self.result.names)
        ]


class AEDBSensitivityStudy:
    """Variance decomposition over the AEDB simulator for one density.

    ``method`` selects the estimator: ``"fast99"`` (the paper's) or
    ``"sobol"`` (Saltelli design, extension).  For Sobol, ``n_samples``
    is the base-matrix size ``N`` (rounded up to a power of two).
    """

    def __init__(
        self,
        evaluator: NetworkSetEvaluator,
        n_samples: int = 129,
        M: int = 4,
        rng_seed: int = 0,
        method: str = "fast99",
    ):
        if method not in ("fast99", "sobol"):
            raise ValueError(
                f"unknown method {method!r}; choose 'fast99' or 'sobol'"
            )
        self.evaluator = evaluator
        self.n_samples = int(n_samples)
        self.M = int(M)
        self.rng_seed = int(rng_seed)
        self.method = method
        self._metrics_rows: np.ndarray | None = None
        self._omega_max: int | None = None

    # ------------------------------------------------------------------ #
    @property
    def parameter_names(self) -> tuple[str, ...]:
        """Analysed parameter names (canonical order)."""
        return tuple(name for name, _, _ in SENSITIVITY_RANGES)

    def _metrics_for(self, row: np.ndarray) -> tuple[float, float, float, float]:
        params = AEDBParams.from_array(row)  # wide ranges: no clipping
        m = self.evaluator.evaluate(params)
        return (
            m.broadcast_time_s,
            m.coverage,
            m.forwardings,
            m.energy_dbm,
        )

    def run(self) -> dict[str, ObjectiveSensitivity]:
        """Evaluate the design once; analyse all four outputs.

        Returns ``{objective name: ObjectiveSensitivity}`` in Fig. 2
        order.  The design evaluation is cached on the instance, so
        calling ``run`` twice is free.
        """
        bounds = [(lo, hi) for _, lo, hi in SENSITIVITY_RANGES]
        if self._metrics_rows is None:
            if self.method == "fast99":
                design, omega_max = fast99_sample(
                    bounds,
                    n_samples=self.n_samples,
                    M=self.M,
                    rng=self.rng_seed,
                )
                self._omega_max = omega_max
            else:
                design = saltelli_sample(
                    bounds, n_base=self.n_samples, rng=self.rng_seed
                )
            self._metrics_rows = np.array(
                [self._metrics_for(row) for row in design]
            )

        out: dict[str, ObjectiveSensitivity] = {}
        for col, objective in enumerate(OBJECTIVE_NAMES):
            if self.method == "fast99":
                assert self._omega_max is not None
                result = fast99_indices(
                    self._metrics_rows[:, col],
                    n_params=len(SENSITIVITY_RANGES),
                    omega_max=self._omega_max,
                    M=self.M,
                    names=self.parameter_names,
                )
            else:
                result = sobol_indices(
                    self._metrics_rows[:, col],
                    n_params=len(SENSITIVITY_RANGES),
                    names=self.parameter_names,
                )
            out[objective] = ObjectiveSensitivity(objective, result)
        return out

    @property
    def evaluations_used(self) -> int:
        """Simulator evaluations consumed by the design (0 until run)."""
        if self._metrics_rows is None:
            return 0
        return int(self._metrics_rows.shape[0])

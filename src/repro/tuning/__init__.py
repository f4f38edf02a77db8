"""The AEDB parameter-tuning problem (paper Sect. III-A, Eq. 1).

Five real variables (Table III domains), three minimised objectives —
energy used, negated coverage, number of forwardings — and the broadcast
time folded in as the constraint ``bt < 2 s``.  Fitness is the average of
the metrics over a fixed set of evaluation networks (10 per density in
the paper), computed by :class:`NetworkSetEvaluator`.
"""

from repro.tuning.bounds import VARIABLE_DOMAINS, variable_names
from repro.tuning.cache import EvaluationCache, PersistentEvaluationCache
from repro.tuning.evaluation import NetworkSetEvaluator
from repro.tuning.problem import AEDBTuningProblem, make_tuning_problem

__all__ = [
    "AEDBTuningProblem",
    "make_tuning_problem",
    "NetworkSetEvaluator",
    "EvaluationCache",
    "PersistentEvaluationCache",
    "VARIABLE_DOMAINS",
    "variable_names",
]

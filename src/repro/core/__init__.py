"""The paper's primary contribution: the sharing-predictor design space.

Three orthogonal axes (paper Section 3):

* :mod:`repro.core.indexing` — *access*: which predictor entry each event
  consults (any subset of pid/pc/dir/addr, Table 1's 16 classes).
* :mod:`repro.core.functions` / :mod:`repro.core.twolevel` — *prediction*:
  how entry state becomes a predicted bitmap (last, union, intersection,
  overlap-last, two-level PAs).
* :mod:`repro.core.update` — *update*: when history reaches the entry
  (direct, forwarded, ordered).

A full configuration of the three axes is a :class:`~repro.core.schemes.Scheme`,
evaluated against a sharing trace by the reference evaluator
(:mod:`repro.core.evaluator`) or the fast engine (:func:`repro.core.plan.evaluate_plan`).
"""

from repro.core.indexing import IndexSpec
from repro.core.schemes import Scheme, parse_scheme
from repro.core.update import UpdateMode
from repro.core.functions import (
    IntersectionFunction,
    LastFunction,
    OverlapLastFunction,
    UnionFunction,
    make_function,
)
from repro.core.twolevel import PAsFunction
from repro.core.evaluator import evaluate_scheme, predict_scheme
from repro.core.kernel import PredictorKernel
from repro.core.plan import SweepPlan, evaluate_plan
from repro.core.vectorized import compute_keys, evaluate_scheme_fast, predict_scheme_fast
from repro.core.space import enumerate_schemes

__all__ = [
    "IndexSpec",
    "Scheme",
    "parse_scheme",
    "UpdateMode",
    "LastFunction",
    "UnionFunction",
    "IntersectionFunction",
    "OverlapLastFunction",
    "PAsFunction",
    "make_function",
    "evaluate_scheme",
    "evaluate_scheme_fast",
    "predict_scheme",
    "predict_scheme_fast",
    "compute_keys",
    "PredictorKernel",
    "SweepPlan",
    "evaluate_plan",
    "enumerate_schemes",
]

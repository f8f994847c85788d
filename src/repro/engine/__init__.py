"""Evaluation-engine layer: pluggable execution backends for scheme scoring.

Everything above the core evaluators funnels through one interface,
:class:`~repro.engine.base.EvaluationEngine`, with three interchangeable
backends:

==============  ========================================================
``reference``   sequential interpreter (:mod:`repro.core.evaluator`);
                the semantic oracle, slow
``vectorized``  numpy passes (:mod:`repro.core.vectorized`); the default
``parallel``    multi-process sharding of scheme batches
                (:mod:`repro.engine.parallel`); wins on sweeps
==============  ========================================================

Backend selection, in precedence order:

1. an explicit engine object passed by the caller;
2. :func:`make_engine` arguments (the CLI's ``--backend`` / ``--jobs`` /
   ``--hosts``);
3. the ``REPRO_BACKEND``, ``REPRO_JOBS`` and ``REPRO_HOSTS`` environment
   variables;
4. default: ``vectorized``, or ``parallel`` when ``REPRO_JOBS`` > 1 or
   hosts are configured.

The parallel backend forks ``jobs`` local workers and drives them over
the socket transport of :mod:`repro.engine.remote`.  ``hosts`` (or
``REPRO_HOSTS``, comma-separated ``host:port`` addresses of running
``repro-worker`` processes) points the same transport at workers on
other machines instead.

All backends return bit-identical :class:`~repro.metrics.confusion.ConfusionCounts`
for the same inputs; see ``tests/engine`` for the parity property tests.
"""

from __future__ import annotations

import logging
import os
from typing import Dict, Optional, Sequence, Type, Union

from repro.engine.backends import ReferenceEngine, VectorizedEngine
from repro.engine.base import EvaluationEngine, ResultCallback, TrafficCallback, pooled
from repro.engine.parallel import ParallelEngine

logger = logging.getLogger("repro.engine")

__all__ = [
    "EvaluationEngine",
    "ReferenceEngine",
    "VectorizedEngine",
    "ParallelEngine",
    "BACKENDS",
    "ResultCallback",
    "TrafficCallback",
    "make_engine",
    "get_default_engine",
    "set_default_engine",
    "pooled",
]

BACKENDS: Dict[str, Type[EvaluationEngine]] = {
    "reference": ReferenceEngine,
    "vectorized": VectorizedEngine,
    "parallel": ParallelEngine,
}

#: process-wide engine installed by set_default_engine (e.g. by the CLI)
_configured_engine: Optional[EvaluationEngine] = None


def _env_jobs() -> Optional[int]:
    raw = os.environ.get("REPRO_JOBS")
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        logger.warning("ignoring non-integer REPRO_JOBS=%r", raw)
        return None


def _env_hosts() -> Optional[str]:
    raw = os.environ.get("REPRO_HOSTS", "").strip()
    return raw or None


def make_engine(
    backend: Optional[str] = None,
    jobs: Optional[int] = None,
    hosts: Optional[Union[str, Sequence[str]]] = None,
) -> EvaluationEngine:
    """Build an engine from explicit arguments, falling back to the env.

    Args:
        backend: one of :data:`BACKENDS`; ``None`` reads ``REPRO_BACKEND``,
            then infers ``parallel`` if the resolved job count exceeds 1 or
            hosts are configured.
        jobs: worker count for the parallel backend; ``None`` reads
            ``REPRO_JOBS``, then uses every core.
        hosts: ``host:port`` addresses of running ``repro-worker``
            processes (sequence or comma-separated string); ``None`` reads
            ``REPRO_HOSTS``.  Non-empty selects the parallel backend's
            socket transport.

    Raises:
        ValueError: ``backend`` names no known backend, or hosts were given
            for a backend that cannot use them.
    """
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND") or None
    if jobs is None:
        jobs = _env_jobs()
    if hosts is None:
        hosts = _env_hosts()
    if backend is None:
        backend = "parallel" if (jobs or 1) > 1 or hosts else "vectorized"
    backend = backend.strip().lower()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown evaluation backend {backend!r}; known: {sorted(BACKENDS)}"
        )
    if backend == "parallel":
        return ParallelEngine(jobs=jobs, hosts=hosts)
    if hosts:
        raise ValueError(
            f"hosts are only supported by the parallel backend, not {backend!r}"
        )
    return BACKENDS[backend]()


def get_default_engine() -> EvaluationEngine:
    """The engine experiments use when the caller passes none.

    An engine installed via :func:`set_default_engine` wins; otherwise the
    environment is consulted on every call, so tests and subprocesses that
    mutate ``REPRO_BACKEND`` / ``REPRO_JOBS`` see the change immediately.
    """
    if _configured_engine is not None:
        return _configured_engine
    return make_engine()


def set_default_engine(engine: Optional[EvaluationEngine]) -> Optional[EvaluationEngine]:
    """Install (or with ``None``, clear) the process-wide default engine.

    Returns the previously installed engine so callers can restore it.
    """
    global _configured_engine
    previous = _configured_engine
    _configured_engine = engine
    return previous

"""Golden-fixture regression tests: all backends, bit for bit.

Every fixture freezes the per-benchmark confusion counts of one canonical
scheme on the checked-in trace suite.  The tests here assert that the
reference, vectorized, and parallel backends each reproduce those counts
exactly -- the parallel backend through a genuine multi-process batch, so
the worker-boundary result path is covered too.
"""

from __future__ import annotations

import pytest

from repro.core.schemes import parse_scheme
from repro.engine import ParallelEngine, ReferenceEngine, VectorizedEngine
from repro.harness.runner import TraceSet
from repro.metrics.confusion import ConfusionCounts

from tests.golden import GOLDEN_SCHEMES, load_fixture


@pytest.fixture(scope="module")
def trace_set() -> TraceSet:
    return TraceSet()


@pytest.fixture(scope="module")
def traces(trace_set):
    return trace_set.traces()


def expected_counts(fixture: dict, trace_set: TraceSet):
    """The frozen per-benchmark counts, after sanity-checking the suite."""
    assert fixture["benchmarks"] == trace_set.benchmarks, (
        "golden fixtures were frozen for a different benchmark suite; "
        "regenerate with 'PYTHONPATH=src python -m tests.golden.regen'"
    )
    assert fixture["trace_fingerprint"] == trace_set.fingerprint(), (
        "golden fixtures were frozen for different traces (fingerprint "
        f"{fixture['trace_fingerprint']} != {trace_set.fingerprint()}); if the "
        "trace format changed intentionally, regenerate via "
        "'PYTHONPATH=src python -m tests.golden.regen' and review the diff"
    )
    return [
        ConfusionCounts(*fixture["counts"][benchmark])
        for benchmark in trace_set.benchmarks
    ]


@pytest.mark.parametrize("scheme_text", GOLDEN_SCHEMES)
@pytest.mark.parametrize("backend", [ReferenceEngine, VectorizedEngine])
def test_serial_backends_reproduce_golden_counts(
    backend, scheme_text, trace_set, traces
):
    fixture = load_fixture(scheme_text)
    expected = expected_counts(fixture, trace_set)
    engine = backend()
    actual = engine.evaluate_suite(parse_scheme(scheme_text), traces)
    for benchmark, got, want in zip(trace_set.benchmarks, actual, expected):
        assert got == want, (
            f"{engine.name} diverged from golden counts for {scheme_text} "
            f"on {benchmark}: {got} != {want}"
        )


def test_parallel_batch_reproduces_golden_counts(trace_set, traces):
    """One real batch over all golden schemes at once, on two local
    workers that receive every trace as its ``.rtrace`` image bytes."""
    schemes = [parse_scheme(text) for text in GOLDEN_SCHEMES]
    engine = ParallelEngine(jobs=2, chunk_size=2)
    batch = engine.evaluate_batch(schemes, traces)
    assert len(batch) == len(schemes)
    for scheme_text, per_trace in zip(GOLDEN_SCHEMES, batch):
        expected = expected_counts(load_fixture(scheme_text), trace_set)
        for benchmark, got, want in zip(trace_set.benchmarks, per_trace, expected):
            assert got == want, (
                f"parallel backend diverged from golden counts for "
                f"{scheme_text} on {benchmark}: {got} != {want}"
            )


def test_fixture_files_cover_taxonomy():
    """The frozen set spans the taxonomy the suite claims to cover."""
    schemes = [parse_scheme(text) for text in GOLDEN_SCHEMES]
    functions = {scheme.function for scheme in schemes}
    updates = {scheme.update.value for scheme in schemes}
    assert {"last", "union", "inter", "overlap"} <= functions
    assert {"direct", "forwarded", "ordered"} == updates
    assert any(
        0 < scheme.index.addr_bits <= 4 for scheme in schemes
    ), "no aggressively truncated addr index in the golden set"


class TestWidthRefactorBitIdentity:
    """The machine-scaling refactor must not move one 16-node bit.

    The trace-set fingerprint literal is pinned here *in addition to* the
    fixture-vs-computed comparison above: regenerating the fixtures moves
    both sides of that comparison together, but it cannot move this
    constant.  If this test fails, a change altered the 16-node trace
    pipeline (dtype, fingerprint inputs, protocol behaviour) -- fix the
    change; do not regenerate.
    """

    PINNED_FINGERPRINT = "5d25e6c56c110bd7"

    def test_default_trace_set_fingerprint_is_pinned(self, trace_set):
        assert trace_set.fingerprint() == self.PINNED_FINGERPRINT

    def test_default_traces_stay_scalar_uint32(self, traces):
        import numpy as np

        for trace in traces:
            assert trace.truth.dtype == np.uint32 and trace.truth.ndim == 1
            assert trace.inval.dtype == np.uint32 and trace.inval.ndim == 1
            # default-machine traces carry no spec, so every pre-refactor
            # cache key and shared-memory fingerprint is unchanged
            assert trace.machine is None

    def test_traffic_fixture_unchanged(self, trace_set):
        from tests.golden import load_fixture

        fixture = load_fixture(GOLDEN_SCHEMES[0])
        assert fixture["trace_fingerprint"] == self.PINNED_FINGERPRINT


class TestKernelBackendBitIdentity:
    """The compiled kernel refactor must not move one bit, either.

    Same doctrine as the width pin above: the kernel-probe fingerprint of
    the pure-Python oracle is pinned as a literal, so a semantic change to
    the per-event loop cannot hide behind regenerating fixtures -- and
    every *available* fast backend must reproduce the identical value (the
    same gate its ``available()`` self-check runs at import time).  If the
    pin fails, the predictor semantics moved -- fix the change; do not
    re-pin without a deliberate semantic-change review.
    """

    PINNED_KERNEL_FINGERPRINT = "cdd19f928c09abad"

    def test_python_oracle_probe_fingerprint_is_pinned(self):
        from repro.core.kernel_backends import (
            get_kernel_backend,
            kernel_probe_fingerprint,
        )

        assert (
            kernel_probe_fingerprint(get_kernel_backend("python"))
            == self.PINNED_KERNEL_FINGERPRINT
        )

    def test_every_available_backend_matches_the_pin(self):
        from repro.core.kernel_backends import (
            get_kernel_backend,
            kernel_backend_names,
            kernel_probe_fingerprint,
        )

        checked = []
        for name in kernel_backend_names():
            backend = get_kernel_backend(name)
            if not backend.available():
                continue
            assert (
                kernel_probe_fingerprint(backend) == self.PINNED_KERNEL_FINGERPRINT
            ), f"kernel backend {name!r} diverged from the pinned probe battery"
            checked.append(name)
        assert "python" in checked


def _kernel_grid_params():
    """(engine factory, kernel name) combinations for the full grid."""
    engines = [
        ("reference", ReferenceEngine),
        ("vectorized", VectorizedEngine),
        ("parallel", lambda: ParallelEngine(jobs=2, chunk_size=4)),
    ]
    return [
        pytest.param(factory, kernel, id=f"{engine_name}-{kernel}")
        for engine_name, factory in engines
        for kernel in ("python", "native")
    ]


@pytest.mark.parametrize("engine_factory,kernel", _kernel_grid_params())
def test_engine_kernel_grid_reproduces_golden_counts(
    engine_factory, kernel, trace_set, traces
):
    """Three engine backends x two kernel backends, one frozen answer.

    Each cell runs all eight canonical schemes as one batch under an
    explicit kernel-backend override; every cell must land on the same
    frozen per-benchmark counts.  (The reference engine ignores the kernel
    registry by design -- its cells pin exactly that.)  Native cells skip
    where no compiler is available, mirroring the registry's degradation.
    """
    from repro.core.kernel_backends import get_kernel_backend, set_kernel_backend

    if kernel == "native" and not get_kernel_backend("native").available():
        pytest.skip("native kernel backend unavailable here")
    schemes = [parse_scheme(text) for text in GOLDEN_SCHEMES]
    previous = set_kernel_backend(kernel)
    try:
        batch = engine_factory().evaluate_batch(schemes, traces)
    finally:
        set_kernel_backend(previous)
    for scheme_text, per_trace in zip(GOLDEN_SCHEMES, batch):
        expected = expected_counts(load_fixture(scheme_text), trace_set)
        for benchmark, got, want in zip(trace_set.benchmarks, per_trace, expected):
            assert got == want, (
                f"engine/kernel grid diverged from golden counts for "
                f"{scheme_text} on {benchmark} (kernel={kernel}): {got} != {want}"
            )

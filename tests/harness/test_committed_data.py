"""The committed ``data/`` tree: the program accepts it, and the code still
computes it.

* Every file under ``data/results`` and ``data/traces`` loads through the
  program's own loaders with zero discards, so a fresh checkout serves the
  committed results and traces instead of recomputing them.  The loaders
  run on a copy: a rejected file would otherwise be deleted from the tree.
* A seeded sample of the committed design-space sweep rows (Tables 8-11)
  is recomputed from the committed seed-0 traces and must equal the
  committed rows, so a change that moves a sweep number fails here rather
  than being served the stale rows from the result cache.
* The seed-0 suite is regenerated from scratch and must equal the committed
  traces and stats sidecars.  Trace fingerprints hash generation
  parameters, not code, so this is what notices a workload, scheduler or
  protocol change that moves a trace.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.core.update import UpdateMode
from repro.harness.experiments.base import batch_scheme_stats, scheme_row
from repro.harness.experiments.sweeps import sweep_schemes
from repro.harness.results import cached_result
from repro.harness.runner import TraceSet
from repro.telemetry import Telemetry, set_telemetry
from repro.trace.io import load_trace
from repro.trace.source import stream_fingerprint
from repro.util.persist import load_json_checked
from repro.util.rng import DeterministicRng

DATA = Path(__file__).resolve().parents[2] / "data"

#: the seeds whose suites the repo commits (seed 0: the paper run; seeds 1
#: and 2: ``ext-robustness``)
COMMITTED_SEEDS = (0, 1, 2)

#: sweep schemes recomputed per (function, update mode)
SAMPLE_PER_FUNCTION = 3


@pytest.fixture()
def sink():
    telemetry = Telemetry()
    previous = set_telemetry(telemetry)
    yield telemetry
    set_telemetry(previous)


def test_committed_results_load_without_discards(tmp_path, sink):
    results = tmp_path / "results"
    shutil.copytree(DATA / "results", results)
    paths = sorted(results.glob("*.json"))
    assert paths
    default_fingerprint = TraceSet(seed=0).fingerprint()

    def recompute():
        raise AssertionError("a committed result was not served from the cache")

    for path in paths:
        name, fingerprint, _ = path.stem.rsplit("-", 2)
        assert fingerprint == default_fingerprint, path.name
        served = cached_result(name, fingerprint, recompute, results_dir=results)
        assert served.rows == load_json_checked(path)["rows"], path.name
    assert sink.counters.get("cache.corrupt_discards", 0) == 0
    assert sink.counters["cache.result.hits"] == len(paths)


def test_committed_traces_load_without_discards(tmp_path, sink):
    traces = tmp_path / "traces"
    shutil.copytree(DATA / "traces", traces)
    named = set()
    for seed in COMMITTED_SEEDS:
        trace_set = TraceSet(seed=seed, cache_dir=traces)
        for benchmark in trace_set.benchmarks:
            assert len(trace_set.trace(benchmark)) > 0
            assert trace_set.protocol_summary(benchmark)["accesses"] > 0
            named.add(trace_set._cache_path(benchmark).name)
            named.add(trace_set._stats_path(benchmark).name)
    # every committed file is one the loaders just accepted
    assert {path.name for path in traces.iterdir()} == named
    assert sink.counters.get("cache.corrupt_discards", 0) == 0
    assert sink.counters.get("cache.trace.regenerations", 0) == 0
    assert sink.counters["cache.trace.disk_hits"] == len(named) // 2


def test_seed0_suite_regenerates_equal(tmp_path, sink):
    """Each regenerated seed-0 trace and sidecar equals the committed pair.

    The sidecar is compared as well as the trace: a protocol change can
    leave a benchmark's events alone and still move its counters (dropping
    the LRU refresh on a read hit keeps barnes's trace and moves its
    ``read_misses``).
    """
    fresh = TraceSet(seed=0, cache_dir=tmp_path)
    committed = TraceSet(seed=0, cache_dir=DATA / "traces")
    for benchmark in fresh.benchmarks:
        trace = fresh.trace(benchmark)
        reference = load_trace(committed._cache_path(benchmark))
        assert stream_fingerprint(trace) == stream_fingerprint(reference), benchmark
        assert load_json_checked(fresh._stats_path(benchmark)) == load_json_checked(
            committed._stats_path(benchmark)
        ), benchmark
    assert sink.counters["cache.trace.regenerations"] == 7
    assert sink.counters.get("cache.trace.disk_hits", 0) == 0


@pytest.mark.parametrize("mode", ["direct", "forwarded"])
def test_sampled_sweep_rows_match_committed(mode, tmp_path, sink):
    update = UpdateMode(mode)
    traces = tmp_path / "traces"
    shutil.copytree(DATA / "traces", traces)
    trace_set = TraceSet(seed=0, cache_dir=traces)
    path = DATA / "results" / f"sweep-{mode}-{trace_set.fingerprint()}-v3.json"
    committed = {row["scheme"]: row for row in load_json_checked(path)["rows"]}
    schemes = sweep_schemes(update, trace_set.num_nodes)
    rng = DeterministicRng(f"committed-sweep-rows-{mode}")
    sample = []
    for function in ("union", "inter", "pas"):
        family = [scheme for scheme in schemes if scheme.function == function]
        sample += rng.sample(family, SAMPLE_PER_FUNCTION)
    stats = batch_scheme_stats(sample, trace_set.traces())
    # the rows were recomputed from the committed traces, not fresh ones
    assert sink.counters.get("cache.trace.regenerations", 0) == 0
    for scheme, scheme_stats in zip(sample, stats):
        assert scheme_row(scheme, scheme_stats, trace_set.num_nodes) == (
            committed[scheme.name]
        ), scheme.full_name

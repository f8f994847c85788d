"""``paper-cold``: the paper's twelve experiments from cold caches, in process.

One round is what ``repro-bench all`` does: Tables 1 and 5-11 and Figures
6-9 through ``run_experiment`` with the vectorized engine and the native
kernel, over the seven-benchmark suite generated at the seed into fresh
trace, result and journal caches.  Trace generation and the resident
planner/kernel path do nearly all of the work.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from core import (
    DEFAULT_SEED,
    ROOT,
    RunContext,
    Tally,
    check_kernel,
    double_true_positives,
    import_probe,
    self_peak_rss_mb,
)

NAME = "paper-cold"

#: modules the round imports (timed in a fresh interpreter during set-up)
MODULES = ("repro.harness.experiments", "repro.engine", "repro.api")

#: tiny scale (the benchmark's self-test): two small benchmarks and the
#: experiments that finish in a second on them
TINY_BENCHMARKS = ("ocean", "water")
TINY_PARAMS = {
    "ocean": {"grid_size": 32, "iterations": 2},
    "water": {"molecules_per_thread": 6, "steps": 2},
}
TINY_EXPERIMENTS = ("table1", "table5", "table6", "table7")

#: a cached sweep feeds two tables; a wrong sweep row fails both
_CACHE_USERS = {
    "sweep-direct": ("table8", "table10"),
    "sweep-forwarded": ("table9", "table11"),
}

#: the committed results of the default-seed suite
_COMMITTED = ROOT / "data" / "results"


class PaperCold:
    name = NAME
    in_process = True

    def __init__(self, ctx: RunContext, seed: int, tiny: bool):
        from repro.engine import make_engine
        from repro.harness.experiments import EXPERIMENTS

        self.ctx = ctx
        self.seed = seed
        self.tiny = tiny
        self.experiments = TINY_EXPERIMENTS if tiny else tuple(EXPERIMENTS)
        self.engine = make_engine(backend="vectorized")
        self.tally = Tally()
        #: per round: host time scaled to the reference host, host time as
        #: measured, CPU time
        self.walls: List[float] = []
        self.raw_walls: List[float] = []
        self.cpus: List[float] = []
        self._rounds: List[dict] = []
        self.kernel = None

    def tamper(self, patches) -> None:
        """Break the resident scorer, which the reference engine does not use."""
        import repro.core.vectorized as vectorized

        patches.replace(vectorized, "score_predictions", double_true_positives)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Median of three fresh-interpreter imports with the kernel loaded.

        The round itself generates every input, so importing the program
        and loading the compiled kernel is the whole set-up.
        """
        measure = self.ctx.clock.measure
        samples = [measure(lambda: import_probe(self.ctx, MODULES))[1] for _ in range(3)]
        return statistics.median(samples)

    def _trace_set(self):
        from repro.harness.runner import TraceSet

        if self.tiny:
            return TraceSet(
                benchmarks=list(TINY_BENCHMARKS), seed=self.seed,
                workload_params=TINY_PARAMS,
            )
        return TraceSet(seed=self.seed)

    # -- the timed body ----------------------------------------------------

    def run_round(self, index: int, recorder=None) -> float:
        from repro.harness.experiments import run_experiment

        cache = self.ctx.fresh_dir("cache")
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        os.environ["REPRO_CHECKPOINT_DIR"] = str(self.ctx.fresh_dir("journals"))
        trace_set = self._trace_set()
        outputs: Dict[str, dict] = {}
        cpu_started = time.process_time()
        started = time.perf_counter()
        for name in self.experiments:
            op = f"{index}/{name}"
            try:
                if recorder is None:
                    result = run_experiment(name, trace_set, engine=self.engine)
                else:
                    with recorder.span(f"experiment.{name}", None):
                        result = run_experiment(name, trace_set, engine=self.engine)
            except Exception as error:  # noqa: BLE001 - a failed operation
                self.tally.record(op, error=f"{type(error).__name__}: {error}")
                continue
            outputs[name] = {"rows": result.rows, "notes": result.notes}
            self.tally.record(op, outputs[name])
        ended = time.perf_counter()
        wall = ended - started
        self.raw_walls.append(wall)
        self.walls.append(self.ctx.clock.scale(wall, started, ended))
        self.cpus.append(time.process_time() - cpu_started)
        self._rounds.append({"cache": cache, "traces": trace_set, "outputs": outputs})
        return wall

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    # -- checks --------------------------------------------------------------

    def verify(self, expected: Optional[Dict[str, str]]) -> None:
        from repro.core.kernel_backends import active_kernel_name

        self.kernel = active_kernel_name()
        check_kernel(self.kernel, self.tally)
        first = self._rounds[0]["outputs"]
        for index, round_ in enumerate(self._rounds[1:], start=1):
            for name, output in round_["outputs"].items():
                if first.get(name) != output:
                    self.tally.fail(f"{index}/{name}", "differs from round 0")
        if expected:
            self.tally.check_expected(expected)
        for index, round_ in enumerate(self._rounds):
            if self.seed == DEFAULT_SEED and not self.tiny:
                self._compare_committed(index, round_["cache"] / "results")
            self._compare_reference(index, round_)

    def _fail_users(self, index: int, cache_name: str, reason: str) -> None:
        for name in _CACHE_USERS.get(cache_name, (cache_name,)):
            self.tally.fail(f"{index}/{name}", reason)

    def _compare_committed(self, index: int, results: Path) -> None:
        """Every result the round cached must equal the committed one."""
        for path in sorted(results.glob("*.json")):
            committed = _COMMITTED / path.name
            cache_name = path.name.rsplit("-", 2)[0]  # <name>-<fingerprint>-v<N>.json
            if not committed.exists():
                self._fail_users(index, cache_name, f"no committed {path.name}")
                continue
            ours = json.loads(path.read_text(encoding="utf-8"))["rows"]
            theirs = json.loads(committed.read_text(encoding="utf-8"))["rows"]
            if ours != theirs:
                self._fail_users(index, cache_name, f"rows differ from committed {path.name}")

    def _compare_reference(self, index: int, round_: dict) -> None:
        """Recompute seed-drawn rows with the reference (pure-Python) engine."""
        from repro.core.schemes import parse_scheme
        from repro.core.update import UpdateMode
        from repro.engine import make_engine
        from repro.harness.experiments import scheme_row, screening_summary

        reference = make_engine(backend="reference")
        traces = round_["traces"].traces()
        rng = random.Random(self.seed)
        outputs = round_["outputs"]
        if "table7" in outputs:
            row = rng.choice(outputs["table7"]["rows"])
            scheme = parse_scheme(row["scheme"], default_update=UpdateMode(row["update"]))
            stats = screening_summary(reference.evaluate_suite(scheme, traces))
            got = (row["sens"], row["pvp"])
            want = (round(stats["sens"], 2), round(stats["pvp"], 2))
            if got != want:
                self.tally.fail(f"{index}/table7",
                                f"{scheme.full_name}: {got} != reference {want}")
        fingerprint = round_["traces"].fingerprint()
        for cache_name in _CACHE_USERS:
            path = round_["cache"] / "results" / f"{cache_name}-{fingerprint}-v3.json"
            if not path.exists():
                continue
            row = rng.choice(json.loads(path.read_text(encoding="utf-8"))["rows"])
            scheme = parse_scheme(row["scheme"], default_update=UpdateMode(row["update"]))
            stats = screening_summary(reference.evaluate_suite(scheme, traces))
            want = scheme_row(scheme, stats, round_["traces"].num_nodes)
            if row != want:
                self._fail_users(index, cache_name,
                                 f"{scheme.full_name}: {row} != reference {want}")

    def extra_metrics(self) -> Dict[str, tuple]:
        """Paper-fidelity figures printed beside the end-to-end metrics."""
        table6 = self._rounds[0]["outputs"].get("table6")
        if table6 is None:
            return {}
        errors = [
            abs(row["prevalence_pct"] - row["paper_pct"]) / row["paper_pct"]
            for row in table6["rows"]
        ]
        return {"prevalence_err_pct": (100.0 * statistics.mean(errors), "%")}

    def layer_metrics(self, recorder, telemetry, wall: float) -> dict:
        from tracing import in_process_layer_metrics

        metrics = in_process_layer_metrics(recorder, telemetry, wall)
        fidelity = self.extra_metrics().get("prevalence_err_pct")
        metrics["workloads.prevalence_err_pct"] = fidelity[0] if fidelity else 0.0
        return metrics

    def close(self) -> None:
        pass

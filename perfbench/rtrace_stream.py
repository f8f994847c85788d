"""``rtrace-stream``: an imported trace swept chunk-wise from ``.rtrace``.

Set-up synthesizes a seed-driven ``cycle,node,op,addr,pc`` CSV and imports
it with ``repro-trace import``.  One round runs the vectorized engine over
the :class:`~repro.trace.interchange.FileTraceSource` with a fixed scheme
mix: bitmap schemes at several index specs and depths, two PAs schemes and
one each of ``cunion``/``cinter``, the per-event families whose streamed
path falls back to the Python kernel.  No trace generation happens here.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Dict, List, Optional

from core import (
    RunContext,
    Tally,
    check_kernel,
    children_peak_rss_mb,
    double_true_positives,
    import_probe,
    self_peak_rss_mb,
    timed_subprocess,
)

NAME = "rtrace-stream"

MODULES = ("repro.engine", "repro.trace.interchange", "repro.core.windowed")

#: the streamed scheme mix (fixed; the seed only changes the trace)
SCHEMES = (
    "last()1[direct]",
    "last(dir+add8)1[forwarded]",
    "union(dir+add10)2[direct]",
    "union(pid+add8)4[forwarded]",
    "union(add12)3[ordered]",
    "inter(pid+pc6)2[direct]",
    "inter(dir+add12)3[forwarded]",
    "pas(pid+add4)2[direct]",
    "pas(dir+add6)1[forwarded]",
    "cunion(pid+add4)2[forwarded]",
    "cinter(dir+add6)2[direct]",
)

#: stores in the synthesized CSV (each followed by up to four loads)
STORES = 100_000
TINY_STORES = 3_000
NUM_NODES = 16
#: distinct blocks the stores touch.  The importer cuts a chunk only where
#: every earlier epoch has closed; with the synthesizer's default of 4096
#: blocks epochs stay open long enough that chunk sizes, and with them the
#: engine's peak memory, vary by a fifth between seeds.  1024 blocks keep
#: epochs short and the chunks the same size at every seed.
BLOCKS = 1024


class RtraceStream:
    name = NAME
    in_process = True

    def __init__(self, ctx: RunContext, seed: int, tiny: bool):
        from repro.core.schemes import parse_scheme
        from repro.engine import make_engine

        self.ctx = ctx
        self.seed = seed
        self.stores = TINY_STORES if tiny else STORES
        self.schemes = [parse_scheme(text) for text in SCHEMES]
        self.engine = make_engine(backend="vectorized")
        self.tally = Tally()
        #: per round: host time scaled to the reference host, host time as
        #: measured, CPU time
        self.walls: List[float] = []
        self.raw_walls: List[float] = []
        self.cpus: List[float] = []
        self.path = None
        self.events = 0
        self.import_s = 0.0
        self._outputs: List[Dict[str, list]] = []
        self._peak_mb = 0.0
        self.kernel = None

    def tamper(self, patches) -> None:
        """Break the streamed scorer only; the resident reference stays right."""
        import repro.core.windowed as windowed

        patches.replace(windowed, "score_predictions", double_true_positives)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Median of three set-ups: import probe, CSV synthesis, import."""
        from repro.trace.interchange import synthesize_csv

        def once(directory) -> float:
            csv_path = directory / "accesses.csv"
            self.path = directory / "accesses.rtrace"
            import_probe(self.ctx, MODULES)
            synthesize_csv(csv_path, events=self.stores, num_nodes=NUM_NODES,
                           blocks=BLOCKS, seed=self.seed)
            seconds, output = timed_subprocess(
                [sys.executable, "-m", "repro.trace.interchange", "import",
                 str(csv_path), str(self.path), "--nodes", str(NUM_NODES)],
                self.ctx.program_env(), timeout=120,
            )
            self.events = int(output.split()[1])  # "imported <N> events from ..."
            return seconds

        totals = []
        imports = []
        for _ in range(3):
            directory = self.ctx.fresh_dir("rtrace")
            seconds, total = self.ctx.clock.measure(lambda: once(directory))
            imports.append(seconds)
            totals.append(total)
        self.import_s = statistics.median(imports)
        return statistics.median(totals)

    # -- the timed body ----------------------------------------------------

    def run_round(self, index: int, recorder=None) -> float:
        from repro.trace.interchange import FileTraceSource

        cpu_started = time.process_time()
        started = time.perf_counter()
        try:
            source = FileTraceSource(self.path)
            counts = self.engine.evaluate_batch(self.schemes, [source])
            error = None
        except Exception as exc:  # noqa: BLE001 - every scheme failed
            counts, error = None, f"{type(exc).__name__}: {exc}"
        ended = time.perf_counter()
        wall = ended - started
        self.cpus.append(time.process_time() - cpu_started)
        self.raw_walls.append(wall)
        self.walls.append(self.ctx.clock.scale(wall, started, ended))
        outputs = {}
        for position, scheme in enumerate(self.schemes):
            op = f"{index}/{scheme.full_name}"
            if counts is None:
                self.tally.record(op, error=error)
                continue
            quad = [_quad(entry) for entry in counts[position]]
            outputs[scheme.full_name] = quad
            self.tally.record(op, quad)
        self._outputs.append(outputs)
        self._peak_mb = max(self._peak_mb, self_peak_rss_mb())
        return wall

    def peak_rss_mb(self) -> float:
        """The engine's process or the importer, whichever peaked higher."""
        return max(self._peak_mb, children_peak_rss_mb())

    # -- checks --------------------------------------------------------------

    def verify(self, expected: Optional[Dict[str, str]]) -> None:
        from repro.core.kernel_backends import active_kernel_name
        from repro.trace.interchange import FileTraceSource

        self.kernel = active_kernel_name()
        check_kernel(self.kernel, self.tally)
        if expected:
            self.tally.check_expected(expected)
        # the reference: the same schemes over the materialized trace on the
        # resident planner path
        trace = FileTraceSource(self.path).materialize()
        reference = {
            scheme.full_name: [_quad(entry) for entry in per_trace]
            for scheme, per_trace in zip(
                self.schemes, self.engine.evaluate_batch(self.schemes, [trace])
            )
        }
        for index, outputs in enumerate(self._outputs):
            for name, quad in outputs.items():
                if quad != reference[name]:
                    self.tally.fail(f"{index}/{name}", f"{quad} != resident {reference[name]}")

    def extra_metrics(self) -> Dict[str, tuple]:
        return {
            "trace_events": (float(self.events), "count"),
            "engine_peak_rss_mb": (self._peak_mb, "MiB"),
            "importer_peak_rss_mb": (children_peak_rss_mb(), "MiB"),
        }

    def layer_metrics(self, recorder, telemetry, wall: float) -> dict:
        from tracing import in_process_layer_metrics, rate

        metrics = in_process_layer_metrics(recorder, telemetry, wall)
        metrics["trace.import_s"] = self.import_s
        metrics["trace.import_events_per_s"] = rate(self.events, self.import_s)
        return metrics

    def close(self) -> None:
        pass


def _quad(counts) -> list:
    return [counts.true_positive, counts.false_positive, counts.false_negative,
            counts.true_negative]

"""Job specifications: the fingerprinted unit of work the sweep service runs.

A :class:`JobSpec` names one complete computation -- what kind of work
(scheme sweep, confusion evaluation, traffic simulation, scenario-grid
cells), which schemes, over which traces, under which parameters -- in a
form that is

* **canonical**: scheme strings are parsed and re-rendered to their full
  names, so ``"last()1"`` and ``"last()1[direct]"`` describe the same job;
* **JSON-flat**: every field round-trips through :meth:`JobSpec.to_json` /
  :meth:`JobSpec.from_json`, which is both the wire format of the socket
  protocol and the on-disk manifest the server replays after a restart;
* **content-fingerprinted**: :meth:`JobSpec.fingerprint` hashes the
  canonical spec together with the identity of the exact traces it runs
  over, so two requests for the same computation -- from different clients,
  or before and after a server restart -- collide onto one fingerprint.
  That fingerprint is the job id, the dedup key, the journal key, and the
  result-cache key; nothing else identifies a job.

Traces are referenced three ways.  A :class:`TraceSuiteSpec` names traces
by their generation parameters (benchmark list, machine, seed, workload
overrides) -- the reference is tiny and deterministic to materialize.
:class:`TraceFileSpec` names on-disk ``.rtrace`` files by path *and*
content fingerprint; like a suite spec it is wire-able and restart-safe
(the server re-opens the files and refuses them if the bits changed), and
jobs over it stream -- the traces never fully materialize.
:class:`InlineTraces` carries content fingerprints of in-memory traces the
caller already holds; it is how the in-process job path
(``repro.api.submit``) fingerprints ad-hoc traces that never came from a
:class:`~repro.harness.runner.TraceSet`.

Result payloads are JSON too (:func:`decode_result` rehydrates them into
result objects), so a result served over the socket, replayed from a
journal, or read from the result cache is byte-for-byte the same currency.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.schemes import parse_scheme
from repro.harness.runner import TraceSet
from repro.machine import MachineSpec
from repro.metrics.confusion import ConfusionCounts
from repro.metrics.traffic import TrafficModel, TrafficReport

#: bump when the job spec or result payload layout changes; fingerprints
#: include it, so old manifests/results can never be misread as current
JOB_SCHEMA = 1

#: the work kinds the service accepts
JOB_KINDS = ("evaluate", "sweep", "traffic", "scenario")


class JobSpecError(ValueError):
    """A job spec is malformed, unknown, or not executable as requested."""


@dataclass(frozen=True)
class TraceSuiteSpec:
    """Traces named by generation parameters (re-materializable anywhere).

    ``benchmarks=None`` means the full default benchmark suite.  ``machine``
    is a :class:`~repro.machine.MachineSpec` JSON string (``""`` for the
    bare paper-default machine), and ``params`` optional per-benchmark
    workload constructor overrides -- together exactly the identity axes of
    :class:`~repro.harness.runner.TraceSet`, whose fingerprint (a pure
    parameter hash, no generation needed) anchors the job fingerprint.
    """

    benchmarks: Optional[Tuple[str, ...]] = None
    num_nodes: int = 16
    seed: int = 0
    quantum: int = 4
    machine: str = ""
    params: Optional[Dict[str, dict]] = None

    def build(self) -> TraceSet:
        """The trace set this spec names (lazily generated, disk-cached)."""
        return TraceSet(
            benchmarks=list(self.benchmarks) if self.benchmarks is not None else None,
            num_nodes=self.num_nodes,
            seed=self.seed,
            quantum=self.quantum,
            machine=MachineSpec.from_json(self.machine) if self.machine else None,
            workload_params=self.params,
        )

    def token(self) -> str:
        """The trace-identity token folded into the job fingerprint."""
        return f"suite:{self.build().fingerprint()}"

    def to_json(self) -> dict:
        payload: dict = {"mode": "suite", "num_nodes": self.num_nodes,
                         "seed": self.seed, "quantum": self.quantum}
        if self.benchmarks is not None:
            payload["benchmarks"] = list(self.benchmarks)
        if self.machine:
            payload["machine"] = self.machine
        if self.params:
            payload["params"] = self.params
        return payload

    @classmethod
    def from_json(cls, data: dict) -> "TraceSuiteSpec":
        benchmarks = data.get("benchmarks")
        return cls(
            benchmarks=tuple(benchmarks) if benchmarks is not None else None,
            num_nodes=int(data.get("num_nodes", 16)),
            seed=int(data.get("seed", 0)),
            quantum=int(data.get("quantum", 4)),
            machine=data.get("machine", ""),
            params=data.get("params"),
        )


@dataclass(frozen=True)
class TraceFileSpec:
    """On-disk ``.rtrace`` traces named by path plus content fingerprint.

    The third wire-able trace reference: the paths let any process with the
    same filesystem view (the server after a restart, a worker on a shared
    mount) re-open the traces, and the recorded fingerprints pin the exact
    bits -- :meth:`resolve` refuses a file whose footer fingerprint
    drifted.  Only the fingerprints enter :meth:`token`, so moving or
    renaming the files never changes job identity, exactly as ``hosts``
    never does.  Jobs over a file spec stream chunk-wise through
    :class:`~repro.trace.interchange.FileTraceSource`.
    """

    paths: Tuple[str, ...]
    fingerprints: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.paths) != len(self.fingerprints):
            raise JobSpecError(
                f"{len(self.paths)} trace paths but "
                f"{len(self.fingerprints)} fingerprints"
            )
        if not self.paths:
            raise JobSpecError("file trace reference names no files")

    @classmethod
    def from_paths(cls, paths: Sequence[str]) -> "TraceFileSpec":
        """Build a spec from files on disk, reading fingerprints from footers."""
        from repro.trace.interchange import FileTraceSource

        resolved = [str(path) for path in paths]
        return cls(
            paths=tuple(resolved),
            fingerprints=tuple(
                FileTraceSource(path).fingerprint() for path in resolved
            ),
        )

    def resolve(self) -> list:
        """Open every file as a :class:`FileTraceSource`, verifying identity.

        Raises :class:`JobSpecError` when a file is unreadable or its
        footer fingerprint does not match the spec (the cheap O(1) check;
        per-chunk checksums cover the payload during streaming).
        """
        from repro.trace.interchange import FileTraceSource, TraceFormatError

        sources = []
        for path, expected in zip(self.paths, self.fingerprints):
            try:
                source = FileTraceSource(path)
            except (OSError, TraceFormatError) as error:
                raise JobSpecError(f"cannot open trace file: {error}") from error
            actual = source.fingerprint()
            if actual != expected:
                raise JobSpecError(
                    f"trace file {path} fingerprint {actual} does not match "
                    f"the job spec's {expected}"
                )
            sources.append(source)
        return sources

    def token(self) -> str:
        return "file:" + ",".join(self.fingerprints)

    def to_json(self) -> dict:
        return {
            "mode": "file",
            "files": [
                {"path": path, "fingerprint": fingerprint}
                for path, fingerprint in zip(self.paths, self.fingerprints)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TraceFileSpec":
        files = data.get("files")
        if not isinstance(files, (list, tuple)) or not files:
            raise JobSpecError("file trace reference needs a 'files' list")
        try:
            return cls(
                paths=tuple(str(entry["path"]) for entry in files),
                fingerprints=tuple(str(entry["fingerprint"]) for entry in files),
            )
        except (KeyError, TypeError) as error:
            raise JobSpecError(
                f"malformed file trace reference: {error}"
            ) from error


@dataclass(frozen=True)
class InlineTraces:
    """Traces the submitter holds in memory, identified purely by content.

    Only meaningful in-process: the actual trace objects travel alongside
    the spec at submission time, and the content fingerprints (each
    trace's :func:`~repro.trace.source.stream_fingerprint`) make dedup and
    coalescing work for ad-hoc traces exactly as for named suites.  A
    server rejects inline jobs -- it has no way to re-materialize them
    after a restart.
    """

    fingerprints: Tuple[str, ...]
    names: Tuple[str, ...] = ()

    def token(self) -> str:
        return "inline:" + ",".join(self.fingerprints)

    def to_json(self) -> dict:
        return {
            "mode": "inline",
            "fingerprints": list(self.fingerprints),
            "names": list(self.names),
        }

    @classmethod
    def from_json(cls, data: dict) -> "InlineTraces":
        return cls(
            fingerprints=tuple(data.get("fingerprints", ())),
            names=tuple(data.get("names", ())),
        )


def inline_traces(traces: Sequence) -> InlineTraces:
    """An :class:`InlineTraces` reference for in-memory trace objects."""
    from repro.trace.source import as_source

    return InlineTraces(
        fingerprints=tuple(as_source(trace).fingerprint() for trace in traces),
        names=tuple(trace.name for trace in traces),
    )


@dataclass(frozen=True)
class JobSpec:
    """One fingerprinted unit of service work.

    ``schemes`` are canonical full names; ``grid`` is only set for
    ``scenario`` jobs (a :class:`ScenarioGrid` description as plain JSON,
    typically a single cell).  ``topology``/``model`` only affect
    ``traffic`` jobs but always participate in the fingerprint, so a field
    that starts mattering can never collide with history.
    """

    kind: str
    schemes: Tuple[str, ...] = ()
    traces: Union[TraceSuiteSpec, TraceFileSpec, InlineTraces, None] = None
    exclude_writer: bool = True
    topology: str = "mesh"
    model: Tuple[float, float, float] = (1.0, 9.0, 1.0)
    grid: Optional[dict] = field(default=None)
    #: ``host:port`` addresses of repro-worker processes to shard the job
    #: across (the parallel engine's socket transport).  An execution hint,
    #: deliberately EXCLUDED from the fingerprint: where a job runs never
    #: changes its bits, so a multi-host submission deduplicates against
    #: (and reuses the cached result of) the same job run locally.
    hosts: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise JobSpecError(
                f"unknown job kind {self.kind!r}; known: {list(JOB_KINDS)}"
            )
        if self.kind == "scenario":
            if not self.grid:
                raise JobSpecError("scenario jobs need a 'grid' description")
        else:
            if not self.schemes:
                raise JobSpecError(f"{self.kind} jobs need at least one scheme")
            if self.traces is None:
                raise JobSpecError(f"{self.kind} jobs need a trace reference")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def make(
        cls,
        kind: str,
        schemes: Sequence = (),
        traces: Union[TraceSuiteSpec, TraceFileSpec, InlineTraces, None] = None,
        *,
        exclude_writer: bool = True,
        topology: str = "mesh",
        model: Optional[TrafficModel] = None,
        grid: Optional[dict] = None,
        hosts: Union[str, Sequence[str], None] = None,
    ) -> "JobSpec":
        """Build a canonical spec: schemes parsed, model flattened."""
        from repro.engine.remote import parse_hosts

        canonical = tuple(
            scheme if not isinstance(scheme, str) else parse_scheme(scheme)
            for scheme in schemes
        )
        model = model if model is not None else TrafficModel()
        return cls(
            kind=kind,
            schemes=tuple(s.full_name if not isinstance(s, str) else s
                          for s in canonical),
            traces=traces,
            exclude_writer=bool(exclude_writer),
            topology=topology,
            model=(model.request_cost, model.data_cost, model.hop_cost),
            grid=grid,
            hosts=parse_hosts(hosts),
        )

    def traffic_model(self) -> TrafficModel:
        request, data, hop = self.model
        return TrafficModel(request_cost=request, data_cost=data, hop_cost=hop)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """The content-addressed job id (dedup, journal, and cache key)."""
        if self.kind == "scenario":
            trace_token = "grid"
        else:
            trace_token = self.traces.token()
        key = json.dumps(
            {
                "schema": JOB_SCHEMA,
                "kind": self.kind,
                "schemes": list(self.schemes),
                "traces": trace_token,
                "exclude_writer": self.exclude_writer,
                "topology": self.topology,
                "model": list(self.model),
                "grid": self.grid,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Wire / manifest format
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        payload: dict = {
            "schema": JOB_SCHEMA,
            "kind": self.kind,
            "schemes": list(self.schemes),
            "exclude_writer": self.exclude_writer,
            "topology": self.topology,
            "model": list(self.model),
        }
        if self.traces is not None:
            payload["traces"] = self.traces.to_json()
        if self.grid is not None:
            payload["grid"] = self.grid
        if self.hosts:
            payload["hosts"] = list(self.hosts)
        return payload

    @classmethod
    def from_json(cls, data: dict) -> "JobSpec":
        """Parse a wire/manifest spec; raises :class:`JobSpecError` on junk."""
        if not isinstance(data, dict):
            raise JobSpecError(f"job spec is {type(data).__name__}, expected object")
        if data.get("schema") != JOB_SCHEMA:
            raise JobSpecError(
                f"job schema {data.get('schema')!r} != {JOB_SCHEMA}"
            )
        traces_data = data.get("traces")
        traces: Union[TraceSuiteSpec, TraceFileSpec, InlineTraces, None] = None
        if traces_data is not None:
            mode = traces_data.get("mode")
            if mode == "suite":
                traces = TraceSuiteSpec.from_json(traces_data)
            elif mode == "file":
                traces = TraceFileSpec.from_json(traces_data)
            elif mode == "inline":
                traces = InlineTraces.from_json(traces_data)
            else:
                raise JobSpecError(f"unknown trace reference mode {mode!r}")
        model = data.get("model", [1.0, 9.0, 1.0])
        if not (isinstance(model, (list, tuple)) and len(model) == 3):
            raise JobSpecError(f"malformed traffic model {model!r}")
        try:
            return cls.make(
                kind=data.get("kind", ""),
                schemes=tuple(data.get("schemes", ())),
                traces=traces,
                exclude_writer=bool(data.get("exclude_writer", True)),
                topology=data.get("topology", "mesh"),
                model=TrafficModel(*[float(part) for part in model]),
                grid=data.get("grid"),
                hosts=data.get("hosts"),
            )
        except JobSpecError:
            raise
        except (TypeError, ValueError, KeyError) as error:
            raise JobSpecError(f"malformed job spec: {error}") from error


def scenario_job(grid) -> JobSpec:
    """A :class:`JobSpec` running every cell of a ``ScenarioGrid``.

    Typically built per cell (one workload x one machine) so a big grid
    fans out across many submissions that dedup independently.
    """
    return JobSpec.make(
        "scenario",
        grid={
            "name": grid.name,
            "title": grid.title,
            "workloads": list(grid.workloads),
            "node_counts": list(grid.node_counts),
            "topologies": list(grid.topologies),
            "protocols": list(grid.protocols),
            "seeds": list(grid.seeds),
            "schemes": list(grid.schemes),
        },
    )


def grid_from_spec(spec: JobSpec):
    """Rebuild the ``ScenarioGrid`` a scenario job names."""
    from repro.harness.experiments.scenarios import ScenarioGrid

    grid = spec.grid
    try:
        return ScenarioGrid(
            name=grid.get("name", "service-cell"),
            title=grid.get("title", "service scenario job"),
            workloads=tuple(grid["workloads"]),
            node_counts=tuple(grid["node_counts"]),
            topologies=tuple(grid.get("topologies", ("mesh",))),
            protocols=tuple(grid.get("protocols", ("msi",))),
            seeds=tuple(grid.get("seeds", (0,))),
            schemes=tuple(grid["schemes"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise JobSpecError(f"malformed scenario grid: {error}") from error


# ----------------------------------------------------------------------
# Result payloads
# ----------------------------------------------------------------------


def encode_counts(per_scheme: Sequence[Sequence[ConfusionCounts]]) -> dict:
    """Flatten per-scheme/per-trace confusion counts into a JSON payload."""
    return {
        "counts": [
            [
                [c.true_positive, c.false_positive, c.false_negative, c.true_negative]
                for c in per_trace
            ]
            for per_trace in per_scheme
        ]
    }


def decode_result(kind: str, payload: dict):
    """Rehydrate a job's JSON result payload into result objects.

    The single decoder both the in-process :class:`~repro.service.handles.JobHandle`
    and the remote client use, so the two paths cannot drift:

    * ``evaluate`` -> one list per scheme of per-trace
      :class:`~repro.metrics.confusion.ConfusionCounts` (exact integers);
    * ``sweep`` -> one screening-summary dict per scheme, exactly what
      ``repro.api.sweep`` returns (floats round-trip exactly through JSON);
    * ``traffic`` -> one list per scheme of per-trace
      :class:`~repro.metrics.traffic.TrafficReport`;
    * ``scenario`` -> the grid's row dicts.
    """
    if kind == "evaluate":
        return [
            [
                ConfusionCounts(
                    true_positive=tp,
                    false_positive=fp,
                    false_negative=fn,
                    true_negative=tn,
                )
                for tp, fp, fn, tn in per_trace
            ]
            for per_trace in payload["counts"]
        ]
    if kind == "sweep":
        return [dict(row) for row in payload["rows"]]
    if kind == "traffic":
        return [
            [TrafficReport.from_json(entry) for entry in per_trace]
            for per_trace in payload["reports"]
        ]
    if kind == "scenario":
        return [dict(row) for row in payload["rows"]]
    raise JobSpecError(f"unknown job kind {kind!r}")


def suite_spec_for(trace_set: TraceSet) -> TraceSuiteSpec:
    """The :class:`TraceSuiteSpec` describing an existing ``TraceSet``."""
    return TraceSuiteSpec(
        benchmarks=tuple(trace_set.benchmarks),
        num_nodes=trace_set.num_nodes,
        seed=trace_set.seed,
        quantum=trace_set.quantum,
        machine=trace_set.machine.to_json() if trace_set.machine is not None else "",
        params=dict(trace_set.workload_params) or None,
    )


def decode_many(kinds_payloads: List[Tuple[str, dict]]) -> List:
    """Batch decoder convenience (used by the CLI smoke harness)."""
    return [decode_result(kind, payload) for kind, payload in kinds_payloads]

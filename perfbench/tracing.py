"""Layer tracing for the benchmark, recorded from outside the program.

A :class:`Tracer` wraps the public entry point of each layer (the SBML
reader and writer, the artifact store, signatures and the prescreen,
the Figure 4 composer, the all-pairs engine, the session and the
corpus index) and records one span per call: name, start, end, the
enclosing span and the process.  Counts are taken at the same
boundaries from the values the calls return, so ratios are measured
where the work happens.

Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; untraced repetitions run the unmodified
functions.  Worker processes forked while the wrappers are installed
inherit them.  Each such worker starts with empty buffers and writes
its spans and counts to its own file in the spool directory when it
exits; :meth:`Tracer.collect` merges those files into the parent.

Spans are kept in memory.  Calls are assumed to come from one thread
per process, which holds for every workload of this benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from multiprocessing import util
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: The twelve Figure 4 phases, in the order the composer runs them.
PHASES = (
    "functionDefinitions",
    "unitDefinitions",
    "compartmentTypes",
    "speciesTypes",
    "compartments",
    "species",
    "parameters",
    "initialAssignments",
    "rules",
    "constraints",
    "reactions",
    "events",
)

#: Span names of the all-pairs engine's entry points; a composer step
#: inside one of them (or inside a sweep worker) is a pair merge.
_PAIR_SPANS = ("match_all.sweep", "match_all.query")


class Tracer:
    """Spans and counts around layer entry points, with worker spill."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self._patches: List[tuple] = []
        self._reset()
        util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        #: ``[name, start, end, parent index, pid]`` per call.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Per-call samples (pair seconds) kept for percentiles.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.stores: List[object] = []
        self._stack: List[int] = []
        self.in_worker = False

    # -- worker processes ----------------------------------------------

    def _after_fork(self) -> None:
        """In a child forked while wrappers are installed: start empty
        and spill to the spool when the process exits."""
        if not self._patches:
            return
        self._reset()
        self.in_worker = True
        util.Finalize(None, self._spill, exitpriority=100)

    def _spill(self) -> None:
        self._fold_store_stats()
        payload = {
            "spans": self.spans,
            "counts": self.counts,
            "samples": self.samples,
        }
        path = self.spool / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")

    def collect(self) -> None:
        """Merge every spilled worker file."""
        for path in sorted(self.spool.glob("worker-*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            offset = len(self.spans)
            for name, start, end, parent, pid in payload["spans"]:
                self.spans.append(
                    [name, start, end, parent + offset if parent >= 0 else -1, pid]
                )
            for key, value in payload["counts"].items():
                self.counts[key] += value
            for key, values in payload["samples"].items():
                self.samples[key].extend(values)
            path.unlink()

    def _fold_store_stats(self) -> None:
        """Add the read counters of every artifact store opened in
        this process (``ArtifactStore.stats()``) to the counts."""
        for store in self.stores:
            for key, value in store.stats().items():
                self.counts[f"artifact_store.{key}"] += value
        self.stores = []

    # -- spans ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, os.getpid()])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> float:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    def inside(self, names) -> bool:
        """Whether an open span of this process has one of ``names``."""
        return any(self.spans[index][0] in names for index in self._stack)

    def totals(self) -> Dict[str, List[float]]:
        """``name -> [seconds, calls]`` over outermost spans of each
        name (a span nested in a span of the same name is not counted
        twice)."""
        result: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for span in self.spans:
            name, start, end, parent, _ = span
            nested = False
            while parent >= 0:
                if self.spans[parent][0] == name:
                    nested = True
                    break
                parent = self.spans[parent][3]
            if not nested:
                result[name][0] += end - start
                result[name][1] += 1
        return result

    def write(self, path: Path) -> None:
        """Write the spans and counts out (for self-time analysis)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "pid")
        payload = {
            "spans": [dict(zip(fields, span)) for span in self.spans],
            "counts": self.counts,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")

    # -- wrappers ------------------------------------------------------

    def _wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_result: Optional[Callable] = None,
    ) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                seconds = tracer._exit(index)
            if on_result is not None:
                on_result(tracer, args, result, seconds)
            return result

        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every layer entry point the workloads reach."""
        if self._patches:
            return
        mod = importlib.import_module
        reader = mod("repro.sbml.reader")
        writer = mod("repro.sbml.writer")
        store = mod("repro.core.artifact_store")
        engine = mod("repro.core.match_all")
        signature = mod("repro.core.signature")
        compose = mod("repro.core.compose")
        session = mod("repro.core.session")
        index = mod("repro.core.corpus_index")
        wrap = self._wrap
        # Module functions are wrapped in every namespace that calls
        # them: ``from x import f`` binds its own name.
        wrap(reader, "read_sbml", "sbml.read")
        wrap(engine, "read_sbml", "sbml.read")
        wrap(writer, "write_sbml", "sbml.write")
        wrap(store, "write_sbml", "sbml.write")
        wrap(store, "compute_artifacts", "artifact_store.compute")
        wrap(engine, "compute_artifacts", "artifact_store.compute")
        wrap(store.CorpusManifest, "build", "artifact_store.manifest_build")
        wrap(store.ArtifactStore, "__init__", "artifact_store.open", _store_opened)
        wrap(store.ArtifactStore, "get", "artifact_store.get")
        wrap(store.ArtifactStore, "put", "artifact_store.put", _store_put)
        wrap(signature.Prescreen, "build", "signature.prescreen_build")
        wrap(signature.ModelSignature, "build", "signature.build")
        wrap(compose.Composer, "compose_step", "compose.step", _compose_step)
        wrap(engine, "match_all", "match_all.sweep", _match_matrix)
        wrap(engine, "match_query", "match_all.query", _match_matrix)
        wrap(session.ComposeSession, "compose_all", "session.compose_all", _session_result)
        wrap(index.CorpusIndex, "add_all", "corpus_index.build")
        wrap(index.CorpusIndex, "save", "corpus_index.save")
        wrap(index.CorpusIndex, "load", "corpus_index.load")
        wrap(index.CorpusIndex, "query", "corpus_index.query", _index_hits)
        wrap(index.CorpusIndex, "rank", "corpus_index.rank")

    def uninstall(self) -> None:
        """Restore every wrapped attribute and fold store counters."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []
        self._fold_store_stats()


# -- counters taken from return values -----------------------------------


def _store_opened(tracer: Tracer, args, result, seconds) -> None:
    tracer.stores.append(args[0])


def _store_put(tracer: Tracer, args, path, seconds) -> None:
    tracer.counts["artifact_store.put_bytes"] += os.path.getsize(path)


def _compose_step(tracer: Tracer, args, result, seconds) -> None:
    report = result[1]
    phase_seconds = 0.0
    for phase, value in report.timings.items():
        tracer.counts[f"compose.{phase}_s"] += value
        phase_seconds += value
    if tracer.in_worker or tracer.inside(_PAIR_SPANS):
        tracer.counts["match_all.pair_phase_s"] += phase_seconds


def _match_matrix(tracer: Tracer, args, matrix, seconds) -> None:
    computed = [o.seconds for o in matrix.outcomes if o.seconds > 0.0]
    tracer.counts["match_all.pairs_run"] += len(computed)
    tracer.counts["match_all.pairs_synthesized"] += matrix.pruned
    tracer.counts["match_all.pair_busy_s"] += sum(computed)
    tracer.counts["match_all.capacity_s"] += matrix.workers * seconds
    tracer.counts["match_all.busy_per_worker_s"] += sum(computed) / matrix.workers
    tracer.samples["match_all.pair_s"].extend(computed)


def _session_result(tracer: Tracer, args, result, seconds) -> None:
    tracer.counts["session.steps"] += len(result.steps)
    tracer.counts["session.renamed"] += len(result.report.renamed)
    tracer.counts["session.conflicts"] += len(result.report.conflicts)


def _index_hits(tracer: Tracer, args, hits, seconds) -> None:
    tracer.counts["corpus_index.hits"] += len(hits)
    tracer.counts["corpus_index.candidates"] += sum(1 for h in hits if h.score > 0)
    tracer.counts["corpus_index.blocked"] += sum(1 for h in hits if h.blocked)


# -- per-layer metrics ---------------------------------------------------

#: ``(metric, unit)`` of every per-layer metric, in report order.
LAYER_METRICS = (
    [
        ("sbml.read_s", "s"),
        ("sbml.read_calls", "count"),
        ("sbml.write_s", "s"),
        ("sbml.write_calls", "count"),
        ("artifact_store.compute_s", "s"),
        ("artifact_store.manifest_build_s", "s"),
        ("artifact_store.get_s", "s"),
        ("artifact_store.put_s", "s"),
        ("artifact_store.put_bytes", "bytes"),
        ("artifact_store.hit_ratio", "ratio"),
        ("signature.prescreen_build_s", "s"),
        ("signature.build_s", "s"),
        ("signature.prune_ratio", "ratio"),
        ("signature.prune_time_ratio", "ratio"),
        ("compose.step_s", "s"),
        ("compose.step_calls", "count"),
    ]
    + [(f"compose.{phase}_s", "s") for phase in PHASES]
    + [
        ("match_all.pairs_run", "count"),
        ("match_all.pairs_synthesized", "count"),
        ("match_all.pair_busy_s", "s"),
        ("match_all.pair_p50_us", "us"),
        ("match_all.pair_p90_us", "us"),
        ("match_all.pair_outside_phases_s", "s"),
        ("match_all.worker_busy_ratio", "ratio"),
        ("match_all.boundary_s", "s"),
        ("match_all.query_match_s", "s"),
        ("session.compose_all_s", "s"),
        ("session.steps", "count"),
        ("session.renamed", "count"),
        ("session.conflicts", "count"),
        ("corpus_index.build_s", "s"),
        ("corpus_index.save_s", "s"),
        ("corpus_index.load_s", "s"),
        ("corpus_index.query_s", "s"),
        ("corpus_index.rank_s", "s"),
        ("corpus_index.candidates", "count"),
        ("corpus_index.blocked", "count"),
        ("corpus_index.prune_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def quantile(values: List[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``values``; 0 when there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[round(fraction * 100) - 1]


def layer_metrics(
    reps: Tracer,
    rep_count: int,
    setup: Tracer,
    prune_time_ratio: float,
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric, from the spans of ``rep_count`` traced
    repetitions (``reps``) and of one traced set-up (``setup``).
    Seconds and counts are per repetition; ratios are over the whole
    traced run."""
    spans = reps.totals()
    counts = reps.counts

    def per_rep(value: float) -> float:
        return value / rep_count

    def seconds(name: str) -> float:
        return per_rep(spans[name][0]) if name in spans else 0.0

    def calls(name: str) -> float:
        return per_rep(spans[name][1]) if name in spans else 0.0

    setup_spans = setup.totals()
    run = counts["match_all.pairs_run"]
    synthesized = counts["match_all.pairs_synthesized"]
    busy = counts["match_all.pair_busy_s"]
    pair_seconds = reps.samples["match_all.pair_s"]
    sweep_wall = seconds("match_all.sweep") + seconds("match_all.query")
    boundary = (
        sweep_wall
        - per_rep(counts["match_all.busy_per_worker_s"])
        - seconds("signature.prescreen_build")
        - seconds("artifact_store.manifest_build")
    ) if sweep_wall else 0.0
    lookups = counts["artifact_store.hits"] + counts["artifact_store.misses"]
    metrics = {
        "sbml.read_s": seconds("sbml.read"),
        "sbml.read_calls": calls("sbml.read"),
        "sbml.write_s": seconds("sbml.write"),
        "sbml.write_calls": calls("sbml.write"),
        "artifact_store.compute_s": seconds("artifact_store.compute"),
        "artifact_store.manifest_build_s": seconds("artifact_store.manifest_build"),
        "artifact_store.get_s": seconds("artifact_store.get"),
        "artifact_store.put_s": seconds("artifact_store.put"),
        "artifact_store.put_bytes": per_rep(counts["artifact_store.put_bytes"]),
        "artifact_store.hit_ratio": _ratio(counts["artifact_store.hits"], lookups),
        "signature.prescreen_build_s": seconds("signature.prescreen_build"),
        "signature.build_s": seconds("signature.build"),
        "signature.prune_ratio": _ratio(synthesized, run + synthesized),
        "signature.prune_time_ratio": prune_time_ratio,
        "compose.step_s": seconds("compose.step"),
        "compose.step_calls": calls("compose.step"),
    }
    for phase in PHASES:
        metrics[f"compose.{phase}_s"] = per_rep(counts[f"compose.{phase}_s"])
    metrics.update(
        {
            "match_all.pairs_run": per_rep(run),
            "match_all.pairs_synthesized": per_rep(synthesized),
            "match_all.pair_busy_s": per_rep(busy),
            "match_all.pair_p50_us": quantile(pair_seconds, 0.5) * 1e6,
            "match_all.pair_p90_us": quantile(pair_seconds, 0.9) * 1e6,
            "match_all.pair_outside_phases_s": per_rep(
                busy - counts["match_all.pair_phase_s"]
            ),
            "match_all.worker_busy_ratio": _ratio(
                busy, counts["match_all.capacity_s"]
            ),
            "match_all.boundary_s": boundary,
            "match_all.query_match_s": seconds("match_all.query"),
            "session.compose_all_s": seconds("session.compose_all"),
            "session.steps": per_rep(counts["session.steps"]),
            "session.renamed": per_rep(counts["session.renamed"]),
            "session.conflicts": per_rep(counts["session.conflicts"]),
            "corpus_index.build_s": (
                setup_spans["corpus_index.build"][0]
                if "corpus_index.build" in setup_spans
                else 0.0
            ),
            "corpus_index.save_s": (
                setup_spans["corpus_index.save"][0]
                if "corpus_index.save" in setup_spans
                else 0.0
            ),
            "corpus_index.load_s": seconds("corpus_index.load"),
            "corpus_index.query_s": seconds("corpus_index.query"),
            "corpus_index.rank_s": seconds("corpus_index.rank"),
            "corpus_index.candidates": per_rep(counts["corpus_index.candidates"]),
            "corpus_index.blocked": per_rep(counts["corpus_index.blocked"]),
            "corpus_index.prune_ratio": (
                1.0
                - _ratio(
                    counts["corpus_index.blocked"], counts["corpus_index.hits"]
                )
                if counts["corpus_index.hits"]
                else 0.0
            ),
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return metrics

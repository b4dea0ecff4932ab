"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up three times (``setup_s`` is the
median), takes its references and a warm-up, then repeats the timed
work for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` sets up once under the layer tracer, then alternates
untraced and traced repetitions for ``--seconds`` and reports the
per-layer metrics plus ``trace.overhead_ratio``.  Both print one line
per metric with its unit, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Times are reported at a reference machine speed.  The run uses two
CPUs: this process is pinned to the first, the worker processes it
forks may use both, and on each a background process
(``speed_probe.py``) times a small fixed pure-Python loop every 20 ms.
Each timed interval (a set-up, a sweep, a merge or query op) is
multiplied by ``REFERENCE_PROBE_S`` over the median probe sample taken
during it on the CPUs doing the work (the mean over both for the
2-worker sweep).  A change to the program moves the scaled times as
much as the raw ones.  When a shared machine slows a CPU down for a
while, the probe on that CPU slows too, and that cancels.  The raw
figures are printed beside the scaled ones.

The program is imported from ``src/`` of the checkout; all files the
run writes go under ``perfbench/.work/`` and are removed when it ends.
The span file of the last traced run of each workload and seed is
kept under ``perfbench/.traces/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List

from tracing import LAYER_METRICS, Tracer, layer_metrics, quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed repetitions per run, however long they take.
MIN_REPS = 2
#: Fewest traced (and untraced) repetitions per traced run.
MIN_TRACED_REPS = 2
#: Seconds one speed-probe sample takes at the reference speed (about
#: the median on an idle 2-vCPU 2.1 GHz cloud VM).
REFERENCE_PROBE_S = 0.0005
#: Fewest probe samples a scale factor is taken from.
PROBE_WINDOW = 5
#: Niceness added to the benchmark process once the probes run.
PRIORITY_DROP = 10
#: CPUs a run uses, each with its own probe.
CPU_COUNT = 2

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SpeedProbe:
    """A background ``speed_probe.py`` process pinned to one CPU, and
    its samples."""

    def __init__(self, path: Path, cpu: int):
        self.path = path
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "speed_probe.py"), str(path)],
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        self._starts: List[float] = []
        self._seconds: List[float] = []
        self._offset = 0
        while len(self._starts) < PROBE_WINDOW:
            time.sleep(0.05)
            self._read()

    def _read(self) -> None:
        """Parse the complete lines written since the last read."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
        except FileNotFoundError:
            return
        complete = data[: data.rfind(b"\n") + 1]
        self._offset += len(complete)
        for line in complete.decode("ascii").splitlines():
            start, seconds = line.split()
            self._starts.append(float(start))
            self._seconds.append(float(seconds))

    def factor(self, start: float, end: float) -> float:
        """The factor that turns seconds measured in ``[start, end]``
        into seconds at the reference speed: the reference over the
        median probe sample in the interval, widened to the nearest
        ``PROBE_WINDOW`` samples when it holds fewer."""
        self._read()
        low = bisect.bisect_left(self._starts, start)
        high = bisect.bisect_right(self._starts, end)
        while high - low < PROBE_WINDOW:
            low, high = max(low - 1, 0), min(high + 1, len(self._starts))
        return REFERENCE_PROBE_S / statistics.median(self._seconds[low:high])

    def close(self) -> None:
        self.process.terminate()
        self.process.wait()


class Probes:
    """One :class:`SpeedProbe` per CPU of the run, the home CPU first.

    Started before this process pins itself to the home CPU and lowers
    its priority, so the probes keep the default priority.  Otherwise,
    on a machine with as many cores as sweep workers, the workers would
    delay the probes; that reads as a slower machine and would flatter
    the 2-worker sweep.  A probe on another CPU than the work misses
    most of its slowdowns: on a shared VM each CPU slows on its own.
    """

    def __init__(self, directory: Path, cpus: List[int]):
        self.probes = [
            SpeedProbe(directory / f"speed-probe-{cpu}.txt", cpu) for cpu in cpus
        ]

    def factor(self, start: float, end: float, processes: int = 1) -> float:
        """The mean factor over the probes of the first ``processes``
        CPUs, those the work in ``[start, end]`` ran on."""
        return statistics.mean(
            probe.factor(start, end) for probe in self.probes[:processes]
        )

    def close(self) -> None:
        for probe in self.probes:
            probe.close()


def _pin(cpus: List[int]) -> None:
    """Run this process on ``cpus[0]`` and the processes it forks on
    all of ``cpus``."""
    os.sched_setaffinity(0, {cpus[0]})
    os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, cpus))


def _scaled_rep(workload, state, probes: Probes):
    """``(rep, wall, latencies)``, the last two at reference speed."""
    rep = workload.rep(state)
    factors = [
        probes.factor(start, end, workload.processes) for start, end in rep.intervals
    ]
    return (rep, *rep.scaled(factors))


def _peak_rss_mb() -> float:
    """Maximum resident set of this process and of any waited-for
    child (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _freeze_heap() -> None:
    """Move every object alive now out of the collector's reach.

    The run holds the parsed inputs and the references of its output
    checks (up to 187 models, about 250,000 objects).  Without this,
    every full collection the timed work triggers walks them, which
    adds about 100 ms to most merges.  A CLI process holds only the
    models of its own op, so the timed work should not pay for them.
    Objects the timed work allocates are still collected as usual.
    """
    gc.collect()
    gc.freeze()


def _timed_setup(workload, seed: int, root: Path, probes: Probes):
    """``(inputs, state, raw seconds, seconds at reference speed)``."""
    started = time.perf_counter()
    inputs = workload.inputs(seed)
    state = workload.setup(inputs, root)
    ended = time.perf_counter()
    elapsed = ended - started
    return inputs, state, elapsed, elapsed * probes.factor(started, ended)


def run_untraced(workload, seed, seconds, work, probes) -> dict:
    setup_raw, setup_scaled, digests = [], [], []
    for attempt in range(SETUP_REPEATS):
        inputs, state, elapsed, scaled = _timed_setup(
            workload, seed, work / f"setup-{attempt}", probes
        )
        setup_raw.append(elapsed)
        setup_scaled.append(scaled)
        digests.append(inputs.digest())
    # Determinism of the input generator: every set-up of one seed
    # gives the same inputs digest.
    deterministic = len(set(digests)) == 1

    attempted, failed = workload.prepare(state, seed)
    _freeze_heap()
    reps = []
    started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        reps.append(_scaled_rep(workload, state, probes))
    attempted += sum(rep.attempted for rep, _, _ in reps)
    failed += sum(rep.failed for rep, _, _ in reps)
    ops = sum(rep.ops for rep, _, _ in reps)
    latencies = [value for _, _, scaled in reps for value in scaled]
    raw_latencies = [value for rep, _, _ in reps for value in rep.latencies]
    metrics = {
        "ops_per_s": ops / sum(wall for _, wall, _ in reps),
        "op_p50_ms": quantile(latencies, 0.5) * 1000.0,
        "op_p90_ms": quantile(latencies, 0.9) * 1000.0,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": _peak_rss_mb(),
    }
    raw = {
        "ops_per_s": ops / sum(rep.wall for rep, _, _ in reps),
        "op_p50_ms": quantile(raw_latencies, 0.5) * 1000.0,
        "op_p90_ms": quantile(raw_latencies, 0.9) * 1000.0,
        "setup_s": statistics.median(setup_raw),
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    print(
        f"{workload.name} seed {seed}: {len(reps)} timed repetitions, "
        f"{ops} ops, inputs digest "
        f"{digests[0][:16]} "
        f"({'deterministic' if deterministic else 'NOT DETERMINISTIC'})"
    )
    print(f"  {'metric':<16} {'reference speed':>16} {'raw':>14}")
    for name, value in metrics.items():
        samples = f"  (n={len(latencies)})" if name.startswith("op_p") else ""
        print(
            f"  {name:<16} {value:16.4f} {raw[name]:14.4f} "
            f"{END_TO_END_UNITS[name]}{samples}"
        )
    print(f"  {'failed_ratio':<16} {failed / attempted:16.4f} ratio")
    return {
        "correct": deterministic and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
    }


def run_traced(workload, seed, seconds, work, probes) -> dict:
    # Determinism of the input generator: another seed gives other
    # inputs (the untraced runs check that one seed repeats).
    other = workload.inputs(seed + 1).digest()
    setup_tracer = Tracer(work / "spool-setup")
    setup_tracer.install()
    try:
        inputs = workload.inputs(seed)
        state = workload.setup(inputs, work / "setup")
    finally:
        setup_tracer.uninstall()
    deterministic = other != inputs.digest()

    attempted, failed = workload.prepare(state, seed)
    _freeze_heap()
    tracer = Tracer(work / "spool")
    untraced, traced = [], []
    started = time.perf_counter()
    while (
        len(traced) < MIN_TRACED_REPS
        or time.perf_counter() - started < seconds
    ):
        untraced.append(_scaled_rep(workload, state, probes))
        tracer.install()
        try:
            traced.append(_scaled_rep(workload, state, probes))
        finally:
            tracer.uninstall()
        tracer.collect()
    reps = [rep for rep, _, _ in untraced + traced]
    attempted += sum(rep.attempted for rep in reps)
    failed += sum(rep.failed for rep in reps)
    overhead = (
        statistics.median(wall for _, wall, _ in traced)
        / statistics.median(wall for _, wall, _ in untraced)
        - 1.0
    )
    metrics = layer_metrics(
        tracer,
        len(traced),
        setup_tracer,
        workload.prune_time_ratio(state, traced[-1][0]),
        overhead,
    )
    tracer.write(HERE / ".traces" / f"{workload.name}-seed{seed}.json")
    print(
        f"{workload.name} seed {seed}: {len(traced)} traced and "
        f"{len(untraced)} untraced repetitions; per-layer values are raw "
        f"and per repetition"
    )
    units = dict(LAYER_METRICS)
    for name, unit in LAYER_METRICS:
        print(f"  {name:<36} {metrics[name]:16.6f} {unit}")
    return {
        "correct": deterministic and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name, _ in LAYER_METRICS
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: no program sources at {ROOT / 'src'}; run from the "
            f"root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # Temporary stores the program makes (the sweep's digest-shipping
    # store) land inside the run's own directory too.
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    cpus = sorted(os.sched_getaffinity(0))[:CPU_COUNT]
    probes = Probes(work, cpus)
    try:
        _pin(cpus)
        os.nice(PRIORITY_DROP)
        run = run_traced if args.trace else run_untraced
        result = run(workload, args.seed, args.seconds, work, probes)
    finally:
        probes.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

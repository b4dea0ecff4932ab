"""Supervision overhead — the fault-tolerant coordinator vs the bare
sharded engine.

The coordinator (:class:`repro.core.coordinator.SweepCoordinator`)
adds leases, heartbeats, per-shard journal writes and worker IPC on
top of the same :class:`~repro.core.match_all._PairEngine` the bare
pool's shard runs go through.  All of that machinery sits *outside*
the per-pair hot path — journal writes are per shard attempt,
heartbeats ride the worker's idle poll — so a healthy sweep (no
faults injected) must pay only a small constant tax.  The target,
recorded in docs/perf.md, is **< 3 % wall-clock overhead** against a
bare process pool driving the identical shard partition.

Both sides do identical work: W processes, K shards, same corpus,
same artifact-store-free engine, and both write the per-shard CSVs.
Each bare pool process builds one
:class:`~repro.core.match_all._Sweep` in its initializer and runs
every shard it is handed through it, so it derives each model's
artifacts once, as a coordinator worker does.  The delta is exactly the supervision
machinery.

Run standalone::

    PYTHONPATH=src python -m benchmarks.bench_supervised_sweep
    PYTHONPATH=src python -m benchmarks.bench_supervised_sweep --gate
"""

from __future__ import annotations

import argparse
import multiprocessing
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.artifact_store import corpus_fingerprint
from repro.core.coordinator import CoordinatorConfig, SweepCoordinator
from repro.core.match_all import _Sweep, write_outcomes_csv
from repro.core.shards import partition_pairs, shard_result_filename
from repro.corpus import generate_corpus

from benchmarks._common import emit, write_csv

#: docs/perf.md's supervision-overhead bar.  ``--gate`` enforces a
#: looser 3x multiple of it so shared-runner noise doesn't flake the
#: job while a real hot-path regression (per-pair journal writes,
#: chatty heartbeats) still fails loudly.
TARGET_OVERHEAD = 0.03
GATE_OVERHEAD = 3 * TARGET_OVERHEAD

#: The pool process's sweep and shard layout, built by :func:`_pool_init`.
_SWEEP = None
_SHARDS = None


def _pool_init(models, shard_count):
    global _SWEEP, _SHARDS
    # No store, like the supervised side's workers: both derive
    # artifacts in memory from the corpus they were forked with, once
    # per process, so the delta is exactly the supervision machinery.
    _SWEEP = _Sweep(models, None, 1, False)
    _SHARDS = partition_pairs(_SWEEP.sizes, shard_count)


def _bare_shard(payload):
    shard_id, out_dir = payload
    matrix = _SWEEP.run(_SHARDS[shard_id].pairs)
    write_outcomes_csv(
        Path(out_dir) / shard_result_filename(shard_id, len(_SHARDS)),
        matrix.outcomes,
        deterministic=True,
    )
    return len(matrix.outcomes)


def bare_sweep(models, shards, workers, out_dir) -> float:
    """W processes over K shards with no supervision: the floor."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    with multiprocessing.Pool(
        workers, initializer=_pool_init, initargs=(models, shards)
    ) as pool:
        pool.map(
            _bare_shard,
            [(shard_id, str(out_dir)) for shard_id in range(shards)],
        )
    return time.perf_counter() - started


def supervised_sweep(models, shards, workers, out_dir) -> float:
    started = time.perf_counter()
    report = SweepCoordinator(
        models,
        shards=shards,
        out_dir=out_dir,
        fingerprint=corpus_fingerprint(models, extra=("shards", shards)),
        config=CoordinatorConfig(workers=workers),
        progress=False,
    ).run()
    seconds = time.perf_counter() - started
    assert report.exit_code == 0, "healthy sweep must exit clean"
    return seconds


def measure(models, shards, workers, rounds):
    """Best-of-``rounds`` wall time for each side, fresh dirs per
    round so neither path inherits the other's warm page cache
    entries or a resumable journal."""
    bare = supervised = float("inf")
    for _ in range(rounds):
        scratch = Path(tempfile.mkdtemp(prefix="bench-supervise-"))
        try:
            bare = min(
                bare, bare_sweep(models, shards, workers, scratch / "bare")
            )
            supervised = min(
                supervised,
                supervised_sweep(
                    models, shards, workers, scratch / "supervised"
                ),
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    return bare, supervised


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=16,
                        help="generated corpus size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--gate", action="store_true",
        help=f"exit 1 when overhead exceeds {GATE_OVERHEAD:.0%} "
             f"(3x the {TARGET_OVERHEAD:.0%} docs/perf.md target, "
             f"headroom for noisy shared runners)",
    )
    args = parser.parse_args(argv)

    models = list(generate_corpus(count=args.count, seed=args.seed))
    pairs = args.count * (args.count + 1) // 2
    print(
        f"corpus: {len(models)} models, {pairs} pairs, "
        f"{args.shards} shards, {args.workers} workers "
        f"(best of {args.rounds})"
    )

    bare, supervised = measure(
        models, args.shards, args.workers, args.rounds
    )
    overhead = supervised / bare - 1

    emit("")
    emit("Supervised sweep overhead (healthy run, no faults)")
    emit(f"{'path':>24} {'seconds':>9} {'pairs/s':>9}")
    for label, seconds in (
        ("bare process pool", bare),
        ("SweepCoordinator", supervised),
    ):
        emit(f"{label:>24} {seconds:>9.3f} {pairs / seconds:>9.1f}")
    emit(
        f"{'overhead':>24} {overhead:>8.1%}  "
        f"(target < {TARGET_OVERHEAD:.0%})"
    )
    write_csv(
        "supervised_overhead.csv",
        ["path", "seconds"],
        [("bare", f"{bare:.6f}"), ("supervised", f"{supervised:.6f}"),
         ("overhead", f"{overhead:.4f}")],
    )

    if args.gate and overhead > GATE_OVERHEAD:
        print(
            f"FAIL: supervision overhead {overhead:.1%} exceeds the "
            f"{GATE_OVERHEAD:.0%} gate"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""N-way composition: session ``compose_all`` vs naive cold fold,
per merge plan, and the batched all-pairs engine.

The naive workflow for composing n models is a hand-rolled left fold
of pairwise merges, cold-starting the engine (options, synonym table,
caches) on every step and re-copying the growing accumulator each
time.  ``ComposeSession.compose_all`` owns that state across steps,
folds in place, carries the accumulator's derived artifacts (used
ids, unit registry, initial values) between steps, moves intermediate
components instead of copying them, and lets a merge plan choose the
order.  Every plan executes serially.

This benchmark measures all of it on a 10-model corpus chain (models
in generation order, the order a real workload would hand them over
in), plus the batched all-pairs engine on the subsampled corpus, and
records the numbers machine-readably in ``BENCH_compose.json`` at the
repo root so the perf trajectory is tracked across PRs.

Usage::

    python -m benchmarks.bench_compose_all            # report + CSV + JSON
    python -m benchmarks.bench_compose_all --rounds 9
    python -m benchmarks.bench_compose_all --smoke    # CI: fail on crash only

The pytest-benchmark entries time the individual strategies; the
standalone run prints the paper-style comparison table and asserts
the acceptance bar (session+greedy vs naive, ``ACCEPTANCE_SPEEDUP``)
unless ``--smoke``, plus the all-pairs regression gate under
``--gate-allpairs``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, List, Sequence

from repro import Composer, ComposeSession, match_all
from repro.corpus import corpus_by_size, generate_corpus
from repro.sbml.model import Model
from benchmarks._common import emit, write_csv

#: Number of models in the chain (the acceptance scenario).
CHAIN_LENGTH = 10

#: Machine-readable results, tracked across PRs at the repo root.
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_compose.json"

#: Session-greedy must beat the naive cold fold by this factor.
#: History: the bar was 1.3x when the naive path cold-started every
#: piece of the engine; the hash-consed math core (PR 4) accelerated
#: the *shared* machinery — component copies, interning, mapping
#: resolution — so the naive baseline itself got ~30% faster and the
#: relative gap legitimately narrowed (absolute times: naive 44→31 ms,
#: session fold 25→18 ms on the reference container).  The bar now
#: guards "sessions are never slower than cold folds, with margin"
#: rather than a fixed reuse ratio.
ACCEPTANCE_SPEEDUP = 1.1


def chain_models(seed: int = 42) -> List[Model]:
    """Ten corpus models in generation order (NOT size-sorted)."""
    corpus = generate_corpus(seed=seed)
    return corpus[:: max(1, len(corpus) // CHAIN_LENGTH)][:CHAIN_LENGTH]


def naive_cold_fold(models: Sequence[Model]) -> Model:
    """The pre-session idiom: a fresh engine per step, accumulator
    re-copied by every ``compose`` call."""
    accumulator = models[0]
    for model in models[1:]:
        accumulator, _ = Composer().compose(accumulator, model)
    return accumulator


def session_compose(models: Sequence[Model], plan: str) -> Model:
    return ComposeSession().compose_all(models, plan=plan).model


def _best_of(fn: Callable[[], object], rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def compare(models: Sequence[Model], rounds: int = 5):
    """``(label, seconds, calibration_s, speedup-vs-naive)`` for each
    strategy: its best of ``rounds`` wall times, and the calibration
    loop beside it.

    The loop runs before the first strategy and after each one, as
    between the all-pairs rounds: a strategy's ``calibration_s`` is
    the mean of the loop runs just before and just after its own
    runs, so ``seconds / calibration_s`` is its cost in calibration
    loops, which divides out the speed the machine had meanwhile."""
    strategies = [("naive-cold-fold", lambda: naive_cold_fold(models))] + [
        (f"session-{plan}", lambda plan=plan: session_compose(models, plan))
        for plan in ("fold", "tree", "greedy")
    ]
    calibrations = [_calibration_seconds(statistic=statistics.mean)]
    timed = []
    for label, run in strategies:
        seconds = _best_of(run, rounds)
        calibrations.append(_calibration_seconds(statistic=statistics.mean))
        timed.append((label, seconds, statistics.mean(calibrations[-2:])))
    naive = timed[0][1]
    return [
        (label, seconds, calibration, naive / seconds)
        for label, seconds, calibration in timed
    ]


# ---------------------------------------------------------------------------
# pytest-benchmark entries
# ---------------------------------------------------------------------------


def bench_naive_cold_fold(benchmark):
    models = chain_models()
    benchmark(lambda: naive_cold_fold(models))


def bench_session_fold(benchmark):
    models = chain_models()
    benchmark(lambda: session_compose(models, "fold"))


def bench_session_greedy(benchmark):
    models = chain_models()
    benchmark(lambda: session_compose(models, "greedy"))


def bench_session_tree(benchmark):
    models = chain_models()
    benchmark(lambda: session_compose(models, "tree"))


def bench_compose_all_speedup(benchmark):
    """Session+greedy must beat the naive cold fold on the chain."""
    models = chain_models()
    rows = benchmark.pedantic(
        lambda: compare(models, rounds=3), rounds=1, iterations=1
    )
    emit("")
    emit(f"compose_all — {CHAIN_LENGTH}-model corpus chain")
    for label, seconds, _, speedup in rows:
        emit(f"  {label:>18}: {seconds * 1000:8.2f} ms  ({speedup:.2f}x)")
    by_label = {label: speedup for label, _, _, speedup in rows}
    assert by_label["session-greedy"] > 1.0


# ---------------------------------------------------------------------------
# Standalone entry point
# ---------------------------------------------------------------------------


def _calibration_seconds(repeats: int = 5, statistic=min) -> float:
    """``statistic`` (default: the best) of ``repeats`` wall times of a
    fixed pure-Python loop (dict probes, string keys, a sort — the
    interpreter work a merge is made of).

    Multiplying a throughput by it cancels the speed of the machine
    that measured it, so a baseline committed from one box gates runs
    on another."""
    readings = []
    for _ in range(repeats):
        started = time.perf_counter()
        table: dict = {}
        for i in range(100_000):
            key = f"id:{i % 1009}"
            table[key] = table.get(key, 0) + i
        sorted(table.items(), key=lambda item: item[1])
        readings.append(time.perf_counter() - started)
    return statistic(readings)


def _allpairs_numbers(
    seed: int, stride: int, workers: int, rounds: int = 15
) -> dict:
    """The batched all-pairs sweep on the subsampled corpus.

    Single-worker by default: that is the tracked configuration (the
    regression gate compares it across PRs), because worker fan-out
    measures the machine where the engine's own speed is what the
    repo optimises.  Every round sweeps the corpus once, and the
    calibration loop runs between the rounds: a round's
    ``calibration_s`` is the mean of the loop runs just before and
    just after its sweep, the machine's speed around that sweep rather
    than at its fastest.  Each round's ``pairs_per_calibration`` =
    pairs/s × ``calibration_s`` (pairs swept in one calibration loop's
    time) thus divides out the speed the machine had during that
    round.  The row records the medians over the rounds; the
    regression gate compares the median ``pairs_per_calibration``.
    """
    corpus = corpus_by_size(generate_corpus(seed=seed))[::stride]
    calibrations = [_calibration_seconds(statistic=statistics.mean)]
    readings = []
    for _ in range(max(1, rounds)):
        matrix = match_all(corpus, workers=workers)
        calibrations.append(_calibration_seconds(statistic=statistics.mean))
        readings.append(
            (matrix.seconds, statistics.mean(calibrations[-2:]))
        )
    seconds = statistics.median(run[0] for run in readings)
    pairs = matrix.pair_count
    return {
        "engine": "match_all",
        "models": matrix.model_count,
        "pairs": pairs,
        "workers": matrix.workers,
        "rounds": len(readings),
        "seconds": round(seconds, 6),
        "pairs_per_second": round(pairs / seconds, 2),
        "calibration_s": round(
            statistics.median(run[1] for run in readings), 6
        ),
        "pairs_per_calibration": round(
            statistics.median(pairs / run[0] * run[1] for run in readings),
            3,
        ),
        "rounds_pairs_per_calibration": [
            round(pairs / run[0] * run[1], 3) for run in readings
        ],
    }


def _read_committed_baseline() -> dict:
    """The BENCH_compose.json this run is about to overwrite — the
    committed baseline the allpairs regression gate compares against.
    Missing or unreadable baselines gate nothing (first run, fresh
    clone mid-edit...)."""
    try:
        return json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def write_bench_json(
    rows, allpairs: dict, rounds: int, smoke: bool
) -> Path:
    """Record the run in BENCH_compose.json (pairs/sec, wall time per
    merge plan) for cross-PR tracking.

    Read-modify-write: sections other benchmarks own (``corpus_query``
    from ``bench_corpus_query``, ``corpus_scale`` from
    ``bench_corpus_scale``, ``scaling`` from ``bench_scaling``,
    ``paper_scale`` from ``bench_paper_scale``) are carried over from
    the committed file, not dropped."""
    committed = _read_committed_baseline()
    payload = {
        "benchmark": "compose_all",
        "smoke": smoke,
        "rounds": rounds,
        "chain_models": CHAIN_LENGTH,
        "machine": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "strategies": {
            label: {
                "seconds": round(seconds, 6),
                "calibration_s": round(calibration, 6),
                "seconds_per_calibration": round(seconds / calibration, 3),
                "speedup_vs_naive": round(speedup, 3),
            }
            for label, seconds, calibration, speedup in rows
        },
        "allpairs": allpairs,
        **{
            section: committed[section]
            for section in (
                "corpus_query",
                "corpus_scale",
                "scaling",
                "paper_scale",
            )
            if section in committed
        },
        "notes": (
            "Every merge plan executes serially; the all-pairs row is "
            "the single-worker sweep.  See docs/perf.md."
        ),
    }
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return BENCH_JSON


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--stride", type=int, default=4,
        help="corpus subsampling stride for the all-pairs section "
             "(default 4: 47 models, 1,128 pairs)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="supervised worker processes for the all-pairs sweep "
             "(default 1 — the single-worker number is the "
             "tracked/gated configuration)",
    )
    parser.add_argument(
        "--allpairs-rounds", type=int, default=15,
        help="rounds for the all-pairs section, each calibrated by "
             "the loop runs beside it; the row and the gate take the "
             "median (default 15); independent of --rounds, which "
             "drives the strategy rows",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: run everything, fail on crash, skip the "
             "timing acceptance bar",
    )
    parser.add_argument(
        "--gate-allpairs", action="store_true",
        help="fail (exit 1) when the median over the all-pairs "
             "rounds of pairs/sec, normalised by each round's "
             "calibration loop, regresses more than 20%% against the "
             "committed BENCH_compose.json baseline (independent of "
             "--smoke)",
    )
    args = parser.parse_args(argv)

    models = chain_models(seed=args.seed)
    sizes = [model.network_size() for model in models]
    print(f"chain: {len(models)} models, sizes {sizes}")

    rows = compare(models, rounds=args.rounds)
    print(f"\ncompose_all — {CHAIN_LENGTH}-model corpus chain "
          f"(best of {args.rounds})")
    print(f"{'strategy':>18} {'ms':>10} {'per calib':>10} {'speedup':>9}")
    for label, seconds, calibration, speedup in rows:
        print(
            f"{label:>18} {seconds * 1000:>10.2f} "
            f"{seconds / calibration:>10.3f} {speedup:>8.2f}x"
        )

    write_csv(
        "compose_all_chain.csv",
        ["strategy", "seconds", "calibration_s", "speedup_vs_naive"],
        [
            (label, f"{s:.6f}", f"{c:.6f}", f"{x:.3f}")
            for label, s, c, x in rows
        ],
    )

    baseline = _read_committed_baseline()
    allpairs = _allpairs_numbers(
        args.seed, args.stride, args.workers, rounds=args.allpairs_rounds
    )
    print(
        f"\nall-pairs (batched match_all engine): "
        f"{allpairs['pairs']} pairs over {allpairs['models']} models "
        f"in {allpairs['seconds']:.2f}s "
        f"({allpairs['pairs_per_second']:.0f} pairs/s, "
        f"workers={allpairs['workers']}; calibration loop "
        f"{allpairs['calibration_s'] * 1000:.1f} ms, "
        f"{allpairs['pairs_per_calibration']:.1f} pairs per loop; "
        f"medians of {allpairs['rounds']} rounds, per round "
        f"{allpairs['rounds_pairs_per_calibration']})"
    )

    path = write_bench_json(rows, allpairs, args.rounds, args.smoke)
    print(f"machine-readable results: {path}")

    if args.gate_allpairs:
        committed = (baseline.get("allpairs") or {}).get(
            "pairs_per_calibration"
        )
        if not committed:
            print("allpairs gate: no committed calibrated baseline, "
                  "nothing to gate")
        else:
            floor = 0.8 * float(committed)
            measured = allpairs["pairs_per_calibration"]
            print(
                f"allpairs gate: {measured:.1f} pairs per calibration "
                f"loop vs committed baseline {committed:.1f} "
                f"(floor {floor:.1f})"
            )
            if measured < floor:
                print(
                    "FAIL: allpairs throughput regressed more than 20% "
                    "against the committed BENCH_compose.json baseline "
                    "(normalised by the calibration loop)",
                    file=sys.stderr,
                )
                return 1

    by_label = {label: speedup for label, _, _, speedup in rows}
    greedy = by_label["session-greedy"]
    print(f"\nsession-greedy speedup vs naive cold fold: {greedy:.2f}x "
          f"(acceptance bar: {ACCEPTANCE_SPEEDUP:.2f}x)")
    if args.smoke:
        print("smoke mode: timing bar skipped")
        return 0
    if greedy < ACCEPTANCE_SPEEDUP:
        print(
            f"FAIL: below the {ACCEPTANCE_SPEEDUP:.2f}x acceptance bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

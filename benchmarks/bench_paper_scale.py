"""The Figure 8 sweep at the paper's scale, in three configurations.

All 187 models of ``generate_corpus(seed=42)``, size-sorted, swept by
``match_all`` over all 17,578 pairs (self-pairs included):

* ``serial`` — one process, every pair through the Figure 4 phases;
* ``screened`` — one process, through the structural prescreen;
* ``2w-screened`` — the prescreen, then 2 supervised worker processes
  for the pairs it lets through.

A round runs each configuration once, in an order that alternates
from round to round, between two readings of the calibration loop
(``bench_compose_all._calibration_seconds``, the best of both is the
round's reading).  Each row records the median over the rounds of its
seconds, pairs/s, ``calibration_s`` and ``pairs_per_calibration`` =
pairs/s × ``calibration_s`` — pairs swept in one calibration loop's
time, which divides out the speed of the machine.  Every
configuration must return the same outcome keys as ``serial``, with
nothing quarantined, or the run exits 1.

Results land in the ``paper_scale`` section of ``BENCH_compose.json``
(read-modify-write: other sections are kept, and
``bench_compose_all`` carries this one over).  ``--stride S`` sweeps
every S-th model of the same corpus instead and only prints its rows —
strides 16, 8, 4 and 2 give the 12-, 24-, 47- and 94-model rungs of
the worker crossover in docs/perf.md.

Run standalone::

    PYTHONPATH=src python -m benchmarks.bench_paper_scale
    PYTHONPATH=src python -m benchmarks.bench_paper_scale --stride 4
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from repro.core.match_all import match_all
from repro.corpus import corpus_by_size, generate_corpus

from benchmarks._common import emit
from benchmarks.bench_compose_all import _calibration_seconds

#: Machine-readable results, shared with the other benchmarks.
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_compose.json"

#: ``match_all`` keywords per configuration, in first-round order.
CONFIGS = {
    "serial": {"workers": 1},
    "screened": {"workers": 1, "prescreen": True},
    "2w-screened": {"workers": 2, "prescreen": True},
}


class OutputMismatch(Exception):
    """A configuration's outcomes are not the serial sweep's."""


def measure(corpus, rounds: int) -> dict:
    """Per configuration, the per-round ``(seconds, calibration_s,
    pruned)`` readings.  Raises :class:`OutputMismatch` when a
    configuration's outcome keys differ from the serial sweep's or it
    quarantined a pair."""
    readings = {name: [] for name in CONFIGS}
    reference = None
    for round_index in range(rounds):
        order = list(CONFIGS)
        if round_index % 2:
            order.reverse()
        calibration = _calibration_seconds()
        matrices = {name: match_all(corpus, **CONFIGS[name]) for name in order}
        calibration = min(calibration, _calibration_seconds())
        if reference is None:
            reference = [o.key() for o in matrices["serial"].outcomes]
        for name, matrix in matrices.items():
            if matrix.quarantined:
                raise OutputMismatch(f"{name}: pairs quarantined")
            if [o.key() for o in matrix.outcomes] != reference:
                raise OutputMismatch(
                    f"{name}: outcome keys differ from the serial sweep's"
                )
            readings[name].append((matrix.seconds, calibration, matrix.pruned))
    return readings


def summarize(readings: dict, pairs: int) -> dict:
    """One row per configuration: medians over the rounds."""
    rows = {}
    for name, runs in readings.items():
        seconds = statistics.median(run[0] for run in runs)
        rows[name] = {
            "workers": CONFIGS[name]["workers"],
            "prescreen": CONFIGS[name].get("prescreen", False),
            "pruned": runs[0][2],
            "seconds": round(seconds, 6),
            "pairs_per_second": round(pairs / seconds, 2),
            "calibration_s": round(
                statistics.median(run[1] for run in runs), 6
            ),
            "pairs_per_calibration": round(
                statistics.median(pairs / run[0] * run[1] for run in runs),
                3,
            ),
            "rounds_seconds": [round(run[0], 3) for run in runs],
        }
    return rows


def write_paper_scale_json(section: dict) -> Path:
    """Merge the ``paper_scale`` section into BENCH_compose.json
    without touching the sections other benchmarks own."""
    try:
        payload = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        payload = {}
    payload["paper_scale"] = section
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return BENCH_JSON


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--stride", type=int, default=1,
        help="sweep every S-th model and print the rows without "
             "recording them (default 1: all 187 models, recorded)",
    )
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.stride < 1:
        parser.error("--rounds and --stride must be at least 1")

    corpus = corpus_by_size(generate_corpus(seed=args.seed))[:: args.stride]
    pairs = len(corpus) * (len(corpus) + 1) // 2
    print(
        f"corpus: {len(corpus)} models, {pairs} pairs, cpu_count "
        f"{os.cpu_count()} (median of {args.rounds} alternating rounds)"
    )
    try:
        readings = measure(corpus, args.rounds)
    except OutputMismatch as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    rows = summarize(readings, pairs)

    emit("")
    emit(f"Figure 8 sweep, {len(corpus)} models")
    emit(
        f"{'config':>12} {'seconds':>9} {'pairs/s':>9} "
        f"{'cal s':>8} {'pairs/cal':>10} {'pruned':>7}"
    )
    for name, row in rows.items():
        emit(
            f"{name:>12} {row['seconds']:>9.3f} "
            f"{row['pairs_per_second']:>9.1f} {row['calibration_s']:>8.4f} "
            f"{row['pairs_per_calibration']:>10.2f} {row['pruned']:>7}"
        )
    if args.stride != 1:
        return 0
    write_paper_scale_json(
        {
            "engine": "match_all",
            "corpus": {"seed": args.seed, "models": len(corpus)},
            "pairs": pairs,
            "rounds": args.rounds,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            **rows,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

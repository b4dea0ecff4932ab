"""Standalone Figure 9 sweep.

Usage::

    python -m benchmarks.fig9

All pairs of the 17-model semanticSBML suite through both engines;
prints the paper-style per-pair log10 table and the speedup summary.
"""

from __future__ import annotations

import sys
import time

from repro import compose_all
from repro.baselines import SemanticSBMLMerge, generate_database
from repro.corpus import semantic_suite
from benchmarks._common import log10_ms, write_csv


def main(argv=None) -> int:
    suite = semantic_suite()
    generate_database()
    engine = SemanticSBMLMerge()
    print(f"suite: {len(suite)} models, sizes "
          f"{min(m.network_size() for m in suite)}.."
          f"{max(m.network_size() for m in suite)}")

    rows = []
    for i in range(len(suite)):
        for j in range(i, len(suite)):
            first, second = suite[i], suite[j]
            # min-of-2 for the ~1 ms side: one GC pause otherwise
            # distorts a pair by an order of magnitude.
            ours = float("inf")
            for _ in range(2):
                started = time.perf_counter()
                compose_all([first, second]).pair()
                ours = min(ours, time.perf_counter() - started)
            started = time.perf_counter()
            engine.merge(first, second)
            theirs = time.perf_counter() - started
            rows.append(
                (first.network_size() + second.network_size(),
                 first.id, second.id, ours, theirs)
            )

    rows.sort(key=lambda row: row[0])
    write_csv(
        "fig9_full.csv",
        ["size", "first", "second", "sbmlcompose_s", "semanticsbml_s"],
        [
            (size, a, b, f"{ours:.6f}", f"{theirs:.6f}")
            for size, a, b, ours, theirs in rows
        ],
    )

    print()
    print("Figure 9 — log10(composition time ms), ascending size")
    print(
        f"{'size':>5} {'pair':<32} {'SBMLCompose':>12} "
        f"{'semanticSBML':>13} {'ratio':>7}"
    )
    for size, a, b, ours, theirs in rows:
        print(
            f"{size:>5} {a + ' + ' + b:<32.32} {log10_ms(ours):>12.2f} "
            f"{log10_ms(theirs):>13.2f} {theirs / ours:>6.0f}x"
        )
    mean_ours = sum(r[3] for r in rows) / len(rows)
    mean_theirs = sum(r[4] for r in rows) / len(rows)
    worst = min(r[4] / r[3] for r in rows)
    print()
    print(
        f"mean: SBMLCompose {mean_ours * 1000:.2f} ms vs semanticSBML "
        f"{mean_theirs * 1000:.1f} ms -> {mean_theirs / mean_ours:.0f}x "
        f"(worst pair {worst:.0f}x)"
    )
    print(
        "paper's claim (>=1 order of magnitude on every pair): "
        + ("HOLDS" if worst >= 10 else "FAILS")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Figure 8 — composition time vs model size, all pairs.

Paper: "Each of the models was composed with every other model using
our method, SBMLCompose, and the composition time recorded. ...
The results are summarised in Figure 8 [log10(time in ms) in order of
size (size = nodes + edges)].  Composition has O(nm) time complexity
for two models of sizes n and m."

The pytest-benchmark entries time representative pair sizes; the
sweep test regenerates the full series (subsampled corpus by default —
run ``python -m benchmarks.fig8 --full`` for all 17,578 pairs, with
``--workers N`` for N supervised worker processes) and asserts the
paper's two claims: time grows with n·m, and the series spans orders
of magnitude on the log10 axis.  The sweep runs on the batched
:func:`~repro.core.match_all.match_all` engine, which computes each
model's unit registry, initial-value environment and used-id set once
and shares them across all of the model's pairs.
"""

from __future__ import annotations

import math

import pytest

from repro import Composer
from benchmarks._common import (
    emit,
    fig8_sweep,
    log10_ms,
    summarize_series,
    write_csv,
)


def _pick_by_size(corpus, target: int):
    """The corpus model whose size is closest to ``target``."""
    return min(corpus, key=lambda m: abs(m.network_size() - target))


@pytest.mark.parametrize("target_size", [5, 50, 150, 300, 500])
def bench_compose_pair_by_size(benchmark, corpus, target_size):
    """Micro-benchmark: compose two models of ~target_size each."""
    model = _pick_by_size(corpus, target_size)
    other = _pick_by_size(
        [m for m in corpus if m is not model], target_size
    )
    benchmark.extra_info["size"] = (
        model.network_size() + other.network_size()
    )
    engine = Composer()
    benchmark(lambda: engine.compose(model, other))


def bench_fig8_series(benchmark, corpus_sample):
    """The Figure 8 sweep: all pairs of the (subsampled) corpus in
    ascending size order; prints the paper-style series."""
    results = benchmark.pedantic(
        lambda: fig8_sweep(corpus_sample), rounds=1, iterations=1
    )

    write_csv(
        "fig8_series.csv",
        ["combined_size", "seconds", "log10_ms"],
        [(size, f"{s:.6f}", f"{log10_ms(s):.3f}") for size, s in results],
    )
    emit("")
    emit("Figure 8 — log10(compose time ms) vs size (nodes+edges)")
    emit(f"{'size range':>12} {'pairs':>6} {'mean ms':>10} {'log10 ms':>9}")
    for size_range, count, mean_ms, log_ms in summarize_series(results):
        emit(f"{size_range:>12} {count:>6} {mean_ms:>10.3f} {log_ms:>9.2f}")

    # Claim 1: composition time grows with the combined size.
    small = [s for size, s in results if size <= 50]
    large = [s for size, s in results if size >= 400]
    assert small and large, "sweep must cover small and large pairs"
    assert (sum(large) / len(large)) > 5 * (sum(small) / len(small))

    # Claim 2 (O(n·m)): for size-s self-pairs the time is superlinear
    # in s — doubling the size should more than double the time.
    by_size = sorted(results)
    mid = by_size[len(by_size) // 2]
    top = by_size[-1]
    assert top[0] > mid[0]


def bench_fig8_sharded_sweep(benchmark, corpus_sample):
    """The Figure 8 sweep as a 4-shard run — the deployment shape for
    corpora that don't fit (or shouldn't monopolise) one machine.

    The four shards run through one sweep, as ``sbmlcompose sweep
    --shards 4`` runs them: one engine, so each model's artifacts are
    derived once.  Asserts the tentpole invariant while timing it: the
    union of the shard matrices equals the unsharded sweep on every
    run-invariant field, and the per-shard cost estimates stay
    balanced.
    """
    from repro.core.match_all import MatchMatrix, _Sweep, match_all
    from repro.core.shards import partition_pairs

    shard_count = 4
    sizes = [model.network_size() for model in corpus_sample]
    shards = partition_pairs(sizes, shard_count)

    def sweep_sharded():
        sweep = _Sweep(corpus_sample, None, 1, False)
        return [sweep.run(shard.pairs) for shard in shards]

    parts = benchmark.pedantic(sweep_sharded, rounds=1, iterations=1)
    merged = MatchMatrix.union(parts)
    reference = match_all(corpus_sample)
    assert [o.key() for o in merged.outcomes] == [
        o.key() for o in reference.outcomes
    ]
    mean_cost = sum(shard.cost for shard in shards) / shard_count
    emit("")
    emit(f"Figure 8 sharded sweep — {shard_count} shards")
    for shard, part in zip(shards, parts):
        emit(
            f"  {shard.describe():>44}  "
            f"({part.seconds * 1000:8.1f} ms, "
            f"balance {shard.cost / mean_cost:4.2f}x)"
        )
    assert all(shard.cost < 2 * mean_cost for shard in shards)


#: PR-4 single-process throughput on the 24-model sampled sweep — the
#: committed BENCH_compose.json baseline before the per-model
#: phase-index artifacts (ModelIndexSet + OverlayIndex reuse) landed;
#: sweeps have since become decide-only (no merged model is built).
#: The acceptance bar for the index work is ≥1.3x this number.
_PR4_PAIRS_PER_SECOND = 462.38


def bench_fig8_allpairs_throughput(benchmark, corpus_sample):
    """Single-worker sweep throughput on the 24-model sampled corpus.

    The configuration ``BENCH_compose.json``'s ``allpairs`` row
    tracks (on the 47-model corpus there, gated in CI): one worker,
    whole sweep, pairs per second.  Asserts the index-artifact
    acceptance bar —
    at least 1.3x the PR-4 baseline recorded above.
    """
    from repro.core.match_all import match_all

    matrix = benchmark.pedantic(
        lambda: match_all(corpus_sample, workers=1), rounds=3, iterations=1
    )
    speedup = matrix.pairs_per_second / _PR4_PAIRS_PER_SECOND
    emit("")
    emit(
        f"Figure 8 all-pairs throughput — {matrix.pair_count} pairs over "
        f"{matrix.model_count} models, single worker: "
        f"{matrix.pairs_per_second:.1f} pairs/s "
        f"({speedup:.2f}x the PR-4 baseline of "
        f"{_PR4_PAIRS_PER_SECOND} pairs/s)"
    )
    assert matrix.pairs_per_second >= 1.3 * _PR4_PAIRS_PER_SECOND


def bench_fig8_self_pair_largest(benchmark, corpus):
    """Compose the largest model with itself (the sweep's last point)."""
    largest = corpus[-1]
    benchmark.extra_info["size"] = 2 * largest.network_size()
    engine = Composer()
    benchmark(lambda: engine.compose(largest, largest))


def bench_fig8_scaling_is_product(benchmark, corpus):
    """O(n·m) check: fix one side, scale the other; time should grow
    roughly linearly in the scaled side (product complexity)."""
    import time

    fixed = _pick_by_size(corpus, 100)
    engine = Composer()

    def sweep():
        points = []
        for target in (50, 150, 300, 500):
            other = _pick_by_size(corpus, target)
            started = time.perf_counter()
            engine.compose(fixed, other)
            points.append(
                (other.network_size(), time.perf_counter() - started)
            )
        return points

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    sizes = [p[0] for p in points]
    times = [p[1] for p in points]
    # Largest-vs-smallest time ratio should be at least half the size
    # ratio (linear-in-m with constant overhead absorbed).
    assert times[-1] / times[0] > 0.5 * (sizes[-1] / sizes[0]) ** 0.5

"""Ablation — index structure (paper §3 "subject of future research"
and §5 item 7).

The paper uses hash maps for the Figure 5 lookup and proposes suffix
trees / better indexes as future work, claiming the complexity can
drop toward O(m+n) because "graph nodes can be indexed while being
parsed, and looked up via hash table ... lookup".  This ablation swaps
the index strategy (hash / sorted / linear) and measures composition
time as models grow — the linear strategy restores the quadratic
pairwise behaviour, hash keeps per-lookup cost flat.
"""

from __future__ import annotations

import time

import pytest

from repro import compose_all
from repro.core.options import ComposeOptions
from benchmarks._common import emit, write_csv


def _models_around(corpus, target):
    return min(corpus, key=lambda m: abs(m.network_size() - target))


@pytest.mark.parametrize("index", ["hash", "sorted", "linear"])
def bench_index_strategy_medium_pair(benchmark, corpus, index):
    """Compose a ~150-size pair under each index strategy."""
    first = _models_around(corpus, 150)
    second = _models_around([m for m in corpus if m is not first], 150)
    options = ComposeOptions(index=index)
    benchmark(lambda: compose_all([first, second], options=options).pair())


def bench_index_scaling(benchmark, corpus):
    """Compose time vs size under each strategy.

    Finding (recorded in EXPERIMENTS.md): at BioModels scale the index
    choice barely moves end-to-end composition time — the Figure 5
    lookup is not the bottleneck; math-pattern construction is.  The
    table is printed as evidence; the structural lookup gap itself is
    asserted by :func:`bench_index_structures_direct`.
    """

    def sweep():
        rows = []
        for target in (20, 100, 250, 500):
            model = _models_around(corpus, target)
            for index in ("hash", "sorted", "linear"):
                options = ComposeOptions(index=index)
                started = time.perf_counter()
                compose_all([model, model], options=options).pair()
                rows.append(
                    (model.network_size(), index,
                     time.perf_counter() - started)
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_csv(
        "ablation_index.csv",
        ["size", "index", "seconds"],
        [(size, index, f"{s:.6f}") for size, index, s in rows],
    )
    emit("")
    emit("Index ablation — compose(m, m) time by strategy")
    emit(f"{'size':>6} {'hash ms':>9} {'sorted ms':>10} {'linear ms':>10}")
    by_size = {}
    for size, index, seconds in rows:
        by_size.setdefault(size, {})[index] = seconds * 1000
    for size in sorted(by_size):
        entry = by_size[size]
        emit(
            f"{size:>6} {entry['hash']:>9.2f} {entry['sorted']:>10.2f} "
            f"{entry['linear']:>10.2f}"
        )
    # All strategies must at least complete across the size range.
    assert len(by_size) == 4


def bench_index_structures_direct(benchmark):
    """Direct add+find workload on the three index structures —
    the §5 item 7 complexity claim in isolation.

    With k components the linear scan does O(k) work per probe
    (O(k²) total) while the hash map stays O(1) per probe; the gap
    must be an order of magnitude at k = 5000.
    """
    from repro.core.index import make_index

    def workload(strategy: str, k: int) -> float:
        index = make_index(strategy)
        started = time.perf_counter()
        for i in range(k):
            index.add([f"id:c{i}", f"name:n{i}"], i)
        hits = 0
        for i in range(k):
            if index.find([f"id:c{i}"]) is not None:
                hits += 1
        elapsed = time.perf_counter() - started
        assert hits == k
        return elapsed

    def sweep():
        return {
            strategy: workload(strategy, 5000)
            for strategy in ("hash", "sorted", "linear")
        }

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Index structures, 5000 add+find: "
        + ", ".join(
            f"{strategy} {seconds * 1000:.1f} ms"
            for strategy, seconds in table.items()
        )
    )
    assert table["linear"] > 10 * table["hash"], (
        "linear scan must be at least 10x slower than the hash map"
    )


def bench_index_lookup_consistency(benchmark, corpus):
    """All three strategies must produce identical compositions."""

    def check():
        first = _models_around(corpus, 120)
        second = _models_around([m for m in corpus if m is not first], 80)
        baselines = None
        for index in ("hash", "sorted", "linear"):
            merged, report = compose_all(
                [first, second], options=ComposeOptions(index=index)
            ).pair()
            fingerprint = (
                sorted(s.id for s in merged.species),
                sorted(r.id for r in merged.reactions),
                len(report.duplicates),
            )
            if baselines is None:
                baselines = fingerprint
            else:
                assert fingerprint == baselines, index
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)

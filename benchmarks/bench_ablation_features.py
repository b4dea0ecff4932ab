"""Ablation — semantics features (paper §5 future-work comparison).

The paper plans to compare heavy semantics (the shipped method),
light semantics and no semantics "to determine how reliant composition
is on semantics".  This ablation runs that comparison today, plus the
baseline's database-reload toggle that isolates the paper's Figure 9
explanation.
"""

from __future__ import annotations

import time

import pytest

from repro import compose_all
from repro.baselines import SemanticSBMLMerge
from repro.core.options import ComposeOptions
from repro.corpus import glycolysis_lower, glycolysis_upper
from benchmarks._common import emit, write_csv


@pytest.mark.parametrize("semantics", ["heavy", "light", "none"])
def bench_semantics_mode_speed(benchmark, corpus, semantics):
    """Compose a mid-size pair under each semantics mode."""
    model = min(corpus, key=lambda m: abs(m.network_size() - 150))
    options = ComposeOptions(semantics=semantics)
    benchmark(lambda: compose_all([model, model], options=options).pair())


def bench_semantics_mode_quality(benchmark, suite):
    """How much duplicate detection each mode achieves on the suite —
    the quality side of the paper's semantics question."""

    def sweep():
        table = {}
        for semantics in ("heavy", "light", "none"):
            options = ComposeOptions(semantics=semantics)
            united = 0
            total_components = 0
            for i in range(len(suite)):
                for j in range(i + 1, len(suite), 4):
                    merged, report = compose_all(
                        [suite[i], suite[j]], options=options
                    ).pair()
                    united += len(report.duplicates)
                    total_components += merged.component_count()
            table[semantics] = (united, total_components)
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit("")
    emit("Semantics ablation — duplicates united / result size")
    for semantics, (united, size) in table.items():
        emit(f"  {semantics:<6} united={united:>4}  total result size={size}")
    write_csv(
        "ablation_semantics.csv",
        ["semantics", "duplicates_united", "result_components"],
        [(s, u, c) for s, (u, c) in table.items()],
    )
    # Heavy semantics unites the most; none unites nothing.
    assert table["heavy"][0] >= table["light"][0] > table["none"][0] == 0
    # More uniting => smaller results.
    assert table["heavy"][1] <= table["light"][1] <= table["none"][1]


def bench_synonyms_matter(benchmark):
    """Synonym tables are what unite differently-named shared species
    (paper §3): without them the glycolysis halves still merge by id,
    but cross-named models don't."""
    from repro import ModelBuilder

    a = (
        ModelBuilder("a").compartment("cell", size=1.0)
        .species("s1", 1.0, name="ATP").build()
    )
    b = (
        ModelBuilder("b").compartment("cell", size=1.0)
        .species("s2", 1.0, name="adenosine triphosphate").build()
    )

    def both():
        heavy, _ = compose_all(
            [a, b], options=ComposeOptions(semantics="heavy")
        ).pair()
        light, _ = compose_all(
            [a, b], options=ComposeOptions(semantics="light")
        ).pair()
        return len(heavy.species), len(light.species)

    heavy_count, light_count = benchmark(both)
    assert heavy_count == 1  # synonyms unite
    assert light_count == 2  # exact names don't


def bench_math_pattern_cache(benchmark):
    """Math-pattern equality is what unites reordered kinetic laws;
    with it off, structurally-same reactions conflict instead."""
    from repro import ModelBuilder

    def build(rid, formula):
        return (
            ModelBuilder(rid).compartment("cell", size=1.0)
            .species("A", 1.0).species("B", 1.0)
            .parameter("k", 0.4)
            .reaction("r_" + rid, ["A", "B"], [], formula=formula)
            .build()
        )

    a = build("a", "k * A * B")
    b = build("b", "B * k * A")

    def both():
        with_patterns, report_on = compose_all(
            [a, b], options=ComposeOptions(use_math_patterns=True)
        ).pair()
        without, report_off = compose_all(
            [a, b],
            options=ComposeOptions(
                use_math_patterns=False, convert_units=False
            ),
        ).pair()
        return report_on.has_conflicts(), report_off.has_conflicts()

    conflicts_on, conflicts_off = benchmark(both)
    assert not conflicts_on
    assert conflicts_off


def bench_baseline_db_reload_toggle(benchmark, suite):
    """Isolates the paper's Figure 9 explanation: with the database
    load cached, the baseline's remaining cost collapses."""

    def sweep():
        reload_engine = SemanticSBMLMerge(reload_database=True)
        cached_engine = SemanticSBMLMerge(reload_database=False)
        cached_engine.merge(suite[0], suite[1])  # warm the cache

        started = time.perf_counter()
        reload_engine.merge(suite[0], suite[1])
        with_reload = time.perf_counter() - started

        started = time.perf_counter()
        cached_engine.merge(suite[0], suite[1])
        without_reload = time.perf_counter() - started
        return with_reload, without_reload

    with_reload, without_reload = benchmark.pedantic(
        sweep, rounds=3, iterations=1
    )
    emit(
        f"baseline merge: {with_reload * 1000:.0f} ms with per-run DB "
        f"load, {without_reload * 1000:.1f} ms with cached DB"
    )
    assert with_reload > 5 * without_reload


def bench_glycolysis_merge(benchmark):
    """End-to-end curated merge as a stable macro-benchmark."""
    upper = glycolysis_upper()
    lower = glycolysis_lower()
    benchmark(lambda: compose_all([upper, lower]).pair())


def bench_pattern_memoization(benchmark, corpus):
    """Ablation for §5 items 6-7: does memoising Figure 7 patterns
    pay?  Every ``Composer`` caches patterns, so the comparison is one
    shared ``Composer`` (its cache warm after the first merges)
    against a new ``Composer`` per merge (a cold cache every time).
    The benchmark records both times and asserts they are within 2x
    of each other (a cold cache is at least not catastrophic) and
    that results agree."""
    from repro import Composer
    from repro.eval import models_equivalent

    models = [m for m in corpus if 100 <= m.network_size() <= 300][:6]
    pairs = [(a, b) for a in models for b in models]

    def sweep():
        # An untimed pass first: math nodes cache their digests and
        # identifier sets on first use, which would otherwise be
        # charged to whichever side runs first.
        for a, b in pairs:
            Composer().compose(a, b)
        shared = Composer()
        started = time.perf_counter()
        warm = [shared.compose(a, b)[0] for a, b in pairs]
        warm_seconds = time.perf_counter() - started
        started = time.perf_counter()
        cold = [Composer().compose(a, b)[0] for a, b in pairs]
        cold_seconds = time.perf_counter() - started
        for first, second in zip(warm, cold):
            assert models_equivalent(first, second)
        return warm_seconds, cold_seconds

    warm_seconds, cold_seconds = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    emit(
        f"pattern memoisation: warm shared cache={warm_seconds * 1000:.0f} "
        f"ms, cold cache per merge={cold_seconds * 1000:.0f} ms over "
        f"{len(pairs)} mid-size merges"
    )
    ratio = warm_seconds / cold_seconds
    assert 0.5 < ratio < 2.0

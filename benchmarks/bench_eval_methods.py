"""§4.1 evaluation methodologies as experiments.

The paper validates composed models four ways; each becomes a
benchmarked check here, run against the composition engine on the
curated and suite models:

* §4.1.1 — textual/structural comparison: composed == expected,
* §4.1.2 — simulation comparison,
* §4.1.3 — residual sum of squares ≈ 0 for identical species,
* §4.1.4 — Monte Carlo model checking of PLTL properties.
"""

from __future__ import annotations

import pytest

from repro import compose_all
from repro.corpus import (
    gene_expression,
    glycolysis_lower,
    glycolysis_upper,
    semantic_suite,
)
from repro.eval import (
    MonteCarloModelChecker,
    compare_simulations,
    models_equivalent,
    residual_sum_of_squares,
    traces_equivalent,
)
from repro.sim import simulate
from benchmarks._common import emit


def bench_411_textual_comparison(benchmark, suite):
    """§4.1.1: self-composition must be structurally identical to the
    original for every suite model."""

    def check():
        failures = []
        for model in suite:
            merged, _ = compose_all([model, model.copy()]).pair()
            merged.id = model.id
            if not models_equivalent(model, merged):
                failures.append(model.id)
        return failures

    failures = benchmark(check)
    assert failures == []


def bench_412_simulation_comparison(benchmark):
    """§4.1.2: the composed glycolysis halves simulate like the
    original halves on their own species."""

    def check():
        merged, _ = compose_all(
            [glycolysis_upper(), glycolysis_lower()]
        ).pair()
        comparison = compare_simulations(
            glycolysis_upper(),
            merged,
            t_end=1.0,
            steps=200,
            species=["glc", "g6p", "f6p"],
        )
        return comparison

    comparison = benchmark.pedantic(check, rounds=1, iterations=1)
    emit("§4.1.2 simulation comparison (upper glycolysis vs composed):")
    emit(comparison.report())
    # The lower half consumes g3p, changing flux through the upper
    # half is expected — but glucose input kinetics stay identical at
    # early times.
    entry = [e for e in comparison.species if e.species == "glc"][0]
    assert entry.max_relative_difference < 0.05


def bench_413_rss(benchmark, suite):
    """§4.1.3: RSS between identical species of original vs composed
    model is close to 0."""

    def check():
        worst = 0.0
        for model in suite[:6]:
            if not model.reactions:
                continue
            merged, _ = compose_all([model, model.copy()]).pair()
            original_trace = simulate(model, 5.0, 200)
            merged_trace = simulate(merged, 5.0, 200)
            rss = residual_sum_of_squares(original_trace, merged_trace)
            worst = max(worst, max(rss.values()))
            assert traces_equivalent(original_trace, merged_trace)
        return worst

    worst = benchmark.pedantic(check, rounds=1, iterations=1)
    emit(f"§4.1.3 worst per-species RSS over suite self-compositions: "
         f"{worst:.3g}")
    assert worst < 1e-9


def bench_414_model_checking(benchmark):
    """§4.1.4: MC2-style PLTL properties hold with equal probability
    on the original and the composed model."""

    def check():
        model = gene_expression()
        merged, _ = compose_all([model, model.copy()]).pair()
        original = MonteCarloModelChecker(model, runs=30, t_end=10.0, seed=3)
        composed = MonteCarloModelChecker(merged, runs=30, t_end=10.0, seed=3)
        properties = [
            "F (protein > 20)",
            "G (mrna < 30)",
            "(protein < 5) U (mrna > 0)",
        ]
        return original.compare(composed, properties)

    table = benchmark.pedantic(check, rounds=1, iterations=1)
    emit("§4.1.4 PLTL property probabilities, original vs composed:")
    for text, row in table.items():
        emit(f"  P[{text}] = {row['this']:.2f} vs {row['other']:.2f}")
    for text, row in table.items():
        assert row["this"] == row["other"], text

"""Unit tests for the pattern cache (future-work items 6-7)."""

import pytest

from repro import Composer, ModelBuilder, compose_all
from repro.core.pattern_cache import PatternCache
from repro.mathml import canonical_pattern, parse_infix


class TestPatternCache:
    def test_pattern_matches_uncached(self):
        cache = PatternCache()
        math = parse_infix("k1 * A * B")
        assert cache.pattern(math, {}) == canonical_pattern(math)

    def test_mapping_restriction_applied(self):
        cache = PatternCache()
        math = parse_infix("k * A2")
        mapping = {"A2": "A1", "unrelated": "other"}
        assert cache.pattern(math, mapping) == canonical_pattern(
            math, {"A2": "A1"}
        )

    def test_irrelevant_mapping_entries_share_cache_slot(self):
        cache = PatternCache()
        math = parse_infix("k * A")
        cache.pattern(math, {})
        # A mapping that doesn't touch {k, A} must hit the same entry.
        cache.pattern(math, {"zzz": "yyy"})
        assert cache.hits == 1
        assert cache.misses == 1

    def test_relevant_mapping_entries_miss(self):
        cache = PatternCache()
        math = parse_infix("k * A")
        cache.pattern(math, {})
        cache.pattern(math, {"A": "B"})
        assert cache.misses == 2

    def test_function_calls_count_as_identifiers(self):
        cache = PatternCache()
        math = parse_infix("f(x)")
        plain = cache.pattern(math, {})
        mapped = cache.pattern(math, {"f": "g"})
        assert plain != mapped
        assert mapped == canonical_pattern(math, {"f": "g"})

    def test_law_comparison_math_cached(self):
        cache = PatternCache()
        math = parse_infix("k_loc * A")
        first = cache.law_comparison_math(math, (("k_loc", 2.0),))
        second = cache.law_comparison_math(math, (("k_loc", 2.0),))
        assert first is second  # same object: cache hit
        assert first == parse_infix("2 * A")

    def test_law_comparison_math_distinct_values(self):
        cache = PatternCache()
        math = parse_infix("k_loc * A")
        a = cache.law_comparison_math(math, (("k_loc", 2.0),))
        b = cache.law_comparison_math(math, (("k_loc", 3.0),))
        assert a != b

    def test_stats_readable(self):
        cache = PatternCache()
        cache.pattern(parse_infix("x"), {})
        assert "hits" in cache.stats()


def _pair():
    a = (
        ModelBuilder("a").compartment("cell", size=1.0)
        .species("A", 1.0).species("B", 0.0)
        .reaction("r1", ["A"], ["B"], formula="k*A",
                  local_parameters={"k": 0.5})
        .build()
    )
    b = (
        ModelBuilder("b").compartment("cell", size=1.0)
        .species("B", 0.0).species("C", 0.0)
        .reaction("r2", ["B"], ["C"], formula="k*B",
                  local_parameters={"k": 0.25})
        .build()
    )
    return a, b


class TestMemoizedComposition:
    def test_shared_composer_reuses_cache_across_runs(self):
        a, b = _pair()
        composer = Composer()
        composer.compose(a, b)
        misses_first = composer._cache.misses
        composer.compose(a, b)
        # Second run re-patterns nothing new.
        assert composer._cache.misses == misses_first

    def test_cache_respects_growing_mapping(self):
        # Two models whose species unite under different ids: the
        # cached pattern must follow the mapping, not go stale.
        a = (
            ModelBuilder("a").compartment("cell", size=1.0)
            .species("atp", 1.0, name="ATP")
            .parameter("k", 1.0)
            .reaction("r1", ["atp"], [], formula="k * atp")
            .build()
        )
        b = (
            ModelBuilder("b").compartment("cell", size=1.0)
            .species("s9", 1.0, name="adenosine triphosphate")
            .parameter("k", 1.0)
            .reaction("r2", ["s9"], [], formula="k * s9")
            .build()
        )
        merged, report = compose_all([a, b]).pair()
        # s9 united with atp, and r2's law (over s9) matched r1's law
        # (over atp) through the mapping.
        assert len(merged.reactions) == 1
        assert report.mappings.get("r2") == "r1"

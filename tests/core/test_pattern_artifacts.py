"""Sweep-level pattern artifacts and artifact-store eviction.

Covers the tentpole seeding path — per-model canonical pattern tables
computed once, stored by content digest, and seeded into each
composition's :class:`~repro.core.pattern_cache.PatternCache` — plus
the store's LRU eviction policy.
"""

import os
import time

import pytest

from repro import ModelBuilder, match_all
from repro.core.artifact_store import (
    ArtifactStore,
    CorpusManifest,
    compute_artifacts,
    model_digest,
)
from repro.core.match_all import _PairEngine
from repro.core.pattern_cache import PatternCache, model_pattern_table
from repro.core.session import stable_labels
from repro.mathml import canonical_pattern, parse_infix


def _model(model_id="m", formula="k * A", k=0.5):
    return (
        ModelBuilder(model_id)
        .compartment("cell", size=1.0)
        .species("A", 1.0)
        .species("B", 0.0)
        .reaction("r1", ["A"], ["B"], formula=formula,
                  local_parameters={"k": k})
        .build()
    )


class TestModelPatternTable:
    def test_covers_model_math(self):
        model = _model()
        table = model_pattern_table(model)
        law = model.reactions[0].kinetic_law.math
        assert table[law.digest()] == canonical_pattern(law)

    def test_covers_law_comparison_form(self):
        # Reaction equality probes the locals-substituted law, not the
        # raw one; the table must cover that form too.
        model = _model()
        table = model_pattern_table(model)
        substituted = parse_infix("0.5 * A")
        assert table[substituted.digest()] == canonical_pattern(substituted)

    def test_pure_function_of_model(self):
        assert model_pattern_table(_model()) == model_pattern_table(_model())


class TestSeededPatternCache:
    def test_seeded_probe_is_a_hit(self):
        model = _model()
        law = model.reactions[0].kinetic_law.math

        unseeded = PatternCache()
        unseeded.pattern(law, {})
        assert unseeded.hits == 0 and unseeded.misses == 1

        seeded = PatternCache()
        seeded.seed(model_pattern_table(model))
        result = seeded.pattern(law, {})
        # Strictly more hits than the unseeded cache for the same
        # probe sequence — the satellite's invariant.
        assert seeded.hits == 1 and seeded.misses == 0
        assert seeded.hits > unseeded.hits
        assert result == canonical_pattern(law)

    def test_seeding_is_idempotent_and_lossless(self):
        table = model_pattern_table(_model())
        cache = PatternCache()
        first = cache.seed(table)
        second = cache.seed(table)
        assert first == len(table)
        assert second == 0
        assert cache.seeded == len(table)

    def test_structurally_equal_copies_share_entries(self):
        # Digest keys: a model copy's math (same objects or not) hits
        # the same entries — no per-object duplication.
        model = _model()
        clone = _model()
        cache = PatternCache()
        cache.pattern(model.reactions[0].kinetic_law.math, {})
        cache.pattern(clone.reactions[0].kinetic_law.math, {})
        assert cache.hits == 1 and cache.misses == 1

    def test_mapping_restriction_still_respected(self):
        model = _model()
        law = model.reactions[0].kinetic_law.math
        cache = PatternCache()
        cache.seed(model_pattern_table(model))
        mapped = cache.pattern(law, {"A": "glc"})
        assert mapped == canonical_pattern(law, {"A": "glc"})
        assert mapped != cache.pattern(law, {})


def _manifest_engine(models, store_root):
    """The engine remote workers run: every model and its pattern
    table come out of the store behind a manifest."""
    manifest = CorpusManifest.build(
        models, stable_labels(models), ArtifactStore(store_root)
    )
    return _PairEngine(None, store_root=str(store_root), manifest=manifest)


class TestSweepSeeding:
    def test_pair_engine_seeds_from_artifacts(self, tmp_path):
        # A manifest engine seeds its cache from the stored pattern
        # tables.
        models = [
            _model("a"),
            _model("b", k=0.25),
        ]
        engine = _manifest_engine(models, tmp_path / "artifacts")
        for i, j in [(0, 0), (0, 1), (1, 1)]:
            engine.run_pair(i, j)
        assert engine.pattern_cache.seeded > 0
        # The sweep's empty-restriction probes land on seeded entries:
        # strictly more hits than a cold, unseeded cache would see.
        assert engine.pattern_cache.hits > 0

    def test_storeless_engine_computes_patterns_on_first_probe(self):
        # Without a store nothing is tabulated up front: each pattern
        # is computed when a pair first probes it, then reused.
        models = [_model("a"), _model("b", k=0.25)]
        engine = _PairEngine(None, models, stable_labels(models))
        for i, j in [(0, 0), (0, 1), (1, 1)]:
            engine.run_pair(i, j)
        cache = engine.pattern_cache
        assert cache.seeded == 0
        assert cache.misses > 0 and cache.hits > 0
        # Every entry was computed by a probe: the locals-substituted
        # law the reaction comparison probes is there, the raw law no
        # pair compares is not.
        assert len(cache._patterns) == cache.misses
        raw = models[0].reactions[0].kinetic_law.math
        assert (parse_infix("0.5 * A").digest(), ()) in cache._patterns
        assert (raw.digest(), ()) not in cache._patterns

    def test_artifacts_carry_patterns_through_store(self, tmp_path):
        model = _model()
        store = ArtifactStore(tmp_path / "artifacts")
        digest = model_digest(model)
        store.put(digest, compute_artifacts(model))
        rehydrated = store.get(digest)
        assert rehydrated is not None
        assert rehydrated.patterns == model_pattern_table(model)

    def test_seeding_changes_no_outcome(self, tmp_path):
        models = [_model("a"), _model("b", k=0.25), _model("c", k=0.1)]
        engine = _manifest_engine(models, tmp_path / "artifacts")
        plain = match_all(models)
        seeded = [engine.run_pair(o.i, o.j) for o in plain.outcomes]
        assert engine.pattern_cache.seeded > 0
        assert [o.key() for o in seeded] == [
            o.key() for o in plain.outcomes
        ]


class TestPerObjectCacheDiscipline:
    """The reaction-signature / species-key caches live on component
    objects and are only valid while those objects are unmutated.
    Ephemeral (sweep) merges uphold that; session merges adopt owned
    intermediates *in place*, so they must never write the caches —
    a stale entry would make tree plans diverge from the fold."""

    def _chain(self):
        return [
            _model("a"),
            _model("b", k=0.25),
            _model("c", k=0.1),
            _model("d", k=0.05),
        ]

    def test_session_merges_leave_no_component_caches(self):
        from repro import compose_all

        models = self._chain()
        for plan in ("fold", "tree", "greedy"):
            compose_all(models, plan=plan)
        for model in models:
            for species in model.species:
                assert "_keys_cache" not in species.__dict__
            for reaction in model.reactions:
                assert "_unmapped_signature" not in reaction.__dict__

    def test_sweep_caches_on_inputs_and_stays_correct_when_warm(self):
        models = self._chain()
        cold = match_all(models)
        # The sweep cached signatures/keys on the (unmutated) inputs...
        assert any(
            "_unmapped_signature" in r.__dict__
            for m in models for r in m.reactions
        )
        # ...and a warm rerun — and an interleaved session run over
        # the same objects — must not change a single outcome.
        from repro import compose_all

        compose_all(models, plan="tree")
        warm = match_all(models)
        assert [o.key() for o in warm.outcomes] == [
            o.key() for o in cold.outcomes
        ]

    def test_patternless_sweep_skips_pattern_tables(self):
        # With use_math_patterns off, math_key never consults the
        # cache, so the engine must not pay for per-model pattern
        # tables (no store attached — nothing to share them with).
        from repro.core.options import ComposeOptions

        models = self._chain()
        engine = _PairEngine(
            ComposeOptions(use_math_patterns=False),
            models,
            stable_labels(models),
        )
        engine.run_pair(0, 1)
        engine.run_pair(2, 3)
        assert engine.pattern_cache.seeded == 0


class TestEventRuleKeyCaches:
    """Events and rules get the same per-object key caches reactions
    and species have: populated by ephemeral (sweep) merges only,
    valid because the cached key is a pure function of
    ``(component, options)`` while the mapping table is empty, and
    absent from every ``copy()`` (constructor-built duplicates start
    clean)."""

    def _event_model(self, model_id="m", threshold="1", reset="0"):
        return (
            ModelBuilder(model_id)
            .compartment("cell", size=1.0)
            .species("A", 1.0)
            .species("B", 0.0)
            .parameter(f"{model_id}_p", 1.0, constant=False)
            .assignment_rule(f"{model_id}_p", "2 * A")
            .event(f"{model_id}_e", f"A > {threshold}", {"B": reset})
            .reaction(f"{model_id}_r", ["A"], ["B"], formula="k * A",
                      local_parameters={"k": 0.5})
            .build()
        )

    def test_sweep_caches_event_and_rule_keys_on_inputs(self):
        models = [self._event_model("a"), self._event_model("b", "2")]
        cold = match_all(models)
        assert any(
            "_event_key_cache" in event.__dict__
            for model in models for event in model.events
        )
        assert any(
            "_rule_keys_cache" in rule.__dict__
            for model in models for rule in model.rules
        )
        warm = match_all(models)
        assert [o.key() for o in warm.outcomes] == [
            o.key() for o in cold.outcomes
        ]

    def test_cached_keys_are_reused_not_recomputed(self):
        from repro.core.options import ComposeOptions

        # The caches are tagged by options *identity* (like species
        # keys and reaction signatures), so reuse needs one options
        # object across sweeps — exactly how a sharded run or a
        # repeated engine drives them.
        options = ComposeOptions()
        models = [self._event_model("a"), self._event_model("b", "2")]
        match_all(models, options)
        event = models[0].events[0]
        rule = models[0].rules[0]
        tag, event_key = event.__dict__["_event_key_cache"]
        assert tag is options
        _, rule_keys = rule.__dict__["_rule_keys_cache"]
        # A second sweep serves the very same cached objects (identity,
        # not just equality — the cache-hit path returns the entry).
        match_all(models, options)
        assert event.__dict__["_event_key_cache"][1] is event_key
        assert rule.__dict__["_rule_keys_cache"][1] is rule_keys

    def test_session_merges_leave_no_event_rule_caches(self):
        from repro import compose_all

        models = [self._event_model("a"), self._event_model("b", "2")]
        for plan in ("fold", "tree", "greedy"):
            compose_all(models, plan=plan)
        for model in models:
            for event in model.events:
                assert "_event_key_cache" not in event.__dict__
            for rule in model.rules:
                assert "_rule_keys_cache" not in rule.__dict__

    def test_copy_drops_event_and_rule_caches(self):
        models = [self._event_model("a"), self._event_model("b", "2")]
        match_all(models)
        event = models[0].events[0]
        rule = models[0].rules[0]
        assert "_event_key_cache" in event.__dict__
        assert "_rule_keys_cache" in rule.__dict__
        assert "_event_key_cache" not in event.copy().__dict__
        assert "_rule_keys_cache" not in rule.copy().__dict__
        model_copy = models[0].copy()
        assert all(
            "_event_key_cache" not in e.__dict__ for e in model_copy.events
        )
        assert all(
            "_rule_keys_cache" not in r.__dict__ for r in model_copy.rules
        )

    def test_negative_zero_trigger_keys_never_collide(self):
        """Under structural math (``use_math_patterns=False``) event
        keys are digest-based, and the digest layer deliberately keeps
        ``-0.0``/``0.0`` apart — so the *cached* keys of two triggers
        differing only in the zero's sign must differ exactly like
        uncached ones, and the sweep must agree with the cache-free
        pairwise engine."""
        from repro import Composer
        from repro.core.options import ComposeOptions
        from repro.mathml.ast import Apply, Identifier, Number

        zero = self._event_model("z", threshold="0.0")
        negative = self._event_model("z2", threshold="0.0")
        negative.events[0].trigger.math = Apply(
            "gt", [Identifier("A"), Number(-0.0)]
        )
        options = ComposeOptions(use_math_patterns=False)
        matrix = match_all([zero, negative], options)
        zero_key = zero.events[0].__dict__["_event_key_cache"][1]
        negative_key = negative.events[0].__dict__["_event_key_cache"][1]
        assert zero_key != negative_key
        # Differential: the non-ephemeral engine (which never touches
        # per-object caches) reaches the same outcome for the pair.
        _, report = Composer(options).compose(zero, negative)
        cross = next(o for o in matrix.outcomes if o.i == 0 and o.j == 1)
        assert cross.united == len(report.duplicates)


class TestEviction:
    def _populate(self, store, count):
        digests = []
        for index in range(count):
            model = _model(f"m{index}", k=0.1 * (index + 1))
            digest = model_digest(model)
            store.put(digest, compute_artifacts(model))
            digests.append(digest)
        return digests

    def test_noop_without_limits(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._populate(store, 3)
        assert store.evict() == 0
        assert len(store) == 3

    def test_max_entries_drops_oldest(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digests = self._populate(store, 4)
        now = time.time()
        for age, digest in zip((400, 300, 200, 100), digests):
            os.utime(store.path_for(digest), (now - age, now - age))
        assert store.evict(max_entries=2) == 2
        assert digests[0] not in store and digests[1] not in store
        assert digests[2] in store and digests[3] in store

    def test_max_age_drops_expired(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digests = self._populate(store, 3)
        stale = time.time() - 10_000
        os.utime(store.path_for(digests[0]), (stale, stale))
        assert store.evict(max_age=3600) == 1
        assert digests[0] not in store
        assert len(store) == 2

    def test_get_refreshes_recency(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digests = self._populate(store, 2)
        old = time.time() - 5_000
        for digest in digests:
            os.utime(store.path_for(digest), (old, old))
        # A read makes the first entry "recently used" again...
        assert store.get(digests[0]) is not None
        # ...so the LRU cut falls on the other one.
        assert store.evict(max_entries=1) == 1
        assert digests[0] in store
        assert digests[1] not in store

    def test_evicted_entry_regenerates_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        model = _model()
        digest = model_digest(model)
        store.put(digest, compute_artifacts(model))
        store.evict(max_entries=0)
        assert digest not in store
        artifacts = store.get_or_compute(model, digest)
        assert artifacts.patterns == model_pattern_table(model)
        assert digest in store

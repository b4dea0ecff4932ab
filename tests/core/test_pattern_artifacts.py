"""Sweep-level pattern caching and artifact-store eviction.

Covers the sweep engine's digest-keyed
:class:`~repro.core.pattern_cache.PatternCache` — each expression's
pattern computed on first probe and shared by every later pair — the
per-object key caches sweeps keep on their inputs, and the store's LRU
eviction policy.
"""

import os
import time

import pytest

from repro import ModelBuilder, match_all
from repro.core.artifact_store import (
    ArtifactStore,
    compute_artifacts,
    model_digest,
)
from repro.core.match_all import _PairEngine
from repro.core.pattern_cache import PatternCache
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


class TestSeededPatternCache:
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
        unmapped = cache.pattern(law, {})
        mapped = cache.pattern(law, {"A": "glc"})
        assert mapped == canonical_pattern(law, {"A": "glc"})
        assert mapped != unmapped
        assert cache.pattern(law, {}) == unmapped


class TestSweepSeeding:
    def test_storeless_engine_computes_patterns_on_first_probe(self):
        # Nothing is tabulated up front: each pattern is computed when
        # a pair first probes it, then reused.
        models = [_model("a"), _model("b", k=0.25)]
        engine = _PairEngine(None, models, stable_labels(models))
        for i, j in [(0, 0), (0, 1), (1, 1)]:
            engine.run_pair(i, j)
        cache = engine.pattern_cache
        assert cache.misses > 0 and cache.hits > 0
        # Every entry was computed by a probe: the locals-substituted
        # law the reaction comparison probes is there, the raw law no
        # pair compares is not.
        assert len(cache._patterns) == cache.misses
        raw = models[0].reactions[0].kinetic_law.math
        assert (parse_infix("0.5 * A").digest(), ()) in cache._patterns
        assert (raw.digest(), ()) not in cache._patterns


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
        # cache, so the engine computes no pattern at all.
        from repro.core.options import ComposeOptions

        models = self._chain()
        engine = _PairEngine(
            ComposeOptions(use_math_patterns=False),
            models,
            stable_labels(models),
        )
        engine.run_pair(0, 1)
        engine.run_pair(2, 3)
        assert engine.pattern_cache.misses == 0
        assert not engine.pattern_cache._patterns


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
        assert artifacts.used_ids == compute_artifacts(model).used_ids
        assert artifacts.signature is not None
        assert digest in store

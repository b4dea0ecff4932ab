"""Per-model structural signatures and the vectorized prescreen.

Byte-identity of the prescreened sweep lives in the conformance
matrix (the eighth path); this file pins the signature layer itself —
vector layout, the prune rule's kernel and gates against the per-pair
oracle in ``reference_query.py``, the survivor algebra, and
prescreens over stored or handed signatures.
"""

import numpy as np
import pytest
from reference_query import (
    OPTION_SETS,
    congruence,
    gated_corpus,
    query_scores,
    query_survivors,
    query_tables,
)

from repro import ComposeOptions, ModelBuilder
from repro.core.artifact_store import ArtifactStore
from repro.core.match_all import match_all
from repro.core.options import SEMANTICS_NONE
from repro.core.signature import (
    COUNTS_LENGTH,
    ModelSignature,
    Prescreen,
    gate,
    key_hash,
    pair_counts,
    source_run,
)
from repro.corpus import generate_corpus
from repro.sbml import Model


def _model(model_id="m", species=("A", "B"), value=0.5):
    builder = ModelBuilder(model_id).compartment("cell", size=1.0)
    for name in species:
        builder = builder.species(name, 1.0)
    builder = builder.parameter("k", value)
    builder = builder.mass_action(
        f"r_{model_id}", [species[0]], [species[-1]], "k"
    )
    return builder.build()


def _classify(target, source):
    """``(shared, blocked, united)`` of one pair through the row
    kernel and the twin gate, checked against the per-pair oracle."""
    counts = pair_counts(target, source_run([source], [0]), 1)
    blocked, united, _ = gate(
        counts,
        match_anything=True,
        target_count=target.component_count,
        source_counts=np.array([source.component_count]),
        source_clean=np.array([source.self_clean]),
    )
    row = (int(counts[0][0]), bool(blocked[0]), int(united[0]))
    assert row == congruence(target, source)
    return row


class TestModelSignature:
    def test_vector_layout(self):
        signature = ModelSignature.build(_model())
        assert signature.counts.shape == (COUNTS_LENGTH,)
        assert signature.key_hashes.dtype == np.uint64
        hashes = signature.key_hashes
        assert np.array_equal(hashes, np.sort(hashes))
        assert len(np.unique(hashes)) == len(hashes)
        # Fingerprint and primary vectors are aligned with key_hashes.
        assert signature.key_fingerprints.shape == hashes.shape
        assert signature.key_primary.shape == hashes.shape
        assert signature.component_count > 0
        assert signature.self_clean

    def test_copy_shares_signature_content(self):
        model = _model()
        first = ModelSignature.build(model)
        second = ModelSignature.build(model.copy())
        assert np.array_equal(first.key_hashes, second.key_hashes)
        assert np.array_equal(
            first.key_fingerprints, second.key_fingerprints
        )
        assert np.array_equal(first.counts, second.counts)

    def test_matches_is_an_options_gate(self):
        signature = ModelSignature.build(_model(), ComposeOptions())
        assert signature.matches(ComposeOptions())
        assert not signature.matches(
            ComposeOptions(semantics=SEMANTICS_NONE)
        )

    def test_self_congruence_is_never_blocked(self):
        signature = ModelSignature.build(_model())
        shared, blocked, united = _classify(signature, signature)
        assert shared == len(signature.key_hashes)
        assert not blocked
        # Every component unites exactly once with its own twin.
        assert united == signature.component_count

    def test_shared_twins_unite_disjoint_rest_adds(self):
        left = ModelSignature.build(_model("a", species=("A", "B")))
        right = ModelSignature.build(_model("b", species=("X", "Y")))
        shared, blocked, united = _classify(left, right)
        # "cell" and "k" are identical twins; everything else is
        # disjoint — the canonical prunable pair.
        assert shared > 0
        assert not blocked
        assert united == 2

    def test_conflicting_value_blocks(self):
        left = ModelSignature.build(_model("a", species=("A", "B")))
        right = ModelSignature.build(
            _model("b", species=("X", "Y"), value=0.9)
        )
        shared, blocked, united = _classify(left, right)
        # Same parameter id "k", different value: the full matcher
        # would report a conflict, so the twin gate must block.
        assert shared > 0
        assert blocked
        assert united == 0

    def test_value_twins_are_congruent(self):
        left = ModelSignature.build(_model("a"))
        right = ModelSignature.build(_model("a"))
        shared, blocked, united = _classify(left, right)
        assert not blocked and united == left.component_count
        different = ModelSignature.build(_model("a", value=0.7))
        _, blocked, _ = _classify(left, different)
        assert blocked  # same parameter id, different value

    def test_empty_model_signature(self):
        signature = ModelSignature.build(Model(id="empty"))
        assert signature.component_count == 0
        assert len(signature.key_hashes) == 0

    def test_key_hash_is_tag_scoped(self):
        assert key_hash("ids", "A") != key_hash("species", "A")
        assert key_hash("ids", "A") == key_hash("ids", "A")


class TestPrescreen:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(count=8, seed=7)

    def test_matrix_shapes_and_diagonal(self, corpus):
        screen = Prescreen.build(corpus)
        n = len(corpus)
        assert len(screen) == n
        for matrix in (
            screen.pair_blocked,
            screen.pair_united,
            screen.survivors(),
        ):
            assert matrix.shape == (n, n)
        assert np.array_equal(screen.pair_blocked, screen.pair_blocked.T)
        # Shared-key counts, from the pairwise reference: each model
        # shares every one of its own keys, and sharing is symmetric.
        scores = np.array(
            [query_scores(screen, signature) for signature in screen.signatures]
        )
        for i, signature in enumerate(screen.signatures):
            assert scores[i, i] == len(signature.key_hashes)
        assert np.array_equal(scores, scores.T)

    def test_survivor_algebra(self, corpus):
        screen = Prescreen.build(corpus)
        survivors = screen.survivors()
        # A blocked pair always survives; an empty side never does.
        assert not survivors[np.array(screen.component_counts) == 0].any()
        blocked_nonempty = (
            screen.pair_blocked
            & (screen.component_counts[:, None] != 0)
            & (screen.component_counts[None, :] != 0)
        )
        assert (survivors | ~blocked_nonempty).all()
        rate = 1.0 - survivors[np.triu_indices(len(corpus))].mean()
        assert 0.0 <= rate <= 1.0
        # The motivating case: BioModels-like corpora share the "cell"
        # compartment everywhere, yet congruence still prunes.
        assert rate > 0.0

    def test_synthesized_counts_match_full_matcher(self, corpus):
        screen = Prescreen.build(corpus)
        survivors = screen.survivors()
        full = {(o.i, o.j): o for o in match_all(corpus).outcomes}
        checked = 0
        for (i, j), outcome in full.items():
            if survivors[i, j]:
                continue
            checked += 1
            assert screen.synthesized_counts(i, j) == (
                outcome.united,
                outcome.added,
                outcome.renamed,
                outcome.conflicts,
            )
        assert checked > 0

    def test_empty_pair_short_circuits(self):
        screen = Prescreen.build([_model(), Model(id="empty")])
        assert not screen.survivors()[0, 1]
        assert not screen.survivors()[1, 0]
        assert screen.synthesized_counts(0, 1) == (0, 0, 0, 0)

    def test_none_semantics_blocks_every_overlap(self, corpus):
        options = ComposeOptions(semantics=SEMANTICS_NONE)
        screen = Prescreen.build(corpus, options)
        # Twins rename instead of uniting under "none": no synthesized
        # union may ever be claimed, and any overlap must survive.
        assert not screen.pair_united.any()
        overlap = np.array(
            [query_scores(screen, signature) for signature in screen.signatures]
        ) > 0
        np.fill_diagonal(overlap, False)
        assert (screen.pair_blocked | ~overlap).all()

    def test_options_mismatch_rejected(self, corpus):
        signatures = [ModelSignature.build(model) for model in corpus]
        with pytest.raises(ValueError):
            Prescreen(signatures, ComposeOptions(semantics=SEMANTICS_NONE))

    def test_store_assisted_build_reuses_signatures(self, corpus, tmp_path):
        store = ArtifactStore(tmp_path)
        plain = Prescreen.build(corpus)
        for model in corpus:
            store.get_or_compute(model)
        stored = Prescreen(
            [store.get_or_compute(model).signature for model in corpus]
        )
        # Rehydrated signatures come from the store's entries and must
        # carry the exact same vectors.
        for mine, theirs in zip(plain.signatures, stored.signatures):
            assert np.array_equal(mine.key_hashes, theirs.key_hashes)
            assert np.array_equal(
                mine.key_fingerprints, theirs.key_fingerprints
            )
            assert np.array_equal(mine.key_primary, theirs.key_primary)
            assert np.array_equal(mine.counts, theirs.counts)
        assert np.array_equal(plain.survivors(), stored.survivors())

    def test_query_tables_agree_with_pair_matrices(self, corpus):
        """The prescreen's row kernel against the per-pair oracle
        under heavy, light and structural options, on a corpus that
        exercises all three gates: twins (every overlap blocking under
        structural options), a source that is not self-clean, and an
        empty model."""
        for options in OPTION_SETS:
            screen = Prescreen.build(gated_corpus(corpus), options)
            assert not screen.self_clean.all()
            assert (screen.component_counts == 0).any()
            for i, signature in enumerate(screen.signatures):
                _, blocked, united = query_tables(screen, signature)
                assert np.array_equal(blocked, screen.pair_blocked[i])
                assert np.array_equal(united, screen.pair_united[i])
                assert np.array_equal(
                    query_survivors(screen, signature),
                    screen.survivors()[i],
                )

    def test_query_rejects_mismatched_signature(self, corpus):
        screen = Prescreen.build(corpus)
        foreign = ModelSignature.build(
            _model(), ComposeOptions(semantics=SEMANTICS_NONE)
        )
        with pytest.raises(ValueError):
            query_tables(screen, foreign)

    def test_handed_signatures_are_used_when_they_match(self, corpus):
        signatures = [ModelSignature.build(model) for model in corpus]
        handed = Prescreen(signatures)
        for mine, theirs in zip(signatures, handed.signatures):
            assert theirs is mine
        assert np.array_equal(
            Prescreen.build(corpus).survivors(), handed.survivors()
        )
        # Built under other key options, they are refused.
        with pytest.raises(ValueError):
            Prescreen(signatures, ComposeOptions(semantics=SEMANTICS_NONE))

    def test_screened_process_sweep_builds_each_signature_once(
        self, corpus, monkeypatch
    ):
        expected = [o.key() for o in match_all(corpus).outcomes]
        built = []
        original = ModelSignature.build.__func__

        def counting(cls, model, *args, **kwargs):
            built.append(model.id)
            return original(cls, model, *args, **kwargs)

        monkeypatch.setattr(ModelSignature, "build", classmethod(counting))
        matrix = match_all(corpus, workers=2, backend="process", prescreen=True)
        # The prescreen derives each signature once; the workers,
        # which only run the surviving pairs, derive none.
        assert sorted(built) == sorted(model.id for model in corpus)
        assert matrix.pruned > 0
        assert [o.key() for o in matrix.outcomes] == expected

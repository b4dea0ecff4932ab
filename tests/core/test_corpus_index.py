"""The persistent corpus search index.

The index is the on-disk face of the prescreen: segmented,
memory-mapped posting lists over signature key hashes, incremental
add/remove/evict, and a query path whose classifications must agree
with the in-memory :class:`~repro.core.signature.Prescreen` — and,
through it, with the full matcher (pinned byte-for-byte in the
conformance matrix and the CLI tests).  Segment/tail mixing,
tombstones, compaction and crash recovery live in
``test_corpus_segments.py``.
"""

import json
import pickle

import numpy as np
import pytest
from reference_query import (
    OPTION_SETS,
    gated_corpus,
    query_scores,
    query_survivors,
)

from repro import ComposeOptions, ModelBuilder
from repro.core.artifact_store import ArtifactStore, model_digest
from repro.core.corpus_index import CorpusIndex
from repro.core.match_all import match_query
from repro.core.options import SEMANTICS_NONE
from repro.core.signature import (
    ModelSignature,
    Prescreen,
    synthesized_counts,
)
from repro.corpus import generate_corpus


def _model(model_id="m", species=("A", "B"), value=0.5):
    builder = ModelBuilder(model_id).compartment("cell", size=1.0)
    for name in species:
        builder = builder.species(name, 1.0)
    builder = builder.parameter("k", value)
    builder = builder.mass_action(
        f"r_{model_id}", [species[0]], [species[-1]], "k"
    )
    return builder.build()


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(count=10, seed=3)


@pytest.fixture
def index(corpus):
    built = CorpusIndex()
    for position, model in enumerate(corpus):
        built.add(model, label=f"m{position:02d}")
    return built


class TestMaintenance:
    def test_add_and_lookup(self, index, corpus):
        assert len(index) == len(corpus)
        digest = model_digest(corpus[0])
        assert digest in index
        entry = index.get(digest)
        assert entry.label == "m00"
        assert digest in index.digests()

    def test_readd_refreshes_not_duplicates(self, index, corpus):
        before = len(index)
        digest = index.add(corpus[0], label="renamed", path="/tmp/x.xml")
        assert len(index) == before
        entry = index.get(digest)
        assert entry.label == "renamed"
        assert entry.path == "/tmp/x.xml"
        # The refresh bumped the LRU clock: this entry is now newest.
        assert entry.sequence == max(
            index.get(other).sequence for other in index.digests()
        )

    def test_remove_drops_from_queries(self, corpus):
        index = CorpusIndex()
        digests = [index.add(model) for model in corpus]
        assert index.remove(digests[0])
        assert not index.remove(digests[0])
        assert digests[0] not in index
        hits = index.query(ModelSignature.build(corpus[0]))
        assert digests[0] not in {hit.digest for hit in hits}
        assert [hit.position for hit in hits] == list(
            range(len(corpus) - 1)
        )

    def test_evict_is_lru(self, corpus):
        index = CorpusIndex()
        digests = [index.add(model) for model in corpus]
        index.add(corpus[0])  # a re-add refreshes the LRU position
        removed = index.evict(len(corpus) - 3)
        # Oldest-first, skipping the refreshed head entry.
        assert removed == digests[1:4]
        assert len(index) == len(corpus) - 3
        assert digests[0] in index

    def test_evict_rejects_negative(self, index):
        with pytest.raises(ValueError):
            index.evict(-1)

    def test_signature_options_mismatch_rejected(self):
        index = CorpusIndex()
        foreign = ModelSignature.build(
            _model(), ComposeOptions(semantics=SEMANTICS_NONE)
        )
        with pytest.raises(ValueError):
            index.add(_model(), signature=foreign)

    def test_store_rehydrated_signature_is_used(self, corpus, tmp_path):
        store = ArtifactStore(tmp_path)
        artifacts = store.get_or_compute(corpus[0])
        assert artifacts.signature is not None
        index = CorpusIndex()
        digest = index.add(corpus[0], store=store)
        adopted = index.get(digest).signature
        # The stored (pickle round-tripped) signature was adopted, not
        # rebuilt: identical vectors, straight from the stored entry.
        assert adopted.options_key == artifacts.signature.options_key
        assert np.array_equal(
            adopted.key_hashes, artifacts.signature.key_hashes
        )
        assert np.array_equal(
            adopted.key_fingerprints, artifacts.signature.key_fingerprints
        )

    def test_add_all_counts(self, corpus):
        index = CorpusIndex()
        added, refreshed = index.add_all(
            corpus, labels=[f"m{i:02d}" for i in range(len(corpus))]
        )
        assert (added, refreshed) == (len(corpus), 0)
        added, refreshed = index.add_all(corpus[:4])
        assert (added, refreshed) == (0, 4)

    def test_add_all_validates_lengths(self, corpus):
        index = CorpusIndex()
        with pytest.raises(ValueError):
            index.add_all(corpus, labels=["just-one"])


class TestQuery:
    def test_agrees_with_prescreen(self, corpus):
        """The index against the per-pair reference under every option
        set, on a corpus that exercises all three gates (see
        ``gated_corpus``)."""
        models = gated_corpus(corpus)
        for options in OPTION_SETS:
            screen = Prescreen.build(models, options)
            index = CorpusIndex(options)
            index.add_all(models)
            for position, model in enumerate(models):
                signature = ModelSignature.build(model, options)
                hits = index.query(signature)
                assert [hit.position for hit in hits] == list(
                    range(len(models))
                )
                # blocked == "must run the full matcher", exactly the
                # prescreen's survivor vector for this query.
                assert np.array_equal(
                    np.array([hit.blocked for hit in hits]),
                    query_survivors(screen, signature),
                )
                scores = query_scores(screen, signature)
                assert [hit.score for hit in hits] == list(scores)
                self_hit = hits[position]
                assert self_hit.score == len(signature.key_hashes)

    @pytest.mark.parametrize(
        "options", OPTION_SETS, ids=["heavy", "light", "structural"]
    )
    def test_query_rows_equal_prescreen_rows(self, corpus, options, tmp_path):
        """Each model of the corpus as the query: the index's hits are
        the prescreen's row for that model, with half the corpus in a
        sealed (mmap-backed) segment and half in the tail."""
        models = gated_corpus(corpus)
        screen = Prescreen.build(models, options)
        index = CorpusIndex(options)
        half = len(models) // 2
        index.add_all(models[:half])
        index.save(tmp_path / "corpus.idx")
        index.add_all(models[half:])
        for i, signature in enumerate(screen.signatures):
            hits = index.query(signature)
            assert [hit.score for hit in hits] == list(
                query_scores(screen, signature)
            )
            assert [hit.blocked for hit in hits] == list(screen.survivors()[i])
            assert [hit.united for hit in hits] == list(screen.pair_united[i])

    def test_classification_matches_full_matcher(self, index, corpus):
        """A non-blocked hit's synthesized counts equal the full
        matcher's outcome for that pair — the index-level restatement
        of the eighth conformance path."""
        query = corpus[2]
        signature = ModelSignature.build(query)
        hits = index.query(signature)
        matrix = match_query(query, corpus)
        for hit, outcome in zip(hits, matrix.outcomes):
            if hit.blocked:
                continue
            assert synthesized_counts(
                signature.component_count, hit.component_count, hit.united
            ) == (
                outcome.united,
                outcome.added,
                outcome.renamed,
                outcome.conflicts,
            )
        assert any(not hit.blocked for hit in hits)
        assert any(hit.blocked for hit in hits)

    def test_rank_orders_blocked_first_by_score(self, index, corpus):
        hits = index.query(ModelSignature.build(corpus[4]))
        ranked = index.rank(hits)
        blocked = [hit for hit in ranked if hit.blocked]
        pruned = [hit for hit in ranked if not hit.blocked]
        assert ranked == blocked + pruned
        scores = [hit.score for hit in blocked]
        assert scores == sorted(scores, reverse=True)
        positions = [hit.position for hit in pruned]
        assert positions == sorted(positions)

    def test_query_options_mismatch_rejected(self, index):
        foreign = ModelSignature.build(
            _model(), ComposeOptions(semantics=SEMANTICS_NONE)
        )
        with pytest.raises(ValueError):
            index.query(foreign)

    def test_none_semantics_gate(self, corpus):
        options = ComposeOptions(semantics=SEMANTICS_NONE)
        index = CorpusIndex(options)
        for model in corpus:
            index.add(model)
        hits = index.query(ModelSignature.build(corpus[0], options))
        # Under "none" twins rename instead of uniting: any overlap
        # blocks, and no union is ever synthesized.
        for hit in hits:
            assert hit.united == 0
            assert hit.blocked == (hit.score > 0)


class TestPersistence:
    def test_save_load_round_trip(self, index, corpus, tmp_path):
        path = tmp_path / "corpus.idx"
        index.save(path)
        loaded = CorpusIndex.load(path)
        assert len(loaded) == len(index)
        assert loaded.options_key == index.options_key
        signature = ModelSignature.build(corpus[5])
        assert [
            (hit.digest, hit.score, hit.blocked, hit.united)
            for hit in loaded.query(signature)
        ] == [
            (hit.digest, hit.score, hit.blocked, hit.united)
            for hit in index.query(signature)
        ]

    def test_incremental_update_survives_reload(self, index, corpus, tmp_path):
        path = tmp_path / "corpus.idx"
        index.save(path)
        loaded = CorpusIndex.load(path)
        extra = _model("extra", species=("Q", "R"))
        digest = loaded.add(extra)
        loaded.save(path)
        again = CorpusIndex.load(path)
        assert digest in again
        # The LRU clock keeps advancing across reloads.
        removed = again.evict(len(again) - 1)
        assert digest not in removed

    def test_old_monolithic_format_rejected(self, tmp_path):
        path = tmp_path / "corpus.idx"
        path.write_bytes(pickle.dumps({"format": 1}))
        with pytest.raises(ValueError, match="rebuild"):
            CorpusIndex.load(path)

    def test_foreign_manifest_format_rejected(self, tmp_path):
        path = tmp_path / "corpus.idx"
        path.mkdir()
        (path / "manifest.json").write_text('{"format": 99}\n')
        with pytest.raises(
            ValueError, match="format-99 corpus index; this version reads"
        ):
            CorpusIndex.load(path)

    def test_format_2_index_is_refused_with_the_rebuild_hint(
        self, index, tmp_path
    ):
        """Format 2 fingerprinted components by ``repr``; its
        fingerprints cannot meet format-3 ones, so it is refused."""
        path = tmp_path / "corpus.idx"
        index.save(path)
        manifest = path / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["format"] = 2
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as excinfo:
            CorpusIndex.load(path)
        message = str(excinfo.value)
        assert "format-2 corpus index" in message
        assert "delete the directory and rerun `corpus index`" in message

    def test_save_layout_has_no_stragglers(self, index, tmp_path):
        path = tmp_path / "corpus.idx"
        index.save(path)
        assert sorted(entry.name for entry in path.iterdir()) == [
            "manifest.json",
            "options.pkl",
            "seg-000000",
        ]
        # A second save with an unchanged tail adds only the backup.
        index.save(path)
        assert sorted(entry.name for entry in path.iterdir()) == [
            "manifest.json",
            "manifest.json.bak",
            "options.pkl",
            "seg-000000",
        ]

    def test_save_refuses_relocation(self, index, tmp_path):
        index.save(tmp_path / "a.idx")
        with pytest.raises(ValueError, match="saves in place"):
            index.save(tmp_path / "b.idx")

    def test_save_onto_plain_file_rejected(self, index, tmp_path):
        path = tmp_path / "corpus.idx"
        path.write_bytes(b"not an index directory")
        with pytest.raises(ValueError):
            index.save(path)

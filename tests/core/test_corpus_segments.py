"""Segmented corpus index: equivalence, crash recovery, store builds.

The segmented layout's contract is that *no* mix of sealed segments,
tail entries, tombstones, overrides and compactions may ever change a
query's answer: every sequence of maintenance operations must yield
queries byte-identical to a fresh monolithic (tail-only) index built
from the surviving models in the same insertion order.  A hypothesis
property drives random operation sequences against both; deterministic
batteries pin the interesting mixes; a chaos-harness test pins the
manifest's torn-write recovery; every unreadable index file must fail
the load (or the first read of its array) with a "rebuild" error
naming the file; and a store-backed build must be indistinguishable
from a plain one.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import chaos
from repro.core.artifact_store import ArtifactStore, model_digest
from repro.core.corpus_index import CorpusIndex, _Segment
from repro.core.signature import ModelSignature
from repro.corpus import generate_corpus

POOL_SIZE = 8


@pytest.fixture(scope="module")
def pool():
    return generate_corpus(count=POOL_SIZE, seed=11)


@pytest.fixture(scope="module")
def signatures(pool):
    return [ModelSignature.build(model) for model in pool]


@pytest.fixture(scope="module")
def digests(pool):
    return [model_digest(model) for model in pool]


def _hit_tuples(index, signature):
    return [
        (
            hit.digest,
            hit.label,
            hit.position,
            hit.score,
            hit.blocked,
            hit.united,
            hit.component_count,
        )
        for hit in index.query(signature)
    ]


def _assert_equivalent(segmented, reference, signatures):
    for signature in signatures:
        assert _hit_tuples(segmented, signature) == _hit_tuples(
            reference, signature
        )


def _saved_index(pool, root):
    index = CorpusIndex()
    for model in pool:
        index.add(model)
    index.save(root)


class TestMixedSegments:
    def test_waves_tail_and_reload_match_monolithic(
        self, pool, signatures, tmp_path
    ):
        """Three sealed waves plus an unsaved tail answer exactly like
        one monolithic index — before and after a reload."""
        root = tmp_path / "corpus.idx"
        segmented = CorpusIndex()
        reference = CorpusIndex()
        for wave in (pool[0:3], pool[3:6]):
            for model in wave:
                segmented.add(model)
                reference.add(model)
            segmented.save(root)
        for model in pool[6:]:
            # Tail entries on top of two sealed segments.
            segmented.add(model)
            reference.add(model)
        assert segmented.stats()["segments"] == 2
        assert segmented.stats()["tail_models"] == 2
        _assert_equivalent(segmented, reference, signatures)
        segmented.save(root)
        _assert_equivalent(CorpusIndex.load(root), reference, signatures)

    def test_tombstone_and_override_match_monolithic(
        self, pool, signatures, tmp_path
    ):
        root = tmp_path / "corpus.idx"
        segmented = CorpusIndex()
        reference = CorpusIndex()
        for model in pool:
            segmented.add(model)
            reference.add(model)
        segmented.save(root)
        victim = model_digest(pool[2])
        assert segmented.remove(victim) and reference.remove(victim)
        # Sealed-entry refresh becomes an override, not a new entry.
        segmented.add(pool[4], label="renamed", path="/tmp/renamed.xml")
        reference.add(pool[4], label="renamed", path="/tmp/renamed.xml")
        assert len(segmented) == len(pool) - 1
        entry = segmented.get(model_digest(pool[4]))
        assert entry.label == "renamed"
        assert entry.path == "/tmp/renamed.xml"
        _assert_equivalent(segmented, reference, signatures)
        segmented.save(root)
        _assert_equivalent(CorpusIndex.load(root), reference, signatures)

    def test_readd_after_remove_reenters_at_the_end(
        self, pool, signatures, tmp_path
    ):
        """Resurrecting a tombstoned sealed entry matches the
        monolithic remove-then-add: the model re-enters at the end of
        the insertion order (with fresh metadata), without recomputing
        its signature."""
        root = tmp_path / "corpus.idx"
        segmented = CorpusIndex()
        reference = CorpusIndex()
        for model in pool:
            segmented.add(model)
            reference.add(model)
        segmented.save(root)
        victim = model_digest(pool[0])
        segmented.remove(victim)
        reference.remove(victim)
        segmented.add(pool[0], label="back")
        reference.add(pool[0], label="back")
        hits = segmented.query(signatures[0])
        assert hits[-1].digest == victim
        assert hits[-1].label == "back"
        _assert_equivalent(segmented, reference, signatures)
        segmented.save(root)
        _assert_equivalent(CorpusIndex.load(root), reference, signatures)

    def test_touch_of_sealed_entry_steers_eviction(self, pool, tmp_path):
        """Re-adding a sealed entry refreshes its LRU position (an
        override), so eviction skips it."""
        root = tmp_path / "corpus.idx"
        segmented = CorpusIndex()
        digests = [segmented.add(model) for model in pool]
        segmented.save(root)
        loaded = CorpusIndex.load(root)
        loaded.add(pool[0])
        removed = loaded.evict(len(pool) - 3)
        assert removed == digests[1:4]
        assert digests[0] in loaded

    def test_compact_merges_and_cleans(self, pool, signatures, tmp_path):
        root = tmp_path / "corpus.idx"
        segmented = CorpusIndex()
        for model in pool[:6]:
            segmented.add(model)
        segmented.save(root)
        for model in pool[6:]:
            segmented.add(model)
        segmented.save(root)
        victim = model_digest(pool[1])
        segmented.remove(victim)
        report = segmented.compact()
        assert report == {
            "models": len(pool) - 1,
            "segments_merged": 2,
            "tombstones_cleared": 1,
        }
        shape = segmented.stats()
        assert shape["segments"] == 1
        assert shape["tombstones"] == shape["overrides"] == 0
        # Old segment directories are gone; only the merged one remains.
        assert sorted(
            entry.name
            for entry in root.iterdir()
            if entry.name.startswith("seg-")
        ) == ["seg-000002"]
        reference = CorpusIndex()
        for position, model in enumerate(pool):
            if position != 1:
                reference.add(model)
        _assert_equivalent(segmented, reference, signatures)
        _assert_equivalent(CorpusIndex.load(root), reference, signatures)

    def test_compact_requires_saved_index(self, pool):
        index = CorpusIndex()
        index.add(pool[0])
        with pytest.raises(ValueError, match="save"):
            index.compact()

    def test_load_is_lazy(self, pool, signatures, tmp_path):
        """Cold open reads metadata only; posting and signature arrays
        are mmap'ed on first use — the load-cost-proportional-to-hits
        contract."""
        root = tmp_path / "corpus.idx"
        index = CorpusIndex()
        for model in pool:
            index.add(model)
        index.save(root)
        loaded = CorpusIndex.load(root)
        assert loaded._segments[0]._mmaps == {}
        loaded.query(signatures[0])
        assert "post_keys" in loaded._segments[0]._mmaps


@st.composite
def operations(draw):
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("add"),
                    st.integers(0, POOL_SIZE - 1),
                ),
                st.tuples(
                    st.just("remove"),
                    st.integers(0, POOL_SIZE - 1),
                ),
                st.tuples(st.just("evict"), st.integers(0, POOL_SIZE)),
                st.tuples(st.just("save")),
                st.tuples(st.just("compact")),
            ),
            min_size=1,
            max_size=14,
        )
    )
    return ops


class TestEquivalenceProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=operations())
    def test_any_operation_sequence_matches_monolithic_rebuild(
        self, ops, pool, signatures, digests, tmp_path_factory
    ):
        """Any add/remove/evict/save/compact sequence answers
        queries byte-identically to (a) a monolithic index replaying
        the same operations in memory and (b) a fresh monolithic index
        rebuilt from the surviving models in surviving order."""
        root = tmp_path_factory.mktemp("segmented") / "corpus.idx"
        segmented = CorpusIndex()
        reference = CorpusIndex()
        saved = False
        for op in ops:
            if op[0] == "add":
                model = pool[op[1]]
                signature = signatures[op[1]]
                segmented.add(model, signature=signature)
                reference.add(model, signature=signature)
            elif op[0] == "remove":
                assert segmented.remove(digests[op[1]]) == reference.remove(
                    digests[op[1]]
                )
            elif op[0] == "evict":
                assert segmented.evict(op[1]) == reference.evict(op[1])
            elif op[0] == "save":
                segmented.save(root)
                saved = True
            elif op[0] == "compact":
                if saved:
                    segmented.compact()
        assert len(segmented) == len(reference)
        assert segmented.digests() == reference.digests()
        probe = signatures[: 3]
        _assert_equivalent(segmented, reference, probe)
        # (b) fresh rebuild from the survivors, in surviving order.
        if len(reference):
            order = [
                hit.digest for hit in reference.query(signatures[0])
            ]
            by_digest = dict(zip(digests, pool))
            rebuilt = CorpusIndex()
            for digest in order:
                rebuilt.add(
                    by_digest[digest],
                    label=reference.get(digest).label,
                )
            for signature in probe:
                assert [
                    (hit.digest, hit.position, hit.score, hit.blocked,
                     hit.united)
                    for hit in segmented.query(signature)
                ] == [
                    (hit.digest, hit.position, hit.score, hit.blocked,
                     hit.united)
                    for hit in rebuilt.query(signature)
                ]
        # And the on-disk form agrees with the in-memory one.
        segmented.save(root)
        _assert_equivalent(CorpusIndex.load(root), reference, probe)


class TestCrashRecovery:
    def test_torn_manifest_write_recovers_from_backup(
        self, pool, signatures, tmp_path, capsys
    ):
        """A torn manifest write (chaos ``checkpoint-write`` site,
        ``reason="corpus-manifest"``) loses at most that write's delta:
        load falls back to ``manifest.json.bak`` and the index keeps
        working, including the next save over the orphaned segment."""
        root = tmp_path / "corpus.idx"
        index = CorpusIndex()
        for model in pool[:5]:
            index.add(model)
        index.save(root)
        good = _hit_tuples(CorpusIndex.load(root), signatures[0])
        index.add(pool[5])
        spec = chaos.ChaosSpec(
            tmp_path,
            faults=[
                chaos.Fault(
                    site="checkpoint-write",
                    action="torn-write",
                    match={"reason": "corpus-manifest"},
                )
            ],
        )
        with chaos.active(spec):
            with pytest.raises(chaos.ChaosKill):
                index.save(root)
        capsys.readouterr()
        recovered = CorpusIndex.load(root)
        captured = capsys.readouterr()
        assert "recovered from" in captured.err
        assert _hit_tuples(recovered, signatures[0]) == good
        # The sealed-but-uncommitted segment is an invisible orphan;
        # re-adding and saving reclaims its name without collision.
        recovered.add(pool[5])
        recovered.save(root)
        assert len(CorpusIndex.load(root)) == 6

    def test_both_copies_unreadable_is_an_error(self, tmp_path):
        root = tmp_path / "corpus.idx"
        root.mkdir()
        (root / "manifest.json").write_text("{torn")
        with pytest.raises(ValueError, match="rebuild"):
            CorpusIndex.load(root)

    def test_missing_manifest_is_file_not_found(self, tmp_path):
        root = tmp_path / "corpus.idx"
        root.mkdir()
        with pytest.raises(FileNotFoundError):
            CorpusIndex.load(root)

    def test_truncated_options_file_is_a_rebuild_error(self, pool, tmp_path):
        root = tmp_path / "corpus.idx"
        _saved_index(pool[:3], root)
        options = root / "options.pkl"
        options.write_bytes(options.read_bytes()[:10])
        with pytest.raises(ValueError, match="rebuild") as caught:
            CorpusIndex.load(root)
        assert str(options) in str(caught.value)

    def test_manifest_without_options_key_is_a_rebuild_error(
        self, pool, tmp_path
    ):
        root = tmp_path / "corpus.idx"
        _saved_index(pool[:3], root)
        manifest = root / "manifest.json"
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        del payload["options_key"]
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="rebuild") as caught:
            CorpusIndex.load(root)
        assert str(manifest) in str(caught.value)
        assert "options_key" in str(caught.value)

    def test_torn_segment_meta_is_a_rebuild_error(self, pool, tmp_path):
        root = tmp_path / "corpus.idx"
        _saved_index(pool[:3], root)
        meta = root / "seg-000000" / "meta.json"
        meta.write_text(meta.read_text(encoding="utf-8")[:40])
        with pytest.raises(ValueError, match="rebuild") as caught:
            CorpusIndex.load(root)
        assert str(meta) in str(caught.value)

    @pytest.mark.parametrize("keep", [5, 200])
    def test_truncated_signature_array_is_a_rebuild_error(
        self, pool, signatures, tmp_path, keep
    ):
        """Signature arrays open lazily, so a truncated one (inside
        the header or the data) fails at its first read."""
        root = tmp_path / "corpus.idx"
        _saved_index(pool[:3], root)
        hashes = root / "seg-000000" / "sig_key_hashes.npy"
        hashes.write_bytes(hashes.read_bytes()[:keep])
        loaded = CorpusIndex.load(root)
        with pytest.raises(ValueError, match="rebuild") as caught:
            loaded.query(signatures[0])
        assert str(hashes) in str(caught.value)


class TestStoreBackedBuild:
    def test_store_backed_add_all_matches_plain(
        self, pool, signatures, tmp_path
    ):
        """Cold and warm store-backed builds adopt or spill each
        signature and answer exactly like a build without a store."""
        labels = [f"m{i}" for i in range(len(pool))]
        plain = CorpusIndex()
        plain.add_all(pool, labels=labels)
        store = ArtifactStore(tmp_path / "store")
        for _ in range(2):
            stored = CorpusIndex()
            assert stored.add_all(pool, labels=labels, store=store) == (
                len(pool),
                0,
            )
            _assert_equivalent(stored, plain, signatures)
        assert store.stats()["hits"] == len(pool)
        assert len(store) == len(pool)

    def test_refresh_through_add_all_with_store(self, pool, tmp_path):
        index = CorpusIndex()
        index.add_all(pool[:4])
        added, refreshed = index.add_all(
            pool[:6], store=ArtifactStore(tmp_path / "store")
        )
        assert (added, refreshed) == (2, 4)


class TestPackedSignatures:
    """A segment's signature columns: every model's key arrays back to
    back with an offsets table, plus the fixed-width columns."""

    def test_pack_view_round_trip(self, pool, signatures, tmp_path):
        """A sealed entry's mmap-backed signature equals the one it was
        built from, column for column."""
        root = tmp_path / "corpus.idx"
        _saved_index(pool, root)
        loaded = CorpusIndex.load(root)
        for model, signature in zip(pool, signatures):
            view = loaded.get(model_digest(model)).signature
            assert view.options_key == signature.options_key
            assert view.component_count == signature.component_count
            assert view.self_clean == signature.self_clean
            assert np.array_equal(view.counts, signature.counts)
            assert np.array_equal(view.key_hashes, signature.key_hashes)
            assert np.array_equal(
                view.key_fingerprints, signature.key_fingerprints
            )
            assert np.array_equal(view.key_primary, signature.key_primary)

    def test_pack_rejects_foreign_options(self, pool, tmp_path):
        index = CorpusIndex()
        index.add(pool[0])
        entry = index.get(model_digest(pool[0]))
        with pytest.raises(ValueError, match="different key options"):
            _Segment.write(
                tmp_path / "seg-000000", [entry], ("something", "else")
            )
        assert not (tmp_path / "seg-000000").exists()

    def test_empty_pack(self, tmp_path):
        _Segment.write(tmp_path / "seg-000000", [], ("key",))
        segment = _Segment(tmp_path / "seg-000000", ("key",))
        assert len(segment) == 0
        assert segment._array("sig_hashes").size == 0
        assert segment.candidates(np.array([1], dtype=np.uint64)) == set()

"""The content-addressed artifact store."""

import hashlib
import json
import pickle

import pytest

from repro import ModelBuilder, read_sbml
from repro.core.artifact_store import (
    ArtifactStore,
    CorpusManifest,
    ModelArtifacts,
    compute_artifacts,
    corpus_fingerprint,
    model_digest,
)


def _garble(path):
    """Bit rot: bytes that do not decode."""
    path.write_bytes(b"bit rot")


def _block(path):
    """A directory in the entry's place: exists, but cannot be read."""
    path.unlink()
    path.mkdir()


#: The ways an entry goes corrupt; every corrupt-read test runs each.
SPOILERS = (_garble, _block)


def _model(model_id="m", species=("A", "B"), value=0.5):
    builder = ModelBuilder(model_id).compartment("cell", size=1.0)
    for name in species:
        builder = builder.species(name, 1.0)
    builder = builder.parameter("k", value)
    builder = builder.mass_action(
        f"r_{model_id}", [species[0]], [species[-1]], "k"
    )
    return builder.build()


class TestModelDigest:
    def test_copy_shares_digest(self):
        model = _model()
        assert model_digest(model) == model_digest(model.copy())

    def test_content_changes_digest(self):
        assert model_digest(_model(value=0.5)) != model_digest(
            _model(value=0.7)
        )

    def test_corpus_fingerprint_orders_and_params(self):
        a, b = _model("a"), _model("b")
        assert corpus_fingerprint([a, b]) != corpus_fingerprint([b, a])
        assert corpus_fingerprint([a, b]) != corpus_fingerprint(
            [a, b], extra=("shards", 4)
        )
        assert corpus_fingerprint([a, b]) == corpus_fingerprint(
            [a.copy(), b.copy()]
        )


class TestComputeArtifacts:
    def test_matches_engine_inputs(self):
        model = _model()
        artifacts = compute_artifacts(model)
        assert set(model.global_ids()) <= artifacts.used_ids
        assert artifacts.initial["A"] == pytest.approx(1.0)
        assert artifacts.registry is not None


class TestArtifactStore:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        model = _model()
        digest = model_digest(model)
        assert store.get(digest) is None
        store.put(digest, compute_artifacts(model))
        assert digest in store
        rehydrated = store.get(digest)
        assert isinstance(rehydrated, ModelArtifacts)
        assert rehydrated.used_ids == compute_artifacts(model).used_ids
        assert rehydrated.initial == compute_artifacts(model).initial

    def test_get_or_compute_spills_once(self, tmp_path):
        store = ArtifactStore(tmp_path)
        model = _model()
        assert len(store) == 0
        first = store.get_or_compute(model)
        assert len(store) == 1
        second = store.get_or_compute(model.copy())  # same content digest
        assert len(store) == 1
        assert first.used_ids == second.used_ids

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        for spoil in SPOILERS:
            store = ArtifactStore(tmp_path / spoil.__name__)
            model = _model()
            digest = model_digest(model)
            spoil(store.put(digest, compute_artifacts(model)))
            assert store.get(digest) is None
            # get_or_compute self-heals the entry.
            assert store.get_or_compute(model) is not None
            assert store.get(digest) is not None

    def test_format_mismatch_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = model_digest(_model())
        path = store.path_for(digest)
        path.parent.mkdir(parents=True)
        path.write_bytes(
            pickle.dumps({"format": -1, "artifacts": None})
        )
        assert store.get(digest) is None

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.get_or_compute(_model("a"))
        store.get_or_compute(_model("b", species=("B", "C")))
        assert store.clear() == 2
        assert len(store) == 0


@pytest.fixture
def calls(monkeypatch):
    """Every model the artifact store's ``write_sbml`` serialises in
    this process."""
    from repro.core import artifact_store

    counted = []
    raw = artifact_store.write_sbml

    def counting(model):
        counted.append(model)
        return raw(model)

    monkeypatch.setattr(artifact_store, "write_sbml", counting)
    return counted


class TestSerialiseOnce:
    """Store-backed paths serialise a model through the module-level
    ``write_sbml`` (the name a tracer wraps) and never twice for one
    digest and blob."""

    def test_miss_without_digest_serialises_once(self, tmp_path, calls):
        from repro.sbml.writer import write_sbml

        store = ArtifactStore(tmp_path)
        model = _model()
        store.get_or_compute(model)
        assert len(calls) == 1
        # The entry is keyed by the hash of the one text serialised.
        text = write_sbml(model)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert store.get(digest) is not None

    def test_store_backed_add_all_serialises_each_model_once(
        self, tmp_path, calls
    ):
        from repro.core.corpus_index import CorpusIndex

        models = [
            _model(f"m{i}", species=(f"A{i}", f"B{i}")) for i in range(6)
        ]
        store = ArtifactStore(tmp_path)
        store.get_or_compute(models[0])
        calls.clear()
        # One warm model, five cold: only the digest, hit or miss.
        CorpusIndex().add_all(models, store=store)
        assert len(calls) == 6
        calls.clear()
        CorpusIndex().add_all(models, store=store)
        assert len(calls) == 6


class TestSweepSerialisesOnlyForDigests:
    """An in-process sweep derives every artifact in memory and
    serialises no model, with one worker or several."""

    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.corpus import generate_corpus

        return generate_corpus(count=6, seed=5)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_storeless_sweep_serialises_nothing(self, corpus, calls, workers):
        from repro import match_all

        match_all(corpus, workers=workers)
        assert calls == []


class TestCliSweepDigestPass:
    """The CLI's sweeps serialise a model in this process only for a
    digest they use, and a sharded screened sweep screens once."""

    @pytest.fixture
    def files(self, tmp_path):
        from repro import write_sbml_file
        from repro.corpus import generate_corpus

        paths = []
        for position, model in enumerate(generate_corpus(count=6, seed=5)):
            path = tmp_path / f"m{position}.xml"
            write_sbml_file(model, path)
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("prescreen", [[], ["--prescreen"]])
    def test_private_supervised_sweep_serialises_nothing(
        self, files, tmp_path, calls, capsys, prescreen
    ):
        """``sweep --workers 2`` with no ``--out-dir`` or ``--listen``
        journals into a private directory that is never resumed: its
        fingerprint binds no corpus digest."""
        from repro.cli import main

        supervised = tmp_path / "supervised.csv"
        assert main(
            ["sweep", *files, "--workers", "2", *prescreen,
             "--deterministic", "-o", str(supervised)]
        ) == 0
        assert calls == []
        inline = tmp_path / "inline.csv"
        assert main(
            ["sweep", *files, "--deterministic", "-o", str(inline)]
        ) == 0
        assert supervised.read_bytes() == inline.read_bytes()

    @pytest.mark.parametrize("prescreen", [[], ["--prescreen"]])
    def test_sharded_sweep_serialises_each_model_once(
        self, files, tmp_path, calls, capsys, prescreen
    ):
        """``sweep --shards 4 --out-dir D`` serialises each model once,
        for the journal fingerprint; the shards derive their artifacts
        in memory."""
        from repro.cli import main

        assert main(
            ["sweep", *files, "--shards", "4",
             "--out-dir", str(tmp_path / "sweep"), *prescreen]
        ) == 0
        assert len(calls) == len(files)

    def test_sharded_prescreen_is_built_once_per_run(
        self, files, tmp_path, monkeypatch, capsys
    ):
        """``sweep --shards K --out-dir D --prescreen`` builds one
        prescreen and hands it to every shard; the journal fingerprint
        is :func:`corpus_fingerprint`, so a journal written before
        still resumes."""
        from repro.cli import main
        from repro.core.artifact_store import corpus_fingerprint
        from repro.core.shards import SweepCheckpoint
        from repro.core.signature import Prescreen
        from repro.sbml.reader import read_sbml_file

        builds = []
        build = Prescreen.build.__func__

        def counting(cls, *args, **kwargs):
            builds.append(args)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(Prescreen, "build", classmethod(counting))
        out_dir = tmp_path / "sweep"
        sharded = tmp_path / "sharded.csv"
        assert main(
            ["sweep", *files, "--shards", "4", "--out-dir", str(out_dir),
             "--prescreen", "--deterministic", "-o", str(sharded)]
        ) == 0
        assert len(builds) == 1
        journal = json.loads(
            (out_dir / SweepCheckpoint.FILENAME).read_text(encoding="utf-8")
        )
        models = [read_sbml_file(path).model for path in files]
        assert journal["fingerprint"] == corpus_fingerprint(
            models,
            extra=("semantics", "heavy", "include_self", True, "shards", 4),
        )
        full = tmp_path / "full.csv"
        assert main(
            ["sweep", *files, "--deterministic", "-o", str(full)]
        ) == 0
        assert sharded.read_bytes() == full.read_bytes()


class TestStoreFormat:
    def test_older_formats_are_counted_misses_rewritten_as_current(
        self, tmp_path
    ):
        """The store reads one format: entries of formats 2–6 (format
        5 also carried pattern tables, index rows and the SBML text;
        format 6 signatures fingerprinted components by ``repr``) are
        counted ``incompatible`` misses, recomputed and rewritten in
        the current format, which round-trips every artifact."""
        model = _model()
        digest = model_digest(model)
        for version in (2, 3, 4, 5, 6):
            store = ArtifactStore(tmp_path / f"format{version}")
            artifacts = compute_artifacts(model)
            path = store.path_for(digest)
            path.parent.mkdir(parents=True)
            path.write_bytes(
                pickle.dumps({"format": version, "artifacts": artifacts})
            )
            assert store.get(digest) is None
            assert store.stats()["incompatible"] == 1
            assert path.exists()  # left in place, not quarantined
            rewritten = store.get_or_compute(model, digest)
            assert pickle.loads(path.read_bytes())["format"] == 7
            hit = store.get(digest)
            assert hit is not None and store.stats()["hits"] == 1
            assert hit.used_ids == rewritten.used_ids
            assert hit.initial == rewritten.initial
            assert hit.signature.options_key == (
                compute_artifacts(model).signature.options_key
            )
        # A stray field an older writer of this format left behind is
        # ignored, not an error.
        store = ArtifactStore(tmp_path / "stray")
        computed = compute_artifacts(model)
        computed.id_sets = {"species": frozenset({"A", "B"})}
        store.put(digest, computed)
        assert store.get(digest).signature is not None

    def test_engine_artifacts_skip_the_signature(self):
        model = _model()
        artifacts = compute_artifacts(model, with_signature=False)
        assert artifacts.signature is None
        assert artifacts.used_ids == compute_artifacts(model).used_ids


class TestCorpusManifest:
    def _corpus(self):
        return [
            _model("a"),
            _model("b", species=("B", "C")),
            _model("c", species=("C", "D")),
        ]

    def test_build_keeps_texts_and_orders_entries(self, tmp_path):
        models = self._corpus()
        labels = ["a", "b", "c"]
        manifest = CorpusManifest.build(models, labels)
        assert len(manifest) == 3
        assert manifest.labels == ("a", "b", "c")
        assert manifest.digests == tuple(
            model_digest(model) for model in models
        )
        # Fingerprint agrees byte-for-byte with the model-side one the
        # checkpoint journal computes.
        assert manifest.fingerprint == corpus_fingerprint(models)
        # Every text is the one its digest hashes, and parses back to
        # the model.
        for text, digest in zip(manifest.texts, manifest.digests):
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
            assert model_digest(read_sbml(text).model) == digest
        # The build writes nothing to disk.
        assert list(tmp_path.iterdir()) == []

    def test_texts_stay_out_of_its_pickle(self):
        manifest = CorpusManifest.build(self._corpus(), ["a", "b", "c"])
        assert len(manifest.texts) == 3
        shipped = pickle.loads(pickle.dumps(manifest))
        assert shipped == manifest
        assert shipped.texts == ()
        assert len(pickle.dumps(manifest)) < sum(
            len(text) for text in manifest.texts
        )

    def test_build_rejects_mismatched_labels(self):
        with pytest.raises(ValueError):
            CorpusManifest.build(self._corpus(), ["only-one"])

    def test_evict_pinned_on_manifest_keeps_corpus(self, tmp_path):
        """Pinning a store on ``manifest.digests`` exempts the corpus
        entries from eviction."""
        store = ArtifactStore(tmp_path)
        corpus = self._corpus()
        manifest = CorpusManifest.build(corpus, ["a", "b", "c"])
        for model in corpus:
            store.get_or_compute(model)
        stray = _model("stray", species=("X", "Y"))
        store.get_or_compute(stray)
        evicted = store.evict(max_entries=0, pinned=manifest.digests)
        assert evicted == 1
        assert model_digest(stray) not in store
        for digest in manifest.digests:
            assert store.get(digest) is not None


class TestEvictPinning:
    def test_pinned_entries_survive_eviction(self, tmp_path):
        store = ArtifactStore(tmp_path)
        models = [
            _model("a"),
            _model("b", species=("B", "C")),
            _model("c", species=("C", "D")),
        ]
        digests = [model_digest(model) for model in models]
        for model in models:
            store.get_or_compute(model)
        evicted = store.evict(max_entries=0, pinned=digests[:2])
        assert evicted == 1
        assert store.get(digests[0]) is not None
        assert store.get(digests[1]) is not None
        assert store.get(digests[2]) is None

    def test_pinned_do_not_count_against_the_cap(self, tmp_path):
        store = ArtifactStore(tmp_path)
        models = [
            _model("a"),
            _model("b", species=("B", "C")),
            _model("c", species=("C", "D")),
        ]
        for model in models:
            store.get_or_compute(model)
        pinned = [model_digest(models[0]), model_digest(models[1])]
        # Cap 1 with 1 unpinned entry: nothing to evict.
        assert store.evict(max_entries=1, pinned=pinned) == 0
        assert len(store) == 3


class TestStoreStatsAndQuarantine:
    """Corrupt/incompatible read counters and the corrupt/ sidecar."""

    def test_fresh_store_counts_nothing(self, tmp_path):
        assert ArtifactStore(tmp_path).stats() == {
            "hits": 0,
            "misses": 0,
            "corrupt": 0,
            "incompatible": 0,
        }

    def test_hit_and_miss_counters(self, tmp_path):
        store = ArtifactStore(tmp_path)
        model = _model()
        digest = model_digest(model)
        assert store.get(digest) is None
        store.put(digest, compute_artifacts(model))
        assert store.get(digest) is not None
        stats = store.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_corrupt_read_is_counted_and_quarantined(self, tmp_path):
        for spoil in SPOILERS:
            store = ArtifactStore(tmp_path / spoil.__name__)
            model = _model()
            digest = model_digest(model)
            path = store.put(digest, compute_artifacts(model))
            spoil(path)
            assert store.get(digest) is None
            assert store.stats()["corrupt"] == 1
            assert store.stats()["misses"] == 0
            # The bad entry moved to corrupt/ — diagnosed once, not
            # re-paid.
            assert not path.exists()
            moved = store.root / ArtifactStore.CORRUPT_DIR / path.name
            assert moved.exists()
            if spoil is _garble:
                assert moved.read_bytes() == b"bit rot"
            # The slot is free again: recompute self-heals it.
            assert store.get_or_compute(model) is not None
            assert store.get(digest) is not None
            # Going bad again quarantines beside the first, and the
            # entry still self-heals.
            spoil(path)
            assert store.get(digest) is None
            assert store.stats()["corrupt"] == 2
            assert moved.exists()
            assert len(list(moved.parent.iterdir())) == 2
            assert store.get_or_compute(model) is not None

    def test_incompatible_read_is_counted_not_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = model_digest(_model())
        path = store.path_for(digest)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"format": 99, "artifacts": None}))
        assert store.get(digest) is None
        assert store.stats()["incompatible"] == 1
        assert path.exists()  # a newer writer may still want it


class TestStoreVerify:
    def test_clean_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.get_or_compute(_model("a"))
        store.get_or_compute(_model("b", species=("B", "C")))
        report = store.verify()
        assert report.clean
        assert (report.total, report.ok) == (2, 2)
        assert report.summary() == "2 entries, 2 ok"

    def test_verify_quarantines_corrupt_entries(self, tmp_path):
        for spoil in SPOILERS:
            store = ArtifactStore(tmp_path / spoil.__name__)
            model = _model()
            good = _model("other", species=("X", "Y"))
            store.get_or_compute(good)
            path = store.put(model_digest(model), compute_artifacts(model))
            spoil(path)
            report = store.verify()
            assert not report.clean
            assert report.total == 2
            assert report.corrupt == [model_digest(model)]
            assert report.ok == 1
            assert [p.parent.name for p in report.quarantined] == [
                ArtifactStore.CORRUPT_DIR
            ]
            assert not path.exists()
            assert "1 corrupt (1 quarantined)" in report.summary()

    def test_verify_keep_corrupt_leaves_blob_in_place(self, tmp_path):
        for spoil in SPOILERS:
            store = ArtifactStore(tmp_path / spoil.__name__)
            model = _model()
            path = store.put(model_digest(model), compute_artifacts(model))
            spoil(path)
            report = store.verify(quarantine=False)
            assert report.corrupt and not report.quarantined
            assert path.exists()

    def test_verify_counts_incompatible_in_place(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = model_digest(_model())
        path = store.path_for(digest)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"format": 99, "artifacts": None}))
        report = store.verify()
        assert report.incompatible == [digest]
        assert "format-incompatible" in report.summary()
        assert path.exists()

    def test_verify_never_refreshes_mtimes(self, tmp_path):
        import os

        store = ArtifactStore(tmp_path)
        model = _model()
        path = store.put(model_digest(model), compute_artifacts(model))
        os.utime(path, (1_000_000, 1_000_000))
        store.verify()
        assert path.stat().st_mtime == 1_000_000

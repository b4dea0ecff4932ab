"""The batched all-pairs matching engine."""

import importlib
import os

import pytest
from reference_sweep import reference_outcomes

from repro import ModelBuilder, compose_all, match_all
from repro.core import chaos
from repro.core.match_all import MatchMatrix, _Sweep
from repro.core.options import ComposeOptions
from repro.core.shards import partition_pairs
from repro.core.signature import ModelSignature, Prescreen
from repro.errors import UnitError
from repro.units.definitions import Unit, UnitDefinition


def _module_model(model_id, species, parameter, value=0.5):
    builder = ModelBuilder(model_id).compartment("cell", size=1.0)
    for name in species:
        builder = builder.species(name, 1.0)
    builder = builder.parameter(parameter, value)
    builder = builder.mass_action(
        f"r_{model_id}", [species[0]], [species[-1]], parameter
    )
    return builder.build()


@pytest.fixture
def corpus():
    return [
        _module_model("m1", ["A", "B"], "k1"),
        _module_model("m2", ["B", "C"], "k2"),
        _module_model("m3", ["C", "D"], "k3"),
        _module_model("m4", ["A", "D"], "k4"),
    ]


class TestMatchAll:
    def test_pair_enumeration_with_self(self, corpus):
        matrix = match_all(corpus)
        assert matrix.pair_count == 10  # C(4,2) + 4 self-pairs
        assert [(o.i, o.j) for o in matrix.outcomes] == [
            (i, j) for i in range(4) for j in range(i, 4)
        ]

    def test_no_self_pairs(self, corpus):
        matrix = match_all(corpus, include_self=False)
        assert matrix.pair_count == 6
        assert all(o.i != o.j for o in matrix.outcomes)

    def test_outcomes_match_session_reports(self, corpus):
        # The batched engine shares artifacts but must produce the
        # same matching outcome a standalone composition does.
        matrix = match_all(corpus)
        by_pair = {(o.i, o.j): o for o in matrix.outcomes}
        for i in range(len(corpus)):
            for j in range(i, len(corpus)):
                result = compose_all([corpus[i], corpus[j]])
                outcome = by_pair[(i, j)]
                assert outcome.united == len(result.report.duplicates)
                assert outcome.added == result.report.total_added
                assert outcome.renamed == len(result.report.renamed)
                assert outcome.conflicts == len(result.report.conflicts)

    def test_self_pair_unites_everything(self, corpus):
        matrix = match_all(corpus)
        self_pair = next(o for o in matrix.outcomes if (o.i, o.j) == (0, 0))
        assert self_pair.added == 0
        assert self_pair.united > 0

    def test_inputs_not_mutated(self, corpus):
        snapshots = [sorted(m.global_ids()) for m in corpus]
        match_all(corpus, workers=2)
        assert [sorted(m.global_ids()) for m in corpus] == snapshots

    def test_four_worker_fanout_deterministic(self, corpus):
        serial = match_all(corpus)
        fanned = match_all(corpus, workers=4)
        assert fanned.workers == 4
        assert [o.row()[:5] for o in serial.outcomes] == [
            o.row()[:5] for o in fanned.outcomes
        ]
        assert [
            (o.united, o.added, o.renamed, o.conflicts)
            for o in serial.outcomes
        ] == [
            (o.united, o.added, o.renamed, o.conflicts)
            for o in fanned.outcomes
        ]

    def test_process_fanout_deterministic(self, corpus):
        serial = match_all(corpus)
        pooled = match_all(corpus, workers=2, backend="process")
        assert [
            (o.i, o.j, o.united, o.added, o.renamed, o.conflicts)
            for o in serial.outcomes
        ] == [
            (o.i, o.j, o.united, o.added, o.renamed, o.conflicts)
            for o in pooled.outcomes
        ]

    def test_conflict_counted(self):
        a = _module_model("m1", ["A", "B"], "shared", value=0.5)
        b = _module_model("m2", ["A", "B"], "shared", value=0.5)
        b.species[0].initial_amount = 777.0
        matrix = match_all([a, b], include_self=False)
        assert matrix.outcomes[0].conflicts >= 1

    def test_summary_and_rates(self, corpus):
        matrix = match_all(corpus)
        assert matrix.pairs_per_second > 0
        assert "pairs/s" in matrix.summary()
        assert len(MatchMatrix.csv_header()) == len(
            matrix.outcomes[0].row()
        )

    def test_options_respected(self, corpus):
        # Structural semantics never unites by name, so cross-model
        # pairs unite nothing (no shared ids are checked structurally
        # either — every component is unique).
        matrix = match_all(
            corpus, ComposeOptions.structural(), include_self=False
        )
        assert all(o.united == 0 for o in matrix.outcomes)

    @pytest.mark.parametrize("prescreen", [False, True])
    @pytest.mark.parametrize(
        "unit, factor",
        [
            (Unit("second", -1, 0, 0.0), "(0 * 10^0 * second)^-1"),
            (Unit("litre", 1, 400, 1.0), "(1 * 10^400 * litre)^1"),
        ],
    )
    def test_unit_factor_without_finite_value_is_a_unit_error(
        self, corpus, prescreen, unit, factor
    ):
        bad = _module_model("m5", ["A", "E"], "k5")
        bad.unit_definitions.append(UnitDefinition("bad_unit", units=[unit]))
        message = f"unit definition 'bad_unit': factor {factor}"
        with pytest.raises(UnitError) as raised:
            match_all([*corpus, bad], prescreen=prescreen)
        assert str(raised.value).startswith(message)
        with pytest.raises(UnitError) as raised:
            ModelSignature.build(bad)
        assert str(raised.value).startswith(message)

    def test_seconds_include_the_prescreen_build(self, corpus, monkeypatch):
        """The sweep's own timer, which the CLI summary reports, counts
        the prescreen build as well as the pairs."""
        import time

        build = Prescreen.build.__func__

        def slow_build(cls, *args, **kwargs):
            time.sleep(0.2)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(Prescreen, "build", classmethod(slow_build))
        assert match_all(corpus, prescreen=True).seconds >= 0.2

    def test_invalid_arguments(self, corpus):
        with pytest.raises(ValueError):
            match_all(corpus, workers=0)
        with pytest.raises(ValueError):
            match_all(corpus, backend="fiber")
        # Sweep workers are processes; there is no thread backend.
        with pytest.raises(ValueError):
            match_all(corpus, workers=2, backend="thread")
        # The prescreen is a flag: the sweep builds its own.
        for prescreen in (None, "yes", Prescreen.build(corpus)):
            with pytest.raises(TypeError, match="prescreen must be a bool"):
                match_all(corpus, prescreen=prescreen)


class TestOverlayReads:
    """Decide-only sweeps never append adopted components to the
    target, so the reads that must see them go through the merge's
    records instead.  Each case leaves a dangling reference in the
    target that only the source fills, and the sweep must agree with
    the materialising ``compose_all`` — which reads the merged model —
    on every count, with no conflict."""

    @staticmethod
    def _assert_sweep_agrees(target, source):
        report = compose_all([target, source]).report
        expected = (
            len(report.duplicates),
            report.total_added,
            len(report.renamed),
            len(report.conflicts),
        )
        # The engine (prebuilt indexes) and the fresh-index reference.
        for outcomes in (
            match_all([target, source]).outcomes,
            reference_outcomes([target, source]),
        ):
            cross = next(o for o in outcomes if (o.i, o.j) == (0, 1))
            assert (
                cross.united,
                cross.added,
                cross.renamed,
                cross.conflicts,
            ) == expected
        assert report.conflicts == []
        return report

    def test_species_compartment_declared_only_by_source(self):
        from repro.units.convert import concentration_to_molecules

        target = (
            ModelBuilder("t")
            .compartment("cell", size=1.0)
            .species(
                "A",
                concentration_to_molecules(1e-20, 2.0),
                compartment="vesicle",
                amount=True,
            )
            .build()
        )
        source = (
            ModelBuilder("s")
            .compartment("vesicle", size=2.0)
            .species("A", 1e-20)
            .build()
        )
        # The Figure 6 conversion needs the volume of the compartment
        # the source adopts.
        report = self._assert_sweep_agrees(target, source)
        assert any(w.code == "unit-conversion" for w in report.warnings)

    def test_rate_constant_volume_from_first_adopted_compartment(self):
        from repro.units.convert import deterministic_to_stochastic

        target = (
            ModelBuilder("t")
            .species("B", 0.0, compartment="c")
            .parameter("k1", 1.0)
            .reaction("synth", [], ["B"], formula="k1")
            .build()
        )
        assert target.compartments == []
        source = (
            ModelBuilder("s")
            .compartment("c", size=2.0)
            .species("B", 0.0)
            .parameter("k2", deterministic_to_stochastic(1.0, 0, 2.0))
            .reaction("synth", [], ["B"], formula="k2")
            .build()
        )
        report = self._assert_sweep_agrees(target, source)
        assert any(
            w.code == "unit-conversion" and w.component_type == "reaction"
            for w in report.warnings
        )

    def test_rate_constant_volume_from_adopted_reactant_species(self):
        from repro.units.convert import deterministic_to_stochastic

        # The target's bimolecular reaction names a reactant only the
        # source declares, so the volume comes from the compartment of
        # that adopted species.
        target = (
            ModelBuilder("t")
            .compartment("c", size=2.0)
            .species("B", 0.0)
            .parameter("k1", 1.0)
            .reaction("dimerise", ["A", "A"], ["B"], formula="k1 * A * A")
            .build()
        )
        source = (
            ModelBuilder("s")
            .compartment("c", size=2.0)
            .species("A", 1.0)
            .species("B", 0.0)
            .parameter("k2", deterministic_to_stochastic(1.0, 2, 2.0))
            .reaction("dimerise", ["A", "A"], ["B"], formula="k2 * A * A")
            .build()
        )
        report = self._assert_sweep_agrees(target, source)
        assert any(
            w.code == "unit-conversion" and w.component_type == "reaction"
            for w in report.warnings
        )

    def test_kinetic_law_calls_function_defined_only_by_source(self):
        target = (
            ModelBuilder("t")
            .compartment("cell", size=1.0)
            .species("A", 1.0)
            .species("B", 0.0)
            .parameter("k1", 1.5)
            .reaction("r", ["A"], ["B"], formula="f(k1) * A")
            .build()
        )
        source = (
            ModelBuilder("s")
            .function("f", ["x"], "2 * x")
            .compartment("cell", size=1.0)
            .species("A", 1.0)
            .species("B", 0.0)
            .parameter("k2", 3.0)
            .reaction("r", ["A"], ["B"], formula="k2 * A")
            .build()
        )
        report = self._assert_sweep_agrees(target, source)
        assert any(d.component_type == "reaction" for d in report.duplicates)

    def test_substance_units_defined_only_by_source(self):
        target = (
            ModelBuilder("t")
            .compartment("cell", size=1.0)
            .species("A", 1.0, amount=True, substance_units="mmol")
            .build()
        )
        source = (
            ModelBuilder("s")
            .unit("mmol", [("mole", 1, -3, 1.0)])
            .compartment("cell", size=1.0)
            .species("A", 0.001, amount=True, substance_units="mole")
            .build()
        )
        report = self._assert_sweep_agrees(target, source)
        assert report.total_added == 1  # the unit definition
        assert any(w.code == "unit-conversion" for w in report.warnings)

    def test_later_source_assignments_probe_earlier_adopted_ones(self):
        # Initial assignments and rules are inserted into the phase
        # overlay as they are adopted, so a second one for the same
        # symbol meets the first (here: equal by evaluation, and
        # equal by commutative pattern).
        target = ModelBuilder("t").compartment("cell", size=1.0).build()
        source = (
            ModelBuilder("s")
            .compartment("cell", size=1.0)
            .species("A", 1.0)
            .parameter("p", None, constant=False)
            .parameter("q", None, constant=False)
            .initial_assignment("p", "2")
            .initial_assignment("p", "1 + 1")
            .assignment_rule("q", "2 * A")
            .assignment_rule("q", "A * 2")
            .build()
        )
        report = self._assert_sweep_agrees(target, source)
        assert {d.component_type for d in report.duplicates} >= {
            "initialAssignment",
            "assignmentRule",
        }


class TestDigestShipping:
    """The remote boundary: a remote worker receives a
    :class:`~repro.core.artifact_store.CorpusManifest` and builds the
    in-memory engine over :class:`~repro.core.match_all._FetchedModels`,
    which fetches each model's SBML text on first touch."""

    def test_manifest_payload_does_not_grow_with_corpus(self):
        """The acceptance number: a remote worker's handshake payload
        is a few dozen bytes per manifest entry, versus the full
        serialised corpus."""
        import pickle

        from repro.core.artifact_store import CorpusManifest

        small = [
            _module_model(f"m{i}", ["A", "B", "C"], f"k{i}")
            for i in range(4)
        ]
        large = small + [
            _module_model(f"m{i}", ["A", "B", "C"], f"k{i}")
            for i in range(4, 16)
        ]
        manifest_small = CorpusManifest.build(small, [m.id for m in small])
        manifest_large = CorpusManifest.build(large, [m.id for m in large])
        per_entry = (
            len(pickle.dumps(manifest_large)) - len(pickle.dumps(manifest_small))
        ) / (len(large) - len(small))
        per_model = (
            len(pickle.dumps(large)) - len(pickle.dumps(small))
        ) / (len(large) - len(small))
        assert per_entry < 200  # a label + a hex digest, flat
        assert per_entry < per_model / 5

    @staticmethod
    def _fetched(corpus, answer):
        """``(models, fetched digests)`` for a remote worker's view of
        ``corpus``, whose coordinator replies ``answer(digest, text)``.
        The manifest crosses a pickle, as the welcome carries it."""
        import pickle

        from repro.core.artifact_store import CorpusManifest
        from repro.core.match_all import _FetchedModels

        manifest = CorpusManifest.build(corpus, [m.id for m in corpus])
        texts = dict(zip(manifest.digests, manifest.texts))
        fetched = []

        def fetch(digest):
            fetched.append(digest)
            return answer(digest, texts.get(digest))

        shipped = pickle.loads(pickle.dumps(manifest))
        assert shipped.texts == ()
        return _FetchedModels(shipped, fetch), fetched

    def test_fetches_each_model_at_most_once(self, corpus):
        from repro.core.artifact_store import model_digest
        from repro.core.match_all import _PairEngine
        from repro.core.shards import enumerate_pairs

        models, fetched = self._fetched(corpus, lambda digest, text: text)
        assert len(models) == len(corpus)
        assert fetched == []  # nothing crosses before a pair needs it
        engine = _PairEngine(None, models, [m.id for m in corpus])
        engine.run_pair(0, 1)
        assert len(fetched) == 2
        outcomes = [
            engine.run_pair(i, j) for i, j in enumerate_pairs(len(corpus))
        ]
        assert sorted(fetched) == sorted(
            model_digest(model) for model in corpus
        )
        assert [o.key() for o in outcomes] == [
            o.key() for o in match_all(corpus).outcomes
        ]
        assert models[0] is models[0]

    def test_rehydrate_miss_is_a_repro_error(self, corpus):
        """A coordinator with no text for a digest replies ``None``."""
        from repro.core.artifact_store import model_digest
        from repro.core.match_all import _PairEngine
        from repro.errors import ReproError

        models, _ = self._fetched(corpus, lambda digest, text: None)
        engine = _PairEngine(None, models, [m.id for m in corpus])
        with pytest.raises(ReproError, match="sent no SBML") as raised:
            engine.run_pair(0, 1)
        assert "'m1'" in str(raised.value)
        assert model_digest(corpus[0]) in str(raised.value)

    def test_blobless_entry_is_a_repro_error(self, corpus):
        """An empty reply carries no model either."""
        from repro.core.artifact_store import model_digest
        from repro.errors import ReproError

        models, _ = self._fetched(corpus, lambda digest, text: "")
        with pytest.raises(ReproError, match="sent no SBML") as raised:
            models[2]
        assert "'m3'" in str(raised.value)
        assert model_digest(corpus[2]) in str(raised.value)

    def test_wrong_digest_text_is_a_repro_error(self, corpus, monkeypatch):
        """A text that does not hash to its digest is refused before
        it is parsed."""
        import importlib

        from repro.core.artifact_store import model_digest
        from repro.errors import ReproError
        from repro.sbml.writer import write_sbml

        other = write_sbml(corpus[3])
        models, _ = self._fetched(corpus, lambda digest, text: other)
        parsed = []
        monkeypatch.setattr(
            importlib.import_module("repro.core.match_all"),
            "read_sbml",
            parsed.append,
        )
        with pytest.raises(
            ReproError, match="does not hash to that digest"
        ) as raised:
            models[0]
        assert parsed == []
        assert "'m1'" in str(raised.value)
        assert model_digest(corpus[0]) in str(raised.value)


def _sweep_temp_dirs(root):
    return sorted(root.glob("sbmlcompose-sweep-*"))


class TestSupervisedWorkers:
    """``workers > 1`` runs on supervised worker processes: a worker
    death is stolen and retried, a poison pair is quarantined, and the
    private journal directory never outlives the call."""

    @pytest.fixture(autouse=True)
    def private_tempdir(self, tmp_path, monkeypatch):
        root = tmp_path / "tmp"
        root.mkdir()
        monkeypatch.setattr("tempfile.tempdir", str(root))
        return root

    def test_killed_worker_completes_through_a_steal(
        self, corpus, tmp_path, private_tempdir
    ):
        expected = [o.key() for o in match_all(corpus).outcomes]
        spec = chaos.ChaosSpec(
            tmp_path / "chaos",
            faults=[
                chaos.Fault(
                    site="pair-start",
                    action="kill",
                    match={"i": 1, "j": 2},
                    times=1,
                    key="kill-once",
                )
            ],
        )
        with chaos.active(spec):
            matrix = match_all(corpus, workers=2)
        assert (tmp_path / "chaos" / ".chaos-kill-once-tick0").exists()
        assert [o.key() for o in matrix.outcomes] == expected
        assert matrix.quarantined == 0
        assert _sweep_temp_dirs(private_tempdir) == []

    def test_poison_pair_is_quarantined_not_raised(
        self, corpus, tmp_path, private_tempdir
    ):
        expected = [
            o.key() for o in match_all(corpus).outcomes if (o.i, o.j) != (0, 3)
        ]
        spec = chaos.ChaosSpec(
            tmp_path / "chaos",
            faults=[
                chaos.Fault(
                    site="pair-start",
                    action="raise",
                    match={"i": 0, "j": 3},
                    times=None,
                    key="poison",
                )
            ],
        )
        with chaos.active(spec):
            matrix = match_all(corpus, workers=2)
        assert matrix.quarantined == 1
        assert [o.key() for o in matrix.outcomes] == expected
        assert _sweep_temp_dirs(private_tempdir) == []

    def test_private_journal_is_removed_when_the_sweep_raises(
        self, corpus, monkeypatch, private_tempdir
    ):
        from repro.core.coordinator import SweepCoordinator

        def fail(self):
            raise RuntimeError("coordinator failed")

        monkeypatch.setattr(SweepCoordinator, "run", fail)
        with pytest.raises(RuntimeError, match="coordinator failed"):
            match_all(corpus, workers=2)
        assert os.listdir(private_tempdir) == []

    def test_local_workers_neither_parse_nor_build_a_manifest(
        self, corpus, monkeypatch, private_tempdir
    ):
        """Local workers use the corpus they were forked with: with
        the SBML reader and the manifest build both broken, the
        screened 2-worker sweep still matches the inline sweep."""
        import importlib

        from repro.core.artifact_store import CorpusManifest

        expected = [o.key() for o in match_all(corpus).outcomes]

        def broken(*args, **kwargs):
            raise AssertionError("local sweep workers must not reach this")

        engine_module = importlib.import_module("repro.core.match_all")
        monkeypatch.setattr(engine_module, "read_sbml", broken)
        monkeypatch.setattr(CorpusManifest, "build", classmethod(broken))
        matrix = match_all(corpus, workers=2, prescreen=True)
        assert matrix.quarantined == 0
        assert [o.key() for o in matrix.outcomes] == expected
        assert os.listdir(private_tempdir) == []


class TestLocalSweepsOpenNoStore:
    """Local sweeps derive every per-model artifact in memory: no
    inline engine, local worker or CLI sweep constructs an artifact
    store, and ``sweep --out-dir D`` leaves no ``D/artifacts``.  Only
    the corpus index reads a store; remote workers open none either
    (``test_remote_sweep.py``)."""

    @pytest.fixture(autouse=True)
    def no_store(self, monkeypatch):
        from repro.core.artifact_store import ArtifactStore

        def refuse(self, root):
            raise AssertionError(
                f"a local sweep opened an artifact store at {root}"
            )

        monkeypatch.setattr(ArtifactStore, "__init__", refuse)

    @pytest.mark.parametrize("prescreen", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_api_sweeps(self, corpus, workers, prescreen):
        expected = [o.key() for o in match_all(corpus).outcomes]
        matrix = match_all(corpus, workers=workers, prescreen=prescreen)
        assert matrix.quarantined == 0
        assert [o.key() for o in matrix.outcomes] == expected
        sweep = _Sweep(corpus, None, workers, prescreen)
        parts = [
            sweep.run(shard.pairs)
            for shard in partition_pairs(sweep.sizes, 2)
        ]
        assert [o.key() for o in MatchMatrix.union(parts).outcomes] == (
            expected
        )

    @pytest.mark.parametrize("prescreen", [[], ["--prescreen"]])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_cli_out_dir_sweeps(
        self, corpus, tmp_path, capsys, workers, prescreen
    ):
        from repro.cli import main

        files = _write_corpus(corpus, tmp_path / "models")
        out_dir = tmp_path / "sweep"
        sharded = tmp_path / "sharded.csv"
        assert main(
            ["sweep", *files, "--shards", "2", "--out-dir", str(out_dir),
             "--workers", workers, *prescreen, "--deterministic",
             "-o", str(sharded)]
        ) == 0
        assert not (out_dir / "artifacts").exists()
        inline = tmp_path / "inline.csv"
        assert main(
            ["sweep", *files, "--deterministic", "-o", str(inline)]
        ) == 0
        assert sharded.read_bytes() == inline.read_bytes()


def _write_corpus(models, directory):
    from repro import write_sbml_file

    directory.mkdir()
    files = []
    for model in models:
        path = directory / f"{model.id}.xml"
        write_sbml_file(model, path)
        files.append(str(path))
    return files


class TestMatchAllSharded:
    """Sharded sweeps: ``sweep --shards K --out-dir D`` runs every
    shard it owes through one :class:`_Sweep`."""

    def test_shard_metadata_and_summary(self, corpus, tmp_path, capsys):
        from repro.cli import main

        files = _write_corpus(corpus, tmp_path / "models")
        assert main(
            ["sweep", *files, "--shards", "3", "--shard-id", "1",
             "--out-dir", str(tmp_path / "sweep")]
        ) == 0
        assert ", shard 1/3)" in capsys.readouterr().err

    @pytest.mark.parametrize("prescreen", [[], ["--prescreen"]])
    def test_one_engine_derives_each_model_once(
        self, tmp_path, monkeypatch, prescreen
    ):
        """Four shards, one engine: every model's artifacts and index
        rows are derived once per command, not once per shard that
        touches the model.  The models disagree on the value of ``k``,
        so the prescreen lets every pair of two models through."""
        from repro.cli import main
        from repro.core.compose import ModelIndexSet

        # The package re-exports the function under the module's name.
        engine = importlib.import_module("repro.core.match_all")
        corpus = [
            _module_model(f"m{n}", ["A", "B"], "k", value=0.1 * n)
            for n in range(1, 6)
        ]
        files = _write_corpus(corpus, tmp_path / "models")
        artifacts, rows = [], []
        compute = engine.compute_artifacts
        build = ModelIndexSet.build.__func__

        def counting_compute(model, *args, **kwargs):
            artifacts.append(model.id)
            return compute(model, *args, **kwargs)

        def counting_build(cls, model, *args, **kwargs):
            rows.append(model.id)
            return build(cls, model, *args, **kwargs)

        monkeypatch.setattr(engine, "compute_artifacts", counting_compute)
        monkeypatch.setattr(
            ModelIndexSet, "build", classmethod(counting_build)
        )
        assert main(
            ["sweep", *files, "--shards", "4", *prescreen,
             "--out-dir", str(tmp_path / "sweep")]
        ) == 0
        ids = sorted(model.id for model in corpus)
        assert sorted(artifacts) == ids
        assert sorted(rows) == ids

    def test_union_rejects_overlap(self, corpus):
        sweep = _Sweep(corpus, None, 1, False)
        shard = sweep.run(partition_pairs(sweep.sizes, 2)[0].pairs)
        with pytest.raises(ValueError):
            MatchMatrix.union([shard, shard])

    def test_csv_quotes_only_the_cells_that_need_it(self, tmp_path):
        from repro.core.match_all import (
            PairOutcome,
            read_outcomes_csv,
            write_outcomes_csv,
        )

        outcomes = [
            PairOutcome(0, 1, "m1", "m2", 7, 0.0, 1, 2, 0, 0),
            PairOutcome(0, 2, "m1", 'a,"b"\nc', 9, 0.0, 0, 3, 1, 0),
        ]
        path = tmp_path / "table.csv"
        write_outcomes_csv(path, outcomes, deterministic=True)
        assert path.read_bytes() == (
            b"i,j,left,right,combined_size,united,added,renamed,conflicts\n"
            b"0,1,m1,m2,7,1,2,0,0\n"
            b'0,2,m1,"a,""b""\nc",9,0,3,1,0\n'
        )
        assert read_outcomes_csv(path) == outcomes

    def test_union_round_trips_through_csv(self, corpus, tmp_path):
        from repro.core.match_all import (
            read_outcomes_csv,
            write_outcomes_csv,
        )

        matrix = match_all(corpus)
        full = tmp_path / "full.csv"
        write_outcomes_csv(full, matrix.outcomes)
        assert [o.key() for o in read_outcomes_csv(full)] == [
            o.key() for o in matrix.outcomes
        ]
        deterministic = tmp_path / "det.csv"
        write_outcomes_csv(deterministic, matrix.outcomes, deterministic=True)
        restored = read_outcomes_csv(deterministic)
        assert [o.key() for o in restored] == [o.key() for o in matrix.outcomes]
        assert all(o.seconds == 0.0 for o in restored)

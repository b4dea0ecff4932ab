"""Differential conformance matrix over every execution path.

The engine has several ways to compute the same composition: a
session fold, a balanced tree, the greedy-similarity plan, and the
all-pairs sweep — inline, sharded, prescreened and on supervised
worker processes, local or remote.  Each path exists for performance
or deployment shape — none of them is allowed to change the *answer*.
This matrix pins that guarantee differentially: every path is run over
the same corpora and compared against one reference, on composed ids,
id mappings, provenance and step records.

Equality strength per path:

* composed global ids, id mappings and provenance origins — identical
  across **all** plans (including greedy, which merges in a different
  order but must unite the same things);
* serialized model bytes — identical for every path that folds in
  input order (fold/tree).  The greedy plan reorders inputs, so its
  component *order* may differ while ids/content match;
* the **carried-index session** — every plan probes the phase bases
  its accumulator carries from step to step; merged bytes, each
  step's report, the merged report and provenance are identical to a
  test-side reference (``reference_session.reference_compose_all``)
  that rebuilds every phase index fresh on every step, on the
  corpora below and (a hypothesis property) on models whose colliding
  ids rename mid-plan;
* the sharded sweep — the union of any shard layout and worker count
  equals the unsharded sweep on every run-invariant field;
* the **prebuilt-index sweep** (the seventh path) — the engine, which
  materialises each model's twelve phase indexes once
  (``ModelIndexSet``) and merges through copy-on-write overlays, is
  byte-identical on the deterministic CSV to a test-side reference
  (``reference_sweep.reference_outcomes``) that calls
  ``Composer.compose_step(..., decide_only=True)`` without
  ``target_indexes`` for each pair.  A hypothesis property additionally
  pins ``OverlayIndex`` against a freshly built index — identical
  first-registration-wins hits for any interleaving of adds and
  probes, on real ``biomodels_like`` index rows, across all three
  index strategies;
* the **prescreened sweep** (the eighth path) — the signature
  prescreen prunes pairs whose outcome the twin-congruence check can
  synthesize and the pair engine never runs them; the resulting
  matrix is byte-identical to the full sweep on the deterministic
  CSV, in memory and shared across shards — and,
  on supervised workers, as ``match_all(workers=2, prescreen=True)``,
  as a ``sweep --prescreen --shards 2 --workers 2 --out-dir`` run and
  as a ``sweep --prescreen --listen`` run served by a loopback remote
  worker.  A hypothesis property states the safety side directly: a
  pruned pair is always one the full matcher composes with zero
  renames and zero conflicts;
* the **supervised and digest-shipped sweep** (the ninth path) —
  supervised local worker processes hold the corpus they were started
  with and derive its artifacts in memory; their matrix is
  byte-identical to the in-memory sweep on the deterministic CSV —
  through ``match_all``, through the coordinator directly, and (a
  hypothesis property) for any shard layout and worker count.  The
  engine that remote workers run — the same in-memory engine over a
  ``(label, digest)`` manifest instead of the corpus, each model
  fetched as canonical SBML text and parsed on first touch — is run
  in-process over every pair of a corpus and must produce the same
  bytes;
* the **remote supervised sweep** (the tenth path) — workers joined
  over loopback TCP (``sbmlcompose worker``) receive the manifest and
  compute shards through the framed socket transport and the
  digest-fetch protocol, mixed with a local pipe worker that holds
  the corpus, with one remote chaos-killed mid-shard and one pair
  quarantined as poison; the merged CSV is byte-identical to the
  unsharded in-memory sweep minus exactly the quarantined pair.
"""

import io
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from reference_session import reference_compose_all
from reference_sweep import reference_outcomes
from test_compose_properties import models as colliding_models

from repro import (
    ModelBuilder,
    compose_all,
    match_all,
    write_sbml,
)
from repro.cli import main
from repro.core import compose
from repro.core.artifact_store import corpus_fingerprint
from repro.core.compose import ModelIndexSet
from repro.core.index import OverlayIndex, make_index
from repro.core.match_all import (
    MatchMatrix,
    _Sweep,
    read_outcomes_csv,
    write_outcomes,
)
from repro.core.options import ComposeOptions
from repro.core.shards import partition_pairs
from repro.core.signature import Prescreen
from repro.corpus import generate_corpus
from repro.corpus.biomodels_like import generate_model
from repro.corpus.curated import (
    drug_inhibition,
    gene_expression,
    glycolysis_lower,
    glycolysis_upper,
    mapk_cascade,
)

PATHS = ["fold", "tree", "greedy"]

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def corpora():
    corpus = generate_corpus(seed=42)
    return {
        # The 10-model chain the compose benchmarks run.
        "chain": corpus[:: max(1, len(corpus) // 10)][:10],
        # Curated sample: the paper's flagship merges.
        "curated": [
            glycolysis_upper(),
            glycolysis_lower(),
            mapk_cascade(),
            drug_inhibition(),
            gene_expression(),
        ],
    }


def _run_path(path, models):
    """Execute one plan; returns (result, xml)."""
    result = compose_all(models, plan=path)
    return result, write_sbml(result.model)


def _semantic_signature(ids, mappings, provenance):
    return {
        "ids": sorted(ids),
        "mappings": dict(mappings),
        "origins": {
            key: sorted(entry.origins) for key, entry in provenance.items()
        }
        if provenance is not None
        else None,
    }


@pytest.fixture(scope="module")
def references(corpora):
    refs = {}
    for name, models in corpora.items():
        fold, fold_xml = _run_path("fold", models)
        refs[name] = {"models": models, "fold": fold, "fold_xml": fold_xml}
    return refs


@pytest.mark.parametrize("corpus_name", ["chain", "curated"])
@pytest.mark.parametrize("path", PATHS)
def test_conformance(path, corpus_name, references):
    ref = references[corpus_name]
    result, xml = _run_path(path, ref["models"])

    fold = ref["fold"]
    expected = _semantic_signature(
        fold.model.global_ids(), fold.report.mappings, fold.provenance
    )
    actual = _semantic_signature(
        result.model.global_ids(), result.report.mappings, result.provenance
    )
    assert actual == expected

    # Serialized bytes: identical for every input-order path.  The
    # greedy plan may reorder components (different merge order), but
    # its ids/mappings/provenance matched above.
    if path != "greedy":
        assert xml == ref["fold_xml"]


def _report_view(report):
    return (
        repr(report.duplicates),
        repr(report.renamed),
        repr(report.conflicts),
        repr(report.warnings),
        repr(report.mappings),
        report.summary(),
    )


def _session_view(result):
    return {
        "xml": write_sbml(result.model),
        "steps": [
            (step.index, step.left, step.right, _report_view(step.report))
            for step in result.steps
        ],
        "report": _report_view(result.report),
        "provenance": {
            key: (entry.id, entry.origins, entry.history)
            for key, entry in result.provenance.items()
        },
    }


@pytest.mark.parametrize("corpus_name", ["chain", "curated"])
@pytest.mark.parametrize("path", PATHS)
def test_carried_index_session_conformance(path, corpus_name, corpora):
    """Sessions probing carried phase bases must equal the reference
    that rebuilds every phase index on every step."""
    models = corpora[corpus_name]
    assert _session_view(compose_all(models, plan=path)) == _session_view(
        reference_compose_all(models, plan=path)
    )


@given(
    path=st.sampled_from(PATHS),
    models=st.lists(colliding_models(collide=True), min_size=2, max_size=6),
)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_carried_index_session_matches_reference_with_renames(path, models):
    """Colliding ids rename mid-plan, so the phases whose keys consult
    the mapping fall back to a fresh build in some steps and probe the
    carried base in others."""
    assert _session_view(compose_all(models, plan=path)) == _session_view(
        reference_compose_all(models, plan=path)
    )


@pytest.mark.parametrize("corpus_name", ["chain", "curated"])
@pytest.mark.parametrize(
    "shards,workers", [(2, 1), (5, 1), (2, 3), (2, 2)]
)
def test_sharded_sweep_conformance(corpus_name, shards, workers, corpora):
    """The sweep path of the matrix: any shard layout and fanout,
    every shard through one sweep, unions back to the unsharded
    engine, field for field."""
    models = corpora[corpus_name]
    reference = match_all(models)
    sweep = _Sweep(models, None, workers, False)
    parts = [
        sweep.run(shard.pairs)
        for shard in partition_pairs(sweep.sizes, shards)
    ]
    merged = MatchMatrix.union(parts)
    assert [o.key() for o in merged.outcomes] == [
        o.key() for o in reference.outcomes
    ]


# ---------------------------------------------------------------------------
# Seventh path: the prebuilt-index sweep
# ---------------------------------------------------------------------------


def _deterministic_csv(matrix) -> str:
    return _csv(matrix.outcomes)


def _csv(outcomes) -> str:
    handle = io.StringIO()
    write_outcomes(handle, outcomes, deterministic=True)
    return handle.getvalue()


@pytest.mark.parametrize("corpus_name", ["chain", "curated"])
def test_prebuilt_index_sweep_conformance(corpus_name, corpora):
    """Prebuilt per-model phase indexes (the engine) must be
    byte-identical to the fresh-index reference."""
    models = corpora[corpus_name]
    fresh = _csv(reference_outcomes(models))

    assert _deterministic_csv(match_all(models)) == fresh


def _renamed_twin(model, renamed):
    """A copy of ``model`` whose compartments and species in
    ``renamed`` take new ids but keep their labels as names, so they
    unite with the originals by name and map to different ids."""
    twin = model.copy()
    twin.id = "twin"
    mapping = {old: f"{old}_t" for old in renamed}
    for component in (*twin.compartments, *twin.species):
        if component.id in mapping:
            component.name = component.name or component.id
            component.id = mapping[component.id]
    for species in twin.species:
        species.compartment = mapping.get(species.compartment, species.compartment)
    for reaction in twin.reactions:
        for reference in (
            *reaction.reactants,
            *reaction.products,
            *reaction.modifiers,
        ):
            reference.species = mapping.get(reference.species, reference.species)
        law = reaction.kinetic_law
        if law is not None and law.math is not None:
            law.math = law.math.rename(mapping)
    return twin


@st.composite
def colliding_pairs(draw):
    """A target and a source for the bulk-claim property: independent
    colliding models, or the target and a twin of it with some ids
    renamed, and sometimes a species or reaction whose id repeats an
    earlier one of its own model."""
    first = draw(colliding_models(model_id="m1", collide=True))
    if draw(st.booleans()):
        second = draw(colliding_models(model_id="m2", collide=True))
    else:
        ids = [c.id for c in (*first.compartments, *first.species)]
        second = _renamed_twin(first, draw(st.sets(st.sampled_from(ids))))
    for model in (first, second):
        if draw(st.booleans()):
            # Appended past the builder, which rejects repeated ids.
            for components in (model.species, model.reactions):
                if components and draw(st.booleans()):
                    components.append(draw(st.sampled_from(components)).copy())
    return first, second


# The source's "cyto" compartment unites with the target's "cell" by
# name, so its species "cyto" probes and claims as "cell": a rename.
_MAPPED_ID_PAIR = (
    ModelBuilder("t").compartment("cell", size=1.0).species("A", 1.0).build(),
    ModelBuilder("s")
    .compartment("cell", size=1.0)
    .compartment("cyto", size=1.0, name="cell")
    .species("cyto", 1.0, compartment="cell")
    .build(),
)

# The source repeats a species id that misses the target: the second
# copy renames.
_REPEATED_ID_PAIR = (
    _MAPPED_ID_PAIR[0],
    ModelBuilder("s").compartment("cell", size=1.0).species("B", 1.0).build(),
)
_REPEATED_ID_PAIR[1].species.append(_REPEATED_ID_PAIR[1].species[0].copy())
# The source's compartment "sp0" renames to "sp0_m2", the id of the
# source's species, which then renames too.
_FRESH_ID_PAIR = (
    ModelBuilder("t").compartment("cell", size=1.0).species("sp0", 1.0).build(),
    ModelBuilder("s")
    .compartment("cell", size=1.0)
    .compartment("sp0", size=1.0)
    .species("sp0_m2", 1.0, compartment="cell")
    .build(),
)


@given(pair=colliding_pairs())
@example(pair=_MAPPED_ID_PAIR)
@example(pair=_REPEATED_ID_PAIR)
@example(pair=_FRESH_ID_PAIR)
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_bulk_claims_match_the_per_component_reference(pair):
    """The engine claims the species and reactions that miss the
    target in bulk; the reference decides every component one at a
    time.  On pairs whose ids collide across component types, with
    fresh rename ids and within one model, whose names repeat within
    a compartment, and whose ids map to different ones by name, the
    two agree on every run-invariant field under every semantics."""
    models = list(pair)
    for options in (
        ComposeOptions(),
        ComposeOptions.light(),
        ComposeOptions.structural(),
    ):
        assert [o.key() for o in match_all(models, options).outcomes] == [
            o.key() for o in reference_outcomes(models, options)
        ]


def test_disjoint_pair_decides_no_species_or_reaction_singly(monkeypatch):
    """Two models that share no key: the engine neither probes nor
    claims any species or reaction one at a time."""
    calls = Counter()
    current = [None]
    phases = []
    for name, phase in compose._PHASES:

        def timed(state, name=name, phase=phase):
            current[0] = name
            phase(state)

        phases.append((name, timed))
    monkeypatch.setattr(compose, "_PHASES", tuple(phases))
    claim_id = compose._MergeState.claim_id
    find = OverlayIndex.find

    def counting_claim(state, component_id):
        calls[current[0], "claim_id"] += 1
        return claim_id(state, component_id)

    def counting_find(index, keys):
        calls[current[0], "find"] += 1
        return find(index, keys)

    monkeypatch.setattr(compose._MergeState, "claim_id", counting_claim)
    monkeypatch.setattr(OverlayIndex, "find", counting_find)

    def chain(prefix):
        return (
            ModelBuilder(prefix)
            .compartment(f"{prefix}_cell", size=1.0)
            .species(f"{prefix}_A", 1.0)
            .species(f"{prefix}_B", 0.0)
            .species(f"{prefix}_C", 0.0)
            .parameter(f"{prefix}_k", 0.5)
            .mass_action(
                f"{prefix}_r1", [f"{prefix}_A"], [f"{prefix}_B"], f"{prefix}_k"
            )
            .mass_action(
                f"{prefix}_r2", [f"{prefix}_B"], [f"{prefix}_C"], f"{prefix}_k"
            )
            .build()
        )

    (outcome,) = match_all(
        [chain("left"), chain("right")], include_self=False
    ).outcomes
    assert (outcome.united, outcome.added, outcome.renamed) == (0, 7, 0)
    for phase in ("species", "reactions"):
        assert calls[phase, "claim_id"] == 0
        assert calls[phase, "find"] == 0
    # The other phases still decide one at a time.
    assert calls["compartments", "find"] == 1
    assert calls["parameters", "claim_id"] == 1


# ---------------------------------------------------------------------------
# Eighth path: the signature prescreen
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("corpus_name", ["chain", "curated"])
def test_prescreen_sweep_conformance(corpus_name, corpora):
    """The prescreened sweep — trivial pairs pruned by the twin
    congruence check and their rows synthesized from signatures — must
    be byte-identical to the full sweep: in memory, and as one sweep's
    prescreen driving every shard of a sharded sweep."""
    models = corpora[corpus_name]
    full = _deterministic_csv(match_all(models))

    screened = match_all(models, prescreen=True)
    assert _deterministic_csv(screened) == full

    # One prescreen shared across every shard of a sharded sweep: the
    # pair matrix is scored once, each shard prunes its own slice, the
    # union equals the unsharded full sweep.
    sweep = _Sweep(models, None, 1, True)
    parts = [
        sweep.run(shard.pairs) for shard in partition_pairs(sweep.sizes, 3)
    ]
    merged = MatchMatrix.union(parts)
    assert _deterministic_csv(merged) == full
    assert merged.pruned == screened.pruned


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_prescreen_never_prunes_a_matching_pair(seed):
    """The safety property behind the eighth path, stated directly:
    on any BioModels-like corpus, a pair the prescreen prunes is one
    the full matcher composes with zero renames and zero conflicts,
    uniting exactly the twins the signatures counted — so pruning can
    never hide a pair the full matcher would have matched
    non-trivially."""
    models = generate_corpus(count=4, seed=seed)
    screen = Prescreen.build(models, ComposeOptions())
    full = match_all(models)
    by_pair = {(o.i, o.j): o for o in full.outcomes}
    survivors = screen.survivors()
    pruned_pairs = [pair for pair in by_pair if not survivors[pair]]
    for i, j in pruned_pairs:
        outcome = by_pair[(i, j)]
        assert (outcome.renamed, outcome.conflicts) == (0, 0), (i, j)
        assert (
            outcome.united,
            outcome.added,
            outcome.renamed,
            outcome.conflicts,
        ) == screen.synthesized_counts(i, j), (i, j)
    # And the end-to-end restatement: the screened sweep's
    # run-invariant rows equal the full sweep's, pair for pair.
    screened = match_all(models, prescreen=True)
    assert [o.key() for o in screened.outcomes] == [
        o.key() for o in full.outcomes
    ]
    assert screened.pruned == len(pruned_pairs)


def _write_model_files(models, directory):
    directory.mkdir()
    paths = []
    for position, model in enumerate(models):
        path = directory / f"{position:02d}.xml"
        path.write_text(write_sbml(model), encoding="utf-8")
        paths.append(str(path))
    return paths


def test_prescreened_supervised_sweep_conformance(corpora, tmp_path):
    """The prescreen composes with supervision and with remote workers:
    on the chain corpus (the prescreen prunes some pairs and lets
    others through), a prescreened sweep on supervised workers is
    byte-identical on :meth:`PairOutcome.key` to the serial unscreened
    sweep — as ``match_all(workers=2, prescreen=True)``, as ``sweep
    --prescreen --shards 2 --workers 2 --out-dir`` and as a ``sweep
    --prescreen --listen`` run served by one loopback remote worker."""
    models = corpora["chain"]
    reference = [o.key() for o in match_all(models).outcomes]

    in_process = match_all(models, workers=2, prescreen=True)
    assert 0 < in_process.pruned < len(reference)
    assert [o.key() for o in in_process.outcomes] == reference

    files = _write_model_files(models, tmp_path / "models")
    sharded_csv = tmp_path / "sharded.csv"
    assert (
        main(
            [
                "sweep", *files, "--prescreen", "--shards", "2",
                "--workers", "2", "--out-dir", str(tmp_path / "sweep"),
                "-o", str(sharded_csv),
            ]
        )
        == 0
    )
    # Labels come from the model ids, as in the in-memory sweep.
    assert [o.key() for o in read_outcomes_csv(sharded_csv)] == reference

    listen_csv = tmp_path / "listen.csv"
    env = dict(os.environ, PYTHONPATH=SRC)
    coordinator = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "sweep", *files,
            "--prescreen", "--workers", "0", "--listen", "127.0.0.1:0",
            "-o", str(listen_csv),
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    worker = None
    try:
        port = None
        for line in coordinator.stderr:
            if line.startswith("listening for remote workers on "):
                port = line.rsplit(":", 1)[1].strip()
                break
        assert port is not None
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "worker",
                "--connect", f"127.0.0.1:{port}",
            ],
            env=env,
            stderr=subprocess.DEVNULL,
        )
        coordinator.communicate(timeout=120)
        assert worker.wait(timeout=60) == 0
    finally:
        for proc in (coordinator, worker):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
    assert coordinator.returncode == 0
    assert [o.key() for o in read_outcomes_csv(listen_csv)] == reference


# ---------------------------------------------------------------------------
# Ninth path: the supervised worker boundary and the digest-shipped engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("corpus_name", ["chain", "curated"])
def test_digest_shipped_sweep_conformance(corpus_name, corpora):
    """Supervised workers — which hold the corpus and derive its
    artifacts in memory — must be byte-identical to the in-memory
    sweep on the deterministic CSV, whole and as a sharded union."""
    models = corpora[corpus_name]
    reference = _deterministic_csv(match_all(models))

    assert _deterministic_csv(match_all(models, workers=2)) == reference
    # Sharded union.
    sweep = _Sweep(models, None, 2, False)
    parts = [
        sweep.run(shard.pairs) for shard in partition_pairs(sweep.sizes, 2)
    ]
    assert _deterministic_csv(MatchMatrix.union(parts)) == reference


def test_digest_shipped_supervised_sweep_conformance(corpora, tmp_path):
    """The ninth path through the coordinator and through the fetched
    corpus.  A coordinator's local workers hold the corpus, and its
    shard-CSV union is byte-identical to the in-memory unsharded
    sweep.  The engine remote workers run — over a pickled manifest,
    fetching every model's canonical SBML text from the manifest the
    coordinator holds — is run in-process over every pair and must
    produce the same bytes, so remote-style loading keeps an oracle
    without TCP."""
    import pickle

    from repro.core.artifact_store import CorpusManifest
    from repro.core.coordinator import CoordinatorConfig, SweepCoordinator
    from repro.core.match_all import _FetchedModels, _PairEngine
    from repro.core.session import stable_labels

    models = corpora["curated"]
    inline = match_all(models)
    reference = _deterministic_csv(inline)
    coordinator = SweepCoordinator(
        models,
        None,
        shards=2,
        out_dir=tmp_path / "sweep",
        fingerprint=corpus_fingerprint(models, extra=("shards", 2)),
        config=CoordinatorConfig(
            workers=2, worker_timeout=15.0, poll_interval=0.05
        ),
        progress=False,
    )
    report = coordinator.run()
    assert report.exit_code == 0
    merged = MatchMatrix.union(report.matrices)
    assert _deterministic_csv(merged) == reference

    manifest = CorpusManifest.build(models, stable_labels(models))
    assert manifest.fingerprint == corpus_fingerprint(models)
    texts = dict(zip(manifest.digests, manifest.texts))
    shipped = pickle.loads(pickle.dumps(manifest))
    fetched = _FetchedModels(shipped, texts.get)
    engine = _PairEngine(None, fetched, shipped.labels)
    result = [engine.run_pair(o.i, o.j) for o in inline.outcomes]
    assert _csv(result) == reference
    # Every model was parsed back from its text: none is the original.
    assert all(
        fetched[i] is not model for i, model in enumerate(models)
    )


def test_remote_supervised_sweep_conformance(corpora, tmp_path):
    """The tenth path: a mixed local + remote supervised sweep — one
    local pipe worker plus two loopback socket workers, one remote
    chaos-killed mid-shard (its shard stolen and retried) and one pair
    quarantined as poison — must still merge to a CSV byte-identical
    to the unsharded in-memory sweep minus exactly the quarantined
    pair.  Socket framing, the handshake, digest-fetch loading and
    steal/retry/quarantine are all on the wire here; none of them may
    leak into the answer."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from repro.core import chaos
    from repro.core.coordinator import (
        EXIT_QUARANTINED,
        CoordinatorConfig,
        SweepCoordinator,
    )

    models = corpora["curated"]
    poison = (1, 2)
    reference = match_all(models)
    expected = io.StringIO()
    write_outcomes(
        expected,
        [o for o in reference.outcomes if (o.i, o.j) != poison],
        deterministic=True,
    )

    out = tmp_path / "sweep"
    out.mkdir()
    spec = chaos.ChaosSpec(
        out,
        faults=[
            # Hold the local worker on its first shard so the remote
            # workers are guaranteed a share of the sweep.
            chaos.Fault(
                site="chunk-start",
                action="stall",
                match={"worker": "w1"},
                stall_seconds=4.0,
                times=1,
                key="hold-local",
            ),
            # SIGKILL the first remote worker as it starts a shard.
            chaos.Fault(
                site="chunk-start",
                action="kill",
                match={"worker": "r1"},
                times=1,
                key="kill-remote",
            ),
            # And one poison pair: fails on every attempt, every
            # worker, until quarantined.
            chaos.Fault(
                site="pair-start",
                action="raise",
                match={"i": poison[0], "j": poison[1]},
                times=None,
                key="poison",
            ),
        ],
    )
    coordinator = SweepCoordinator(
        models,
        None,
        shards=3,
        out_dir=out,
        fingerprint=corpus_fingerprint(models, extra=("shards", 3)),
        config=CoordinatorConfig(
            workers=1,
            worker_timeout=15.0,
            poll_interval=0.05,
            backoff_base=0.05,
            backoff_cap=0.2,
        ),
        progress=False,
        listen=("127.0.0.1", 0),
        local_workers=1,
    )
    _, port = coordinator.listen_address
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "worker",
        "--connect",
        f"127.0.0.1:{port}",
    ]
    with chaos.active(spec):
        # Snapshot the environment *inside* the armed block: active()
        # published REPRO_CHAOS, which arms the remote workers too.
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"),
        )
        procs = [subprocess.Popen(argv, env=env) for _ in range(2)]
        try:
            report = coordinator.run()
        finally:
            codes = []
            for proc in procs:
                try:
                    codes.append(proc.wait(timeout=60))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    codes.append(proc.wait())
    assert report.exit_code == EXIT_QUARANTINED
    # The killed remote had a shard leased — it was stolen and retried.
    assert report.steals >= 1
    assert [(e["i"], e["j"]) for e in report.quarantined] == [poison]
    # One remote died by SIGKILL, the other stopped cleanly.
    assert sorted(codes) == [-9, 0]
    merged = MatchMatrix.union(report.matrices)
    assert _deterministic_csv(merged) == expected.getvalue()
    # Remote workers fetched the corpus from memory: no store on disk.
    assert not (out / "artifacts").exists()


@given(
    seed=st.integers(min_value=0, max_value=1000),
    shards=st.integers(min_value=1, max_value=3),
    workers=st.integers(min_value=2, max_value=3),
)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_digest_shipped_invariant_over_shards_and_workers(
    seed, shards, workers
):
    """Shard layout and worker count must not leak into the
    supervised sweep: for any BioModels-like corpus, the union of
    any sharded sweep on supervised workers is byte-identical to the
    serial in-memory sweep."""
    models = generate_corpus(count=4, seed=seed)
    reference = _deterministic_csv(match_all(models))
    sweep = _Sweep(models, None, workers, False)
    parts = [
        sweep.run(shard.pairs)
        for shard in partition_pairs(sweep.sizes, shards)
    ]
    assert _deterministic_csv(MatchMatrix.union(parts)) == reference


# ---------------------------------------------------------------------------
# OverlayIndex vs fresh build: first-registration-wins invariance
# ---------------------------------------------------------------------------


def _model_rows(seed: int, n_nodes: int):
    """Real index rows — every phase's (keys, position) table — from a
    BioModels-like generated model, flattened to key lists."""
    rng = np.random.default_rng(seed)
    model = generate_model(seed, n_nodes, rng)
    index_set = ModelIndexSet.build(model)
    return [
        list(keys)
        for rows in index_set.rows.values()
        for _, keys in rows
        if keys
    ]


@st.composite
def overlay_runs(draw):
    seed = draw(st.integers(min_value=0, max_value=40))
    n_nodes = draw(st.integers(min_value=1, max_value=10))
    key_lists = _model_rows(seed, n_nodes)
    # Where the base freezes: everything before the split is the
    # prebuilt artifact, everything after arrives mid-merge through
    # the overlay's copy-on-write delta.
    split = draw(st.integers(min_value=0, max_value=len(key_lists)))
    # Interleave the post-freeze adds with probes of arbitrary keys
    # (drawn from the model's real keys plus misses).
    probe_pool = [key for keys in key_lists for key in keys] + ["id:<none>"]
    operations = []
    for position in range(split, len(key_lists)):
        operations.append(("add", key_lists[position]))
    probes = draw(
        st.lists(
            st.lists(st.sampled_from(probe_pool), min_size=1, max_size=3),
            max_size=12,
        )
    )
    for probe in probes:
        operations.append(("find", probe))
    operations = draw(st.permutations(operations))
    return key_lists[:split], operations


@given(overlay_runs())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_overlay_matches_fresh_index_on_model_rows(run):
    """For any freeze point and any interleaving of adds and probes,
    an OverlayIndex over a frozen base returns exactly what one
    freshly built index (base adds, then overlay adds, in order)
    returns — on every strategy, with real per-model index keys."""
    base_rows, operations = run
    for strategy in ("hash", "linear", "sorted"):
        base = make_index(strategy)
        fresh = make_index(strategy)
        serial = 0
        for keys in base_rows:
            base.add(keys, serial)
            fresh.add(keys, serial)
            serial += 1
        base.freeze()
        overlay = OverlayIndex(base, strategy)
        for action, keys in operations:
            if action == "add":
                overlay.add(keys, serial)
                fresh.add(keys, serial)
                serial += 1
            else:
                assert overlay.find(keys) == fresh.find(keys), (
                    strategy,
                    keys,
                )
        assert len(overlay) == len(fresh)

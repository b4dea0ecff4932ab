"""Differential conformance matrix over every execution path.

The engine now has many ways to compute the same composition: the
legacy ``compose(a, b)`` shim chained by hand, a session fold, a
balanced tree, the greedy-similarity plan, the parallel tree executor
on both backends, and the sharded all-pairs sweep.  Each path exists
for performance or deployment shape — none of them is allowed to
change the *answer*.  This matrix pins that guarantee differentially:
every path is run over the same corpora and compared against one
reference, on composed ids, id mappings, provenance and step records.

Equality strength per path:

* composed global ids, id mappings and provenance origins — identical
  across **all** paths (including greedy, which merges in a different
  order but must unite the same things);
* serialized model bytes — identical for every path that folds in
  input order (legacy/fold/tree/parallel×2).  The greedy plan reorders
  inputs, so its component *order* may differ while ids/content match;
* step records — identical between the serial tree and both parallel
  backends (scheduling must not leak into the record), and pairwise
  between the legacy shim chain and the session fold;
* the sharded sweep — the union of any shard layout equals the
  unsharded sweep on every run-invariant field, both when the
  per-model artifacts (including the pattern tables that seed the
  engine's PatternCache) are computed fresh and when they rehydrate
  from a populated artifact store;
* the **prebuilt-index sweep** (the seventh path) — the default
  engine, which materialises each model's twelve phase indexes once
  (``ModelIndexSet``) and merges through copy-on-write overlays, is
  byte-identical to the fresh-index sweep (``prebuilt_indexes=False``)
  on the deterministic CSV, and stays identical when the index rows
  rehydrate from a store — including a store holding *format-2*
  entries that predate the index artifact (their missing index table
  is computed lazily, not treated as corruption).  A hypothesis
  property additionally pins ``OverlayIndex`` against a freshly built
  index — identical first-registration-wins hits for any interleaving
  of adds and probes, on real ``biomodels_like`` index rows, across
  all three index strategies;
* the **prescreened sweep** (the eighth path) — the signature
  prescreen prunes pairs whose outcome the twin-congruence check can
  synthesize and the pair engine never runs them; the resulting
  matrix is byte-identical to the full sweep on the deterministic
  CSV, in memory, through a store (including format-3 entries that
  predate the signature artifact), and shared across shards.  A
  hypothesis property states the safety side directly: a pruned pair
  is always one the full matcher composes with zero renames and zero
  conflicts;
* the **digest-shipped sweep** (the ninth path) — process workers
  receive a ``(label, digest)`` manifest instead of the pickled
  corpus and rehydrate each model from the store's format-5 canonical
  SBML blob on first touch; the resulting matrix is byte-identical to
  the in-memory sweep on the deterministic CSV — plain pool and
  supervised coordinator, populating the store and rehydrating from
  it, through the escape hatch and the automatic temp store, and (a
  hypothesis property) for any shard layout and worker count;
* the **remote supervised sweep** (the tenth path) — workers joined
  over loopback TCP (``sbmlcompose worker``) compute shards through
  the framed socket transport and the digest-fetch protocol, mixed
  with a local pipe worker, with one remote chaos-killed mid-shard
  and one pair quarantined as poison; the merged CSV is byte-identical
  to the unsharded in-memory sweep minus exactly the quarantined
  pair.
"""

import io
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compose, compose_all, match_all, match_all_sharded, write_sbml
from repro.core.artifact_store import (
    ArtifactStore,
    compute_artifacts,
    corpus_fingerprint,
    model_digest,
)
from repro.core.compose import ModelIndexSet
from repro.core.index import OverlayIndex, make_index
from repro.core.match_all import MatchMatrix, write_outcomes
from repro.core.options import ComposeOptions
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

PATHS = [
    "legacy",
    "fold",
    "tree",
    "greedy",
    "parallel-thread",
    "parallel-process",
]


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
    """Execute one path; returns (result, xml) — result is None for
    the legacy chain, which has no session-level record."""
    if path == "legacy":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            accumulator = models[0]
            step_reports = []
            for model in models[1:]:
                accumulator, report = compose(accumulator, model)
                step_reports.append(report)
        return None, write_sbml(accumulator), step_reports
    plan = {"fold": "fold", "tree": "tree", "greedy": "greedy"}.get(path)
    if plan is not None:
        result = compose_all(models, plan=plan)
    elif path == "parallel-thread":
        result = compose_all(models, plan="tree", workers=3, backend="thread")
    elif path == "parallel-process":
        result = compose_all(models, plan="tree", workers=2, backend="process")
    else:  # pragma: no cover - matrix misconfiguration
        raise AssertionError(path)
    return result, write_sbml(result.model), [s.report for s in result.steps]


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
        fold, fold_xml, fold_reports = _run_path("fold", models)
        tree, tree_xml, _ = _run_path("tree", models)
        refs[name] = {
            "models": models,
            "fold": fold,
            "fold_xml": fold_xml,
            "fold_reports": fold_reports,
            "tree": tree,
            "tree_xml": tree_xml,
        }
    return refs


@pytest.mark.parametrize("corpus_name", ["chain", "curated"])
@pytest.mark.parametrize("path", PATHS)
def test_conformance(path, corpus_name, references):
    ref = references[corpus_name]
    result, xml, step_reports = _run_path(path, ref["models"])

    fold = ref["fold"]
    expected = _semantic_signature(
        fold.model.global_ids(), fold.report.mappings, fold.provenance
    )

    if result is not None:
        actual = _semantic_signature(
            result.model.global_ids(), result.report.mappings, result.provenance
        )
        assert actual == expected
    # The legacy chain has no session-level record; its final ids are
    # covered by the byte-identity check below and its per-step
    # reports by the report comparison at the end.

    # Serialized bytes: identical for every input-order path.  The
    # greedy plan may reorder components (different merge order), but
    # its ids/mappings/provenance matched above.
    if path != "greedy":
        reference_xml = (
            ref["tree_xml"] if path.startswith("parallel") else ref["fold_xml"]
        )
        assert xml == reference_xml

    # Step records: scheduling must not leak into the record.
    if path.startswith("parallel"):
        serial_steps = ref["tree"].steps
        assert [s.index for s in result.steps] == [
            s.index for s in serial_steps
        ]
        assert [(s.left, s.right) for s in result.steps] == [
            (s.left, s.right) for s in serial_steps
        ]
        for parallel_step, serial_step in zip(result.steps, serial_steps):
            assert _report_record(parallel_step.report) == _report_record(
                serial_step.report
            )
    if path == "legacy":
        assert len(step_reports) == len(ref["fold_reports"])
        for legacy_report, fold_report in zip(
            step_reports, ref["fold_reports"]
        ):
            assert _report_record(legacy_report) == _report_record(fold_report)


def _report_record(report):
    """The run-invariant content of one step's merge report."""
    return (
        sorted(str(d) for d in report.duplicates),
        report.total_added,
        dict(report.renamed),
        dict(report.mappings),
        sorted(str(c) for c in report.conflicts),
    )


@pytest.mark.parametrize("corpus_name", ["chain", "curated"])
@pytest.mark.parametrize(
    "shards,workers,backend",
    [(2, 1, "thread"), (5, 1, "thread"), (2, 3, "thread"), (2, 2, "process")],
)
def test_sharded_sweep_conformance(
    corpus_name, shards, workers, backend, corpora, tmp_path
):
    """The sweep path of the matrix: any shard layout and fanout
    unions back to the unsharded engine, field for field."""
    models = corpora[corpus_name]
    reference = match_all(models)
    parts = [
        match_all_sharded(
            models,
            shards=shards,
            shard_id=shard_id,
            workers=workers,
            backend=backend,
            store=tmp_path / "artifacts",
        )
        for shard_id in range(shards)
    ]
    merged = MatchMatrix.union(parts)
    assert [o.key() for o in merged.outcomes] == [
        o.key() for o in reference.outcomes
    ]
    # Second pass over the now-populated store: every per-model
    # artifact — including the canonical pattern tables that seed the
    # pair engine's PatternCache — rehydrates from disk instead of
    # being computed, and the outcomes must not move.
    rehydrated = [
        match_all_sharded(
            models,
            shards=shards,
            shard_id=shard_id,
            workers=workers,
            backend=backend,
            store=tmp_path / "artifacts",
        )
        for shard_id in range(shards)
    ]
    assert [o.key() for o in MatchMatrix.union(rehydrated).outcomes] == [
        o.key() for o in reference.outcomes
    ]


# ---------------------------------------------------------------------------
# Seventh path: the prebuilt-index sweep
# ---------------------------------------------------------------------------


def _deterministic_csv(matrix) -> str:
    handle = io.StringIO()
    write_outcomes(handle, matrix.outcomes, deterministic=True)
    return handle.getvalue()


@pytest.mark.parametrize("corpus_name", ["chain", "curated"])
def test_prebuilt_index_sweep_conformance(corpus_name, corpora, tmp_path):
    """Prebuilt per-model phase indexes (the default engine) must be
    byte-identical to the fresh-index sweep — with indexes built in
    memory, rehydrated from a store, and rehydrated from a store whose
    entries predate the index artifact (format 2)."""
    models = corpora[corpus_name]
    fresh = _deterministic_csv(match_all(models, prebuilt_indexes=False))

    assert _deterministic_csv(match_all(models)) == fresh

    # Store-backed pass: rows are spilled on the first sweep and
    # rehydrated (pickle round-trip included) on the second.
    store_dir = tmp_path / "artifacts"
    assert _deterministic_csv(match_all(models, store=store_dir)) == fresh
    assert _deterministic_csv(match_all(models, store=store_dir)) == fresh

    # Format-2 pass: entries carry everything *except* index rows, as
    # written before store format 3.  They must rehydrate (computing
    # the index set lazily in the engine), not read as misses — and
    # the outcomes must not move.
    format2_dir = tmp_path / "format2"
    store = ArtifactStore(format2_dir)
    for model in models:
        artifacts = compute_artifacts(model, with_indexes=False)
        del artifacts.indexes  # the field did not exist in format 2
        path = store.path_for(model_digest(model))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            pickle.dumps({"format": 2, "artifacts": artifacts})
        )
    before = len(store)
    assert _deterministic_csv(match_all(models, store=format2_dir)) == fresh
    # Every model rehydrated (no entry was recomputed/overwritten as
    # a miss would force).
    assert len(store) == before


# ---------------------------------------------------------------------------
# Eighth path: the signature prescreen
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("corpus_name", ["chain", "curated"])
def test_prescreen_sweep_conformance(corpus_name, corpora, tmp_path):
    """The prescreened sweep — trivial pairs pruned by the twin
    congruence check and their rows synthesized from signatures — must
    be byte-identical to the full sweep: in memory, with signatures
    rehydrated from a store, and as one shared ``Prescreen`` instance
    driving every shard of a sharded sweep."""
    models = corpora[corpus_name]
    full = _deterministic_csv(match_all(models))

    screened = match_all(models, prescreen=True)
    assert _deterministic_csv(screened) == full

    # Store-backed pass: signatures spill as format-4 artifacts on the
    # first sweep and rehydrate (pickle round-trip included) on the
    # second.
    store_dir = tmp_path / "artifacts"
    assert (
        _deterministic_csv(match_all(models, prescreen=True, store=store_dir))
        == full
    )
    assert (
        _deterministic_csv(match_all(models, prescreen=True, store=store_dir))
        == full
    )

    # One Prescreen shared across every shard of a sharded sweep: the
    # pair matrix is scored once, each shard prunes its own slice, the
    # union equals the unsharded full sweep.
    screen = Prescreen.build(models, ComposeOptions())
    parts = [
        match_all_sharded(
            models, shards=3, shard_id=shard_id, prescreen=screen
        )
        for shard_id in range(3)
    ]
    merged = MatchMatrix.union(parts)
    assert _deterministic_csv(merged) == full
    assert merged.pruned == screened.pruned


def test_prescreen_with_pre_signature_store_entries(corpora, tmp_path):
    """Store format 4 added the model signature as a pure addition:
    format-3 entries (index rows but no ``signature`` field) must
    rehydrate as hits with that field ``None`` — the prescreen
    recomputes signatures locally — and the screened sweep must stay
    byte-identical without rewriting any entry."""
    models = corpora["chain"]
    full = _deterministic_csv(match_all(models))
    store_dir = tmp_path / "format3"
    store = ArtifactStore(store_dir)
    for model in models:
        artifacts = compute_artifacts(model, with_signature=False)
        del artifacts.signature  # the field did not exist in format 3
        path = store.path_for(model_digest(model))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"format": 3, "artifacts": artifacts}))
    before = len(store)
    assert (
        _deterministic_csv(match_all(models, prescreen=True, store=store_dir))
        == full
    )
    assert len(store) == before


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
    pruned_pairs = [
        pair for pair in by_pair if screen.should_prune(*pair)
    ]
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
    screened = match_all(models, prescreen=screen)
    assert [o.key() for o in screened.outcomes] == [
        o.key() for o in full.outcomes
    ]
    assert screened.pruned == len(pruned_pairs)


# ---------------------------------------------------------------------------
# Ninth path: the digest-shipped worker boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("corpus_name", ["chain", "curated"])
def test_digest_shipped_sweep_conformance(corpus_name, corpora, tmp_path):
    """The digest-shipped process pool — workers receive a ``(label,
    digest)`` manifest and rehydrate each model from the artifact
    store's format-5 SBML blob — must be byte-identical to the
    in-memory sweep on the deterministic CSV: populating the store,
    rehydrating from it, through the ``digest_shipping=False`` escape
    hatch, through the automatic temp store, and as a sharded union."""
    models = corpora[corpus_name]
    reference = _deterministic_csv(match_all(models))
    store_dir = tmp_path / "artifacts"

    # Plain pool over the manifest boundary, populating the store...
    assert (
        _deterministic_csv(
            match_all(models, workers=2, backend="process", store=store_dir)
        )
        == reference
    )
    # ...and a second pass rehydrating every artifact from it.
    assert (
        _deterministic_csv(
            match_all(models, workers=2, backend="process", store=store_dir)
        )
        == reference
    )
    # The escape hatch (--no-digest-shipping): the pickled-corpus
    # boundary must agree with the manifest boundary.
    assert (
        _deterministic_csv(
            match_all(
                models,
                workers=2,
                backend="process",
                store=store_dir,
                digest_shipping=False,
            )
        )
        == reference
    )
    # No explicit store: the sweep ships digests through a transient
    # temp store it cleans up afterwards.
    assert (
        _deterministic_csv(match_all(models, workers=2, backend="process"))
        == reference
    )
    # Sharded digest-shipped union.
    parts = [
        match_all_sharded(
            models,
            shards=2,
            shard_id=shard_id,
            workers=2,
            backend="process",
            store=store_dir,
        )
        for shard_id in range(2)
    ]
    assert _deterministic_csv(MatchMatrix.union(parts)) == reference


def test_digest_shipped_supervised_sweep_conformance(corpora, tmp_path):
    """The supervised half of the ninth path: the coordinator builds
    the manifest once, workers rehydrate from the sweep's own store,
    and the shard-CSV union is byte-identical to the in-memory
    unsharded sweep."""
    from repro.core.coordinator import CoordinatorConfig, SweepCoordinator

    models = corpora["curated"]
    reference = _deterministic_csv(match_all(models))
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
    # The manifest boundary was live — workers got digests, not models.
    assert coordinator.manifest is not None
    assert coordinator.manifest.fingerprint == corpus_fingerprint(models)
    merged = MatchMatrix.union(report.matrices)
    assert _deterministic_csv(merged) == reference


def test_remote_supervised_sweep_conformance(corpora, tmp_path):
    """The tenth path: a mixed local + remote supervised sweep — one
    local pipe worker plus two loopback socket workers, one remote
    chaos-killed mid-shard (its shard stolen and retried) and one pair
    quarantined as poison — must still merge to a CSV byte-identical
    to the unsharded in-memory sweep minus exactly the quarantined
    pair.  Socket framing, the handshake, digest-fetch rehydration and
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
    seed, shards, workers, tmp_path_factory
):
    """Shard layout and worker count must not leak into the
    digest-shipped sweep: for any BioModels-like corpus, the union of
    any sharded digest-shipped process sweep is byte-identical to the
    serial in-memory sweep."""
    models = generate_corpus(count=4, seed=seed)
    reference = _deterministic_csv(match_all(models))
    store_dir = tmp_path_factory.mktemp("digest-shipped-store")
    parts = [
        match_all_sharded(
            models,
            shards=shards,
            shard_id=shard_id,
            workers=workers,
            backend="process",
            store=store_dir,
        )
        for shard_id in range(shards)
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

"""Unit tests for the sbmlcompose CLI."""

import pytest

from repro import ModelBuilder, write_sbml, write_sbml_file
from repro.cli import main
from repro.units.definitions import Unit, UnitDefinition


@pytest.fixture
def model_files(tmp_path):
    a = (
        ModelBuilder("a")
        .compartment("cell", size=1.0)
        .species("A", 10.0)
        .species("B", 0.0)
        .parameter("k1", 0.5)
        .mass_action("r1", ["A"], ["B"], "k1")
        .build()
    )
    b = (
        ModelBuilder("b")
        .compartment("cell", size=1.0)
        .species("B", 0.0)
        .species("C", 0.0)
        .parameter("k2", 0.3)
        .mass_action("r2", ["B"], ["C"], "k2")
        .build()
    )
    path_a = tmp_path / "a.xml"
    path_b = tmp_path / "b.xml"
    write_sbml_file(a, path_a)
    write_sbml_file(b, path_b)
    return path_a, path_b


def test_merge_to_file(model_files, tmp_path, capsys):
    path_a, path_b = model_files
    out = tmp_path / "merged.xml"
    code = main(["merge", str(path_a), str(path_b), "-o", str(out)])
    assert code == 0
    assert out.exists()
    text = out.read_text()
    assert "<species" in text and 'id="C"' in text


def test_merge_writes_log(model_files, tmp_path):
    path_a, path_b = model_files
    out = tmp_path / "merged.xml"
    log = tmp_path / "merge.log"
    code = main(
        ["merge", str(path_a), str(path_b), "-o", str(out), "--log", str(log)]
    )
    assert code == 0
    assert "DUPLICATE" in log.read_text()


def test_merge_to_stdout(model_files, capsys):
    path_a, path_b = model_files
    assert main(["merge", str(path_a), str(path_b)]) == 0
    captured = capsys.readouterr()
    assert "<sbml" in captured.out
    assert "duplicate" in captured.err


def test_merge_semantics_flag(model_files, tmp_path):
    path_a, path_b = model_files
    out = tmp_path / "m.xml"
    assert main(
        ["merge", str(path_a), str(path_b), "-o", str(out),
         "--semantics", "none"]
    ) == 0
    # No matching: B from the second model is renamed, so 4 species.
    assert out.read_text().count("<species ") == 4


def test_diff_identical(model_files, capsys):
    path_a, _ = model_files
    assert main(["diff", str(path_a), str(path_a)]) == 0
    assert "equivalent" in capsys.readouterr().out


@pytest.fixture
def three_model_files(model_files, tmp_path):
    path_a, path_b = model_files
    c = (
        ModelBuilder("c")
        .compartment("cell", size=1.0)
        .species("C", 0.0)
        .species("D", 0.0)
        .parameter("k3", 0.1)
        .mass_action("r3", ["C"], ["D"], "k3")
        .build()
    )
    path_c = tmp_path / "c.xml"
    write_sbml_file(c, path_c)
    return path_a, path_b, path_c


def test_merge_three_models_with_tree_plan(three_model_files, tmp_path, capsys):
    path_a, path_b, path_c = three_model_files
    out = tmp_path / "merged3.xml"
    log = tmp_path / "merge3.log"
    code = main(
        ["merge", str(path_a), str(path_b), str(path_c),
         "-o", str(out), "--plan", "tree", "--log", str(log)]
    )
    assert code == 0
    text = out.read_text()
    for species_id in ("A", "B", "C", "D"):
        assert f'id="{species_id}"' in text
    # Per-step provenance is logged: step summaries on stderr, STEP +
    # PROVENANCE records in the log file.
    err = capsys.readouterr().err
    assert "step 1:" in err and "step 2:" in err
    log_text = log.read_text()
    assert "STEP 1:" in log_text
    assert "PROVENANCE" in log_text
    assert "PROVENANCE D <- c:D" in log_text


def test_sweep_to_terminal(three_model_files, capsys):
    path_a, path_b, path_c = three_model_files
    code = main(["sweep", str(path_a), str(path_b), str(path_c)])
    assert code == 0
    captured = capsys.readouterr()
    assert "a+b" in captured.out
    assert "pairs/s" in captured.err
    # 3 models with self-pairs -> 6 rows (+ header).
    assert len(captured.out.strip().splitlines()) == 7


def test_sweep_to_csv_no_self(three_model_files, tmp_path, capsys):
    path_a, path_b, path_c = three_model_files
    out = tmp_path / "pairs.csv"
    code = main(
        ["sweep", str(path_a), str(path_b), str(path_c),
         "--no-self", "--workers", "2", "-o", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("i,j,left,right,combined_size")
    assert len(lines) == 4  # header + C(3,2) pairs
    assert "3 pairs" in capsys.readouterr().err


def test_sweep_single_model_rejected(model_files, capsys):
    path_a, _ = model_files
    code = main(["sweep", str(path_a)])
    assert code == 2
    assert "at least two" in capsys.readouterr().err


@pytest.mark.parametrize("plan", ["fold", "tree", "greedy"])
def test_merge_plans_agree(three_model_files, tmp_path, plan):
    path_a, path_b, path_c = three_model_files
    out = tmp_path / f"merged_{plan}.xml"
    code = main(
        ["merge", str(path_a), str(path_b), str(path_c),
         "-o", str(out), "--plan", plan]
    )
    assert code == 0
    assert out.read_text().count("<species ") == 4


def test_merge_single_model_rejected(model_files, capsys):
    path_a, _ = model_files
    assert main(["merge", str(path_a)]) == 2
    assert "at least two" in capsys.readouterr().err


def test_diff_different(model_files, capsys):
    path_a, path_b = model_files
    assert main(["diff", str(path_a), str(path_b)]) == 1
    out = capsys.readouterr().out
    assert "MISSING" in out or "EXTRA" in out


def test_validate_ok(model_files, capsys):
    path_a, _ = model_files
    assert main(["validate", str(path_a)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_bad_model(tmp_path, capsys):
    from repro.sbml import Model, Species

    model = Model(id="bad")
    model.add_species(Species(id="X", compartment="ghost"))
    path = tmp_path / "bad.xml"
    write_sbml_file(model, path)
    assert main(["validate", str(path)]) == 1


def test_simulate_to_csv(model_files, tmp_path):
    path_a, _ = model_files
    out = tmp_path / "trace.csv"
    code = main(
        ["simulate", str(path_a), "--t-end", "2", "--steps", "50",
         "-o", str(out)]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("time,")


def test_simulate_to_terminal(model_files, capsys):
    path_a, _ = model_files
    assert main(["simulate", str(path_a), "--t-end", "1"]) == 0
    out = capsys.readouterr().out
    assert "final:" in out


@pytest.mark.parametrize(
    "flag,value",
    [("--steps", "0"), ("--steps", "-3"), ("--t-end", "nan"),
     ("--t-end", "inf")],
)
def test_simulate_rejects_bad_arguments_by_name(
    model_files, capsys, flag, value
):
    path_a, _ = model_files
    assert main(["simulate", str(path_a), flag, value]) == 2
    err = capsys.readouterr().err
    name = flag[2:].replace("-", "_")
    assert err.startswith(f"error: {name} must be")
    assert f"got {value}" in err


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_store_verify_on_a_non_store_is_an_error(tmp_path, capsys, kind):
    """A mistyped path must not read as a clean audit; an existing empty
    directory is still a clean store with no entries."""
    target = tmp_path / "nosuchdir"
    if kind == "file":
        target = tmp_path / "afile"
        target.write_text("not an artifact store")
    assert main(["store", "verify", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(target) in err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["store", "verify", str(empty)]) == 0
    assert capsys.readouterr().out == "0 entries, 0 ok\n"


def test_split(tmp_path, monkeypatch, capsys):
    model = (
        ModelBuilder("two")
        .compartment("cell", size=1.0)
        .species("A", 1.0).species("B", 0.0)
        .species("X", 1.0).species("Y", 0.0)
        .parameter("k1", 1.0).parameter("k2", 1.0)
        .mass_action("ab", ["A"], ["B"], "k1")
        .mass_action("xy", ["X"], ["Y"], "k2")
        .build()
    )
    path = tmp_path / "two.xml"
    write_sbml_file(model, path)
    monkeypatch.chdir(tmp_path)
    assert main(["split", str(path), "--out-prefix", "piece"]) == 0
    assert (tmp_path / "piece0.xml").exists()
    assert (tmp_path / "piece1.xml").exists()


def test_missing_file_error(capsys):
    assert main(["validate", "/nonexistent/model.xml"]) == 2
    assert "error" in capsys.readouterr().err


def test_strict_merge_conflict(tmp_path):
    a = (
        ModelBuilder("a").compartment("cell", size=1.0)
        .species("X", 1.0).build()
    )
    b = (
        ModelBuilder("b").compartment("cell", size=1.0)
        .species("X", 2.0).build()
    )
    pa, pb = tmp_path / "a.xml", tmp_path / "b.xml"
    write_sbml_file(a, pa)
    write_sbml_file(b, pb)
    assert main(["merge", str(pa), str(pb), "--strict"]) == 2


def test_sweep_status_progression(three_model_files, tmp_path, capsys):
    """sweep-status reads the journal only: partial sweep → exit 1
    with pending shards listed, complete sweep → exit 0."""
    path_a, path_b, path_c = three_model_files
    out_dir = tmp_path / "sweepdir"
    assert main([
        "sweep", str(path_a), str(path_b), str(path_c),
        "--shards", "2", "--shard-id", "0", "--out-dir", str(out_dir),
    ]) == 0
    capsys.readouterr()

    assert main(["sweep-status", "--out-dir", str(out_dir)]) == 1
    out = capsys.readouterr().out
    assert "1/2 shard(s) complete" in out
    assert "shard 0: complete" in out
    assert "shard 1: pending" in out

    assert main([
        "sweep", str(path_a), str(path_b), str(path_c),
        "--shards", "2", "--shard-id", "1", "--out-dir", str(out_dir),
    ]) == 0
    capsys.readouterr()

    assert main(["sweep-status", "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "2/2 shard(s) complete" in out
    assert "pending" not in out


def test_sweep_status_does_not_touch_journal(three_model_files, tmp_path, capsys):
    path_a, path_b, path_c = three_model_files
    out_dir = tmp_path / "sweepdir"
    assert main([
        "sweep", str(path_a), str(path_b), str(path_c),
        "--shards", "2", "--out-dir", str(out_dir),
    ]) == 0
    journal = (out_dir / "checkpoint.json").read_bytes()
    assert main(["sweep-status", "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "checkpoint.json").read_bytes() == journal


def test_sweep_status_missing_journal(tmp_path, capsys):
    assert main(["sweep-status", "--out-dir", str(tmp_path / "nope")]) == 2
    assert "error" in capsys.readouterr().err


#: Shape breaks of a finished sweep's journal, by name.
_JOURNAL_BREAKS = {
    "not-an-object": lambda journal: 5,
    "completed-entry-not-an-object": lambda journal: {
        **journal, "completed": {"0": 7}
    },
    "completed-a-list": lambda journal: {**journal, "completed": []},
    "shard-count-a-string": lambda journal: {**journal, "shard_count": "two"},
}
#: Shape-broken quarantine sidecars, by name.
_BROKEN_SIDECARS = {
    "a-list": [],
    "pairs-a-number": {"pairs": 3},
    "pair-not-an-object": {"pairs": [1]},
    "pair-without-j": {"pairs": [{"i": 0}]},
}


@pytest.mark.parametrize(
    "broken, how, command",
    [
        ("checkpoint.json", how, command)
        for how in _JOURNAL_BREAKS
        for command in ("sweep-status", "sweep-merge", "resume")
    ]
    + [
        ("quarantine.json", how, command)
        for how in _BROKEN_SIDECARS
        for command in ("sweep-status", "resume-supervised")
    ],
)
def test_malformed_sweep_state_is_a_named_error(
    three_model_files, tmp_path, capsys, broken, how, command
):
    """A shape-broken journal (with no backup to fall back to) or
    quarantine sidecar is an ``error:`` naming the file, exit 2 —
    never a traceback."""
    import json

    paths = [str(path) for path in three_model_files]
    out_dir = tmp_path / "sweepdir"
    sweep = ["sweep", *paths, "--shards", "2", "--out-dir", str(out_dir)]
    assert main(sweep) == 0
    target = out_dir / broken
    if broken == "checkpoint.json":
        (out_dir / "checkpoint.json.bak").unlink()
        payload = _JOURNAL_BREAKS[how](json.loads(target.read_text()))
    else:
        payload = _BROKEN_SIDECARS[how]
    target.write_text(json.dumps(payload))
    capsys.readouterr()
    argv = {
        "sweep-status": ["sweep-status", "--out-dir", str(out_dir)],
        "sweep-merge": ["sweep-merge", "--out-dir", str(out_dir)],
        "resume": sweep + ["--resume"],
        "resume-supervised": sweep + ["--resume", "--workers", "2"],
    }[command]
    assert main(argv) == 2
    errors = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("error:")
    ]
    assert errors and str(target) in errors[-1]


def test_sweep_store_max_entries_is_a_usage_error(
    three_model_files, tmp_path, capsys
):
    """Sweeps keep no artifact store to evict from: local sweeps derive
    per-model artifacts in memory."""
    with pytest.raises(SystemExit) as raised:
        main(
            ["sweep", *map(str, three_model_files), "--shards", "2",
             "--out-dir", str(tmp_path / "sweep"),
             "--store-max-entries", "4"]
        )
    assert raised.value.code == 2
    assert (
        "unrecognized arguments: --store-max-entries 4"
        in capsys.readouterr().err
    )


def test_sweep_refuses_shard_arguments_out_of_range(
    three_model_files, tmp_path, capsys
):
    """A shard layout is refused before any model is read: no shards,
    or a shard id outside the layout, is a usage error (exit 2)."""
    sweep = ["sweep", *map(str, three_model_files),
             "--out-dir", str(tmp_path / "sweep")]
    for flags, problem in (
        (["--shards", "0"], "--shards must be at least 1"),
        (["--shards", "2", "--shard-id", "2"], "--shard-id must be in [0, 2)"),
        (["--shards", "2", "--shard-id", "-1"], "--shard-id must be in [0, 2)"),
    ):
        assert main([*sweep, *flags]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_resume_needs_out_dir(three_model_files, capsys, workers):
    """Without an out-dir there is no journal to resume from; the
    sweep must not silently rerun from scratch."""
    assert main(
        ["sweep", *map(str, three_model_files), "--resume",
         "--workers", workers]
    ) == 2
    assert "error: --resume needs --out-dir" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_out_dir_through_a_file_is_an_error(
    three_model_files, tmp_path, capsys, workers
):
    blocker = tmp_path / "afile"
    blocker.write_text("a file where the out-dir should be")
    assert main(
        ["sweep", *map(str, three_model_files), "--out-dir", str(blocker),
         "--workers", workers]
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(blocker) in err


def test_sweep_prescreen_byte_identical(three_model_files, tmp_path, capsys):
    """--prescreen is a pure go-faster knob: the deterministic CSV is
    byte-identical to the full sweep (the eighth conformance path, on
    the CLI)."""
    path_a, path_b, path_c = three_model_files
    full = tmp_path / "full.csv"
    screened = tmp_path / "screened.csv"
    assert main(
        ["sweep", str(path_a), str(path_b), str(path_c),
         "--deterministic", "-o", str(full)]
    ) == 0
    assert main(
        ["sweep", str(path_a), str(path_b), str(path_c),
         "--deterministic", "--prescreen", "-o", str(screened)]
    ) == 0
    err = capsys.readouterr().err
    assert screened.read_bytes() == full.read_bytes()
    assert "prescreen-synthesized" in err


# ---------------------------------------------------------------------------
# corpus index / corpus query
# ---------------------------------------------------------------------------


@pytest.fixture
def corpus_files(tmp_path):
    from repro.corpus import generate_corpus

    paths = []
    for position, model in enumerate(generate_corpus(count=8, seed=19)):
        path = tmp_path / f"c{position:02d}.xml"
        write_sbml_file(model, path)
        paths.append(path)
    return paths


def test_corpus_index_build_and_update(corpus_files, tmp_path, capsys):
    index_file = tmp_path / "corpus.idx"
    assert main(
        ["corpus", "index", *map(str, corpus_files[:5]),
         "--index", str(index_file)]
    ) == 0
    out = capsys.readouterr().out
    assert "5 model(s) (5 new, 0 refreshed)" in out
    # Incremental update: 3 new, 1 refreshed, nothing rebuilt.
    assert main(
        ["corpus", "index", *map(str, corpus_files[4:]),
         "--index", str(index_file)]
    ) == 0
    out = capsys.readouterr().out
    assert "8 model(s) (3 new, 1 refreshed)" in out


def test_corpus_query_byte_identical_to_linear_scan(
    corpus_files, tmp_path, capsys
):
    """The CI smoke contract: ``--top-k 0 --with-pruned
    --deterministic`` against the index equals a full linear scan,
    byte for byte."""
    index_file = tmp_path / "corpus.idx"
    assert main(
        ["corpus", "index", *map(str, corpus_files),
         "--index", str(index_file)]
    ) == 0
    indexed_csv = tmp_path / "indexed.csv"
    linear_csv = tmp_path / "linear.csv"
    assert main(
        ["corpus", "query", str(corpus_files[2]),
         "--index", str(index_file), "--top-k", "0", "--with-pruned",
         "--deterministic", "-o", str(indexed_csv)]
    ) == 0
    err = capsys.readouterr().err
    assert "prescreen-synthesized" in err
    assert main(
        ["corpus", "query", str(corpus_files[2]),
         "--linear", *map(str, corpus_files),
         "--deterministic", "-o", str(linear_csv)]
    ) == 0
    capsys.readouterr()
    assert indexed_csv.read_bytes() == linear_csv.read_bytes()


def test_corpus_index_store_through_a_file_is_an_error(
    corpus_files, tmp_path, capsys
):
    blocker = tmp_path / "afile"
    blocker.write_text("a file where the store should be")
    assert main(
        ["corpus", "index", *map(str, corpus_files[:3]),
         "--index", str(tmp_path / "corpus.idx"), "--store", str(blocker)]
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(blocker) in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_corpus_query_store_through_a_file_is_an_error(
    corpus_files, tmp_path, capsys, workers
):
    """A query matches its candidates in this process with no artifact
    store: ``--store`` (here a file) and ``--workers`` are usage errors."""
    blocker = tmp_path / "afile"
    blocker.write_text("a file where the store should be")
    with pytest.raises(SystemExit) as raised:
        main(
            ["corpus", "query", str(corpus_files[0]),
             "--linear", *map(str, corpus_files[1:4]),
             "--store", str(blocker), "--workers", workers]
        )
    assert raised.value.code == 2
    assert (
        f"unrecognized arguments: --store {blocker} --workers {workers}"
        in capsys.readouterr().err
    )


def test_corpus_query_top_k_limits_full_matches(
    corpus_files, tmp_path, capsys
):
    index_file = tmp_path / "corpus.idx"
    assert main(
        ["corpus", "index", *map(str, corpus_files),
         "--index", str(index_file)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["corpus", "query", str(corpus_files[4]),
         "--index", str(index_file), "--top-k", "1"]
    ) == 0
    captured = capsys.readouterr()
    assert "1 candidate(s) fully matched (top 1 of 4)" in captured.err
    # Pretty table: header + one matched row, pruned rows omitted.
    assert len(captured.out.strip().splitlines()) == 2


def test_corpus_query_needs_exactly_one_mode(corpus_files, capsys):
    assert main(["corpus", "query", str(corpus_files[0])]) == 2
    assert "--index or" in capsys.readouterr().err
    assert main(
        ["corpus", "query", str(corpus_files[0]),
         "--index", "x.idx", "--linear", str(corpus_files[1])]
    ) == 2


def test_corpus_index_semantics_mismatch_rejected(
    corpus_files, tmp_path, capsys
):
    index_file = tmp_path / "corpus.idx"
    assert main(
        ["corpus", "index", str(corpus_files[0]),
         "--index", str(index_file)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["corpus", "index", str(corpus_files[1]),
         "--index", str(index_file), "--semantics", "none"]
    ) == 2
    assert "different key options" in capsys.readouterr().err
    assert main(
        ["corpus", "query", str(corpus_files[0]),
         "--index", str(index_file), "--semantics", "none"]
    ) == 2


def test_unreadable_index_file_is_an_error_not_a_traceback(
    corpus_files, tmp_path, capsys
):
    index_file = tmp_path / "corpus.idx"
    assert main(
        ["corpus", "index", *map(str, corpus_files[:3]),
         "--index", str(index_file)]
    ) == 0
    options = index_file / "options.pkl"
    options.write_bytes(options.read_bytes()[:10])
    capsys.readouterr()
    for argv in (
        ["corpus", "query", str(corpus_files[0]),
         "--index", str(index_file)],
        ["corpus", "index", str(corpus_files[3]),
         "--index", str(index_file)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "options.pkl" in err and "rebuild" in err


def test_older_format_index_names_its_format_and_the_recovery(
    corpus_files, tmp_path, capsys
):
    index_file = tmp_path / "corpus.idx"
    assert main(
        ["corpus", "index", *map(str, corpus_files[:3]),
         "--index", str(index_file)]
    ) == 0
    manifest = index_file / "manifest.json"
    manifest.write_text(
        manifest.read_text().replace('"format": 3', '"format": 2')
    )
    capsys.readouterr()
    for argv in (
        ["corpus", "query", str(corpus_files[0]),
         "--index", str(index_file)],
        ["corpus", "index", str(corpus_files[3]),
         "--index", str(index_file)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "format-2 corpus index" in err
        assert "delete the directory and rerun `corpus index`" in err


def test_corpus_index_evict_and_store_pinning(
    corpus_files, tmp_path, capsys
):
    from repro.core.artifact_store import ArtifactStore
    from repro.core.corpus_index import CorpusIndex

    index_file = tmp_path / "corpus.idx"
    store_dir = tmp_path / "store"
    assert main(
        ["corpus", "index", *map(str, corpus_files),
         "--index", str(index_file), "--store", str(store_dir),
         "--evict-to", "6", "--store-max-entries", "0"]
    ) == 0
    captured = capsys.readouterr()
    assert "2 evicted" in captured.out
    assert "evicted 2 unpinned artifact store entries" in captured.err
    index = CorpusIndex.load(index_file)
    assert len(index) == 6
    # Exactly the index's 6 pinned entries survive in the store.
    store = ArtifactStore(store_dir)
    assert len(store) == 6
    for digest in index.digests():
        assert store.get(digest) is not None


def test_corpus_index_store_with_an_unreadable_entry(
    corpus_files, tmp_path, capsys
):
    """A directory in an entry's place is a corrupt miss: ``store
    verify`` reports it, and ``corpus index --store`` quarantines it
    and recomputes the entry instead of dying."""
    from repro.core.artifact_store import ArtifactStore, model_digest
    from repro.sbml.reader import read_sbml_file

    store_dir = tmp_path / "store"
    store = ArtifactStore(store_dir)
    digest = model_digest(read_sbml_file(corpus_files[0]).model)
    store.path_for(digest).mkdir(parents=True)
    assert main(["store", "verify", str(store_dir), "--keep-corrupt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "1 entry, 0 ok, 1 corrupt\n"
    assert f"corrupt: {digest}" in captured.err
    assert main(
        ["corpus", "index", str(corpus_files[0]),
         "--index", str(tmp_path / "corpus.idx"), "--store", str(store_dir)]
    ) == 0
    capsys.readouterr()
    assert (store_dir / ArtifactStore.CORRUPT_DIR / f"{digest}.pkl").is_dir()
    assert store.get(digest).signature is not None
    assert main(["store", "verify", str(store_dir)]) == 0


def test_worker_store_is_a_usage_error(tmp_path, capsys):
    """Remote workers keep no store: ``worker --store`` is gone."""
    with pytest.raises(SystemExit) as raised:
        main(["worker", "--connect", "127.0.0.1:9", "--store", str(tmp_path)])
    assert raised.value.code == 2
    assert "unrecognized arguments: --store" in capsys.readouterr().err


def test_corpus_query_stale_file_warns(corpus_files, tmp_path, capsys):
    index_file = tmp_path / "corpus.idx"
    assert main(
        ["corpus", "index", *map(str, corpus_files[:4]),
         "--index", str(index_file)]
    ) == 0
    # Rewrite one indexed file with different content.
    from repro.corpus import generate_corpus

    replacement = generate_corpus(count=8, seed=19)[6]
    write_sbml_file(replacement, corpus_files[1])
    capsys.readouterr()
    # c07 has blocked candidates among the first four (c01 included),
    # so the rewritten file is loaded for a full match and its digest
    # no longer matches the index entry.
    assert main(
        ["corpus", "query", str(corpus_files[7]),
         "--index", str(index_file), "--top-k", "0"]
    ) == 0
    assert "stale digest" in capsys.readouterr().err


def test_merge_deep_math_is_an_error_not_a_traceback(tmp_path, capsys):
    from repro import write_sbml

    shallow = (
        ModelBuilder("shallow")
        .compartment("cell", size=1.0)
        .species("A", 1.0)
        .species("B", 0.0)
        .mass_action("r1", ["A"], ["B"], "k1")
        .parameter("k1", 0.5)
        .build()
    )
    text = write_sbml(shallow)
    chain = "<apply><plus/>" * 5000 + "<ci>A</ci>" + "<cn>1</cn></apply>" * 5000
    start = text.index("<math", text.index("<kineticLaw"))
    start = text.index(">", start) + 1
    end = text.index("</math>", start)
    deep = tmp_path / "deep.xml"
    deep.write_text(text[:start] + chain + text[end:], encoding="utf-8")
    plain = tmp_path / "plain.xml"
    write_sbml_file(shallow, plain)
    assert main(["merge", str(deep), str(plain)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "kineticLaw of 'r1'" in err and "deeper than" in err


def _unreadable_model(tmp_path, kind):
    path = tmp_path / "bad.xml"
    if kind == "directory":
        path.mkdir()
        return path
    text = write_sbml(
        ModelBuilder("bad").compartment("cell", size=1.0).species("A", 1.0).build()
    )
    if kind == "bad number":
        marked = text.replace(
            'initialConcentration="1.0"', 'initialAmount="lots"'
        )
        assert marked != text
        path.write_text(marked, encoding="utf-8")
    else:
        marked = text.replace("<model", "<!-- café --><model", 1)
        path.write_bytes(marked.encode("latin-1"))
    return path


@pytest.mark.parametrize("kind", ["bad number", "latin-1", "directory"])
def test_unreadable_model_error_names_the_file(
    model_files, tmp_path, capsys, kind
):
    bad = _unreadable_model(tmp_path, kind)
    assert main(["merge", str(model_files[0]), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert "Traceback" not in err


def _zero_factor_model(tmp_path, exponent):
    model = (
        ModelBuilder("zero")
        .compartment("cell", size=1.0)
        .species("A", 1.0)
        .build()
    )
    model.unit_definitions.append(
        UnitDefinition("zero_unit", units=[Unit("litre", exponent, 0, 0.0)])
    )
    model.compartments[0].units = "zero_unit"
    path = tmp_path / f"zero{exponent}.xml"
    write_sbml_file(model, path)
    return path


def test_merge_zero_factor_unit_is_an_error_not_a_traceback(
    model_files, tmp_path, capsys
):
    zero = _zero_factor_model(tmp_path, -1)
    # Merged into an empty model, the unit is copied, never evaluated:
    # it is refused up front all the same, as sweep refuses it.
    empty = tmp_path / "empty.xml"
    write_sbml_file(ModelBuilder("empty").build(), empty)
    merged = tmp_path / "merged.xml"
    for first in (model_files[0], empty):
        assert main(["merge", str(first), str(zero), "-o", str(merged)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {zero}: unit definition 'zero_unit': ")
        assert "(0 * 10^0 * litre)^-1" in err
        assert "Traceback" not in err
        assert not merged.exists()


@pytest.mark.parametrize(
    "flags, out_dir",
    [
        ([], False),
        (["--prescreen"], False),
        (["--workers", "2"], False),
        (["--workers", "2"], True),
    ],
    ids=["full", "screened", "supervised", "supervised-out-dir"],
)
def test_sweep_zero_factor_unit_error_names_the_file(
    model_files, tmp_path, capsys, flags, out_dir
):
    # Every engine refuses the input before any pair runs: a supervised
    # sweep neither strikes nor quarantines the pairs that touch it.
    zero = _zero_factor_model(tmp_path, -1)
    quarantine = tmp_path / "qd" / "quarantine.json"
    if out_dir:
        flags = [*flags, "--out-dir", str(quarantine.parent)]
    assert main(["sweep", str(model_files[0]), str(zero), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {zero}: unit definition 'zero_unit': ")
    assert "(0 * 10^0 * litre)^-1" in err
    assert "Traceback" not in err
    assert "quarantined" not in err
    assert not quarantine.exists()


#: A model id the reader accepts that holds every character a CSV cell
#: must quote: a comma, a quote and a line break.
_ODD_ID = 'a,"b"\nc'
#: A model id holding a bare carriage return and nothing else a CSV
#: cell must quote (Python 3.10-3.12's writer leaves it bare unless
#: the line terminator holds ``\r``).
_CR_ID = "a\rb"


@pytest.mark.parametrize(
    "flags",
    [
        [],
        ["--workers", "2"],
        ["--shards", "2", "--out-dir", "D"],
        ["--shards", "2", "--out-dir", "D", "--workers", "2"],
    ],
    ids=["inline", "supervised", "sharded", "sharded-supervised"],
)
def test_sweep_csv_quotes_a_label_that_needs_it(
    model_files, tmp_path, capsys, flags
):
    import csv

    files = [str(model_files[0])]
    for odd_id in (_ODD_ID, _CR_ID):
        odd = tmp_path / f"odd{len(files)}.xml"
        write_sbml_file(
            ModelBuilder(odd_id).compartment("cell", size=1.0)
            .species("A", 1.0).build(),
            odd,
        )
        files.append(str(odd))
    flags = [str(tmp_path / flag) if flag == "D" else flag for flag in flags]
    table = tmp_path / "table.csv"
    assert main(
        ["sweep", *files, *flags, "--deterministic", "-o", str(table)]
    ) == 0
    with open(table, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert {len(row) for row in rows} == {9}
    assert [row[2:4] for row in rows[1:]] == [
        ["a", "a"], ["a", _ODD_ID], ["a", _CR_ID],
        [_ODD_ID, _ODD_ID], [_ODD_ID, _CR_ID], [_CR_ID, _CR_ID],
    ]
    assert b'"a\rb"' in table.read_bytes()
    if "--out-dir" in flags:
        merged = tmp_path / "merged.csv"
        assert main(
            ["sweep-merge", "--out-dir", str(tmp_path / "D"),
             "-o", str(merged)]
        ) == 0
        assert merged.read_bytes() == table.read_bytes()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage, problem",
    [
        (lambda cells: cells[:3], "3 cells where the header has 10"),
        (
            lambda cells: cells[:5] + ["x"] + cells[6:],
            "could not convert string to float: 'x'",
        ),
        (
            lambda cells: cells[:6] + ["x"] + cells[7:],
            "invalid literal for int() with base 10: 'x'",
        ),
    ],
    ids=["cut", "seconds", "united"],
)
def test_sweep_merge_names_the_line_of_a_malformed_row(
    three_model_files, tmp_path, capsys, damage, problem
):
    out_dir = tmp_path / "sweep"
    assert main(
        ["sweep", *map(str, three_model_files), "--shards", "2",
         "--out-dir", str(out_dir)]
    ) == 0
    shard = out_dir / "shard-0001-of-0002.csv"
    lines = shard.read_text(encoding="utf-8").splitlines()
    lines[-1] = ",".join(damage(lines[-1].split(",")))
    shard.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["sweep-merge", "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {shard}: line {len(lines)}: {problem}\n"


@pytest.mark.parametrize("exponent", [0, 1])
def test_merge_zero_factor_with_non_negative_exponent_composes(
    tmp_path, exponent
):
    # The compartment sizes differ in declared units, so the merge
    # tries to convert between litre and the zero-factor unit.
    zero = _zero_factor_model(tmp_path, exponent)
    litre = (
        ModelBuilder("litre")
        .compartment("cell", size=2.0)
        .species("A", 1.0)
        .build()
    )
    litre.compartments[0].units = "litre"
    partner = tmp_path / "litre.xml"
    write_sbml_file(litre, partner)
    for first, second in ((zero, partner), (partner, zero)):
        out = tmp_path / "merged.xml"
        assert main(["merge", str(first), str(second), "-o", str(out)]) == 0

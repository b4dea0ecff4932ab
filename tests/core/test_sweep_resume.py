"""Crash-recovery: a killed sharded sweep resumes where it stopped.

The kill is simulated by injecting an exception into the checkpoint
journal mid-sweep — after some shards have durably committed, while a
later shard is committing.  ``--resume`` must skip exactly the
journaled shards, recompute the rest, and the merged output must be
byte-identical to a never-interrupted run.
"""

import pytest

from repro import read_sbml_file, write_sbml_file
from repro.cli import main
from repro.core.match_all import _Sweep, read_outcomes_csv
from repro.core.shards import SweepCheckpoint, partition_pairs
from repro.corpus.curated import (
    drug_inhibition,
    glycolysis_lower,
    glycolysis_upper,
    mapk_cascade,
)

SHARDS = 3


@pytest.fixture
def model_files(tmp_path):
    models = [
        glycolysis_upper(),
        glycolysis_lower(),
        mapk_cascade(),
        drug_inhibition(),
    ]
    paths = []
    for index, model in enumerate(models):
        path = tmp_path / f"m{index}.xml"
        write_sbml_file(model, path)
        paths.append(str(path))
    return paths


def _kill_during_commit(monkeypatch, fail_on_shard):
    """Make ``mark_complete`` raise for one shard id — the process
    "dies" after that shard's result file hit disk but before the
    journal recorded it, the worst-ordered crash point."""
    original = SweepCheckpoint.mark_complete

    def dying_mark_complete(self, shard_id, result_file, pair_count):
        if shard_id == fail_on_shard:
            raise KeyboardInterrupt(f"killed during shard {shard_id} commit")
        return original(self, shard_id, result_file, pair_count)

    monkeypatch.setattr(SweepCheckpoint, "mark_complete", dying_mark_complete)


def _run_killed_sweep(model_files, out_dir, monkeypatch):
    with monkeypatch.context() as patch:
        _kill_during_commit(patch, fail_on_shard=1)
        with pytest.raises(KeyboardInterrupt):
            main(
                ["sweep", *model_files, "--shards", str(SHARDS),
                 "--out-dir", str(out_dir)]
            )


def test_resume_skips_completed_and_matches_uninterrupted(
    model_files, tmp_path, monkeypatch, capsys
):
    out_dir = tmp_path / "sweep"

    # First attempt dies while committing shard 1: shard 0 is
    # journaled, shard 1's CSV exists but is not journaled.
    _run_killed_sweep(model_files, out_dir, monkeypatch)
    capsys.readouterr()

    journal = SweepCheckpoint.read_journal(out_dir)
    assert sorted(int(k) for k in journal["completed"]) == [0]
    assert (out_dir / "shard-0001-of-0003.csv").is_file()  # torn commit

    # Resume: shard 0 must be skipped, shards 1 and 2 recomputed.
    recomputed = []
    original_run = _Sweep.run

    def tracking_run(self, pairs):
        recomputed.append(tuple(pairs))
        return original_run(self, pairs)

    with monkeypatch.context() as patch:
        patch.setattr(_Sweep, "run", tracking_run)
        code = main(
            ["sweep", *model_files, "--shards", str(SHARDS),
             "--out-dir", str(out_dir), "--resume"]
        )
    assert code == 0
    shards = partition_pairs(
        [read_sbml_file(path).model.network_size() for path in model_files],
        SHARDS,
    )
    assert recomputed == [shards[1].pairs, shards[2].pairs]
    err = capsys.readouterr().err
    assert "shard 0/3: already complete, skipping" in err
    assert SweepCheckpoint.read_journal(out_dir)["completed"].keys() == {
        "0", "1", "2"
    }

    # Merge the resumed sweep and diff against a never-interrupted
    # sharded run AND the unsharded deterministic sweep: byte-identical.
    merged = tmp_path / "merged.csv"
    assert main(["sweep-merge", "--out-dir", str(out_dir),
                 "-o", str(merged)]) == 0

    clean_dir = tmp_path / "clean"
    assert main(["sweep", *model_files, "--shards", str(SHARDS),
                 "--out-dir", str(clean_dir)]) == 0
    clean_merged = tmp_path / "clean_merged.csv"
    assert main(["sweep-merge", "--out-dir", str(clean_dir),
                 "-o", str(clean_merged)]) == 0

    unsharded = tmp_path / "unsharded.csv"
    assert main(["sweep", *model_files, "--deterministic",
                 "-o", str(unsharded)]) == 0

    merged_bytes = merged.read_bytes()
    assert merged_bytes == clean_merged.read_bytes()
    assert merged_bytes == unsharded.read_bytes()


def test_resume_recomputes_unjournaled_shard_file_identically(
    model_files, tmp_path, monkeypatch
):
    """A shard file that hit disk without its journal entry (the torn
    commit) is recomputed deterministically — same run-invariant rows."""
    out_dir = tmp_path / "sweep"
    _run_killed_sweep(model_files, out_dir, monkeypatch)
    torn = out_dir / "shard-0001-of-0003.csv"
    torn_keys = [o.key() for o in read_outcomes_csv(torn)]

    assert main(["sweep", *model_files, "--shards", str(SHARDS),
                 "--out-dir", str(out_dir), "--resume"]) == 0
    assert [o.key() for o in read_outcomes_csv(torn)] == torn_keys


def test_shard_by_shard_runs_accumulate_without_resume(
    model_files, tmp_path
):
    """The one-shard-per-machine workflow: each `--shard-id I` run
    joins the journaled sweep instead of resetting it, so K separate
    invocations without --resume add up to a mergeable sweep."""
    out_dir = tmp_path / "sweep"
    for shard_id in range(SHARDS):
        assert main(["sweep", *model_files, "--shards", str(SHARDS),
                     "--shard-id", str(shard_id),
                     "--out-dir", str(out_dir)]) == 0
    journal = SweepCheckpoint.read_journal(out_dir)
    assert sorted(int(k) for k in journal["completed"]) == list(range(SHARDS))

    merged = tmp_path / "merged.csv"
    assert main(["sweep-merge", "--out-dir", str(out_dir),
                 "-o", str(merged)]) == 0
    unsharded = tmp_path / "unsharded.csv"
    assert main(["sweep", *model_files, "--deterministic",
                 "-o", str(unsharded)]) == 0
    assert merged.read_bytes() == unsharded.read_bytes()


def test_sharded_sweep_honours_output_flag(model_files, tmp_path):
    """`sweep --shards K --out-dir D -o merged.csv` writes the merged
    table once every shard is complete — the -o flag is not dropped on
    the sharded path."""
    out_dir = tmp_path / "sweep"
    merged = tmp_path / "merged.csv"
    assert main(["sweep", *model_files, "--shards", "2",
                 "--out-dir", str(out_dir), "--deterministic",
                 "-o", str(merged)]) == 0
    unsharded = tmp_path / "unsharded.csv"
    assert main(["sweep", *model_files, "--deterministic",
                 "-o", str(unsharded)]) == 0
    assert merged.read_bytes() == unsharded.read_bytes()


def test_incomplete_sharded_sweep_defers_output(
    model_files, tmp_path, capsys
):
    out_dir = tmp_path / "sweep"
    merged = tmp_path / "merged.csv"
    assert main(["sweep", *model_files, "--shards", "3", "--shard-id", "0",
                 "--out-dir", str(out_dir), "-o", str(merged)]) == 0
    assert not merged.exists()
    assert "not written" in capsys.readouterr().err


def test_resume_refuses_different_corpus(model_files, tmp_path):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", *model_files, "--shards", "2",
                 "--out-dir", str(out_dir)]) == 0
    # Drop one model: different corpus fingerprint -> exit 2, not a
    # silently mixed sweep.
    code = main(["sweep", *model_files[:-1], "--shards", "2",
                 "--out-dir", str(out_dir), "--resume"])
    assert code == 2


def test_sweep_merge_reports_missing_shards(model_files, tmp_path):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", *model_files, "--shards", "3", "--shard-id", "0",
                 "--out-dir", str(out_dir)]) == 0
    code = main(["sweep-merge", "--out-dir", str(out_dir)])
    assert code == 2


# ---------------------------------------------------------------------------
# Chaos-driven robustness (journal format 2, supervision, quarantine)
# ---------------------------------------------------------------------------


def _chaos_spec_file(out_dir, faults):
    """Write a chaos spec JSON the CLI's --chaos flag can arm."""
    from repro.core import chaos

    out_dir.mkdir(parents=True, exist_ok=True)
    spec = chaos.ChaosSpec(out_dir, faults=faults)
    return str(spec.save(out_dir / "faults.json"))


def test_torn_checkpoint_write_recovers_on_resume(
    model_files, tmp_path, capsys
):
    """Simulated power loss mid-journal-write: half the new journal
    lands over the old one, the process dies.  --resume must recover
    from checkpoint.json.bak, losing at most the torn entry, and the
    finished sweep must still merge byte-identically."""
    from repro.core import chaos

    out_dir = tmp_path / "sweep"
    spec_file = _chaos_spec_file(
        out_dir,
        [
            # Skip the 'begin' write; tear the first completion commit.
            chaos.Fault(
                site="checkpoint-write",
                action="torn-write",
                match={"reason": "complete"},
                times=1,
                key="tear-commit",
            )
        ],
    )
    with pytest.raises(chaos.ChaosKill):
        main(["sweep", *model_files, "--shards", str(SHARDS),
              "--out-dir", str(out_dir), "--chaos", spec_file])
    capsys.readouterr()

    # The main journal is torn JSON; the backup is the last good write.
    raw = (out_dir / SweepCheckpoint.FILENAME).read_text()
    with pytest.raises(ValueError):
        import json

        json.loads(raw)
    assert (out_dir / SweepCheckpoint.BACKUP_FILENAME).is_file()

    # Resume recovers (with a warning) and completes the sweep.
    assert main(["sweep", *model_files, "--shards", str(SHARDS),
                 "--out-dir", str(out_dir), "--resume"]) == 0
    err = capsys.readouterr().err
    assert "recovered" in err

    merged = tmp_path / "merged.csv"
    assert main(["sweep-merge", "--out-dir", str(out_dir),
                 "-o", str(merged)]) == 0
    unsharded = tmp_path / "unsharded.csv"
    assert main(["sweep", *model_files, "--deterministic",
                 "-o", str(unsharded)]) == 0
    assert merged.read_bytes() == unsharded.read_bytes()


def test_supervised_sweep_survives_kill_and_poison(
    model_files, tmp_path, capsys
):
    """The acceptance scenario: a supervised 4-worker sweep with one
    worker SIGKILLed mid-shard and one poison pair completes without
    intervention; the merged CSV is byte-identical to the unsharded
    sweep minus the quarantined pair; sweep-status reports the steal,
    the retries and the quarantine and exits 3."""
    from repro.core import chaos

    out_dir = tmp_path / "sweep"
    spec_file = _chaos_spec_file(
        out_dir,
        [
            chaos.Fault(
                site="pair-start",
                action="kill",
                match={"i": 0, "j": 1},
                times=1,
                key="kill-once",
            ),
            chaos.Fault(
                site="pair-start",
                action="raise",
                match={"i": 1, "j": 3},
                times=None,
                key="poison",
            ),
        ],
    )
    merged = tmp_path / "merged.csv"
    code = main(
        ["sweep", *model_files, "--shards", str(SHARDS),
         "--out-dir", str(out_dir), "--workers", "4",
         "--worker-timeout", "20", "--chaos", spec_file,
         "--deterministic", "-o", str(merged)]
    )
    assert code == 3  # complete, but degraded by quarantine
    err = capsys.readouterr().err
    assert "QUARANTINED" in err

    # Merged CSV == unsharded sweep minus exactly the poison pair.
    unsharded = tmp_path / "unsharded.csv"
    assert main(["sweep", *model_files, "--deterministic",
                 "-o", str(unsharded)]) == 0
    capsys.readouterr()
    expected = [
        line
        for line in unsharded.read_text().splitlines(keepends=True)
        if not line.startswith("1,3,")
    ]
    assert merged.read_text().splitlines(keepends=True) == expected

    # sweep-status tells the whole story and exits 3.
    assert main(["sweep-status", "--out-dir", str(out_dir)]) == 3
    status = capsys.readouterr().out
    assert "quarantined: pair (1, 3)" in status
    assert "stolen" in status
    assert "retr" in status


def test_supervised_resume_completes_partial_sweep(model_files, tmp_path):
    """A supervised ``--workers 2 --resume`` over a sweep partially
    computed in-process finishes only the missing shards (the two
    paths share one journal)."""
    out_dir = tmp_path / "sweep"
    assert main(["sweep", *model_files, "--shards", str(SHARDS),
                 "--shard-id", "0", "--out-dir", str(out_dir)]) == 0
    assert main(
        ["sweep", *model_files, "--shards", str(SHARDS),
         "--out-dir", str(out_dir), "--resume", "--workers", "2"]
    ) == 0
    journal = SweepCheckpoint.read_journal(out_dir)
    assert sorted(int(k) for k in journal["completed"]) == list(range(SHARDS))

    merged = tmp_path / "merged.csv"
    assert main(["sweep-merge", "--out-dir", str(out_dir),
                 "-o", str(merged)]) == 0
    unsharded = tmp_path / "unsharded.csv"
    assert main(["sweep", *model_files, "--deterministic",
                 "-o", str(unsharded)]) == 0
    assert merged.read_bytes() == unsharded.read_bytes()


def test_sweep_rejects_incompatible_flags(model_files, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    # --listen drives every shard itself.
    assert main(["sweep", *model_files, "--shards", "2",
                 "--out-dir", str(out_dir), "--listen", "127.0.0.1:0",
                 "--shard-id", "0"]) == 2
    # A listen-only coordinator needs somewhere to listen.
    assert main(["sweep", *model_files, "--workers", "0"]) == 2
    # Shard layouts live in an out-dir.
    assert main(["sweep", *model_files, "--shards", "2",
                 "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert "drop --shard-id" in err
    assert "needs --listen" in err
    assert "--shards needs --out-dir" in err


def test_supervised_sweep_serialises_each_model_once(
    tmp_path, monkeypatch, capsys
):
    """A supervised sharded sweep writes each model's SBML once in
    this process, for the journal fingerprint."""
    import importlib

    from repro.corpus import generate_corpus

    store_module = importlib.import_module("repro.core.artifact_store")
    models = generate_corpus(count=8, seed=3)
    files = []
    for index, model in enumerate(models):
        path = tmp_path / f"m{index}.xml"
        write_sbml_file(model, path)
        files.append(str(path))
    written = []
    original = store_module.write_sbml

    def counting(model, *args, **kwargs):
        written.append(model.id)
        return original(model, *args, **kwargs)

    monkeypatch.setattr(store_module, "write_sbml", counting)
    out_dir = tmp_path / "sweep"
    assert main(["sweep", *files, "--shards", "2", "--workers", "2",
                 "--out-dir", str(out_dir), "--prescreen"]) == 0
    assert sorted(written) == sorted(model.id for model in models)


def test_listening_sweep_journal_resumes_in_process(model_files, tmp_path):
    """A listening coordinator journals under the corpus fingerprint
    any ``--out-dir`` sweep uses, so an in-process ``--resume`` picks
    up its journal, and it leaves no artifact store behind."""
    from repro.core.artifact_store import corpus_fingerprint
    from repro.sbml.reader import read_sbml_file

    out_dir = tmp_path / "sweep"
    assert main(["sweep", *model_files, "--shards", str(SHARDS),
                 "--workers", "1", "--listen", "127.0.0.1:0",
                 "--out-dir", str(out_dir)]) == 0
    assert not (out_dir / "artifacts").exists()
    journal = SweepCheckpoint.read_journal(out_dir)
    models = [read_sbml_file(path).model for path in model_files]
    assert journal["fingerprint"] == corpus_fingerprint(
        models,
        extra=("semantics", "heavy", "include_self", True,
               "shards", SHARDS),
    )
    assert sorted(int(k) for k in journal["completed"]) == list(range(SHARDS))
    merged = tmp_path / "merged.csv"
    assert main(["sweep", *model_files, "--shards", str(SHARDS),
                 "--out-dir", str(out_dir), "--resume", "--deterministic",
                 "-o", str(merged)]) == 0
    unsharded = tmp_path / "unsharded.csv"
    assert main(["sweep", *model_files, "--deterministic",
                 "-o", str(unsharded)]) == 0
    assert merged.read_bytes() == unsharded.read_bytes()

"""Deterministic pair-matrix sharding + the sweep checkpoint journal."""

import json

import pytest

from repro.core.shards import (
    Shard,
    SweepCheckpoint,
    SweepStateError,
    enumerate_pairs,
    pair_cost,
    partition_pairs,
    shard_result_filename,
)


class TestEnumeratePairs:
    def test_canonical_order(self):
        assert enumerate_pairs(3) == [
            (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
        ]

    def test_no_self(self):
        assert enumerate_pairs(3, include_self=False) == [
            (0, 1), (0, 2), (1, 2),
        ]

    def test_counts(self):
        n = 187
        assert len(enumerate_pairs(n)) == n * (n + 1) // 2  # 17,578
        assert len(enumerate_pairs(n, include_self=False)) == n * (n - 1) // 2


class TestPartitionPairs:
    def test_exact_cover(self):
        sizes = list(range(1, 12))
        for shard_count in (1, 2, 3, 7):
            shards = partition_pairs(sizes, shard_count)
            union = [pair for shard in shards for pair in shard.pairs]
            assert sorted(union) == enumerate_pairs(len(sizes))

    def test_single_shard_is_canonical_order(self):
        sizes = [3, 1, 4, 1, 5]
        (shard,) = partition_pairs(sizes, 1)
        assert list(shard.pairs) == enumerate_pairs(len(sizes))

    def test_deterministic(self):
        sizes = [7, 2, 9, 4, 6, 1]
        assert partition_pairs(sizes, 3) == partition_pairs(sizes, 3)

    def test_within_shard_order_is_canonical(self):
        sizes = list(range(2, 20))
        for shard in partition_pairs(sizes, 4):
            assert list(shard.pairs) == sorted(shard.pairs)

    def test_cost_balance(self):
        # Size-sorted corpus: late pairs dwarf early ones — the exact
        # regime block-cyclic dealing exists for.  Every shard must
        # land within 2x of the mean estimated cost.
        sizes = [i ** 2 for i in range(1, 40)]
        shards = partition_pairs(sizes, 5)
        mean = sum(shard.cost for shard in shards) / len(shards)
        for shard in shards:
            assert shard.cost < 2 * mean
            assert shard.cost > mean / 2

    def test_more_shards_than_pairs(self):
        shards = partition_pairs([5, 5], 7, include_self=False)
        assert len(shards) == 7
        assert sum(shard.pair_count for shard in shards) == 1

    def test_empty_corpus(self):
        shards = partition_pairs([], 3)
        assert all(shard.pair_count == 0 for shard in shards)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            partition_pairs([1, 2], 0)

    def test_shard_metadata(self):
        shards = partition_pairs([4, 4, 4], 2)
        assert [shard.shard_id for shard in shards] == [0, 1]
        assert all(shard.shard_count == 2 for shard in shards)
        assert all(
            isinstance(shard, Shard) and "shard" in shard.describe()
            for shard in shards
        )

    def test_cost_mirrors_plan_cost_model(self):
        assert pair_cost(10, 20) == 30.0
        assert pair_cost(0, 0) == 1.0  # floor: no pair is free


class TestSweepCheckpoint:
    def _checkpoint(self, tmp_path, fingerprint="f1", shard_count=3):
        return SweepCheckpoint(
            tmp_path, fingerprint=fingerprint, shard_count=shard_count
        )

    def test_fresh_begin_is_empty(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        assert checkpoint.begin() == {}
        assert checkpoint.path.is_file()
        assert checkpoint.missing_shards() == [0, 1, 2]

    def test_mark_complete_and_resume(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin()
        checkpoint.mark_complete(0, "shard-0.csv", 10)
        checkpoint.mark_complete(2, "shard-2.csv", 12)
        resumed = self._checkpoint(tmp_path)
        completed = resumed.begin(resume=True)
        assert completed == {0: "shard-0.csv", 2: "shard-2.csv"}
        assert resumed.missing_shards() == [1]

    def test_begin_without_resume_resets(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin()
        checkpoint.mark_complete(1, "shard-1.csv", 5)
        fresh = self._checkpoint(tmp_path)
        assert fresh.begin(resume=False) == {}
        assert fresh.missing_shards() == [0, 1, 2]

    def test_resume_rejects_fingerprint_mismatch(self, tmp_path):
        self._checkpoint(tmp_path, fingerprint="f1").begin()
        other = self._checkpoint(tmp_path, fingerprint="f2")
        with pytest.raises(SweepStateError):
            other.begin(resume=True)

    def test_resume_rejects_shard_count_mismatch(self, tmp_path):
        self._checkpoint(tmp_path, shard_count=3).begin()
        other = self._checkpoint(tmp_path, shard_count=4)
        with pytest.raises(SweepStateError):
            other.begin(resume=True)

    def test_resume_onto_empty_directory(self, tmp_path):
        # --resume on a fresh out-dir just starts from zero.
        checkpoint = self._checkpoint(tmp_path / "new")
        assert checkpoint.begin(resume=True) == {}

    def test_read_journal_missing(self, tmp_path):
        with pytest.raises(SweepStateError):
            SweepCheckpoint.read_journal(tmp_path)

    def test_read_journal_corrupt(self, tmp_path):
        (tmp_path / SweepCheckpoint.FILENAME).write_text("{not json")
        with pytest.raises(SweepStateError):
            SweepCheckpoint.read_journal(tmp_path)

    def test_read_journal_missing_keys(self, tmp_path):
        (tmp_path / SweepCheckpoint.FILENAME).write_text("{}")
        with pytest.raises(SweepStateError):
            SweepCheckpoint.read_journal(tmp_path)

    def test_journal_rewrite_is_atomic(self, tmp_path):
        # No stray temp files survive a successful rewrite.
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin()
        checkpoint.mark_complete(0, "shard-0.csv", 1)
        leftovers = [
            p for p in tmp_path.iterdir() if p.name.startswith(".checkpoint-")
        ]
        assert leftovers == []


class TestShardResultFilename:
    def test_zero_padded_and_sortable(self):
        assert shard_result_filename(0, 3) == "shard-0000-of-0003.csv"
        assert shard_result_filename(12, 128) == "shard-0012-of-0128.csv"
        names = [shard_result_filename(i, 11) for i in range(11)]
        assert names == sorted(names)


class TestJournalFormat2:
    """Leases, retry counters, the format version, and the backup."""

    def _checkpoint(self, tmp_path, fingerprint="f1", shard_count=3):
        return SweepCheckpoint(
            tmp_path, fingerprint=fingerprint, shard_count=shard_count
        )

    def test_writer_stamps_format(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin()
        data = json.loads(checkpoint.path.read_text())
        assert data["format"] == SweepCheckpoint.FORMAT == 2

    def test_formatless_journal_is_refused_with_advice(self, tmp_path):
        # A journal without a ``format`` key predates leases and retry
        # counters; it is refused by name, not read, and the advice is
        # to start over — which a non-resuming run then does.
        (tmp_path / SweepCheckpoint.FILENAME).write_text(
            json.dumps(
                {
                    "fingerprint": "f1",
                    "shard_count": 3,
                    "completed": {"1": {"file": "s1.csv", "pairs": 4}},
                }
            )
        )
        with pytest.raises(SweepStateError) as excinfo:
            self._checkpoint(tmp_path).begin(resume=True)
        message = str(excinfo.value)
        assert str(tmp_path / SweepCheckpoint.FILENAME) in message
        assert "without --resume" in message
        assert self._checkpoint(tmp_path).begin() == {}

    def test_newer_format_rejected(self, tmp_path):
        (tmp_path / SweepCheckpoint.FILENAME).write_text(
            json.dumps(
                {
                    "format": SweepCheckpoint.FORMAT + 1,
                    "fingerprint": "f1",
                    "shard_count": 3,
                    "completed": {},
                }
            )
        )
        with pytest.raises(SweepStateError) as excinfo:
            SweepCheckpoint.read_journal(tmp_path)
        assert "newer" in str(excinfo.value)

    def test_lease_round_trips_through_journal(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin()
        lease = checkpoint.acquire_lease(1, "worker-0", ttl=60.0)
        assert lease["expires_at"] > lease["acquired_at"]
        reopened = SweepCheckpoint.open(tmp_path)
        assert reopened.leases[1]["worker"] == "worker-0"
        checkpoint.release_lease(1)
        assert SweepCheckpoint.open(tmp_path).leases == {}

    def test_release_bumps_durable_retry_and_steal_counters(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin()
        checkpoint.acquire_lease(2, "worker-0", ttl=60.0)
        checkpoint.release_lease(2, retried=True, stolen=True)
        checkpoint.acquire_lease(2, "worker-1", ttl=60.0)
        checkpoint.release_lease(2, retried=True)
        assert checkpoint.retry_counts(2) == (2, 1)
        assert checkpoint.retry_counts(0) == (0, 0)
        # Counters are durable: a fresh reader sees the same story.
        assert SweepCheckpoint.open(tmp_path).retry_counts(2) == (2, 1)

    def test_reclaim_drops_only_expired_leases(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin()
        checkpoint.acquire_lease(0, "dead", ttl=-1.0)  # already lapsed
        checkpoint.acquire_lease(1, "alive", ttl=600.0)
        assert checkpoint.reclaim_expired_leases() == [0]
        assert set(checkpoint.leases) == {1}
        assert SweepCheckpoint.open(tmp_path).leases.keys() == {1}

    def test_resume_drops_expired_keeps_live_leases(self, tmp_path):
        first = self._checkpoint(tmp_path)
        first.begin()
        first.acquire_lease(0, "dead", ttl=-1.0)
        first.acquire_lease(1, "alive", ttl=600.0)
        resumed = self._checkpoint(tmp_path)
        resumed.begin(resume=True)
        assert set(resumed.leases) == {1}
        assert resumed.leases[1]["worker"] == "alive"

    def test_successful_write_preserves_previous_journal(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin()
        before = checkpoint.path.read_bytes()
        checkpoint.mark_complete(0, "s0.csv", 2)
        assert checkpoint.backup_path.read_bytes() == before

    def test_corrupt_main_recovers_from_backup(self, tmp_path, capsys):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin()
        checkpoint.mark_complete(0, "s0.csv", 2)
        checkpoint.mark_complete(1, "s1.csv", 3)
        # Tear the main journal: recovery loses at most the last entry.
        checkpoint.path.write_text(
            checkpoint.path.read_text()[:40], encoding="utf-8"
        )
        journal = SweepCheckpoint.read_journal(tmp_path)
        assert "recovered" in capsys.readouterr().err
        assert set(journal["completed"]) == {"0"}
        resumed = self._checkpoint(tmp_path)
        assert resumed.begin(resume=True) == {0: "s0.csv"}
        assert resumed.missing_shards() == [1, 2]

    def test_shape_broken_main_recovers_from_backup(self, tmp_path, capsys):
        """Valid JSON of the wrong shape is treated like a torn write:
        the backup is read instead."""
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.begin()
        checkpoint.mark_complete(0, "s0.csv", 2)
        checkpoint.mark_complete(1, "s1.csv", 3)
        journal = json.loads(checkpoint.path.read_text())
        journal["completed"]["1"] = 7
        checkpoint.path.write_text(json.dumps(journal))
        recovered = SweepCheckpoint.read_journal(tmp_path)
        assert "recovered" in capsys.readouterr().err
        assert set(recovered["completed"]) == {"0"}
        resumed = self._checkpoint(tmp_path)
        assert resumed.begin(resume=True) == {0: "s0.csv"}

    def test_both_copies_corrupt_raises_cleanly(self, tmp_path):
        (tmp_path / SweepCheckpoint.FILENAME).write_text("{torn")
        (tmp_path / SweepCheckpoint.BACKUP_FILENAME).write_text("{also torn")
        with pytest.raises(SweepStateError) as excinfo:
            SweepCheckpoint.read_journal(tmp_path)
        assert SweepCheckpoint.BACKUP_FILENAME in str(excinfo.value)

"""Sharding the all-pairs matrix + the resumable sweep journal.

The Figure 8 sweep is an upper-triangular pair matrix: 187 models is
17,578 merges, and real corpora grow quadratically from there.  Holme
et al.'s subnetwork hierarchies and the CRITERIA decomposition line of
work scale biochemical analyses by partitioning the *network*; an
all-pairs sweep is better partitioned along the *pair matrix* — every
pair is independent, so any partition of the pairs is a valid parallel
or distributed decomposition of the whole experiment.

:func:`partition_pairs` produces that partition deterministically:
pairs are enumerated in canonical order, grouped into cost-balanced
blocks (merge work is linear in both sides), and blocks are dealt
block-cyclic over the shards.  Block-cyclic matters because pair costs
are strongly ordered (the corpus is size-sorted, so late pairs dwarf
early ones):
contiguous range splits would give the last shard nearly all the work,
while dealing blocks round-robin gives every shard a slice of every
cost regime.  Any shard layout ``(K, i)`` is reproducible from the
corpus alone — no coordination state — so K machines can each run
``sbmlcompose sweep --shards K --shard-id i`` and the union of their
outputs is exactly one :func:`~repro.core.match_all.match_all`.

:class:`SweepCheckpoint` is the journal that makes a multi-shard sweep
*resumable*: it records the corpus fingerprint and which shards have
durably finished, so an interrupted sweep continues from the first
incomplete shard instead of restarting, and refuses to "resume" onto a
different corpus or shard layout.  Journal **format 2** additionally
records shard *leases* (who is computing a shard right now, and until
when) and per-shard retry/steal counters — the durable state behind
:class:`~repro.core.coordinator.SweepCoordinator`'s fault tolerance
and ``sweep-status``'s live reporting.  Every write keeps the
previous journal as ``checkpoint.json.bak``, so even a *torn* journal
write (power loss on a filesystem without atomic rename) loses at most
the final entry — ``--resume`` falls back to the backup and recomputes
the difference.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core import chaos
from repro.core.locking import FileLock
from repro.errors import ReproError

__all__ = [
    "Pair",
    "Shard",
    "SweepStateError",
    "SweepCheckpoint",
    "enumerate_pairs",
    "pair_cost",
    "partition_pairs",
    "shard_result_filename",
]

Pair = Tuple[int, int]

#: The per-shard tables of a journal and the types of the fields their
#: readers use.  A ``completed`` entry must name its result file; any
#: other field may be absent (its readers default it).
_JOURNAL_TABLES = {
    "completed": {"file": str, "pairs": int, "completed_at": (int, float)},
    "leases": {
        "worker": str,
        "acquired_at": (int, float),
        "expires_at": (int, float),
    },
    "retries": {"count": int, "steals": int},
}


def shard_result_filename(shard_id: int, shard_count: int) -> str:
    """The canonical result-CSV name for one shard of a sweep — the
    one spelling ``sweep``, the coordinator and ``sweep-merge`` agree
    on."""
    return f"shard-{shard_id:04d}-of-{shard_count:04d}.csv"

#: Blocks dealt to each shard.  More blocks balance cost better but
#: interleave the canonical order more finely; four per shard keeps
#: the worst shard within a few percent of the mean on the size-sorted
#: corpus while leaving blocks big enough to amortise dispatch.
_BLOCKS_PER_SHARD = 4


class SweepStateError(ReproError):
    """A sweep checkpoint cannot be (re)used: corpus or shard layout
    changed, the journal is unreadable, or shards are missing."""


def enumerate_pairs(count: int, include_self: bool = True) -> List[Pair]:
    """Every unordered pair ``(i, j)``, ``i <= j``, in canonical order.

    This is the one definition of sweep order; :func:`~repro.core.match_all.match_all`,
    the sharder and the merge tool all derive from it, which is what
    makes shard unions bit-comparable with unsharded sweeps.
    """
    return [
        (i, j)
        for i in range(count)
        for j in range(i, count)
        if include_self or i != j
    ]


def pair_cost(left_size: float, right_size: float) -> float:
    """Estimated work of composing one pair — linear in both sides
    (probe the source against the target, adopt what doesn't unite)."""
    return max(1.0, float(left_size) + float(right_size))


@dataclass(frozen=True)
class Shard:
    """One deterministic slice of a corpus's pair matrix."""

    shard_id: int
    shard_count: int
    #: This shard's pairs, in canonical sweep order.
    pairs: Tuple[Pair, ...]
    #: Estimated total cost (sum of :func:`pair_cost` over ``pairs``).
    cost: float

    @property
    def pair_count(self) -> int:
        return len(self.pairs)

    def describe(self) -> str:
        return (
            f"shard {self.shard_id}/{self.shard_count}: "
            f"{self.pair_count} pair(s), est. cost {self.cost:.0f}"
        )


def partition_pairs(
    sizes: Sequence[float],
    shard_count: int,
    *,
    include_self: bool = True,
    pairs: Optional[Sequence[Pair]] = None,
    runs=None,
) -> List[Shard]:
    """Partition the pair matrix of a corpus into ``shard_count``
    deterministic, cost-balanced shards.

    ``sizes`` are per-model size hints (``Model.network_size()`` in
    practice; any non-negative weights work).  The partition is a pure
    function of its arguments — every worker computes the same layout
    locally.  Shards may be empty when there are fewer pairs than
    shards; every pair appears in exactly one shard, and each shard's
    pairs stay in canonical sweep order.

    ``pairs`` partitions only those pairs (in canonical order) instead
    of every pair of the corpus.  ``runs`` — a boolean pair matrix
    such as a prescreen's ``survivors()`` — weighs the pairs it marks
    ``False`` at zero, so the shards balance on the work that actually
    runs rather than on pairs whose rows are synthesized.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be at least 1")
    if pairs is None:
        pairs = enumerate_pairs(len(sizes), include_self)
    costs = [
        pair_cost(sizes[i], sizes[j]) if runs is None or runs[i, j] else 0.0
        for i, j in pairs
    ]
    total = sum(costs)
    # Cut the canonical order into cost-balanced blocks...
    target = total / (shard_count * _BLOCKS_PER_SHARD) if total else 0.0
    blocks: List[List[int]] = []
    current: List[int] = []
    current_cost = 0.0
    for position, cost in enumerate(costs):
        current.append(position)
        current_cost += cost
        if current_cost >= target and len(blocks) < (
            shard_count * _BLOCKS_PER_SHARD - 1
        ):
            blocks.append(current)
            current = []
            current_cost = 0.0
    if current:
        blocks.append(current)
    # ...and deal the blocks cyclically over the shards.
    shard_pairs: List[List[Pair]] = [[] for _ in range(shard_count)]
    shard_costs = [0.0] * shard_count
    for block_index, block in enumerate(blocks):
        owner = block_index % shard_count
        shard_pairs[owner].extend(pairs[position] for position in block)
        shard_costs[owner] += sum(costs[position] for position in block)
    return [
        Shard(
            shard_id=shard_id,
            shard_count=shard_count,
            pairs=tuple(shard_pairs[shard_id]),
            cost=shard_costs[shard_id],
        )
        for shard_id in range(shard_count)
    ]


class SweepCheckpoint:
    """The journal of a sharded sweep, as ``checkpoint.json`` in the
    sweep's output directory.

    The journal records the corpus fingerprint
    (:func:`~repro.core.artifact_store.corpus_fingerprint`), the shard
    count, and one entry per *durably completed* shard (its result
    file and pair count).  :meth:`mark_complete` must be called only
    after the shard's result file is fully written: the journal is
    rewritten atomically (temp file + rename), so a sweep killed at
    any instant leaves either the old journal or the new one — never a
    torn file — and ``--resume`` trusts exactly the shards the journal
    names.  A shard whose result file was written but never journaled
    is simply recomputed; recomputation is deterministic, so the rerun
    overwrites it with identical content.

    **Format 2** adds two live-state tables a supervised sweep keeps
    durable alongside the completion records:

    * ``leases`` — shard id -> ``{worker, acquired_at, expires_at}``:
      who is computing the shard right now, and when their claim
      lapses.  A coordinator restarted over the directory reclaims
      expired leases automatically; unexpired foreign leases are
      honoured until they lapse.  Holder names are ``worker@host``
      (``w1@box-a`` for a local pipe worker, ``r1@box-b`` for a
      remote socket worker), so a journal read from any machine of a
      multi-host sweep shows *where* each shard is running.
    * ``retries`` — shard id -> ``{count, steals}``: how many attempts
      the shard has consumed and how many of those were reassignments
      away from a dead or stalled worker.  Kept after completion, so
      ``sweep-status`` still tells the story of a rocky sweep.

    Mutating writes take an advisory file lock
    (:class:`~repro.core.locking.FileLock` on ``checkpoint.lock``) so
    two workers on one host cannot interleave the read-merge-write,
    and each successful write first preserves the previous journal as
    ``checkpoint.json.bak`` — a torn main journal (simulated by the
    chaos harness's ``torn-write`` fault) recovers from the backup,
    losing at most the single entry the torn write carried.
    """

    FILENAME = "checkpoint.json"
    BACKUP_FILENAME = "checkpoint.json.bak"
    LOCK_FILENAME = "checkpoint.lock"
    #: Journal format this writer emits and the only one it reads.
    FORMAT = 2

    def __init__(
        self,
        out_dir: Union[str, Path],
        *,
        fingerprint: str,
        shard_count: int,
    ):
        self.out_dir = Path(out_dir)
        self.fingerprint = fingerprint
        self.shard_count = shard_count
        #: shard id -> {"file": result file name, "pairs": count}
        self.completed: Dict[int, Dict[str, object]] = {}
        #: shard id -> {"worker", "acquired_at", "expires_at"}
        self.leases: Dict[int, Dict[str, object]] = {}
        #: shard id -> {"count": attempts, "steals": reassignments}
        self.retries: Dict[int, Dict[str, int]] = {}

    @property
    def path(self) -> Path:
        return self.out_dir / self.FILENAME

    @property
    def backup_path(self) -> Path:
        return self.out_dir / self.BACKUP_FILENAME

    def _lock(self) -> FileLock:
        return FileLock(self.out_dir / self.LOCK_FILENAME)

    # ------------------------------------------------------------------
    # Journal I/O
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, out_dir: Union[str, Path]) -> "SweepCheckpoint":
        """Load a checkpoint from an existing journal — the entry
        point for tools that consume a sweep (``sweep-merge``) rather
        than produce one.  Raises :class:`SweepStateError` when the
        directory has no readable journal."""
        journal = cls.read_journal(out_dir)
        checkpoint = cls(
            out_dir,
            fingerprint=str(journal["fingerprint"]),
            shard_count=int(journal["shard_count"]),
        )
        checkpoint._adopt(journal)
        return checkpoint

    def _adopt(self, journal: Dict[str, object]) -> None:
        """Take a (normalised) journal dict as this instance's state."""
        self.completed = {
            int(shard_id): dict(entry)
            for shard_id, entry in journal["completed"].items()
        }
        self.leases = {
            int(shard_id): dict(entry)
            for shard_id, entry in journal["leases"].items()
        }
        self.retries = {
            int(shard_id): dict(entry)
            for shard_id, entry in journal["retries"].items()
        }

    @staticmethod
    def _parse_journal(path: Path) -> Dict[str, object]:
        """Read one journal copy.  A torn or shape-broken file raises
        :class:`ValueError` (so :meth:`read_journal` falls back to the
        backup); a format-less one raises :class:`SweepStateError`."""
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("the journal is not a JSON object")
        if "format" not in data:
            # Readable, but from before journals carried a format (no
            # leases or retry counters): not a torn write the backup
            # could repair.
            raise SweepStateError(
                f"{path} has no journal format (written by an older "
                f"version); rerun the sweep without --resume to start "
                f"it over"
            )
        for key in ("fingerprint", "shard_count", "completed"):
            if key not in data:
                raise ValueError(f"missing {key!r}")
        if not isinstance(data["format"], int):
            raise ValueError("'format' is not an integer")
        if data["format"] > SweepCheckpoint.FORMAT:
            raise ValueError(
                f"journal format {data['format']} is newer than this "
                f"version understands (max {SweepCheckpoint.FORMAT})"
            )
        if not isinstance(data["fingerprint"], str):
            raise ValueError("'fingerprint' is not a string")
        shard_count = data["shard_count"]
        if not isinstance(shard_count, int) or shard_count < 1:
            raise ValueError("'shard_count' is not a positive integer")
        data.setdefault("leases", {})
        data.setdefault("retries", {})
        for table, fields in _JOURNAL_TABLES.items():
            if not isinstance(data[table], dict):
                raise ValueError(f"{table!r} is not an object")
            for shard_id, entry in data[table].items():
                if not shard_id.isdecimal() or not isinstance(entry, dict):
                    raise ValueError(
                        f"{table!r} entry {shard_id!r} is not a shard id "
                        f"mapped to an object"
                    )
                if table == "completed" and "file" not in entry:
                    raise ValueError(f"completed shard {shard_id} names no file")
                for field, types in fields.items():
                    value = entry.get(field)
                    if value is not None and not isinstance(value, types):
                        raise ValueError(
                            f"{table!r} entry {shard_id}: {field!r} has "
                            f"the wrong type"
                        )
        return data

    @staticmethod
    def read_journal(out_dir: Union[str, Path]) -> Dict[str, object]:
        """Load and validate the raw journal of ``out_dir``.

        A corrupt (torn) main journal falls back to the
        ``checkpoint.json.bak`` backup the previous write preserved —
        at most the torn write's one entry is lost, and a resume
        recomputes it.  Only when both copies are unreadable does the
        journal raise :class:`SweepStateError`.
        """
        path = Path(out_dir) / SweepCheckpoint.FILENAME
        try:
            return SweepCheckpoint._parse_journal(path)
        except (OSError, ValueError) as exc:
            main_error = exc
        backup = Path(out_dir) / SweepCheckpoint.BACKUP_FILENAME
        try:
            data = SweepCheckpoint._parse_journal(backup)
        except (OSError, ValueError):
            if isinstance(main_error, FileNotFoundError):
                raise SweepStateError(
                    f"no sweep checkpoint at {path}; run `sweep "
                    f"--shards K --out-dir {Path(out_dir)}` first"
                ) from None
            raise SweepStateError(
                f"unreadable sweep checkpoint {path}: {main_error} "
                f"(and no readable {SweepCheckpoint.BACKUP_FILENAME} "
                f"backup)"
            ) from main_error
        print(
            f"warning: {path} is unreadable ({main_error}); recovered "
            f"from {backup} — completions since its last good write "
            f"will be recomputed",
            file=sys.stderr,
        )
        return data

    def begin(self, resume: bool = False) -> Dict[int, str]:
        """Open the journal; returns completed shards to skip.

        A fresh directory (or ``resume=False`` over any existing
        journal, readable or not) starts an empty journal.  With
        ``resume=True`` the existing journal is validated against this
        sweep's fingerprint and shard count — resuming onto a changed
        corpus or layout raises :class:`SweepStateError` instead of
        silently unioning incompatible shards — and the map of
        completed shard id -> result file name is returned.  Leases
        and retry counters are adopted as-is on resume; *expired*
        leases are dropped (their holders are gone), unexpired ones
        are kept for the coordinator to honour until they lapse.  An
        ``out_dir`` that cannot be written raises :class:`SweepStateError`.
        """
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            tempfile.TemporaryFile(dir=self.out_dir).close()
        except OSError as exc:
            raise SweepStateError(
                f"cannot write the sweep directory {self.out_dir}: {exc}"
            ) from exc
        existing: Optional[Dict[str, object]] = None
        if resume and (self.path.is_file() or self.backup_path.is_file()):
            existing = self.read_journal(self.out_dir)
        if existing is not None:
            if existing["fingerprint"] != self.fingerprint:
                raise SweepStateError(
                    f"cannot resume: {self.path} records a different "
                    f"corpus or sweep configuration"
                )
            if int(existing["shard_count"]) != self.shard_count:
                raise SweepStateError(
                    f"cannot resume: {self.path} was sharded "
                    f"{existing['shard_count']}-way, not "
                    f"{self.shard_count}-way"
                )
            self._adopt(existing)
            reclaimed = self.reclaim_expired_leases(write=False)
            if reclaimed:
                self._write(reason="lease")
        else:
            self.completed = {}
            self.leases = {}
            self.retries = {}
            self._write(reason="begin")
        return {
            shard_id: str(entry["file"])
            for shard_id, entry in sorted(self.completed.items())
        }

    # ------------------------------------------------------------------
    # Leases and retry counters (journal format 2)
    # ------------------------------------------------------------------

    def acquire_lease(
        self, shard_id: int, worker: str, ttl: float
    ) -> Dict[str, object]:
        """Record that ``worker`` (a ``name@host`` holder string) owns
        ``shard_id`` until now + ``ttl`` seconds.  The lease is
        observability *and* restart safety: a coordinator opening this
        journal later treats an unexpired lease as "someone may still
        be computing this" and an expired one as reclaimable.
        Timestamps are **wall clock** on purpose — they must compare
        meaningfully across hosts; the coordinator's in-process
        liveness and backoff clocks are monotonic instead."""
        now = time.time()
        lease = {
            "worker": worker,
            "acquired_at": now,
            "expires_at": now + float(ttl),
        }
        with self._lock():
            self.leases[shard_id] = lease
            self._write(reason="lease")
        return lease

    def release_lease(
        self,
        shard_id: int,
        *,
        retried: bool = False,
        stolen: bool = False,
    ) -> None:
        """Drop ``shard_id``'s lease; with ``retried``/``stolen`` also
        bump the shard's durable retry/steal counters (a dead or
        reclaimed worker's attempt)."""
        with self._lock():
            self.leases.pop(shard_id, None)
            if retried or stolen:
                entry = self.retries.setdefault(
                    shard_id, {"count": 0, "steals": 0}
                )
                if retried:
                    entry["count"] = int(entry["count"]) + 1
                if stolen:
                    entry["steals"] = int(entry["steals"]) + 1
            self._write(reason="lease")

    def reclaim_expired_leases(self, write: bool = True) -> List[int]:
        """Drop every lease whose ``expires_at`` has passed; returns
        the shard ids reclaimed."""
        now = time.time()
        reclaimed = [
            shard_id
            for shard_id, lease in self.leases.items()
            if float(lease.get("expires_at", 0.0)) <= now
        ]
        for shard_id in reclaimed:
            del self.leases[shard_id]
        if reclaimed and write:
            with self._lock():
                self._write(reason="lease")
        return reclaimed

    def retry_counts(self, shard_id: int) -> Tuple[int, int]:
        """``(attempt retries, steals)`` recorded for ``shard_id``."""
        entry = self.retries.get(shard_id, {})
        return int(entry.get("count", 0)), int(entry.get("steals", 0))

    def mark_complete(
        self, shard_id: int, result_file: str, pair_count: int
    ) -> None:
        """Record that ``shard_id``'s results are durably on disk.

        Call strictly *after* the result file is fully written — the
        journal entry is the commit point a resume trusts.

        The journal is re-read and merged before the atomic rewrite,
        so concurrent shard runs sharing one output directory (one
        machine per shard) do not erase each other's completion
        records; on one host the advisory file lock additionally
        serialises the whole read-merge-write, so two local workers
        cannot interleave a lost update at all.  Entries are
        deterministic, so the merge is idempotent; a multi-host write
        race lost despite the merge window is recovered by
        ``--resume`` recomputing that shard.
        """
        with self._lock():
            if self.path.is_file() or self.backup_path.is_file():
                try:
                    existing = self.read_journal(self.out_dir)
                except SweepStateError:
                    existing = None
                if (
                    existing is not None
                    and existing["fingerprint"] == self.fingerprint
                    and int(existing["shard_count"]) == self.shard_count
                ):
                    for done_id, entry in existing["completed"].items():
                        self.completed.setdefault(int(done_id), dict(entry))
                    for sid, entry in existing["retries"].items():
                        self.retries.setdefault(int(sid), dict(entry))
                    for sid, entry in existing["leases"].items():
                        sid = int(sid)
                        if sid != shard_id and sid not in self.completed:
                            self.leases.setdefault(sid, dict(entry))
            self.completed[shard_id] = {
                "file": result_file,
                "pairs": pair_count,
                "completed_at": time.time(),
            }
            # Completion subsumes the lease.
            self.leases.pop(shard_id, None)
            self._write(reason="complete")

    def missing_shards(self) -> List[int]:
        return [
            shard_id
            for shard_id in range(self.shard_count)
            if shard_id not in self.completed
        ]

    def _write(self, reason: str = "update") -> None:
        payload = {
            "format": self.FORMAT,
            "fingerprint": self.fingerprint,
            "shard_count": self.shard_count,
            "completed": {
                str(shard_id): entry
                for shard_id, entry in sorted(self.completed.items())
            },
            "leases": {
                str(shard_id): entry
                for shard_id, entry in sorted(self.leases.items())
            },
            "retries": {
                str(shard_id): entry
                for shard_id, entry in sorted(self.retries.items())
            },
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        # Preserve the previous good journal before any mutation of
        # the main file: the recovery point a torn main journal falls
        # back to.
        if self.path.is_file():
            backup_tmp = self.path.with_suffix(".bak-tmp")
            try:
                shutil.copy2(self.path, backup_tmp)
                os.replace(backup_tmp, self.backup_path)
            except OSError:
                pass
        if chaos.advice("checkpoint-write", "torn-write", reason=reason):
            # Simulated power loss on a non-atomic filesystem: half the
            # new journal lands over the old one, then the process
            # dies.  Recovery reads checkpoint.json.bak (preserved
            # above, exactly as on the real write path).
            self.path.write_text(text[: len(text) // 2], encoding="utf-8")
            raise chaos.ChaosKill(
                f"torn checkpoint write ({reason}) at {self.path}"
            )
        handle = tempfile.NamedTemporaryFile(
            "w",
            dir=self.out_dir,
            prefix=".checkpoint-",
            suffix=".json",
            delete=False,
            encoding="utf-8",
        )
        try:
            handle.write(text)
            handle.close()
            os.replace(handle.name, self.path)
        except BaseException:
            handle.close()
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

"""Fault-tolerant supervision for sharded all-pairs sweeps.

:func:`~repro.core.shards.partition_pairs` makes the Figure 8 sweep
*partitionable* and the
:class:`~repro.core.shards.SweepCheckpoint` journal makes it
*resumable*, but both assume a benign world: every worker finishes the
shard it started, and any crash takes the whole run down for a human
to ``--resume``.  At corpus scale that assumption fails in mundane
ways — a worker is OOM-killed mid-shard, a box stalls, one degenerate
pair reliably crashes whatever touches it — and the EDBT experiment
this repo reproduces (17,578 merges) is exactly the workload where
"rerun it and hope" stops being a strategy.

:class:`SweepCoordinator` closes that gap.  It drives N worker
*processes* over the deterministic shard partition and keeps the sweep
alive through the failures the chaos harness (:mod:`repro.core.chaos`)
can inject on demand:

* **Leases** — before a shard is handed to a worker, the coordinator
  records a lease (holder + expiry) in the format-2 journal.  A
  coordinator restarted over the same directory reclaims expired
  leases and honours unexpired foreign ones until they lapse, so two
  supervisors cannot silently double-compute a shard.
* **Heartbeats** — idle workers beat every ``heartbeat_interval``;
  busy workers' per-pair progress messages count as liveness.  A
  worker silent for ``worker_timeout`` seconds is declared stalled,
  SIGKILLed, and treated exactly like a crash.
* **Work stealing** — a dead or stalled worker's shard is released
  (``stolen`` counted in the journal) and reassigned to the next idle
  worker; pair outcomes already streamed back are kept, so the retry
  computes only the remainder.  Pair execution is deterministic, so a
  stolen shard's CSV is byte-identical to an undisturbed run's.
* **Bounded retry with backoff** — each failed shard attempt waits
  ``backoff_base * 2^(failures-1)`` seconds (capped, plus seeded
  deterministic jitter) before reassignment, and a shard that fails
  more than ``max_retries`` times without quarantine progress aborts
  the sweep with :class:`CoordinatorError` instead of looping forever.
* **Poison-pair quarantine** — every worker death or pair error is a
  *strike* against the pair that was running (workers announce each
  pair before computing it, so deaths are attributable).  A pair
  reaching ``poison_threshold`` strikes is quarantined: recorded with
  its captured traceback (or death report) in the ``quarantine.json``
  sidecar, excluded from every later assignment, and *absent* from the
  shard's result CSV.  The sweep then completes without it — degraded,
  reported (:meth:`MatchMatrix.summary`, ``sweep-status``), and
  distinguished by exit code :data:`EXIT_QUARANTINED`.

It is the one multi-worker sweep engine: ``match_all(...,
workers=N)`` (and ``sbmlcompose sweep --shard-id I --workers N``)
runs it over a private temporary directory with one work unit per
worker, and ``sbmlcompose sweep --workers N`` runs it over
``--out-dir`` (or a private directory without one).  Every worker
builds the inline sweep's engine and derives every per-model artifact
in memory.  Local
workers are handed the corpus the coordinator holds — inherited, not
copied, where processes fork — and never parse or serialise a model.
Remote workers receive a
:class:`~repro.core.artifact_store.CorpusManifest` of ``(label,
digest)`` pairs and fetch each model's canonical SBML text from the
coordinator's memory on first touch.  With a prescreen only the pairs
it lets through reach a worker: the rest get synthesized rows in their
shard's results up front.

Workers talk to the coordinator over per-worker duplex pipes polled
with :func:`multiprocessing.connection.wait` — deliberately *not* a
``multiprocessing.Queue``, whose background feeder thread can lose a
message when its process is SIGKILLed right after ``put``; a pipe
``send`` is synchronous, so every message the coordinator acts on was
fully written before the worker could die.

Workers need not be local: with ``listen=(host, port)`` the
coordinator also accepts **remote workers** (``sbmlcompose worker
--connect HOST:PORT``) over the framed socket transport
(:mod:`repro.core.transport`).  A socket worker speaks the *same*
announce-before-compute tuples as a pipe worker and sits behind the
same :class:`_WorkerHandle`, so leases, heartbeat timeouts, work
stealing, retry budgets and quarantine apply unchanged — a vanished
TCP peer reads as EOF exactly like a dead child process.  A remote
worker loads each model it touches through the in-protocol
**digest-fetch** request (``("fetch", digest)`` answered by ``("sbml",
digest, text)``), once per model.

Liveness and backoff clocks are **monotonic** (``time.monotonic``):
an NTP step on the coordinator host can neither spuriously kill a
healthy worker nor mask a real stall.  Wall-clock time appears only
where it must cross hosts — the journal lease ``expires_at`` and the
quarantine ledger's ``quarantined_at``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import socket as _socket
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core import chaos, transport
from repro.core.artifact_store import CorpusManifest
from repro.core.compose import ModelIndexSet
from repro.core.match_all import (
    MatchMatrix,
    PairOutcome,
    _FetchedModels,
    _PairEngine,
    _synthesized_outcome,
    write_outcomes_csv,
)
from repro.core.options import ComposeOptions
from repro.core.session import stable_labels
from repro.core.shards import (
    Pair,
    Shard,
    SweepCheckpoint,
    SweepStateError,
    partition_pairs,
    shard_result_filename,
)
from repro.core.signature import Prescreen
from repro.sbml.model import Model

__all__ = [
    "EXIT_QUARANTINED",
    "CoordinatorConfig",
    "CoordinatorError",
    "Quarantine",
    "SweepCoordinator",
    "SweepReport",
    "run_remote_worker",
]

#: Process exit status for "the sweep completed, but only by
#: quarantining poison pairs" — distinct from success (0) and from
#: error (2) so harnesses can tell a degraded-but-complete sweep apart.
EXIT_QUARANTINED = 3


class CoordinatorError(SweepStateError):
    """The supervised sweep could not be driven to completion (e.g. a
    shard exhausted its retry budget on failures no quarantine could
    absorb)."""


@dataclass
class CoordinatorConfig:
    """Supervision knobs for one :class:`SweepCoordinator` run."""

    #: Worker processes kept alive (dead workers are respawned).
    workers: int = 2
    #: Seconds of silence after which a worker is declared stalled and
    #: killed.  Busy workers refresh liveness with every per-pair
    #: message; idle workers heartbeat well inside this window.
    worker_timeout: float = 30.0
    #: Idle-worker heartbeat period; ``None`` derives a quarter of the
    #: timeout.
    heartbeat_interval: Optional[float] = None
    #: Shard lease time-to-live; ``None`` derives four timeouts.
    #: Running leases are renewed at their half-life, so only a dead
    #: *coordinator* lets one expire.
    lease_ttl: Optional[float] = None
    #: Failed attempts a shard may consume beyond its first, not
    #: counting attempts that ended in a fresh quarantine (those made
    #: durable progress: the poison pair is permanently excluded).
    max_retries: int = 3
    #: Strikes (deaths or errors attributed to one pair) that
    #: quarantine the pair.
    poison_threshold: int = 2
    #: Exponential backoff before a failed shard is reassigned:
    #: ``base * 2^(failures-1)`` seconds, capped, plus jitter.
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    #: Jitter fraction (0 disables).  The draw is a pure hash of
    #: ``(seed, shard, failure count)`` — reruns back off identically.
    backoff_jitter: float = 0.25
    #: Jitter seed.
    seed: int = 0
    #: Coordinator event-loop tick.
    poll_interval: float = 0.2

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be at least 1")

    @property
    def effective_heartbeat(self) -> float:
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        return max(0.05, self.worker_timeout / 4.0)

    @property
    def effective_lease_ttl(self) -> float:
        if self.lease_ttl is not None:
            return self.lease_ttl
        return self.worker_timeout * 4.0


class Quarantine:
    """The ``quarantine.json`` sidecar: every poison pair the sweep
    gave up on, with the evidence (strike count and the captured
    traceback or death report).  Loaded on resume so a quarantined
    pair stays excluded across coordinator restarts."""

    FILENAME = "quarantine.json"

    def __init__(self, out_dir: Union[str, Path]):
        self.out_dir = Path(out_dir)
        #: (i, j) -> entry dict, insertion-ordered.
        self.entries: Dict[Pair, Dict[str, object]] = {}

    @property
    def path(self) -> Path:
        return self.out_dir / self.FILENAME

    @classmethod
    def load(cls, out_dir: Union[str, Path]) -> "Quarantine":
        quarantine = cls(out_dir)
        try:
            payload = json.loads(quarantine.path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return quarantine
        except (OSError, ValueError) as exc:
            raise SweepStateError(
                f"unreadable quarantine sidecar {quarantine.path}: {exc}"
            ) from exc
        pairs = payload.get("pairs", []) if isinstance(payload, dict) else None
        if not isinstance(pairs, list) or not all(
            isinstance(entry, dict)
            and isinstance(entry.get("i"), int)
            and isinstance(entry.get("j"), int)
            for entry in pairs
        ):
            raise SweepStateError(
                f"malformed quarantine sidecar {quarantine.path}: expected "
                f'{{"pairs": [{{"i": int, "j": int, ...}}, ...]}}'
            )
        for entry in pairs:
            quarantine.entries[(entry["i"], entry["j"])] = dict(entry)
        return quarantine

    def add(
        self,
        i: int,
        j: int,
        left: str,
        right: str,
        strikes: int,
        error: str,
    ) -> Dict[str, object]:
        entry = {
            "i": i,
            "j": j,
            "left": left,
            "right": right,
            "strikes": strikes,
            "error": error,
            "quarantined_at": time.time(),
        }
        self.entries[(i, j)] = entry
        self.save()
        return entry

    def pairs(self) -> Set[Pair]:
        return set(self.entries)

    def save(self) -> None:
        payload = {
            "format": 1,
            "pairs": [self.entries[pair] for pair in sorted(self.entries)],
        }
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.path)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, pair: Pair) -> bool:
        return tuple(pair) in self.entries


@dataclass
class SweepReport:
    """What a supervised sweep did: per-shard matrices computed this
    run, the quarantine ledger, and the durable retry/steal totals."""

    shard_count: int
    #: Matrices for the shards *this* run computed (resumed-over
    #: shards are not recomputed and carry no matrix).
    matrices: List[MatchMatrix]
    #: Quarantine entries (the full ledger, including pairs
    #: quarantined by earlier runs over the same directory).
    quarantined: List[Dict[str, object]]
    #: Journal totals across the sweep's whole history.
    retries: int
    steals: int
    seconds: float
    workers: int

    @property
    def exit_code(self) -> int:
        return EXIT_QUARANTINED if self.quarantined else 0

    @property
    def pair_count(self) -> int:
        return sum(matrix.pair_count for matrix in self.matrices)

    def summary(self) -> str:
        quarantined = (
            f", {len(self.quarantined)} pair(s) QUARANTINED"
            if self.quarantined
            else ""
        )
        return (
            f"supervised sweep: {self.shard_count} shard(s) complete "
            f"({self.pair_count} pair(s) computed this run) in "
            f"{self.seconds:.2f}s with {self.workers} worker(s); "
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}, "
            f"{self.steals} steal(s){quarantined}"
        )


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(
    conn,
    worker_name: str,
    options: Optional[ComposeOptions],
    heartbeat_interval: float,
    models: Sequence[Model],
    labels: Sequence[str],
    index_sets: Optional[Sequence[ModelIndexSet]],
) -> None:
    """One supervised local worker: build the inline sweep's engine
    over the corpus it was started with, then loop — compute assigned
    shards pair by pair, announce each pair *before* computing it (so
    a death is attributable), heartbeat when idle.  Every ``send`` is
    synchronous; a SIGKILL one instruction later cannot retract a
    message the coordinator already has.

    Under fork the models — and the index rows a prescreen built for
    them, when it did — are the coordinator's own, inherited; under
    spawn or forkserver they arrive pickled, once per worker.  Every
    other artifact is derived in memory, as the inline sweep derives
    it."""
    engine = _PairEngine(options, models, labels, index_sets)
    _worker_loop(conn, worker_name, engine, heartbeat_interval)


def _worker_loop(conn, worker_name, engine, heartbeat_interval) -> bool:
    """The announce-before-compute protocol loop, shared verbatim by
    local pipe workers and remote socket workers — ``conn`` only needs
    the pipe surface (``send`` / ``recv`` / ``poll``), which the
    framed socket connection provides.  Returns ``True`` after a clean
    ``stop``, ``False`` when the coordinator vanished."""
    try:
        conn.send(("ready", worker_name))
        while True:
            if not conn.poll(heartbeat_interval):
                # Chaos site: a "stall" fault here delays the idle
                # heartbeat past the timeout — the live-but-stuck
                # worker the coordinator must reclaim.
                chaos.trip("heartbeat", worker=worker_name)
                conn.send(("heartbeat", worker_name))
                continue
            message = conn.recv()
            if message[0] == "stop":
                # Chaos site: a "stall" fault here is the worker that
                # ignores its first shutdown — the coordinator must
                # escalate (terminate, then kill) instead of leaking
                # a zombie.
                chaos.trip("worker-stop", worker=worker_name)
                return True
            _, shard_id, pairs = message
            chaos.trip(
                "chunk-start",
                pairs=len(pairs),
                shard=shard_id,
                worker=worker_name,
            )
            # One message per pair, not two: each result send also
            # announces the *next* pair before it starts computing,
            # so a death is still attributable to exactly one pair
            # while the single-core parent wakes half as often.
            for idx, (i, j) in enumerate(pairs):
                if idx == 0:
                    conn.send(("pair-start", shard_id, i, j))
                nxt = pairs[idx + 1] if idx + 1 < len(pairs) else None
                try:
                    outcome = engine.run_pair(i, j)
                except chaos.ChaosKill:
                    raise
                except Exception:  # noqa: BLE001 - captured for quarantine
                    conn.send(
                        (
                            "pair-error",
                            shard_id,
                            i,
                            j,
                            traceback.format_exc(),
                            nxt,
                        )
                    )
                else:
                    conn.send(("pair-done", shard_id, outcome, nxt))
            conn.send(("shard-done", shard_id))
    except (EOFError, OSError, KeyboardInterrupt):
        # The coordinator is gone (pipe EOF, broken pipe, or any
        # socket-transport failure); nothing useful left to do.
        return False


class _FetchChannel:
    """A remote worker's view of its coordinator connection.

    Presents the pipe surface to :func:`_worker_loop` while also
    serving the engine's digest-fetch callback: a fetch sends
    ``("fetch", digest)`` and reads until the matching ``sbml``
    reply, parking any interleaved coordinator messages (a ``stop``,
    say) in a queue the main loop drains first.
    """

    def __init__(self, conn: transport.FramedConnection):
        self._conn = conn
        self._parked: deque = deque()

    def send(self, obj) -> None:
        self._conn.send(obj)

    def recv(self):
        if self._parked:
            return self._parked.popleft()
        return self._conn.recv()

    def poll(self, timeout: Optional[float] = 0.0) -> bool:
        if self._parked:
            return True
        return self._conn.poll(timeout)

    def fetch(self, digest: str) -> Optional[str]:
        self._conn.send(("fetch", digest))
        while True:
            message = self._conn.recv()
            if (
                isinstance(message, tuple)
                and message
                and message[0] == "sbml"
                and message[1] == digest
            ):
                return message[2]
            self._parked.append(message)


def run_remote_worker(host: str, port: int, progress: bool = True) -> int:
    """One remote sweep worker: dial the coordinator, handshake, run
    the standard worker loop until stopped or disconnected.

    The worker builds the same in-memory engine as a local worker,
    over the welcome's corpus manifest: each model is fetched from the
    coordinator on first touch.  Returns a process exit code: 0 after
    a clean ``stop``, 2 when the handshake failed or the connection
    was lost mid-sweep.
    """

    def log(message: str) -> None:
        if progress:
            print(f"worker: {message}", file=sys.stderr)

    try:
        conn = transport.connect(host, port)
    except transport.TransportError as exc:
        log(str(exc))
        return 2
    try:
        try:
            welcome = transport.client_handshake(
                conn, host=_socket.gethostname(), pid=os.getpid()
            )
        except transport.HandshakeError as exc:
            log(f"handshake failed: {exc}")
            return 2
        name = welcome["name"]
        manifest = welcome.get("manifest")
        if manifest is None:
            log("coordinator offered no corpus manifest; cannot work")
            return 2
        channel = _FetchChannel(conn)
        engine = _PairEngine(
            welcome.get("options"),
            _FetchedModels(manifest, channel.fetch),
            manifest.labels,
        )
        log(
            f"connected to {host}:{port} as {name} "
            f"({len(manifest)} manifest entr"
            f"{'y' if len(manifest) == 1 else 'ies'})"
        )
        clean = _worker_loop(
            channel, name, engine, welcome.get("heartbeat_interval", 5.0)
        )
        log("stopped" if clean else "connection to coordinator lost")
        return 0 if clean else 2
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Coordinator-side bookkeeping
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Coordinator-side view of one worker — a local child process
    (``process`` set, ``remote`` False) or a socket worker (``process``
    ``None``, ``remote`` True).  Everything above this class treats
    the two uniformly: liveness is :meth:`is_alive`, reclamation is
    :meth:`kill`, and death shows up as ``eof`` either way."""

    def __init__(self, name: str, process, conn, *, remote=False, host=""):
        self.name = name
        self.process = process
        self.conn = conn
        self.remote = remote
        #: Host component for the journal lease holder (local workers
        #: record the coordinator's own hostname; remote workers the
        #: hostname they announced in the handshake).
        self.host = host
        #: Monotonic — liveness must not move with the wall clock.
        self.last_seen = time.monotonic()
        #: Shard currently assigned, or None when idle.
        self.assignment: Optional[int] = None
        #: Pair announced started but not yet finished — the strike
        #: target if this worker dies.
        self.current_pair: Optional[Pair] = None
        #: Set once the pipe hit EOF (the process is gone).
        self.eof = False
        #: Why the coordinator killed it, if it did.
        self.kill_reason: Optional[str] = None

    @property
    def lease_holder(self) -> str:
        """Journal lease holder name: ``worker@host``, so a journal
        read from any machine shows *where* each shard is running."""
        return f"{self.name}@{self.host}" if self.host else self.name

    def is_alive(self) -> bool:
        if self.remote:
            return not self.eof
        return self.process.is_alive()

    def kill(self) -> None:
        """Reclaim the worker now.  Local: SIGKILL.  Remote: close the
        socket — the worker's next send/recv fails and it exits; from
        this side the channel is immediately EOF."""
        if self.remote:
            try:
                self.conn.close()
            except OSError:
                pass
            self.eof = True
        elif self.process.is_alive():
            self.process.kill()


class _ShardState:
    """Coordinator-side view of one shard's progress."""

    def __init__(self, shard: Shard):
        self.shard = shard
        self.status = "pending"  # pending | running | done
        #: Outcomes streamed back so far, kept across attempts — a
        #: retry computes only the remainder.
        self.outcomes: Dict[Pair, PairOutcome] = {}
        #: Failed attempts counted against the retry budget.
        self.attempts = 0
        #: All failures, for backoff growth (quarantine-progress
        #: failures back off too, they just don't burn budget).
        self.failures = 0
        #: Earliest time the shard may be (re)assigned — on the
        #: coordinator's monotonic clock (backoff must not move with
        #: wall-clock steps).
        self.next_eligible = 0.0
        #: Local copy of the lease expiry, for half-life renewal —
        #: monotonic too; the cross-host wall-clock expiry lives only
        #: in the journal.
        self.lease_expires = 0.0
        self.first_started: Optional[float] = None
        #: A quarantine happened during the current attempt — the
        #: failure made durable progress, so it rides free.
        self.fresh_quarantine = False
        #: Rows the prescreen synthesized into ``outcomes`` up front.
        self.pruned = 0

    def remaining(self, quarantined: Set[Pair]) -> List[Pair]:
        return [
            pair
            for pair in self.shard.pairs
            if pair not in self.outcomes and pair not in quarantined
        ]


class SweepCoordinator:
    """Drive a sharded sweep to completion through worker failures.

    Construction wires the corpus, layout and supervision config;
    :meth:`run` executes (or resumes) the sweep and returns a
    :class:`SweepReport`.  All durable state lives in ``out_dir`` —
    the format-2 checkpoint journal (completions + leases + retry
    counters), the per-shard result CSVs and the ``quarantine.json``
    sidecar — so a crashed coordinator is restarted with
    ``resume=True`` over the same directory and picks up where the
    journal says it stopped.

    The shards are ``partition_pairs(sizes, shards)`` unless
    ``partition`` hands over other work units (in-process sweeps cut
    one per worker from the pairs they run).  Local workers receive
    ``models`` and build the inline engine over them.  Remote workers
    receive the corpus :class:`~repro.core.artifact_store.CorpusManifest`
    — the one passed as ``manifest``, or one that :meth:`run` builds
    when the coordinator listens — and build the same engine, fetching
    each model's SBML text, which the manifest holds in memory, on
    first touch.  With ``prescreen``, the pairs it prunes get
    synthesized rows in their shard's results up front and never reach
    a worker.
    """

    def __init__(
        self,
        models: Sequence[Model],
        options: Optional[ComposeOptions] = None,
        *,
        out_dir: Union[str, Path],
        fingerprint: str,
        shards: Optional[int] = None,
        partition: Optional[Sequence[Shard]] = None,
        manifest: Optional[CorpusManifest] = None,
        prescreen: Optional[Prescreen] = None,
        config: Optional[CoordinatorConfig] = None,
        include_self: bool = True,
        resume: bool = False,
        progress: bool = True,
        listen: Optional[Union[str, Tuple[str, int]]] = None,
        local_workers: Optional[int] = None,
    ):
        if partition is not None:
            self.partition: Optional[List[Shard]] = list(partition)
            shards = len(self.partition)
        else:
            self.partition = None
        if shards is None or shards < 1:
            raise ValueError("shards must be at least 1")
        self.models = list(models)
        self.options = options
        self.shard_count = shards
        self.out_dir = Path(out_dir)
        self.fingerprint = fingerprint
        self.config = config or CoordinatorConfig()
        self.include_self = include_self
        self.resume = resume
        self.progress = progress
        self.prescreen = prescreen
        #: What remote workers load the corpus through; built at the
        #: top of :meth:`run` when listening, unless the caller built
        #: it already.
        self.manifest: Optional[CorpusManifest] = manifest
        #: Digest -> canonical SBML text, for answering digest-fetch.
        self._texts: Dict[str, str] = {}
        self.labels = stable_labels(self.models)
        self.checkpoint = SweepCheckpoint(
            self.out_dir,
            fingerprint=fingerprint,
            shard_count=shards,
        )
        self.quarantine = Quarantine(self.out_dir)
        self._states: Dict[int, _ShardState] = {}
        #: Shards not yet done — the event loop's exit condition.
        self._open = 0
        #: Shards whose state changed since :meth:`_finalize_empty`
        #: last looked; only these are re-examined, so a loop wake
        #: (one per streamed pair) costs nothing per pending pair.
        self._dirty: Set[int] = set()
        self._workers: Dict[str, _WorkerHandle] = {}
        self._strikes: Dict[Pair, int] = {}
        self._matrices: List[MatchMatrix] = []
        self._next_maintenance = 0.0
        self._serial = 0
        self._remote_serial = 0
        self._mp = mp.get_context()
        self._hostname = _socket.gethostname()
        #: Local pipe workers to keep alive; defaults to the config's
        #: worker count.  Zero is valid only in listen mode — a
        #: coordinator that supervises remote workers exclusively.
        self.local_workers = (
            self.config.workers if local_workers is None else int(local_workers)
        )
        if self.local_workers < 0:
            raise ValueError("local_workers must be non-negative")
        if self.local_workers == 0 and listen is None:
            raise ValueError(
                "local_workers=0 needs listen= (someone must do the work)"
            )
        #: Bound immediately (not in :meth:`run`) so callers that bind
        #: port 0 can read the real port, start remote workers, then
        #: run.
        self._listener: Optional[transport.Listener] = None
        self.listen_address: Optional[Tuple[str, int]] = None
        if listen is not None:
            host, port = (
                transport.parse_address(listen)
                if isinstance(listen, str)
                else listen
            )
            self._listener = transport.Listener(host, port)
            self.listen_address = self._listener.address

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------

    def _log(self, message: str) -> None:
        if self.progress:
            print(f"coordinator: {message}", file=sys.stderr)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def run(self) -> SweepReport:
        """Execute the sweep; returns when every shard is durably
        complete (possibly by quarantining poison pairs).  Raises
        :class:`CoordinatorError` when a shard exhausts its retry
        budget without quarantine progress."""
        started = time.perf_counter()
        completed = self.checkpoint.begin(resume=self.resume)
        self.quarantine = Quarantine.load(self.out_dir)
        sizes = [model.network_size() for model in self.models]
        partition = self.partition or partition_pairs(
            sizes, self.shard_count, include_self=self.include_self
        )
        survivors = (
            self.prescreen.survivors() if self.prescreen is not None else None
        )
        now = time.monotonic()
        wall_now = time.time()
        for shard in partition:
            if shard.shard_id in completed:
                continue
            state = _ShardState(shard)
            if survivors is not None:
                for i, j in shard.pairs:
                    if not survivors[i, j]:
                        state.outcomes[(i, j)] = _synthesized_outcome(
                            i, j, self.labels[i], self.labels[j],
                            sizes[i] + sizes[j],
                            self.prescreen.synthesized_counts(i, j),
                        )
                        state.pruned += 1
            lease = self.checkpoint.leases.get(shard.shard_id)
            if lease is not None:
                # An unexpired foreign lease: someone may still be
                # computing this shard — honour the claim until it
                # lapses (begin() already dropped expired ones).  The
                # journal's expires_at is wall clock (it crosses
                # hosts); convert the *remaining* interval onto this
                # process's monotonic eligibility clock.
                remaining = float(lease.get("expires_at", wall_now)) - wall_now
                state.next_eligible = now + max(0.0, remaining)
                self._log(
                    f"shard {shard.shard_id}: leased to "
                    f"{lease.get('worker')} until its lease lapses"
                )
            self._states[shard.shard_id] = state
        self._open = len(self._states)
        self._dirty = set(self._states)
        if completed:
            self._log(
                f"resuming: {len(completed)} shard(s) already complete, "
                f"{len(self._states)} to go"
            )
        if self._listener is not None and self._states:
            if self.manifest is None:
                self.manifest = CorpusManifest.build(
                    self.models, self.labels
                )
            self._texts = dict(
                zip(self.manifest.digests, self.manifest.texts)
            )
        try:
            while self._open:
                now = time.monotonic()
                self._finalize_empty(now)
                if not self._open:
                    break
                self._ensure_workers()
                # Timeout scans and lease renewal are time-gated: the
                # loop wakes once per streamed pair result, and paying
                # these scans on every wakeup steals worker CPU on
                # small machines.  Half the heartbeat interval keeps
                # stall detection well inside ``worker_timeout`` and
                # renewal far ahead of the lease half-life.
                if now >= self._next_maintenance:
                    self._check_timeouts(now)
                    self._renew_leases(now)
                    self._next_maintenance = (
                        now + self.config.effective_heartbeat / 2.0
                    )
                self._assign(now)
                self._wait_and_drain()
                self._reap()
        finally:
            self._shutdown_workers()
            if self._listener is not None:
                self._listener.close()
        retries = steals = 0
        for shard_id in range(self.shard_count):
            count, stolen = self.checkpoint.retry_counts(shard_id)
            retries += count
            steals += stolen
        report = SweepReport(
            shard_count=self.shard_count,
            matrices=list(self._matrices),
            quarantined=[
                self.quarantine.entries[pair]
                for pair in sorted(self.quarantine.entries)
            ],
            retries=retries,
            steals=steals,
            seconds=time.perf_counter() - started,
            workers=self.config.workers,
        )
        self._log(report.summary())
        return report

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _spawn_worker(self) -> _WorkerHandle:
        self._serial += 1
        name = f"w{self._serial}"
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_worker_main,
            args=(
                child_conn,
                name,
                self.options,
                self.config.effective_heartbeat,
                self.models,
                self.labels,
                self.prescreen.index_sets
                if self.prescreen is not None
                else None,
            ),
            name=f"sweep-{name}",
            daemon=True,
        )
        process.start()
        # Close our copy of the child end so the pipe reaches EOF the
        # instant the worker dies.
        child_conn.close()
        handle = _WorkerHandle(
            name, process, parent_conn, host=self._hostname
        )
        self._workers[name] = handle
        return handle

    def _ensure_workers(self) -> None:
        needed = min(self.local_workers, self._open)
        local = sum(1 for w in self._workers.values() if not w.remote)
        while local < needed:
            handle = self._spawn_worker()
            self._log(f"worker {handle.name}: spawned")
            local += 1

    def _shutdown_workers(self) -> None:
        for worker in self._workers.values():
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for worker in self._workers.values():
            if worker.remote:
                continue
            # Escalate: polite stop, then SIGTERM, then SIGKILL — and
            # *re-join after the kill*, because a kill without a final
            # join leaves the worker a zombie until the coordinator
            # itself exits.
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                self._log(
                    f"worker {worker.name}: ignored stop; terminating"
                )
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                self._log(
                    f"worker {worker.name}: survived terminate; killing"
                )
                worker.process.kill()
                worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                self._log(
                    f"worker {worker.name}: UNREAPED after kill "
                    f"(pid {worker.process.pid}) — possible zombie"
                )
        for worker in self._workers.values():
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()

    # ------------------------------------------------------------------
    # Event loop steps
    # ------------------------------------------------------------------

    def _finalize_empty(self, now: float) -> None:
        """Shards with nothing left to compute (empty, everything
        synthesized, or everything already streamed back /
        quarantined) complete without a worker.  Only shards whose
        state changed since the last look are examined."""
        if not self._dirty:
            return
        quarantined = self.quarantine.pairs()
        dirty, self._dirty = self._dirty, set()
        for shard_id in sorted(dirty):
            state = self._states[shard_id]
            if state.status == "pending" and not state.remaining(quarantined):
                self._finalize_shard(state, now)

    def _check_timeouts(self, now: float) -> None:
        timeout = self.config.worker_timeout
        for worker in list(self._workers.values()):
            if worker.kill_reason is not None or worker.eof:
                continue
            if now - worker.last_seen <= timeout:
                continue
            worker.kill_reason = (
                f"no heartbeat for {now - worker.last_seen:.1f}s "
                f"(timeout {timeout:g}s)"
            )
            self._log(
                f"worker {worker.name}: stalled — {worker.kill_reason}; "
                f"killing"
            )
            worker.kill()

    def _assign(self, now: float) -> None:
        idle = [
            worker
            for worker in self._workers.values()
            if worker.assignment is None
            and not worker.eof
            and worker.kill_reason is None
            and worker.is_alive()
        ]
        if not idle:
            return
        runnable = sorted(
            (
                state
                for state in self._states.values()
                if state.status == "pending" and state.next_eligible <= now
            ),
            key=lambda state: state.shard.shard_id,
        )
        if not runnable:
            return
        quarantined = self.quarantine.pairs()
        for worker, state in zip(idle, runnable):
            remaining = state.remaining(quarantined)
            if not remaining:
                self._finalize_shard(state, now)
                continue
            shard_id = state.shard.shard_id
            ttl = self.config.effective_lease_ttl
            self.checkpoint.acquire_lease(shard_id, worker.lease_holder, ttl)
            state.lease_expires = now + ttl
            state.status = "running"
            state.fresh_quarantine = False
            if state.first_started is None:
                state.first_started = time.perf_counter()
            worker.assignment = shard_id
            worker.current_pair = None
            try:
                worker.conn.send(("shard", shard_id, remaining))
            except (OSError, BrokenPipeError):
                worker.eof = True
                continue
            self._log(
                f"shard {shard_id}: assigned to {worker.name} "
                f"({len(remaining)} pair(s) remaining)"
            )

    def _renew_leases(self, now: float) -> None:
        ttl = self.config.effective_lease_ttl
        for worker in self._workers.values():
            shard_id = worker.assignment
            if shard_id is None or worker.eof:
                continue
            state = self._states.get(shard_id)
            if state is None or state.status != "running":
                continue
            if now >= state.lease_expires - ttl / 2.0:
                self.checkpoint.acquire_lease(
                    shard_id, worker.lease_holder, ttl
                )
                state.lease_expires = now + ttl

    def _wait_and_drain(self) -> None:
        waitables = []
        for worker in self._workers.values():
            if not worker.eof:
                waitables.append(worker.conn)
            if not worker.remote:
                waitables.append(worker.process.sentinel)
        if self._listener is not None:
            waitables.append(self._listener)
        if not waitables:
            time.sleep(self.config.poll_interval)
            return
        ready = _connection_wait(
            waitables, timeout=self.config.poll_interval
        )
        ready_set = set(ready)
        if self._listener is not None and self._listener in ready_set:
            self._accept_remote()
        for worker in list(self._workers.values()):
            if worker.conn in ready_set and not worker.eof:
                self._drain(worker)

    def _accept_remote(self) -> None:
        """One pending remote-worker connection: accept, handshake,
        enroll.  A worker that fails the handshake (or is chaos-dropped
        at the ``net-accept`` site) is closed and forgotten — from its
        side that is an ordinary connection loss to retry against."""
        try:
            conn, addr = self._listener.accept()
        except OSError:
            return
        if chaos.advice("net-accept", "drop", peer=addr[0]):
            self._log(
                f"chaos: dropped incoming worker connection from "
                f"{addr[0]}:{addr[1]}"
            )
            conn.close()
            return
        # The serial is burned only on a *successful* handshake, so
        # probes and failed dials don't shift later workers' names
        # (chaos specs match on them).
        name = f"r{self._remote_serial + 1}"
        try:
            hello = transport.server_handshake(
                conn,
                name=name,
                options=self.options,
                manifest=self.manifest,
                heartbeat_interval=self.config.effective_heartbeat,
            )
        except (transport.TransportError, EOFError, OSError) as exc:
            self._log(
                f"worker connection from {addr[0]}:{addr[1]} failed "
                f"handshake: {exc}"
            )
            conn.close()
            return
        self._remote_serial += 1
        host = str(hello.get("host") or addr[0])
        handle = _WorkerHandle(name, None, conn, remote=True, host=host)
        self._workers[name] = handle
        self._log(
            f"worker {name}: connected from {host} "
            f"(pid {hello.get('pid')}, models by digest-fetch)"
        )

    def _drain(self, worker: _WorkerHandle) -> None:
        """Pull every buffered message off one worker's pipe.  A dead
        worker's already-sent messages are still delivered here before
        the EOF — no completed pair outcome is ever lost to a crash."""
        while True:
            try:
                if not worker.conn.poll(0):
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                worker.eof = True
                return
            self._on_message(worker, message)

    def _reap(self) -> None:
        for worker in list(self._workers.values()):
            if not worker.eof and worker.is_alive():
                continue
            # Drain any straggler messages, then account for the death.
            self._drain(worker)
            if not worker.remote:
                worker.process.join(timeout=1.0)
            del self._workers[worker.name]
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.remote:
                reason = worker.kill_reason or "connection lost"
            else:
                reason = worker.kill_reason or (
                    f"process died (exit {worker.process.exitcode})"
                )
            self._handle_worker_death(worker, reason)

    # ------------------------------------------------------------------
    # Messages and failure handling
    # ------------------------------------------------------------------

    def _on_message(self, worker: _WorkerHandle, message: Tuple) -> None:
        worker.last_seen = time.monotonic()
        kind = message[0]
        if kind in ("ready", "heartbeat"):
            return
        if kind == "fetch":
            # Digest-fetch: a remote worker asks for a manifest
            # model's canonical SBML text (anything else answers
            # None).  Served inline: the event loop is already
            # draining this worker.
            _, digest = message
            try:
                worker.conn.send(("sbml", digest, self._texts.get(digest)))
            except (OSError, BrokenPipeError):
                worker.eof = True
            return
        if kind == "pair-start":
            _, shard_id, i, j = message
            worker.current_pair = (i, j)
            return
        if kind == "pair-done":
            _, shard_id, outcome, nxt = message
            worker.current_pair = nxt
            state = self._states.get(shard_id)
            if state is not None:
                state.outcomes[(outcome.i, outcome.j)] = outcome
                if state.status == "pending":
                    self._dirty.add(shard_id)
            return
        if kind == "pair-error":
            _, shard_id, i, j, captured, nxt = message
            worker.current_pair = nxt
            self._strike(shard_id, (i, j), captured)
            return
        if kind == "shard-done":
            _, shard_id = message
            self._finish_assignment(worker, shard_id)

    def _strike(self, shard_id: int, pair: Pair, error: str) -> None:
        """One failure attributed to ``pair``; quarantine at the
        threshold."""
        if pair in self.quarantine:
            return
        count = self._strikes.get(pair, 0) + 1
        self._strikes[pair] = count
        i, j = pair
        self._log(
            f"pair ({i}, {j}): strike {count}/"
            f"{self.config.poison_threshold}"
        )
        if count < self.config.poison_threshold:
            return
        self.quarantine.add(
            i,
            j,
            left=self.labels[i],
            right=self.labels[j],
            strikes=count,
            error=error,
        )
        state = self._states.get(shard_id)
        if state is not None:
            state.fresh_quarantine = True
        self._log(
            f"pair ({i}, {j}) [{self.labels[i]}+{self.labels[j]}]: "
            f"QUARANTINED after {count} strike(s) -> {self.quarantine.path}"
        )

    def _finish_assignment(self, worker: _WorkerHandle, shard_id: int) -> None:
        """A worker reports it ran its whole assignment.  Pairs that
        errored (but aren't quarantined yet) are still missing — that
        counts as a failed attempt and the shard is retried."""
        worker.assignment = None
        worker.current_pair = None
        state = self._states.get(shard_id)
        if state is None or state.status != "running":
            return
        now = time.monotonic()
        if state.remaining(self.quarantine.pairs()):
            self._attempt_failed(state, stolen=False, now=now)
            return
        # mark_complete subsumes the lease — no separate release write.
        self._finalize_shard(state, now)

    def _handle_worker_death(
        self, worker: _WorkerHandle, reason: str
    ) -> None:
        shard_id = worker.assignment
        self._log(f"worker {worker.name}: {reason}")
        if shard_id is None:
            return
        state = self._states.get(shard_id)
        if state is None or state.status != "running":
            return
        if worker.current_pair is not None:
            i, j = worker.current_pair
            self._strike(
                shard_id,
                worker.current_pair,
                f"worker {worker.name} died while computing pair "
                f"({i}, {j}): {reason}",
            )
        self._attempt_failed(state, stolen=True, now=time.monotonic())

    def _attempt_failed(
        self, state: _ShardState, *, stolen: bool, now: float
    ) -> None:
        shard_id = state.shard.shard_id
        state.failures += 1
        free_ride = state.fresh_quarantine
        if not free_ride:
            state.attempts += 1
        state.fresh_quarantine = False
        self.checkpoint.release_lease(shard_id, retried=True, stolen=stolen)
        if state.attempts > self.config.max_retries:
            raise CoordinatorError(
                f"shard {shard_id} failed "
                f"{state.attempts} time(s) beyond its first attempt "
                f"with no quarantine progress (max_retries="
                f"{self.config.max_retries}); giving up — inspect "
                f"{self.out_dir / SweepCheckpoint.FILENAME} and rerun "
                f"with --resume"
            )
        delay = self._backoff(shard_id, state.failures)
        state.status = "pending"
        state.next_eligible = now + delay
        self._dirty.add(shard_id)
        self._log(
            f"shard {shard_id}: attempt failed "
            f"({'stolen' if stolen else 'retried'}"
            f"{', quarantine progress' if free_ride else ''}); "
            f"retrying in {delay:.2f}s "
            f"(budget {state.attempts}/{self.config.max_retries})"
        )

    def _backoff(self, shard_id: int, failures: int) -> float:
        delay = min(
            self.config.backoff_cap,
            self.config.backoff_base * (2 ** max(0, failures - 1)),
        )
        if self.config.backoff_jitter <= 0:
            return delay
        digest = hashlib.blake2b(digest_size=8)
        digest.update(
            f"{self.config.seed}:{shard_id}:{failures}".encode("ascii")
        )
        draw = int.from_bytes(digest.digest(), "big") / float(2**64)
        return delay * (1.0 + self.config.backoff_jitter * draw)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _finalize_shard(self, state: _ShardState, now: float) -> None:
        shard = state.shard
        quarantined_here = sum(
            1 for pair in shard.pairs if pair in self.quarantine.entries
        )
        ordered = [
            state.outcomes[pair]
            for pair in shard.pairs
            if pair in state.outcomes
        ]
        name = shard_result_filename(shard.shard_id, self.shard_count)
        write_outcomes_csv(self.out_dir / name, ordered)
        self.checkpoint.mark_complete(shard.shard_id, name, len(ordered))
        state.status = "done"
        self._open -= 1
        seconds = (
            time.perf_counter() - state.first_started
            if state.first_started is not None
            else 0.0
        )
        matrix = MatchMatrix(
            outcomes=ordered,
            seconds=seconds,
            model_count=len(self.models),
            workers=self.config.workers,
            shard_id=shard.shard_id,
            shard_count=self.shard_count,
            pruned=state.pruned,
            quarantined=quarantined_here,
        )
        self._matrices.append(matrix)
        self._log(f"shard {shard.shard_id}: complete — {matrix.summary()}")

"""Batched all-pairs matching — the Figure 8 workload as an engine.

The paper's Figure 8 experiment composes every model of a corpus with
every other model (17,578 merges over 187 models).  Driving that with
one cold one-shot merge per pair repays the same per-model
preprocessing hundreds of times — each model appears in ``n`` pairs,
and every appearance used to re-derive its unit registry, its
evaluated initial-value environment and its used-id set, the way
semanticSBML-era tooling re-parsed inputs per merge.  sirn-style
structural identity search batches corpus-scale comparisons instead;
:func:`match_all` is that idea for composition:

* per-model artifacts are computed **once**, in memory, and shared
  across all of the model's pairs (handed to the engine as a carried
  :class:`~repro.core.compose.AccumState`) — by the inline sweep, by
  every local worker and by every remote worker, which fetches each
  model's canonical SBML text from its coordinator on first touch;
  the index rows of a screened sweep come from its prescreen, which
  the inline sweep and local workers share,
* one :class:`~repro.core.compose.Composer` and one digest-keyed
  :class:`~repro.core.pattern_cache.PatternCache` serve the whole
  sweep, so canonical patterns are computed per expression, not per
  pair,
* ``workers=1`` runs every pair inline; ``workers > 1`` hands the
  pairs the prescreen lets through to
  :class:`~repro.core.coordinator.SweepCoordinator`, which supervises
  that many worker processes (leases, steals, retries, poison-pair
  quarantine) over a private temporary journal; the workers hold the
  corpus the sweep was called with and build the inline engine over
  it,
* :func:`match_all` sweeps the whole pair matrix in one run of
  :class:`_Sweep`, while ``sbmlcompose sweep --shards K`` runs each
  shard of a deterministic partition
  (:func:`~repro.core.shards.partition_pairs`) through one
  :class:`_Sweep` — so K machines, or K sequential, individually
  checkpointed steps of one machine, can split a corpus that
  shouldn't monopolise one box.  The union of the K shard matrices is
  *identical* to the unsharded sweep, pair for pair.

The composed models themselves are never built — an all-pairs sweep
is about the matching outcome (what united, what conflicted, how long
it took), so each pair runs only the decision half of the Figure 4
phases (``compose_step(..., decide_only=True)``) against the untouched
input models.  Compose the few pairs you care about through a session
afterwards.
"""

from __future__ import annotations

import csv
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core import chaos
from repro.core.artifact_store import (
    CorpusManifest,
    _text_digest,
    compute_artifacts,
)
from repro.core.compose import (
    AccumState,
    BoundIndexSet,
    Composer,
    ModelIndexSet,
    SourceKeyMap,
)
from repro.core.options import ComposeOptions
from repro.core.pattern_cache import PatternCache
from repro.core.session import stable_labels
from repro.core.shards import Pair, enumerate_pairs, partition_pairs
from repro.core.signature import Prescreen
from repro.errors import ReproError
from repro.sbml.model import Model
from repro.sbml.reader import read_sbml

__all__ = [
    "PairOutcome",
    "MatchMatrix",
    "match_all",
    "match_query",
    "write_outcomes",
    "write_outcomes_csv",
    "read_outcomes_csv",
]

#: The journal fingerprint of a sweep in a private temporary directory:
#: that journal is never resumed, so it binds no corpus digest.
_PRIVATE_FINGERPRINT = "private sweep"


@dataclass(frozen=True)
class PairOutcome:
    """The matching outcome of composing one corpus pair."""

    i: int
    j: int
    left: str
    right: str
    #: Combined network size (paper Figure 8 x-axis: nodes + edges).
    size: int
    seconds: float
    united: int
    added: int
    renamed: int
    conflicts: int

    def row(self, deterministic: bool = False) -> Tuple:
        """CSV row (matches :meth:`MatchMatrix.csv_header`).

        ``deterministic=True`` drops the wall-time cell — the one
        field that varies between runs — leaving a row that is
        byte-identical however (and wherever) the pair was computed.
        """
        cells = [self.i, self.j, self.left, self.right, self.size]
        if not deterministic:
            cells.append(f"{self.seconds:.6f}")
        cells.extend((self.united, self.added, self.renamed, self.conflicts))
        return tuple(cells)

    def key(self) -> Tuple:
        """The run-invariant fields — everything but wall time.  Two
        computations of the same pair must agree on this exactly."""
        return self.row(deterministic=True)


@dataclass
class MatchMatrix:
    """Every pair outcome of an all-pairs sweep, plus sweep totals."""

    outcomes: List[PairOutcome]
    seconds: float
    model_count: int
    workers: int
    #: Set when this matrix holds one shard of a sharded sweep.
    shard_id: Optional[int] = None
    shard_count: Optional[int] = None
    #: Pairs whose outcome was synthesized by the structural prescreen
    #: instead of running the Figure 4/5 phases (their
    #: :class:`PairOutcome` rows are still present, byte-identical to
    #: what the full matcher would have produced).
    pruned: int = 0
    #: Pairs a supervised sweep quarantined as poison (they repeatedly
    #: killed their worker) — their rows are *absent*: the sweep
    #: degraded gracefully instead of looping or aborting.  See
    #: :class:`~repro.core.coordinator.SweepCoordinator` and the
    #: ``quarantine.json`` sidecar for the captured evidence.
    quarantined: int = 0

    @property
    def pair_count(self) -> int:
        return len(self.outcomes)

    @property
    def pairs_per_second(self) -> float:
        return self.pair_count / self.seconds if self.seconds > 0 else 0.0

    def series(self) -> List[Tuple[int, float]]:
        """``(combined size, seconds)`` per pair — the Figure 8 shape."""
        return [(o.size, o.seconds) for o in self.outcomes]

    @staticmethod
    def csv_header(deterministic: bool = False) -> List[str]:
        header = ["i", "j", "left", "right", "combined_size"]
        if not deterministic:
            header.append("seconds")
        header.extend(("united", "added", "renamed", "conflicts"))
        return header

    def summary(self) -> str:
        sharded = (
            f", shard {self.shard_id}/{self.shard_count}"
            if self.shard_id is not None
            else ""
        )
        prescreened = (
            f", {self.pruned} prescreen-synthesized" if self.pruned else ""
        )
        quarantined = (
            f", {self.quarantined} pair(s) QUARANTINED"
            if self.quarantined
            else ""
        )
        return (
            f"{self.pair_count} pairs over {self.model_count} models in "
            f"{self.seconds:.2f}s ({self.pairs_per_second:.1f} pairs/s, "
            f"workers={self.workers}{sharded}"
            f"{prescreened}{quarantined})"
        )

    @classmethod
    def union(cls, parts: Sequence["MatchMatrix"]) -> "MatchMatrix":
        """Union shard matrices back into one all-pairs matrix.

        Outcomes are re-sorted into canonical sweep order, so the
        union of a complete shard set is identical (pair for pair, in
        order) to the unsharded :func:`match_all` run — only the
        wall-time fields reflect the sharded execution.  Raises
        :class:`ValueError` on overlapping shards (a pair computed
        twice means the parts are not one sweep's shards).
        """
        if not parts:
            raise ValueError("cannot union zero shard matrices")
        model_counts = {part.model_count for part in parts}
        if len(model_counts) != 1:
            raise ValueError(
                f"shard matrices disagree on corpus size: "
                f"{sorted(model_counts)}"
            )
        seen: Dict[Tuple[int, int], PairOutcome] = {}
        for part in parts:
            for outcome in part.outcomes:
                pair = (outcome.i, outcome.j)
                if pair in seen:
                    raise ValueError(
                        f"pair {pair} appears in more than one shard"
                    )
                seen[pair] = outcome
        return cls(
            outcomes=[seen[pair] for pair in sorted(seen)],
            seconds=sum(part.seconds for part in parts),
            model_count=model_counts.pop(),
            workers=max(part.workers for part in parts),
            pruned=sum(part.pruned for part in parts),
            quarantined=sum(part.quarantined for part in parts),
        )


class _LineFeedRows:
    """A :mod:`csv` writer target that ends each row with ``\n``.

    The writer terminates rows with ``\r\n``: Python 3.10-3.12 quote
    a cell holding ``\r`` only when the terminator holds it too, as
    3.13 always does.  The writer hands over one whole row per call,
    so the ``\r`` is cut from each row here."""

    __slots__ = ("_write",)

    def __init__(self, handle):
        self._write = handle.write

    def write(self, row: str):
        return self._write(row[:-2] + "\n")


def write_outcomes(
    handle,
    outcomes: Sequence[PairOutcome],
    *,
    deterministic: bool = False,
) -> None:
    """Write an outcome table as CSV to an open text stream (one opened
    with ``newline=""``, as the :mod:`csv` module asks).  A label
    holding a comma, a quote, a line feed or a carriage return is
    quoted; every other cell is written bare."""
    writer = csv.writer(_LineFeedRows(handle), lineterminator="\r\n")
    writer.writerow(MatchMatrix.csv_header(deterministic))
    writer.writerows(outcome.row(deterministic) for outcome in outcomes)


def write_outcomes_csv(
    path: Union[str, Path],
    outcomes: Sequence[PairOutcome],
    *,
    deterministic: bool = False,
) -> None:
    """Write an outcome table as a CSV file.

    ``deterministic=True`` omits the ``seconds`` column, producing a
    file that is byte-identical across runs and shardings of the same
    corpus — the format ``sweep-merge`` emits and CI diffs against.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_outcomes(handle, outcomes, deterministic=deterministic)


def read_outcomes_csv(path: Union[str, Path]) -> List[PairOutcome]:
    """Read an outcome table written by :func:`write_outcomes_csv`
    (either column layout; a deterministic table reads back with
    ``seconds=0.0``).

    Raises :class:`ValueError` naming ``path`` when the header is not
    an outcome table's, and naming the line too when a row has the
    wrong number of cells or a cell that is not a number.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = csv.reader(handle)
        header = next(rows, None)
        for layout in (False, True):
            if header == MatchMatrix.csv_header(layout):
                deterministic = layout
                break
        else:
            raise ValueError(f"{path}: not a sweep outcome table")
        outcomes = []
        for cells in rows:
            if not cells:
                continue
            try:
                if len(cells) != len(header):
                    raise ValueError(
                        f"{len(cells)} cells where the header has "
                        f"{len(header)}"
                    )
                i, j, left, right, size, *rest = cells
                seconds = 0.0 if deterministic else float(rest.pop(0))
                outcomes.append(
                    PairOutcome(
                        int(i),
                        int(j),
                        left,
                        right,
                        int(size),
                        seconds,
                        *(int(cell) for cell in rest),
                    )
                )
            except ValueError as exc:
                raise ValueError(
                    f"{path}: line {rows.line_num}: {exc}"
                ) from None
    return outcomes


class _FetchedModels:
    """A remote worker's corpus: the models of a
    :class:`~repro.core.artifact_store.CorpusManifest`, each fetched
    from the coordinator on first touch.

    ``fetch(digest)`` returns the model's canonical SBML text, or
    ``None``.  Each text is checked against its manifest digest and
    parsed once; a position is fetched at most once.  A missing, empty
    or mismatched text raises :class:`~repro.errors.ReproError` naming
    the model's label and digest, which fails the pair that touched it
    like any other pair error.
    """

    def __init__(
        self,
        manifest: CorpusManifest,
        fetch: Callable[[str], Optional[str]],
    ):
        self.manifest = manifest
        self._fetch = fetch
        self._models: Dict[int, Model] = {}

    def __len__(self) -> int:
        return len(self.manifest)

    def __getitem__(self, index: int) -> Model:
        model = self._models.get(index)
        if model is None:
            label, digest = self.manifest.entries[index]
            text = self._fetch(digest)
            if not text:
                problem = "sent no SBML for it"
            elif _text_digest(text) != digest:
                problem = "sent SBML that does not hash to that digest"
            else:
                problem = None
            if problem is not None:
                raise ReproError(
                    f"remote worker cannot load model {label!r} (digest "
                    f"{digest}): the coordinator {problem}"
                )
            model = read_sbml(text).model
            self._models[index] = model
        return model


class _PairEngine:
    """Shared-artifact pairwise composer: the inline sweep's engine and
    every supervised worker's, local or remote.

    The engine derives each model's artifacts in memory, on first use.
    ``models`` is any sequence: the corpus itself, or a remote worker's
    :class:`_FetchedModels`, which fetches each model on first touch.
    ``index_sets``, when given, holds each model's index rows under
    the engine's options (a :class:`~repro.core.signature.Prescreen`
    keeps the ones it built); a target binds them instead of building
    its own.  The artifact memo is filled under a lock, and the
    composer's pattern cache locks internally.
    """

    def __init__(
        self,
        options: Optional[ComposeOptions],
        models: Sequence[Model],
        labels: Sequence[str],
        index_sets: Optional[Sequence[ModelIndexSet]] = None,
    ):
        self.options = options or ComposeOptions()
        self.models = models
        self.labels = list(labels)
        self.index_sets = index_sets
        # One composer — and one pattern cache — for the whole sweep,
        # so each expression's pattern is computed once per sweep: on
        # its first probe, or never for an expression no pair compares.
        self.pattern_cache = PatternCache()
        self.composer = Composer(
            self.options, pattern_cache=self.pattern_cache
        )
        #: Per-model used ids, unit registry and initial values, handed
        #: to every decide-only merge as they are (merges never write
        #: them).
        self._artifacts: Dict[int, AccumState] = {}
        #: Lazily bound per-model phase indexes — built only when a
        #: model is first used as a pair's *target* (a source-only
        #: model never pays the 12-phase key build).  Every pair the
        #: model is target of merges through copy-on-write overlays
        #: over them instead of rebuilding them.
        self._indexes: Dict[int, BoundIndexSet] = {}
        #: Per-model source keys, each phase's built on the model's
        #: first use as a pair's source.
        self._source_keys: Dict[int, SourceKeyMap] = {}
        self._sizes: Dict[int, int] = {}
        self._lock = threading.Lock()

    def _model_artifacts(self, index: int) -> AccumState:
        hit = self._artifacts.get(index)
        if hit is not None:
            return hit
        with self._lock:
            hit = self._artifacts.get(index)
            if hit is None:
                # Neither a pattern table nor index rows are worth
                # computing up front: patterns are computed on first
                # probe, and a model's index set is built on its first
                # use as a target, through the sweep's own cache.
                artifacts = compute_artifacts(
                    self.models[index], with_signature=False
                )
                hit = AccumState(
                    used_ids=artifacts.used_ids,
                    registry=artifacts.registry,
                    initial=artifacts.initial,
                )
                self._artifacts[index] = hit
        return hit

    def _target_indexes(self, index: int) -> BoundIndexSet:
        """The model's bound phase indexes, bound on first use as a
        pair target (never for source-only models) from its handed
        rows, or from rows built here."""
        bound = self._indexes.get(index)
        if bound is not None:
            return bound
        with self._lock:
            bound = self._indexes.get(index)
            if bound is None:
                model = self.models[index]
                if self.index_sets is not None:
                    rows = self.index_sets[index]
                else:
                    rows = ModelIndexSet.build(
                        model, self.options, self.pattern_cache
                    )
                bound = rows.bind(model, self.options)
                self._indexes[index] = bound
        return bound

    def _model_size(self, index: int) -> int:
        size = self._sizes.get(index)
        if size is None:
            size = self.models[index].network_size()
            self._sizes[index] = size
        return size

    def run_pair(self, i: int, j: int) -> PairOutcome:
        # Chaos injection site: a "kill" fault here is a worker dying
        # mid-pair, a "raise" fault is a poison pair, a "stall" fault
        # is a live-but-stuck worker.  Free when chaos is unarmed.
        chaos.trip("pair-start", i=i, j=j)
        left = self.models[i]
        right = self.models[j]
        target_state = self._model_artifacts(i)
        source_state = self._model_artifacts(j)
        indexes = self._target_indexes(i)
        source_keys = self._source_keys.get(j)
        if source_keys is None:
            source_keys = self._source_keys.setdefault(j, SourceKeyMap())
        size = self._model_size(i) + self._model_size(j)
        started = time.perf_counter()
        # Decide-only: the merge runs against the untouched left model,
        # its precomputed artifacts and its bound index bases, and
        # builds no merged model — a sweep only needs the report.
        _, report, _ = self.composer.compose_step(
            left,
            right,
            target_state=target_state,
            source_state=source_state,
            decide_only=True,
            target_indexes=indexes,
            source_keys=source_keys,
        )
        seconds = time.perf_counter() - started
        return PairOutcome(
            i=i,
            j=j,
            left=self.labels[i],
            right=self.labels[j],
            size=size,
            seconds=seconds,
            united=len(report.duplicates),
            added=report.total_added,
            renamed=len(report.renamed),
            conflicts=len(report.conflicts),
        )


def _synthesized_outcome(
    i: int, j: int, left: str, right: str, size: int, counts: Tuple
) -> PairOutcome:
    """The row of a pair the prescreen prunes, from its
    :func:`~repro.core.signature.synthesized_counts` — identical on
    every run-invariant field (:meth:`PairOutcome.key`) to what
    :meth:`_PairEngine.run_pair` would have produced, with zero wall
    time (nothing ran)."""
    return PairOutcome(i, j, left, right, size, 0.0, *counts)


class _Sweep:
    """One sweep over ``models``: the engine behind every sweep entry
    point.

    Everything the sweep's runs share is built once, here: the labels,
    the size hints, the prescreen (``prescreen=True``) and, with one
    worker, the inline :class:`_PairEngine`, so a model's artifacts,
    bound indexes and patterns are derived once however many runs the
    sweep makes.  :func:`match_all` makes one run of every pair;
    ``sbmlcompose sweep --shards K`` makes one run per shard it owes.
    """

    def __init__(
        self,
        models: Sequence[Model],
        options: Optional[ComposeOptions],
        workers: int,
        prescreen: bool,
    ):
        workers = int(workers)
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if not isinstance(prescreen, bool):
            raise TypeError(
                f"prescreen must be a bool, got {type(prescreen).__name__}"
            )
        self.models = list(models)
        self.options = options
        self.workers = workers
        self.labels = stable_labels(self.models)
        self.sizes = [model.network_size() for model in self.models]
        self.screen = (
            Prescreen.build(self.models, options) if prescreen else None
        )
        self.engine = None
        if workers == 1:
            self.engine = _PairEngine(
                options,
                self.models,
                self.labels,
                self.screen.index_sets if self.screen is not None else None,
            )

    def run(self, pairs: Sequence[Pair]) -> MatchMatrix:
        """The rows of ``pairs``, given in canonical sweep order,
        through the prescreen gate, inline with one worker or
        supervised with more.  Surviving pairs are computed, pruned
        pairs synthesized; rows come back in the order of ``pairs``
        however the work was scheduled, so a screened sweep's CSV is
        row-for-row aligned with the full sweep's."""
        started = time.perf_counter()
        if self.workers > 1:
            matrix = self._run_supervised(pairs)
        else:
            matrix = self._run_inline(pairs)
        matrix.seconds = time.perf_counter() - started
        return matrix

    def _run_inline(self, pairs: Sequence[Pair]) -> MatchMatrix:
        screen = self.screen
        survivors = screen.survivors() if screen is not None else None
        outcomes = []
        pruned = 0
        for i, j in pairs:
            if survivors is None or survivors[i, j]:
                outcomes.append(self.engine.run_pair(i, j))
            else:
                size = self.sizes[i] + self.sizes[j]
                counts = screen.synthesized_counts(i, j)
                outcomes.append(
                    _synthesized_outcome(
                        i, j, self.labels[i], self.labels[j], size, counts
                    )
                )
                pruned += 1
        return MatchMatrix(
            outcomes=outcomes,
            seconds=0.0,
            model_count=len(self.models),
            workers=1,
            pruned=pruned,
        )

    def _run_supervised(self, pairs: Sequence[Pair]) -> MatchMatrix:
        """``pairs`` on :attr:`workers` supervised worker processes
        (quarantined pairs absent).

        The workers hold the corpus themselves.  Only the sweep journal
        lives in a private temporary directory, removed when the run
        ends, also when it raises (:data:`_PRIVATE_FINGERPRINT`).
        There is one work unit per worker, cut from ``pairs`` and
        balanced on the cost of the pairs the prescreen lets through.
        """
        from repro.core.coordinator import CoordinatorConfig, SweepCoordinator

        screen = self.screen
        with tempfile.TemporaryDirectory(
            prefix="sbmlcompose-sweep-"
        ) as out_dir:
            report = SweepCoordinator(
                self.models,
                self.options,
                out_dir=out_dir,
                fingerprint=_PRIVATE_FINGERPRINT,
                partition=partition_pairs(
                    self.sizes,
                    self.workers,
                    pairs=pairs,
                    runs=screen.survivors() if screen is not None else None,
                ),
                prescreen=screen,
                config=CoordinatorConfig(workers=self.workers),
                progress=False,
            ).run()
        return MatchMatrix.union(report.matrices)


def match_all(
    models: Sequence[Model],
    options: Optional[ComposeOptions] = None,
    *,
    workers: int = 1,
    backend: str = "process",
    include_self: bool = True,
    prescreen: bool = False,
) -> MatchMatrix:
    """Compose every unordered pair of ``models``, batched.

    Pairs are enumerated ``(i, j)`` with ``i <= j`` in input order —
    hand the corpus over size-sorted to reproduce the paper's Figure 8
    pairing order ("smallest with smallest, ... largest with
    largest").  ``include_self=False`` drops the ``i == j`` self-pairs.
    The inputs are never mutated and the composed models are not
    retained; each pair yields a :class:`PairOutcome`.  Each model's
    artifacts are derived once, in memory, and shared by its pairs.

    ``workers=1`` (the default) runs every pair inline.  ``workers >
    1`` runs the pairs the prescreen lets through on that many
    supervised worker processes
    (:class:`~repro.core.coordinator.SweepCoordinator`): each worker
    holds the corpus this call was given (inherited, not copied, where
    processes fork) and builds the inline engine over it, so nothing
    is written to disk but the sweep's private journal; a worker that
    dies has its work stolen and retried, and a pair that keeps
    killing its worker is quarantined — its row is absent and
    :attr:`MatchMatrix.quarantined` counts it.
    ``backend`` names the worker kind and accepts only ``"process"``.
    Outcomes are returned in pair order regardless of scheduling.

    ``prescreen=True`` routes the sweep through the vectorized
    structural prescreen (:class:`~repro.core.signature.Prescreen`),
    built here from the corpus.  Pairs the prescreen proves trivial
    skip the phase machinery and get synthesized outcomes; every
    returned row — synthesized or computed — is identical on its
    run-invariant fields (:meth:`PairOutcome.key`) to the unscreened
    sweep's, which the conformance matrix pins as its eighth path.
    :attr:`MatchMatrix.pruned` counts the synthesized pairs, and
    :attr:`MatchMatrix.seconds` includes the prescreen build.
    """
    if backend != "process":
        raise ValueError(
            f"unknown worker backend {backend!r}; sweep workers are "
            f"processes (backend='process')"
        )
    started = time.perf_counter()
    sweep = _Sweep(models, options, workers, prescreen)
    matrix = sweep.run(enumerate_pairs(len(sweep.models), include_self))
    matrix.seconds = time.perf_counter() - started
    return matrix


def match_query(
    target: Model,
    sources: Sequence[Model],
    options: Optional[ComposeOptions] = None,
) -> MatchMatrix:
    """Compose one query model (as target) against each source model.

    The corpus-search primitive behind ``sbmlcompose corpus query``:
    pairs are ``(0, j)`` for ``j = 1..len(sources)`` over the
    concatenated ``[target, *sources]`` list, so outcome rows carry
    the query at ``i=0`` and each candidate's position (in input
    order) at ``j``.  Every pair runs inline, in this process, with no
    artifact store and no prescreen: a query matches the few
    candidates its :class:`~repro.core.corpus_index.CorpusIndex` could
    not screen, where a store lookup, a worker or a second screen each
    costs more than the pair itself.  Each row's run-invariant fields
    match what a full sweep over the same models would produce.
    """
    pairs = [(0, j) for j in range(1, len(sources) + 1)]
    return _Sweep([target, *sources], options, 1, False).run(pairs)

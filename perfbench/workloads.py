"""The benchmark's four workloads.

Each workload turns a seed into inputs (:meth:`Workload.inputs`),
prepares them as a user would (:meth:`Workload.setup`: generate,
write SBML files, parse, build and save an index), takes the
references its output checks compare against and runs one untimed
warm-up (:meth:`Workload.prepare`), then runs timed repetitions
(:meth:`Workload.rep`).  Each repetition checks its own outputs after
its timed region.  The program only ever receives the generated
models and files, never the seed.

Every call into the program goes through a module attribute or a
class attribute looked up at call time, so the wrappers that
:mod:`tracing` installs see it.  ``README.md`` says why each workload
exists and what it is meant to judge.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Every fourth model of the size-sorted 187-model Figure 8 corpus:
#: 47 models, 1,128 pairs with self-pairs.
SWEEP_STRIDE = 4
#: Sweep pairs checked against one-shot ``compose_all`` per run.
ORACLE_PAIRS = 24
#: Merges per pass of ``merge-nway``, and models per merge.
MERGE_OPS = 24
MERGE_MODELS = 8
#: Library size and held-out query count of ``corpus-query``.
QUERY_LIBRARY = 96
QUERY_COUNT = 24
#: Candidates fully matched per query (``corpus query --top-k 10``).
TOP_K = 10


def _mod(name: str):
    # ``import repro.core.match_all`` would bind the function of that
    # name re-exported by ``repro.core``; the module is wanted here.
    return importlib.import_module(name)


def _options():
    """The CLI's default options (``--semantics heavy --index hash``)."""
    return _mod("repro.core.options").ComposeOptions(
        semantics="heavy", index="hash"
    )


def _corpus(seed: int, count: Optional[int] = None):
    corpus = _mod("repro.corpus.biomodels_like")
    models = corpus.generate_corpus(count=count or corpus.CORPUS_SIZE, seed=seed)
    return corpus.corpus_by_size(models)


def _write_models(models, directory: Path) -> List[Path]:
    writer = _mod("repro.sbml.writer")
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for position, model in enumerate(models):
        path = directory / f"{position:03d}-{model.id}.xml"
        writer.write_sbml_file(model, path)
        paths.append(path)
    return paths


def _read(path: Path):
    return _mod("repro.sbml.reader").read_sbml_file(path).model


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mismatches(got: Sequence, want: Sequence) -> int:
    """Positions where two sequences differ, plus any length gap."""
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


@dataclass
class Inputs:
    """What a seed generates: the models and the list of operations."""

    models: list
    ops: list

    def digest(self) -> str:
        """``corpus_fingerprint`` of the models plus the op list."""
        fingerprint = _mod("repro.core.artifact_store").corpus_fingerprint(
            self.models
        )
        return _sha256(fingerprint + repr(self.ops))


@dataclass
class Rep:
    """One timed repetition: a sweep, or one pass over the op list."""

    #: Seconds of timed work (checks excluded).
    wall: float
    #: Operations completed.
    ops: int
    #: Per-operation latencies in seconds (sweeps: pairs that ran).
    latencies: List[float]
    attempted: int
    failed: int
    #: ``(start, end)`` ``perf_counter`` readings of each timed call:
    #: the sweep, or every merge or query op.
    intervals: List[Tuple[float, float]]
    #: Pair rows with ``seconds == 0``, i.e. synthesized by the
    #: prescreen (sweeps only).
    pruned: List[Tuple[int, int]] = field(default_factory=list)

    def scaled(self, factors: List[float]) -> Tuple[float, List[float]]:
        """``(wall, latencies)`` times one factor per interval."""
        if len(factors) == 1:
            return self.wall * factors[0], [v * factors[0] for v in self.latencies]
        latencies = [v * f for v, f in zip(self.latencies, factors)]
        return sum(latencies), latencies


def _op_rep(intervals: List[Tuple[float, float]], failed: int) -> Rep:
    """A closed-loop pass: one op per timed interval."""
    latencies = [end - start for start, end in intervals]
    return Rep(
        sum(latencies), len(latencies), latencies, len(latencies), failed, intervals
    )


class Workload:
    name = ""
    #: Processes that do the timed work at once.
    processes = 1

    def inputs(self, seed: int) -> Inputs:
        raise NotImplementedError

    def setup(self, inputs: Inputs, root: Path):
        raise NotImplementedError

    def prepare(self, state, seed: int) -> Tuple[int, int]:
        """References and warm-up; returns ``(attempted, failed)``."""
        raise NotImplementedError

    def rep(self, state) -> Rep:
        raise NotImplementedError

    def prune_time_ratio(self, state, rep: Rep) -> float:
        return 0.0


# -- sweeps --------------------------------------------------------------


@dataclass
class SweepState:
    models: list
    #: ``PairOutcome.key()`` per row of the serial reference sweep.
    keys: List[tuple] = field(default_factory=list)
    #: ``(i, j) -> seconds`` of the serial reference sweep.
    seconds: Dict[Tuple[int, int], float] = field(default_factory=dict)


class Sweep(Workload):
    """``match_all`` over an evenly strided, size-sorted corpus subset."""

    def __init__(self, name: str, **sweep_args):
        self.name = name
        self.sweep_args = sweep_args
        self.processes = sweep_args["workers"]

    def inputs(self, seed: int) -> Inputs:
        models = _corpus(seed)[::SWEEP_STRIDE]
        return Inputs(models, [("match_all", sorted(self.sweep_args.items()))])

    def setup(self, inputs: Inputs, root: Path) -> SweepState:
        paths = _write_models(inputs.models, root / "models")
        return SweepState([_read(path) for path in paths])

    def _sweep(self, state: SweepState, **sweep_args):
        return _mod("repro.core.match_all").match_all(state.models, **sweep_args)

    def prepare(self, state: SweepState, seed: int) -> Tuple[int, int]:
        reference = self._sweep(state, workers=1)
        state.keys = [outcome.key() for outcome in reference.outcomes]
        state.seconds = {(o.i, o.j): o.seconds for o in reference.outcomes}
        # The reference itself is checked against one-shot compose_all
        # on a seeded sample of pairs (the engine's test oracle).
        compose_all = _mod("repro.core.session").compose_all
        rng = np.random.default_rng([seed, 1])
        sample = rng.choice(len(reference.outcomes), ORACLE_PAIRS, replace=False)
        failed = 0
        for row in sorted(int(position) for position in sample):
            outcome = reference.outcomes[row]
            report = compose_all(
                [state.models[outcome.i], state.models[outcome.j]]
            ).report
            failed += (
                outcome.united,
                outcome.added,
                outcome.renamed,
                outcome.conflicts,
            ) != (
                len(report.duplicates),
                report.total_added,
                len(report.renamed),
                len(report.conflicts),
            )
        attempted = ORACLE_PAIRS
        if self.sweep_args != {"workers": 1}:
            warm = self.rep(state)
            attempted += warm.attempted
            failed += warm.failed
        return attempted, failed

    def rep(self, state: SweepState) -> Rep:
        started = time.perf_counter()
        matrix = self._sweep(state, **self.sweep_args)
        ended = time.perf_counter()
        keys = [outcome.key() for outcome in matrix.outcomes]
        return Rep(
            wall=ended - started,
            ops=matrix.pair_count,
            latencies=[o.seconds for o in matrix.outcomes if o.seconds > 0.0],
            attempted=len(keys),
            failed=_mismatches(keys, state.keys),
            intervals=[(started, ended)],
            pruned=[(o.i, o.j) for o in matrix.outcomes if o.seconds == 0.0],
        )

    def prune_time_ratio(self, state: SweepState, rep: Rep) -> float:
        total = sum(state.seconds.values())
        pruned = sum(state.seconds[pair] for pair in rep.pruned)
        return pruned / total if total else 0.0


# -- n-way merges --------------------------------------------------------


@dataclass
class MergeState:
    paths: List[Path]
    ops: List[Tuple[int, ...]]
    models: list
    options: object
    #: SHA-256 of the merged SBML per op, from the in-memory models.
    digests: List[str] = field(default_factory=list)


class Merge(Workload):
    """``sbmlcompose merge`` on seeded sets drawn across size bands."""

    name = "merge-nway"

    def inputs(self, seed: int) -> Inputs:
        corpus = _corpus(seed)
        rng = np.random.default_rng([seed, 2])
        # One model from each of MERGE_MODELS equal-count bands of the
        # size order, so every merge spans the corpus's size range.  Each
        # band is dealt out in shuffled rounds, so a pass uses every
        # model of a band about equally often and costs about the same
        # whatever the seed; only the combinations change.
        bands = np.array_split(np.arange(len(corpus)), MERGE_MODELS)
        columns = []
        for band in bands:
            rounds = -(-MERGE_OPS // len(band))
            dealt = np.concatenate([rng.permutation(band) for _ in range(rounds)])
            columns.append([int(position) for position in dealt[:MERGE_OPS]])
        drawn = list(zip(*columns))
        used = sorted({position for op in drawn for position in op})
        slot = {position: index for index, position in enumerate(used)}
        ops = [tuple(slot[position] for position in op) for op in drawn]
        return Inputs([corpus[position] for position in used], ops)

    def setup(self, inputs: Inputs, root: Path) -> MergeState:
        paths = _write_models(inputs.models, root / "models")
        return MergeState(paths, inputs.ops, inputs.models, _options())

    def _merge(self, state: MergeState, models):
        session = _mod("repro.core.session")
        return session.ComposeSession(state.options).compose_all(models)

    def prepare(self, state: MergeState, seed: int) -> Tuple[int, int]:
        # Each reference merge (of the in-memory models) must be valid
        # SBML.  A timed result with the same bytes is the same model,
        # so it is valid too.  The reference merges double as warm-up.
        writer = _mod("repro.sbml.writer")
        validate = _mod("repro.sbml.validate")
        failed = 0
        for op in state.ops:
            model = self._merge(state, [state.models[i] for i in op]).model
            failed += any(
                issue.severity == validate.ERROR
                for issue in validate.validate_model(model)
            )
            state.digests.append(_sha256(writer.write_sbml(model)))
        return len(state.ops), failed

    def rep(self, state: MergeState) -> Rep:
        writer = _mod("repro.sbml.writer")
        intervals = []
        texts = []
        for op in state.ops:
            started = time.perf_counter()
            models = [_read(state.paths[i]) for i in op]
            result = self._merge(state, models)
            texts.append(writer.write_sbml(result.model))
            intervals.append((started, time.perf_counter()))
        failed = _mismatches([_sha256(text) for text in texts], state.digests)
        return _op_rep(intervals, failed)


# -- indexed corpus queries ----------------------------------------------


@dataclass
class QueryState:
    index_dir: Path
    query_paths: List[Path]
    library: list
    queries: list
    options: object
    #: Per query: the full ranking and the top-k outcome keys.
    rankings: List[list] = field(default_factory=list)
    keys: List[list] = field(default_factory=list)


def _ranking(hits) -> list:
    return [
        (hit.digest, hit.position, hit.score, hit.blocked, hit.united)
        for hit in hits
    ]


class Query(Workload):
    """``sbmlcompose corpus query --index --top-k 10``, held-out queries."""

    name = "corpus-query"

    def inputs(self, seed: int) -> Inputs:
        corpus = _corpus(seed, QUERY_LIBRARY + QUERY_COUNT)
        # The middle model of each of QUERY_COUNT equal-count size
        # bands.  Generated sizes hardly depend on the seed, so every
        # seed queries with the same spread of sizes; the seed decides
        # the models' contents.
        held_out = [
            int(band[len(band) // 2])
            for band in np.array_split(np.arange(len(corpus)), QUERY_COUNT)
        ]
        library = [m for i, m in enumerate(corpus) if i not in held_out]
        queries = [corpus[i] for i in held_out]
        ops = list(range(len(library), len(library) + len(queries)))
        return Inputs(library + queries, ops)

    def setup(self, inputs: Inputs, root: Path) -> QueryState:
        corpus_index = _mod("repro.core.corpus_index")
        library = inputs.models[: QUERY_LIBRARY]
        queries = [inputs.models[i] for i in inputs.ops]
        library_paths = _write_models(library, root / "library")
        query_paths = _write_models(queries, root / "queries")
        options = _options()
        index = corpus_index.CorpusIndex(options)
        index.add_all(
            library,
            labels=[path.stem for path in library_paths],
            paths=library_paths,
        )
        index.save(root / "index")
        return QueryState(root / "index", query_paths, library, queries, options)

    def prepare(self, state: QueryState, seed: int) -> Tuple[int, int]:
        # References from a second index that is never saved, so its
        # queries walk the in-memory tail postings, and from the
        # in-memory models; they double as warm-up.  The timed path
        # loads the saved segments and reads every model from disk.
        corpus_index = _mod("repro.core.corpus_index")
        signature = _mod("repro.core.signature")
        engine = _mod("repro.core.match_all")
        reference = corpus_index.CorpusIndex(state.options)
        reference.add_all(state.library)
        for query in state.queries:
            hits = reference.rank(
                reference.query(
                    signature.ModelSignature.build(query, state.options)
                )
            )
            top = [hit for hit in hits if hit.blocked][:TOP_K]
            matrix = engine.match_query(
                query, [state.library[hit.position] for hit in top], state.options
            )
            state.rankings.append(_ranking(hits))
            state.keys.append([outcome.key() for outcome in matrix.outcomes])
        return 0, 0

    def _query(self, state: QueryState, path: Path):
        corpus_index = _mod("repro.core.corpus_index")
        signature = _mod("repro.core.signature")
        engine = _mod("repro.core.match_all")
        index = corpus_index.CorpusIndex.load(state.index_dir)
        query = _read(path)
        hits = index.rank(
            index.query(signature.ModelSignature.build(query, state.options))
        )
        top = [hit for hit in hits if hit.blocked][:TOP_K]
        candidates = [_read(Path(index.get(hit.digest).path)) for hit in top]
        matrix = engine.match_query(query, candidates, state.options)
        return hits, matrix

    def rep(self, state: QueryState) -> Rep:
        intervals = []
        results = []
        for path in state.query_paths:
            started = time.perf_counter()
            results.append(self._query(state, path))
            intervals.append((started, time.perf_counter()))
        failed = 0
        for (hits, matrix), ranking, keys in zip(
            results, state.rankings, state.keys
        ):
            failed += (
                _ranking(hits) != ranking
                or [outcome.key() for outcome in matrix.outcomes] != keys
            )
        return _op_rep(intervals, failed)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Sweep("sweep-serial", workers=1),
        Sweep(
            "sweep-2w-prescreen", workers=2, backend="process", prescreen=True
        ),
        Merge(),
        Query(),
    )
}

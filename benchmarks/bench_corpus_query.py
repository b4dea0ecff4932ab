"""Corpus search: indexed queries vs the linear full-match scan.

The corpus subsystem's claim is sublinear retrieval: a query against
a ``CorpusIndex`` touches only the posting lists of the query's own
signature keys, classifies every library model with the prescreen's
prune rule, and runs the full matcher on the handful of
candidates the prescreen could not synthesize — instead of composing
the query against all *n* library models.  This benchmark measures
that claim on a BioModels-like library (1000 models by default):

* index build + save/load wall time (the amortized cost);
* per-query classification latency (posting walk + prune rule + rank),
  the median over the queries;
* the prune rate (fraction of the library never fully matched);
* end-to-end top-K retrieval (classify + full-match the top blocked
  candidates) against the linear ``match_query`` scan over the whole
  library, on the same query models.

Results land in the ``corpus_query`` section of ``BENCH_compose.json``
(read-modify-write: the compose_all sections are preserved), so the
retrieval trajectory is tracked across PRs alongside the engine's.

Usage::

    python -m benchmarks.bench_corpus_query              # 1000 models
    python -m benchmarks.bench_corpus_query --count 200 --queries 3
    python -m benchmarks.bench_corpus_query --smoke      # CI: tiny + crash-only
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.core.corpus_index import CorpusIndex
from repro.core.match_all import match_query
from repro.core.signature import ModelSignature
from benchmarks._common import cached_corpus, emit, write_csv
from benchmarks.bench_compose_all import BENCH_JSON

#: Library size for the tracked configuration.
LIBRARY_SIZE = 1000

#: How many library models double as query models (spread evenly).
QUERY_COUNT = 5

#: Full matcher budget per query: the top-K blocked candidates.
TOP_K = 10


def _build_library(count: int, seed: int = 42):
    # Disk-cached: the 1000-model library costs ~11.6 s to generate —
    # regenerating it per run used to dominate the bench's wall time.
    return cached_corpus(count, seed)


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def run(count: int, queries: int, top_k: int, seed: int = 42) -> dict:
    """Measure the indexed pipeline and the linear scan; returns the
    ``corpus_query`` payload."""
    library, generate_seconds = _timed(lambda: _build_library(count, seed))

    index = CorpusIndex()
    _, build_seconds = _timed(
        lambda: [index.add(model) for model in library]
    )

    query_positions = [
        (position * len(library)) // queries for position in range(queries)
    ]
    query_models = [library[position] for position in query_positions]

    classify_seconds = []
    retrieval_seconds = []
    linear_seconds = []
    pruned_shares = []
    blocked_counts = []
    for query in query_models:
        signature = ModelSignature.build(query)
        hits, classify = _timed(
            lambda: CorpusIndex.rank(index.query(signature))
        )
        classify_seconds.append(classify)
        blocked = [hit for hit in hits if hit.blocked]
        blocked_counts.append(len(blocked))
        pruned_shares.append(1.0 - len(blocked) / len(library))

        selected = blocked[:top_k]
        chosen = [library[hit.position] for hit in selected]
        _, retrieve = _timed(
            lambda: match_query(query, chosen) if chosen else None
        )
        retrieval_seconds.append(classify + retrieve)

        _, linear = _timed(lambda: match_query(query, library))
        linear_seconds.append(linear)

    mean_retrieval = statistics.mean(retrieval_seconds)
    mean_linear = statistics.mean(linear_seconds)
    return {
        "engine": "corpus_index",
        "library_models": len(library),
        "queries": queries,
        "top_k": top_k,
        "generate_seconds": round(generate_seconds, 6),
        "index_build_seconds": round(build_seconds, 6),
        "posting_lists": index.stats()["posting_keys"],
        # The median: one of the few classifications often absorbs a
        # collector pass (the linear scans between them allocate a
        # lot), which a mean would report as classification time.
        "query_classify_seconds_median": round(
            statistics.median(classify_seconds), 6
        ),
        "query_retrieval_seconds_mean": round(mean_retrieval, 6),
        "linear_scan_seconds_mean": round(mean_linear, 6),
        "retrieval_speedup_vs_linear": round(
            mean_linear / mean_retrieval, 2
        )
        if mean_retrieval
        else None,
        "blocked_candidates_mean": round(
            statistics.mean(blocked_counts), 2
        ),
        "pruned_share_mean": round(statistics.mean(pruned_shares), 4),
    }


def _merge_into_bench_json(payload: dict) -> Path:
    """Install the ``corpus_query`` section, preserving everything the
    compose_all benchmark owns."""
    try:
        committed = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        committed = {}
    committed["corpus_query"] = payload
    BENCH_JSON.write_text(
        json.dumps(committed, indent=2) + "\n", encoding="utf-8"
    )
    return BENCH_JSON


# ---------------------------------------------------------------------------
# pytest-benchmark entries
# ---------------------------------------------------------------------------


def bench_corpus_query_small(benchmark):
    """Indexed classify+retrieve on a 100-model library must beat the
    linear scan (the sublinearity smoke check at pytest scale)."""
    library = _build_library(100)
    index = CorpusIndex()
    for model in library:
        index.add(model)
    query = library[50]
    signature = ModelSignature.build(query)

    def classify_and_retrieve():
        hits = CorpusIndex.rank(index.query(signature))
        blocked = [hit for hit in hits if hit.blocked][:TOP_K]
        chosen = [library[hit.position] for hit in blocked]
        return match_query(query, chosen) if chosen else None

    benchmark(classify_and_retrieve)
    _, linear = _timed(lambda: match_query(query, library))
    _, indexed = _timed(classify_and_retrieve)
    emit("")
    emit(
        f"corpus query (100 models): indexed {indexed * 1000:.2f} ms "
        f"vs linear {linear * 1000:.2f} ms"
    )
    assert indexed < linear


# ---------------------------------------------------------------------------
# Standalone entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=LIBRARY_SIZE)
    parser.add_argument("--queries", type=int, default=QUERY_COUNT)
    parser.add_argument("--top-k", type=int, default=TOP_K)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: 100-model library, fail on crash or on an "
             "indexed retrieval slower than the linear scan",
    )
    args = parser.parse_args(argv)

    count = 100 if args.smoke else args.count
    queries = min(args.queries, count)
    payload = run(count, queries, args.top_k, seed=args.seed)

    print(f"corpus query — {payload['library_models']}-model library")
    print(f"  index build:        {payload['index_build_seconds'] * 1000:9.1f} ms "
          f"({payload['posting_lists']} posting lists)")
    print(f"  classify (median):  {payload['query_classify_seconds_median'] * 1000:9.2f} ms")
    print(f"  retrieve top-{args.top_k} (mean): {payload['query_retrieval_seconds_mean'] * 1000:6.1f} ms")
    print(f"  linear scan (mean): {payload['linear_scan_seconds_mean'] * 1000:9.1f} ms")
    print(f"  speedup vs linear:  {payload['retrieval_speedup_vs_linear']:9.2f}x")
    print(f"  prune rate (mean):  {payload['pruned_share_mean']:9.2%}")

    write_csv(
        "corpus_query.csv",
        list(payload.keys()),
        [list(payload.values())],
    )
    path = _merge_into_bench_json(payload)
    print(f"machine-readable results: {path} (corpus_query section)")

    if payload["retrieval_speedup_vs_linear"] and (
        payload["retrieval_speedup_vs_linear"] < 1.0
    ):
        print(
            "FAIL: indexed retrieval slower than the linear scan",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

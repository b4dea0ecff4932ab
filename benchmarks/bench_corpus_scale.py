"""Corpus index at scale: segmented build, mmap queries, cold open.

The format-2 corpus index keeps postings as sorted numpy arrays in
per-segment files that are memory-mapped at query time, so a query
faults in only the posting pages its own signature keys hit — the
cost of opening a 10k-model index scales with the query, not the
library.  This benchmark records the acceptance numbers for that
design on BioModels-like libraries (1k and 10k by default):

* **build wall-clock** — ``add_all`` over the whole library, one
  model at a time in this process;
* **save time and on-disk size** of the segmented layout;
* **query p50** through a freshly loaded index at each library size
  (the sublinearity trend line);
* **cold open + peak RSS of the query process** — a subprocess loads
  the index, runs the query battery, and reports its peak RSS
  (``VmHWM``), proving queries never page the whole index in.

The probe asserts that the saved index answers the first query
exactly like the in-memory index it was saved from, hit for hit.
Results land in the ``corpus_scale`` section of
``BENCH_compose.json`` (read-modify-write; ``bench_compose_all``
carries the section forward).

``--gate`` is absolute: the query subprocess must stay under
``--gate-rss-mb`` at every library size.

Run standalone::

    PYTHONPATH=src python -m benchmarks.bench_corpus_scale
    PYTHONPATH=src python -m benchmarks.bench_corpus_scale --counts 1000
    PYTHONPATH=src python -m benchmarks.bench_corpus_scale --smoke --gate
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.corpus_index import CorpusIndex
from repro.core.signature import ModelSignature

from benchmarks._common import cached_corpus, emit, write_csv
from benchmarks.bench_compose_all import BENCH_JSON

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The tracked library ladder (ISSUE 9 acceptance: 1k and 10k).
DEFAULT_COUNTS = (1000, 10000)

#: Library models that double as query models (spread evenly).
QUERY_COUNT = 5

#: Query-subprocess peak-RSS ceiling.  Interpreter + numpy + the
#: repro import graph measure ~90 MB on the reference container and
#: the mmap'ed query path adds only the faulted posting pages — the
#: headroom to 512 MB is what a non-mmap'ed 10k index would blow
#: through (its pickled form alone is several hundred MB).
DEFAULT_GATE_RSS_MB = 512


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _hit_tuples(index: CorpusIndex, signature: ModelSignature):
    return [
        (hit.digest, hit.score, hit.blocked, hit.united)
        for hit in index.query(signature)
    ]


def _disk_bytes(path: Path) -> int:
    return sum(
        entry.stat().st_size for entry in path.rglob("*") if entry.is_file()
    )


def probe_index(index_dir: Path, query_models) -> dict:
    """Run the cold-open + query battery in a fresh subprocess and
    return its JSON report (load time, query p50, peak RSS)."""
    with tempfile.NamedTemporaryFile(suffix=".pkl", delete=False) as handle:
        pickle.dump(query_models, handle, protocol=pickle.HIGHEST_PROTOCOL)
        queries_path = handle.name
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    try:
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "benchmarks.bench_corpus_scale",
                "--probe",
                str(index_dir),
                "--probe-queries",
                queries_path,
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            check=True,
        )
    finally:
        os.unlink(queries_path)
    return json.loads(completed.stdout)


def _peak_rss_kb() -> int:
    """This process's peak RSS.  ``VmHWM`` from /proc, not
    ``getrusage``: on Linux ``ru_maxrss`` survives ``execve``, so a
    subprocess forked from a corpus-laden parent would inherit the
    parent's multi-GB peak and report it as its own.  ``VmHWM`` is
    per-mm and resets on exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_probe(index_dir: str, queries_path: str) -> int:
    """``--probe`` mode: the body of the query subprocess."""
    with open(queries_path, "rb") as handle:
        query_models = pickle.load(handle)
    index, load_seconds = _timed(lambda: CorpusIndex.load(Path(index_dir)))
    signatures = [ModelSignature.build(model) for model in query_models]
    per_query = []
    for signature in signatures:
        hits, seconds = _timed(lambda: index.query(signature))
        assert hits, "query battery returned no hits"
        per_query.append(seconds)
    print(
        json.dumps(
            {
                "models": len(index),
                "load_seconds": round(load_seconds, 6),
                "queries": len(per_query),
                "query_p50_seconds": round(
                    statistics.median(per_query), 6
                ),
                "maxrss_kb": _peak_rss_kb(),
            }
        )
    )
    return 0


def measure_count(count: int, queries: int, seed: int) -> dict:
    """Build, save, and probe one library size."""
    library, generate_seconds = _timed(lambda: cached_corpus(count, seed))
    labels = [f"m{position:05d}" for position in range(len(library))]
    query_models = [
        library[(position * len(library)) // queries]
        for position in range(queries)
    ]
    probe_signature = ModelSignature.build(query_models[0])

    index = CorpusIndex()
    _, build_seconds = _timed(lambda: index.add_all(library, labels=labels))
    expected = _hit_tuples(index, probe_signature)

    scratch = Path(tempfile.mkdtemp(prefix="bench-corpus-scale-"))
    try:
        index_dir = scratch / "corpus.idx"
        _, save_seconds = _timed(lambda: index.save(index_dir))
        # The sealed segments must answer exactly like the tail did.
        assert _hit_tuples(
            CorpusIndex.load(index_dir), probe_signature
        ) == expected, "saved index diverged from the in-memory build"
        disk_bytes = _disk_bytes(index_dir)
        stats = index.stats()
        probe = probe_index(index_dir, query_models)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    return {
        "models": len(library),
        "generate_seconds": round(generate_seconds, 6),
        "build_seconds": round(build_seconds, 6),
        "save_seconds": round(save_seconds, 6),
        "index_disk_bytes": disk_bytes,
        "segments": stats["segments"],
        "posting_keys": stats["posting_keys"],
        "probe": probe,
    }


def write_scale_json(section: dict) -> Path:
    """Merge the ``corpus_scale`` section into BENCH_compose.json
    without touching the sections other benchmarks own."""
    try:
        payload = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        payload = {}
    payload["corpus_scale"] = section
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return BENCH_JSON


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--counts", default=",".join(str(c) for c in DEFAULT_COUNTS),
        help="comma-separated library-size ladder",
    )
    parser.add_argument("--queries", type=int, default=QUERY_COUNT)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: one 60-model library, crash + gate checks only",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="exit 1 when the query-process RSS misses the bar (see "
             "module docstring)",
    )
    parser.add_argument("--gate-rss-mb", type=int,
                        default=DEFAULT_GATE_RSS_MB)
    parser.add_argument("--probe", metavar="INDEX_DIR",
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe-queries", metavar="PICKLE",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        return _run_probe(args.probe, args.probe_queries)

    counts = (
        [60]
        if args.smoke
        else [int(c) for c in args.counts.split(",") if c.strip()]
    )
    print(
        f"corpus scale: libraries {counts}, {args.queries} queries, "
        f"cpu_count {os.cpu_count()}"
    )

    libraries = {}
    for count in counts:
        libraries[str(count)] = measure_count(
            count, min(args.queries, count), args.seed
        )

    section = {
        "engine": "corpus_index/segmented-v2",
        "counts": counts,
        "queries": args.queries,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "libraries": libraries,
    }

    emit("")
    emit("Segmented corpus index at scale")
    emit(
        f"{'models':>8} {'build':>9} {'save':>7} {'disk MB':>8} "
        f"{'open ms':>8} {'p50 ms':>7} {'rss MB':>7}"
    )
    for count in counts:
        row = libraries[str(count)]
        probe = row["probe"]
        emit(
            f"{row['models']:>8} {row['build_seconds']:>9.2f} "
            f"{row['save_seconds']:>7.2f} "
            f"{row['index_disk_bytes'] / 1e6:>8.1f} "
            f"{probe['load_seconds'] * 1000:>8.1f} "
            f"{probe['query_p50_seconds'] * 1000:>7.2f} "
            f"{probe['maxrss_kb'] / 1024:>7.1f}"
        )
    write_csv(
        "corpus_scale.csv",
        [
            "models", "build_seconds", "save_seconds", "index_disk_bytes",
            "load_seconds", "query_p50_seconds", "maxrss_kb",
        ],
        [
            (
                row["models"],
                f"{row['build_seconds']:.6f}",
                f"{row['save_seconds']:.6f}",
                row["index_disk_bytes"],
                f"{row['probe']['load_seconds']:.6f}",
                f"{row['probe']['query_p50_seconds']:.6f}",
                row["probe"]["maxrss_kb"],
            )
            for row in (libraries[str(count)] for count in counts)
        ],
    )

    failures = []
    if args.gate:
        section["gate"] = {"rss_mb_threshold": args.gate_rss_mb}
        for count in counts:
            rss_mb = libraries[str(count)]["probe"]["maxrss_kb"] / 1024
            if rss_mb > args.gate_rss_mb:
                failures.append(
                    f"query-process peak RSS {rss_mb:.0f} MB at "
                    f"{count} models exceeds the "
                    f"{args.gate_rss_mb} MB gate"
                )

    path = write_scale_json(section)
    print(f"machine-readable results: {path} (corpus_scale section)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared helpers for the benchmark harness.

The experiment sweeps (Figures 8 and 9) produce the same rows/series
the paper reports; results are both echoed to the terminal (bypassing
pytest capture, so they appear in ``bench_output.txt``) and written as
CSV under ``benchmarks/results/``.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import Composer
from repro.core.options import ComposeOptions
from repro.sbml.model import Model

RESULTS_DIR = Path(__file__).parent / "results"

#: Lines accumulated during the run; flushed by the conftest's
#: ``pytest_terminal_summary`` hook (which pytest does not capture) so
#: the paper-style series appear in the terminal / bench_output.txt.
EMITTED: List[str] = []


def emit(text: str) -> None:
    """Queue a report line for the end-of-run summary (and echo it
    immediately when running outside pytest)."""
    EMITTED.append(text)
    if not _under_pytest():
        sys.stdout.write(text + "\n")
        sys.stdout.flush()


def _under_pytest() -> bool:
    import os

    return "PYTEST_CURRENT_TEST" in os.environ


#: Where :func:`cached_corpus` spills generated libraries.
CORPUS_CACHE_DIR = Path(__file__).parent / ".corpus_cache"


def cached_corpus(count: int, seed: int = 42) -> List[Model]:
    """``generate_corpus`` with an on-disk cache.

    Generating the 1000-model benchmark library costs ~11.6 s — more
    than the measurements some benches wrap around it — and the 10k
    library an order of magnitude more.  The generated corpus is a
    pure function of ``(count, seed, generator code)``, so it is
    pickled once under a key that includes a hash of the generator's
    source: editing ``biomodels_like.py`` invalidates the cache
    automatically, and every bench run (and the corpus-query and
    corpus-scale benches between them) reuses the same library.  A
    corrupt or unreadable cache entry regenerates silently.
    """
    import hashlib
    import os
    import pickle
    import tempfile

    from repro.corpus import biomodels_like

    version = hashlib.sha256(
        Path(biomodels_like.__file__).read_bytes()
    ).hexdigest()[:12]
    path = CORPUS_CACHE_DIR / f"corpus-{count}-{seed}-{version}.pkl"
    if path.is_file():
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception:
            pass
    models = biomodels_like.generate_corpus(count=count, seed=seed)
    CORPUS_CACHE_DIR.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        dir=CORPUS_CACHE_DIR, prefix=f".{path.name}-", delete=False
    )
    try:
        pickle.dump(models, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return models


def write_csv(name: str, header: Sequence[str], rows: Sequence[Sequence]) -> Path:
    """Persist a result table under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(str(cell) for cell in row) + "\n")
    return path


def log10_ms(seconds: float) -> float:
    """The paper's y-axis: log10 of the composition time in ms.

    Sub-0.01 ms timings are clamped so log10 stays finite.
    """
    return math.log10(max(seconds * 1000.0, 1e-2))


def time_compose(
    first: Model,
    second: Model,
    options: Optional[ComposeOptions] = None,
    composer: Optional[Composer] = None,
) -> float:
    """Wall-clock seconds for one composition.

    Pass ``composer`` to time repeated compositions through one
    engine (shared options/synonym table); otherwise a fresh engine
    is built per call, which also pays the options setup cost.
    """
    engine = composer if composer is not None else Composer(options)
    started = time.perf_counter()
    engine.compose(first, second)
    return time.perf_counter() - started


def all_pairs_in_size_order(
    models: Sequence[Model],
) -> List[Tuple[int, int]]:
    """The paper's pairing order: "the smallest model was composed
    with the smallest model, the smallest model was composed with the
    second smallest model, ..., the largest model was composed with
    the largest model" — every unordered pair (including self-pairs)
    in ascending size order."""
    pairs = []
    for i in range(len(models)):
        for j in range(i, len(models)):
            pairs.append((i, j))
    return pairs


def fig8_sweep(
    models: Sequence[Model],
    options: Optional[ComposeOptions] = None,
    workers: int = 1,
) -> List[Tuple[int, float]]:
    """Run the Figure 8 sweep over ``models`` (assumed size-sorted).

    Returns ``(combined size, seconds)`` per composition, in the
    paper's pairing order.  The sweep is driven by the batched
    :func:`~repro.core.match_all.match_all` engine: per-model
    artifacts (unit registry, evaluated initial values, used-id sets)
    are computed once and shared across every pair a model appears in,
    and ``workers > 1`` runs the pairs on supervised worker processes.
    The per-pair merge work itself is untouched — every composition
    still starts from clean models.
    """
    from repro.core.match_all import match_all

    return match_all(models, options, workers=workers).series()


def summarize_series(
    results: Sequence[Tuple[int, float]], buckets: int = 10
) -> List[Tuple[str, int, float, float]]:
    """Bucket (size, seconds) points by size for a compact printed
    series: (size range, count, mean ms, mean log10 ms)."""
    if not results:
        return []
    sizes = [size for size, _ in results]
    low, high = min(sizes), max(sizes)
    span = max(1, (high - low + buckets) // buckets)
    table: Dict[int, List[float]] = {}
    for size, seconds in results:
        bucket = (size - low) // span
        table.setdefault(bucket, []).append(seconds)
    rows = []
    for bucket in sorted(table):
        lo = low + bucket * span
        hi = lo + span - 1
        values = table[bucket]
        mean_s = sum(values) / len(values)
        rows.append(
            (
                f"{lo}-{hi}",
                len(values),
                mean_s * 1000.0,
                log10_ms(mean_s),
            )
        )
    return rows

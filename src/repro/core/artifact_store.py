"""On-disk, content-addressed store for per-model artifacts.

Local sweeps derive each model's artifacts in memory.  The store has
two jobs: **remote sweep workers** rehydrate each model, with its
artifacts, from it behind a :class:`CorpusManifest` (``sweep
--listen``, ``worker --store``, digest-fetch), and the **corpus
index** adopts stored signatures (``corpus index --store``).

An :class:`ArtifactStore` spills per-model artifacts to disk, addressed by
the **content digest** of the model that produced them
(:func:`model_digest` — SHA-256 of the model's canonical SBML text).
Content addressing makes the store safe to share between workers,
index builds and unrelated corpora: a model rehydrates its own
artifacts and nothing else, however it was loaded, and a model edited
in place simply misses and recomputes.  Both writers —
:meth:`ArtifactStore.get_or_compute` and :meth:`CorpusManifest.build`
— store complete entries (pattern table, index rows, signature and
the SBML text), and when they compute the digest themselves they
store the very text they hashed.  Every entry goes through one atomic
write (:meth:`ArtifactStore.put_blob`: temp file + rename), so a
killed writer never leaves a torn entry; a corrupt or
format-incompatible entry reads as a miss, never an error — but not
a *silent* one: the store counts hits, misses, corrupt and
format-incompatible reads (:meth:`ArtifactStore.stats`), and a blob
that fails to deserialise is **quarantined** into a ``corrupt/``
subdirectory on detection, so bit rot is diagnosed once instead of
being re-read (and re-missed) on every future rehydration.
:meth:`ArtifactStore.verify` — surfaced as ``sbmlcompose store verify``
— scans the whole store and reports the same classification offline;
a root that is not a directory is an error, not an empty store.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core import chaos
from repro.core.compose import ModelIndexSet, _collect_initial_values
from repro.core.pattern_cache import PatternCache, model_pattern_table
from repro.errors import ReproError
from repro.sbml.model import Model
from repro.sbml.writer import write_sbml
from repro.units.registry import UnitRegistry

__all__ = [
    "ModelArtifacts",
    "ArtifactStore",
    "CorpusManifest",
    "StoreVerifyReport",
    "model_digest",
    "corpus_fingerprint",
    "compute_artifacts",
]

#: The one entry layout the store reads and writes.  Bump it when the
#: pickled artifact layout changes: entries of any other format read
#: as counted ``incompatible`` misses and are recomputed and rewritten
#: in this format — the store is a cache.  Format 5 carries the
#: pattern table, the phase-index rows, the structural signature and
#: the model's canonical SBML text (the exact bytes
#: :func:`model_digest` hashes), which is what lets sweep workers
#: rehydrate the *model* — not just its artifacts — from the store.
#: (Format-5 entries may also carry a per-collection id table that
#: nothing reads any more; it is ignored.)
_FORMAT = 5


def model_digest(model: Model) -> str:
    """The content digest of a model.

    SHA-256 of the canonical SBML serialisation, so two models that
    serialise identically — e.g. a model and its :meth:`~repro.sbml.model.Model.copy`
    — share one digest, however they were built or loaded.
    """
    return _text_digest(write_sbml(model))


def _text_digest(text: str) -> str:
    """SHA-256 hex digest of canonical SBML text — what
    :func:`model_digest` hashes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus_fingerprint(
    models: Sequence[Model], extra: Iterable[object] = ()
) -> str:
    """One digest for a whole corpus (plus run parameters).

    The sweep checkpoint journal stores this to refuse resuming a
    sweep against a different corpus, a reordered corpus, or changed
    run parameters (``extra`` — shard count, semantics, self-pair
    policy...).  Model order participates: pair indexes ``(i, j)``
    are positional.
    """
    return _fingerprint_digests(
        [model_digest(model) for model in models], extra
    )


def _fingerprint_digests(
    digests: Sequence[str], extra: Iterable[object] = ()
) -> str:
    """:func:`corpus_fingerprint` from already-computed model digests —
    the shared definition, so a :class:`CorpusManifest` built from a
    corpus whose digests were just paid for agrees byte-for-byte with
    the fingerprint a checkpoint journal computed from the models."""
    digest = hashlib.sha256()
    for model_hash in digests:
        digest.update(model_hash.encode("ascii"))
        digest.update(b"\x00")
    for item in extra:
        digest.update(repr(item).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass
class ModelArtifacts:
    """The derived per-model state the composition engine reuses.

    What :class:`~repro.core.compose.AccumState` carries for an
    accumulator, precomputed for an *input* — the used-id set, the
    unit registry and the evaluated initial-value environment — plus
    the model's canonical **pattern table**
    (:func:`~repro.core.pattern_cache.model_pattern_table`): the
    Figure 7 pattern of every expression the model carries, keyed by
    structural digest, used to seed each composition's
    :class:`~repro.core.pattern_cache.PatternCache` so pattern work
    happens once per model instead of once per pair.
    """

    used_ids: Set[str]
    registry: UnitRegistry
    initial: Dict[str, float]
    #: expression digest -> canonical pattern (empty restriction).
    patterns: Dict[str, str] = field(default_factory=dict)
    #: Per-model phase-index rows, or ``None`` when skipped
    #: (``with_indexes=False``).  Tagged with the key-affecting
    #: options they were built under; consumers must check
    #: :meth:`~repro.core.compose.ModelIndexSet.matches` and rebuild
    #: locally on a mismatch.
    indexes: Optional[ModelIndexSet] = None
    #: Structural signature (same options discipline as ``indexes``:
    #: check :meth:`~repro.core.signature.ModelSignature.matches` and
    #: rebuild on mismatch), or ``None`` when skipped.
    signature: Optional["ModelSignature"] = None
    #: The model's canonical SBML text — the exact string
    #: :func:`model_digest` hashes, so ``sha256(sbml) == digest`` for
    #: a healthy entry.  Sweep workers parse the model back out of
    #: this blob; ``None`` when skipped (a manifest build fills it in
    #: place when the parent still holds the model).
    sbml: Optional[str] = None


def compute_artifacts(
    model: Model,
    with_patterns: bool = True,
    with_indexes: bool = True,
    with_sbml: bool = True,
) -> ModelArtifacts:
    """Derive a model's artifacts from scratch (the store's miss path,
    and the single source of truth for what gets spilled).

    ``with_patterns=False`` skips the canonical pattern table — for
    callers whose options can never consult patterns (light/structural
    semantics) and who are not spilling to a shared store (a stored
    entry should stay complete, since other runs with other semantics
    rehydrate it).  ``with_indexes=False`` likewise skips the
    phase-index rows, which are computed under the paper-default heavy
    options (the fingerprint travels with them; a consumer running
    other semantics rebuilds in memory), and implies skipping the
    signature, which is derived from those rows.
    ``with_sbml=False`` skips the canonical SBML blob — for callers
    who already serialised the model (a manifest build pays
    :func:`write_sbml` once for the digest and attaches that same
    text) or whose entries never feed digest-shipped workers."""
    used_ids = set(model.global_ids()) | {
        ud.id for ud in model.unit_definitions if ud.id
    }
    patterns = model_pattern_table(model) if with_patterns else {}
    indexes = None
    signature = None
    if with_indexes:
        # Route the index build's math keys through a cache seeded
        # with the pattern table just computed, so each expression's
        # pattern is derived exactly once per model.
        cache = PatternCache()
        if patterns:
            cache.seed(patterns)
        indexes = ModelIndexSet.build(
            model, _artifact_options(), pattern_cache=cache
        )
        from repro.core.signature import ModelSignature

        signature = ModelSignature.build(
            model,
            _artifact_options(),
            index_set=indexes,
            used_ids=used_ids,
            pattern_cache=cache,
        )
    return ModelArtifacts(
        used_ids=used_ids,
        registry=model.unit_registry(),
        initial=_collect_initial_values(model),
        patterns=patterns,
        indexes=indexes,
        signature=signature,
        sbml=write_sbml(model) if with_sbml else None,
    )


#: Options the stored index rows are computed under — the paper
#: default, which is what sweeps overwhelmingly run.  Built lazily
#: (constructing options builds the synonym table) and shared.
_ARTIFACT_OPTIONS = None


def _artifact_options():
    global _ARTIFACT_OPTIONS
    if _ARTIFACT_OPTIONS is None:
        from repro.core.options import ComposeOptions

        _ARTIFACT_OPTIONS = ComposeOptions()
    return _ARTIFACT_OPTIONS


@dataclass(frozen=True)
class CorpusManifest:
    """What a remote sweep worker receives instead of models.

    An ordered ``(label, digest)`` list plus the corpus fingerprint —
    a flat description whose pickle is a few dozen bytes per model.
    Workers resolve each digest against a shared :class:`ArtifactStore`
    on first touch: the entry carries the model's canonical SBML text
    (parse once per worker) *and* the pattern table, index rows and
    signature derived from it, so a rehydrated model is seeded exactly
    like an in-memory one.

    Build with :meth:`build`, which also guarantees the store side of
    the contract: after it returns, every manifest digest resolves to
    an entry with a non-``None`` ``sbml`` blob (pre-existing blob-less
    entries are filled in place).  Entry order is corpus order — pair
    indexes ``(i, j)`` are positional on it.
    """

    #: ``(label, digest)`` per model, in corpus order.
    entries: Tuple[Tuple[str, str], ...]
    #: :func:`corpus_fingerprint` of the corpus (no extras).
    fingerprint: str
    #: Each model's artifact signature (``None`` where its entry has
    #: none), as the build derived or loaded it, so that the sweep's
    #: prescreen need not derive it again.  Not part of the manifest
    #: proper: not compared, and not shipped to workers.
    signatures: Tuple = field(default=(), compare=False, repr=False)

    def __reduce__(self):
        return (CorpusManifest, (self.entries, self.fingerprint))

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    @property
    def digests(self) -> Tuple[str, ...]:
        """Corpus digests in order — also the ``pinned=`` set that
        keeps :meth:`ArtifactStore.evict` from dropping an entry a
        live worker could still rehydrate-miss."""
        return tuple(digest for _, digest in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def build(
        cls,
        models: Sequence[Model],
        labels: Sequence[str],
        store: ArtifactStore,
    ) -> "CorpusManifest":
        """Manifest for ``models``, populating ``store`` so every
        entry is worker-rehydratable (SBML blob present).

        Serialises each model once — that text is both the digest
        input and the stored blob — and writes only on a miss or on an
        entry missing the blob (filled in place, other artifact fields
        kept).  Raises ``OSError`` if the store cannot be written.
        """
        if len(models) != len(labels):
            raise ValueError(
                f"{len(models)} models but {len(labels)} labels"
            )
        entries = []
        signatures = []
        for model, label in zip(models, labels):
            text = write_sbml(model)
            digest = _text_digest(text)
            artifacts = store.get(digest)
            if artifacts is None:
                artifacts = compute_artifacts(model, with_sbml=False)
                artifacts.sbml = text
                store.put(digest, artifacts)
            elif artifacts.sbml is None:
                artifacts.sbml = text
                store.put(digest, artifacts)
            entries.append((label, digest))
            signatures.append(artifacts.signature)
        return cls(
            entries=tuple(entries),
            fingerprint=_fingerprint_digests(
                [digest for _, digest in entries]
            ),
            signatures=tuple(signatures),
        )


@dataclass
class StoreVerifyReport:
    """What :meth:`ArtifactStore.verify` found in one full scan."""

    total: int
    ok: int
    #: Digests whose blobs failed to deserialise at all.
    corrupt: List[str]
    #: Digests that deserialise but carry another format number
    #: (left in place; a read recomputes and rewrites them).
    incompatible: List[str]
    #: Where the corrupt blobs were moved (empty when the scan ran
    #: with ``quarantine=False``).
    quarantined: List[Path]

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.incompatible

    def summary(self) -> str:
        parts = [f"{self.total} entr{'y' if self.total == 1 else 'ies'}",
                 f"{self.ok} ok"]
        if self.corrupt:
            parts.append(
                f"{len(self.corrupt)} corrupt"
                + (
                    f" ({len(self.quarantined)} quarantined)"
                    if self.quarantined
                    else ""
                )
            )
        if self.incompatible:
            parts.append(f"{len(self.incompatible)} format-incompatible")
        return ", ".join(parts)


class ArtifactStore:
    """Content-addressed artifact files under one root directory.

    Layout: ``root/<digest[:2]>/<digest>.pkl`` (the two-character fan
    keeps directory listings short on large corpora).  All operations
    are safe under concurrent writers — two processes storing the same
    digest both write the same bytes, and the atomic rename makes the
    last one win harmlessly.

    Unhealthy entries degrade, but loudly: every read outcome is
    counted (:meth:`stats`), and a blob that fails to deserialise is
    moved into ``root/corrupt/`` the moment it is detected — the next
    read of that digest is an honest miss that recomputes and rewrites
    a good entry, instead of paying the failed deserialisation on
    every rehydration forever.  The quarantined bytes are kept (not
    deleted) for post-mortem.
    """

    #: Subdirectory corrupt blobs are moved into (outside the
    #: ``??/*.pkl`` entry namespace, so quarantined files are never
    #: counted, listed, or evicted as entries).
    CORRUPT_DIR = "corrupt"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._stats = {
            "hits": 0,
            "misses": 0,
            "corrupt": 0,
            "incompatible": 0,
        }

    def check_writable(self) -> None:
        """Create the root and prove it writable, before any work
        relies on the store.  Raises :class:`~repro.errors.ReproError`
        naming the root when it cannot be created or written (a path
        through a regular file, a read-only directory)."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tempfile.TemporaryFile(dir=self.root).close()
        except OSError as exc:
            raise ReproError(
                f"cannot write the artifact store at {self.root}: {exc}"
            ) from exc

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.pkl"

    def stats(self) -> Dict[str, int]:
        """Read-outcome counters for this store instance: ``hits``,
        ``misses`` (absent entries), ``corrupt`` (failed to
        deserialise; quarantined) and ``incompatible`` (another format
        number; left in place).  In-memory and per-instance — for a
        persistent whole-store audit use :meth:`verify`."""
        return dict(self._stats)

    def _quarantine_blob(self, path: Path) -> Optional[Path]:
        """Move a corrupt blob into ``corrupt/``; best effort (a
        read-only store leaves it where it is and just counts it)."""
        dest = self.root / self.CORRUPT_DIR / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            return None
        return dest

    @staticmethod
    def _decode(data: bytes):
        """``(format, artifacts)`` from raw entry bytes.

        Raises on undecodable bytes; a payload of any other format
        returns ``(format, None)`` — decodable, just not ours.
        """
        payload = pickle.loads(data)
        fmt = payload["format"]
        if fmt != _FORMAT:
            return fmt, None
        return fmt, payload["artifacts"]

    def get(self, digest: str) -> Optional[ModelArtifacts]:
        """The stored artifacts for ``digest``, or ``None`` on miss.

        A torn, corrupt or format-incompatible entry is a miss too —
        the caller recomputes and overwrites.  Corrupt blobs are
        additionally counted and quarantined to ``corrupt/`` so the
        failure is diagnosed once, not re-paid on every read.
        """
        path = self.path_for(digest)
        try:
            data = path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            self._stats["misses"] += 1
            return None
        if chaos.advice("artifact-read", "corrupt", digest=digest):
            # Simulated bit rot: garble the blob on disk (what a bad
            # sector hands back) and read the garbled bytes.
            data = bytes(byte ^ 0xA5 for byte in data[:64]) + data[64:]
            try:
                path.write_bytes(data)
            except OSError:
                pass
        try:
            fmt, artifacts = self._decode(data)
        except Exception:
            self._stats["corrupt"] += 1
            self._quarantine_blob(path)
            return None
        if artifacts is None:
            self._stats["incompatible"] += 1
            return None
        self._stats["hits"] += 1
        # Refresh the entry's mtime so :meth:`evict`'s LRU ordering
        # tracks *use*, not just creation.  Best effort: a read-only
        # store still serves hits.
        try:
            os.utime(path)
        except OSError:
            pass
        return artifacts

    def verify(self, quarantine: bool = True) -> StoreVerifyReport:
        """Scan every entry and classify it: ok, corrupt, or
        format-incompatible.  With ``quarantine`` (the default),
        corrupt blobs are moved to ``corrupt/`` exactly as an online
        read would.  Entries that vanish mid-scan (concurrent evictor)
        are skipped.  The scan is read-only for healthy entries — no
        mtimes are refreshed, so it never perturbs LRU eviction.  A root
        that is not a directory raises :class:`~repro.errors.ReproError`
        naming it: a mistyped path must not read as a clean store."""
        if not self.root.is_dir():
            raise ReproError(
                f"no artifact store at {self.root}: not a directory"
            )
        total = ok = 0
        corrupt: List[str] = []
        incompatible: List[str] = []
        quarantined: List[Path] = []
        for path in sorted(self.root.glob("??/*.pkl")):
            digest = path.stem
            try:
                data = path.read_bytes()
            except OSError:
                continue
            total += 1
            try:
                _, artifacts = self._decode(data)
            except Exception:
                corrupt.append(digest)
                if quarantine:
                    moved = self._quarantine_blob(path)
                    if moved is not None:
                        quarantined.append(moved)
                continue
            if artifacts is None:
                incompatible.append(digest)
            else:
                ok += 1
        return StoreVerifyReport(
            total=total,
            ok=ok,
            corrupt=corrupt,
            incompatible=incompatible,
            quarantined=quarantined,
        )

    def get_blob(self, digest: str) -> Optional[bytes]:
        """The raw on-disk bytes of an entry, or ``None`` when absent.

        The coordinator's digest-fetch server reads through this: the
        entry travels to a remote worker verbatim (no decode/re-encode
        round trip), and the worker's own :meth:`get` performs the
        usual corrupt/format screening after :meth:`put_blob` lands
        the bytes in its local store."""
        try:
            return self.path_for(digest).read_bytes()
        except OSError:
            return None

    def put_blob(self, digest: str, data: bytes) -> Path:
        """Store raw entry bytes under ``digest`` atomically — the
        receiving half of digest-fetch.  The bytes are trusted to be a
        store entry; a lying peer degrades into an ordinary corrupt
        entry (quarantined on first read), never an import error."""
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            dir=path.parent, prefix=f".{digest[:8]}-", delete=False
        )
        try:
            handle.write(data)
            handle.close()
            os.replace(handle.name, path)
        except BaseException:
            handle.close()
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return path

    def put(self, digest: str, artifacts: ModelArtifacts) -> Path:
        """Store ``artifacts`` under ``digest`` atomically; returns the
        entry's path."""
        return self.put_blob(
            digest,
            pickle.dumps({"format": _FORMAT, "artifacts": artifacts}),
        )

    def get_or_compute(
        self, model: Model, digest: Optional[str] = None
    ) -> ModelArtifacts:
        """Rehydrate a model's artifacts, computing and spilling them
        on first sight.  Pass ``digest`` when the caller already paid
        for :func:`model_digest`; otherwise the model is serialised
        once, for both the digest and the stored SBML blob."""
        text = None
        if digest is None:
            text = write_sbml(model)
            digest = _text_digest(text)
        artifacts = self.get(digest)
        if artifacts is None:
            artifacts = compute_artifacts(model, with_sbml=text is None)
            if text is not None:
                artifacts.sbml = text
            self.put(digest, artifacts)
        return artifacts

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.root.glob("??/*.pkl")):
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        return removed

    def evict(
        self,
        *,
        max_age: Optional[float] = None,
        max_entries: Optional[int] = None,
        pinned: Iterable[str] = (),
    ) -> int:
        """Expire old entries; returns how many were removed.

        LRU by mtime (reads refresh the mtime, so "least recently
        used" really means used): with ``max_age`` (seconds), every
        entry older than that is removed; with ``max_entries``, the
        oldest entries beyond the cap are removed.  Both constraints
        may be combined.  Concurrent evictors and writers are safe —
        an entry that disappears mid-scan is simply skipped, and a
        removed entry regenerates as an ordinary miss.

        ``pinned`` digests (typically a live
        :class:`~repro.core.corpus_index.CorpusIndex`'s
        :meth:`~repro.core.corpus_index.CorpusIndex.digests`) are
        exempt: never removed, and not counted against
        ``max_entries`` — LRU pressure cannot silently strip the
        artifacts an index's corpus still queries through.  (Eviction
        can never make query *results* wrong — a missing entry is an
        ordinary miss that recomputes — pinning just keeps the reuse
        the index exists for.)
        """
        if max_age is None and max_entries is None:
            return 0
        pinned = set(pinned)
        entries = []
        for path in self.root.glob("??/*.pkl"):
            if path.stem in pinned:
                continue
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue
        entries.sort()  # oldest first
        doomed = []
        if max_age is not None:
            cutoff = time.time() - max_age
            while entries and entries[0][0] < cutoff:
                doomed.append(entries.pop(0)[1])
        if max_entries is not None and len(entries) > max_entries:
            excess = len(entries) - max_entries
            doomed.extend(path for _, path in entries[:excess])
        removed = 0
        for path in doomed:
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        return removed

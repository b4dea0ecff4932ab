"""On-disk, content-addressed store for per-model artifacts.

Sweeps derive each model's artifacts in memory, locally and on remote
workers alike.  The store has two jobs: the **corpus index** adopts
stored signatures from it (``corpus index --store``), and ``store
verify`` audits it.  A :class:`CorpusManifest` is not stored at all:
it is the ``(label, digest)`` description of a corpus that a listening
coordinator hands remote workers, and it keeps each model's canonical
SBML text in memory, to answer their digest-fetch requests.

An :class:`ArtifactStore` spills per-model artifacts to disk, addressed by
the **content digest** of the model that produced them
(:func:`model_digest` — SHA-256 of the model's canonical SBML text).
Content addressing makes the store safe to share between index builds
and unrelated corpora: a model rehydrates its own artifacts and
nothing else, however it was loaded, and a model edited in place
simply misses and recomputes.  Every entry goes through one atomic
write (:meth:`ArtifactStore.put`: temp file + rename), so a killed
writer never leaves a torn entry; a corrupt, unreadable or
format-incompatible entry reads as a miss, never an error — but not a
*silent* one: the store counts hits, misses, corrupt and
format-incompatible reads (:meth:`ArtifactStore.stats`), and an entry
that cannot be read or deserialised is **quarantined** into a
``corrupt/`` subdirectory on detection, so bit rot is diagnosed once
instead of being re-read (and re-missed) on every future lookup.
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
from repro.core.compose import _collect_initial_values
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
#: in this format — the store is a cache.  Format 7 carries the used
#: ids, unit registry, initial values and structural signature, like
#: format 6, whose signatures fingerprinted components by ``repr``;
#: the pattern tables, phase-index rows and SBML text that format 5
#: also stored had no reader left.
_FORMAT = 7


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
    the model's structural signature, which the corpus index adopts
    from a store entry instead of deriving it.
    """

    used_ids: Set[str]
    registry: UnitRegistry
    initial: Dict[str, float]
    #: Structural signature under the paper-default options, or
    #: ``None`` when skipped.  Consumers check
    #: :meth:`~repro.core.signature.ModelSignature.matches` (or its
    #: ``options_key``) and build their own on a mismatch.
    signature: Optional["ModelSignature"] = None


def compute_artifacts(
    model: Model, with_signature: bool = True
) -> ModelArtifacts:
    """Derive a model's artifacts from scratch (the store's miss path,
    and the single source of truth for what gets spilled).

    ``with_signature=False`` skips the structural signature: the sweep
    engine never reads one, and only a stored entry, which the corpus
    index adopts, needs it."""
    used_ids = set(model.global_ids()) | {
        ud.id for ud in model.unit_definitions if ud.id
    }
    signature = None
    if with_signature:
        from repro.core.signature import ModelSignature

        signature = ModelSignature.build(model, _artifact_options())
    return ModelArtifacts(
        used_ids=used_ids,
        registry=model.unit_registry(),
        initial=_collect_initial_values(model),
        signature=signature,
    )


#: Options the stored signature is computed under — the paper
#: default, which is what indexes overwhelmingly run.  Built lazily
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
    Workers fetch each model's canonical SBML text by digest on first
    touch (``("fetch", digest)``), check it against the digest and
    parse it once.

    Build with :meth:`build`, which keeps the texts it serialised in
    memory (:attr:`texts`) for the coordinator that answers those
    fetches.  Entry order is corpus order — pair indexes ``(i, j)``
    are positional on it.
    """

    #: ``(label, digest)`` per model, in corpus order.
    entries: Tuple[Tuple[str, str], ...]
    #: :func:`corpus_fingerprint` of the corpus (no extras).
    fingerprint: str
    #: Each model's canonical SBML text, in corpus order: the exact
    #: string its digest hashes.  Not part of the manifest proper: not
    #: compared, and not shipped to workers, which fetch the texts
    #: they touch.
    texts: Tuple[str, ...] = field(default=(), compare=False, repr=False)

    def __reduce__(self):
        return (CorpusManifest, (self.entries, self.fingerprint))

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    @property
    def digests(self) -> Tuple[str, ...]:
        """Corpus digests in order."""
        return tuple(digest for _, digest in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def build(
        cls, models: Sequence[Model], labels: Sequence[str]
    ) -> "CorpusManifest":
        """Manifest for ``models``, serialising each model once: that
        text is both the digest input and what a fetch is answered
        with."""
        if len(models) != len(labels):
            raise ValueError(
                f"{len(models)} models but {len(labels)} labels"
            )
        texts = tuple(write_sbml(model) for model in models)
        digests = [_text_digest(text) for text in texts]
        return cls(
            entries=tuple(zip(labels, digests)),
            fingerprint=_fingerprint_digests(digests),
            texts=texts,
        )


@dataclass
class StoreVerifyReport:
    """What :meth:`ArtifactStore.verify` found in one full scan."""

    total: int
    ok: int
    #: Digests whose entries could not be read or deserialised at all.
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
    counted (:meth:`stats`), and an entry that cannot be read or
    deserialised is moved into ``root/corrupt/`` the moment it is
    detected — the next read of that digest is an honest miss that
    recomputes and rewrites a good entry, instead of paying the failed
    read on every lookup forever.  The quarantined bytes are kept (not
    deleted) for post-mortem.
    """

    #: Subdirectory corrupt entries are moved into (outside the
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
        ``misses`` (absent entries), ``corrupt`` (unreadable or failed
        to deserialise; quarantined) and ``incompatible`` (another
        format number; left in place).  In-memory and per-instance —
        for a persistent whole-store audit use :meth:`verify`."""
        return dict(self._stats)

    def _quarantine_blob(self, path: Path) -> Optional[Path]:
        """Move a corrupt entry into ``corrupt/``, beside any earlier
        one of the same digest; best effort (a read-only store leaves
        it where it is and just counts it)."""
        dest = self.root / self.CORRUPT_DIR / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            if dest.exists():
                dest = dest.with_name(f"{path.stem}-{time.time_ns()}.pkl")
            os.replace(path, dest)
        except OSError:
            return None
        return dest

    def _corrupt(self, path: Path) -> None:
        """Count a corrupt read and quarantine the entry."""
        self._stats["corrupt"] += 1
        self._quarantine_blob(path)

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

        A torn, corrupt, unreadable or format-incompatible entry is a
        miss too — the caller recomputes and overwrites.  Corrupt and
        unreadable entries are additionally counted and quarantined to
        ``corrupt/`` so the failure is diagnosed once, not re-paid on
        every read.
        """
        path = self.path_for(digest)
        try:
            data = path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            self._stats["misses"] += 1
            return None
        except OSError:
            # Something unreadable in the entry's place (a directory,
            # a file without read permission) is corrupt too.
            self._corrupt(path)
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
            self._corrupt(path)
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
        """Scan every entry and classify it: ok, corrupt (unreadable
        or undecodable), or format-incompatible.  With ``quarantine``
        (the default), corrupt entries are moved to ``corrupt/``
        exactly as an online read would.  Entries that vanish mid-scan
        (concurrent evictor) are skipped.  The scan is read-only for
        healthy entries — no mtimes are refreshed, so it never perturbs
        LRU eviction.  A root that is not a directory raises
        :class:`~repro.errors.ReproError` naming it: a mistyped path
        must not read as a clean store."""
        if not self.root.is_dir():
            raise ReproError(
                f"no artifact store at {self.root}: not a directory"
            )
        total = ok = 0
        corrupt: List[str] = []
        incompatible: List[str] = []
        quarantined: List[Path] = []
        for path in sorted(self.root.glob("??/*.pkl")):
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                continue
            except OSError:
                # Unreadable in place (a directory, no read
                # permission): empty bytes, which decode as corrupt.
                data = b""
            total += 1
            try:
                _, artifacts = self._decode(data)
            except Exception:
                corrupt.append(path.stem)
                if quarantine:
                    moved = self._quarantine_blob(path)
                    if moved is not None:
                        quarantined.append(moved)
                continue
            if artifacts is None:
                incompatible.append(path.stem)
            else:
                ok += 1
        return StoreVerifyReport(
            total=total,
            ok=ok,
            corrupt=corrupt,
            incompatible=incompatible,
            quarantined=quarantined,
        )

    def put(self, digest: str, artifacts: ModelArtifacts) -> Path:
        """Store ``artifacts`` under ``digest`` atomically (temp file +
        rename); returns the entry's path."""
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            dir=path.parent, prefix=f".{digest[:8]}-", delete=False
        )
        try:
            pickle.dump({"format": _FORMAT, "artifacts": artifacts}, handle)
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

    def get_or_compute(
        self, model: Model, digest: Optional[str] = None
    ) -> ModelArtifacts:
        """Rehydrate a model's artifacts, computing and spilling them
        on first sight.  Pass ``digest`` when the caller already paid
        for :func:`model_digest`."""
        if digest is None:
            digest = model_digest(model)
        artifacts = self.get(digest)
        if artifacts is None:
            artifacts = compute_artifacts(model)
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

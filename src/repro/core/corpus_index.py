"""Segmented, memory-mapped corpus search index.

The all-pairs :class:`~repro.core.signature.Prescreen` answers "which
pairs of *this in-memory corpus* are worth matching".  A corpus
*service* needs the same answer for one query model against a
**library that outlives the process**: thousands of models, indexed
once, queried many times, updated incrementally as models arrive and
leave.  The :class:`CorpusIndex` persists one global inverted index
over the corpus's tagged key hashes (component keys, math-pattern
digests, used ids), semanticSBML-style: annotation-like evidence is
precomputed at index time, so a query touches only the posting lists
its own keys hit.

Since format 2 the monolithic pickle (format 1: the whole index —
156k posting lists at just 1000 models — unpickled on every open) is
an **LSM-shaped directory** (format 3 keeps it, with fingerprints
built from math digests):

* ``manifest.json`` (+ ``manifest.json.bak``) — the commit point: the
  segment list, tombstones, entry overrides and the LRU/insertion
  clocks.  Written with the sweep journal's torn-write discipline
  (previous manifest preserved as ``.bak`` *before* the write, chaos
  hook ``checkpoint-write``/``torn-write`` with
  ``reason="corpus-manifest"``, recovery falls back to the backup) —
  at most the torn write's delta is lost, and the index stays
  loadable.
* ``options.pkl`` — the exact :class:`ComposeOptions` the index keys
  under, written once; the manifest stores the options fingerprint
  and load cross-checks the two.
* ``seg-NNNNNN/`` — immutable **segments**: per-model metadata
  (``meta.json``), the signature columns (every model's key hashes,
  fingerprints and primary flags back to back with an offsets table,
  plus the fixed-width per-model columns) and the segment-local
  inverted postings (sorted distinct key array + offsets + member
  ordinals), each an ``.npy`` file opened with
  ``np.load(mmap_mode="r")``.  A query binary-searches the sorted key
  array and faults in only the posting pages its own hashes hit —
  cold-open cost is proportional to hits, not index size.

New models land in a small **mutable tail** (plain in-memory dicts,
exactly the format-1 layout); :meth:`save` seals the tail into a new
segment.  :meth:`remove`/:meth:`evict` of sealed entries write
**tombstones**; label/path/LRU refreshes of sealed entries write
**overrides**; :meth:`compact` merges every live entry into one fresh
segment and clears both — the LSM merge, surfaced as ``corpus index
--compact``.

:meth:`query` classifies every live model exactly as the prescreen's
row would — the candidates surfaced by the posting walk go through the
prescreen's own rule against their (mmap-backed) stored signatures,
everything else is disjoint by construction — so running the full
matcher on the surviving candidates (``sbmlcompose corpus query``)
reproduces the linear scan's rows byte for byte, whatever mix of
segments, tail entries, tombstones and overrides the index holds.

The index is tied to one key-affecting options fingerprint
(:func:`~repro.core.compose.index_options_key`): signatures built
under other options are rejected at :meth:`add` and :meth:`query`
time.  Old format-1 single-file indexes and index files that cannot
be read are rejected with a "rebuild" error naming the file — an
index is cheap to rebuild from its corpus with :meth:`add_all`, which
adopts each model's signature from an artifact store entry when given
a store.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core import chaos
from repro.core.compose import index_options_key
from repro.core.options import ComposeOptions
from repro.core.signature import (
    COUNTS_LENGTH,
    ModelSignature,
    gate,
    pair_counts,
    source_run,
)
from repro.sbml.model import Model

__all__ = [
    "CorpusIndex",
    "IndexedModel",
    "QueryHit",
]

#: On-disk format version.  Format 1 was the monolithic single-file
#: pickle; format 2 is the segmented directory; format 3 keeps that
#: layout with congruence fingerprints built from math digests instead
#: of ``repr``.  Old formats are rejected at load with a rebuild hint
#: (an index is cheap to rebuild from its corpus — unlike the artifact
#: store there is no partial-rehydration tier).
_FORMAT = 3

_MANIFEST = "manifest.json"
_MANIFEST_BAK = "manifest.json.bak"
_OPTIONS_FILE = "options.pkl"


def _unreadable(path: Path, cause: object) -> ValueError:
    """The loader's error for an index file it cannot read."""
    return ValueError(
        f"unreadable corpus index file {path}: {cause}; rebuild the index"
    )


@dataclass
class IndexedModel:
    """One corpus model's index entry."""

    digest: str
    label: str
    #: Source path, when known — the stale-digest recovery handle: if
    #: the artifact store evicted this model's artifacts, reload from
    #: here and recompute.
    path: Optional[str]
    #: LRU clock value of the last add or re-add;
    #: :meth:`CorpusIndex.evict` drops the smallest.
    sequence: int
    signature: ModelSignature
    #: Insertion clock value — the global query/ranking position order
    #: across segments and the tail.
    insert_order: int = 0


@dataclass
class QueryHit:
    """One indexed model's classification against a query signature.

    ``blocked=True`` means the pair must run the full matcher (some
    shared key is not congruent-twin-owned, or the source is not
    self-clean); otherwise the outcome is synthesizable with ``united``
    twins: :func:`~repro.core.signature.synthesized_counts` of the
    query's and this model's component counts and ``united``.
    """

    digest: str
    label: str
    #: Insertion position in the index (stable tiebreak for ranking).
    position: int
    #: Shared tagged-key count with the query.
    score: int
    blocked: bool
    united: int
    component_count: int


def _concatenate(arrays: Sequence[np.ndarray], dtype) -> np.ndarray:
    """Per-model ragged arrays back to back, as one ``dtype`` column."""
    if not arrays:
        return np.empty(0, dtype=dtype)
    return np.concatenate(arrays).astype(dtype, copy=False)


def _build_postings(
    key_arrays: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(keys, offsets, members)`` inverted postings over per-model
    key arrays: sorted distinct keys, slice bounds per key, and the
    owning model ordinals grouped by key."""
    total = sum(array.size for array in key_arrays)
    if total == 0:
        return (
            np.empty(0, dtype=np.uint64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int32),
        )
    flat = np.concatenate(key_arrays).astype(np.uint64, copy=False)
    owners = np.repeat(
        np.arange(len(key_arrays), dtype=np.int32),
        [array.size for array in key_arrays],
    )
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    owners = owners[order]
    keys, starts = np.unique(flat, return_index=True)
    offsets = np.append(starts, flat.size).astype(np.int64)
    return keys, offsets, owners


class _Segment:
    """One immutable on-disk segment.

    Per-model metadata (digest, label, path, clocks) and the small
    fixed-width columns are loaded eagerly — they are what every query
    touches for every live entry.  The signature key arrays and the
    inverted postings are ``np.load(mmap_mode="r")`` on first use and
    faulted in page by page: a query that hits ``k`` posting lists
    reads O(k) pages, not the segment.
    """

    #: Lazily mmap'ed array files (attribute name -> file name).
    _ARRAYS = {
        "counts": "criteria_counts.npy",
        "sig_hashes": "sig_key_hashes.npy",
        "sig_fingerprints": "sig_key_fingerprints.npy",
        "sig_primary": "sig_key_primary.npy",
        "post_keys": "post_keys.npy",
        "post_offsets": "post_offsets.npy",
        "post_members": "post_members.npy",
    }

    def __init__(self, path: Path, options_key: Tuple):
        self.path = path
        self.name = path.name
        self.options_key = options_key
        meta_path = path / "meta.json"
        try:
            models = json.loads(meta_path.read_text(encoding="utf-8"))[
                "models"
            ]
            self.digests: List[str] = [row["digest"] for row in models]
            self.labels: List[str] = [row["label"] for row in models]
            self.paths: List[Optional[str]] = [row["path"] for row in models]
            self.sequences: List[int] = [row["sequence"] for row in models]
            self.insert_orders: List[int] = [
                row["insert_order"] for row in models
            ]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise _unreadable(meta_path, exc) from exc
        self.component_counts = self._load("component_counts.npy")
        self.self_clean = self._load("self_clean.npy")
        self.sig_offsets = self._load("sig_key_offsets.npy")
        self._mmaps: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.digests)

    def _load(self, name: str, mmap_mode: Optional[str] = None) -> np.ndarray:
        try:
            return np.load(self.path / name, mmap_mode=mmap_mode)
        except (OSError, ValueError, EOFError) as exc:
            raise _unreadable(self.path / name, exc) from exc

    def _array(self, attr: str) -> np.ndarray:
        array = self._mmaps.get(attr)
        if array is None:
            array = self._load(self._ARRAYS[attr], mmap_mode="r")
            self._mmaps[attr] = array
        return array

    @property
    def posting_key_count(self) -> int:
        return int(self._array("post_keys").shape[0])

    def signature(self, ordinal: int) -> ModelSignature:
        """Model ``ordinal``'s signature as mmap-backed slices."""
        low = int(self.sig_offsets[ordinal])
        high = int(self.sig_offsets[ordinal + 1])
        return ModelSignature(
            options_key=self.options_key,
            component_count=int(self.component_counts[ordinal]),
            counts=self._array("counts")[ordinal],
            key_hashes=self._array("sig_hashes")[low:high],
            key_fingerprints=self._array("sig_fingerprints")[low:high],
            key_primary=self._array("sig_primary")[low:high],
            self_clean=bool(self.self_clean[ordinal]),
        )

    def candidates(self, query_hashes: np.ndarray) -> Set[int]:
        """Ordinals of models sharing at least one key with the query
        — one binary search over the sorted key array, then only the
        hit posting ranges."""
        found: Set[int] = set()
        keys = self._array("post_keys")
        if keys.shape[0] == 0 or query_hashes.size == 0:
            return found
        positions = np.searchsorted(keys, query_hashes)
        valid = positions < keys.shape[0]
        positions = positions[valid]
        matched = positions[keys[positions] == query_hashes[valid]]
        offsets = self._array("post_offsets")
        members = self._array("post_members")
        for key_index in matched:
            low, high = int(offsets[key_index]), int(offsets[key_index + 1])
            found.update(int(o) for o in members[low:high])
        return found

    @staticmethod
    def write(
        path: Path,
        entries: Sequence[IndexedModel],
        options_key: Tuple,
    ) -> None:
        """Materialize one segment directory from resolved entries.

        Every signature must be built under ``options_key`` (a
        mismatch raises ``ValueError``: a segment must never launder a
        signature into a foreign index).  Not atomic, and does not
        need to be: a segment becomes live only when a manifest write
        commits its name, so a half-written directory is an invisible
        orphan — and a pre-existing orphan with the same name (a torn
        manifest write rolled the segment counter back) is removed
        first.
        """
        signatures = [entry.signature for entry in entries]
        for signature in signatures:
            if signature.options_key != options_key:
                raise ValueError(
                    "signature was built under different key options "
                    "than this segment's"
                )
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        key_hashes = [signature.key_hashes for signature in signatures]
        keys, offsets, members = _build_postings(key_hashes)
        columns = {
            "component_counts": np.array(
                [signature.component_count for signature in signatures],
                dtype=np.int64,
            ),
            "criteria_counts": np.array(
                [signature.counts for signature in signatures],
                dtype=np.int64,
            ).reshape(len(signatures), COUNTS_LENGTH),
            "self_clean": np.array(
                [signature.self_clean for signature in signatures],
                dtype=bool,
            ),
            "sig_key_hashes": _concatenate(key_hashes, np.uint64),
            "sig_key_fingerprints": _concatenate(
                [signature.key_fingerprints for signature in signatures],
                np.uint64,
            ),
            "sig_key_primary": _concatenate(
                [signature.key_primary for signature in signatures], bool
            ),
            "sig_key_offsets": np.concatenate(
                ([0], np.cumsum([array.size for array in key_hashes]))
            ).astype(np.int64),
            "post_keys": keys,
            "post_offsets": offsets,
            "post_members": members,
        }
        for name, array in columns.items():
            np.save(path / f"{name}.npy", array)
        meta = {
            "models": [
                {
                    "digest": entry.digest,
                    "label": entry.label,
                    "path": entry.path,
                    "sequence": entry.sequence,
                    "insert_order": entry.insert_order,
                }
                for entry in entries
            ]
        }
        (path / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


class CorpusIndex:
    """Incrementally maintained, persistent, segmented corpus index."""

    def __init__(self, options: Optional[ComposeOptions] = None):
        self.options = options or ComposeOptions()
        self.options_key = index_options_key(self.options)
        #: Directory this index is attached to (``None`` until the
        #: first :meth:`save` / a :meth:`load`).
        self._root: Optional[Path] = None
        self._segments: List[_Segment] = []
        #: digest -> (segment index, ordinal) for every sealed entry,
        #: tombstoned or not (a tombstoned digest resurrects from here
        #: without recomputing its signature — content-addressed means
        #: same digest, same signature).
        self._sealed: Dict[str, Tuple[int, int]] = {}
        #: Sealed digests removed since the last compact.
        self._tombstones: Set[str] = set()
        #: Sealed-entry mutations that don't touch postings: digest ->
        #: {label/path/sequence/insert_order}; absent keys inherit the
        #: segment's values.
        self._overrides: Dict[str, Dict[str, object]] = {}
        # Mutable tail — the format-1 in-memory layout, sealed into a
        # segment by save().
        self._tail_entries: Dict[str, IndexedModel] = {}
        self._tail_postings: Dict[int, Set[str]] = {}
        self._sequence = 0
        self._insert_clock = 0
        self._next_segment = 0
        self._order_cache: Optional[List[Tuple[int, str, int, int]]] = None

    # -- clocks and order ----------------------------------------------

    def _next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    def _next_insert_order(self) -> int:
        self._insert_clock += 1
        return self._insert_clock

    def _live_order(self) -> List[Tuple[int, str, int, int]]:
        """Every live entry as ``(insert_order, digest, segment index,
        ordinal)`` — segment index ``-1`` for tail entries — sorted by
        insertion order: the global query/ranking position order."""
        if self._order_cache is None:
            refs: List[Tuple[int, str, int, int]] = []
            for segment_index, segment in enumerate(self._segments):
                for ordinal, digest in enumerate(segment.digests):
                    if digest in self._tombstones:
                        continue
                    override = self._overrides.get(digest)
                    order = (
                        override["insert_order"]
                        if override and "insert_order" in override
                        else segment.insert_orders[ordinal]
                    )
                    refs.append((order, digest, segment_index, ordinal))
            for entry in self._tail_entries.values():
                refs.append((entry.insert_order, entry.digest, -1, -1))
            refs.sort()
            self._order_cache = refs
        return self._order_cache

    def _invalidate_order(self) -> None:
        self._order_cache = None

    # -- lookups -------------------------------------------------------

    def __len__(self) -> int:
        return (
            len(self._tail_entries)
            + len(self._sealed)
            - len(self._tombstones)
        )

    def __contains__(self, digest: str) -> bool:
        if digest in self._tail_entries:
            return True
        return digest in self._sealed and digest not in self._tombstones

    def get(self, digest: str) -> Optional[IndexedModel]:
        """The live entry for ``digest`` (sealed entries materialize
        with an mmap-backed signature view), or ``None``."""
        entry = self._tail_entries.get(digest)
        if entry is not None:
            return entry
        location = self._sealed.get(digest)
        if location is None or digest in self._tombstones:
            return None
        segment_index, ordinal = location
        segment = self._segments[segment_index]
        override = self._overrides.get(digest, {})
        return IndexedModel(
            digest=digest,
            label=override.get("label", segment.labels[ordinal]),
            path=override.get("path", segment.paths[ordinal]),
            sequence=override.get("sequence", segment.sequences[ordinal]),
            signature=segment.signature(ordinal),
            insert_order=override.get(
                "insert_order", segment.insert_orders[ordinal]
            ),
        )

    def digests(self) -> frozenset:
        """Digests of every live model — hand to
        ``ArtifactStore.evict(pinned=...)`` so LRU artifact eviction
        skips models a live index still serves."""
        return frozenset(
            digest for _, digest, _, _ in self._live_order()
        )

    # -- maintenance ---------------------------------------------------

    def add(
        self,
        model: Model,
        label: Optional[str] = None,
        *,
        path: Optional[Union[str, Path]] = None,
        store=None,
        signature: Optional[ModelSignature] = None,
    ) -> str:
        """Index one model; returns its content digest.

        Re-adding an already indexed model refreshes its label, path
        and LRU position without touching the postings (the digest is
        content-addressed, so same digest means same signature).  With
        ``store`` (an :class:`~repro.core.artifact_store.ArtifactStore`)
        the signature is rehydrated from the model's stored artifact
        entry when it matches this index's options.
        """
        from repro.core.artifact_store import model_digest

        return self._add_with_digest(
            model_digest(model),
            model,
            label,
            path,
            store=store,
            signature=signature,
        )

    def _add_with_digest(
        self,
        digest: str,
        model: Model,
        label: Optional[str],
        path: Optional[Union[str, Path]],
        *,
        store=None,
        signature: Optional[ModelSignature] = None,
    ) -> str:
        tail = self._tail_entries.get(digest)
        if tail is not None:
            tail.label = label or tail.label
            if path is not None:
                tail.path = str(path)
            tail.sequence = self._next_sequence()
            return digest
        if digest in self._sealed and digest not in self._tombstones:
            override = self._overrides.setdefault(digest, {})
            if label:
                override["label"] = label
            if path is not None:
                override["path"] = str(path)
            override["sequence"] = self._next_sequence()
            return digest
        display = label or model.name or model.id or digest[:12]
        if digest in self._sealed:
            # Resurrect a tombstoned sealed entry: the signature is
            # already on disk (content-addressed: same digest, same
            # signature) — only the metadata and the clocks are new.
            # Like a remove-then-add on the monolithic index, the
            # entry re-enters at the *end* of the insertion order.
            self._tombstones.discard(digest)
            self._overrides[digest] = {
                "label": display,
                "path": str(path) if path is not None else None,
                "sequence": self._next_sequence(),
                "insert_order": self._next_insert_order(),
            }
            self._invalidate_order()
            return digest
        if signature is None and store is not None:
            candidate = store.get_or_compute(model, digest).signature
            if (
                candidate is not None
                and candidate.options_key == self.options_key
            ):
                signature = candidate
        if signature is None:
            signature = ModelSignature.build(model, self.options)
        elif signature.options_key != self.options_key:
            raise ValueError(
                "signature was built under different key options than "
                "this index's"
            )
        entry = IndexedModel(
            digest=digest,
            label=display,
            path=str(path) if path is not None else None,
            sequence=self._next_sequence(),
            signature=signature,
            insert_order=self._next_insert_order(),
        )
        self._tail_entries[digest] = entry
        for hash_value in signature.key_hashes:
            self._tail_postings.setdefault(int(hash_value), set()).add(
                digest
            )
        self._invalidate_order()
        return digest

    def add_all(
        self,
        models: Sequence[Model],
        labels: Optional[Sequence[Optional[str]]] = None,
        paths: Optional[Sequence[Optional[Union[str, Path]]]] = None,
        *,
        store=None,
    ) -> Tuple[int, int]:
        """Index a batch of models, in order, exactly as :meth:`add`
        would one by one; returns ``(added, refreshed)``."""
        from repro.core.artifact_store import model_digest

        count = len(models)
        labels = list(labels) if labels is not None else [None] * count
        paths = list(paths) if paths is not None else [None] * count
        if len(labels) != count or len(paths) != count:
            raise ValueError(
                f"{count} models but {len(labels)} labels / "
                f"{len(paths)} paths"
            )
        added = refreshed = 0
        for model, label, path in zip(models, labels, paths):
            digest = model_digest(model)
            fresh = digest not in self
            self._add_with_digest(digest, model, label, path, store=store)
            added += fresh
            refreshed += not fresh
        return added, refreshed

    def remove(self, digest: str) -> bool:
        """Drop one model; ``False`` when the digest was not live.

        Tail entries clean their posting memberships immediately;
        sealed entries write a tombstone that :meth:`compact` clears.
        """
        entry = self._tail_entries.pop(digest, None)
        if entry is not None:
            for hash_value in entry.signature.key_hashes:
                postings = self._tail_postings.get(int(hash_value))
                if postings is not None:
                    postings.discard(digest)
                    if not postings:
                        del self._tail_postings[int(hash_value)]
            self._invalidate_order()
            return True
        if digest in self._sealed and digest not in self._tombstones:
            self._tombstones.add(digest)
            self._overrides.pop(digest, None)
            self._invalidate_order()
            return True
        return False

    def evict(self, max_entries: int) -> List[str]:
        """Drop least-recently-used entries down to ``max_entries``;
        returns the removed digests (oldest first)."""
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        excess = len(self) - max_entries
        if excess <= 0:
            return []
        by_age = sorted(
            self._live_order(),
            key=lambda ref: self._sequence_of(ref[1], ref[2], ref[3]),
        )
        removed = []
        for _, digest, _, _ in by_age[:excess]:
            self.remove(digest)
            removed.append(digest)
        return removed

    def _sequence_of(
        self, digest: str, segment_index: int, ordinal: int
    ) -> int:
        if segment_index < 0:
            return self._tail_entries[digest].sequence
        override = self._overrides.get(digest)
        if override and "sequence" in override:
            return override["sequence"]
        return self._segments[segment_index].sequences[ordinal]

    # -- queries -------------------------------------------------------

    def query(self, signature: ModelSignature) -> List[QueryHit]:
        """Classify every live model against one query signature.

        The posting walk (binary search per segment plus the tail
        dicts) surfaces only models sharing at least one key with the
        query; the prescreen's rule classifies the query against their
        mmap-backed stored signatures in one kernel call.  All other
        models are disjoint *by construction of the index* — their hits
        carry ``score=0`` and block only when the indexed model is not
        self-clean.  Hits come back in insertion order; rank with
        :meth:`rank`.
        """
        if signature.options_key != self.options_key:
            raise ValueError(
                "query signature was built under different key options "
                "than this index's"
            )
        query_hashes = np.asarray(signature.key_hashes, dtype=np.uint64)
        candidates: Set[str] = set()
        for segment in self._segments:
            candidates.update(
                segment.digests[ordinal]
                for ordinal in segment.candidates(query_hashes)
            )
        for hash_value in signature.key_hashes:
            candidates.update(self._tail_postings.get(int(hash_value), ()))
        live = self._live_order()
        labels: List[str] = []
        component_counts: List[int] = []
        self_clean: List[bool] = []
        sources: List[ModelSignature] = []
        positions: List[int] = []
        for position, (_, digest, segment_index, ordinal) in enumerate(live):
            if segment_index < 0:
                entry = self._tail_entries[digest]
                label, source = entry.label, entry.signature
                component_counts.append(source.component_count)
                self_clean.append(source.self_clean)
            else:
                segment = self._segments[segment_index]
                override = self._overrides.get(digest, {})
                label = override.get("label", segment.labels[ordinal])
                component_counts.append(int(segment.component_counts[ordinal]))
                self_clean.append(bool(segment.self_clean[ordinal]))
                source = None
            labels.append(label)
            if digest in candidates:
                if source is None:
                    source = segment.signature(ordinal)
                sources.append(source)
                positions.append(position)
        counts = pair_counts(
            signature, source_run(sources, positions), len(live)
        )
        _, united, survives = gate(
            counts,
            match_anything=self.options.match_anything,
            target_count=signature.component_count,
            source_counts=np.array(component_counts, dtype=np.int64),
            source_clean=np.array(self_clean, dtype=bool),
        )
        scores, blocked, twins = (
            counts[0].tolist(), survives.tolist(), united.tolist()
        )
        return [
            QueryHit(
                digest=digest,
                label=labels[position],
                position=position,
                score=scores[position],
                blocked=blocked[position],
                united=twins[position],
                component_count=component_counts[position],
            )
            for position, (_, digest, _, _) in enumerate(live)
        ]

    @staticmethod
    def rank(hits: Sequence[QueryHit]) -> List[QueryHit]:
        """Blocked hits (must-match candidates) ranked by shared-key
        score (descending, insertion order as tiebreak), followed by
        the synthesizable rest in insertion order."""
        blocked = sorted(
            (hit for hit in hits if hit.blocked),
            key=lambda hit: (-hit.score, hit.position),
        )
        pruned = [hit for hit in hits if not hit.blocked]
        return blocked + pruned

    # -- persistence ---------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Shape counters: live models, segments, tail size,
        tombstones, overrides, and distinct posting keys."""
        return {
            "models": len(self),
            "segments": len(self._segments),
            "tail_models": len(self._tail_entries),
            "tombstones": len(self._tombstones),
            "overrides": len(self._overrides),
            "posting_keys": sum(
                segment.posting_key_count for segment in self._segments
            )
            + len(self._tail_postings),
        }

    def save(self, path: Union[str, Path]) -> None:
        """Persist the index at directory ``path``: seal the tail into
        a new immutable segment, then commit the manifest (torn-write
        safe — see the module docstring).

        An index loaded from (or previously saved to) one directory
        saves in place; pass the same path.
        """
        path = Path(path)
        if self._root is not None and path.resolve() != self._root.resolve():
            raise ValueError(
                f"this index is attached to {self._root}; a segmented "
                f"index saves in place (copy the directory to relocate)"
            )
        if path.is_file():
            raise ValueError(
                f"{path} is a file — a pre-segment (format-1) index or "
                f"something else entirely; remove it and rebuild (an "
                f"index is cheap to rebuild from its corpus)"
            )
        path.mkdir(parents=True, exist_ok=True)
        self._root = path
        options_path = path / _OPTIONS_FILE
        if not options_path.exists():
            self._write_atomic(
                options_path,
                pickle.dumps(
                    self.options, protocol=pickle.HIGHEST_PROTOCOL
                ),
            )
        if self._tail_entries:
            name = f"seg-{self._next_segment:06d}"
            self._next_segment += 1
            entries = sorted(
                self._tail_entries.values(),
                key=lambda entry: entry.insert_order,
            )
            _Segment.write(path / name, entries, self.options_key)
            segment = _Segment(path / name, self.options_key)
            segment_index = len(self._segments)
            self._segments.append(segment)
            for ordinal, digest in enumerate(segment.digests):
                self._sealed[digest] = (segment_index, ordinal)
            self._tail_entries.clear()
            self._tail_postings.clear()
            self._invalidate_order()
        self._write_manifest()

    @staticmethod
    def _write_atomic(path: Path, payload: bytes) -> None:
        handle = tempfile.NamedTemporaryFile(
            dir=path.parent, prefix=f".{path.name}-", delete=False
        )
        try:
            handle.write(payload)
            handle.close()
            os.replace(handle.name, path)
        except BaseException:
            handle.close()
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def _write_manifest(self) -> None:
        """Commit the index state — the journal's torn-write
        discipline: previous manifest preserved as ``.bak`` first,
        then an atomic replace (or, under chaos, a torn half-write
        plus a simulated kill)."""
        payload = {
            "format": _FORMAT,
            "options_key": repr(self.options_key),
            "segments": [segment.name for segment in self._segments],
            "tombstones": sorted(self._tombstones),
            "overrides": self._overrides,
            "sequence": self._sequence,
            "insert_clock": self._insert_clock,
            "next_segment": self._next_segment,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        target = self._root / _MANIFEST
        if target.is_file():
            backup_tmp = self._root / (_MANIFEST_BAK + "-tmp")
            try:
                shutil.copy2(target, backup_tmp)
                os.replace(backup_tmp, self._root / _MANIFEST_BAK)
            except OSError:
                pass
        if chaos.advice(
            "checkpoint-write", "torn-write", reason="corpus-manifest"
        ):
            # Simulated power loss on a non-atomic filesystem: half
            # the new manifest lands over the old one, then the
            # process dies.  Recovery reads manifest.json.bak.
            target.write_text(text[: len(text) // 2], encoding="utf-8")
            raise chaos.ChaosKill(
                f"torn corpus manifest write at {target}"
            )
        self._write_atomic(target, text.encode("utf-8"))

    def compact(self) -> Dict[str, int]:
        """LSM merge: rewrite every live entry (segments + tail, in
        insertion order) into one fresh segment, clear tombstones and
        overrides, and delete the old segment directories.  Returns
        ``{"models", "segments_merged", "tombstones_cleared"}``.
        """
        if self._root is None:
            raise ValueError(
                "compact() needs an on-disk index; call save() first"
            )
        merged = [self.get(digest) for digest in self.digests()]
        merged.sort(key=lambda entry: entry.insert_order)
        old_segments = [segment.path for segment in self._segments]
        report = {
            "models": len(merged),
            "segments_merged": len(self._segments)
            + bool(self._tail_entries),
            "tombstones_cleared": len(self._tombstones),
        }
        if merged:
            name = f"seg-{self._next_segment:06d}"
            self._next_segment += 1
            # Materialize the mmap-backed signature views before their
            # source segments are deleted.
            for entry in merged:
                entry.signature = ModelSignature(
                    options_key=entry.signature.options_key,
                    component_count=entry.signature.component_count,
                    counts=np.array(entry.signature.counts),
                    key_hashes=np.array(entry.signature.key_hashes),
                    key_fingerprints=np.array(
                        entry.signature.key_fingerprints
                    ),
                    key_primary=np.array(entry.signature.key_primary),
                    self_clean=entry.signature.self_clean,
                )
            _Segment.write(self._root / name, merged, self.options_key)
            segment = _Segment(self._root / name, self.options_key)
            self._segments = [segment]
            self._sealed = {
                digest: (0, ordinal)
                for ordinal, digest in enumerate(segment.digests)
            }
        else:
            self._segments = []
            self._sealed = {}
        self._tombstones.clear()
        self._overrides.clear()
        self._tail_entries.clear()
        self._tail_postings.clear()
        self._invalidate_order()
        self._write_manifest()
        for old in old_segments:
            shutil.rmtree(old, ignore_errors=True)
        return report

    @staticmethod
    def _read_manifest(root: Path) -> Tuple[object, Path]:
        """``(payload, file read)`` of the manifest, falling back to
        ``manifest.json.bak`` when the main copy is torn (with a stderr
        warning) — only when both are unreadable does the load fail."""
        target = root / _MANIFEST
        try:
            return json.loads(target.read_text(encoding="utf-8")), target
        except FileNotFoundError:
            raise FileNotFoundError(
                f"no corpus index manifest at {target}"
            ) from None
        except (OSError, ValueError) as exc:
            main_error = exc
        backup = root / _MANIFEST_BAK
        try:
            payload = json.loads(backup.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            raise ValueError(
                f"unreadable corpus index manifest {target}: "
                f"{main_error} (and no readable {_MANIFEST_BAK} "
                f"backup); rebuild the index"
            ) from main_error
        print(
            f"warning: {target} is unreadable ({main_error}); "
            f"recovered from {backup} — updates since its last good "
            f"write are lost and must be re-indexed",
            file=sys.stderr,
        )
        return payload, backup

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CorpusIndex":
        """Open the index saved in directory ``path``.

        A missing manifest raises ``FileNotFoundError``; a manifest,
        options file or segment file that cannot be read raises a
        "rebuild the index" ``ValueError`` naming the file (segment
        arrays opened lazily raise it at first use).
        """
        path = Path(path)
        if path.is_file():
            raise ValueError(
                f"{path}: pre-segment (format-1) monolithic corpus "
                f"index; this version reads only the format-{_FORMAT} "
                f"segmented layout — delete the file and rebuild with "
                f"`corpus index` (an index is cheap to rebuild)"
            )
        payload, manifest = cls._read_manifest(path)
        found = payload.get("format") if isinstance(payload, dict) else None
        if found != _FORMAT:
            raise ValueError(
                f"{path}: a format-{found} corpus index; this version "
                f"reads only format {_FORMAT} — delete the directory and "
                f"rerun `corpus index` (an index is cheap to rebuild)"
            )
        options_path = path / _OPTIONS_FILE
        try:
            with open(options_path, "rb") as stream:
                index = cls(pickle.load(stream))
        except (
            OSError,
            EOFError,
            pickle.UnpicklingError,
            AttributeError,
            ImportError,
            IndexError,
            TypeError,
            ValueError,
        ) as exc:
            raise _unreadable(options_path, exc) from exc
        try:
            options_key = payload["options_key"]
            segment_names = list(payload["segments"])
            tombstones = set(payload["tombstones"])
            overrides = {
                digest: dict(override)
                for digest, override in payload["overrides"].items()
            }
            clocks = (
                int(payload["sequence"]),
                int(payload["insert_clock"]),
                int(payload["next_segment"]),
            )
        except KeyError as exc:
            raise _unreadable(manifest, f"no {exc} field") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise _unreadable(manifest, exc) from exc
        if repr(index.options_key) != options_key:
            raise ValueError(
                f"{path}: stored options fingerprint disagrees with "
                f"its options object"
            )
        index._root = path
        for segment_index, name in enumerate(segment_names):
            segment = _Segment(path / name, index.options_key)
            index._segments.append(segment)
            for ordinal, digest in enumerate(segment.digests):
                index._sealed[digest] = (segment_index, ordinal)
        index._tombstones = tombstones
        index._overrides = overrides
        index._sequence, index._insert_clock, index._next_segment = clocks
        return index

"""Component indexes — the lookup structure of Figure 5 line 5.

The paper: "Currently the indexing structure mentioned in line 5 is a
hash map.  A hash map exists for each component contained in an SBML
model.  These indexes use a string as the key. ... This index
structure will be the subject of future research."

Three interchangeable strategies are provided so the future-research
question (and the §5 item 7 complexity claim) can be measured:

* :class:`HashIndex` — dict lookup, amortised O(1) per probe.  The
  paper's implementation and our default.
* :class:`SortedKeyIndex` — keys in a sorted array probed with
  ``bisect``, O(log n) per probe; stands in for the suffix-tree /
  sorted-index idea of future-work item 7.
* :class:`LinearIndex` — list scan, O(n) per probe.  With it the
  whole composition is O(n·m), the complexity the paper reports for
  semanticSBML-era merging; used by the index ablation benchmark.

Every component may be registered under *several* keys (its id, its
normalised name, its synonym-canonical name, a math pattern ...);
a lookup probes the caller's keys in order and returns the first hit.
"""

from __future__ import annotations

import bisect
from typing import Dict, KeysView, List, Optional, Sequence, Tuple

__all__ = [
    "ComponentIndex",
    "HashIndex",
    "LinearIndex",
    "OverlayIndex",
    "SortedKeyIndex",
    "make_index",
]


class ComponentIndex:
    """Interface: multi-key exact-match index over components."""

    def add(self, keys: Sequence[str], component: object) -> None:
        """Register ``component`` under every key in ``keys``."""
        raise NotImplementedError

    def find(self, keys: Sequence[str]) -> Optional[object]:
        """Return the first component matching any key, else None."""
        raise NotImplementedError

    def find_one(self, key: str) -> Optional[object]:
        """Single-key probe (the ``find`` contract for one key)."""
        return self.find((key,))

    def freeze(self) -> None:
        """Make subsequent :meth:`find` calls read-only.

        :class:`OverlayIndex` bases are shared across merges (and
        threads); a strategy whose probes mutate internal state —
        ``SortedKeyIndex`` compacts its pending buffer lazily — must
        settle here so concurrent readers never race a mutation.
        """

    def __len__(self) -> int:
        raise NotImplementedError


class HashIndex(ComponentIndex):
    """Dict-backed index (the paper's hash map)."""

    def __init__(self):
        self._table: Dict[str, object] = {}
        self._count = 0

    def add(self, keys: Sequence[str], component: object) -> None:
        self._count += 1
        for key in keys:
            # First registration wins so lookups keep returning the
            # earliest matching component (Figure 5 keeps S1).
            self._table.setdefault(key, component)

    def find(self, keys: Sequence[str]) -> Optional[object]:
        for key in keys:
            hit = self._table.get(key)
            if hit is not None:
                return hit
        return None

    def find_one(self, key: str) -> Optional[object]:
        return self._table.get(key)

    def keys(self) -> KeysView[str]:
        """Every registered key, as a live set-like view."""
        return self._table.keys()

    def __len__(self) -> int:
        return self._count


class LinearIndex(ComponentIndex):
    """List-scan index: every probe walks all registered entries."""

    def __init__(self):
        self._entries: List[Tuple[List[str], object]] = []

    def add(self, keys: Sequence[str], component: object) -> None:
        self._entries.append((list(keys), component))

    def find(self, keys: Sequence[str]) -> Optional[object]:
        # Probe keys are tried in caller priority order (id before
        # name), matching the other strategies.
        for key in keys:
            for entry_keys, component in self._entries:
                if key in entry_keys:
                    return component
        return None

    def find_one(self, key: str) -> Optional[object]:
        for entry_keys, component in self._entries:
            if key in entry_keys:
                return component
        return None

    def __len__(self) -> int:
        return len(self._entries)


class SortedKeyIndex(ComponentIndex):
    """Sorted-array index probed via binary search.

    Keeps ``(key, insertion_order, component)`` rows sorted by
    ``(key, order)``; lookup returns the earliest-inserted component
    among equal keys.

    Registration must stay O(1): the old implementation used
    ``list.insert`` per key, whose O(n) element shift made *building*
    the index quadratic and drowned the probe cost the "sorted"
    ablation is meant to measure.  Adds therefore append to an
    unsorted pending buffer; probes scan the buffer linearly while it
    is small and fold it into the sorted arrays (one sort of the
    buffer + timsort's linear merge of two runs) once it outgrows
    √total — O(n√n) total maintenance in the worst interleaving, one
    O(n log n) bulk build for the common add-all-then-probe phases,
    and probes stay O(log n + √n).
    """

    def __init__(self):
        self._keys: List[str] = []
        self._rows: List[Tuple[int, object]] = []
        self._pending: List[Tuple[str, int, object]] = []
        self._count = 0

    def add(self, keys: Sequence[str], component: object) -> None:
        order = self._count
        self._count += 1
        pending = self._pending
        for key in keys:
            pending.append((key, order, component))

    def _compact(self) -> None:
        merged = [
            (key, row[0], row[1])
            for key, row in zip(self._keys, self._rows)
        ]
        merged.extend(self._pending)
        # Timsort detects the presorted prefix, so this is effectively
        # sort-the-buffer + merge-two-runs, not a full re-sort.
        merged.sort(key=lambda row: (row[0], row[1]))
        self._keys = [row[0] for row in merged]
        self._rows = [(row[1], row[2]) for row in merged]
        self._pending = []

    def freeze(self) -> None:
        """Fold the pending buffer so probes stop mutating state."""
        if self._pending:
            self._compact()

    def find_one(self, key: str) -> Optional[object]:
        # No amortised compaction here: frozen bases call this from
        # concurrent readers, and the pending scan is exact anyway.
        best_order: Optional[int] = None
        best: Optional[object] = None
        position = bisect.bisect_left(self._keys, key)
        if position < len(self._keys) and self._keys[position] == key:
            best_order, best = self._rows[position]
        for pending_key, order, component in self._pending:
            if pending_key == key and (
                best_order is None or order < best_order
            ):
                best_order, best = order, component
        return best

    def find(self, keys: Sequence[str]) -> Optional[object]:
        pending = self._pending
        if pending and len(pending) * len(pending) > len(self._keys) + 16:
            self._compact()
            pending = self._pending
        # First probe key that hits wins (same contract as HashIndex);
        # among equal keys the earliest-inserted component is returned,
        # whether it lives in the sorted arrays or the pending buffer.
        for key in keys:
            best_order: Optional[int] = None
            best: Optional[object] = None
            position = bisect.bisect_left(self._keys, key)
            if position < len(self._keys) and self._keys[position] == key:
                best_order, best = self._rows[position]
            for pending_key, order, component in pending:
                if pending_key == key and (
                    best_order is None or order < best_order
                ):
                    best_order, best = order, component
            if best_order is not None:
                return best
        return None

    def __len__(self) -> int:
        return self._count


class OverlayIndex(ComponentIndex):
    """Copy-on-write view over a frozen, shared base index.

    A merge step mutates its phase index as it inserts newly adopted
    components — but the *pre-existing* target side of that index is a
    pure function of the target model and is shared across every merge
    the model is target of (the per-model index artifacts of
    :class:`~repro.core.compose.ModelIndexSet`).  The overlay keeps
    the shared base immutable: :meth:`add` writes only a private delta
    index, created lazily on first insert, so a decide-only sweep merge
    never writes state another pair (or thread) can observe.

    Lookup preserves the first-registration-wins contract exactly:
    every base registration precedes every delta registration, so a
    probe tries each key against the base before the delta, in the
    caller's key-priority order — byte-for-byte the answer a freshly
    built index (base adds, then delta adds) would give, which the
    conformance matrix and a hypothesis property pin across all three
    base strategies.
    """

    __slots__ = ("base", "_delta", "_strategy")

    def __init__(self, base: ComponentIndex, strategy: str):
        self.base = base
        self._delta: Optional[ComponentIndex] = None
        self._strategy = strategy

    def add(self, keys: Sequence[str], component: object) -> None:
        delta = self._delta
        if delta is None:
            delta = self._delta = make_index(self._strategy)
        delta.add(keys, component)

    def find(self, keys: Sequence[str]) -> Optional[object]:
        base = self.base
        delta = self._delta
        for key in keys:
            hit = base.find_one(key)
            if hit is not None:
                return hit
            if delta is not None:
                hit = delta.find_one(key)
                if hit is not None:
                    return hit
        return None

    def find_one(self, key: str) -> Optional[object]:
        hit = self.base.find_one(key)
        if hit is not None:
            return hit
        if self._delta is not None:
            return self._delta.find_one(key)
        return None

    def __len__(self) -> int:
        delta = self._delta
        return len(self.base) + (len(delta) if delta is not None else 0)


_STRATEGIES = {
    "hash": HashIndex,
    "linear": LinearIndex,
    "sorted": SortedKeyIndex,
}


def make_index(strategy: str) -> ComponentIndex:
    """Instantiate an index for an options-level strategy name."""
    try:
        return _STRATEGIES[strategy]()
    except KeyError:
        raise ValueError(f"unknown index strategy {strategy!r}") from None

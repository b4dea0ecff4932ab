"""Memoised canonical-pattern computation (paper §5, items 6-7).

The index ablation (EXPERIMENTS.md) shows the Figure 5 lookup is not
where composition time goes — rebuilding Figure 7 patterns is.  The
paper's future work asks for "algorithmic optimisation of graph
operations" and complexity reduction "down to O(m+n), as graph nodes
can be indexed while being parsed"; the equivalent for math is to
compute each expression's pattern once and reuse it.

The subtlety is the live id mapping: a pattern depends on the mapping
entries that touch the expression's identifiers.  The cache therefore
keys every expression by the *restriction* of the mapping to the
expression's own identifiers — expressions that reference no mapped
ids (the overwhelming majority) hit a single cached entry no matter
how the mapping grows.

Cache keys are the **structural digests** of the expressions
(:meth:`~repro.mathml.ast.MathNode.digest`), not object ids: the
digest is stable across model copies, so structurally equal
expressions from different models share one entry, and the cache does
not have to pin node objects alive to keep its keys valid.  Entries
are computed on first probe: a sweep probes only about half of the
expressions its models carry, so nothing is tabulated up front.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Mapping, Tuple

from repro.mathml.ast import MathNode, Number
from repro.mathml.pattern import canonical_pattern

__all__ = ["PatternCache"]


class PatternCache:
    """Memo for canonical patterns, keyed by structural digest.

    ``pattern(math, mapping)`` returns exactly what
    :func:`repro.mathml.pattern.canonical_pattern` would, but caches
    the pattern under each distinct *relevant* mapping restriction —
    and, because the keys are digests, structurally equal expressions
    from different models (or model copies) share one entry.

    The cache is shared by every merge a session executes, including
    merges running concurrently on the parallel executor's worker
    threads, so all mutation happens under one reentrant lock.
    Patterns are pure functions of ``(expression, restriction)``, so
    which thread computes an entry never changes its value.
    """

    def __init__(self):
        # (digest, restricted-mapping-items) -> pattern
        self._patterns: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], str] = {}
        # (digest of law math, local-parameter values) -> substituted math
        self._law_math: Dict[Tuple, MathNode] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def _identifier_set(self, math: MathNode) -> FrozenSet[str]:
        # Identifiers plus user-function call names — everything the
        # composition mapping can rewrite.  Cached on the node itself.
        return math.referenced_names()

    def pattern(self, math: MathNode, mapping: Mapping[str, str]) -> str:
        """The canonical pattern of ``math`` under ``mapping``."""
        identifiers = math.referenced_names()
        relevant = tuple(
            sorted(
                (name, mapping[name])
                for name in identifiers
                if name in mapping
            )
        )
        key = (math.digest(), relevant)
        cached = self._patterns.get(key)
        if cached is not None:
            # Deliberately unlocked: a lost concurrent increment only
            # skews the stats counter, and locking the hit path would
            # serialize exactly the case the cache exists to speed up.
            self.hits += 1
            return cached
        result = canonical_pattern(math, dict(relevant))
        with self._lock:
            self.misses += 1
            self._patterns[key] = result
        return result

    def law_comparison_math(self, math: MathNode, locals_items) -> MathNode:
        """Cache the local-parameter-substituted form of a kinetic law.

        ``locals_items`` is a sorted tuple of ``(name, value)`` pairs.
        Keyed by the law's structural digest, so every composition of
        a model — and every copy of it — reuses one substitution; this
        is where the Figure 8 all-pairs sweep reuses work.
        """
        key = (math.digest(), locals_items)
        cached = self._law_math.get(key)
        if cached is not None:
            return cached
        substituted = math.substitute(
            {name: Number(value) for name, value in locals_items}
        )
        with self._lock:
            self._law_math[key] = substituted
        return substituted

    def stats(self) -> str:
        total = self.hits + self.misses
        rate = self.hits / total if total else 0.0
        return f"{self.hits}/{total} hits ({rate:.0%})"

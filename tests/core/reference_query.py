"""Test-side reference query: one model against a prescreen's corpus.

:func:`query_tables` classifies one external *target* signature
against every corpus model of a :class:`~repro.core.signature.Prescreen`
as source, pair by pair through
:meth:`~repro.core.signature.ModelSignature.congruence` — the
in-memory analogue of a
:class:`~repro.core.corpus_index.CorpusIndex` posting walk, with the
same option gate as the prescreen's pair matrices.  The signature and
corpus index tests pin both the pair matrices and the index's query
path against it.
"""

import numpy as np


def query_tables(screen, signature):
    """``(scores, blocked, united)`` vectors of ``signature`` as target
    against every model of ``screen`` as source."""
    if not signature.matches(screen.options):
        raise ValueError(
            "query signature was built under different key options"
        )
    n = len(screen.signatures)
    scores = np.zeros(n, dtype=np.int64)
    blocked = np.zeros(n, dtype=bool)
    united = np.zeros(n, dtype=np.int64)
    allow_twins = screen.options.match_anything
    for j, other in enumerate(screen.signatures):
        shared, pair_blocked, pair_united = signature.congruence(other)
        scores[j] = shared
        if allow_twins:
            blocked[j] = pair_blocked
            united[j] = pair_united
        else:
            blocked[j] = shared > 0
    return scores, blocked, united


def query_survivors(screen, signature):
    """Boolean vector: ``True`` = the query pair must run the full
    matcher (query model as target, corpus model as source)."""
    _, blocked, _ = query_tables(screen, signature)
    if signature.component_count == 0:
        return np.zeros(len(screen.signatures), dtype=bool)
    nonempty = screen.component_counts != 0
    return nonempty & (blocked | ~screen.self_clean)


def query_scores(screen, signature):
    """Shared-key counts of ``signature`` against the corpus."""
    return query_tables(screen, signature)[0]

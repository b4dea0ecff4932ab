"""Test-side reference query: one model against a prescreen's corpus.

:func:`congruence` is the per-pair oracle for the prescreen's rule:
one ``np.intersect1d`` per pair, independent of the row kernel
(:func:`~repro.core.signature.pair_counts`) that the
:class:`~repro.core.signature.Prescreen` and the
:class:`~repro.core.corpus_index.CorpusIndex` share.
:func:`query_tables` classifies one external *target* signature
against every corpus model of a prescreen as source, pair by pair —
the in-memory analogue of a corpus index posting walk, with the same
option gate as the prescreen's pair matrices.  The signature and
corpus index tests pin both the pair matrices and the index's query
path against it.
"""

import numpy as np

from repro import ComposeOptions
from repro.sbml import Model
from repro.sbml.components import Parameter

#: Heavy, light and structural options: the twin gate on (with and
#: without synonyms and units), then off.
OPTION_SETS = (
    ComposeOptions.heavy(),
    ComposeOptions.light(),
    ComposeOptions.structural(),
)


def gated_corpus(models):
    """``models`` plus the two models that exercise the prune rule's
    source gates: an empty model, and a copy of ``models[0]`` that is
    not self-clean: two parameters share an id no other model uses."""
    unclean = models[0].copy()
    unclean.id = "unclean"
    unclean.parameters += [
        Parameter("unclean_k", value=1.0),
        Parameter("unclean_k", value=2.0),
    ]
    return [*models, Model(id="empty"), unclean]


def congruence(target, source):
    """``(shared, blocked, united)`` of one target signature against
    one source signature.

    ``blocked`` is ``True`` when some shared key is not owned by
    identical twins on both sides (equal nonzero fingerprints); when
    not blocked, ``united`` counts the shared keys primary in the
    target.  The option gate is the caller's.
    """
    shared, mine, theirs = np.intersect1d(
        target.key_hashes,
        source.key_hashes,
        assume_unique=True,
        return_indices=True,
    )
    if shared.size == 0:
        return 0, False, 0
    target_fps = target.key_fingerprints[mine]
    source_fps = source.key_fingerprints[theirs]
    clean = (target_fps == source_fps) & (target_fps != 0)
    if not bool(clean.all()):
        return int(shared.size), True, 0
    united = int(np.count_nonzero(target.key_primary[mine]))
    return int(shared.size), False, united


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
        shared, pair_blocked, pair_united = congruence(signature, other)
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

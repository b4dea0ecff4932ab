"""Test-side reference query: one model against a prescreen's corpus.

:func:`repr_fingerprint` is the oracle for the congruence fingerprint:
the hash of the component's dataclass ``repr``, which the per-class
formatters of :func:`~repro.core.signature._component_fingerprint`
must partition components exactly like.  :func:`key_tables` resolves
a signature's key owners one record at a time, the oracle for the
vectorised pass in :meth:`~repro.core.signature.ModelSignature.build`.
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
from repro.core.compose import ModelIndexSet
from repro.core.signature import (
    _ID_ATTR_SET,
    _PHASE_ATTRS,
    _PHASE_NAMES,
    _component_fingerprint,
    key_hash,
)
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


def repr_fingerprint(phase, component):
    """Congruence fingerprint of one component from its dataclass
    ``repr`` (which covers the id and every field, maths included:
    the AST nodes are frozen dataclasses), ``0`` for a constant
    parameter without a value."""
    if (
        phase == "parameters"
        and component.constant
        and component.value is None
    ):
        return 0
    return key_hash("twin:" + phase, repr(component)) or 1


def key_tables(model, options):
    """``(key_hashes, key_fingerprints, key_primary)`` of a model's
    signature, each key's owner resolved record by record: a key
    recorded twice is poisoned (fingerprint ``0``, not primary)."""
    index_set = ModelIndexSet.build(model, options)
    fingerprints, primary = {}, {}

    def record(hash_value, fingerprint, is_primary):
        if hash_value in fingerprints:
            fingerprints[hash_value] = 0
            primary[hash_value] = False
        else:
            fingerprints[hash_value] = fingerprint
            primary[hash_value] = is_primary and fingerprint != 0

    for phase, attr in zip(_PHASE_NAMES, _PHASE_ATTRS):
        collection = getattr(model, attr)
        has_ids = attr in _ID_ATTR_SET
        for component in collection:
            if has_ids and component.id is not None:
                record(
                    key_hash("ids", component.id),
                    _component_fingerprint(phase, component),
                    True,
                )
        for position, keys in index_set.rows.get(phase, ()):
            component = collection[position]
            pending = not (has_ids and component.id is not None)
            for key in dict.fromkeys(keys):
                if not key.startswith("id:"):
                    record(
                        key_hash(phase, key),
                        _component_fingerprint(phase, component),
                        pending,
                    )
                    pending = False
    hashes = sorted(fingerprints)
    return (
        np.array(hashes, dtype=np.uint64),
        np.array([fingerprints[h] for h in hashes], dtype=np.uint64),
        np.array([primary[h] for h in hashes], dtype=bool),
    )


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

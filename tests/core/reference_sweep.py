"""Test-side reference sweep: the fresh-index oracle.

:func:`reference_outcomes` merges every pair through
``Composer.compose_step(..., decide_only=True)`` without
``target_indexes`` — the target side of every phase index is rebuilt
on every pair — and without carried artifacts, a store or a
prescreen.  The sweep engine instead builds each model's twelve phase
indexes once and merges every pair the model is the target of through
copy-on-write overlays over them; the conformance matrix pins that
engine against this reference.
"""

from repro.core.compose import Composer
from repro.core.match_all import PairOutcome
from repro.core.options import ComposeOptions
from repro.core.session import stable_labels
from repro.core.shards import enumerate_pairs


def reference_outcomes(models, options=None, include_self=True):
    """One :class:`PairOutcome` per pair of ``models``, in sweep order,
    with zero wall time (compare on :meth:`PairOutcome.key`)."""
    composer = Composer(options or ComposeOptions())
    labels = stable_labels(models)
    outcomes = []
    for i, j in enumerate_pairs(len(models), include_self):
        _, report, _ = composer.compose_step(
            models[i], models[j], decide_only=True
        )
        outcomes.append(
            PairOutcome(
                i=i,
                j=j,
                left=labels[i],
                right=labels[j],
                size=models[i].network_size() + models[j].network_size(),
                seconds=0.0,
                united=len(report.duplicates),
                added=report.total_added,
                renamed=len(report.renamed),
                conflicts=len(report.conflicts),
            )
        )
    return outcomes

"""Reference session executor — the fresh-index oracle for sessions.

A :class:`~repro.core.session.ComposeSession` carries the
accumulator's phase indexes from step to step (``AccumState.indexes``)
and extends them with what each step appends.  This oracle executes
the same plan tree but drops the carried indexes before every step,
so every phase of every step builds its index fresh from the whole
accumulator, and it carries provenance by copying the accumulated
dict, as sessions did before either shortcut.  Anything a session
reports — merged SBML, each step's report, the merged report,
provenance — must equal what this executor reports.
"""

from dataclasses import replace

from repro.core.session import ComposeSession, ProvenanceEntry


class ReferenceSession(ComposeSession):
    """A session whose every step rebuilds every phase index."""

    def _merge_pair(self, left_value, right_value, index):
        if left_value.state is not None:
            left_value.state = replace(left_value.state, indexes=None)
        return super()._merge_pair(left_value, right_value, index)

    @staticmethod
    def _merge_provenance(target_prov, source_prov, report):
        merged = dict(target_prov)
        for source_id, entry in source_prov.items():
            final = report.mappings.get(source_id, source_id)
            existing = merged.get(final)
            if existing is not None:
                for origin in entry.origins:
                    if origin not in existing.origins:
                        existing.origins.append(origin)
            else:
                history = list(entry.history)
                if not history or history[-1] != final:
                    history.append(final)
                merged[final] = ProvenanceEntry(
                    id=final, origins=list(entry.origins), history=history
                )
        return merged


def reference_compose_all(models, plan="fold", options=None):
    """:func:`~repro.core.session.compose_all` through the oracle."""
    return ReferenceSession(options).compose_all(models, plan=plan)

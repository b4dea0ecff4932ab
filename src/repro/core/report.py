"""Merge reporting: warnings, conflicts, mappings, timings.

The paper's conflict policy is *log and continue*: "The default is to
issue a warning when a conflict is discovered.  The software then
includes the first component in the model and writes a warning to a
log file informing the user of this and of decisions taken."  The
:class:`MergeReport` is that log, kept structured so tests and
benchmarks can assert on it, with :meth:`MergeReport.log_text`
producing the human-readable file content.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["MergeWarning", "Conflict", "Duplicate", "MergeReport"]


@dataclass(frozen=True)
class MergeWarning:
    """A non-fatal problem noticed during composition."""

    code: str
    message: str
    component_type: Optional[str] = None
    component_id: Optional[str] = None

    def __str__(self) -> str:
        location = ""
        if self.component_type:
            location = f" [{self.component_type} {self.component_id or '?'}]"
        return f"WARNING ({self.code}){location}: {self.message}"


@dataclass(frozen=True)
class Conflict:
    """Two united components disagreed on an attribute.

    ``resolution`` records the decision taken (the paper's default:
    keep the first model's value).
    """

    component_type: str
    component_id: str
    attribute: str
    first_value: object
    second_value: object
    resolution: str

    def __str__(self) -> str:
        return (
            f"CONFLICT [{self.component_type} {self.component_id}] "
            f"{self.attribute}: {self.first_value!r} vs "
            f"{self.second_value!r} -> {self.resolution}"
        )


@dataclass(frozen=True)
class Duplicate:
    """Two components recognised as the same entity and united."""

    component_type: str
    first_id: str
    second_id: str

    def __str__(self) -> str:
        if self.first_id == self.second_id:
            return f"DUPLICATE [{self.component_type}] {self.first_id}"
        return (
            f"DUPLICATE [{self.component_type}] "
            f"{self.second_id} == {self.first_id}"
        )


@dataclass
class MergeReport:
    """Structured outcome of one composition run."""

    warnings: List[MergeWarning] = field(default_factory=list)
    conflicts: List[Conflict] = field(default_factory=list)
    duplicates: List[Duplicate] = field(default_factory=list)
    #: id in the second model -> id it now has in the composed model.
    mappings: Dict[str, str] = field(default_factory=dict)
    #: ids of second-model components renamed to avoid collisions.
    renamed: Dict[str, str] = field(default_factory=dict)
    #: phase name -> seconds spent (for the Fig 8/9 benchmarks).
    timings: Dict[str, float] = field(default_factory=dict)
    #: component type -> number of components added from model 2
    #: (a ``Counter``: merges count with ``added[kind] += 1``).
    added: Dict[str, int] = field(default_factory=Counter)

    def warn(
        self,
        code: str,
        message: str,
        component_type: Optional[str] = None,
        component_id: Optional[str] = None,
    ) -> None:
        """Record a warning."""
        self.warnings.append(
            MergeWarning(code, message, component_type, component_id)
        )

    def conflict(
        self,
        component_type: str,
        component_id: str,
        attribute: str,
        first_value: object,
        second_value: object,
        resolution: str = "kept first model's value",
    ) -> None:
        """Record a conflict and the decision taken; also surfaces it
        as a warning so the log file tells the whole story."""
        self.conflicts.append(
            Conflict(
                component_type,
                component_id,
                attribute,
                first_value,
                second_value,
                resolution,
            )
        )
        self.warn(
            "conflict",
            f"{attribute}: {first_value!r} vs {second_value!r} "
            f"({resolution})",
            component_type,
            component_id,
        )

    def duplicate(self, component_type: str, first_id: str, second_id: str) -> None:
        """Record that two components were united."""
        self.duplicates.append(Duplicate(component_type, first_id, second_id))

    def map_id(self, old: str, new: str) -> None:
        """Record an id mapping from the second model into the result."""
        if old != new:
            self.mappings[old] = new

    def rename(self, old: str, new: str) -> None:
        """Record a collision-avoiding rename of a second-model id."""
        self.renamed[old] = new
        self.map_id(old, new)

    def count_added(self, component_type: str) -> None:
        self.added[component_type] += 1

    @property
    def total_added(self) -> int:
        return sum(self.added.values())

    def has_conflicts(self) -> bool:
        return bool(self.conflicts)

    def log_text(self) -> str:
        """The paper-style warning log file content."""
        lines: List[str] = []
        for duplicate in self.duplicates:
            lines.append(str(duplicate))
        for old, new in sorted(self.renamed.items()):
            lines.append(f"RENAMED {old} -> {new}")
        for warning in self.warnings:
            lines.append(str(warning))
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line summary for CLI output."""
        return (
            f"{len(self.duplicates)} duplicate(s) united, "
            f"{self.total_added} component(s) added, "
            f"{len(self.renamed)} renamed, "
            f"{len(self.conflicts)} conflict(s), "
            f"{len(self.warnings)} warning(s)"
        )

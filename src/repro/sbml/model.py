"""The SBML model container.

A :class:`Model` owns the eleven component lists of the paper's
Figure 4, keeps id → component lookup tables, and exposes the
size metrics (nodes, edges) used on the x-axis of the paper's
Figures 8 and 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.errors import SBMLError
from repro.mathml.ast import Lambda, MathNode
from repro.sbml.components import (
    Compartment,
    CompartmentType,
    Constraint,
    Event,
    FunctionDefinition,
    InitialAssignment,
    Parameter,
    Reaction,
    Rule,
    SBase,
    Species,
    SpeciesType,
)
from repro.units.definitions import UnitDefinition
from repro.units.registry import UnitRegistry

__all__ = ["Model", "Document"]

@dataclass
class Model(SBase):
    """An SBML model: the unit of composition.

    Component lists appear in the order Figure 4 composes them.
    ``add_*`` methods enforce id uniqueness within the component type;
    the composition engine relies on that invariant when renaming.
    """

    function_definitions: List[FunctionDefinition] = field(default_factory=list)
    unit_definitions: List[UnitDefinition] = field(default_factory=list)
    compartment_types: List[CompartmentType] = field(default_factory=list)
    species_types: List[SpeciesType] = field(default_factory=list)
    compartments: List[Compartment] = field(default_factory=list)
    species: List[Species] = field(default_factory=list)
    parameters: List[Parameter] = field(default_factory=list)
    initial_assignments: List[InitialAssignment] = field(default_factory=list)
    rules: List[Rule] = field(default_factory=list)
    constraints: List[Constraint] = field(default_factory=list)
    reactions: List[Reaction] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Adders (uniqueness-checked)
    # ------------------------------------------------------------------

    def _check_unique(self, collection, component, what: str) -> None:
        component_id = getattr(component, "id", None)
        if component_id is None:
            return
        # Memoised per-collection id set: the naive any() scan makes a
        # long composition fold O(n²) in adds.  The memo is keyed by
        # (list identity, length) so it survives only appends made
        # through the adders; assigning a new list (the only other
        # mutation pattern in the codebase) invalidates it.  Length-
        # preserving in-place edits (index assignment, rewriting a
        # component's id after insertion) would go unnoticed — mutate
        # by rebinding the list instead.
        cache = self.__dict__.setdefault("_unique_ids", {})
        entry = cache.get(what)
        if (
            entry is None
            or entry[0] is not collection
            or entry[1] != len(collection)
        ):
            ids = {
                existing_id
                for existing in collection
                if (existing_id := getattr(existing, "id", None)) is not None
            }
        else:
            ids = entry[2]
        if component_id in ids:
            raise SBMLError(
                f"duplicate {what} id {component_id!r} in model "
                f"{self.id or '<unnamed>'}"
            )
        # The adder appends `component` immediately after this check;
        # the entry keeps a reference to the list so the identity
        # check above stays exact.
        ids.add(component_id)
        cache[what] = (collection, len(collection) + 1, ids)

    def add_function_definition(self, fd: FunctionDefinition) -> FunctionDefinition:
        """Add a function definition (unique id enforced)."""
        self._check_unique(self.function_definitions, fd, "function definition")
        self.function_definitions.append(fd)
        return fd

    def add_unit_definition(self, ud: UnitDefinition) -> UnitDefinition:
        """Add a unit definition (unique id enforced)."""
        self._check_unique(self.unit_definitions, ud, "unit definition")
        self.unit_definitions.append(ud)
        return ud

    def add_compartment_type(self, ct: CompartmentType) -> CompartmentType:
        self._check_unique(self.compartment_types, ct, "compartment type")
        self.compartment_types.append(ct)
        return ct

    def add_species_type(self, st: SpeciesType) -> SpeciesType:
        self._check_unique(self.species_types, st, "species type")
        self.species_types.append(st)
        return st

    def add_compartment(self, compartment: Compartment) -> Compartment:
        self._check_unique(self.compartments, compartment, "compartment")
        self.compartments.append(compartment)
        return compartment

    def add_species(self, species: Species) -> Species:
        self._check_unique(self.species, species, "species")
        self.species.append(species)
        return species

    def add_parameter(self, parameter: Parameter) -> Parameter:
        self._check_unique(self.parameters, parameter, "parameter")
        self.parameters.append(parameter)
        return parameter

    def add_initial_assignment(self, ia: InitialAssignment) -> InitialAssignment:
        self.initial_assignments.append(ia)
        return ia

    def add_rule(self, rule: Rule) -> Rule:
        self.rules.append(rule)
        return rule

    def add_constraint(self, constraint: Constraint) -> Constraint:
        self.constraints.append(constraint)
        return constraint

    def add_reaction(self, reaction: Reaction) -> Reaction:
        self._check_unique(self.reactions, reaction, "reaction")
        self.reactions.append(reaction)
        return reaction

    def add_event(self, event: Event) -> Event:
        self._check_unique(self.events, event, "event")
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get_species(self, species_id: str) -> Optional[Species]:
        return self._find(self.species, species_id)

    def get_compartment(self, compartment_id: str) -> Optional[Compartment]:
        return self._find(self.compartments, compartment_id)

    def get_parameter(self, parameter_id: str) -> Optional[Parameter]:
        return self._find(self.parameters, parameter_id)

    def get_reaction(self, reaction_id: str) -> Optional[Reaction]:
        return self._find(self.reactions, reaction_id)

    def get_function_definition(self, fd_id: str) -> Optional[FunctionDefinition]:
        return self._find(self.function_definitions, fd_id)

    def get_unit_definition(self, ud_id: str) -> Optional[UnitDefinition]:
        return self._find(self.unit_definitions, ud_id)

    def get_event(self, event_id: str) -> Optional[Event]:
        return self._find(self.events, event_id)

    @staticmethod
    def _find(collection, component_id):
        for component in collection:
            if getattr(component, "id", None) == component_id:
                return component
        return None

    def global_ids(self) -> Dict[str, object]:
        """Every globally-scoped id in the model and its component.

        Reaction-local kinetic-law parameters are excluded, matching
        SBML scoping.
        """
        table: Dict[str, object] = {}
        collections = (
            self.function_definitions,
            self.unit_definitions,
            self.compartment_types,
            self.species_types,
            self.compartments,
            self.species,
            self.parameters,
            self.reactions,
            self.events,
        )
        for collection in collections:
            for component in collection:
                component_id = getattr(component, "id", None)
                if component_id is not None:
                    table[component_id] = component
        return table

    def function_table(self) -> Dict[str, Lambda]:
        """id → lambda for every function definition with math."""
        return {
            fd.id: fd.math
            for fd in self.function_definitions
            if fd.id and fd.math is not None
        }

    def unit_registry(self) -> UnitRegistry:
        """A registry resolving this model's unit references."""
        return UnitRegistry(self.unit_definitions)

    # ------------------------------------------------------------------
    # Size metrics (paper: "size = nodes + edges")
    # ------------------------------------------------------------------

    def num_nodes(self) -> int:
        """Network nodes: the chemical species."""
        return len(self.species)

    def num_edges(self) -> int:
        """Network edges: reactant→product arrows over all reactions."""
        return sum(reaction.edge_count() for reaction in self.reactions)

    def network_size(self) -> int:
        """``nodes + edges`` — the x-axis of the paper's Figure 8."""
        return self.num_nodes() + self.num_edges()

    def component_count(self) -> int:
        """Total number of components across all eleven lists."""
        return (
            len(self.function_definitions)
            + len(self.unit_definitions)
            + len(self.compartment_types)
            + len(self.species_types)
            + len(self.compartments)
            + len(self.species)
            + len(self.parameters)
            + len(self.initial_assignments)
            + len(self.rules)
            + len(self.constraints)
            + len(self.reactions)
            + len(self.events)
        )

    def is_empty(self) -> bool:
        """Whether the model has no components at all (Figure 5 line 1
        short-circuits on empty models)."""
        return self.component_count() == 0

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def copy(self) -> "Model":
        """Deep copy; composition always works on copies."""
        duplicate = Model(**self._base_copy_kwargs())
        duplicate.function_definitions = [c.copy() for c in self.function_definitions]
        duplicate.unit_definitions = [c.copy() for c in self.unit_definitions]
        duplicate.compartment_types = [c.copy() for c in self.compartment_types]
        duplicate.species_types = [c.copy() for c in self.species_types]
        duplicate.compartments = [c.copy() for c in self.compartments]
        duplicate.species = [c.copy() for c in self.species]
        duplicate.parameters = [c.copy() for c in self.parameters]
        duplicate.initial_assignments = [c.copy() for c in self.initial_assignments]
        duplicate.rules = [c.copy() for c in self.rules]
        duplicate.constraints = [c.copy() for c in self.constraints]
        duplicate.reactions = [c.copy() for c in self.reactions]
        duplicate.events = [c.copy() for c in self.events]
        return duplicate

    def all_math(self) -> Iterator[MathNode]:
        """Yield every math expression in the model (for analyses)."""
        for fd in self.function_definitions:
            if fd.math is not None:
                yield fd.math
        for ia in self.initial_assignments:
            if ia.math is not None:
                yield ia.math
        for rule in self.rules:
            if rule.math is not None:
                yield rule.math
        for constraint in self.constraints:
            if constraint.math is not None:
                yield constraint.math
        for reaction in self.reactions:
            if reaction.kinetic_law is not None and reaction.kinetic_law.math is not None:
                yield reaction.kinetic_law.math
        for event in self.events:
            if event.trigger is not None and event.trigger.math is not None:
                yield event.trigger.math
            if event.delay is not None and event.delay.math is not None:
                yield event.delay.math
            for assignment in event.assignments:
                if assignment.math is not None:
                    yield assignment.math


@dataclass
class Document:
    """An SBML document: a model plus level/version metadata."""

    model: Model
    level: int = 2
    version: int = 4

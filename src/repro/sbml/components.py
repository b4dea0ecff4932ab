"""SBML Level 2 component object model.

Every component type named by the paper's Figure 4 composition order
is represented: function definitions, unit definitions, compartment
types, species types, compartments, species, parameters, initial
assignments, rules, constraints, reactions (with kinetic laws and
species references) and events.

Components are mutable dataclasses — the composition engine renames
ids and rewrites math in place on *copies* of the input models, never
on the originals.  Each class provides ``copy()`` (deep enough that a
copied model shares nothing mutable with its source) and the math-
carrying ones expose their expressions for pattern comparison.

Annotations follow a simplified MIRIAM scheme: a mapping from BioModels
qualifier (``is``, ``isVersionOf``, ...) to a list of resource URIs.
The semanticSBML-style baseline keys its identity decisions on these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.mathml.ast import Lambda, MathNode

__all__ = [
    "SBase",
    "FunctionDefinition",
    "CompartmentType",
    "SpeciesType",
    "Compartment",
    "Species",
    "Parameter",
    "InitialAssignment",
    "Rule",
    "AlgebraicRule",
    "AssignmentRule",
    "RateRule",
    "Constraint",
    "SpeciesReference",
    "ModifierSpeciesReference",
    "KineticLaw",
    "Reaction",
    "Trigger",
    "Delay",
    "EventAssignment",
    "Event",
]


def _copy_annotations(annotations: Dict[str, List[str]]) -> Dict[str, List[str]]:
    if not annotations:
        return {}
    return {qualifier: list(uris) for qualifier, uris in annotations.items()}


def _dict_copy(instance, cls):
    """Duplicate a component by copying its ``__dict__`` wholesale.

    Component copying is the composition engine's per-merge constant
    cost (every adopted component is copied before mutation), and the
    dataclass ``__init__`` keyword path pays attribute-by-attribute
    setup per copy.  A C-speed dict copy replaces it; callers fix up
    the mutable fields (lists, annotations, engine-attached caches)
    afterwards.
    """
    new = object.__new__(cls)
    new.__dict__ = dict(instance.__dict__)
    return new


@dataclass
class SBase:
    """Attributes shared by every SBML component."""

    id: Optional[str] = None
    name: Optional[str] = None
    metaid: Optional[str] = None
    notes: Optional[str] = None
    sbo_term: Optional[str] = None
    annotations: Dict[str, List[str]] = field(default_factory=dict)

    def label(self) -> str:
        """The display label: name if present, else id (paper §3:
        "if the component is named, its name or id is checked")."""
        return self.name or self.id or "<anonymous>"

    def annotation_uris(self) -> List[str]:
        """All annotation resource URIs regardless of qualifier."""
        uris: List[str] = []
        for resources in self.annotations.values():
            uris.extend(resources)
        return uris

    def _base_copy_kwargs(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "metaid": self.metaid,
            "notes": self.notes,
            "sbo_term": self.sbo_term,
            "annotations": _copy_annotations(self.annotations),
        }


@dataclass
class FunctionDefinition(SBase):
    """A reusable function (``<functionDefinition>``); ``math`` is a
    :class:`~repro.mathml.ast.Lambda`."""

    math: Optional[Lambda] = None

    def copy(self) -> "FunctionDefinition":
        return FunctionDefinition(math=self.math, **self._base_copy_kwargs())


@dataclass
class CompartmentType(SBase):
    """A compartment classification (``<compartmentType>``)."""

    def copy(self) -> "CompartmentType":
        return CompartmentType(**self._base_copy_kwargs())


@dataclass
class SpeciesType(SBase):
    """A species classification (``<speciesType>``)."""

    def copy(self) -> "SpeciesType":
        return SpeciesType(**self._base_copy_kwargs())


@dataclass
class Compartment(SBase):
    """A reaction vessel (``<compartment>``)."""

    size: Optional[float] = None
    units: Optional[str] = None
    spatial_dimensions: int = 3
    compartment_type: Optional[str] = None
    outside: Optional[str] = None
    constant: bool = True

    def copy(self) -> "Compartment":
        return Compartment(
            size=self.size,
            units=self.units,
            spatial_dimensions=self.spatial_dimensions,
            compartment_type=self.compartment_type,
            outside=self.outside,
            constant=self.constant,
            **self._base_copy_kwargs(),
        )


@dataclass
class Species(SBase):
    """A chemical species (``<species>``).

    Exactly one of ``initial_amount`` / ``initial_concentration``
    should be set; which one, together with ``substance_units``,
    decides whether the model is molecule- or concentration-based —
    the distinction behind the paper's Figure 6 conversions.
    """

    compartment: Optional[str] = None
    initial_amount: Optional[float] = None
    initial_concentration: Optional[float] = None
    substance_units: Optional[str] = None
    has_only_substance_units: bool = False
    boundary_condition: bool = False
    constant: bool = False
    species_type: Optional[str] = None
    charge: Optional[int] = None

    def initial_value(self) -> Optional[float]:
        """The declared initial value, whichever form it takes."""
        if self.initial_amount is not None:
            return self.initial_amount
        return self.initial_concentration

    def copy(self) -> "Species":
        new = _dict_copy(self, Species)
        # Engine-attached key cache must not follow a copy made to be
        # mutated.
        new.__dict__.pop("_keys_cache", None)
        new.annotations = _copy_annotations(self.annotations)
        return new


@dataclass
class Parameter(SBase):
    """A named constant or variable quantity (``<parameter>``)."""

    value: Optional[float] = None
    units: Optional[str] = None
    constant: bool = True

    def copy(self) -> "Parameter":
        new = _dict_copy(self, Parameter)
        new.annotations = _copy_annotations(self.annotations)
        return new


@dataclass
class InitialAssignment(SBase):
    """Computed initial value for ``symbol`` (``<initialAssignment>``)."""

    symbol: Optional[str] = None
    math: Optional[MathNode] = None

    def copy(self) -> "InitialAssignment":
        return InitialAssignment(
            symbol=self.symbol, math=self.math, **self._base_copy_kwargs()
        )


@dataclass
class Rule(SBase):
    """Base class for the three SBML rule types."""

    math: Optional[MathNode] = None

    @property
    def variable(self) -> Optional[str]:
        """The determined variable (``None`` for algebraic rules)."""
        return None


@dataclass
class AlgebraicRule(Rule):
    """``0 = math`` (``<algebraicRule>``)."""

    def copy(self) -> "AlgebraicRule":
        return AlgebraicRule(math=self.math, **self._base_copy_kwargs())


@dataclass
class AssignmentRule(Rule):
    """``variable = math`` at all times (``<assignmentRule>``)."""

    _variable: Optional[str] = None

    @property
    def variable(self) -> Optional[str]:
        return self._variable

    @variable.setter
    def variable(self, value: Optional[str]) -> None:
        self._variable = value

    def copy(self) -> "AssignmentRule":
        return AssignmentRule(
            math=self.math, _variable=self._variable, **self._base_copy_kwargs()
        )


@dataclass
class RateRule(Rule):
    """``d(variable)/dt = math`` (``<rateRule>``)."""

    _variable: Optional[str] = None

    @property
    def variable(self) -> Optional[str]:
        return self._variable

    @variable.setter
    def variable(self, value: Optional[str]) -> None:
        self._variable = value

    def copy(self) -> "RateRule":
        return RateRule(
            math=self.math, _variable=self._variable, **self._base_copy_kwargs()
        )


@dataclass
class Constraint(SBase):
    """A condition that must stay true during simulation
    (``<constraint>``)."""

    math: Optional[MathNode] = None
    message: Optional[str] = None

    def copy(self) -> "Constraint":
        return Constraint(
            math=self.math, message=self.message, **self._base_copy_kwargs()
        )


@dataclass
class SpeciesReference:
    """Reactant or product entry of a reaction."""

    species: str
    stoichiometry: float = 1.0

    def copy(self) -> "SpeciesReference":
        new = object.__new__(SpeciesReference)
        new.species = self.species
        new.stoichiometry = self.stoichiometry
        return new


@dataclass
class ModifierSpeciesReference:
    """Modifier (catalyst/inhibitor) entry of a reaction."""

    species: str

    def copy(self) -> "ModifierSpeciesReference":
        new = object.__new__(ModifierSpeciesReference)
        new.species = self.species
        return new


@dataclass
class KineticLaw(SBase):
    """Rate expression of a reaction, with reaction-local parameters."""

    math: Optional[MathNode] = None
    parameters: List[Parameter] = field(default_factory=list)

    def local_parameter_ids(self) -> List[str]:
        return [parameter.id for parameter in self.parameters if parameter.id]

    def copy(self) -> "KineticLaw":
        new = _dict_copy(self, KineticLaw)
        new.parameters = [parameter.copy() for parameter in self.parameters]
        new.annotations = _copy_annotations(self.annotations)
        return new


@dataclass
class Reaction(SBase):
    """A chemical reaction (``<reaction>``)."""

    reactants: List[SpeciesReference] = field(default_factory=list)
    products: List[SpeciesReference] = field(default_factory=list)
    modifiers: List[ModifierSpeciesReference] = field(default_factory=list)
    kinetic_law: Optional[KineticLaw] = None
    reversible: bool = True
    fast: bool = False

    def species_ids(self) -> List[str]:
        """Every species this reaction touches, in role order."""
        ids = [reference.species for reference in self.reactants]
        ids += [reference.species for reference in self.products]
        ids += [reference.species for reference in self.modifiers]
        return ids

    def reactant_stoichiometries(self) -> List[float]:
        return [reference.stoichiometry for reference in self.reactants]

    def edge_count(self) -> int:
        """Edges this reaction contributes to the network view: one per
        (reactant, product) pair, at least one for degenerate shapes
        (pure synthesis/degradation still draws an arrow)."""
        pairs = len(self.reactants) * len(self.products)
        if pairs:
            return pairs
        return 1 if (self.reactants or self.products) else 0

    def copy(self) -> "Reaction":
        new = _dict_copy(self, Reaction)
        # The composition engine caches the unmapped signature on the
        # object; a copy is made precisely to be mutated, so it must
        # start without one.
        new.__dict__.pop("_unmapped_signature", None)
        new.reactants = [reference.copy() for reference in self.reactants]
        new.products = [reference.copy() for reference in self.products]
        new.modifiers = [reference.copy() for reference in self.modifiers]
        if self.kinetic_law is not None:
            new.kinetic_law = self.kinetic_law.copy()
        new.annotations = _copy_annotations(self.annotations)
        return new


@dataclass
class Trigger:
    """Event trigger condition."""

    math: Optional[MathNode] = None

    def copy(self) -> "Trigger":
        return Trigger(self.math)


@dataclass
class Delay:
    """Event firing delay."""

    math: Optional[MathNode] = None

    def copy(self) -> "Delay":
        return Delay(self.math)


@dataclass
class EventAssignment:
    """Assignment executed when an event fires."""

    variable: str
    math: Optional[MathNode] = None

    def copy(self) -> "EventAssignment":
        return EventAssignment(self.variable, self.math)


@dataclass
class Event(SBase):
    """A discontinuous state change (``<event>``)."""

    trigger: Optional[Trigger] = None
    delay: Optional[Delay] = None
    assignments: List[EventAssignment] = field(default_factory=list)

    def copy(self) -> "Event":
        return Event(
            trigger=self.trigger.copy() if self.trigger else None,
            delay=self.delay.copy() if self.delay else None,
            assignments=[assignment.copy() for assignment in self.assignments],
            **self._base_copy_kwargs(),
        )

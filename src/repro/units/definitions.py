"""SBML unit definitions and their canonical (dimensional) form.

A ``<unitDefinition>`` is a product of ``<unit>`` factors, each of the
form ``(multiplier * 10^scale * kind)^exponent``.  Two definitions are
the *same unit* iff their canonical forms — an overall factor plus a
dimension vector — are equal; this is the "checking the list of known
units" comparison the paper uses for unit-definition components, made
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import IncompatibleUnitsError, UnitError
from repro.units.kinds import DIMENSION_NAMES, kind_decomposition, normalize_kind

__all__ = ["Unit", "UnitDefinition", "CanonicalUnit"]


@dataclass(frozen=True)
class CanonicalUnit:
    """A unit reduced to ``factor × Π base_dimension^exponent``.

    ``factor`` is the multiplier into SI-coherent base units;
    ``dims`` is the exponent vector over
    :data:`~repro.units.kinds.DIMENSION_NAMES`.
    """

    factor: float
    dims: Tuple[int, ...]

    def __mul__(self, other: "CanonicalUnit") -> "CanonicalUnit":
        return CanonicalUnit(
            self.factor * other.factor,
            tuple(a + b for a, b in zip(self.dims, other.dims)),
        )

    def __truediv__(self, other: "CanonicalUnit") -> "CanonicalUnit":
        return CanonicalUnit(
            self.factor / other.factor,
            tuple(a - b for a, b in zip(self.dims, other.dims)),
        )

    def __pow__(self, exponent: int) -> "CanonicalUnit":
        return CanonicalUnit(
            self.factor**exponent,
            tuple(d * exponent for d in self.dims),
        )

    @property
    def is_dimensionless(self) -> bool:
        """Whether the dimension vector is all zeros."""
        return all(d == 0 for d in self.dims)

    def same_dimensions(self, other: "CanonicalUnit") -> bool:
        """Whether two units measure the same physical quantity."""
        return self.dims == other.dims

    def conversion_factor(self, other: "CanonicalUnit") -> float:
        """Factor ``f`` such that ``value[self] * f == value[other]``.

        Raises :class:`IncompatibleUnitsError` when dimensions differ
        (e.g. moles vs. molecules — conversion then needs context like
        the Figure 6 reaction-order rules, not a plain factor), and
        when ``other`` has a zero factor, which no value converts into.
        """
        if not self.same_dimensions(other) or other.factor == 0.0:
            raise IncompatibleUnitsError(
                f"cannot convert between {self.describe()} and "
                f"{other.describe()}"
            )
        return self.factor / other.factor

    def approx_equal(self, other: "CanonicalUnit", rel_tol: float = 1e-9) -> bool:
        """Equality up to floating-point rounding on the factor."""
        if not self.same_dimensions(other):
            return False
        if self.factor == other.factor:
            return True
        scale = max(abs(self.factor), abs(other.factor))
        return abs(self.factor - other.factor) <= rel_tol * scale

    def describe(self) -> str:
        """Human-readable form, e.g. ``1e-3 * metre^3``."""
        parts = [
            f"{name}^{exponent}" if exponent != 1 else name
            for name, exponent in zip(DIMENSION_NAMES, self.dims)
            if exponent != 0
        ]
        body = " * ".join(parts) if parts else "dimensionless"
        if self.factor == 1.0:
            return body
        return f"{self.factor:g} * {body}"

    @staticmethod
    def dimensionless() -> "CanonicalUnit":
        return CanonicalUnit(1.0, tuple([0] * len(DIMENSION_NAMES)))


@dataclass(frozen=True)
class Unit:
    """One ``<unit>`` factor of a unit definition."""

    kind: str
    exponent: int = 1
    scale: int = 0
    multiplier: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", normalize_kind(self.kind))

    def canonical(self) -> CanonicalUnit:
        """Reduce this factor to canonical form."""
        base_factor, dims = kind_decomposition(self.kind)
        factor = (self.multiplier * 10.0**self.scale * base_factor) ** (
            self.exponent
        )
        return CanonicalUnit(
            factor, tuple(d * self.exponent for d in dims)
        )


@dataclass
class UnitDefinition:
    """A named product of unit factors (``<unitDefinition>``)."""

    id: str
    name: Optional[str] = None
    units: List[Unit] = field(default_factory=list)

    def canonical(self) -> CanonicalUnit:
        """Reduce the whole definition to canonical form.

        Raises :class:`~repro.errors.UnitError`, naming the definition
        and the factor, when a factor has no finite value: a zero
        multiplier under a negative exponent, or a magnitude past the
        float range.
        """
        result = CanonicalUnit.dimensionless()
        for unit in self.units:
            try:
                factor = unit.canonical()
            except (ZeroDivisionError, OverflowError) as exc:
                raise UnitError(
                    f"unit definition {self.id!r}: factor "
                    f"({unit.multiplier:g} * 10^{unit.scale} * "
                    f"{unit.kind})^{unit.exponent} has no finite value"
                ) from exc
            result = result * factor
        return result

    def same_unit(self, other: "UnitDefinition") -> bool:
        """Whether two definitions denote exactly the same unit."""
        return self.canonical().approx_equal(other.canonical())

    def same_dimensions(self, other: "UnitDefinition") -> bool:
        """Whether two definitions measure the same quantity (possibly
        at different scales, e.g. mmol vs mol)."""
        return self.canonical().same_dimensions(other.canonical())

    def conversion_factor(self, other: "UnitDefinition") -> float:
        """Factor turning values in ``self`` into values in ``other``."""
        return self.canonical().conversion_factor(other.canonical())

    def copy(self) -> "UnitDefinition":
        """Deep-enough copy (units are immutable)."""
        return UnitDefinition(self.id, self.name, list(self.units))

"""Expression AST used for all model mathematics.

The paper stores every equation, kinetic law, rule and assignment as
MathML.  This module defines the in-memory tree those documents parse
into.  The tree is immutable: every node is a frozen dataclass, so
nodes can be shared freely, used as dictionary keys and compared
structurally with ``==``.

Node types
----------

========================= ==========================================
:class:`Number`           ``<cn>`` — a numeric literal, optionally
                          carrying an SBML unit reference
:class:`Identifier`       ``<ci>`` — a reference to a species,
                          parameter, compartment or function argument
:class:`Constant`         ``<pi>``, ``<exponentiale>``, ``<true>``,
                          ``<false>``, ``<infinity>``, ``<notanumber>``
:class:`Apply`            ``<apply>`` — operator or function call
:class:`Lambda`           ``<lambda>`` — SBML function definitions
:class:`Piecewise`        ``<piecewise>`` — conditional expressions
========================= ==========================================

The set of operators follows the MathML subset that SBML Level 2
permits.  Commutativity and associativity flags drive the canonical
pattern construction in :mod:`repro.mathml.pattern` (the paper's
Figure 7 algorithm).

Performance machinery (paper §5: "algorithmic optimisation of graph
operations ... nodes can be indexed while being parsed"):

* every node lazily caches a **structural digest** (:meth:`MathNode.digest`)
  — a process-independent content hash under which structurally equal
  trees compare and index in O(1) instead of re-serialising;
* :meth:`MathNode.substitute` and :meth:`MathNode.rename` are
  **copy-free**: when the bindings cannot touch the (cached) set of
  referenced names, the same node object comes back untouched.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Tuple

__all__ = [
    "MathNode",
    "Number",
    "Identifier",
    "Constant",
    "Apply",
    "Lambda",
    "Piecewise",
    "COMMUTATIVE_OPERATORS",
    "ASSOCIATIVE_OPERATORS",
    "RELATIONAL_OPERATORS",
    "LOGICAL_OPERATORS",
    "ARITHMETIC_OPERATORS",
    "UNARY_FUNCTIONS",
    "KNOWN_OPERATORS",
    "CONSTANT_NAMES",
]


# Operators for which argument order is irrelevant.  ``plus`` and
# ``times`` are n-ary in MathML; ``eq``/``neq`` are commutative as
# relations; the paper's pattern algorithm (Fig 7) special-cases all of
# these so that ``a*b`` matches ``b*a``.
COMMUTATIVE_OPERATORS = frozenset(
    {"plus", "times", "and", "or", "xor", "eq", "neq"}
)

# Operators that may be flattened: ``(a+b)+c == a+(b+c)``.
ASSOCIATIVE_OPERATORS = frozenset({"plus", "times", "and", "or", "xor"})

RELATIONAL_OPERATORS = frozenset({"eq", "neq", "gt", "lt", "geq", "leq"})

LOGICAL_OPERATORS = frozenset({"and", "or", "xor", "not"})

ARITHMETIC_OPERATORS = frozenset(
    {"plus", "minus", "times", "divide", "power", "root"}
)

# Single-argument named functions in the SBML MathML subset.
UNARY_FUNCTIONS = frozenset(
    {
        "exp",
        "ln",
        "log",
        "abs",
        "floor",
        "ceiling",
        "factorial",
        "sin",
        "cos",
        "tan",
        "sec",
        "csc",
        "cot",
        "sinh",
        "cosh",
        "tanh",
        "arcsin",
        "arccos",
        "arctan",
        "arcsinh",
        "arccosh",
        "arctanh",
    }
)

KNOWN_OPERATORS = (
    ARITHMETIC_OPERATORS
    | RELATIONAL_OPERATORS
    | LOGICAL_OPERATORS
    | UNARY_FUNCTIONS
)

CONSTANT_NAMES = frozenset(
    {"pi", "exponentiale", "true", "false", "infinity", "notanumber"}
)


def _hash_parts(tag: bytes, *parts: str) -> str:
    """Digest a node's canonical serialisation: a type tag plus its
    payload strings / child digests, length-delimited so distinct
    structures can never collide by concatenation."""
    digest = hashlib.blake2b(tag, digest_size=16)
    for part in parts:
        encoded = part.encode("utf-8")
        digest.update(len(encoded).to_bytes(4, "little"))
        digest.update(encoded)
    return digest.hexdigest()


class MathNode:
    """Abstract base class for all expression nodes.

    Provides the traversal helpers shared by every node type; the
    concrete classes below only add their payload fields.  The base
    slots hold lazily computed per-node caches: the structural digest
    and the referenced-name sets.  Nodes are immutable, so a cache
    entry, once computed, is valid for the node's lifetime.
    """

    __slots__ = ("_digest", "_idents", "_names")

    def children(self) -> Tuple["MathNode", ...]:
        """Return the direct sub-expressions of this node."""
        return ()

    def walk(self) -> Iterator["MathNode"]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def identifiers(self) -> frozenset:
        """Return the set of identifier names referenced anywhere in
        this expression (bound lambda parameters are *included*; use
        :meth:`Lambda.free_identifiers` to exclude them).

        The set is computed once and cached on the node.
        """
        cached = getattr(self, "_idents", None)
        if cached is None:
            cached = self._compute_name_sets()[0]
        return cached

    def referenced_names(self) -> frozenset:
        """Identifiers *plus* user-defined function names called
        anywhere in this expression — exactly the names substitution
        and the composition id mapping can touch.  Cached on the node;
        the substitution fast path and the pattern cache both key off
        this set."""
        cached = getattr(self, "_names", None)
        if cached is None:
            cached = self._compute_name_sets()[1]
        return cached

    def _compute_name_sets(self) -> Tuple[frozenset, frozenset]:
        idents = set()
        user_ops = set()
        for node in self.walk():
            if type(node) is Identifier:
                idents.add(node.name)
            elif type(node) is Apply and node.op not in KNOWN_OPERATORS:
                user_ops.add(node.op)
        ident_set = frozenset(idents)
        if user_ops:
            name_set = frozenset(idents | user_ops)
        else:
            name_set = ident_set
        object.__setattr__(self, "_idents", ident_set)
        object.__setattr__(self, "_names", name_set)
        return ident_set, name_set

    def digest(self) -> str:
        """The structural digest of this expression.

        A short, process-independent content hash: two trees have the
        same digest iff they have the same ``repr``, so the digest
        serves as a hashable O(1) identity for indexes and caches that
        would otherwise re-serialise the tree (the old ``repr`` keys)
        or pin object ids.  That is finer than ``==`` in the safe
        direction: ``Number(0.0)`` and ``Number(-0.0)`` are ``==`` yet
        digest apart; NaN literals, which ``==`` may call unequal,
        share a digest, as they share a ``repr``.  Computed once per
        node and cached.

        Stability: the digest is deterministic across processes and
        machines for a given repo version (it hashes a canonical
        serialisation, not ``id()``/``hash()``), which is what lets
        pattern caches in different processes and over different model
        copies agree.  It is *not* guaranteed stable across releases
        that change the serialisation.
        """
        cached = getattr(self, "_digest", None)
        if cached is None:
            cached = self._compute_digest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def _compute_digest(self) -> str:
        raise NotImplementedError

    def substitute(self, bindings: Mapping[str, "MathNode"]) -> "MathNode":
        """Return this expression with identifiers replaced.

        ``bindings`` maps identifier names to replacement nodes.
        Identifiers not present in the mapping are left untouched.
        When no binding touches the expression's referenced names the
        *same* node object is returned — callers may rely on object
        identity to detect "nothing changed".
        """
        if not bindings or bindings.keys().isdisjoint(
            self.referenced_names()
        ):
            return self
        return _substitute(self, bindings)

    def rename(self, mapping: Mapping[str, str]) -> "MathNode":
        """Return this expression with identifiers renamed.

        This is the operation the composition engine applies when a
        component from the second model is united with one from the
        first and every reference to it must follow ("add mapping" in
        the paper's Figure 5).  The mapping is restricted to the
        names this expression actually references before any work
        happens, so renames that cannot touch the expression —
        including identity mappings — return the same object without
        allocating.
        """
        if not mapping:
            return self
        names = self.referenced_names()
        if len(mapping) > len(names):
            items = [
                (name, mapping[name]) for name in names if name in mapping
            ]
        else:
            items = [
                (old, new) for old, new in mapping.items() if old in names
            ]
        bindings = {
            old: Identifier(new) for old, new in items if old != new
        }
        if not bindings:
            return self
        return _substitute(self, bindings)

    def size(self) -> int:
        """Return the number of nodes in the expression tree."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Return the height of the expression tree (leaf == 1)."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)


@dataclass(frozen=True, slots=True)
class Number(MathNode):
    """A numeric literal (``<cn>``), optionally annotated with the id
    of an SBML unit definition (the ``sbml:units`` attribute)."""

    value: float
    units: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    def __reduce__(self):
        # Route pickle/deepcopy through the constructor so copies
        # drop the (recomputable) cache slots.
        return (Number, (self.value, self.units))

    def _compute_digest(self) -> str:
        if self.units == "":
            # ``units=""`` is unequal to ``units=None`` (and the reader
            # yields it from ``sbml:units=""``): a part of its own.
            return _hash_parts(b"N", repr(self.value), "", "")
        return _hash_parts(b"N", repr(self.value), self.units or "")

    def is_integer(self) -> bool:
        """Whether the literal is a whole number (affects rendering)."""
        return float(self.value).is_integer()


@dataclass(frozen=True, slots=True)
class Identifier(MathNode):
    """A symbol reference (``<ci>``)."""

    name: str

    def __reduce__(self):
        return (Identifier, (self.name,))

    def _compute_digest(self) -> str:
        return _hash_parts(b"I", self.name)


@dataclass(frozen=True, slots=True)
class Constant(MathNode):
    """A named MathML constant such as ``pi`` or ``exponentiale``."""

    name: str

    def __post_init__(self):
        if self.name not in CONSTANT_NAMES:
            raise ValueError(f"unknown MathML constant: {self.name!r}")

    def __reduce__(self):
        return (Constant, (self.name,))

    def _compute_digest(self) -> str:
        return _hash_parts(b"C", self.name)


@dataclass(frozen=True, slots=True)
class Apply(MathNode):
    """An operator application (``<apply>``).

    ``op`` is either a MathML operator name from
    :data:`KNOWN_OPERATORS` or the id of a user function definition
    (``<csymbol>``/``<ci>`` call in SBML).
    """

    op: str
    args: Tuple[MathNode, ...]

    def __init__(self, op: str, args):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", tuple(args))

    def __reduce__(self):
        return (Apply, (self.op, self.args))

    def _compute_digest(self) -> str:
        return _hash_parts(
            b"A", self.op, *(arg.digest() for arg in self.args)
        )

    def children(self) -> Tuple[MathNode, ...]:
        return self.args

    @property
    def is_commutative(self) -> bool:
        """Whether operand order is irrelevant for this operator."""
        return self.op in COMMUTATIVE_OPERATORS

    @property
    def is_builtin(self) -> bool:
        """Whether ``op`` is a MathML operator rather than a call to a
        user-defined function."""
        return self.op in KNOWN_OPERATORS


@dataclass(frozen=True, slots=True)
class Lambda(MathNode):
    """A function definition body (``<lambda>``)."""

    params: Tuple[str, ...]
    body: MathNode

    def __init__(self, params, body: MathNode):
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "body", body)

    def __reduce__(self):
        return (Lambda, (self.params, self.body))

    def _compute_digest(self) -> str:
        return _hash_parts(
            b"L", str(len(self.params)), *self.params, self.body.digest()
        )

    def children(self) -> Tuple[MathNode, ...]:
        return (self.body,)

    def free_identifiers(self) -> frozenset:
        """Identifiers used in the body that are not parameters."""
        return self.body.identifiers() - frozenset(self.params)

    def apply_to(self, args: Tuple[MathNode, ...]) -> MathNode:
        """Inline this definition for the given argument expressions.

        Raises :class:`ValueError` on arity mismatch; the evaluator
        converts that into :class:`~repro.errors.MathEvalError`.
        """
        if len(args) != len(self.params):
            raise ValueError(
                f"function expects {len(self.params)} argument(s), "
                f"got {len(args)}"
            )
        return self.body.substitute(dict(zip(self.params, args)))


@dataclass(frozen=True, slots=True)
class Piecewise(MathNode):
    """A conditional expression (``<piecewise>``).

    ``pieces`` is a tuple of ``(value, condition)`` pairs evaluated in
    order; ``otherwise`` (may be ``None``) is the fallback value.
    """

    pieces: Tuple[Tuple[MathNode, MathNode], ...]
    otherwise: Optional[MathNode] = None

    def __init__(self, pieces, otherwise: Optional[MathNode] = None):
        object.__setattr__(
            self, "pieces", tuple((value, cond) for value, cond in pieces)
        )
        object.__setattr__(self, "otherwise", otherwise)

    def __reduce__(self):
        return (Piecewise, (self.pieces, self.otherwise))

    def _compute_digest(self) -> str:
        parts = [str(len(self.pieces))]
        for value, cond in self.pieces:
            parts.append(value.digest())
            parts.append(cond.digest())
        if self.otherwise is not None:
            parts.append(self.otherwise.digest())
        return _hash_parts(b"P", *parts)

    def children(self) -> Tuple[MathNode, ...]:
        kids = []
        for value, cond in self.pieces:
            kids.append(value)
            kids.append(cond)
        if self.otherwise is not None:
            kids.append(self.otherwise)
        return tuple(kids)


def _substitute(node: MathNode, bindings: Mapping[str, MathNode]) -> MathNode:
    """Structural substitution used by both ``substitute`` and
    ``rename``; respects lambda parameter shadowing.

    Copy-free: any subtree whose referenced names are disjoint from
    the bindings is returned as the *same* object, so substitutions
    that touch nothing (the bulk of composition-time renames) neither
    traverse nor reallocate untouched branches.
    """
    if isinstance(node, Identifier):
        return bindings.get(node.name, node)
    if bindings.keys().isdisjoint(node.referenced_names()):
        return node
    if isinstance(node, Apply):
        new_args = tuple(_substitute(arg, bindings) for arg in node.args)
        # A call to a user function may itself be renamed when the
        # function definition was united with one from the other model.
        new_op = node.op
        replacement = bindings.get(node.op)
        if not node.is_builtin and isinstance(replacement, Identifier):
            new_op = replacement.name
        if new_op == node.op and new_args == node.args:
            return node
        return Apply(new_op, new_args)
    if isinstance(node, Lambda):
        # Parameters shadow outer bindings.
        inner = {
            name: repl
            for name, repl in bindings.items()
            if name not in node.params
        }
        new_body = _substitute(node.body, inner)
        if new_body is node.body:
            return node
        return Lambda(node.params, new_body)
    if isinstance(node, Piecewise):
        new_pieces = tuple(
            (_substitute(value, bindings), _substitute(cond, bindings))
            for value, cond in node.pieces
        )
        new_otherwise = (
            _substitute(node.otherwise, bindings)
            if node.otherwise is not None
            else None
        )
        if new_pieces == node.pieces and new_otherwise == node.otherwise:
            return node
        return Piecewise(new_pieces, new_otherwise)
    return node

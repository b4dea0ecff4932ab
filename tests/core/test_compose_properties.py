"""Property-based tests for composition invariants (hypothesis).

The algebra of composition the paper's Figures 1-3 sketch:

* idempotence: ``m + m ≅ m``,
* size bounds: ``max(|a|,|b|) ≤ |a + b| ≤ |a| + |b|``,
* commutativity up to renaming: ``a+b`` and ``b+a`` have the same
  species/reaction multisets (ids may differ by rename),
* the result is always valid SBML,
* disjoint models compose to the exact disjoint union.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ModelBuilder, compose_all
from repro.eval import models_equivalent
from repro.sbml import validate_model

SPECIES_POOL = [f"sp{i}" for i in range(12)]
#: Compartment ids of colliding models; ``cyto`` is drawn or not.
COLLIDING_COMPARTMENTS = ["cell", "cyto"]
#: Ids any component of a colliding model may take: species ids,
#: compartment ids, and the fresh ids renames produce (``<id>_m2``
#: under the default rename suffix).
COLLIDING_IDS = SPECIES_POOL[:4] + COLLIDING_COMPARTMENTS + ["sp0_m2", "cell_m2"]
#: Species names of colliding models, repeated within a compartment.
COLLIDING_NAMES = [None, "ATP", "ADP"]


@st.composite
def models(draw, pool=None, model_id="m", collide=False):
    """A small random-but-valid mass-action model.

    Reactant→product pairs are unique within one model: a model with
    two *structurally identical* reactions matches either of them when
    looked up per Figure 5, so reaction-count commutativity only holds
    on duplicate-free inputs (real models never carry two byte-equal
    reactions; the engine treats them as the modelling error they are).

    ``collide=True`` draws models whose ids collide across component
    types and with fresh rename ids: species, parameters and reactions
    take ids from :data:`COLLIDING_IDS` (a species may share its
    compartment's id), species names repeat within a compartment, a
    second compartment may be named like the first, and reactions may
    repeat a reactant→product pair.  These exercise
    every path of the sweep's bulk claims, not the algebra above.
    """
    pool = pool if pool is not None else SPECIES_POOL
    if collide:
        pool = COLLIDING_IDS
    species = draw(
        st.lists(
            st.sampled_from(pool), min_size=1, max_size=6, unique=True
        )
    )
    builder = ModelBuilder(model_id).compartment("cell", size=1.0)
    compartments = ["cell"]
    if collide and draw(st.booleans()):
        # Named "cell", it unites with another model's "cell" by name.
        builder.compartment(
            "cyto", size=2.0, name=draw(st.sampled_from([None, "cell"]))
        )
        compartments.append("cyto")
    for name in species:
        initial = float(draw(st.integers(min_value=0, max_value=20)))
        if collide:
            builder.species(
                name,
                initial,
                compartment=draw(st.sampled_from(compartments)),
                name=draw(st.sampled_from(COLLIDING_NAMES)),
            )
        else:
            builder.species(name, initial)
    if collide:
        for parameter in draw(
            st.lists(st.sampled_from(COLLIDING_IDS), max_size=2, unique=True)
        ):
            builder.parameter(parameter, 0.5)
    n_reactions = draw(st.integers(min_value=0, max_value=4))
    used_pairs = set()
    used_ids = set()
    for index in range(n_reactions):
        if len(species) < 2:
            break
        pair = tuple(
            draw(
                st.lists(
                    st.sampled_from(species),
                    min_size=2,
                    max_size=2,
                    unique=True,
                )
            )
        )
        if pair in used_pairs and not collide:
            continue
        used_pairs.add(pair)
        reaction_id = f"r_{pair[0]}_{pair[1]}_{index}"
        if collide:
            reaction_id = draw(st.sampled_from(COLLIDING_IDS + [reaction_id]))
            if reaction_id in used_ids:
                continue
            used_ids.add(reaction_id)
        k = draw(st.integers(min_value=1, max_value=9)) / 10.0
        builder.reaction(
            reaction_id,
            [pair[0]],
            [pair[1]],
            formula=f"k_loc * {pair[0]}",
            local_parameters={"k_loc": k},
        )
    return builder.build()


@given(models())
@settings(max_examples=60, deadline=None)
def test_idempotence(model):
    merged, report = compose_all([model, model.copy()]).pair()
    merged.id = model.id
    assert models_equivalent(model, merged)
    assert report.total_added == 0


@given(models(), models(model_id="m2"))
@settings(max_examples=60, deadline=None)
def test_size_bounds(first, second):
    merged = compose_all([first, second]).model
    assert merged.num_nodes() <= first.num_nodes() + second.num_nodes()
    assert merged.num_nodes() >= max(first.num_nodes(), second.num_nodes())
    assert len(merged.reactions) <= (
        len(first.reactions) + len(second.reactions)
    )


@given(models(), models(model_id="m2"))
@settings(max_examples=60, deadline=None)
def test_result_always_valid(first, second):
    merged = compose_all([first, second]).model
    errors = [
        issue
        for issue in validate_model(merged)
        if issue.severity == "error"
    ]
    assert errors == []


@given(models(), models(model_id="m2"))
@settings(max_examples=60, deadline=None)
def test_commutative_species_sets(first, second):
    forward = compose_all([first, second]).model
    backward = compose_all([second, first]).model
    assert forward.num_nodes() == backward.num_nodes()
    assert len(forward.reactions) == len(backward.reactions)
    # Species names (before renames, names carry identity) agree.
    forward_names = sorted(s.name or s.id for s in forward.species)
    backward_names = sorted(s.name or s.id for s in backward.species)
    assert forward_names == backward_names


@given(
    models(pool=[f"left{i}" for i in range(6)]),
    models(pool=[f"right{i}" for i in range(6)], model_id="m2"),
)
@settings(max_examples=60, deadline=None)
def test_disjoint_union(first, second):
    merged, report = compose_all([first, second]).pair()
    assert merged.num_nodes() == first.num_nodes() + second.num_nodes()
    assert len(merged.reactions) == (
        len(first.reactions) + len(second.reactions)
    )
    united_species = [
        d for d in report.duplicates if d.component_type == "species"
    ]
    assert united_species == []


@given(models(), models(model_id="m2"))
@settings(max_examples=40, deadline=None)
def test_compose_deterministic(first, second):
    once, report_once = compose_all([first, second]).pair()
    twice, report_twice = compose_all([first, second]).pair()
    assert models_equivalent(once, twice)
    assert report_once.mappings == report_twice.mappings


@given(models(), models(model_id="m2"), models(model_id="m3"))
@settings(max_examples=30, deadline=None)
def test_associative_in_size(first, second, third):
    left_inner = compose_all([first, second]).model
    left = compose_all([left_inner, third]).model
    right_inner = compose_all([second, third]).model
    right = compose_all([first, right_inner]).model
    assert left.num_nodes() == right.num_nodes()


@given(models())
@settings(max_examples=40, deadline=None)
def test_empty_identity(model):
    empty = ModelBuilder("empty").build()
    left = compose_all([empty, model]).model
    right = compose_all([model, empty]).model
    left.id = model.id
    right.id = model.id
    assert models_equivalent(model, left)
    assert models_equivalent(model, right)

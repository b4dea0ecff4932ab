"""Oracles for the one-pass SBML writer and reader.

The writers append text in one walk of the object model; they must
produce exactly the bytes of the ElementTree serialisation they
replaced (``reference_writer``), because ``model_digest`` hashes that
text.  The reader visits each element's children once; it must return
an equal model, or raise the same error, as the rescanning reader it
replaced (``reference_reader``) on every document: the writer's,
seeded mutants of them, and hand-written ones the writer never emits.
"""

import math
import random
import re

import pytest

from reference_reader import reference_read_sbml
from reference_writer import reference_write_mathml, reference_write_sbml
from test_reader_writer import full_featured_model

from repro import compose_all
from repro.core.artifact_store import model_digest
from repro.corpus import (
    corpus_by_size,
    drug_inhibition,
    gene_expression,
    generate_corpus,
    glycolysis_lower,
    glycolysis_upper,
    lotka_volterra,
    mapk_cascade,
    semantic_suite,
)
from repro.mathml import (
    Apply,
    Constant,
    Identifier,
    Lambda,
    Number,
    Piecewise,
    parse_infix,
    write_mathml,
)
from repro.sbml import (
    AlgebraicRule,
    AssignmentRule,
    Compartment,
    CompartmentType,
    Constraint,
    Delay,
    Document,
    Event,
    EventAssignment,
    FunctionDefinition,
    InitialAssignment,
    KineticLaw,
    Model,
    ModifierSpeciesReference,
    Parameter,
    RateRule,
    Reaction,
    Species,
    SpeciesReference,
    SpeciesType,
    Trigger,
    read_sbml,
    write_sbml,
)
from repro.units.definitions import Unit, UnitDefinition

#: ``model_digest(full_featured_model())`` as the ElementTree writer
#: produced it.  Every store key and index entry is such a digest, so
#: a change here is a format change.
FULL_FEATURED_DIGEST = (
    "3ece8904c929f5e7ef6584cfc9baa2ced60105a5e64063ea904f1f3a86e77cc8"
)

_CORPORA = {}


def _corpus(seed):
    if seed not in _CORPORA:
        _CORPORA[seed] = generate_corpus(seed=seed)
    return _CORPORA[seed]


def _curated():
    return [
        glycolysis_upper(),
        glycolysis_lower(),
        mapk_cascade(),
        drug_inhibition(),
        gene_expression(),
        lotka_volterra(),
    ]


def _compose_results():
    curated = _curated()
    corpus = _corpus(1)
    suite = semantic_suite()
    return [
        compose_all(curated).model,
        compose_all(curated[:3], plan="tree").model,
        compose_all(corpus[:4]).model,
        compose_all(corpus[40:48:2]).model,
        compose_all(suite[:6]).model,
    ]


# -- models the corpus never produces ---------------------------------------

_TRICKY = 'a&b<c>d"e\rf\ng\th'

_MATH = [
    Number(3.0),
    Number(2.5),
    Number(-0.0),
    Number(1e15),
    Number(123456789012345.0),
    Number(float("inf")),
    Number(float("-inf")),
    Number(float("nan")),
    Number(6.022e23, "per_second"),
    Number(1.0, _TRICKY),
    Identifier("x"),
    Identifier("time"),
    Identifier("delay"),
    Identifier("avogadro"),
    Identifier("a<b&c"),
    Identifier(""),
    Constant("pi"),
    Constant("true"),
    Constant("notanumber"),
    Apply("plus", ()),
    Apply("minus", (Identifier("x"),)),
    Apply("root", (Number(3.0), Identifier("x"))),
    Apply("log", (Number(10.0), Apply("exp", (Identifier("y"),)))),
    Apply("f", (Identifier("a"), Number(1.0))),
    Apply("delay", (Identifier("S"), Number(2.0))),
    Apply("geq", (Identifier("A"), Number(0.0))),
    Lambda((), Number(1.0)),
    Lambda(("x", "y"), Apply("times", (Identifier("x"), Identifier("y")))),
    Piecewise(()),
    Piecewise(((Number(1.0), Constant("true")),)),
    Piecewise(
        (
            (Identifier("a"), Apply("lt", (Identifier("t"), Number(1.0)))),
            (Identifier("b"), Apply("gt", (Identifier("t"), Number(5.0)))),
        ),
        Apply("divide", (Identifier("a"), Identifier("b"))),
    ),
    parse_infix("Vmax * S / (Km + S) + piecewise(1, x >= 2, 0)"),
]


def _annotated(component, **annotations):
    component.annotations = {key: list(uris) for key, uris in annotations.items()}
    return component


def _feature_model(notes_first):
    """Every element and attribute the writer emits, with empty lists,
    empty kinetic laws, escapes, notes and annotations."""
    model = Model(
        id="features", name=_TRICKY, metaid="meta_model", sbo_term="SBO:0000004"
    )
    if notes_first:
        model.notes = "Model notes & <markup> \"quoted\"\nsecond line"
    model.add_function_definition(
        FunctionDefinition(
            id="f", math=_MATH[27], notes="adds" if notes_first else None
        )
    )
    model.add_function_definition(FunctionDefinition(id="g"))
    model.add_unit_definition(UnitDefinition("empty", name="no units"))
    model.add_unit_definition(
        UnitDefinition(
            "u",
            units=[
                Unit("mole", 2, -3, 0.5),
                Unit("litre", -1, 0, 0.0),
                Unit("second", 1, 0, 1.0),
            ],
        )
    )
    model.add_compartment_type(
        _annotated(CompartmentType(id="ct"), isVersionOf=["urn:ct"])
    )
    model.add_species_type(SpeciesType(id="st", name="species type"))
    model.add_compartment(
        Compartment(
            id="c",
            size=2.0,
            units="litre",
            spatial_dimensions=2,
            compartment_type="ct",
            outside="o",
            constant=False,
        )
    )
    model.add_compartment(Compartment(id="o"))
    model.add_species(
        _annotated(
            Species(
                id="A",
                compartment="c",
                initial_amount=1.0,
                substance_units="mole",
                has_only_substance_units=True,
                boundary_condition=True,
                constant=True,
                species_type="st",
                charge=-2,
                notes="species notes",
            ),
            isDescribedBy=[],
            hasPart=["urn:b", "urn:a&b"],
            isHomologTo=["urn:x"],
        )
    )
    model.add_species(
        _annotated(
            Species(id="B", metaid="meta_B", initial_concentration=0.0),
            **{"is": ["urn:y"]},
        )
    )
    model.add_parameter(Parameter(id="k", value=float("nan"), units="u"))
    model.add_parameter(Parameter(id="p", value=float("-inf"), constant=False))
    model.add_parameter(Parameter(id=_TRICKY))
    model.add_initial_assignment(InitialAssignment(id="ia", symbol="p", math=_MATH[2]))
    model.add_initial_assignment(InitialAssignment(symbol=None, math=_MATH[28]))
    model.add_rule(AssignmentRule(id="r1", metaid="m1", math=_MATH[5], _variable="p"))
    model.add_rule(RateRule(sbo_term="SBO:1", _variable=None))
    model.add_rule(AlgebraicRule(name="alg", math=_MATH[29]))
    model.add_constraint(Constraint(math=_MATH[25], message="keep A & B > 0"))
    model.add_constraint(Constraint(message="message only"))
    model.add_constraint(Constraint(id="bare"))
    literals = [_MATH[i] for i in (3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 18, 19)]
    calls = [_MATH[i] for i in (20, 21, 22, 23, 24, 30)]
    model.add_constraint(
        Constraint(id="literals", math=Apply("plus", tuple(literals + calls)))
    )
    model.add_reaction(
        Reaction(
            id="r",
            reactants=[SpeciesReference("A"), SpeciesReference("B", 2.5)],
            products=[SpeciesReference("B", 0.0)],
            modifiers=[ModifierSpeciesReference("A")],
            kinetic_law=KineticLaw(
                math=_MATH[31],
                parameters=[
                    Parameter(id="kl", value=3.0),
                    Parameter(id="kc", notes="local"),
                ],
                notes="law notes",
            ),
            reversible=False,
            fast=True,
        )
    )
    model.add_reaction(Reaction(id="empty_law", kinetic_law=KineticLaw()))
    model.add_reaction(Reaction(id="bare"))
    model.add_reaction(Reaction(id="products_only", products=[SpeciesReference("A")]))
    model.add_event(
        Event(
            id="e",
            trigger=Trigger(_MATH[25]),
            delay=Delay(_MATH[4]),
            assignments=[
                EventAssignment("A", _MATH[0]),
                EventAssignment("B", None),
            ],
        )
    )
    model.add_event(Event(id="hollow", trigger=Trigger(None), delay=Delay(None)))
    model.add_event(Event())
    if not notes_first:
        model.reactions[-1].notes = "notes after the first annotation"
    return model


def _feature_models():
    models = [_feature_model(True), _feature_model(False)]
    full = full_featured_model()
    full.notes = "precedes the first annotation"
    models.append(full)
    models.append(Model(id="empty"))
    models.append(Model())
    lone = Model(id="lone")
    lone.notes = "only notes"
    models.append(lone)
    return models


def _documents():
    """Every model the writer oracle covers, as documents."""
    models = _curated() + semantic_suite() + _compose_results() + _feature_models()
    documents = [Document(model) for model in models]
    documents.append(Document(_feature_model(True), level=2, version=3))
    return documents


# -- the writer --------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_writer_matches_reference_on_the_corpus(seed):
    for model in _corpus(seed):
        assert write_sbml(model) == reference_write_sbml(model), model.id


def test_writer_matches_reference_on_compose_results_and_features():
    documents = _documents()
    for document in documents:
        assert write_sbml(document) == reference_write_sbml(document)
    texts = [write_sbml(document) for document in documents]
    # The features really are exercised.
    joined = "".join(texts)
    for needle in (
        'xmlns:ns1="http://biomodels.net/biology-qualifiers/"',
        'xmlns:ns2="http://biomodels.net/biology-qualifiers/"',
        "&amp;",
        "&lt;",
        "&gt;",
        "&quot;",
        "&#13;",
        "&#10;",
        "&#09;",
        "<kineticLaw />",
        "<rdf:Bag />",
        "<piecewise />",
        "<csymbol",
        "<logbase>",
        "<degree>",
        "<lambda>",
        ">nan<",
        ">inf<",
        'multiplier="0.0"',
        'version="3"',
    ):
        assert needle in joined, needle


def test_namespace_prefixes_follow_first_use():
    notes_first = write_sbml(_feature_model(True))
    assert notes_first.splitlines()[1].startswith(
        '<sbml xmlns:html="http://www.w3.org/1999/xhtml" '
        'xmlns:ns2="http://biomodels.net/biology-qualifiers/" '
        'xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
        'xmlns="http://www.sbml.org/sbml/level2/version4"'
    )
    annotation_first = write_sbml(_feature_model(False))
    assert "ns1:hasPart" in annotation_first
    assert "xmlns:html=" in annotation_first


def test_writer_stays_on_the_pinned_digest():
    assert model_digest(full_featured_model()) == FULL_FEATURED_DIGEST


@pytest.mark.parametrize("indent", [None, "  ", "\t", ""])
def test_write_mathml_matches_reference(indent):
    for node in _MATH:
        assert write_mathml(node, indent) == reference_write_mathml(node, indent)


def test_writers_do_not_import_elementtree():
    import repro.mathml.writer as math_writer
    import repro.sbml.writer as sbml_writer

    for module in (math_writer, sbml_writer):
        with open(module.__file__, encoding="utf-8") as handle:
            assert "xml.etree" not in handle.read()


# -- the reader --------------------------------------------------------------


def _outcome(read, text):
    try:
        return read(text)
    except Exception as exc:  # every failure is compared, class and message
        return (type(exc), str(exc))


def _same(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        return got == want
    # NaN literals compare unequal to themselves; their text does not.
    return got == want or reference_write_sbml(got) == reference_write_sbml(want)


def _assert_reads_like_reference(text):
    got = _outcome(read_sbml, text)
    want = _outcome(reference_read_sbml, text)
    assert _same(got, want), (got, want)
    return got


def test_reader_matches_reference_on_the_writers_documents():
    texts = [write_sbml(model) for model in _corpus(1)]
    texts += [write_sbml(document) for document in _documents()]
    for text in texts:
        got = _assert_reads_like_reference(text)
        assert isinstance(got, Document)


_ATTRIBUTE = re.compile(r'( [A-Za-z:]+=")([^"]*)(")')
_TAG_END = re.compile(r">")
_BAD_VALUES = [
    "", "x", "true", "0", "-1", "1.5", "nan", "inf", "1e400", "&amp;",
    "&lt;b&gt;", " 2 ", "00", "false", "1/2",
]
_INSERTS = [
    "<foo/>",
    "<foo><species id='hidden'/></foo>",
    "<listOfSpecies/>",
    "<listOfSpecies><species id='dup'/></listOfSpecies>",
    "<listOfReactions><reaction id='r_new'/></listOfReactions>",
    '<math xmlns="http://www.w3.org/1998/Math/MathML"><cn>1</cn></math>',
    '<math xmlns="http://www.w3.org/1998/Math/MathML"><ci>z</ci><ci>w</ci></math>',
    "<notes><p>hi <b>there</b></p></notes>",
    "<annotation/>",
    "<kineticLaw/>",
    "<sep/>",
    "<apply/>",
    "<ci>z</ci>",
    "<trigger/>",
    '<cn type="rational">1<sep/>0</cn>',
    '<cn type="e-notation">2<sep/>3</cn>',
    "<speciesReference/>",
    "<unit/>",
    "<piece><ci>a</ci></piece>",
    "<bvar><cn>1</cn></bvar>",
]


def _mutants(text, rng, count):
    attributes = list(_ATTRIBUTE.finditer(text))
    ends = [match.end() for match in _TAG_END.finditer(text)]
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0:
            yield text[: rng.randrange(len(text))]
        elif kind == 1 and attributes:
            match = rng.choice(attributes)
            yield (
                text[: match.start(2)]
                + rng.choice(_BAD_VALUES)
                + text[match.end(2):]
            )
        elif kind == 2 and attributes:
            match = rng.choice(attributes)
            yield text[: match.start()] + text[match.end():]
        elif kind == 3:
            at = rng.choice(ends)
            yield text[:at] + rng.choice(_INSERTS) + text[at:]
        else:
            # Duplicate one element's line: repeated children, ids.
            lines = text.splitlines(keepends=True)
            at = rng.randrange(2, len(lines) - 1)
            yield "".join(lines[: at + 1] + lines[at:])


def test_reader_matches_reference_on_seeded_mutants():
    rng = random.Random(20240613)
    sources = _curated()[:4] + [full_featured_model(), _feature_model(True)]
    sources += corpus_by_size(_corpus(1))[10:50:10]
    outcomes = {"ok": 0, "error": 0}
    for model in sources:
        text = write_sbml(model)
        for mutant in _mutants(text, rng, 60):
            got = _assert_reads_like_reference(mutant)
            outcomes["error" if isinstance(got, tuple) else "ok"] += 1
    # Both sides of the oracle are exercised.
    assert outcomes["ok"] > 100 and outcomes["error"] > 100, outcomes


_HEAD = (
    '<sbml xmlns="http://www.sbml.org/sbml/level2/version4" '
    'xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
    'xmlns:bqbiol="http://biomodels.net/biology-qualifiers/" '
    'xmlns:bqmodel="http://biomodels.net/model-qualifiers/" '
    'level="2" version="4"><model id="m">'
)
_TAIL = "</model></sbml>"
_MATHML = 'xmlns="http://www.w3.org/1998/Math/MathML"'


def _law(math_body, extra=""):
    return (
        _HEAD
        + "<listOfReactions><reaction id='r'><kineticLaw>"
        + f"<math {_MATHML}>{math_body}</math>{extra}"
        + "</kineticLaw></reaction></listOfReactions>"
        + _TAIL
    )


HAND_WRITTEN = {
    "e_notation": _law('<cn type="e-notation"> 1.5 <sep/> 3 </cn>'),
    "rational": _law('<cn type="rational">1<sep/>4</cn>'),
    "rational_units": _law(
        '<cn type="rational" xmlns:sbml="http://www.sbml.org/sbml/level2/version4" '
        'sbml:units="mole">3<sep/>4</cn>'
    ),
    "bad_rational": _law('<cn type="rational">1<sep/>0</cn>'),
    "second_math_ignored": _law(
        "<ci>k</ci>", f"<math {_MATHML}><cn>2</cn></math>"
    ),
    "second_law_ignored": _HEAD
    + "<listOfReactions><reaction id='r'>"
    + f"<kineticLaw><math {_MATHML}><ci>first</ci></math></kineticLaw>"
    + f"<kineticLaw><math {_MATHML}><ci>second</ci></math></kineticLaw>"
    + "</reaction></listOfReactions>"
    + _TAIL,
    "second_list_ignored": _HEAD
    + "<listOfSpecies><species id='A'/></listOfSpecies>"
    + "<listOfSpecies><species id='B'/></listOfSpecies>"
    + _TAIL,
    "unknown_elements_skipped": _HEAD
    + "<foo><listOfSpecies><species id='hidden'/></listOfSpecies></foo>"
    + "<listOfSpecies><bar/><species id='A'><baz/></species></listOfSpecies>"
    + "<listOfRules><foo variable='x'/><rateRule variable='A'/></listOfRules>"
    + _TAIL,
    "nested_markup_in_notes": _HEAD.replace("<model id=\"m\">", "")
    + "<model id='m'><notes><body xmlns='http://www.w3.org/1999/xhtml'>"
    + "<p>Hello <b>bold</b> world</p>\n  <p>second &amp; last</p>"
    + "</body></notes><notes><p>ignored</p></notes></model></sbml>",
    "nested_qualifiers": _HEAD
    + "<listOfSpecies><species id='A' metaid='mA'><annotation><rdf:RDF>"
    + "<rdf:Description rdf:about='#mA'>"
    + "<bqbiol:is><rdf:Bag><rdf:li rdf:resource='urn:a'/></rdf:Bag></bqbiol:is>"
    + "<bqmodel:isDescribedBy><rdf:Bag><rdf:li rdf:resource='urn:d'/>"
    + "<rdf:li resource='urn:plain'/></rdf:Bag></bqmodel:isDescribedBy>"
    + "<bqbiol:hasPart><rdf:Bag><rdf:li rdf:resource='urn:p'/>"
    + "<bqbiol:isVersionOf><rdf:Bag><rdf:li rdf:resource='urn:v'/></rdf:Bag>"
    + "</bqbiol:isVersionOf></rdf:Bag></bqbiol:hasPart>"
    + "<bqbiol:is><rdf:Bag><rdf:li rdf:resource='urn:a2'/></rdf:Bag></bqbiol:is>"
    + "<bqbiol:encodes/>"
    + "</rdf:Description></rdf:RDF></annotation></species></listOfSpecies>"
    + _TAIL,
    "zero_multiplier": _HEAD
    + "<listOfUnitDefinitions><unitDefinition id='u'><listOfUnits>"
    + "<unit kind='mole' multiplier='0'/><unit kind='second' exponent='-1'/>"
    + "</listOfUnits></unitDefinition></listOfUnitDefinitions>"
    + _TAIL,
    "other_level_namespace": (
        '<sbml xmlns="http://www.sbml.org/sbml/level2" level="2" version="1">'
        "<model id='v1'><listOfCompartments><compartment id='c'/>"
        "</listOfCompartments></model></sbml>"
    ),
    "no_namespace_comments_and_pis": (
        "<?xml version='1.0'?><!-- lead --><sbml><?pi data?><model id='bare'>"
        "<!-- inside --><listOfParameters><parameter id='k' value='1'/>"
        "<!-- between --></listOfParameters></model></sbml>"
    ),
    "csymbols": _law(
        "<apply><csymbol definitionURL='http://www.sbml.org/sbml/symbols/delay'>"
        "delay</csymbol><ci>S</ci><cn>1</cn></apply>"
    ),
    "csymbol_by_text": _law("<csymbol definitionURL='urn:other'>t</csymbol>"),
    "piecewise_lambda": _HEAD
    + "<listOfFunctionDefinitions><functionDefinition id='f'>"
    + f"<math {_MATHML}><lambda><bvar><ci>x</ci></bvar><piecewise>"
    + "<piece><ci>x</ci><apply><gt/><ci>x</ci><cn>0</cn></apply></piece>"
    + "</piecewise></lambda></math></functionDefinition>"
    + "</listOfFunctionDefinitions>"
    + _TAIL,
    "bad_arity": _law("<apply><divide/><ci>a</ci></apply>"),
    "several_bad_attributes": _HEAD
    + "<listOfSpecies><species id='A' boundaryCondition='maybe' "
    + "initialAmount='lots' charge='x'/></listOfSpecies>"
    + _TAIL,
    "reaction_error_order": _HEAD
    + "<listOfReactions><reaction id='r' reversible='perhaps'>"
    + "<listOfReactants><speciesReference/></listOfReactants>"
    + "</reaction></listOfReactions>"
    + _TAIL,
    "duplicate_ids": _HEAD
    + "<listOfSpecies><species id='A'/><species id='A'/></listOfSpecies>"
    + "<listOfReactions><reaction id='r' reversible='perhaps'/></listOfReactions>"
    + _TAIL,
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_reader_matches_reference_on_hand_written_documents(name):
    _assert_reads_like_reference(HAND_WRITTEN[name])


def test_hand_written_documents_read_as_intended():
    def read(name):
        return read_sbml(HAND_WRITTEN[name]).model

    law = read("e_notation").reactions[0].kinetic_law
    assert law.math == Number(1500.0)
    assert read("rational_units").reactions[0].kinetic_law.math == Number(0.75, "mole")
    assert read("second_math_ignored").reactions[0].kinetic_law.math == Identifier("k")
    first_law = read("second_law_ignored").reactions[0].kinetic_law
    assert first_law.math == Identifier("first")
    assert [s.id for s in read("second_list_ignored").species] == ["A"]
    skipped = read("unknown_elements_skipped")
    assert [s.id for s in skipped.species] == ["A"]
    assert [r.variable for r in skipped.rules] == ["A"]
    notes = read("nested_markup_in_notes").notes
    assert notes == "Hello bold world\n  second & last"
    annotations = read("nested_qualifiers").species[0].annotations
    assert annotations == {
        "is": ["urn:a", "urn:a2"],
        "isDescribedBy": ["urn:d", "urn:plain"],
        "hasPart": ["urn:p", "urn:v"],
        "isVersionOf": ["urn:v"],
    }
    units = read("zero_multiplier").unit_definitions[0].units
    assert [unit.multiplier for unit in units] == [0.0, 1.0]
    assert math.isinf(
        read_sbml(write_sbml(_feature_model(True))).model.get_parameter("p").value
    )

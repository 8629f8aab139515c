"""Normal-form axioms and their RDF encoding (parse/encode inverses)."""
import hashlib

import pytest

from ckrbench.errors import EncodingError
from ckrbench.model import axioms as ax
from ckrbench.model.axioms import axiom
from ckrbench.model.encoding import (
    BlankMinter,
    encode_axiom,
    encode_axioms,
    parse_axioms,
    skolem_minter,
)
from ckrbench.namespaces import OWL_IRREFLEXIVEPROPERTY, RDF_TYPE
from ckrbench.rdf.dataset import Dataset, Quad
from ckrbench.rdf.trig import load_dataset, write_dataset
from util import PREAMBLE, gen, run_python, trig

A0, A1, A2 = gen("A0"), gen("A1"), gen("A2")
R0, R1 = gen("R0"), gen("R1")
a0, a1 = gen("a0"), gen("a1")
c0 = gen("c0")
G = gen("m0")

ALL_SHAPE_SAMPLES = [
    axiom(ax.SUB_CLASS, A0, A1),
    axiom(ax.SUB_CLASS_NEG, A0, A1),
    axiom(ax.SUB_HAS_VALUE, A0, R0, a0),
    axiom(ax.SUB_CONJ, A0, A1, A2),
    axiom(ax.SUB_EX, R0, A0, A1),
    axiom(ax.SUP_ALL, A0, R0, A1),
    axiom(ax.SUP_MAX1, A0, R0, A1),
    axiom(ax.CONCEPT_ASSERT, A0, a0),
    axiom(ax.ROLE_ASSERT, R0, a0, a1),
    axiom(ax.NEG_ROLE_ASSERT, R0, a0, a1),
    axiom(ax.SAME, a0, a1),
    axiom(ax.DIFFERENT, a0, a1),
    axiom(ax.SUB_ROLE, R0, R1),
    axiom(ax.INV_ROLE, R0, R1),
    axiom(ax.ROLE_CHAIN, R0, R1, gen("R2")),
    axiom(ax.DIS_ROLE, R0, R1),
    axiom(ax.IRR_ROLE, R0),
    axiom(ax.EVAL_SUB_CLASS, A0, gen("TeamCtx"), A1),
    axiom(ax.EVAL_SUB_CLASS, A0, c0, A1, nominal_ctx=True),
    axiom(ax.EVAL_SUB_ROLE, R0, gen("TeamCtx"), R1),
    axiom(ax.EVAL_SUB_ROLE, R0, c0, R1, nominal_ctx=True),
]


def test_axiom_arity_checked():
    with pytest.raises(ValueError):
        axiom(ax.SUB_CLASS, A0)
    with pytest.raises(ValueError):
        axiom("NoSuchShape", A0)
    with pytest.raises(ValueError):
        axiom(ax.SUB_CLASS, A0, A1, nominal_ctx=True)


def test_parse_subclass_triple():
    d = trig(":m0 { :A0 rdfs:subClassOf :A1 . }")
    assert parse_axioms(d, G) == {axiom(ax.SUB_CLASS, A0, A1)}


def test_parse_concept_assertion():
    d = trig(":m0 { :a0 a :A0 . }")
    assert parse_axioms(d, G) == {axiom(ax.CONCEPT_ASSERT, A0, a0)}


def test_parse_eval_inclusion_with_nominal():
    # the knowledge-propagation shape: members of D0 over in {c1}, into D1
    d = trig(
        ":m0 { [ ckr:evalOf :D0 ; ckr:evalIn [ owl:oneOf ( :c1 ) ] ] "
        "rdfs:subClassOf :D1 . }"
    )
    assert parse_axioms(d, G) == {
        axiom(ax.EVAL_SUB_CLASS, gen("D0"), gen("c1"), gen("D1"), nominal_ctx=True)
    }


def test_encode_irreflexive_role():
    assert encode_axiom(axiom(ax.IRR_ROLE, R0), BlankMinter()) == [
        (R0, RDF_TYPE, OWL_IRREFLEXIVEPROPERTY)
    ]


@pytest.mark.parametrize("sample", ALL_SHAPE_SAMPLES, ids=lambda s: s.shape + ("*" if s.nominal_ctx else ""))
def test_encode_parse_round_trip_each_shape(sample):
    d = Dataset()
    encode_axioms(d, G, [sample], BlankMinter())
    assert parse_axioms(d, G) == {sample}


def test_round_trip_all_shapes_in_one_graph_through_text():
    d = Dataset()
    encode_axioms(d, G, ALL_SHAPE_SAMPLES, BlankMinter())
    reloaded = load_dataset(write_dataset(d))
    assert parse_axioms(reloaded, G) == set(ALL_SHAPE_SAMPLES)


@pytest.mark.parametrize(
    "mint, digest",
    [
        (BlankMinter(), "8b2990b25f225aed05b90e8acc0b33f15bc30aa7dd9e7d6574112b9c39247aee"),
        (
            skolem_minter("probe"),
            "6eccacfcf28f79deda1490eb84c2b55a7cd5678e2573b506e09f7c3dd1795c83",
        ),
    ],
    ids=["blank", "skolem"],
)
def test_encoded_bytes_are_pinned(mint, digest):
    # The round trips cannot see a swap in the order auxiliary nodes are
    # minted; blank labels and skolem IRIs in the written bytes can.
    d = Dataset()
    encode_axioms(d, G, ALL_SHAPE_SAMPLES, mint)
    assert hashlib.sha256(write_dataset(d)).hexdigest() == digest


@pytest.mark.parametrize(
    "body, expected",
    [
        (
            "[ owl:onProperty :R0 ; owl:someValuesFrom :A0 ] rdfs:subClassOf :A1 .",
            axiom(ax.SUB_EX, R0, A0, A1),
        ),
        (
            "[ a owl:Restriction , owl:Class ; owl:onProperty :R0 ; "
            "owl:someValuesFrom :A0 ] rdfs:subClassOf :A1 .",
            axiom(ax.SUB_EX, R0, A0, A1),
        ),
        (
            ":A0 rdfs:subClassOf [ a owl:Restriction ; owl:onProperty :R0 ; "
            "owl:maxQualifiedCardinality 1 ; owl:onClass :A1 ] .",
            axiom(ax.SUP_MAX1, A0, R0, A1),
        ),
        (
            ":n0 a owl:NegativePropertyAssertion ; owl:sourceIndividual :a0 ; "
            "owl:assertionProperty :R0 ; owl:targetIndividual :a1 .",
            axiom(ax.NEG_ROLE_ASSERT, R0, a0, a1),
        ),
    ],
    ids=["untyped-restriction", "restriction-and-class", "integer-cardinality", "named-npa"],
)
def test_hand_authored_readings(body, expected):
    warnings: list[str] = []
    assert parse_axioms(trig(f":m0 {{ {body} }}"), G, warnings) == {expected}
    assert warnings == []


@pytest.mark.parametrize(
    "body, expected",
    [
        (":A0 rdfs:subClassOf [ owl:complementOf :A2 , :A1 ] .",
         axiom(ax.SUB_CLASS_NEG, A0, A1)),
        (":A0 rdfs:subClassOf [ owl:onProperty :R0 ; owl:allValuesFrom :A2 , :A1 ] .",
         axiom(ax.SUP_ALL, A0, R0, A1)),
        ("[ ckr:evalOf :A2 , :A1 ; ckr:evalIn :c0 ] rdfs:subClassOf :A0 .",
         axiom(ax.EVAL_SUB_CLASS, A1, c0, A0)),
    ],
    ids=["complement", "all-values", "eval-of"],
)
def test_repeated_component_reads_the_least_in_any_insertion_order(body, expected):
    # the components come in reverse term order; the reading must not
    # depend on the order the quads were inserted in
    d = trig(f":m0 {{ {body} }}")
    backwards = Dataset(reversed(list(d)))
    for dataset in (d, backwards, load_dataset(write_dataset(d))):
        warnings: list[str] = []
        assert parse_axioms(dataset, G, warnings) == {expected}
        assert len(warnings) == 1 and warnings[0].startswith("dangling")


def test_skolem_encoding_round_trips():
    sample = axiom(ax.NEG_ROLE_ASSERT, R0, a0, a1)
    d = Dataset()
    encode_axioms(d, G, [sample], skolem_minter("probe"))
    assert parse_axioms(d, G) == {sample}
    # deterministic: the same key mints the same nodes
    d2 = Dataset()
    encode_axioms(d2, G, [sample], skolem_minter("probe"))
    assert d == d2


def test_restriction_missing_on_property():
    d = trig(":m0 { :A0 rdfs:subClassOf [ owl:hasValue :a0 ] . }")
    with pytest.raises(EncodingError, match="onProperty"):
        parse_axioms(d, G)


def test_cardinality_other_than_one():
    d = trig(
        ':m0 { :A0 rdfs:subClassOf [ owl:onProperty :R0 ; '
        'owl:maxQualifiedCardinality "2"^^xsd:nonNegativeInteger ; '
        "owl:onClass :A1 ] . }"
    )
    with pytest.raises(EncodingError, match="cardinality"):
        parse_axioms(d, G)


def test_eval_missing_component():
    d = trig(":m0 { [ ckr:evalOf :D0 ] rdfs:subClassOf :D1 . }")
    with pytest.raises(EncodingError, match="eval"):
        parse_axioms(d, G)


def test_negative_assertion_missing_component():
    d = trig(
        ":m0 { [ a owl:NegativePropertyAssertion ; owl:sourceIndividual :a0 ; "
        "owl:assertionProperty :R0 ] . }"
    )
    with pytest.raises(EncodingError, match="missing a component"):
        parse_axioms(d, G)


def test_unrecognized_reserved_triple_warns():
    d = trig(":m0 { :R0 rdfs:domain :A0 . }")
    warnings: list[str] = []
    assert parse_axioms(d, G, warnings) == set()
    assert any("rdfs" in w or "unrecognized" in w for w in warnings)


def test_reserved_name_warnings_come_in_decode_order():
    # Four axioms that name reserved vocabulary, and a decoder warning that
    # precedes theirs; each fresh process must log the same list.
    text = PREAMBLE + """:m0 {
      :S owl:inverseOf rdf:value .
      :R rdfs:subPropertyOf owl:topObjectProperty .
      :B rdfs:subClassOf owl:Thing .
      :A rdfs:subClassOf rdfs:Resource .
      :R2 owl:propertyChainAxiom ( :R0 :R1 :R0 ) .
    }"""
    script = (
        "from ckrbench.model.encoding import parse_axioms\n"
        "from ckrbench.rdf.terms import iri\n"
        "from ckrbench.rdf.trig import load_dataset\n"
        "warnings = []\n"
        f"parse_axioms(load_dataset({text!r}), iri({G.lexical!r}), warnings)\n"
        "print('\\n'.join(warnings))\n"
    )
    runs = [run_python(script).splitlines() for _ in range(3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert "property chain" in runs[0][0]
    reserved = [w for w in runs[0] if w.startswith("reserved vocabulary")]
    assert runs[0][-4:] == reserved
    expected = [("SubClass", "B"), ("SubClass", "A"), ("SubRole", "R"), ("InvRole", "S")]
    for warning, (shape, name) in zip(reserved, expected):
        assert f" in {shape}({gen(name)!r}, " in warning


def test_long_property_chain_warns_and_is_inert():
    d = trig(":m0 { :R2 owl:propertyChainAxiom ( :R0 :R1 :R0 ) . }")
    warnings: list[str] = []
    assert parse_axioms(d, G, warnings) == set()
    assert any("chain" in w for w in warnings)


def test_plain_data_triples_become_assertions():
    d = trig(":m0 { :a0 :R0 :a1 . :a0 :R0 5 . }")
    warnings: list[str] = []
    parsed = parse_axioms(d, G, warnings)
    # IRI objects are role assertions; literal objects stay inert
    assert parsed == {axiom(ax.ROLE_ASSERT, R0, a0, a1)}
    assert warnings == []


def test_meta_extension_triples_are_inert():
    d = trig(":m0 { :c0 ckr:hasAttribute :t0 . }")
    assert parse_axioms(d, G) == set()


def test_encode_into_named_graph_counts():
    d = Dataset()
    added = encode_axioms(d, G, [axiom(ax.SUB_CLASS, A0, A1)], BlankMinter())
    assert added == 1
    assert Quad(A0, gen("x"), A1, G) not in d


@pytest.mark.parametrize(
    "body, message",
    [
        ("[ owl:intersectionOf :A0 ] rdfs:subClassOf :A2 .", "broken owl:intersectionOf list"),
        (
            "[ ckr:evalOf :D0 ; ckr:evalIn [ owl:oneOf ( :c1 :c2 ) ] ] rdfs:subClassOf :D1 .",
            "eval nominal must enumerate exactly one context",
        ),
    ],
    ids=["broken-intersection-list", "two-context-nominal"],
)
def test_malformed_class_expression_is_an_error(body, message):
    with pytest.raises(EncodingError, match=message):
        parse_axioms(trig(f":m0 {{ {body} }}"), G)


@pytest.mark.parametrize(
    "body, first, dangling",
    [
        (
            "[ owl:intersectionOf ( :A0 :A1 :A2 ) ] rdfs:subClassOf :A3 .",
            "intersection at _:genid0 is not a binary normal form",
            {"first", "rest", "intersectionOf"},
        ),
        (
            ":R2 owl:propertyChainAxiom :R0 .",
            f"broken owl:propertyChainAxiom list at {gen('R2')!r}",
            set(),
        ),
        (
            "[ a owl:Restriction ; owl:onProperty :R0 ; owl:hasValue :a0 ] .",
            "dangling restriction node _:genid0",
            {"onProperty", "hasValue"},
        ),
    ],
    ids=["three-item-intersection", "broken-chain-list", "unlinked-restriction"],
)
def test_unsupported_encoding_warns_and_is_inert(body, first, dangling):
    warnings: list[str] = []
    assert parse_axioms(trig(f":m0 {{ {body} }}"), G, warnings) == set()
    assert warnings[0] == first
    assert {w.split()[1] for w in warnings[1:]} == dangling
    assert all(w.startswith("dangling ") for w in warnings[1:])

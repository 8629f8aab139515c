"""Terms, quads and the named-graph store."""
import pytest

from ckrbench.namespaces import XSD_INTEGER, XSD_STRING
from ckrbench.rdf.dataset import Dataset, Quad
from ckrbench.rdf.terms import TermTable, blank, iri, literal
from ckrbench.rdf.trig import load_dataset
from util import gen, random_dataset, run_python


def test_term_equality_and_interning():
    assert iri("http://x.test/a") is iri("http://x.test/a")
    assert literal("5") == literal("5")
    assert literal("5").datatype.endswith("#string")
    assert literal("5", "http://www.w3.org/2001/XMLSchema#integer") != literal("5")


def test_invalid_iri_rejected():
    with pytest.raises(ValueError):
        iri("no-scheme-here")
    with pytest.raises(ValueError):
        iri("http://x.test/with space")


def test_invalid_blank_label_rejected():
    for label in ("a b", "", "a."):
        with pytest.raises(ValueError):
            blank(label)


def test_terms_of_all_kinds_sort_without_a_key():
    (tagged,) = load_dataset('<http://x.test/s> <http://x.test/p> "5"@en .')
    lang = tagged.o
    terms = [
        literal("http://x.test/v"),
        lang,
        literal("5", XSD_STRING),
        literal("5", XSD_INTEGER),
        iri("http://x.test/v"),
        blank("v"),
    ]
    # (kind, lexical, datatype): kinds blank < iri < literal; then lexical
    # form; then datatype, where ".../1999/02/22-rdf-syntax-ns#langString@en"
    # < ".../2001/XMLSchema#integer" < ".../2001/XMLSchema#string".
    expected = [
        blank("v"),
        iri("http://x.test/v"),
        lang,
        literal("5", XSD_INTEGER),
        literal("5", XSD_STRING),
        literal("http://x.test/v"),
    ]
    assert sorted(terms) == expected
    assert sorted(reversed(expected)) == expected


def test_term_table_dense_ids():
    table = TermTable()
    a, b = gen("a"), gen("b")
    assert table.intern(a) == 0
    assert table.intern(b) == 1
    assert table.intern(a) == 0
    assert table.term(1) == b
    assert len(table) == 2


def q(s, p, o, g="gq") -> Quad:
    return Quad(gen(s), gen(p), gen(o), gen(g))


def test_add_quads_counts_and_idempotence():
    d = Dataset()
    fresh = [q("s", "p", f"o{i}") for i in range(5)]
    assert d.add_quads(fresh) == 5
    # inserting an already-present quad
    assert d.add_quads([fresh[0]]) == 0
    # duplicate inside the input collection counts once
    q1, q2 = q("x", "p", "y"), q("x", "p", "z")
    assert d.add_quads([q1, q1, q2]) == 2
    assert len(d) == 7
    # set semantics: a second identical batch inserts nothing
    assert d.add_quads(fresh + [q1, q2]) == 0


def test_quad_validation():
    with pytest.raises(ValueError):
        Dataset().add(Quad(gen("s"), literal("p"), gen("o"), gen("g")))
    with pytest.raises(ValueError):
        Dataset().add(Quad(literal("s"), gen("p"), gen("o"), gen("g")))
    with pytest.raises(ValueError):
        Dataset().add(Quad(gen("s"), gen("p"), gen("o"), literal("g")))


def test_graph_names_and_sizes():
    d = Dataset()
    d.add(q("s", "p", "o", "g1"))
    d.declare_graph(gen("empty"))
    assert gen("empty") in d.graph_names()
    assert len(d.graph(gen("g1"))) == 1
    assert len(d.graph(gen("empty"))) == 0
    assert d.has_graph(gen("empty"))


def test_graph_names_come_in_first_appearance_order():
    d = Dataset([q("s", "p", "o", "g2"), q("s", "p", "o", "g1")])
    d.declare_graph(gen("g0"))
    d.add(q("t", "p", "o", "g2"))
    assert d.graph_names() == [gen("g2"), gen("g1"), gen("g0")]


def test_copy_is_independent_and_keeps_declared_graphs():
    source = random_dataset(5, 300)
    source.declare_graph(gen("empty"))
    g = gen("g1")
    copy = source.copy()
    assert copy == source
    assert copy.graph_names() == source.graph_names()
    assert copy.has_graph(gen("empty")) and len(copy.graph(gen("empty"))) == 0
    assert set(copy.graph(g)) == set(source.graph(g))

    before = (len(source), source.graph(g), len(source.graph(g)))
    assert copy.add(q("new-s", "p", "o", "g1"))
    assert (len(source), source.graph(g), len(source.graph(g))) == before
    assert len(copy) == before[0] + 1 and len(copy.graph(g)) == before[2] + 1

    after = (len(copy), copy.graph(g), len(copy.graph(g)))
    assert source.add(q("other-s", "p", "o", "g1"))
    assert (len(copy), copy.graph(g), len(copy.graph(g))) == after
    source.declare_graph(gen("later"))
    assert not copy.has_graph(gen("later"))


def test_graph_keeps_first_insertion_order():
    d = Dataset()
    quads = [q(f"s{i}", "p", "o") for i in (3, 1, 2)]
    d.add_quads([quads[0], quads[1], quads[0], quads[2], quads[1]])
    assert d.graph(gen("gq")) == quads
    assert d.copy().graph(gen("gq")) == quads


def test_equality_ignores_declared_empty_graphs():
    d, e = Dataset([q("s", "p", "o")]), Dataset([q("s", "p", "o")])
    d.declare_graph(gen("empty"))
    assert d == e and e == d
    assert d != Dataset()


def test_contains_is_false_for_a_missing_graph():
    d = Dataset([q("s", "p", "o", "g1")])
    assert q("s", "p", "o", "g1") in d
    assert q("s", "p", "o", "g2") not in d


# graphs interleaved and out of term order, a literal object in each
_ORDER_SCRIPT = """
from ckrbench.rdf.dataset import Dataset, Quad
from ckrbench.rdf.terms import iri, literal
n = lambda x: iri("http://x.test/" + x)
d = Dataset()
for s, g in [("s2", "g2"), ("s1", "g1"), ("s0", "g2"), ("s3", "g1"), ("s2", "g2")]:
    d.add(Quad(n(s), n("p"), literal(s), n(g)))
print(" ".join(q.s.lexical[-2:] + q.g.lexical[-2:] for q in d))
"""


def test_iteration_is_graph_by_graph_in_insertion_order():
    runs = [run_python(_ORDER_SCRIPT) for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0] == "s2g2 s0g2 s1g1 s3g1\n"

"""TriG reading, writing and the round-trip contract."""
import hashlib
import random

import pytest

from ckrbench.errors import AssemblyError, ParseError
from ckrbench.model.repository import assemble_repository
from ckrbench.namespaces import GLOBAL_GRAPH, XSD_INTEGER
from ckrbench.rdf.dataset import Dataset, Quad
from ckrbench.rdf.terms import blank, iri, literal
from ckrbench.rdf.trig import load_dataset, load_path, write_dataset, write_path
from util import PREAMBLE, gen, random_dataset, trig


def test_empty_document():
    assert len(load_dataset("")) == 0
    assert len(load_dataset(PREAMBLE)) == 0


def test_single_graph_block():
    d = trig(":m0 { :a0 a :A0 . }")
    assert len(d) == 1
    quad = next(iter(d))
    assert quad.g == gen("m0")
    assert quad.s == gen("a0")
    assert quad.o == gen("A0")


def test_default_graph_is_global():
    d = trig(":a0 :R0 :a1 .")
    assert next(iter(d)).g == GLOBAL_GRAPH


def test_graph_keyword_and_empty_graph():
    d = trig("GRAPH :m1 { :a :p :b . } :m2 { }")
    assert len(d.graph(gen("m1"))) == 1
    assert d.has_graph(gen("m2"))
    assert len(d.graph(gen("m2"))) == 0


def test_object_and_predicate_lists():
    d = trig(":s :p :a , :b ; :q :c .")
    assert len(d) == 3
    assert len([q for q in d if q.s == gen("s") and q.p == gen("p")]) == 2


def test_literals_and_escapes():
    d = trig(
        ':s :p "plain" , "t\\tab" , 5 , 2.5 , true , "typed"^^xsd:integer , "tagged"@en-GB .'
    )
    objects = {q.o for q in d}
    assert literal("plain") in objects
    assert literal("t\tab") in objects
    assert literal("5", XSD_INTEGER) in objects
    assert literal("typed", XSD_INTEGER) in objects
    assert any(o.datatype and o.datatype.endswith("langString@en-gb") for o in objects)
    assert len(d) == 7


def test_collections_and_anonymous_nodes():
    d = trig(":s :p ( :a :b ) . :t :q [ :r :u ] .")
    rdf_first = iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#first")
    firsts = [q for q in d if q.p == rdf_first]
    assert {q.o for q in firsts} == {gen("a"), gen("b")}
    inner = [q for q in d if q.p == gen("r")]
    assert len(inner) == 1 and inner[0].s.kind == "blank"


def test_comments_ignored():
    d = trig("# leading comment\n:s :p :o . # trailing\n")
    assert len(d) == 1


def test_empty_collection_is_nil():
    d = trig(":s :p ( ) .")
    assert next(iter(d)).o == iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#nil")


def test_long_string_round_trip():
    d = trig(':s :p """line one\nline "two"\n""" .')
    again = load_dataset(write_dataset(d))
    assert again == d
    assert next(iter(d)).o.lexical == 'line one\nline "two"\n'


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        load_dataset(PREAMBLE + ":s :p .")
    assert (err.value.line, err.value.column) == (7, 7)


@pytest.mark.parametrize(
    "body, line, column",
    [
        # an unexpected character after a literal spanning two lines
        (':s :p """line one\nline two""" ; ! .', 8, 15),
        # the end of a document without a trailing newline
        (":a :p :b .\n:s :p :o", 8, 9),
    ],
    ids=["after-multiline-literal", "end-without-newline"],
)
def test_syntax_error_position_is_exact(body, line, column):
    with pytest.raises(ParseError) as err:
        load_dataset(PREAMBLE + body)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "body, message, line, column",
    [
        # errors come in document order: the missing object is reported
        # before the unexpected character on the next line
        (":s :p .\n:a ! :b .", "expected object, found '.'", 7, 7),
        # no subject can be a literal, and no graph name a blank node
        ('"lit" :p :o .', "expected subject, found '\"lit\"'", 7, 1),
        ("_:b { :s :p :o . }", "expected predicate, found '{'", 7, 5),
        # a SPARQL-style prefix name is checked like an @prefix one
        ("PREFIX ex:a <http://x.test/>\nex:s ex:p ex:o .", "malformed prefix declaration", 7, 8),
        (':s :p "\\q" .', "invalid escape sequence \\q", 7, 7),
        # an IRI escape must name a character that an IRI may hold, and an
        # IRI takes no escape but \u and \U
        (":s :p <http://x.test/a\\u0020> .", "invalid IRI <http://x.test/a >", 7, 7),
        (":s :p <http://x.test/a\\n> .", "unexpected character '<'", 7, 7),
    ],
    ids=[
        "document-order",
        "literal-subject",
        "blank-graph-name",
        "sparql-prefix-name",
        "invalid-string-escape",
        "iri-escape-to-space",
        "iri-character-escape",
    ],
)
def test_grammar_error_message_and_position(body, message, line, column):
    with pytest.raises(ParseError) as err:
        load_dataset(PREAMBLE + body)
    assert str(err.value) == f"{message} (line {line}, column {column})"


@pytest.mark.parametrize(
    "body, escape, column",
    [
        (':s :p "a\\U00110000" .', "\\U00110000", 7),
        (':s :p """a\\U00110000""" .', "\\U00110000", 7),
        (':s :p :o , "\\uD800" .', "\\uD800", 12),
        (':s :p "\\udfff" .', "\\udfff", 7),
    ],
    ids=["beyond-max", "beyond-max-long-string", "high-surrogate", "low-surrogate"],
)
def test_code_point_escape_that_utf8_cannot_encode_fails_to_parse(body, escape, column):
    with pytest.raises(ParseError) as err:
        load_dataset(PREAMBLE + body)
    assert str(err.value) == f"invalid code point escape {escape} (line 7, column {column})"


def test_highest_code_point_escape_round_trips():
    d = trig(':s :p "\\U0010FFFF\\uD7FF\\uE000" .')
    assert next(iter(d)).o == literal("\U0010ffff\ud7ff\ue000")
    assert load_dataset(write_dataset(d)) == d


@pytest.mark.parametrize("escape", ["\\u0041", "\\U00000041"])
def test_iri_code_point_escape_reads_as_its_character(escape):
    d = trig(f":s :p <http://x.test/a{escape}> .")
    assert next(iter(d)).o == iri("http://x.test/aA")
    assert load_dataset(write_dataset(d)) == d


@pytest.mark.parametrize(
    "repeated, single, count",
    [
        (':m0 { :a :p "x" ;; :q :r ; ; }', ':m0 { :a :p "x" ; :q :r }', 2),
        (":a :p [ :q :r ;; :s :t ;; ] .", ":a :p [ :q :r ; :s :t ] .", 3),
    ],
    ids=["graph-block", "blank-node-property-list"],
)
def test_repeated_semicolons_read_as_one(repeated, single, count):
    d = trig(repeated)
    assert d == trig(single) and len(d) == count


def test_relative_iris_resolve_against_the_latest_base():
    d = load_dataset(
        "@base <http://x.test/dir/> .\n<a> <p> <../b> .\n"
        "BASE <http://y.test/>\n<c> <p> <d> ."
    )
    x, y = "http://x.test/", "http://y.test/"
    assert set(d) == {
        Quad(iri(x + "dir/a"), iri(x + "dir/p"), iri(x + "b"), GLOBAL_GRAPH),
        Quad(iri(y + "c"), iri(y + "p"), iri(y + "d"), GLOBAL_GRAPH),
    }


def test_empty_anonymous_nodes_as_objects_are_distinct():
    d = trig(":s :p [] , [] .")
    objects = {q.o for q in d}
    assert len(objects) == 2 and all(o.kind == "blank" for o in objects)


def test_fresh_blank_label_avoids_a_label_written_later():
    d = trig(":s :p [ :q :o ] . _:genid0 :r :t .")
    (inner,) = [q for q in d if q.p == gen("q")]
    (later,) = [q for q in d if q.p == gen("r")]
    assert later.s == blank("genid0")
    assert inner.s.kind == "blank" and inner.s != later.s
    assert [q for q in d if q.s == gen("s")] == [Quad(gen("s"), gen("p"), inner.s, GLOBAL_GRAPH)]


def test_undefined_prefix():
    with pytest.raises(ParseError, match="undefined prefix 'nope:'"):
        load_dataset(PREAMBLE + ":s nope:p :o .")


def test_invalid_iri():
    with pytest.raises(ParseError, match="invalid IRI"):
        load_dataset("<relative> <http://x.test/p> <http://x.test/o> .")


def test_blank_node_shared_between_modules_loads_and_fails_assembly():
    # TriG scopes a blank label to the whole document; that modules may not
    # share blank nodes is a rule of the repository, checked in assembly
    doc = PREAMBLE + ":m0 { _:x a :A0 . } :m1 { _:x a :A1 . }"
    d = load_dataset(doc)
    assert {q.s for q in d} == {blank("x")}
    with pytest.raises(AssemblyError, match="modules may not share blank nodes"):
        assemble_repository(d)


def test_blank_node_shared_with_inference_graph_allowed():
    doc = PREAMBLE + ":m0 { _:x a :A0 . } :m0-inf { _:x a :A1 . }"
    assert len(load_dataset(doc)) == 2


def test_ttl_path_is_read_as_trig(tmp_path):
    # a Turtle file name does not change the syntax: graph blocks load
    path = tmp_path / "blocks.ttl"
    path.write_text(PREAMBLE + ":a :p :b . :m0 { :c :p :d . }")
    d = load_path(str(path))
    assert d == trig(":a :p :b . :m0 { :c :p :d . }")
    assert len(d.graph(GLOBAL_GRAPH)) == 1 and len(d.graph(gen("m0"))) == 1


def test_write_empty_dataset_is_header_only():
    out = write_dataset(random_dataset(0, 0)).decode()
    assert "@prefix" in out
    assert len(load_dataset(out)) == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_round_trip_random_dataset(seed):
    d = random_dataset(seed, 1000)
    assert load_dataset(write_dataset(d)) == d


def test_round_trip_with_blank_nodes():
    d = trig(":m0 { _:b0 :p :o . _:b0 a :A0 . [ :q _:b0 ] a :B0 . }")
    again = load_dataset(write_dataset(d))
    assert len(again) == len(d)
    # safe labels are preserved verbatim
    assert Quad(blank("b0"), gen("p"), gen("o"), gen("m0")) in again


def test_round_trip_with_a_blank_node_shared_between_graphs():
    shared = blank("shared")
    d = random_dataset(4, 200)
    d.add_quads([
        Quad(shared, gen("p"), gen("o"), gen("m0")),
        Quad(gen("s"), gen("p"), shared, gen("m1")),
    ])
    assert load_dataset(write_dataset(d)) == d


def test_dotted_and_dashed_blank_labels_round_trip_verbatim():
    d = trig(":m0 { _:a.b :p _:x-1 . _:x-1 a :A0 . }")
    again = load_dataset(write_dataset(d))
    assert again == d
    assert Quad(blank("a.b"), gen("p"), blank("x-1"), gen("m0")) in again


def test_write_is_deterministic():
    a = write_dataset(random_dataset(4, 800))
    b = write_dataset(random_dataset(4, 800))
    assert a == b


@pytest.mark.parametrize("seed", [0, 1])
def test_write_bytes_ignore_insertion_order(seed):
    # the same quads and graphs: once each quad shuffled, once graph by
    # graph with the graphs reversed, a declared empty graph among them
    d = random_dataset(seed, 1000)
    d.declare_graph(gen("empty"))
    shuffled = Dataset()
    shuffled.declare_graph(gen("empty"))
    shuffled.add_quads(random.Random(seed).sample(list(d), len(d)))
    by_graph = Dataset()
    for g in reversed(d.graph_names()):
        by_graph.declare_graph(g)
        by_graph.add_quads(d.graph(g))
    assert by_graph.graph_names() != d.graph_names()
    assert write_dataset(shuffled) == write_dataset(d)
    assert write_dataset(by_graph) == write_dataset(d)


def test_write_bytes_are_pinned():
    out = write_dataset(random_dataset(7, 2000))
    assert len(out) == 33_202
    assert hashlib.sha256(out).hexdigest() == (
        "34776f588e35b50b0b538d79d0a4015623aeec1835724dea8309f0cc9ab7c7ed"
    )


def test_write_short_forms():
    # a namespace IRI as a bare prefix name, a boolean as a bare keyword, a
    # language tag in lower case
    d = trig(':s :p owl: , true , "tagged"@en-GB .')
    assert '    :s :p owl:, "tagged"@en-gb, true .' in write_dataset(d).decode().splitlines()
    assert load_dataset(write_dataset(d)) == d


def test_multi_graph_writing_one_block_per_graph():
    d = trig(":m0 { :a :p :b . } :m1 { :c :p :d . }")
    out = write_dataset(d).decode()
    assert ":m0 {" in out and ":m1 {" in out
    assert load_dataset(out) == d


def test_failed_write_leaves_the_file_as_it_was(tmp_path, monkeypatch):
    path = tmp_path / "kept.trig"
    path.write_bytes(b"old bytes")

    def fail(self):
        raise RuntimeError("serialization failed")

    monkeypatch.setattr("ckrbench.rdf.trig._Writer.trig", fail)
    with pytest.raises(RuntimeError, match="serialization failed"):
        write_path(trig(":a :p :b ."), str(path))
    assert path.read_bytes() == b"old bytes"

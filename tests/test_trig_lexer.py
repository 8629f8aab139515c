"""Token boundaries of the TriG reader, and writer output that must not depend
on how its terms were made."""
import pytest

from ckrbench.errors import ParseError
from ckrbench.namespaces import (
    GLOBAL_GRAPH,
    RDF_NS,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
)
from ckrbench.rdf.dataset import Dataset, Quad
from ckrbench.rdf.terms import Term, blank, iri, literal
from ckrbench.rdf.trig import load_dataset, write_dataset
from util import PREAMBLE, gen, random_dataset, trig

S, P = gen("s"), gen("p")


def _global(*objects):
    return {Quad(S, P, o, GLOBAL_GRAPH) for o in objects}


@pytest.mark.parametrize(
    "body, quads",
    [
        # a local name keeps its inner dots; a dot before the end is the
        # statement's
        (":s :p :a.b.", _global(gen("a.b"))),
        (":s :p :a..b .", _global(gen("a..b"))),
        # percent escapes stay as they are; '-' and '_' inside names
        (":s :p :a%41b , :%41 .", _global(gen("a%41b"), gen("%41"))),
        (":s :p :a-b_c , :_x- .", _global(gen("a-b_c"), gen("_x-"))),
        # blank labels follow the same rule
        (":s :p _:a.b , _:a- , _:a.", _global(blank("a.b"), blank("a-"), blank("a"))),
        # numerics as the last object of a statement
        (":s :p .5 .", _global(literal(".5", XSD_DECIMAL))),
        (":s :p 5.", _global(literal("5", XSD_INTEGER))),
        (":s :p -1.5e3.", _global(literal("-1.5e3", XSD_DOUBLE))),
        (":s :p +7.", _global(literal("+7", XSD_INTEGER))),
        (":s :p 5 , .5 , 5.5.", _global(
            literal("5", XSD_INTEGER), literal(".5", XSD_DECIMAL), literal("5.5", XSD_DECIMAL)
        )),
        # a directive keyword is not a language tag, nor the reverse
        (
            '@prefix ex: <http://x.test/> .\n:s :p "v"@en-GB , "w"@prefixed , ex:o .',
            _global(
                literal("v", RDF_NS + "langString@en-gb"),
                literal("w", RDF_NS + "langString@prefixed"),
                iri("http://x.test/o"),
            ),
        ),
        # comments end at a newline or at the end of the document
        (":m0 { :s :p :o . # before the brace\n}", {Quad(S, P, gen("o"), gen("m0"))}),
        (":s :p :o . # the end, without a newline", _global(gen("o"))),
        (":s :p :o .#\n#\n", _global(gen("o"))),
    ],
    ids=[
        "local-name-inner-dot",
        "local-name-dot-run",
        "percent-escape",
        "dash-and-underscore",
        "blank-labels",
        "decimal-without-integer-part",
        "integer-before-dot",
        "double-before-dot",
        "signed-integer-before-dot",
        "object-list-of-numerics",
        "prefix-against-language-tag",
        "comment-before-brace",
        "comment-at-eof",
        "empty-comments",
    ],
)
def test_token_boundaries(body, quads):
    assert set(trig(body)) == quads


@pytest.mark.parametrize(
    "body, line, column",
    [
        ("# a comment line\n! .", 8, 1),
        (":s :p :o .   \t! .", 7, 15),
        (":s :p :o . # comment\n  ! .", 8, 3),
    ],
    ids=["after-comment-line", "after-trailing-spaces", "indented-after-comment"],
)
def test_unexpected_character_position(body, line, column):
    with pytest.raises(ParseError) as err:
        load_dataset(PREAMBLE + body)
    assert str(err.value) == f"unexpected character '!' (line {line}, column {column})"


def test_prefix_redefinition_changes_later_names():
    d = load_dataset(
        "@prefix ex: <http://x.test/> .\nex:s ex:p ex:o .\n"
        "@prefix ex: <http://y.test/> .\nex:s ex:p ex:o .\n"
        "PREFIX ex: <http://z.test/>\nex:s ex:p ex:o .\n"
    )
    assert {q.s.lexical for q in d} == {
        "http://x.test/s", "http://y.test/s", "http://z.test/s"
    }


def test_blank_label_seen_again_in_another_graph_is_checked():
    # two uses in one graph, one in its inference graph, then one in
    # another module: the last is shared between modules
    body = ":m0 { _:x :p :o . _:x :q :o . } :m0-inf { _:x a :A . } :m1 { :s :p _:x . }"
    with pytest.raises(ParseError, match="shared between graphs") as err:
        load_dataset(PREAMBLE + body)
    assert (err.value.line, err.value.column) == (7, body.rindex("_:x") + 1)


def test_writer_compares_terms_by_value():
    d = random_dataset(3, 1500)
    d.add_quads(trig(":m0 { _:b :p :o , [ :q 1 ] . :s a :A , :B . }"))
    # the same quads, their terms new objects made without the
    # constructors' caches
    rebuilt = Dataset(Quad(*(Term(*t) for t in q)) for q in d)
    assert all(a is not b for a, b in zip(next(iter(rebuilt)), next(iter(d))))
    assert write_dataset(rebuilt) == write_dataset(d)
    assert load_dataset(write_dataset(rebuilt)) == d

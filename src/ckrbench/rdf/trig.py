"""TriG reading and writing.

Hand-rolled recursive-descent parser over the regex match stream, one token
of lookahead.  Covers the slice of TriG the repository format uses plus the
usual hand-authoring conveniences: prefix/base directives, graph blocks (with
or without the GRAPH keyword), ``a``, ``;``/``,`` lists, anonymous blank
nodes, collections, numeric/boolean literal shorthand, language tags,
comments.

Not a full W3C implementation; unsupported syntax fails loudly with a line
and column rather than being guessed at.  A blank-node label names one node
in the whole document, as in RDF 1.1 TriG; which graphs may share a node is
a rule of the repository, not of the syntax.

Triples outside graph blocks land in the reserved default graph (the global
context name), so a plain Turtle ontology loads as a repository with only
global knowledge.

The writer is deterministic and the one place that orders RDF: fixed prefix
header, graphs/subjects/objects in ``Term`` order, blank labels as they
are.  Datasets with the same graphs and quads serialize to byte-identical
documents, whatever the order their quads and graphs were inserted in.
"""
from __future__ import annotations

import re
from typing import Iterable, Iterator

from ckrbench.errors import ParseError
from ckrbench.namespaces import (
    GLOBAL_GRAPH,
    RDF_FIRST,
    RDF_NIL,
    RDF_NS,
    RDF_REST,
    RDF_TYPE,
    STANDARD_PREFIXES,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from ckrbench.rdf.dataset import Dataset, Quad
from ckrbench.rdf.terms import BLANK_LABEL, Term, blank, iri, is_valid_iri, literal

_LANG_MARKER = RDF_NS + "langString@"  # language tag folded into the datatype

# PN_LOCAL must not end with '.': a run of dots is taken only when a name
# character follows it, so no part of the loop is ever given back.
_PN_LOCAL = (
    r"(?:[A-Za-z0-9_]|%[0-9A-Fa-f]{2})"
    r"(?:[A-Za-z0-9_\-]+|%[0-9A-Fa-f]{2}|\.+(?=[A-Za-z0-9_\-]|%[0-9A-Fa-f]{2}))*"
)

# An IRI character other than an escape; escapes are UCHARs only, and the
# IRI checks judge the unescaped text.
_IRI_CHAR = r"""[^<>"{}|^`\\\x00-\x20]"""

# One match per token: the whitespace and comments before it, then the token
# in its named group.  A match that holds no token ends the scan, at the end
# of the document or at a character no token starts with.  The commonest
# kinds come first; no other kind starts with what PUNCT, BLANK, PNAME or
# KEYWORD start with, except '.', which starts PUNCT only when no digit
# follows it.  PNAME must precede KEYWORD.
_TOKEN = re.compile(
    r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?:
      (?P<PUNCT>\.(?![0-9])|[;,\[\](){}])
    | (?P<BLANK>_:BLANK_LABEL)
    | (?P<PNAME>(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:PN_LOCAL)?)
    | (?P<KEYWORD>[A-Za-z]+)
    | (?P<IRIREF><IRI_CHAR*(?:\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})IRI_CHAR*)*>)
    | (?P<STRING_LONG>\"\"\"(?:[^"\\]|\\.|\"(?!\"\"))*\"\"\"|'''(?:[^'\\]|\\.|'(?!''))*''')
    | (?P<STRING>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
    | (?P<PREFIX_DIRECTIVE>@prefix\b|@base\b)
    | (?P<LANGTAG>@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
    | (?P<DOUBLE>[+-]?(?:[0-9]+\.[0-9]*|\.?[0-9]+)[eE][+-]?[0-9]+)
    | (?P<DECIMAL>[+-]?[0-9]*\.[0-9]+)
    | (?P<INTEGER>[+-]?[0-9]+)
    | (?P<HATHAT>\^\^)
    )?
    """.replace("PN_LOCAL", _PN_LOCAL)
    .replace("BLANK_LABEL", BLANK_LABEL.pattern)
    .replace("IRI_CHAR", _IRI_CHAR),
    re.VERBOSE,
)

#: The token kind of each named group's number.
_KIND = {number: kind for kind, number in _TOKEN.groupindex.items()}

_STRING_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_UNESCAPE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")


#: ``_:label`` text anywhere in a document, inside comments and strings too.
_LABEL_TEXT = re.compile("_:(" + BLANK_LABEL.pattern + ")")

_NUMERIC = {"INTEGER": XSD_INTEGER, "DECIMAL": XSD_DECIMAL, "DOUBLE": XSD_DOUBLE}

_Lexeme = tuple[str, str, int]  # kind, text, offset into the document


def _error_at(text: str, pos: int, message: str) -> ParseError:
    """A ParseError at a 1-based line and column, counted only when raised."""
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


def _tokenize(text: str) -> Iterator[_Lexeme]:
    """The document's tokens without whitespace and comments, then ``EOF``
    for as long as asked; an unexpected character raises when reached."""
    kinds = _KIND
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group is None:
            break
        yield kinds[group], m.group(group), m.start(group)
    pos = m.end()  # the pattern matches the empty string: some match is last
    if pos < len(text):
        raise _error_at(text, pos, f"unexpected character {text[pos]!r}")
    while True:
        yield "EOF", "", pos


class _Parser:
    """Recursive descent with one token of lookahead, ``self.tok``.

    Punctuation and keywords are recognised by their text alone: no token of
    another kind has the same text.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self._pull = _tokenize(text).__next__
        self.tok = self._pull()
        self.prefixes: dict[str, str] = {}
        self.base: str | None = None
        self.dataset = Dataset()
        self.quads: list[Quad] = []  # inserted in one batch at the end
        # IRI terms by token text, for IRIREF and PNAME tokens; a directive
        # changes what a text means, so each one clears the cache.
        self._iris: dict[str, Term] = {}
        # Blank-node housekeeping: anonymous nodes get labels that avoid every
        # ``_:label`` text of the document, so they cannot take an explicit
        # label written further on.  Those labels are ``genid<n>``, so only a
        # document that writes ``_:genid`` somewhere needs the scan.
        self._explicit_labels = (
            set(_LABEL_TEXT.findall(text)) if "_:genid" in text else set()
        )
        self._anon_counter = 0

    # -- token helpers ----------------------------------------------------

    def _next(self) -> _Lexeme:
        tok = self.tok
        self.tok = self._pull()
        return tok

    def _expect(self, kind: str, value: str | None = None) -> _Lexeme:
        tok = self._next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise self._fail(f"expected {value or kind!r}, found {tok[1]!r}", tok)
        return tok

    def _fail(self, message: str, tok: _Lexeme) -> ParseError:
        return _error_at(self.text, tok[2], message)

    def _unescape(self, raw: str, tok: _Lexeme) -> str:
        def repl(m: re.Match) -> str:
            esc = m.group(1)
            if esc[0] in "uU":
                code = int(esc[1:], 16)
                # a code point that UTF-8 cannot encode: beyond U+10FFFF or
                # a surrogate
                if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                    raise self._fail(f"invalid code point escape \\{esc}", tok)
                return chr(code)
            try:
                return _STRING_ESCAPES[esc]
            except KeyError:
                raise self._fail(f"invalid escape sequence \\{esc}", tok) from None

        return _UNESCAPE.sub(repl, raw)

    # -- document ---------------------------------------------------------

    def parse(self) -> Dataset:
        while self.tok[0] != "EOF":
            kind, value, _ = self.tok
            if kind == "PREFIX_DIRECTIVE" or value in ("PREFIX", "BASE"):
                self._directive()
            elif value == "GRAPH":
                self._next()
                self._graph_block(self._node_or_fail("graph name"))
            else:
                self._block_or_triples()
        self.dataset.add_quads(self.quads)
        return self.dataset

    def _directive(self) -> None:
        """``@prefix``/``@base``, closed by '.', or SPARQL ``PREFIX``/``BASE``."""
        keyword = self._next()[1]
        self._iris.clear()
        if keyword in ("@prefix", "PREFIX"):
            ns = self._expect("PNAME")
            if not ns[1].endswith(":"):
                raise self._fail("malformed prefix declaration", ns)
            self.prefixes[ns[1][:-1]] = self._iri_value(self._expect("IRIREF"))
        else:
            self.base = self._iri_value(self._expect("IRIREF"))
        if keyword[0] == "@":
            self._expect("PUNCT", ".")

    def _block_or_triples(self) -> None:
        if self.tok[0] in ("IRIREF", "PNAME"):
            node = self._iri_term(self._next())
            if self.tok[1] == "{":
                self._graph_block(node)
                return
            self._predicate_object_list(node, GLOBAL_GRAPH)
        else:
            self._triples(GLOBAL_GRAPH)
        self._expect("PUNCT", ".")

    def _graph_block(self, name: Term) -> None:
        self._expect("PUNCT", "{")
        self.dataset.declare_graph(name)
        while self.tok[1] != "}":
            self._triples(name)
            tok = self.tok
            if tok[1] == ".":
                self._next()
            elif tok[1] != "}":
                raise self._fail(f"expected '.' or '}}', found {tok[1]!r}", tok)
        self._next()

    def _node_or_fail(self, what: str) -> Term:
        tok = self._next()
        if tok[0] in ("IRIREF", "PNAME"):
            return self._iri_term(tok)
        raise self._fail(f"expected {what}", tok)

    # -- triples ----------------------------------------------------------

    def _triples(self, graph: Term) -> None:
        if self.tok[1] == "[":
            subject = self._bnode_property_list(self._next(), graph)
            if self.tok[1] not in (".", "}"):
                self._predicate_object_list(subject, graph)
            return
        self._predicate_object_list(self._term(graph, "subject"), graph)

    def _predicate_object_list(self, subject: Term, graph: Term) -> None:
        emit = self.quads.append
        while True:
            verb = self._verb()
            while True:
                emit(Quad(subject, verb, self._term(graph, "object"), graph))
                if self.tok[1] != ",":
                    break
                self._next()
            if self.tok[1] != ";":
                return
            while self.tok[1] == ";":
                self._next()
            # allow trailing ';' before '.', '}' or ']'
            if self.tok[1] in (".", "}", "]"):
                return

    def _verb(self) -> Term:
        tok = self._next()
        if tok[1] == "a":
            return RDF_TYPE
        if tok[0] in ("IRIREF", "PNAME"):
            return self._iri_term(tok)
        raise self._fail(f"expected predicate, found {tok[1]!r}", tok)

    def _term(self, graph: Term, position: str) -> Term:
        tok = self._next()
        kind, value, _ = tok
        if kind in ("IRIREF", "PNAME"):
            return self._iri_term(tok)
        if kind == "BLANK":
            return blank(value[2:])
        if value == "[":
            return self._bnode_property_list(tok, graph)
        if value == "(":
            return self._collection(graph)
        if position == "subject":
            raise self._fail(f"expected subject, found {value!r}", tok)
        if kind in ("STRING", "STRING_LONG"):
            return self._literal(tok)
        if kind in _NUMERIC:
            return literal(value, _NUMERIC[kind])
        if value in ("true", "false"):
            return literal(value, XSD_BOOLEAN)
        raise self._fail(f"expected object, found {value!r}", tok)

    def _literal(self, tok: _Lexeme) -> Term:
        kind, raw, _ = tok
        body = raw[3:-3] if kind == "STRING_LONG" else raw[1:-1]
        value = self._unescape(body, tok)
        if self.tok[0] == "HATHAT":
            self._next()
            return literal(value, self._node_or_fail("datatype IRI").lexical)
        if self.tok[0] == "LANGTAG":
            return literal(value, _LANG_MARKER + self._next()[1][1:].lower())
        return literal(value, XSD_STRING)

    def _bnode_property_list(self, open_tok: _Lexeme, graph: Term) -> Term:
        """The node of a ``[ ... ]`` whose ``[`` is ``open_tok``, already read."""
        node = self._fresh_blank()
        if self.tok[1] == "]":
            self._next()
            return node
        self._predicate_object_list(node, graph)
        if self._next()[1] != "]":
            raise self._fail("unterminated blank node property list", open_tok)
        return node

    def _collection(self, graph: Term) -> Term:
        """The head of a ``( ... )`` whose ``(`` is already read."""
        items: list[Term] = []
        while self.tok[1] != ")":
            items.append(self._term(graph, "object"))
        self._next()
        head: Term = RDF_NIL
        for item in reversed(items):
            cell = self._fresh_blank()
            self.quads.append(Quad(cell, RDF_FIRST, item, graph))
            self.quads.append(Quad(cell, RDF_REST, head, graph))
            head = cell
        return head

    # -- leaf helpers -----------------------------------------------------

    def _iri_value(self, tok: _Lexeme) -> str:
        value = self._unescape(tok[1][1:-1], tok)
        if self.base is not None and not is_valid_iri(value):
            from urllib.parse import urljoin

            value = urljoin(self.base, value)
        if not is_valid_iri(value):
            raise self._fail(f"invalid IRI <{value}>", tok)
        return value

    def _iri_term(self, tok: _Lexeme) -> Term:
        term = self._iris.get(tok[1])
        if term is not None:
            return term
        if tok[0] == "IRIREF":
            term = iri(self._iri_value(tok))
        else:
            prefix, _, local = tok[1].partition(":")
            if prefix not in self.prefixes:
                raise self._fail(f"undefined prefix {prefix + ':'!r}", tok)
            expanded = self.prefixes[prefix] + local
            try:
                term = iri(expanded)
            except ValueError:
                raise self._fail(f"invalid IRI <{expanded}>", tok) from None
        self._iris[tok[1]] = term
        return term

    def _fresh_blank(self) -> Term:
        while True:
            label = f"genid{self._anon_counter}"
            self._anon_counter += 1
            if label not in self._explicit_labels:
                break
        return blank(label)


# ---------------------------------------------------------------------------
# public read API
# ---------------------------------------------------------------------------


def decode_utf8(data: bytes) -> str:
    """The text of UTF-8 bytes, or a ParseError at the first byte that is not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"invalid UTF-8 ({exc.reason})",
            data.count(b"\n", 0, exc.start) + 1,
            len(data[line_start : exc.start].decode("utf-8")) + 1,
        ) from None


def load_dataset(source: str | bytes) -> Dataset:
    """Parse a TriG document into a dataset.

    A Turtle document is TriG without graph blocks: its triples land in the
    reserved default graph.
    """
    text = source if isinstance(source, str) else decode_utf8(source)
    return _Parser(text).parse()


def load_path(path: str) -> Dataset:
    with open(path, "rb") as fh:
        return load_dataset(fh.read())


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

_SAFE_LOCAL = re.compile(r"^[A-Za-z_][A-Za-z0-9_\-]*$")
_LITERAL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


class _Writer:
    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self.prefixes = dict(STANDARD_PREFIXES)
        self._formatted: dict[Term, str] = {}

    def format_term(self, t: Term) -> str:
        text = self._formatted.get(t)
        if text is None:
            if t.kind == "iri":
                text = self._format_iri(t.lexical)
            elif t.kind == "blank":
                text = "_:" + t.lexical
            else:
                text = self._format_literal(t)
            self._formatted[t] = text
        return text

    def _format_iri(self, lexical: str) -> str:
        for prefix, ns in self.prefixes.items():
            if lexical.startswith(ns):
                local = lexical[len(ns) :]
                if local and _SAFE_LOCAL.match(local):
                    return f"{prefix}:{local}"
                if not local and prefix:
                    return f"{prefix}:"
        return f"<{lexical}>"

    def _format_literal(self, t: Term) -> str:
        dt = t.datatype
        if dt == XSD_INTEGER and re.fullmatch(r"[+-]?[0-9]+", t.lexical):
            return t.lexical
        if dt == XSD_BOOLEAN and t.lexical in ("true", "false"):
            return t.lexical
        body = "".join(_LITERAL_ESCAPES.get(ch, ch) for ch in t.lexical)
        if dt == XSD_STRING:
            return f'"{body}"'
        if dt.startswith(_LANG_MARKER):
            return f'"{body}"@{dt[len(_LANG_MARKER):]}'
        return f'"{body}"^^{self._format_iri(dt)}'

    def triple_lines(self, quads: Iterable[Quad]) -> list[str]:
        """One statement per subject, in ``Term`` order of subject, then
        predicate, then object.  The quads are grouped by subject; the
        subjects are sorted once, and so is each subject's group, which one
        pass then writes, opening a predicate when ``p`` changes.  Sorting a
        whole graph instead compares objects through the subject and
        predicate of every quad, which costs most on graphs with few
        subjects.  Terms are compared by value: equal terms need not be one
        object."""
        by_subject: dict[Term, list[Quad]] = {}
        for q in quads:
            group = by_subject.get(q.s)
            if group is None:
                by_subject[q.s] = [q]
            else:
                group.append(q)
        fmt = self.format_term
        lines: list[str] = []
        for s in sorted(by_subject):
            group = by_subject[s]
            if len(group) == 1:  # the common case: no sort, no parts list
                _, p, o, _ = group[0]
                pred = "a" if p == RDF_TYPE else fmt(p)
                lines.append(f"    {fmt(s)} {pred} {fmt(o)} .")
                continue
            group.sort()
            parts = ["    ", fmt(s)]
            p = None
            for _, qp, o, _ in group:
                if qp != p:
                    p = qp
                    parts += (" " if len(parts) == 2 else " ;\n        ",
                              "a" if p == RDF_TYPE else fmt(p), " ", fmt(o))
                else:
                    parts += (", ", fmt(o))
            parts.append(" .")
            lines.append("".join(parts))
        return lines

    def trig(self) -> str:
        lines = [f"@prefix {prefix}: <{ns}> ." for prefix, ns in self.prefixes.items()]
        lines.append("")
        for g in sorted(self.dataset.graph_names()):
            lines.append(f"{self.format_term(g)} {{")
            lines.extend(self.triple_lines(self.dataset.graph(g)))
            lines.append("}")
            lines.append("")
        return "\n".join(lines)


def write_dataset(dataset: Dataset) -> bytes:
    """Serialize a dataset as TriG; output parses back to an equal dataset."""
    return _Writer(dataset).trig().encode("utf-8")


def write_path(dataset: Dataset, path: str) -> None:
    """Write a dataset as TriG; the file is opened only once the bytes are
    ready, so a failed serialization leaves it as it was."""
    data = write_dataset(dataset)
    with open(path, "wb") as fh:
        fh.write(data)

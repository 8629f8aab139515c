"""TriG and Turtle reading and writing.

Hand-rolled recursive-descent parser over a regex tokenizer.  Covers the
slice of TriG the repository format uses plus the usual hand-authoring
conveniences: prefix/base directives, graph blocks (with or without the GRAPH
keyword), ``a``, ``;``/``,`` lists, anonymous blank nodes, collections,
numeric/boolean literal shorthand, language tags, comments.

Not a full W3C implementation; unsupported syntax fails loudly with a line
and column rather than being guessed at.

Triples outside graph blocks land in the reserved default graph (the global
context name), so a plain Turtle ontology loads as a repository with only
global knowledge.

The writer is deterministic: fixed prefix header, graphs/subjects/objects in
``Term`` order, blank labels as they are.  Equal datasets serialize to
byte-identical documents.
"""
from __future__ import annotations

import re
from typing import IO, Iterable

from ckrbench.errors import ParseError, SerializationError
from ckrbench.namespaces import (
    GLOBAL_GRAPH,
    INFERENCE_SUFFIX,
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

# PN_LOCAL must not end with '.', hence the first/mid/last split below.
_PN_LOCAL = (
    r"(?:[A-Za-z0-9_]|%[0-9A-Fa-f]{2})"
    r"(?:(?:[A-Za-z0-9_.\-]|%[0-9A-Fa-f]{2})*(?:[A-Za-z0-9_\-]|%[0-9A-Fa-f]{2}))?"
)

_TOKEN = re.compile(
    r"""
      (?P<WS>[ \t\r\n]+|\#[^\n]*)
    | (?P<IRIREF><[^<>"{}|^`\\\x00-\x20]*>)
    | (?P<STRING_LONG>\"\"\"(?:[^"\\]|\\.|\"(?!\"\"))*\"\"\"|'''(?:[^'\\]|\\.|'(?!''))*''')
    | (?P<STRING>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
    | (?P<BLANK>_:BLANK_LABEL)
    | (?P<PREFIX_DIRECTIVE>@prefix\b|@base\b)
    | (?P<LANGTAG>@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
    | (?P<DOUBLE>[+-]?(?:[0-9]+\.[0-9]*|\.?[0-9]+)[eE][+-]?[0-9]+)
    | (?P<DECIMAL>[+-]?[0-9]*\.[0-9]+)
    | (?P<INTEGER>[+-]?[0-9]+)
    | (?P<PNAME>(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:PN_LOCAL)?)
    | (?P<KEYWORD>[A-Za-z]+)
    | (?P<HATHAT>\^\^)
    | (?P<PUNCT>[.;,\[\](){}])
    """.replace(
        "PN_LOCAL", _PN_LOCAL
    ).replace("BLANK_LABEL", BLANK_LABEL.pattern),
    re.VERBOSE,
)

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


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: str, pos: int) -> None:
        self.kind = kind
        self.value = value
        self.pos = pos  # offset into the document


def _error_at(text: str, pos: int, message: str) -> ParseError:
    """A ParseError at a 1-based line and column, counted only when raised."""
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        if kind != "WS":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    if pos < len(text):
        raise _error_at(text, pos, f"unexpected character {text[pos]!r}")
    tokens.append(_Token("EOF", "", pos))
    return tokens


class _Parser:
    def __init__(self, text: str, *, turtle_only: bool = False) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.turtle_only = turtle_only
        self.prefixes: dict[str, str] = {}
        self.base: str | None = None
        self.dataset = Dataset()
        self.quads: list[Quad] = []  # inserted in one batch at the end
        self.current_graph = GLOBAL_GRAPH
        # Blank-node housekeeping: anonymous nodes get labels that avoid every
        # explicitly written label; explicit labels are kept verbatim and may
        # not span two named graphs.
        self._explicit_labels = {
            t.value[2:] for t in self.tokens if t.kind == "BLANK"
        }
        self._anon_counter = 0
        self._label_graph: dict[str, Term] = {}

    # -- token helpers ----------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self._next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value or kind
            raise self._fail(f"expected {want!r}, found {tok.value!r}", tok)
        return tok

    def _fail(self, message: str, tok: _Token) -> ParseError:
        return _error_at(self.text, tok.pos, message)

    def _unescape(self, raw: str, tok: _Token) -> str:
        def repl(m: re.Match) -> str:
            esc = m.group(1)
            if esc[0] in "uU":
                return chr(int(esc[1:], 16))
            try:
                return _STRING_ESCAPES[esc]
            except KeyError:
                raise self._fail(f"invalid escape sequence \\{esc}", tok) from None

        return _UNESCAPE.sub(repl, raw)

    # -- document ---------------------------------------------------------

    def parse(self) -> Dataset:
        while True:
            tok = self._peek()
            if tok.kind == "EOF":
                break
            if tok.kind == "PREFIX_DIRECTIVE":
                self._directive()
            elif tok.kind == "KEYWORD" and tok.value in ("PREFIX", "BASE"):
                self._sparql_directive()
            elif tok.kind == "KEYWORD" and tok.value == "GRAPH":
                self._next()
                self._graph_block(self._node_or_fail("graph name"))
            else:
                self._block_or_triples()
        self.dataset.add_quads(self.quads)
        return self.dataset

    def _directive(self) -> None:
        tok = self._next()
        if tok.value == "@prefix":
            ns = self._expect("PNAME")
            if not ns.value.endswith(":") or ns.value.count(":") != 1:
                raise self._fail("malformed prefix declaration", ns)
            target = self._expect("IRIREF")
            self.prefixes[ns.value[:-1]] = self._iri_value(target)
            self._expect("PUNCT", ".")
        else:  # @base
            target = self._expect("IRIREF")
            self.base = self._iri_value(target)
            self._expect("PUNCT", ".")

    def _sparql_directive(self) -> None:
        tok = self._next()
        if tok.value == "PREFIX":
            ns = self._expect("PNAME")
            target = self._expect("IRIREF")
            self.prefixes[ns.value[:-1]] = self._iri_value(target)
        else:
            target = self._expect("IRIREF")
            self.base = self._iri_value(target)

    def _block_or_triples(self) -> None:
        tok = self._peek()
        if tok.kind in ("IRIREF", "PNAME"):
            start = self.pos
            node = self._iri_term(self._next())
            if self._peek().kind == "PUNCT" and self._peek().value == "{":
                self._graph_block(node)
                return
            self.pos = start
        self._triples(self.current_graph)
        self._expect("PUNCT", ".")

    def _graph_block(self, name: Term) -> None:
        if self.turtle_only:
            raise self._fail("graph blocks are not allowed in Turtle", self._peek())
        if name.kind != "iri":
            raise self._fail("graph names must be IRIs", self._peek())
        self._expect("PUNCT", "{")
        self.dataset.declare_graph(name)
        while not (self._peek().kind == "PUNCT" and self._peek().value == "}"):
            self._triples(name)
            tok = self._peek()
            if tok.kind == "PUNCT" and tok.value == ".":
                self._next()
            elif not (tok.kind == "PUNCT" and tok.value == "}"):
                raise self._fail(f"expected '.' or '}}', found {tok.value!r}", tok)
        self._next()

    def _node_or_fail(self, what: str) -> Term:
        tok = self._next()
        if tok.kind in ("IRIREF", "PNAME"):
            return self._iri_term(tok)
        raise self._fail(f"expected {what}", tok)

    # -- triples ----------------------------------------------------------

    def _triples(self, graph: Term) -> None:
        tok = self._peek()
        if tok.kind == "PUNCT" and tok.value == "[":
            subject = self._bnode_property_list(graph)
            if not (self._peek().kind == "PUNCT" and self._peek().value in ".}"):
                self._predicate_object_list(subject, graph)
            return
        subject = self._term(graph, position="subject")
        self._predicate_object_list(subject, graph)

    def _predicate_object_list(self, subject: Term, graph: Term) -> None:
        while True:
            verb = self._verb()
            while True:
                obj = self._term(graph, position="object")
                self._emit(subject, verb, obj, graph)
                if self._peek().kind == "PUNCT" and self._peek().value == ",":
                    self._next()
                    continue
                break
            if self._peek().kind == "PUNCT" and self._peek().value == ";":
                self._next()
                # allow trailing ';' before '.' or '}'
                nxt = self._peek()
                if nxt.kind == "PUNCT" and nxt.value in ".}]":
                    return
                continue
            return

    def _verb(self) -> Term:
        tok = self._next()
        if tok.kind == "KEYWORD" and tok.value == "a":
            return RDF_TYPE
        if tok.kind in ("IRIREF", "PNAME"):
            return self._iri_term(tok)
        raise self._fail(f"expected predicate, found {tok.value!r}", tok)

    def _term(self, graph: Term, position: str) -> Term:
        tok = self._next()
        if tok.kind in ("IRIREF", "PNAME"):
            return self._iri_term(tok)
        if tok.kind == "BLANK":
            return self._labelled_blank(tok, graph)
        if tok.kind == "PUNCT" and tok.value == "[":
            self.pos -= 1
            return self._bnode_property_list(graph)
        if tok.kind == "PUNCT" and tok.value == "(":
            self.pos -= 1
            return self._collection(graph)
        if position == "subject":
            raise self._fail(f"expected subject, found {tok.value!r}", tok)
        if tok.kind in ("STRING", "STRING_LONG"):
            return self._literal(tok)
        if tok.kind == "INTEGER":
            return literal(tok.value, XSD_INTEGER)
        if tok.kind == "DECIMAL":
            return literal(tok.value, XSD_DECIMAL)
        if tok.kind == "DOUBLE":
            return literal(tok.value, XSD_DOUBLE)
        if tok.kind == "KEYWORD" and tok.value in ("true", "false"):
            return literal(tok.value, XSD_BOOLEAN)
        raise self._fail(f"expected object, found {tok.value!r}", tok)

    def _literal(self, tok: _Token) -> Term:
        raw = tok.value
        quote = raw[0]
        body = raw[3:-3] if raw.startswith(quote * 3) else raw[1:-1]
        value = self._unescape(body, tok)
        nxt = self._peek()
        if nxt.kind == "HATHAT":
            self._next()
            dt = self._node_or_fail("datatype IRI")
            return literal(value, dt.lexical)
        if nxt.kind == "LANGTAG":
            self._next()
            return literal(value, _LANG_MARKER + nxt.value[1:].lower())
        return literal(value, XSD_STRING)

    def _bnode_property_list(self, graph: Term) -> Term:
        open_tok = self._expect("PUNCT", "[")
        node = self._fresh_blank(graph)
        if self._peek().kind == "PUNCT" and self._peek().value == "]":
            self._next()
            return node
        self._predicate_object_list(node, graph)
        tok = self._next()
        if not (tok.kind == "PUNCT" and tok.value == "]"):
            raise self._fail("unterminated blank node property list", open_tok)
        return node

    def _collection(self, graph: Term) -> Term:
        self._expect("PUNCT", "(")
        items: list[Term] = []
        while not (self._peek().kind == "PUNCT" and self._peek().value == ")"):
            items.append(self._term(graph, position="object"))
        self._next()
        head: Term = RDF_NIL
        for item in reversed(items):
            cell = self._fresh_blank(graph)
            self._emit(cell, RDF_FIRST, item, graph)
            self._emit(cell, RDF_REST, head, graph)
            head = cell
        return head

    # -- leaf helpers -----------------------------------------------------

    def _iri_value(self, tok: _Token) -> str:
        value = self._unescape(tok.value[1:-1], tok)
        if self.base is not None and not is_valid_iri(value):
            from urllib.parse import urljoin

            value = urljoin(self.base, value)
        if not is_valid_iri(value):
            raise self._fail(f"invalid IRI <{value}>", tok)
        return value

    def _iri_term(self, tok: _Token) -> Term:
        if tok.kind == "IRIREF":
            return iri(self._iri_value(tok))
        prefix, _, local = tok.value.partition(":")
        if prefix not in self.prefixes:
            raise self._fail(f"undefined prefix {prefix + ':'!r}", tok)
        expanded = self.prefixes[prefix] + local
        try:
            return iri(expanded)
        except ValueError:
            raise self._fail(f"invalid IRI <{expanded}>", tok) from None

    def _labelled_blank(self, tok: _Token, graph: Term) -> Term:
        label = tok.value[2:]
        seen = self._label_graph.get(label)
        if seen is None:
            self._label_graph[label] = graph
        elif seen != graph:
            # Modules may not share blank nodes.  Inference graphs are exempt:
            # derived knowledge about a module's blank node legitimately lands
            # in the owning context's inference graph.
            inf = INFERENCE_SUFFIX
            if not (seen.lexical.endswith(inf) or graph.lexical.endswith(inf)):
                raise self._fail(
                    f"blank node _:{label} is shared between graphs; "
                    "modules may not share blank nodes",
                    tok,
                )
        return blank(label)

    def _fresh_blank(self, graph: Term) -> Term:
        while True:
            label = f"genid{self._anon_counter}"
            self._anon_counter += 1
            if label not in self._explicit_labels:
                break
        self._label_graph[label] = graph
        return blank(label)

    def _emit(self, s: Term, p: Term, o: Term, g: Term) -> None:
        if s.kind == "literal":
            raise self._fail("literal in subject position", self._peek())
        self.quads.append(Quad(s, p, o, g))


# ---------------------------------------------------------------------------
# public read API
# ---------------------------------------------------------------------------


def _as_text(source: str | bytes | IO) -> str:
    if isinstance(source, str):
        return source
    if isinstance(source, bytes):
        return source.decode("utf-8")
    data = source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


def load_dataset(source: str | bytes | IO, format: str = "trig") -> Dataset:
    """Parse a TriG (or Turtle) document into a dataset.

    Turtle input populates the reserved default graph.
    """
    text = _as_text(source)
    if format == "trig":
        return _Parser(text).parse()
    if format == "turtle":
        return _Parser(text, turtle_only=True).parse()
    raise ValueError(f"unsupported format: {format!r}")


def load_path(path: str, format: str | None = None) -> Dataset:
    if format is None:
        format = "turtle" if path.endswith((".ttl", ".turtle")) else "trig"
    with open(path, "rb") as fh:
        return load_dataset(fh, format)


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

    def header(self) -> list[str]:
        lines = [
            f"@prefix {prefix}: <{ns}> ."
            for prefix, ns in self.prefixes.items()
        ]
        lines.append("")
        return lines

    def triple_lines(self, quads: Iterable[Quad], indent: str) -> list[str]:
        # Group by subject, then predicate; Term order throughout.
        grouped: dict[Term, dict[Term, list[Term]]] = {}
        for q in quads:
            grouped.setdefault(q.s, {}).setdefault(q.p, []).append(q.o)
        lines: list[str] = []
        for s in sorted(grouped):
            parts = []
            for p in sorted(grouped[s]):
                objects = grouped[s][p]
                if len(objects) > 1:
                    objects.sort()
                objs = ", ".join(map(self.format_term, objects))
                pred = "a" if p == RDF_TYPE else self.format_term(p)
                parts.append(f"{pred} {objs}")
            joined = f" ;\n{indent}    ".join(parts)
            lines.append(f"{indent}{self.format_term(s)} {joined} .")
        return lines

    def trig(self) -> str:
        lines = self.header()
        for g in self.dataset.graph_names():
            lines.append(f"{self.format_term(g)} {{")
            lines.extend(self.triple_lines(self.dataset.graph(g), "    "))
            lines.append("}")
            lines.append("")
        return "\n".join(lines)

    def turtle(self) -> str:
        graphs = [g for g in self.dataset.graph_names() if self.dataset.graph_size(g)]
        if len(graphs) > 1:
            raise SerializationError(
                f"turtle output requires a single graph, dataset has {len(graphs)}"
            )
        lines = self.header()
        if graphs:
            lines.extend(self.triple_lines(self.dataset.graph(graphs[0]), ""))
        lines.append("")
        return "\n".join(lines)


def write_dataset(dataset: Dataset, format: str = "trig") -> bytes:
    """Serialize a dataset; output parses back to an equal dataset."""
    writer = _Writer(dataset)
    if format == "trig":
        return writer.trig().encode("utf-8")
    if format == "turtle":
        return writer.turtle().encode("utf-8")
    raise ValueError(f"unsupported format: {format!r}")


def write_path(dataset: Dataset, path: str, format: str | None = None) -> None:
    if format is None:
        format = "turtle" if path.endswith((".ttl", ".turtle")) else "trig"
    with open(path, "wb") as fh:
        fh.write(write_dataset(dataset, format))

"""RDF terms and dense-integer term interning.

A term is a plain value: two terms are equal exactly when kind, lexical form
and datatype agree.  Constructors hash-cons through a module-level cache so
that equal terms are usually the same object, which keeps large quad stores
cheap to hash and compare.  Constructors also validate: ``iri()`` rejects
relative or malformed IRIs and ``blank()`` rejects labels that TriG cannot
write, so every term can be serialized as it is.
"""
from __future__ import annotations

import re
from typing import NamedTuple

_IRI_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')

#: A blank-node label TriG can write after ``_:``: it may not end with '.'.
BLANK_LABEL = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?")


class Term(NamedTuple):
    """An RDF term, ordered as a plain tuple: (kind, lexical, datatype).

    The order is total because the constructors keep ``datatype`` uniform
    within a kind: ``literal()`` always sets a datatype string, and ``iri()``
    and ``blank()`` leave it ``None``.  Two terms that reach the datatype
    field share kind and lexical form, so ``None`` is never compared with a
    string.
    """

    kind: str  # "iri" | "blank" | "literal"
    lexical: str
    datatype: str | None = None  # literals only

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == "iri":
            return f"<{self.lexical}>"
        if self.kind == "blank":
            return f"_:{self.lexical}"
        return f'"{self.lexical}"^^<{self.datatype}>'


_XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"

_iri_cache: dict[str, Term] = {}
_blank_cache: dict[str, Term] = {}
_literal_cache: dict[tuple[str, str], Term] = {}


def is_valid_iri(lexical: str) -> bool:
    """Absolute-IRI sanity check: scheme plus no forbidden characters."""
    return bool(_IRI_SCHEME.match(lexical)) and not _IRI_FORBIDDEN.search(lexical)


def iri(lexical: str) -> Term:
    t = _iri_cache.get(lexical)
    if t is None:
        if not is_valid_iri(lexical):
            raise ValueError(f"not a valid absolute IRI: {lexical!r}")
        t = Term("iri", lexical)
        _iri_cache[lexical] = t
    return t


def blank(label: str) -> Term:
    t = _blank_cache.get(label)
    if t is None:
        if not BLANK_LABEL.fullmatch(label):
            raise ValueError(f"not a valid blank node label: {label!r}")
        t = Term("blank", label)
        _blank_cache[label] = t
    return t


def literal(lexical: str, datatype: str | None = None) -> Term:
    # RDF 1.1: a plain literal is an xsd:string.
    dt = datatype or _XSD_STRING
    key = (lexical, dt)
    t = _literal_cache.get(key)
    if t is None:
        t = Term("literal", lexical, dt)
        _literal_cache[key] = t
    return t


class TermTable:
    """Bidirectional mapping between terms and dense integer ids.

    Engine joins operate on the integer side; ids are allocated in first-seen
    order and never reused.
    """

    __slots__ = ("_ids", "_terms")

    def __init__(self) -> None:
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []

    def intern(self, term: Term) -> int:
        tid = self._ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._ids[term] = tid
            self._terms.append(term)
        return tid

    def lookup(self, term: Term) -> int | None:
        """The term's id, or None when it was never interned."""
        return self._ids.get(term)

    def term(self, tid: int) -> Term:
        return self._terms[tid]

    @property
    def terms(self) -> list[Term]:
        """Every term, at the index of its id.  The table's own list: do not
        modify it."""
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

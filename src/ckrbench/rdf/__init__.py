"""RDF terms, quads, the named-graph store and TriG I/O."""

from ckrbench.rdf.dataset import Dataset, Quad
from ckrbench.rdf.terms import Term, TermTable, blank, iri, literal

__all__ = [
    "Dataset",
    "Quad",
    "Term",
    "TermTable",
    "blank",
    "iri",
    "literal",
]

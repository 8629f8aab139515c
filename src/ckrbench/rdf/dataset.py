"""In-memory named-graph quad store.

Set semantics throughout: a dataset never holds duplicate quads and
``add_quads`` reports only genuinely new insertions.  The one index is quads
by graph, after RDF 1.1's dataset as a set of named graphs: each graph is an
insertion-ordered set (a dict whose values are unused), and declared empty
graphs are kept.  Assembly and the writer read whole graphs, and the closure
engine joins over its own integer store.

Orders: the store keeps no order of its own beyond insertion.  ``graph(g)``
gives quads in first-insertion order, and iteration and ``graph_names()`` go
graph by graph in the order graphs first appeared.  The writer alone sorts.
The closure engine never writes to its input.
"""
from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from ckrbench.rdf.terms import Term


class Quad(NamedTuple):
    s: Term
    p: Term
    o: Term
    g: Term


def is_valid_quad(q: Quad) -> bool:
    """Whether a dataset can hold the quad: the predicate and the graph name
    are IRIs and the subject is an IRI or a blank node."""
    return q.p.kind == "iri" and q.g.kind == "iri" and q.s.kind != "literal"


class Dataset:
    def __init__(self, quads: Iterable[Quad] = ()) -> None:
        # every graph, declared empty ones included, with its quads
        self._graphs: dict[Term, dict[Quad, None]] = {}
        if quads:
            self.add_quads(quads)

    # -- write side -------------------------------------------------------

    def add(self, q: Quad) -> bool:
        """Insert one quad; True when it was not already present."""
        return self.add_quads((q,)) == 1

    def add_quads(self, qs: Iterable[Quad]) -> int:
        """Insert quads, returning the number of genuinely new ones."""
        graphs = self._graphs
        before = len(self)
        for q in qs:
            if not is_valid_quad(q):
                raise ValueError(f"a dataset cannot hold {q!r}")
            quads = graphs.get(q.g)
            if quads is None:
                quads = graphs[q.g] = {}
            quads[q] = None  # a quad already present keeps its place
        return len(self) - before

    def declare_graph(self, g: Term) -> None:
        """Record that a (possibly empty) named graph exists."""
        self._graphs.setdefault(g, {})

    # -- read side --------------------------------------------------------

    def __len__(self) -> int:
        return sum(map(len, self._graphs.values()))

    def __contains__(self, q: Quad) -> bool:
        return q in self._graphs.get(q.g, ())

    def __iter__(self) -> Iterator[Quad]:
        return chain.from_iterable(self._graphs.values())

    def graph_names(self) -> list[Term]:
        """Every graph name, in the order graphs first appeared."""
        return list(self._graphs)

    def has_graph(self, g: Term) -> bool:
        return g in self._graphs

    def graph(self, g: Term) -> list[Quad]:
        """All quads of one named graph, in first-insertion order."""
        return list(self._graphs.get(g, ()))

    def copy(self) -> "Dataset":
        """An independent copy of the validated state, not re-inserted."""
        d = Dataset()
        d._graphs = {g: quads.copy() for g, quads in self._graphs.items()}
        return d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return len(self) == len(other) and all(q in other for q in self)

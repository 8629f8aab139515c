"""In-memory named-graph quad store.

Set semantics throughout: a dataset never holds duplicate quads and
``add_quads`` reports only genuinely new insertions.  The one index is quads
by graph: assembly and the writer read whole graphs, and the closure engine
joins over its own integer store.  ``match`` without a graph scans a snapshot
of the quad set.

Concurrency contract: reads may proceed concurrently; writes take the store
lock (single writer).  Whole-set reads (iteration, ``match`` without a graph,
``copy``) work on a snapshot taken under the lock.  The closure engine never
writes to its input.
"""
from __future__ import annotations

import threading
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
        self._quads: set[Quad] = set()
        # every graph, declared empty ones included, with its quads
        self._by_g: dict[Term, list[Quad]] = {}
        self._lock = threading.Lock()
        if quads:
            self.add_quads(quads)

    # -- write side -------------------------------------------------------

    def add(self, q: Quad) -> bool:
        """Insert one quad; True when it was not already present."""
        return self.add_quads((q,)) == 1

    def add_quads(self, qs: Iterable[Quad]) -> int:
        """Insert quads, returning the number of genuinely new ones."""
        added = 0
        with self._lock:
            for q in qs:
                if q in self._quads:
                    continue
                if not is_valid_quad(q):
                    raise ValueError(f"a dataset cannot hold {q!r}")
                self._quads.add(q)
                self._by_g.setdefault(q.g, []).append(q)
                added += 1
        return added

    def declare_graph(self, g: Term) -> None:
        """Record that a (possibly empty) named graph exists."""
        with self._lock:
            self._by_g.setdefault(g, [])

    # -- read side --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._quads)

    def __contains__(self, q: Quad) -> bool:
        return q in self._quads

    def __iter__(self) -> Iterator[Quad]:
        return iter(self._snapshot())

    def _snapshot(self) -> list[Quad]:
        with self._lock:
            return list(self._quads)

    def graph_names(self) -> list[Term]:
        return sorted(self._by_g)

    def has_graph(self, g: Term) -> bool:
        return g in self._by_g

    def graph(self, g: Term) -> list[Quad]:
        """All quads of one named graph (unordered)."""
        return list(self._by_g.get(g, ()))

    def graph_size(self, g: Term) -> int:
        return len(self._by_g.get(g, ()))

    def match(
        self,
        s: Term | None = None,
        p: Term | None = None,
        o: Term | None = None,
        g: Term | None = None,
    ) -> list[Quad]:
        """Quads unifying with the pattern, in ``Term`` order of (s, p, o, g)."""
        candidates = self._by_g.get(g, ()) if g is not None else self._snapshot()
        out = [
            q
            for q in candidates
            if (s is None or q.s == s)
            and (p is None or q.p == p)
            and (o is None or q.o == o)
        ]
        out.sort()
        return out

    def copy(self) -> "Dataset":
        """An independent copy of the validated state, not re-inserted."""
        d = Dataset()
        with self._lock:
            d._quads = set(self._quads)
            d._by_g = {g: list(qs) for g, qs in self._by_g.items()}
        return d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._quads == other._quads

    def __hash__(self) -> int:  # pragma: no cover - datasets are not hashed
        raise TypeError("Dataset is unhashable")

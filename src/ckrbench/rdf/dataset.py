"""In-memory named-graph quad store.

Set semantics throughout: a dataset never holds duplicate quads and
``add_quads`` reports only genuinely new insertions.  Lookup structures cover
the access paths closure evaluation needs (whole graph, subject, predicate,
predicate+object, graph+subject), so per-graph scans and join probes stay
sub-linear in the dataset size.

Concurrency contract: reads may proceed concurrently; writes take the store
lock (single writer).  The closure engine only writes at stage barriers.
"""
from __future__ import annotations

import threading
from typing import Iterable, Iterator, NamedTuple

from ckrbench.rdf.terms import Term, term_key


class Quad(NamedTuple):
    s: Term
    p: Term
    o: Term
    g: Term


def _quad_key(q: Quad):
    return (term_key(q.s), term_key(q.p), term_key(q.o), term_key(q.g))


class Dataset:
    def __init__(self, quads: Iterable[Quad] = ()) -> None:
        self._quads: set[Quad] = set()
        self._by_g: dict[Term, list[Quad]] = {}
        self._by_s: dict[Term, list[Quad]] = {}
        self._by_p: dict[Term, list[Quad]] = {}
        self._by_po: dict[tuple[Term, Term], list[Quad]] = {}
        self._by_gs: dict[tuple[Term, Term], list[Quad]] = {}
        self._declared_graphs: set[Term] = set()
        self._lock = threading.Lock()
        if quads:
            self.add_quads(quads)

    # -- write side -------------------------------------------------------

    @staticmethod
    def _validate(q: Quad) -> None:
        if q.p.kind != "iri":
            raise ValueError(f"predicate must be an IRI: {q.p!r}")
        if q.g.kind != "iri":
            raise ValueError(f"graph name must be an IRI: {q.g!r}")
        if q.s.kind == "literal":
            raise ValueError(f"subject must be an IRI or blank node: {q.s!r}")

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
                self._validate(q)
                self._quads.add(q)
                self._by_g.setdefault(q.g, []).append(q)
                self._by_s.setdefault(q.s, []).append(q)
                self._by_p.setdefault(q.p, []).append(q)
                self._by_po.setdefault((q.p, q.o), []).append(q)
                self._by_gs.setdefault((q.g, q.s), []).append(q)
                self._declared_graphs.add(q.g)
                added += 1
        return added

    def declare_graph(self, g: Term) -> None:
        """Record that a (possibly empty) named graph exists."""
        with self._lock:
            self._declared_graphs.add(g)

    # -- read side --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._quads)

    def __contains__(self, q: Quad) -> bool:
        return q in self._quads

    def __iter__(self) -> Iterator[Quad]:
        return iter(self._quads)

    def graph_names(self) -> list[Term]:
        return sorted(self._declared_graphs, key=term_key)

    def has_graph(self, g: Term) -> bool:
        return g in self._declared_graphs

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
        """Quads unifying with the pattern, sorted by term identity."""
        out = [
            q
            for q in self._candidates(s, p, o, g)
            if (s is None or q.s == s)
            and (p is None or q.p == p)
            and (o is None or q.o == o)
            and (g is None or q.g == g)
        ]
        out.sort(key=_quad_key)
        return out

    def _candidates(self, s, p, o, g) -> Iterable[Quad]:
        if g is not None and s is not None:
            return self._by_gs.get((g, s), ())
        if g is not None:
            return self._by_g.get(g, ())
        if s is not None:
            return self._by_s.get(s, ())
        if p is not None and o is not None:
            return self._by_po.get((p, o), ())
        if p is not None:
            return self._by_p.get(p, ())
        return self._quads

    def copy(self) -> "Dataset":
        d = Dataset()
        d.add_quads(self._quads)
        for g in self._declared_graphs:
            d.declare_graph(g)
        return d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._quads == other._quads

    def __hash__(self) -> int:  # pragma: no cover - datasets are not hashed
        raise TypeError("Dataset is unhashable")

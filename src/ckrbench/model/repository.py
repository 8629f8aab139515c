"""Repository assembly: global knowledge plus named knowledge modules.

A repository is assembled from a dataset once and is immutable afterwards:
the closure engine reads it and returns the context set and the
context-module associations in its result.

On reload of a closed dataset, the global inference graph is treated as part
of the global knowledge, so module links written during materialization are
honoured and a second closure pass is a no-op.

Modules may not share blank nodes: a blank node may occur in at most one
graph whose name does not end in ``INFERENCE_SUFFIX`` (``ckr:global`` is such
a graph too), and in any number of inference graphs.  Assembly checks this
for every dataset, read from a file or built in memory.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ckrbench.errors import AssemblyError
from ckrbench.model.axioms import Axiom
from ckrbench.model.encoding import parse_axioms
from ckrbench.namespaces import (
    GLOBAL_GRAPH,
    INFERENCE_SUFFIX,
    MOD_PROPERTY,
    inference_graph,
    is_meta_term,
)
from ckrbench.rdf.dataset import Dataset
from ckrbench.rdf.terms import Term


@dataclass(frozen=True)
class KnowledgeModule:
    name: Term
    axioms: frozenset[Axiom]


def is_meta_axiom(ax: Axiom) -> bool:
    """Meta-level axioms describe context structure and are not propagated."""
    return any(is_meta_term(t) for t in ax.args)


@dataclass
class CkrRepository:
    dataset: Dataset
    global_axioms: frozenset[Axiom]
    modules: dict[Term, KnowledgeModule]
    warnings: list[str] = field(default_factory=list)

    def context_kb(
        self, context: Term, mod_assoc: Iterable[tuple[Term, Term]]
    ) -> set[Axiom]:
        """Union of the axioms of all modules that ``mod_assoc``, a set of
        (context, module) pairs, associates with a context."""
        kb: set[Axiom] = set()
        for ctx, mod in mod_assoc:
            if ctx == context:
                kb |= self.modules[mod].axioms
        return kb

    def global_object_axioms(self) -> list[Axiom]:
        """Global axioms in the object language (the ones contexts inherit)."""
        return [ax for ax in self.global_axioms if not is_meta_axiom(ax)]

    def object_axiom_count(self) -> int:
        """Domain axioms only: generated totals are checked against this."""
        return len(self.global_object_axioms()) + sum(
            len(m.axioms) for m in self.modules.values()
        )


def assemble_repository(dataset: Dataset) -> CkrRepository:
    owner: dict[Term, Term] = {}  # blank node -> its one non-inference graph
    for g in dataset.graph_names():
        if g.lexical.endswith(INFERENCE_SUFFIX):
            continue
        for q in dataset.graph(g):
            for t in (q.s, q.o):
                if t.kind == "blank" and owner.setdefault(t, g) != g:
                    raise AssemblyError(
                        f"blank node {t!r} is in graphs {owner[t]!r} and {g!r}; "
                        "modules may not share blank nodes"
                    )

    warnings: list[str] = []
    global_graphs = [GLOBAL_GRAPH]
    global_inf = inference_graph(GLOBAL_GRAPH)
    if dataset.has_graph(global_inf):
        global_graphs.append(global_inf)

    global_axioms: set[Axiom] = set()
    for g in global_graphs:
        global_axioms |= parse_axioms(dataset, g, warnings)
    for ax in global_axioms:
        if ax.is_eval:
            raise AssemblyError(
                f"eval axiom {ax!r} in the global graph; "
                "eval inclusions may only occur in local modules"
            )

    referenced: set[Term] = set()
    for g in global_graphs:
        for target in (q.o for q in dataset.graph(g) if q.p == MOD_PROPERTY):
            if target.kind != "iri":
                raise AssemblyError(f"module name must be an IRI: {target!r}")
            if target in global_graphs:
                raise AssemblyError(
                    f"module name {target!r} collides with the global graph"
                )
            if not dataset.has_graph(target):
                raise AssemblyError(
                    f"module link references graph {target!r} absent from the dataset"
                )
            referenced.add(target)

    modules: dict[Term, KnowledgeModule] = {}
    for name in dataset.graph_names():
        if name in global_graphs:
            continue
        modules[name] = KnowledgeModule(
            name=name,
            axioms=frozenset(parse_axioms(dataset, name, warnings)),
        )
        if name not in referenced:
            warnings.append(f"module graph {name!r} is unreachable (no module link)")

    return CkrRepository(
        dataset=dataset,
        global_axioms=frozenset(global_axioms),
        modules=modules,
        warnings=warnings,
    )

"""Mapping between normal-form axioms and their RDF triple encodings.

``RDF_FORMS`` gives the RDF form of every normal form: ``encode_axiom`` is
compiled from it, and the reader takes its predicates from it.
``encode_axiom`` and ``parse_axioms`` are inverses: parsing the encoding of
an axiom yields exactly that axiom back, unless the axiom names an ``rdf:``,
``rdfs:`` or ``owl:`` IRI where ``SHAPE_SORTS`` expects a class or a role.
Such an axiom is dropped with a warning: those names are vocabulary, and a
closure that reasoned over them would not read back as itself.  Auxiliary
nodes (restriction nodes, list cells, negative-assertion reifications) are
blank nodes when authoring modules and deterministic skolem IRIs when the
closure engine writes inference graphs, so inference output re-parses
without drift.

The reader takes each graph in insertion order and sorts nothing.  Where a
form's component occurs more than once at a node, the least in ``Term``
order is read, so a graph reads the same whatever order its quads were
inserted in, and a closed dataset reads the same in memory and reloaded.
The forms the engine writes repeat no component.

Unrecognized triples are carried through untouched: anything that looks like
a plain assertion becomes one, dangling uses of reserved vocabulary are
reported through the ``warnings`` list, and the rest stays inert in the
dataset.
"""
from __future__ import annotations

import hashlib
import itertools
from typing import Callable, Iterable

from ckrbench.errors import EncodingError
from ckrbench.model.axioms import (
    CONCEPT_ASSERT,
    DIFFERENT,
    DIS_ROLE,
    EVAL_SUB_CLASS,
    EVAL_SUB_ROLE,
    INV_ROLE,
    IRR_ROLE,
    NEG_ROLE_ASSERT,
    ROLE_ASSERT,
    ROLE_CHAIN,
    SAME,
    SHAPE_SORTS,
    SUB_CLASS,
    SUB_CLASS_NEG,
    SUB_CONJ,
    SUB_EX,
    SUB_HAS_VALUE,
    SUB_ROLE,
    SUP_ALL,
    SUP_MAX1,
    Axiom,
    axiom,
)
from ckrbench.namespaces import (
    EVAL_IN,
    EVAL_OF,
    MOD_PROPERTY,
    OWL_ALLVALUESFROM,
    OWL_ASSERTIONPROPERTY,
    OWL_COMPLEMENTOF,
    OWL_DIFFERENTFROM,
    OWL_HASVALUE,
    OWL_INTERSECTIONOF,
    OWL_INVERSEOF,
    OWL_IRREFLEXIVEPROPERTY,
    OWL_MAXQUALIFIEDCARDINALITY,
    OWL_NEGATIVEPROPERTYASSERTION,
    OWL_NS,
    OWL_ONCLASS,
    OWL_ONEOF,
    OWL_ONPROPERTY,
    OWL_PROPERTYCHAINAXIOM,
    OWL_PROPERTYDISJOINTWITH,
    OWL_RESTRICTION,
    OWL_SAMEAS,
    OWL_SOMEVALUESFROM,
    OWL_SOURCEINDIVIDUAL,
    OWL_TARGETINDIVIDUAL,
    RDF_FIRST,
    RDF_NIL,
    RDF_NS,
    RDF_REST,
    RDF_TYPE,
    RDFS_NS,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    SKOLEM_NS,
    XSD_NONNEGATIVEINTEGER,
    is_meta_term,
)
from ckrbench.rdf.dataset import Dataset, Quad
from ckrbench.rdf.terms import Term, blank, iri, literal

Triple = tuple[Term, Term, Term]
Minter = Callable[[], Term]

_ONE = literal("1", XSD_NONNEGATIVEINTEGER)

# Names in these namespaces are vocabulary: never a class or a role.
_RESERVED = (RDF_NS, RDFS_NS, OWL_NS)
# The argument positions of each shape that name a class or a role.
_NAME_POSITIONS = {
    shape: tuple(i for i, sort in enumerate(sorts) if sort != "individual")
    for shape, sorts in SHAPE_SORTS.items()
}


class BlankMinter:
    """Sequential blank-node factory for deterministic module authoring."""

    def __init__(self, prefix: str = "b") -> None:
        self.prefix = prefix
        self.counter = itertools.count()

    def __call__(self) -> Term:
        return blank(f"{self.prefix}{next(self.counter)}")


def skolem_minter(*parts: str) -> Minter:
    """Deterministic auxiliary-node factory keyed on the given parts.

    Same parts, same node sequence: re-materializing an inference graph
    reproduces it exactly.
    """
    counter = itertools.count()

    def mint() -> Term:
        payload = "\x1f".join(parts) + f"\x1f{next(counter)}"
        digest = hashlib.sha1(payload.encode("utf-8")).hexdigest()[:20]
        return iri(SKOLEM_NS + digest)

    return mint


def _is_aux(t: Term) -> bool:
    return t.kind == "blank" or (t.kind == "iri" and t.lexical.startswith(SKOLEM_NS))


_RESTRICTION = ("n", RDF_TYPE, OWL_RESTRICTION)
# the list (a[0] a[1]) at node l1, and the nominal context {a[1]} of node n
_TWO_ITEMS = (
    ("l1", RDF_FIRST, 0), ("l1", RDF_REST, "l2"),
    ("l2", RDF_FIRST, 1), ("l2", RDF_REST, RDF_NIL),
)
_NOMINAL_CTX = (
    ("n", EVAL_IN, "m"), ("m", OWL_ONEOF, "c"),
    ("c", RDF_FIRST, 1), ("c", RDF_REST, RDF_NIL),
)

#: The RDF form of each normal form, keyed by shape and ``nominal_ctx``, as
#: in the OWL 2 mapping to RDF graphs: its triple patterns, the linking
#: triple first.  In a pattern an int is an argument position, a str an
#: auxiliary node minted in order of first use, and anything else that term.
RDF_FORMS: dict[tuple[str, bool], tuple[tuple, ...]] = {
    (SUB_CLASS, False): ((0, RDFS_SUBCLASSOF, 1),),
    (SUB_CLASS_NEG, False): ((0, RDFS_SUBCLASSOF, "n"), ("n", OWL_COMPLEMENTOF, 1)),
    (SUB_HAS_VALUE, False): (
        (0, RDFS_SUBCLASSOF, "n"), _RESTRICTION,
        ("n", OWL_ONPROPERTY, 1), ("n", OWL_HASVALUE, 2),
    ),
    (SUB_CONJ, False): (
        ("n", RDFS_SUBCLASSOF, 2), ("n", OWL_INTERSECTIONOF, "l1"), *_TWO_ITEMS
    ),
    (SUB_EX, False): (
        ("n", RDFS_SUBCLASSOF, 2), _RESTRICTION,
        ("n", OWL_ONPROPERTY, 0), ("n", OWL_SOMEVALUESFROM, 1),
    ),
    (SUP_ALL, False): (
        (0, RDFS_SUBCLASSOF, "n"), _RESTRICTION,
        ("n", OWL_ONPROPERTY, 1), ("n", OWL_ALLVALUESFROM, 2),
    ),
    (SUP_MAX1, False): (
        (0, RDFS_SUBCLASSOF, "n"), _RESTRICTION, ("n", OWL_ONPROPERTY, 1),
        ("n", OWL_MAXQUALIFIEDCARDINALITY, _ONE), ("n", OWL_ONCLASS, 2),
    ),
    (CONCEPT_ASSERT, False): ((1, RDF_TYPE, 0),),
    (ROLE_ASSERT, False): ((1, 0, 2),),
    (NEG_ROLE_ASSERT, False): (
        ("n", RDF_TYPE, OWL_NEGATIVEPROPERTYASSERTION), ("n", OWL_SOURCEINDIVIDUAL, 1),
        ("n", OWL_ASSERTIONPROPERTY, 0), ("n", OWL_TARGETINDIVIDUAL, 2),
    ),
    (SAME, False): ((0, OWL_SAMEAS, 1),),
    (DIFFERENT, False): ((0, OWL_DIFFERENTFROM, 1),),
    (SUB_ROLE, False): ((0, RDFS_SUBPROPERTYOF, 1),),
    (INV_ROLE, False): ((0, OWL_INVERSEOF, 1),),
    (ROLE_CHAIN, False): ((2, OWL_PROPERTYCHAINAXIOM, "l1"), *_TWO_ITEMS),
    (DIS_ROLE, False): ((0, OWL_PROPERTYDISJOINTWITH, 1),),
    (IRR_ROLE, False): ((0, RDF_TYPE, OWL_IRREFLEXIVEPROPERTY),),
    (EVAL_SUB_CLASS, False): (
        ("n", RDFS_SUBCLASSOF, 2), ("n", EVAL_OF, 0), ("n", EVAL_IN, 1)
    ),
    (EVAL_SUB_CLASS, True): (("n", RDFS_SUBCLASSOF, 2), ("n", EVAL_OF, 0), *_NOMINAL_CTX),
    (EVAL_SUB_ROLE, False): (
        ("n", RDFS_SUBPROPERTYOF, 2), ("n", EVAL_OF, 0), ("n", EVAL_IN, 1)
    ),
    (EVAL_SUB_ROLE, True): (("n", RDFS_SUBPROPERTYOF, 2), ("n", EVAL_OF, 0), *_NOMINAL_CTX),
}


def _compile(form: tuple[tuple, ...]) -> Callable[[tuple[Term, ...], Minter], list[Triple]]:
    """The form as a function of (args, mint) that builds its triples in one
    list display, minting each auxiliary node where it is first used.  A walk
    over the patterns on every call would cost two to three times as much."""
    terms: dict[str, Term] = {}
    minted: set[str] = set()

    def source(x) -> str:
        if isinstance(x, int):
            return f"a[{x}]"
        if isinstance(x, str):
            first = x not in minted
            minted.add(x)
            return f"(_{x} := mint())" if first else f"_{x}"
        terms[f"t{len(terms)}"] = x
        return f"t{len(terms) - 1}"

    triples = ", ".join(f"({', '.join(map(source, t))})" for t in form)
    return eval(f"lambda a, mint: [{triples}]", terms)


_ENCODERS = {key: _compile(form) for key, form in RDF_FORMS.items()}


def encode_axiom(ax: Axiom, mint: Minter) -> list[Triple]:
    """Triples encoding one axiom (auxiliary nodes from ``mint``)."""
    return _ENCODERS[ax.shape, ax.nominal_ctx](ax.args, mint)


def encode_axioms(
    dataset: Dataset,
    graph: Term,
    axioms: Iterable[Axiom],
    mint: Minter,
) -> int:
    """Encode axioms into one named graph; returns new-quad count."""
    quads = [
        Quad(s, p, o, graph) for ax in axioms for (s, p, o) in encode_axiom(ax, mint)
    ]
    dataset.declare_graph(graph)
    return dataset.add_quads(quads)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# Each form's linking predicate, and the predicates of its other triples:
# rdf:type is neither, as assertions link by it too, and so is a[0], the
# predicate of a role assertion.
_LINKS = {form[0][1] for form in RDF_FORMS.values()}
_HANDLED_PREDICATES = _LINKS - {RDF_TYPE, 0}
_COMPONENT_PREDICATES = {p for form in RDF_FORMS.values() for _, p, _ in form[1:]} - _LINKS


class _GraphView:
    """Per-graph quad access with consumption tracking."""

    def __init__(self, dataset: Dataset, graph: Term) -> None:
        self.quads = dataset.graph(graph)
        self.by_s: dict[Term, list[Quad]] = {}
        self.by_p: dict[Term, list[Quad]] = {}
        for q in self.quads:
            self.by_s.setdefault(q.s, []).append(q)
            self.by_p.setdefault(q.p, []).append(q)
        self.consumed: set[Quad] = set()

    def props(self, s: Term) -> dict[Term, list[Quad]]:
        out: dict[Term, list[Quad]] = {}
        for q in self.by_s.get(s, ()):
            out.setdefault(q.p, []).append(q)
        return out

    def single(self, s: Term, p: Term) -> Quad | None:
        found = [q for q in self.by_s.get(s, ()) if q.p == p]
        return found[0] if len(found) == 1 else None

    def consume(self, *quads: Quad) -> None:
        self.consumed.update(quads)

    def rdf_list(self, node: Term) -> tuple[list[Term], list[Quad]] | None:
        """Decode an RDF collection; None when the chain is broken."""
        items: list[Term] = []
        spent: list[Quad] = []
        seen: set[Term] = set()
        while node != RDF_NIL:
            if node in seen or not _is_aux(node):
                return None
            seen.add(node)
            first = self.single(node, RDF_FIRST)
            rest = self.single(node, RDF_REST)
            if first is None or rest is None:
                return None
            items.append(first.o)
            spent += [first, rest]
            node = rest.o
        return items, spent


def _atomic(t: Term) -> bool:
    return t.kind == "iri" and not t.lexical.startswith(SKOLEM_NS)


def parse_axioms(
    dataset: Dataset,
    graph: Term,
    warnings: list[str] | None = None,
) -> set[Axiom]:
    """Decode one named graph into its normal-form axioms."""
    view = _GraphView(dataset, graph)
    # an insertion-ordered set: the warnings below come in decode order
    axioms: dict[Axiom, None] = {}
    warn = warnings.append if warnings is not None else (lambda _msg: None)

    def err(msg: str, node: Term) -> EncodingError:
        return EncodingError(f"{msg} (node {node!r}, graph {graph!r})")

    _decode_negative_assertions(view, axioms, err)
    _decode_subsumptions(view, axioms, warn, err)
    _decode_role_axioms(view, axioms, warn)
    _decode_assertions(view, axioms, warn)
    for a in [a for a in axioms if _names_vocabulary(a)]:
        warn(f"reserved vocabulary as a class or role name in {a!r}; axiom dropped")
        del axioms[a]
    return set(axioms)


def _names_vocabulary(a: Axiom) -> bool:
    for i in _NAME_POSITIONS[a.shape]:
        t = a.args[i]
        if t.kind == "iri" and t.lexical.startswith(_RESERVED):
            return True
    return False


def _decode_negative_assertions(view: _GraphView, axioms, err) -> None:
    for q in view.by_p.get(RDF_TYPE, ()):
        if q.o != OWL_NEGATIVEPROPERTYASSERTION:
            continue
        src = view.single(q.s, OWL_SOURCEINDIVIDUAL)
        prop = view.single(q.s, OWL_ASSERTIONPROPERTY)
        tgt = view.single(q.s, OWL_TARGETINDIVIDUAL)
        if src is None or prop is None or tgt is None:
            raise err("negative property assertion is missing a component", q.s)
        axioms[axiom(NEG_ROLE_ASSERT, prop.o, src.o, tgt.o)] = None
        view.consume(q, src, prop, tgt)


def _decode_subsumptions(view, axioms, warn, err) -> None:
    for q in list(view.by_p.get(RDFS_SUBCLASSOF, ())):
        sub, sup = q.s, q.o
        if _atomic(sub) and _atomic(sup):
            axioms[axiom(SUB_CLASS, sub, sup)] = None
            view.consume(q)
            continue
        if _is_aux(sup) and _atomic(sub):
            props = view.props(sup)
            if OWL_COMPLEMENTOF in props:
                comp = min(props[OWL_COMPLEMENTOF])
                axioms[axiom(SUB_CLASS_NEG, sub, comp.o)] = None
                view.consume(q, comp)
                continue
            for pred, shape in (
                (OWL_HASVALUE, SUB_HAS_VALUE),
                (OWL_ALLVALUESFROM, SUP_ALL),
                (OWL_MAXQUALIFIEDCARDINALITY, SUP_MAX1),
            ):
                if pred in props:
                    axioms[_decode_restriction(view, q, sup, props, shape, err)] = None
                    break
            else:
                warn(f"unsupported superclass expression at {sup!r}")
            continue
        if _is_aux(sub):
            props = view.props(sub)
            if EVAL_OF in props or EVAL_IN in props:
                axioms[_decode_eval(view, q, sub, props, EVAL_SUB_CLASS, err)] = None
                continue
            if OWL_INTERSECTIONOF in props:
                list_q = min(props[OWL_INTERSECTIONOF])
                decoded = view.rdf_list(list_q.o)
                if decoded is None:
                    raise err("broken owl:intersectionOf list", sub)
                items, spent = decoded
                if len(items) != 2 or not all(_atomic(t) for t in items):
                    warn(f"intersection at {sub!r} is not a binary normal form")
                    continue
                axioms[axiom(SUB_CONJ, items[0], items[1], sup)] = None
                view.consume(q, list_q, *spent)
                continue
            if OWL_SOMEVALUESFROM in props:
                axioms[_decode_restriction(view, q, sub, props, SUB_EX, err)] = None
                continue
        warn(f"unsupported class inclusion {sub!r} -> {sup!r}")

    for q in list(view.by_p.get(RDFS_SUBPROPERTYOF, ())):
        sub, sup = q.s, q.o
        if _atomic(sub) and _atomic(sup):
            axioms[axiom(SUB_ROLE, sub, sup)] = None
            view.consume(q)
        elif _is_aux(sub):
            props = view.props(sub)
            if EVAL_OF in props or EVAL_IN in props:
                axioms[_decode_eval(view, q, sub, props, EVAL_SUB_ROLE, err)] = None
            else:
                warn(f"unsupported property inclusion at {sub!r}")
        else:
            warn(f"unsupported property inclusion {sub!r} -> {sup!r}")


def _decode_restriction(view, link_q, node, props, shape, err) -> Axiom:
    """The restriction ``shape`` at ``node``, which ``link_q`` links to a
    class: owl:onProperty exactly once, each other component the least of
    its triples, every rdf:type triple of the node consumed."""
    (s, _, o), *components = RDF_FORMS[shape, False]
    at = {s: link_q.s, o: link_q.o}
    spent = [link_q, *props.get(RDF_TYPE, ())]
    for _, pred, value in components:
        if pred == RDF_TYPE:
            continue
        if pred == OWL_ONPROPERTY:
            found = view.single(node, pred)
            if found is None:
                raise err("restriction is missing owl:onProperty", node)
        elif pred in props:
            found = min(props[pred])
        else:  # the caller saw the form's own predicate: this is owl:onClass
            raise err("qualified cardinality is missing owl:onClass", node)
        if isinstance(value, int):
            at[value] = found.o
        elif found.o.kind != "literal" or found.o.lexical != value.lexical:
            raise err(
                f"unsupported cardinality {found.o.lexical!r} (only {value.lexical})", node
            )
        spent.append(found)
    view.consume(*spent)
    return _build(shape, at)


def _build(shape: str, at: dict) -> Axiom:
    """The axiom of ``shape`` whose argument i is ``at[i]``."""
    return axiom(shape, *(at[i] for i in range(len(SHAPE_SORTS[shape]))))


def _decode_eval(view, link_q, node, props, shape, err) -> Axiom:
    of = props.get(EVAL_OF)
    in_ = props.get(EVAL_IN)
    if not of or not in_:
        raise err("eval encoding is missing a component", node)
    of, in_ = min(of), min(in_)
    view.consume(link_q, of, in_)
    ctx_expr = in_.o
    if _atomic(ctx_expr):
        return axiom(shape, of.o, ctx_expr, link_q.o)
    one_of = view.single(ctx_expr, OWL_ONEOF)
    if one_of is None:
        raise err("eval context expression is neither a class nor a nominal", node)
    decoded = view.rdf_list(one_of.o)
    if decoded is None or len(decoded[0]) != 1 or not _atomic(decoded[0][0]):
        raise err("eval nominal must enumerate exactly one context", node)
    view.consume(one_of, *decoded[1])
    return axiom(shape, of.o, decoded[0][0], link_q.o, nominal_ctx=True)


def _decode_role_axioms(view, axioms, warn) -> None:
    for shape in (INV_ROLE, DIS_ROLE, SAME, DIFFERENT):
        ((s, pred, o),) = RDF_FORMS[shape, False]
        for q in view.by_p.get(pred, ()):
            axioms[_build(shape, {s: q.s, o: q.o})] = None
            view.consume(q)
    for q in view.by_p.get(OWL_PROPERTYCHAINAXIOM, ()):
        decoded = view.rdf_list(q.o)
        if decoded is None:
            warn(f"broken owl:propertyChainAxiom list at {q.s!r}")
            continue
        items, spent = decoded
        if len(items) != 2:
            warn(f"property chain at {q.s!r} is not a binary normal form")
            continue
        axioms[axiom(ROLE_CHAIN, items[0], items[1], q.s)] = None
        view.consume(q, *spent)


def _decode_assertions(view, axioms, warn) -> None:
    for q in view.quads:
        if q in view.consumed:
            continue
        if q.p == RDF_TYPE:
            if q.o == OWL_IRREFLEXIVEPROPERTY:
                axioms[axiom(IRR_ROLE, q.s)] = None
            elif q.o.kind == "iri" and not q.o.lexical.startswith(_RESERVED):
                axioms[axiom(CONCEPT_ASSERT, q.o, q.s)] = None
            elif q.o == OWL_RESTRICTION:
                warn(f"dangling restriction node {q.s!r}")
            else:
                # inert class declarations (owl:Class and friends)
                pass
            continue
        if q.p in _HANDLED_PREDICATES or q.p in _COMPONENT_PREDICATES:
            if q.p in _COMPONENT_PREDICATES:
                warn(f"dangling {q.p.lexical.rsplit('#', 1)[-1]} triple at {q.s!r}")
            continue
        if q.p.lexical.startswith(_RESERVED):
            warn(f"unrecognized reserved-vocabulary triple {q.s!r} {q.p!r} {q.o!r}")
            continue
        if is_meta_term(q.p) and q.p != MOD_PROPERTY:
            # contextual attributes and relations stay inert meta-triples
            continue
        if q.o.kind == "literal":
            # data values are carried through, not reasoned about
            continue
        axioms[axiom(ROLE_ASSERT, q.p, q.s, q.o)] = None

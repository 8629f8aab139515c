"""Namespace constants and the contextual meta-vocabulary.

The meta-vocabulary is fixed: the global graph ``ckr:global``, the context
class ``ckr:Ctx``, the module link ``ckr:mod``, the eval encoding
``ckr:evalOf``/``ckr:evalIn``, the inconsistency marker ``ckr:Inconsistent``
and the ``-inf`` suffix of inference graphs.  Every module reads these
constants; ``is_meta_term`` alone decides which IRIs are meta.  Generated
domain symbols use the ``:`` prefix.
"""
from __future__ import annotations

from urllib.parse import quote

from ckrbench.rdf.terms import Term, iri

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

CKR_NS = "http://example.org/ckr/meta#"
GEN_NS = "http://example.org/ckr/gen#"

# Deterministic auxiliary-node namespace used when inferred axioms that need
# helper nodes (restrictions, lists, negative assertions) are written back to
# inference graphs.  Unlike blank nodes, these survive a write/parse cycle
# unchanged, which keeps re-closing an already closed dataset a no-op.
SKOLEM_NS = "urn:ckr:sk:"

# Synthetic classes standing for singleton context sets {c}.
NOMINAL_NS = "urn:ckr:nom:"

RDF_TYPE = iri(RDF_NS + "type")
RDF_FIRST = iri(RDF_NS + "first")
RDF_REST = iri(RDF_NS + "rest")
RDF_NIL = iri(RDF_NS + "nil")

RDFS_SUBCLASSOF = iri(RDFS_NS + "subClassOf")
RDFS_SUBPROPERTYOF = iri(RDFS_NS + "subPropertyOf")

OWL_COMPLEMENTOF = iri(OWL_NS + "complementOf")
OWL_RESTRICTION = iri(OWL_NS + "Restriction")
OWL_ONPROPERTY = iri(OWL_NS + "onProperty")
OWL_HASVALUE = iri(OWL_NS + "hasValue")
OWL_SOMEVALUESFROM = iri(OWL_NS + "someValuesFrom")
OWL_ALLVALUESFROM = iri(OWL_NS + "allValuesFrom")
OWL_INTERSECTIONOF = iri(OWL_NS + "intersectionOf")
OWL_MAXQUALIFIEDCARDINALITY = iri(OWL_NS + "maxQualifiedCardinality")
OWL_ONCLASS = iri(OWL_NS + "onClass")
OWL_INVERSEOF = iri(OWL_NS + "inverseOf")
OWL_PROPERTYCHAINAXIOM = iri(OWL_NS + "propertyChainAxiom")
OWL_PROPERTYDISJOINTWITH = iri(OWL_NS + "propertyDisjointWith")
OWL_IRREFLEXIVEPROPERTY = iri(OWL_NS + "IrreflexiveProperty")
OWL_SAMEAS = iri(OWL_NS + "sameAs")
OWL_DIFFERENTFROM = iri(OWL_NS + "differentFrom")
OWL_NEGATIVEPROPERTYASSERTION = iri(OWL_NS + "NegativePropertyAssertion")
OWL_SOURCEINDIVIDUAL = iri(OWL_NS + "sourceIndividual")
OWL_ASSERTIONPROPERTY = iri(OWL_NS + "assertionProperty")
OWL_TARGETINDIVIDUAL = iri(OWL_NS + "targetIndividual")
OWL_ONEOF = iri(OWL_NS + "oneOf")

XSD_INTEGER = XSD_NS + "integer"
XSD_NONNEGATIVEINTEGER = XSD_NS + "nonNegativeInteger"
XSD_BOOLEAN = XSD_NS + "boolean"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_DOUBLE = XSD_NS + "double"
XSD_STRING = XSD_NS + "string"

#: Suffix appended to a graph name to obtain its inference graph.
INFERENCE_SUFFIX = "-inf"

#: Built-in prefix table shared by the reader, the writer and the CLI.
STANDARD_PREFIXES: dict[str, str] = {
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "owl": OWL_NS,
    "xsd": XSD_NS,
    "ckr": CKR_NS,
    "": GEN_NS,
}


#: The fixed CKR meta-vocabulary.  ``GLOBAL_GRAPH`` doubles as the name of
#: the default graph: plain Turtle input therefore lands in the global context.
GLOBAL_GRAPH = iri(CKR_NS + "global")
CTX_CLASS = iri(CKR_NS + "Ctx")
MOD_PROPERTY = iri(CKR_NS + "mod")
EVAL_OF = iri(CKR_NS + "evalOf")
EVAL_IN = iri(CKR_NS + "evalIn")
INCONSISTENT_CLASS = iri(CKR_NS + "Inconsistent")


def inference_graph(graph: Term) -> Term:
    return iri(graph.lexical + INFERENCE_SUFFIX)


def nominal_class(context: Term) -> Term:
    """Synthetic class standing for the singleton context set {context}.

    Deterministic in the context name, so repeated translations agree.
    """
    return iri(NOMINAL_NS + quote(context.lexical, safe=""))


def is_meta_term(term: Term) -> bool:
    """True for the ``ckr:`` meta-vocabulary and the synthetic nominal classes."""
    return term.kind == "iri" and term.lexical.startswith((CKR_NS, NOMINAL_NS))

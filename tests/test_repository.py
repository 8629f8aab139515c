"""Repository assembly from datasets."""
import pytest

from ckrbench.errors import AssemblyError
from ckrbench.generator import GenParams, generate_ckr
from ckrbench.model import axioms as ax
from ckrbench.model.axioms import axiom
from ckrbench.model.encoding import parse_axioms
from ckrbench.model.repository import assemble_repository, is_meta_axiom
from ckrbench.namespaces import CTX_CLASS, GLOBAL_GRAPH, MOD_PROPERTY, RDF_TYPE, nominal_class
from ckrbench.rdf.dataset import Dataset, Quad
from ckrbench.rdf.terms import blank
from util import gen, trig


def test_empty_dataset_assembles_empty_repository():
    repo = assemble_repository(Dataset())
    assert repo.global_axioms == frozenset()
    assert repo.modules == {}


def test_minimal_context_module_pair():
    d = trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . } "
        ":m0 { :A0 rdfs:subClassOf :A1 . }"
    )
    repo = assemble_repository(d)
    assert set(repo.modules) == {gen("m0")}
    assert repo.modules[gen("m0")].axioms == frozenset(
        {axiom(ax.SUB_CLASS, gen("A0"), gen("A1"))}
    )
    # structure axioms are meta-level, not object-level
    assert len(repo.global_axioms) == 2
    assert repo.global_object_axioms() == []
    assert repo.object_axiom_count() == 1


def test_mod_link_to_absent_graph_fails():
    d = trig("ckr:global { :c0 a ckr:Ctx ; ckr:mod :nowhere . }")
    with pytest.raises(AssemblyError, match="absent"):
        assemble_repository(d)


def test_mod_link_to_global_graph_fails():
    d = trig("ckr:global { :c0 a ckr:Ctx ; ckr:mod ckr:global . }")
    with pytest.raises(AssemblyError, match="global graph"):
        assemble_repository(d)


def test_eval_axiom_in_global_graph_fails():
    d = trig(
        "ckr:global { [ ckr:evalOf :D0 ; ckr:evalIn [ owl:oneOf ( :c1 ) ] ] "
        "rdfs:subClassOf :D1 . }"
    )
    with pytest.raises(AssemblyError, match="eval"):
        assemble_repository(d)


def test_unreachable_module_warns():
    d = trig("ckr:global { :c0 a ckr:Ctx . } :orphan { :a0 a :A0 . }")
    repo = assemble_repository(d)
    assert gen("orphan") in repo.modules
    assert any("unreachable" in w for w in repo.warnings)


def test_meta_axiom_classification():
    assert is_meta_axiom(axiom(ax.CONCEPT_ASSERT, CTX_CLASS, gen("c0")))
    assert is_meta_axiom(axiom(ax.ROLE_ASSERT, MOD_PROPERTY, gen("c0"), gen("m0")))
    assert is_meta_axiom(axiom(ax.CONCEPT_ASSERT, nominal_class(gen("c1")), gen("c1")))
    assert not is_meta_axiom(axiom(ax.SUB_CLASS, gen("A0"), gen("A1")))
    assert not is_meta_axiom(axiom(ax.CONCEPT_ASSERT, gen("A0"), gen("a0")))


def test_ts1_row_counts_five_contexts_scale_ten():
    # the 5-context, 10-class configuration: 35 global + 5 x 35 local = 210
    params = GenParams(
        n_contexts=5,
        n_classes=10,
        n_roles=10,
        n_individuals=20,
        global_tbox=10,
        global_rbox=5,
        global_abox=20,
        local_tbox=10,
        local_rbox=5,
        local_abox=20,
        seed=11,
    )
    repo = assemble_repository(generate_ckr(params))
    assert len(repo.modules) == 5
    assert len(repo.global_object_axioms()) == 35
    for module in repo.modules.values():
        assert len(module.axioms) == 35
    assert repo.object_axiom_count() == 210 == params.total_axioms()


def test_assembly_preserves_module_axioms():
    params = GenParams(
        n_contexts=3,
        n_classes=8,
        n_roles=6,
        n_individuals=12,
        global_tbox=6,
        global_rbox=3,
        global_abox=8,
        local_tbox=6,
        local_rbox=3,
        local_abox=8,
        seed=5,
    )
    d = generate_ckr(params)
    repo = assemble_repository(d)
    for name, module in repo.modules.items():
        assert module.axioms == frozenset(parse_axioms(d, name))


def test_context_kb_unions_shared_modules():
    d = trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 , :shared . "
        ":c1 a ckr:Ctx ; ckr:mod :shared . } "
        ":m0 { :A0 rdfs:subClassOf :A1 . } "
        ":shared { :a0 a :A0 . }"
    )
    repo = assemble_repository(d)
    mod_assoc = {
        (gen("c0"), gen("m0")),
        (gen("c0"), gen("shared")),
        (gen("c1"), gen("shared")),
    }
    assert repo.context_kb(gen("c0"), mod_assoc) == {
        axiom(ax.SUB_CLASS, gen("A0"), gen("A1")),
        axiom(ax.CONCEPT_ASSERT, gen("A0"), gen("a0")),
    }
    assert repo.context_kb(gen("c1"), mod_assoc) == {
        axiom(ax.CONCEPT_ASSERT, gen("A0"), gen("a0"))
    }


# Modules may not share blank nodes: a blank node may occur in at most one
# graph that is not an inference graph, whatever order the graphs come in.

def _two_contexts(m0_body: str, m1_body: str) -> Dataset:
    return trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . :c1 a ckr:Ctx ; ckr:mod :m1 . } "
        f":m0 {{ {m0_body} }} :m1 {{ {m1_body} }}"
    )


def test_in_memory_modules_sharing_a_blank_node_fail():
    shared = blank("shared")
    d = _two_contexts(":a a :A .", ":b a :B .")
    d.add_quads([
        Quad(shared, RDF_TYPE, gen("A"), gen("m0")),
        Quad(shared, RDF_TYPE, gen("B"), gen("m1")),
    ])
    with pytest.raises(AssemblyError) as err:
        assemble_repository(d)
    assert str(err.value) == (
        f"blank node _:shared is in graphs {gen('m0')!r} and {gen('m1')!r}; "
        "modules may not share blank nodes"
    )


def test_sharing_after_an_inference_graph_fails_whatever_the_order():
    # the inference graph comes first and may hold the node; the two
    # modules after it may not both hold it
    d = trig(":m0-inf { _:x a :A . } :m0 { _:x a :B . } :m1 { _:x a :C . }")
    with pytest.raises(AssemblyError, match="modules may not share") as err:
        assemble_repository(d)
    assert f"{gen('m0')!r} and {gen('m1')!r}" in str(err.value)


def test_sharing_with_the_global_graph_fails():
    d = _two_contexts(":a :p _:g .", ":b a :B .")
    d.add_quads(trig("ckr:global { _:g a :G . }"))
    with pytest.raises(AssemblyError, match="modules may not share") as err:
        assemble_repository(d)
    assert f"{GLOBAL_GRAPH!r} and {gen('m0')!r}" in str(err.value)


@pytest.mark.parametrize(
    "body",
    [
        ":m0 { _:x a :A . } :m0-inf { _:x a :B . }",
        ":m0-inf { _:x a :B . } :m0 { _:x a :A . }",
        "ckr:global { _:x a :A . } ckr:global-inf { _:x a :B . }",
        "ckr:global-inf { _:x a :B . } ckr:global { _:x a :A . }",
        # any number of inference graphs may hold it too
        ":m0 { _:x a :A . } :c0-inf { _:x a :B . } :c1-inf { _:x a :C . }",
    ],
    ids=["module-first", "inference-first", "global", "global-inference-first",
         "two-inference-graphs"],
)
def test_a_blank_node_in_one_graph_and_inference_graphs_assembles(body):
    d = trig(body)
    assert assemble_repository(d).dataset is d

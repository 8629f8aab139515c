"""Cross-cutting properties: monotonicity, concurrency, scale spot checks."""
import ast
import random
import threading
from pathlib import Path

from ckrbench.engine.closure import compute_closure
from ckrbench.engine.rules import instantiate_ruleset
from ckrbench.generator import generate_ckr
from ckrbench.model import axioms as ax
from ckrbench.model.axioms import axiom
from ckrbench.model.encoding import BlankMinter, encode_axioms
from ckrbench.model.repository import assemble_repository
from util import gen, random_ckr_params


def test_adding_axioms_never_removes_conclusions():
    rng = random.Random(99)
    params = random_ckr_params(rng, 0)
    dataset = generate_ckr(params)
    regime = instantiate_ruleset("ckr-owl-local")
    before = compute_closure(assemble_repository(dataset), regime).facts.as_set()
    # graft three extra axioms onto the first module
    module = gen("m0")
    extra = [
        axiom(ax.SUB_CLASS, gen("A0"), gen("Afresh")),
        axiom(ax.CONCEPT_ASSERT, gen("A0"), gen("afresh")),
        axiom(ax.ROLE_ASSERT, gen("R0"), gen("afresh"), gen("a0")),
    ]
    encode_axioms(dataset, module, extra, BlankMinter("extra"))
    after = compute_closure(assemble_repository(dataset), regime).facts.as_set()
    assert before <= after
    assert ("inst", gen("afresh"), gen("Afresh"), gen("c0")) in after


def test_concurrent_closures_agree():
    dataset = generate_ckr(random_ckr_params(random.Random(5), 0))
    repo = assemble_repository(dataset)
    regime = instantiate_ruleset("ckr-owl-local")
    results = [None] * 4
    def work(i):
        results[i] = compute_closure(repo, regime).facts.as_set()
    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_no_module_starts_threads_or_processes():
    # the store and the engine are single-threaded by design
    banned = {"threading", "multiprocessing", "concurrent", "asyncio"}
    src = Path(__file__).resolve().parent.parent / "src"
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in banned, f"{path.name} imports {name}"


def test_only_the_writer_sorts():
    # the writer in rdf/trig.py orders quads, terms and graph names; the
    # store, the reader, assembly and the engine keep insertion order
    package = Path(__file__).resolve().parent.parent / "src" / "ckrbench"
    for name in ("rdf/dataset.py", "rdf/terms.py", "model/encoding.py",
                 "model/repository.py", "engine/closure.py", "calculus.py"):
        path = package / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            assert not (isinstance(func, ast.Name) and func.id == "sorted"), (
                f"{name}:{node.lineno} calls sorted("
            )
            assert not (isinstance(func, ast.Attribute) and func.attr == "sort"), (
                f"{name}:{node.lineno} calls .sort("
            )


def test_rdf_layer_knows_no_repository_rule():
    # rdf/ reads and writes plain RDF: it imports nothing from the layers
    # above it and does not know which graphs are inference graphs
    banned = ("ckrbench.model", "ckrbench.engine", "ckrbench.calculus")
    rdf = Path(__file__).resolve().parent.parent / "src" / "ckrbench" / "rdf"
    for path in sorted(rdf.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            for module in modules:
                assert not module.startswith(banned), f"{path.name} imports {module}"
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            assert name != "INFERENCE_SUFFIX", f"{path.name} names {name}"

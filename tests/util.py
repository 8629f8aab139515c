"""Shared helpers for the test suite."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from ckrbench.generator import GenParams
from ckrbench.namespaces import GEN_NS
from ckrbench.rdf.dataset import Dataset, Quad
from ckrbench.rdf.terms import Term, iri, literal
from ckrbench.rdf.trig import load_dataset


def gen(name: str) -> Term:
    return iri(GEN_NS + name)


PREAMBLE = """\
@prefix : <http://example.org/ckr/gen#> .
@prefix ckr: <http://example.org/ckr/meta#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
"""


def run_python(script: str, hash_seed: int | None = None) -> str:
    """Standard output of ``script`` run in a fresh interpreter, with
    ``PYTHONHASHSEED`` set to ``hash_seed`` when one is given."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


def trig(body: str) -> Dataset:
    return load_dataset(PREAMBLE + body)


def random_dataset(seed: int, n_quads: int) -> Dataset:
    """Random quads over a small vocabulary; IRIs and literals only."""
    rng = random.Random(seed)
    quads = []
    graphs = [gen(f"g{i}") for i in range(5)]
    for _ in range(n_quads):
        s = gen(f"s{rng.randrange(40)}")
        p = gen(f"p{rng.randrange(12)}")
        if rng.random() < 0.25:
            o: Term = literal(f"value {rng.randrange(30)}")
        else:
            o = gen(f"o{rng.randrange(40)}")
        quads.append(Quad(s, p, o, rng.choice(graphs)))
    d = Dataset()
    d.add_quads(quads)
    return d


def random_ckr_params(rng: random.Random, index: int) -> GenParams:
    """Small random repository configuration for oracle comparison."""
    return GenParams(
        n_contexts=rng.randint(1, 5),
        n_classes=rng.randint(5, 15),
        n_roles=rng.randint(4, 10),
        n_individuals=rng.randint(8, 20),
        global_tbox=rng.randint(3, 20),
        global_rbox=rng.randint(2, 10),
        global_abox=rng.randint(5, 20),
        local_tbox=rng.randint(3, 20),
        local_rbox=rng.randint(2, 10),
        local_abox=rng.randint(5, 20),
        n_eval_axioms=rng.randint(0, 5),
        n_propagated_individuals=rng.randint(1, 3),
        seed=rng.randrange(2**32),
        label=f"random-{index}",
    )

"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench -q

The layer-table test makes one traced pass of every workload (about a
minute on two cores).
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import tracer as tracing  # noqa: E402

with open(os.path.join(HERE, "reference.json")) as fh:
    REFERENCE = json.load(fh)


def test_benchmark_json_lists_the_tracer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(REFERENCE)
    counters = {name for row in tracing.TABLE for name in row[0]}
    assert counters <= {name for name, _unit, _better in tracing.PER_LAYER}


def _module_bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "ginshift" or name.startswith("ginshift.")
            for attr, value in vars(mod).items() if callable(value)}


def _class_attributes():
    changes = importlib.import_module("ginshift.changes")
    linalg = importlib.import_module("ginshift.linalg")
    ideals = importlib.import_module("ginshift.ideals")
    orders = importlib.import_module("ginshift.orders")
    return {(cls.__name__, attr): value
            for cls in (changes.CoordinateChange, linalg.Subspace,
                        ideals.MonomialIdeal, orders.TermOrder)
            for attr, value in vars(cls).items()}


def test_tracer_patches_every_binding_and_restores_it():
    importlib.import_module("ginshift.cli")
    before, methods = _module_bindings(), _class_attributes()
    verifier = importlib.import_module("ginshift.verifier")
    gin = importlib.import_module("ginshift.gin")
    invariants = importlib.import_module("ginshift.invariants")
    linalg = importlib.import_module("ginshift.linalg")
    tracer = tracing.Tracer("test")
    tracing.install(tracer)
    try:
        assert tracer.missing == []
        # the caller's binding, not only the defining module's
        for mod, attr in ((verifier, "gin_multi"), (verifier, "gin_space"),
                          (gin, "gin_space"), (linalg, "rref_exact"),
                          (invariants, "rref_exact")):
            assert getattr(mod, attr) is not before[(mod.__name__, attr)]
        ideal = invariants.MonomialIdeal.make(
            "poly", 3, [invariants.squarefree_poly(s, 3)
                        for s in ((1, 2), (1, 3), (2, 3))])
        invariants.resolution_oracle(ideal)
    finally:
        assert tracer.uninstall() == []
    assert _module_bindings() == before
    assert _class_attributes() == methods
    metrics = tracer.metrics()
    assert metrics["invariants.oracle.calls"] == 1
    assert metrics["invariants.oracle.taylor_faces"] == 7
    assert metrics["linalg.rref_exact.calls"] > 0
    assert metrics["gin.certify.calls"] == 0


@pytest.mark.parametrize("workload", list(REFERENCE))
def test_layer_table(workload, tmp_path):
    """Every predicted-zero cell of the layer table reads 0 calls and every
    should-move cell reads non-zero, on a traced pass whose output matches
    the reference."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC,
         "--workload", workload, "--seed", "0",
         "--trace", str(tmp_path / "spans.npz")],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert not doc.get("error"), done.stderr
    assert doc["digest"] == REFERENCE[workload]["digest"]
    assert doc["failed"] == 0
    layers = dict(doc["layers"], **{"trace.run_s": 0, "trace.overhead_s": 0})
    assert tracing.table_mismatches(workload, layers) == []
    assert (tmp_path / "spans.npz").stat().st_size > 0

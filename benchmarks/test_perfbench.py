"""Tests of the benchmark itself: inputs, reference checks, quick runs.

    python -m pytest -q benchmarks
"""

from __future__ import annotations

import copy
import json

import pytest

import run  # first: puts the repository's src/ on sys.path
import reference
import spans
import workloads
from photonmesh import compiler

QUICK_SECONDS = 0.01


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    spec = workloads.FULL[name]
    assert workloads.make_inputs(spec, 5) == workloads.make_inputs(spec, 5)
    if spec.pool > 1:
        assert workloads.make_inputs(spec, 5) != workloads.make_inputs(spec, 6)


def _photon_graph_is_forest(circuit: dict) -> bool:
    photon = list(range(circuit["qubits"]))
    edges: set[frozenset[int]] = set()
    logical: set[frozenset[int]] = set()
    for g in circuit["gates"]:
        if g["g"] == "SWAP":
            photon[g["a"]], photon[g["b"]] = photon[g["b"]], photon[g["a"]]
        elif g["g"] in ("CZ", "CNOT"):
            pair = frozenset((g["c"], g["t"]))
            if pair in logical:
                return False
            logical.add(pair)
            edges.add(frozenset((photon[g["c"]], photon[g["t"]])))
    # A graph is a forest iff a DFS never meets a visited vertex twice.
    neighbours: dict[int, set[int]] = {}
    for a, b in (tuple(e) for e in edges):
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    seen: set[int] = set()
    for root in neighbours:
        if root in seen:
            continue
        stack = [(root, None)]
        while stack:
            node, parent = stack.pop()
            if node in seen:
                return False
            seen.add(node)
            stack += [(n, node) for n in neighbours[node] if n != parent]
    return True


def test_random_forest_inputs_are_forests_without_repeated_pairs():
    circuits = workloads.make_inputs(workloads.FULL["random_forest"], 0)
    far = total = 0
    for circuit in circuits:
        names = [g["g"] for g in circuit["gates"]]
        assert len(names) == 25
        assert sum(n in ("CZ", "CNOT") for n in names) == 3
        assert names.count("SWAP") == 2
        assert _photon_graph_is_forest(circuit)
        for g in circuit["gates"]:
            if g["g"] in ("CZ", "CNOT"):
                total += 1
                far += abs(g["c"] - g["t"]) > 1
    assert far / total > 0.5
    used = {g["g"] for c in circuits for g in c["gates"]}
    assert set(workloads.SINGLE_QUBIT) <= used


def test_compile_place_inputs_fit_clements_at_default_seed():
    for circuit in workloads.make_inputs(workloads.FULL["compile_place"], 0):
        assert 16 <= circuit["qubits"] <= 32
        assert _photon_graph_is_forest(circuit)
        result = compiler.compile_circuit(compiler.parse_circuit(circuit))
        assert result.assignment is not None


def test_dense_reference_matches_textbook_bell_state():
    bell = {"qubits": 2, "gates": [{"g": "H", "q": 0}, {"g": "CNOT", "c": 0, "t": 1}]}
    state = reference.dense_state(bell)
    assert state == pytest.approx([2**-0.5, 0, 0, 2**-0.5])


def test_forest_check_rejects_wrong_outputs(tmp_path):
    spec = workloads.QUICK["random_forest"]
    circuit = workloads.make_inputs(spec, 0)[0]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(circuit))
    code, text, _ = run.run_op(["simulate", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert reference.check_forest(payload, circuit) is None
    wrong = copy.deepcopy(payload)
    bits = max(wrong["amplitudes"], key=lambda b: abs(complex(*wrong["amplitudes"][b])))
    wrong["amplitudes"][bits] = [0.0, 0.0]
    assert reference.check_forest(wrong, circuit) is not None
    wrong = dict(payload, success_probability=payload["success_probability"] * 1.001)
    assert reference.check_forest(wrong, circuit) is not None


def test_placement_check_rejects_wrong_tables(tmp_path):
    circuit = workloads.make_inputs(workloads.QUICK["compile_place"], 0)[0]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(circuit))
    code, text, _ = run.run_op(["compile", str(path), "--format", "json"])
    assert code == 0
    table = json.loads(text)
    unplaced = compiler.compile_circuit(
        compiler.parse_circuit(circuit), compiler.CompileOptions(place=False)
    )
    assert reference.check_placement(table, unplaced.program) is None
    used = next(s for s in table["slots"] if s["role"] not in ("ID", "X"))
    used["theta1"] += 1e-3
    assert reference.check_placement(table, unplaced.program) is not None
    table["slots"][table["slots"].index(used)]["theta1"] -= 1e-3
    table["truncations"] = []
    assert reference.check_placement(table, unplaced.program) is not None


def test_cz4x4_check_rejects_a_faithful_cz():
    assert reference.check_cz4x4(
        {"best_process_fidelity": 0.9999, "best_success_probability": 0.01,
         "constraint_residual": 0.5}
    ) is not None


@pytest.fixture(scope="module")
def quick_traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    runs = {
        name: run.run(name, 0, QUICK_SECONDS, True, quick=True, out_dir=out)
        for name in workloads.WORKLOADS
    }
    return out, runs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_runs_quick(name, tmp_path):
    result, metrics, failures = run.run(name, 0, QUICK_SECONDS, False, quick=True, out_dir=tmp_path)
    assert failures == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == run.END_TO_END
    assert metrics["fail_frac"][0] == 0.0
    assert all(result["metrics"][m]["value"] > 0 for m in run.END_TO_END)
    assert metrics["setup_s"][1] == run.SETUPS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_runs_quick_traced(name, quick_traced):
    out, runs = quick_traced
    result, metrics, failures = runs[name]
    assert failures == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == run.PER_LAYER
    assert (out / f"spans-{name}-0.jsonl").stat().st_size > 0
    # Every moment of an op lies in exactly one span's self time.
    self_sum = sum(metrics[f"self_s.{m}"][0] for m in spans.MODULES)
    assert self_sum == pytest.approx(metrics["trace.op_s"][0], rel=1e-9)


def test_every_listed_layer_metric_is_measured(quick_traced):
    _, runs = quick_traced
    silent = [
        name for name in run.PER_LAYER
        if all(metrics[name][0] == 0 for _, metrics, _ in runs.values())
    ]
    assert silent == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_across_runs(name, tmp_path):
    def counts():
        _, metrics, _ = run.run(name, 3, QUICK_SECONDS, True, quick=True, out_dir=tmp_path)
        return {k: v[0] for k, v in metrics.items() if run.UNITS[k] in ("count", "B", "prob")}

    first = counts()
    assert first == counts()
    if name == "cz4x4":
        assert first["analysis.evaluations"] > 0
    else:
        assert first["compiler.steps"] > 0


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_step_kinds_follow_layer_labels():
    from spans import step_kind

    assert [step_kind(x) for x in ("route q0-q2", "restore q0-q2", "SWAP q1-q3")] == ["swap2"] * 3
    assert [step_kind(x) for x in ("CZ q0-q1", "CNOT q0-q1")] == ["ps"] * 2
    assert [step_kind(x) for x in ("CNOT H q1", "unflip q2", "H q0", "RZ q1")] == ["mzi1"] * 4


@pytest.mark.xfail(
    strict=True,
    reason="solve_mzi_settings raises for RX angles below about 4e-4, so a "
    "random_forest or compile_place run that draws one reports a failed op",
)
def test_near_identity_rotation_compiles(tmp_path):
    path = tmp_path / "rx.json"
    path.write_text(json.dumps(
        {"qubits": 1, "gates": [{"g": "RX", "q": 0, "angle": 4.5409924698258664e-05}]}
    ))
    code, _, _ = run.run_op(["compile", str(path), "--format", "json"])
    assert code == 0

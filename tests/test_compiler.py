"""Circuit parsing, compilation, routing, placement, and simulation."""

from __future__ import annotations

import collections
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from photonmesh import fock, gates
from photonmesh.compiler import (
    CircuitIR,
    CircuitParseError,
    CompileOptions,
    GateOp,
    IllegalCascade,
    MeshAssignment,
    PlacedBlock,
    PlacementOverflow,
    TruncationMark,
    assignment_program,
    bell_circuit,
    column_count,
    column_tops,
    compile_circuit,
    compile_ghz_swap_variant,
    decode_logical,
    enumerate_placements,
    ghz_chain_circuit,
    parse_circuit,
    place_in_mesh,
    simulate_circuit,
    top_span,
)
from photonmesh import compiler
from photonmesh.linalg import IDENTITY_SETTING, MziSetting

from helpers import (
    brickwork,
    dense_circuit_state,
    flat_program,
    fused_fold_problems,
    keep_checked,
    logical_checks,
    mesh_layers,
    per_layer_program,
    reference_frames,
    reference_light_cone,
    reference_mesh_columns,
    reference_place_in_mesh,
    single_gate_matrix,
    state_fidelity,
)


def test_parse_circuit_accepts_all_gate_forms():
    data = {
        "qubits": 3,
        "gates": [
            {"g": "H", "q": 0},
            {"g": "rz", "q": 1, "angle": 0.25},
            {"g": "CNOT", "c": 0, "t": 1},
            {"g": "CZ", "c": 1, "t": 2},
            {"g": "SWAP", "a": 0, "b": 2},
        ],
    }
    circuit = parse_circuit(data)
    assert circuit.qubit_count == 3
    assert circuit.gates[1] == GateOp("RZ", (1,), 0.25)
    assert circuit.gates[2] == GateOp("CNOT", (0, 1))
    assert circuit.gates[4] == GateOp("SWAP", (0, 2))


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"qubits": 0},
        {"qubits": True},
        {"qubits": 2, "gates": {"g": "H"}},
        {"qubits": 2, "gates": [{"q": 0}]},
        {"qubits": 2, "gates": [{"g": "H", "q": 2}]},
        {"qubits": 2, "gates": [{"g": "H", "q": 0, "angle": 1.0}]},
        {"qubits": 2, "gates": [{"g": "RZ", "q": 0}]},
        {"qubits": 2, "gates": [{"g": "RZ", "q": 0, "angle": "x"}]},
        {"qubits": 2, "gates": [{"g": "CNOT", "c": 0, "t": 0}]},
        {"qubits": 2, "gates": [{"g": "SWAP", "a": 1, "b": 1}]},
        {"qubits": 2, "gates": [{"g": "FLIP", "q": 0}]},
        {"qubits": 2, "gates": [{"g": "CZ", "c": 0, "t": 1, "angle": 0.3}]},
        {"qubits": 2, "gates": [{"g": "CNOT", "c": 0, "t": 1, "angle": 0.3}]},
        {"qubits": 2, "gates": [{"g": "SWAP", "a": 0, "b": 1, "angle": 0.3}]},
    ],
)
def test_parse_circuit_rejects_malformed_input(data):
    with pytest.raises(CircuitParseError):
        parse_circuit(data)


@pytest.mark.parametrize("gate", ["RX", "RY", "RZ"])
@pytest.mark.parametrize(
    "angle",
    [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["nan", "inf", "-inf", "int-1e400"],
)
def test_parse_circuit_rejects_non_finite_angles(gate, angle):
    # json.load reads NaN, Infinity and -Infinity, and integers of any size
    data = {"qubits": 1, "gates": [{"g": gate, "q": 0, "angle": angle}]}
    with pytest.raises(CircuitParseError, match=f"^{gate} needs a finite 'angle'$"):
        parse_circuit(data)


def test_parse_circuit_keeps_large_finite_angles():
    data = {"qubits": 1, "gates": [{"g": "RX", "q": 0, "angle": 2**1000}]}
    assert parse_circuit(data).gates[0] == GateOp("RX", (0,), float(2**1000))


def test_builtin_circuits():
    bell = bell_circuit()
    assert bell.qubit_count == 2
    assert [op.name for op in bell.gates] == ["H", "CNOT"]
    ghz = ghz_chain_circuit(4)
    assert [op.name for op in ghz.gates] == ["H", "CNOT", "CNOT", "CNOT"]
    assert [op.qubits for op in ghz.gates[1:]] == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ValueError):
        ghz_chain_circuit(1)


def test_bell_state_simulation():
    sim = simulate_circuit(bell_circuit())
    expected = np.zeros(4, dtype=complex)
    expected[0b00] = expected[0b11] = 1 / np.sqrt(2)
    assert state_fidelity(sim.amplitudes, expected) > 1 - 1e-10
    assert sim.success_probability == pytest.approx(1 / 9, abs=1e-10)
    # canonical global phase: decoded amplitudes are real positive here
    assert sim.amplitudes[0b00].real == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    assert sim.amplitudes[0b11].real == pytest.approx(1 / np.sqrt(2), abs=1e-10)


def test_bell_on_nonzero_input():
    sim = simulate_circuit(bell_circuit(), "01")
    expected = np.zeros(4, dtype=complex)
    expected[0b01] = expected[0b10] = 1 / np.sqrt(2)
    assert state_fidelity(sim.amplitudes, expected) > 1 - 1e-10


def test_ghz_chain_simulation():
    sim = simulate_circuit(ghz_chain_circuit(3))
    expected = np.zeros(8, dtype=complex)
    expected[0b000] = expected[0b111] = 1 / np.sqrt(2)
    assert state_fidelity(sim.amplitudes, expected) > 1 - 1e-10
    assert sim.success_probability == pytest.approx(1 / 81, abs=1e-10)


def test_swap_sandwich_cz_form_agrees_with_compressed():
    options = CompileOptions(cz_form="swap-sandwich")
    sim = simulate_circuit(bell_circuit(), options=options)
    expected = np.zeros(4, dtype=complex)
    expected[0b00] = expected[0b11] = 1 / np.sqrt(2)
    assert state_fidelity(sim.amplitudes, expected) > 1 - 1e-10
    assert sim.success_probability == pytest.approx(1 / 9, abs=1e-10)


def test_unknown_cz_form_rejected():
    with pytest.raises(ValueError):
        simulate_circuit(bell_circuit(), options=CompileOptions(cz_form="bogus"))
    # refused up front, also when no CZ or CNOT would read it
    circuit = CircuitIR(2, (GateOp("H", (0,)), GateOp("SWAP", (0, 1))))
    for place in (True, False):
        with pytest.raises(ValueError, match="unknown cz_form 'bogus'"):
            compile_circuit(circuit, CompileOptions(cz_form="bogus", place=place))
    with pytest.raises(ValueError, match="unknown cz_form 'bogus'"):
        simulate_circuit(circuit, options=CompileOptions(cz_form="bogus"))


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        compile_circuit(bell_circuit(), CompileOptions(scheme="hex"))
    for place in (True, False):
        with pytest.raises(ValueError, match="unknown mesh scheme 'hex'"):
            compile_circuit(CircuitIR(1, ()), CompileOptions(scheme="hex", place=place))


def test_scheme_check_builds_no_mesh():
    # a 3000-mode Clements mesh alone is 4.5M tuple entries (about 160 MiB)
    circuit = CircuitIR(1000, (GateOp("H", (0,)),))
    tracemalloc.start()
    try:
        result = compile_circuit(circuit, CompileOptions(place=False))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.assignment is None and len(result.program.steps) == 1
    assert peak < 4 * 2**20


# Fixed gates, rotations, both flip states, CZ/CNOT and a logical SWAP.
REUSE_CIRCUITS = (
    {"qubits": 4, "gates": [
        {"g": "H", "q": 0}, {"g": "X", "q": 3}, {"g": "CNOT", "c": 0, "t": 3},
        {"g": "T", "q": 3}, {"g": "RZ", "q": 1, "angle": 0.3},
        {"g": "CZ", "c": 1, "t": 2}, {"g": "SWAP", "a": 0, "b": 2},
        {"g": "Y", "q": 2}, {"g": "RX", "q": 0, "angle": -0.7}, {"g": "H", "q": 2},
        {"g": "Z", "q": 1}, {"g": "I", "q": 0}, {"g": "RY", "q": 3, "angle": 2.0},
    ]},
    {"qubits": 3, "gates": [
        {"g": "H", "q": 2}, {"g": "CZ", "c": 2, "t": 0}, {"g": "H", "q": 0},
        {"g": "T", "q": 0}, {"g": "CNOT", "c": 1, "t": 2}, {"g": "X", "q": 0},
    ]},
)


def test_networks_and_fixed_devices_are_built_once_per_process(monkeypatch):
    runs = [
        (data, form, restore)
        for data in REUSE_CIRCUITS
        for form in ("compressed", "swap-sandwich")
        for restore in (True, False)
    ]
    compiler._swap2_layers.cache_clear()
    compiler._cz_layers.cache_clear()
    compiler._fixed_gate_layers.cache_clear()
    compiler._post_selected_form.cache_clear()  # it holds the networks above
    counts = collections.Counter()
    built = ("swap_networks", "cz_ps_regular", "cz_ps_nonregular", "solve_mzi_settings")
    for name in built:
        original = getattr(gates, name)
        monkeypatch.setattr(
            gates, name, lambda *a, _f=original, _n=name: counts.update([_n]) or _f(*a)
        )
    fixed = []
    gate_layers = compiler._gate_layers

    def counted_gate_layers(name, angle, flipped):
        if angle is None:
            fixed.append((name, flipped))
        return gate_layers(name, angle, flipped)

    monkeypatch.setattr(compiler, "_gate_layers", counted_gate_layers)

    def compile_all():
        return [
            compile_circuit(
                parse_circuit(data),
                CompileOptions(place=False, cz_form=form, restore_swaps=restore),
            ).program
            for data, form, restore in runs
        ]

    programs = compile_all()
    assert counts["swap_networks"] == counts["cz_ps_regular"] == 1
    assert counts["cz_ps_nonregular"] == 1
    # each fixed device is solved once, the flipped forms apart
    assert len(fixed) == len(set(fixed))
    assert {("H", False), ("H", True), ("X", False)} <= set(fixed)
    # a second pass solves only its rotations
    counts.clear()
    assert compile_all() == programs
    rotations = sum(
        g["g"] in ("RZ", "RX", "RY") for data, _, _ in runs for g in data["gates"]
    )
    assert counts == {"solve_mzi_settings": rotations}
    # an unknown form is still refused once the cache is warm
    with pytest.raises(ValueError, match="unknown cz_form"):
        simulate_circuit(bell_circuit(), options=CompileOptions(cz_form="bogus"))
    # the same programs as a fresh process builds, to the last bit
    script = (
        "import json, sys\n"
        "from photonmesh.compiler import CompileOptions, compile_circuit, parse_circuit\n"
        "for data, form, restore in json.load(sys.stdin):\n"
        "    options = CompileOptions(place=False, cz_form=form, restore_swaps=restore)\n"
        "    print(repr(compile_circuit(parse_circuit(data), options).program))\n"
    )
    src = str(pathlib.Path(compiler.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(runs),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert proc.stdout.splitlines() == [repr(p) for p in programs]


def test_compiler_hands_devices_the_gate_matrix_entries(monkeypatch):
    # A gate's device is the entries single_qubit_matrix wraps; on flipped
    # rails it is their exact permutation, X g X.
    handed = []
    device_block = gates.device_block
    monkeypatch.setattr(
        gates, "device_block", lambda *a: handed.append(a[1]) or device_block(*a)
    )
    rng = np.random.default_rng(14)
    for name in compiler.SINGLE_QUBIT_GATES:
        rotation = name in compiler.ROTATION_GATES
        for angle in rng.uniform(-np.pi, np.pi, size=5) if rotation else (None,):
            angle = None if angle is None else float(angle)
            g = gates.single_qubit_matrix(name, angle)
            assert np.max(np.abs(g - single_gate_matrix(name, angle))) <= 1e-15
            for flipped in (False, True):
                handed.clear()
                compiler._gate_layers(name, angle, flipped)
                (device,) = handed
                expected = gates.PAULI_X @ g @ gates.PAULI_X if flipped else g
                assert np.array_equal(np.array(device, dtype=complex), expected)


def test_ghz_swap_variant_relabeling_and_state():
    result = compile_ghz_swap_variant()
    assert result.assignment is None
    assert result.positions == (0, 2, 1)
    assert result.flips == (0, 1, 1)
    gate_labels = [
        step.label for step in result.program.steps
        if isinstance(step, fock.LinearLayer) and isinstance(step.blocks, fock.PostSelectedGate)
    ]
    assert gate_labels == ["CNOT q0-q1", "CNOT q0-q2"]
    state = fock.prepare_computational_basis("000", 3)
    final = fock.run_program(result.program, state)
    projected = fock.project_qubit_structure(final)
    amps, prob = decode_logical(projected, result.positions, result.flips)
    expected = np.zeros(8, dtype=complex)
    expected[0b000] = expected[0b111] = 1 / np.sqrt(2)
    assert state_fidelity(fock.dense_amplitudes(amps, 3), expected) > 1 - 1e-10
    assert prob == pytest.approx(1 / 81, abs=1e-10)
    # read positionally (no relabeling) the photons sit in (|011> + |100>)/sqrt(2)
    raw, _ = decode_logical(projected, (0, 1, 2), (0, 0, 0))
    raw = fock.dense_amplitudes(raw, 3)
    assert abs(raw[0b011]) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    assert abs(raw[0b100]) == pytest.approx(1 / np.sqrt(2), abs=1e-10)


@pytest.mark.parametrize("cz_form", ["compressed", "swap-sandwich"])
def test_ghz_swap_variant_emits_two_cnots_around_one_route(cz_form):
    # one program step per emitted network, each holding the cached tuple;
    # each CNOT is two steps, its whole network (H, the CZ network, H on
    # the target's rails) and then its post-selection
    program = compile_ghz_swap_variant(CompileOptions(cz_form=cz_form)).program

    def cnot(t):
        return [(f"CNOT q0-q{t}", 0), (0, 3)]

    steps = [
        (s.label, s.offset) if isinstance(s, fock.LinearLayer) else s.modes
        for s in program.steps
    ]
    assert steps == [("H q0", 1)] + cnot(1) + [("route q2", 3)] + cnot(2)
    gate = compiler._post_selected_form(cz_form, 4)  # both targets sit at triplet 1
    (h,) = compiler._fixed_gate_layers("H", False)
    cz = compiler._cz_layers(cz_form)
    assert gate[0] is gate[-1] and len(gate) == len(cz) + 2
    assert (gate[0].top_mode, gate[0].setting, gate[0].role) == (4, h.setting, "H")
    assert all(mine is theirs for mine, theirs in zip(gate[1:-1], cz))
    networks = {"CNOT q": gate, "route ": compiler._swap2_layers()}
    for step in program.steps:
        if isinstance(step, fock.LinearLayer) and step.label[:6] in networks:
            assert step.blocks is networks[step.label[:6]], step.label


def test_nonadjacent_gate_routes_and_restores():
    circuit = parse_circuit(
        {
            "qubits": 3,
            "gates": [
                {"g": "H", "q": 0},
                {"g": "H", "q": 2},
                {"g": "CZ", "c": 0, "t": 2},
            ],
        }
    )
    sim = simulate_circuit(circuit)
    oracle = dense_circuit_state(circuit, "000")
    assert state_fidelity(sim.amplitudes, oracle) > 1 - 1e-10
    assert sim.compile_result.positions == (0, 1, 2)
    # the swap-out discharges qubit 2's rail flip mid-gate, so the restore
    # swap leaves a recorded flip; decode_logical accounts for it above
    assert sim.compile_result.flips == (0, 0, 1)
    assert sim.success_probability == pytest.approx(1 / 9, abs=1e-10)


def test_routing_without_restore_reports_relabeling():
    circuit = parse_circuit(
        {"qubits": 3, "gates": [{"g": "H", "q": 0}, {"g": "CNOT", "c": 0, "t": 2}]}
    )
    sim = simulate_circuit(circuit, options=CompileOptions(restore_swaps=False))
    oracle = dense_circuit_state(circuit, "000")
    assert state_fidelity(sim.amplitudes, oracle) > 1 - 1e-10
    assert sim.compile_result.positions != (0, 1, 2)


def test_logical_swap_keeps_positions_and_crosses_flips():
    circuit = parse_circuit(
        {"qubits": 2, "gates": [{"g": "X", "q": 0}, {"g": "SWAP", "a": 0, "b": 1}]}
    )
    sim = simulate_circuit(circuit)
    assert sim.compile_result.positions == (0, 1)
    assert sim.compile_result.flips == (1, 1)
    assert abs(sim.amplitudes[0b01]) == pytest.approx(1.0, abs=1e-10)
    assert sim.success_probability == pytest.approx(1.0, abs=1e-10)


def test_gates_after_swap_act_on_flipped_rails():
    circuit = parse_circuit(
        {
            "qubits": 2,
            "gates": [
                {"g": "SWAP", "a": 0, "b": 1},
                {"g": "H", "q": 0},
                {"g": "T", "q": 0},
                {"g": "T", "q": 1},
            ],
        }
    )
    sim = simulate_circuit(circuit, "01")
    oracle = dense_circuit_state(circuit, "01")
    assert state_fidelity(sim.amplitudes, oracle) > 1 - 1e-9


def test_flips_discharged_before_postselected_gates():
    circuit = parse_circuit(
        {
            "qubits": 2,
            "gates": [
                {"g": "H", "q": 0},
                {"g": "SWAP", "a": 0, "b": 1},
                {"g": "CNOT", "c": 0, "t": 1},
            ],
        }
    )
    sim = simulate_circuit(circuit)
    oracle = dense_circuit_state(circuit, "00")
    assert state_fidelity(sim.amplitudes, oracle) > 1 - 1e-9
    assert sim.success_probability == pytest.approx(1 / 9, abs=1e-10)
    assert sim.compile_result.flips == (0, 0)


def test_illegal_cascade_detection():
    circuit = parse_circuit(
        {
            "qubits": 2,
            "gates": [{"g": "CNOT", "c": 0, "t": 1}, {"g": "CNOT", "c": 0, "t": 1}],
        }
    )
    with pytest.raises(IllegalCascade):
        compile_circuit(circuit, CompileOptions(place=False))


def test_cascade_refusal_is_orientation_blind_and_swap_proof():
    circuit = parse_circuit(
        {
            "qubits": 2,
            "gates": [
                {"g": "CNOT", "c": 0, "t": 1},
                {"g": "SWAP", "a": 0, "b": 1},
                {"g": "CZ", "c": 1, "t": 0},
            ],
        }
    )
    with pytest.raises(IllegalCascade):
        compile_circuit(circuit, CompileOptions(place=False))


@pytest.mark.parametrize("again", [(0, 3), (3, 0)], ids=["same", "reversed"])
def test_cascade_refusal_catches_a_routed_pair_in_either_orientation(again):
    # a routed pair, after other gates, is still refused
    ops = [
        {"g": "CZ", "c": 0, "t": 3},
        {"g": "CNOT", "c": 1, "t": 2},
        {"g": "CNOT", "c": again[0], "t": again[1]},
    ]
    with pytest.raises(IllegalCascade):
        compile_circuit(parse_circuit({"qubits": 4, "gates": ops}), CompileOptions(place=False))


def test_distinct_pairs_do_not_cascade():
    # tree-shaped interactions: three distinct pairs along a chain stay exact
    circuit = parse_circuit(
        {
            "qubits": 4,
            "gates": [
                {"g": "H", "q": 0},
                {"g": "CNOT", "c": 0, "t": 1},
                {"g": "CNOT", "c": 1, "t": 2},
                {"g": "CZ", "c": 2, "t": 3},
            ],
        }
    )
    sim = simulate_circuit(circuit)
    oracle = dense_circuit_state(circuit, "0000")
    assert state_fidelity(sim.amplitudes, oracle) > 1 - 1e-9
    assert sim.success_probability == pytest.approx(9.0**-3, abs=1e-10)


def test_cyclic_gate_pattern_compiles_but_contaminates():
    # distinct pairs forming a cycle are accepted by the cascade ledger, but
    # the leftover rail-doubled terms of earlier gates can rebalance inside a
    # later gate that closes the cycle, so the post-selected output is no
    # longer the ideal circuit state.  Freeze the honestly simulated values.
    circuit = parse_circuit(
        {
            "qubits": 3,
            "gates": [
                {"g": "H", "q": 0},
                {"g": "CNOT", "c": 0, "t": 1},
                {"g": "CNOT", "c": 1, "t": 2},
                {"g": "CZ", "c": 0, "t": 2},
            ],
        }
    )
    compile_circuit(circuit, CompileOptions(place=False))  # no IllegalCascade
    sim = simulate_circuit(circuit)
    oracle = dense_circuit_state(circuit, "000")
    assert state_fidelity(sim.amplitudes, oracle) == pytest.approx(
        0.0566037735849055, abs=1e-12
    )
    assert sim.success_probability == pytest.approx(0.0242341106538635, abs=1e-12)


def _random_circuit(rng, n, gate_count, forest):
    """Random singles, CZ/CNOTs on unused pairs and logical SWAPs.  With
    ``forest`` the entanglers keep the photon graph acyclic; without it
    they may close cycles."""
    singles = ("I", "X", "Y", "Z", "H", "T", "RZ", "RX", "RY")
    used_pairs = set()
    photon = list(range(n))
    component = list(range(n))

    def find(x):
        while component[x] != x:
            x = component[x]
        return x

    ops = []
    for _ in range(gate_count):
        kind = rng.uniform()
        if kind < 0.55:
            name = singles[int(rng.integers(0, len(singles)))]
            entry = {"g": name, "q": int(rng.integers(0, n))}
            if name in ("RZ", "RX", "RY"):
                entry["angle"] = float(rng.uniform(-np.pi, np.pi))
            ops.append(entry)
            continue
        a, b = map(int, rng.choice(n, size=2, replace=False))
        if kind < 0.75:
            ops.append({"g": "SWAP", "a": a, "b": b})
            photon[a], photon[b] = photon[b], photon[a]
            continue
        roots = find(photon[a]), find(photon[b])
        if frozenset((a, b)) in used_pairs or (forest and roots[0] == roots[1]):
            continue
        used_pairs.add(frozenset((a, b)))
        component[roots[0]] = roots[1]
        ops.append({"g": "CZ" if kind < 0.9 else "CNOT", "c": a, "t": b})
    return parse_circuit({"qubits": n, "gates": ops})


def test_random_circuits_match_dense_oracle():
    # random circuits within the exactness envelope: post-selected gates may
    # not reuse a qubit pair, and the photons each gate touches (tracked
    # through logical SWAPs) must form an acyclic interaction graph
    rng = np.random.default_rng(17)
    total_ps = 0
    for _ in range(8):
        n = 3
        circuit = _random_circuit(rng, n, 6, forest=True)
        ps_count = sum(op.name in ("CZ", "CNOT") for op in circuit.gates)
        bits = "".join(str(int(rng.integers(0, 2))) for _ in range(n))
        sim = simulate_circuit(circuit, bits)
        oracle = dense_circuit_state(circuit, bits)
        assert state_fidelity(sim.amplitudes, oracle) > 1 - 1e-9
        assert sim.success_probability == pytest.approx(9.0**-ps_count, abs=1e-9)
        total_ps += ps_count
    assert total_ps >= 6  # the envelope filter must not starve the generator


def test_certified_16_qubit_forests_keep_every_amplitude():
    # Both circuits are certified forests, so every amplitude of the ideal
    # circuit above 1e-12 must come back and each post-selected gate must
    # succeed with exactly 1/9.
    for seed in (2, 5):
        circuit = _random_circuit(np.random.default_rng(seed), 16, 96, forest=True)
        k = sum(op.name in ("CZ", "CNOT") for op in circuit.gates)
        sim = simulate_circuit(circuit, "0" * 16)
        assert sim.compile_result.forest
        oracle = fock.canonical_global_phase(dense_circuit_state(circuit, "0" * 16))
        keys = np.flatnonzero(np.abs(oracle) > 1e-12).tolist()
        assert sorted(sim.sparse_amplitudes) == keys, seed
        for index in keys:
            assert abs(sim.sparse_amplitudes[index] - oracle[index]) < 1e-12, seed
        assert abs(sim.success_probability * 9.0**k - 1) < 1e-12, seed


def test_pruned_fold_projects_exactly_like_unpruned_fold():
    # The light cone only drops terms that can never pass the projection,
    # so the projected state is bit-identical to the unpruned fold's, key
    # order included, inside the forest envelope and outside it.
    rng = np.random.default_rng(23)
    cyclic = 0
    for case in range(48):
        forest = case % 2 == 0
        options = CompileOptions(
            place=False,
            cz_form=("compressed", "swap-sandwich")[case // 2 % 2],
            restore_swaps=case // 4 % 2 == 0,
        )
        n = 3 + case % 3 // 2
        circuit = _random_circuit(rng, n, 14, forest)
        program = compile_circuit(circuit, options).program
        bits = "".join(str(int(rng.integers(0, 2))) for _ in range(n))
        state = fock.prepare_computational_basis(bits, n)
        full = fock.project_qubit_structure(fock.run_program(program, state))
        pruned = fock.project_qubit_structure(fock.run_program_pruned(program, state))
        assert list(pruned.projected_state.terms.items()) == list(
            full.projected_state.terms.items()
        )
        assert pruned.success_probability == full.success_probability
        entanglers = [op.qubits for op in circuit.gates if op.name in ("CZ", "CNOT")]
        cyclic += len(entanglers) >= n
    assert cyclic >= 6  # cycle-closing circuits must actually occur



@pytest.mark.parametrize(
    "n, gates, most",
    [
        # a GHZ-12 chain closed by H(11) and CZ(0, 11), routed across the register
        (
            12,
            [{"g": "H", "q": 0}]
            + [{"g": "CNOT", "c": q, "t": q + 1} for q in range(11)]
            + [{"g": "H", "q": 11}, {"g": "CZ", "c": 0, "t": 11}],
            5_000,
        ),
        # an H-then-CZ ring of 8
        (
            8,
            [{"g": "H", "q": q} for q in range(8)]
            + [{"g": "CZ", "c": q, "t": (q + 1) % 8} for q in range(8)],
            30_000,
        ),
    ],
    ids=["closed-ghz-12", "ring-8"],
)
def test_the_light_cone_prunes_through_routing(monkeypatch, n, gates, most):
    # Routing and rail flips are crossings, which move no photon between
    # slots, so the cone joins nothing there and cuts failure terms long
    # before the last steps.  A cone that joined at every block entered
    # _mix with 579,566 and 242,649 terms here, as many as the unpruned fold.
    circuit = parse_circuit({"qubits": n, "gates": gates})
    result = compile_circuit(circuit, CompileOptions(place=False))
    assert not result.forest
    state = fock.prepare_computational_basis("0" * n, n)
    entered = []
    mix = fock._mix
    monkeypatch.setattr(fock, "_mix", lambda terms, *a: entered.append(len(terms)) or mix(terms, *a))
    final = fock.run_program_pruned(result.program, state)
    assert sum(entered) <= most
    pruned = fock.project_qubit_structure(final)
    full = fock.project_qubit_structure(fock.run_program(result.program, state))
    assert pruned == full
    assert list(pruned.projected_state.terms) == list(full.projected_state.terms)


def test_light_cone_checks_keep_what_the_full_partition_keeps():
    # Replayed step by step, each entry's checks keep exactly the keys, in
    # the same order, that the full partition in force keeps, on routed
    # forest circuits and on cycle-closing ones; so does the fold, run to
    # that entry.  Both name slots of the fold's frame, which the oracle's
    # own walk of the frame maps onto the replayed state's logical modes.
    rng = np.random.default_rng(31)
    cyclic = dropped = checked_modes = full_modes = 0
    for case in range(24):
        options = CompileOptions(
            place=False,
            cz_form=("compressed", "swap-sandwich")[case // 2 % 2],
            restore_swaps=case // 4 % 2 == 0,
        )
        n = 3 + case % 3
        circuit = _random_circuit(rng, n, 14, forest=case % 2 == 0)
        program = compile_circuit(circuit, options).program
        bits = "".join(str(int(rng.integers(0, 2))) for _ in range(n))
        start = fock.prepare_computational_basis(bits, n)
        cone = fock.light_cone(program)
        reference = reference_light_cone(program)
        assert [bool(checks) for checks in cone] == [p is not None for p in reference]
        state = start
        entries = zip(program.steps, cone, reference, reference_frames(program))
        for i, (step, checks, partition, pos) in enumerate(entries):
            if isinstance(step, fock.LinearLayer):
                state = fock.apply_linear(state, step)
            else:
                state = fock.truncate_aux(state, step.modes)
            kept = keep_checked(state, logical_checks(checks, pos))
            if partition is not None:
                full = keep_checked(state, logical_checks(partition, pos))
                assert list(kept.terms) == list(full.terms)
                dropped += len(state.terms) - len(full.terms)
                if i:
                    checked_modes += sum(len(modes) for modes, _ in checks)
                    full_modes += 3 * n
            assert kept.terms == state.terms or partition is not None
            state = kept
            if checks:  # the fold's own filter, on this prefix of the program
                prefix = fock.NetworkProgram(3 * n, program.steps[: i + 1])
                folded = fock._fold(start, fock._lower(prefix, False), cone[: i + 1])
                assert list(folded.terms) == list(state.terms)
        pruned = fock.run_program_pruned(program, start)
        assert list(pruned.terms) == list(state.terms)
        final = keep_checked(state, fock.qubit_structure(n))
        assert list(final.terms) == list(state.terms)
        entanglers = [op.qubits for op in circuit.gates if op.name in ("CZ", "CNOT")]
        cyclic += len(entanglers) >= n
    assert cyclic >= 4  # cycle-closing circuits must actually occur
    assert dropped > 0
    # after the input, the checks cover a fraction of the modes
    assert checked_modes < full_modes / 2


TRIANGLE = [
    {"g": "H", "q": 0},
    {"g": "H", "q": 1},
    {"g": "CZ", "c": 0, "t": 1},
    {"g": "CZ", "c": 1, "t": 2},
    {"g": "H", "q": 2},
    {"g": "CZ", "c": 0, "t": 2},
]
# CZ(0, 2) after SWAP(1, 2) acts on the photons CZ(0, 1) already joined:
# the logical pairs differ, the photon pair repeats
REPEATED_PHOTON_PAIR = [
    {"g": "H", "q": 0},
    {"g": "H", "q": 1},
    {"g": "CZ", "c": 0, "t": 1},
    {"g": "SWAP", "a": 1, "b": 2},
    {"g": "H", "q": 2},
    {"g": "CZ", "c": 0, "t": 2},
]
ALL_OPTIONS = [
    CompileOptions(place=False, cz_form=form, restore_swaps=restore)
    for form in ("compressed", "swap-sandwich")
    for restore in (True, False)
]


def _shared_block_circuits(rng):
    """Routed forests, GHZ chains and brickwork, small enough to place."""
    circuits = [_random_circuit(rng, n, 14, forest=True) for n in (3, 4, 5, 5, 6)]
    circuits += [ghz_chain_circuit(n) for n in (3, 6)]
    circuits += [
        parse_circuit(brickwork(rng, n, rounds))
        for n, rounds in ((3, 1), (4, 1), (6, 1), (5, 2), (7, 3))
    ]
    return circuits


@pytest.mark.parametrize("options", ALL_OPTIONS, ids=lambda o: f"{o.cz_form}-{o.restore_swaps}")
def test_shared_blocks_act_like_absolute_blocks(options):
    # A layer that holds a cached block tuple at an offset does what the
    # same layer with its own blocks at absolute modes does, to the bit:
    # light cone, pruned fold (key order included), placement and matrix.
    # A certified fold refuses the rebuilt gates (see
    # test_a_certified_fold_refuses_split_rebuilt_and_hand_built_gates).
    rng = np.random.default_rng(53)
    shifted = placed = 0
    for circuit in _shared_block_circuits(rng):
        result = compile_circuit(circuit, options)
        program, flat = result.program, flat_program(result.program)
        layers = [s for s in program.steps if isinstance(s, fock.LinearLayer)]
        shifted += sum(layer.offset != 0 for layer in layers)
        assert all(layer.offset == 0 for layer in flat.steps if isinstance(layer, fock.LinearLayer))
        n = circuit.qubit_count
        assert fock.light_cone(program) == fock.light_cone(flat)
        bits = "".join(str(int(rng.integers(0, 2))) for _ in range(n))
        state = fock.prepare_computational_basis(bits, n)
        shared = fock.run_program_pruned(program, state)
        absolute = fock.run_program_pruned(flat, state)
        assert list(shared.terms.items()) == list(absolute.terms.items())
        try:
            expected = place_in_mesh(flat, "clements")
        except PlacementOverflow as overflow:
            with pytest.raises(PlacementOverflow, match=re.escape(str(overflow))):
                place_in_mesh(program, "clements")
        else:
            assert place_in_mesh(program, "clements") == expected
            placed += 1
        for layer, own in zip(program.steps, flat.steps):
            if isinstance(layer, fock.LinearLayer):
                assert np.array_equal(layer.matrix, own.matrix)
    # the comparison is not vacuous: offsets occur and placements fit
    assert shifted > 50 and placed >= 1, (shifted, placed)


# The mesh layers of each cached network as top modes, one list per layer;
# a fixed gate is one block at mode 0.
NETWORK_LAYER_TOPS = {
    "SWAP2": [[2, 4], [1, 3], [2, 4], [1, 3], [2, 4]],
    "compressed": [[3], [0, 2, 4], [3]],
    "swap-sandwich": [[3], [4], [0, 2, 4], [4], [3]],
}


def _cached_networks():
    fixed_names = [g for g in compiler.SINGLE_QUBIT_GATES if g not in compiler.ROTATION_GATES]
    networks = {
        "SWAP2": compiler._swap2_layers(),
        "compressed": compiler._cz_layers("compressed"),
        "swap-sandwich": compiler._cz_layers("swap-sandwich"),
    }
    for name in fixed_names:
        for flipped in (False, True):
            networks[name + "*" * flipped] = compiler._fixed_gate_layers(name, flipped)
    return networks


@pytest.mark.parametrize("options", ALL_OPTIONS, ids=lambda o: f"{o.cz_form}-{o.restore_swaps}")
def test_network_layers_share_the_cached_blocks(options):
    # Every SWAP2, post-selected-gate and fixed-gate step holds the
    # compiler's cached block tuple of the whole network itself, a CZ's or
    # CNOT's that of its gate form; only a rotation's step has a block of
    # its own.
    rng = np.random.default_rng(59)
    networks = _cached_networks()
    cached = {
        "swap": (networks["SWAP2"],),
        "cz": tuple(compiler._post_selected_form(options.cz_form, h) for h in (None, 1, 4)),
        "fixed": tuple(b for name, b in networks.items() if name not in NETWORK_LAYER_TOPS),
    }
    kinds = collections.Counter()
    for n in (4, 5, 6):
        program = compile_circuit(_random_circuit(rng, n, 24, forest=True), options).program
        for step in program.steps:
            if not isinstance(step, fock.LinearLayer):
                continue
            if step.label.startswith(("route ", "restore ", "SWAP ")):
                kind = "swap"
            elif step.label.startswith(("CZ ", "CNOT q")):
                kind = "cz"
            elif step.label.split()[0] in compiler.ROTATION_GATES:
                kind = "rotation"
            else:
                kind = "fixed"
            kinds[kind] += 1
            shared = [k for k, nets in cached.items() if any(step.blocks is b for b in nets)]
            assert shared == ([] if kind == "rotation" else [kind]), step.label
    assert min(kinds.values()) > 0 and len(kinds) == 4, kinds


def _placement(program, scheme):
    try:
        assignment = place_in_mesh(program, scheme)
    except PlacementOverflow as overflow:
        return str(overflow)
    return assignment.placements, assignment.truncations


def test_cached_networks_place_in_order_like_sorted_layers():
    # Placement takes a step's blocks in order, with no sort.  That equals
    # the sorted per-layer placement because every cached network is its
    # mesh layers back to back, each layer disjoint and ascending.
    rng = np.random.default_rng(67)
    outcomes = collections.Counter()
    for name, blocks in _cached_networks().items():
        expected = NETWORK_LAYER_TOPS.get(name, [[0]])
        assert [[blk.top_mode for blk in layer] for layer in mesh_layers(blocks)] == expected, name
        for layer in expected:
            assert all(b - a >= 2 for a, b in zip(layer, layer[1:])), name
        # the parent's layers: the pinned sizes, each layer sorted on placement
        cuts = np.cumsum([0] + [len(layer) for layer in expected])
        parent_layers = [
            tuple(sorted(blocks[i:j], key=lambda b: b.top_mode)) for i, j in zip(cuts, cuts[1:])
        ]
        width = max(blk.top_mode for blk in blocks) + 2
        for scheme in ("clements", "reck"):
            for m in (width, width + 3, width + 6):
                for _ in range(4):
                    offsets = rng.integers(0, m - width + 1, size=int(rng.integers(1, m)))
                    steps = [gates.layers_to_steps(blocks, m, int(o), f"net {o}") for o in offsets]
                    in_order = fock.NetworkProgram(m, tuple(steps))
                    sorted_layers = fock.NetworkProgram(
                        m,
                        tuple(
                            fock.LinearLayer(m, layer, s.label, s.offset)
                            for s in steps
                            for layer in parent_layers
                        ),
                    )
                    outcome = _placement(in_order, scheme)
                    assert outcome == _placement(sorted_layers, scheme), (name, scheme, m)
                    outcomes["overflow" if isinstance(outcome, str) else "placed"] += 1
    assert outcomes["placed"] >= 50 and outcomes["overflow"] >= 50, outcomes


def _network_step_circuits(rng):
    """Routed forests, cyclic circuits, GHZ chains and brickwork."""
    circuits = [_random_circuit(rng, n, 16, forest=True) for n in (3, 4, 5, 6, 7)]
    circuits += [_random_circuit(rng, n, 5, forest=True) for n in (2, 3, 4, 5)]
    circuits += [_random_circuit(rng, n, 12, forest=False) for n in (3, 3, 4, 4)]
    circuits += [ghz_chain_circuit(n) for n in (2, 3, 6)]
    circuits += [
        parse_circuit(brickwork(rng, n, rounds))
        for n, rounds in ((3, 1), (4, 1), (6, 1), (8, 1), (5, 2), (9, 2), (7, 3), (12, 3))
    ]
    return circuits


@pytest.mark.parametrize("options", ALL_OPTIONS, ids=lambda o: f"{o.cz_form}-{o.restore_swaps}")
def test_network_steps_act_like_per_layer_steps(options):
    # One step per gate network does what one step per mesh layer does:
    # placement or its overflow message on both schemes, the pruned fold
    # on the light-cone path (key order included), the unpruned fold, and
    # the product of the step matrices.  The unpruned fold keeps the keys
    # and their order; its amplitudes may differ in the last bits, since
    # the per-layer fold prunes between a CNOT's CZ network and its
    # trailing H, where the one network step does not.  A certified fold
    # refuses the split gates (see
    # test_a_certified_fold_refuses_split_rebuilt_and_hand_built_gates).
    rng = np.random.default_rng(71)
    outcomes = collections.Counter()
    for circuit in _network_step_circuits(rng):
        result = compile_circuit(circuit, options)
        program = result.program
        layered = per_layer_program(program)
        outcomes["layers"] += len(layered.steps) - len(program.steps)
        for scheme in ("clements", "reck"):
            outcome = _placement(program, scheme)
            assert outcome == _placement(layered, scheme)
            outcomes["overflow" if isinstance(outcome, str) else "placed"] += 1
        n = circuit.qubit_count
        for _ in range(2):
            bits = "".join(str(int(rng.integers(0, 2))) for _ in range(n))
            state = fock.prepare_computational_basis(bits, n)
            network = fock.run_program_pruned(program, state)
            per_layer = fock.run_program_pruned(layered, state)
            assert list(network.terms.items()) == list(per_layer.terms.items())
            if n <= 9:  # the unpruned fold carries every failure term
                full = fock.run_program(program, state)
                unpruned = fock.run_program(layered, state)
                assert list(full.terms) == list(unpruned.terms)
                worst = max(abs(full.terms[k] - unpruned.terms[k]) for k in full.terms)
                assert worst <= 1e-16, worst
        products = [np.eye(3 * n, dtype=complex), np.eye(3 * n, dtype=complex)]
        for i, steps in enumerate((program.steps, layered.steps)):
            for step in steps:
                if isinstance(step, fock.LinearLayer):
                    products[i] = products[i] @ step.matrix
        assert np.allclose(products[0], products[1], rtol=0, atol=1e-12)
    # every network of more than one layer was cut, and both outcomes occur
    assert outcomes["layers"] > 300 and min(outcomes["placed"], outcomes["overflow"]) >= 3, outcomes


@pytest.mark.parametrize("options", ALL_OPTIONS, ids=lambda o: f"{o.cz_form}-{o.restore_swaps}")
def test_forest_circuits_are_certified(options):
    for n in range(2, 9):
        assert compile_circuit(ghz_chain_circuit(n), options).forest
    assert compile_ghz_swap_variant(options).forest
    rng = np.random.default_rng(29)
    for _ in range(40):
        circuit = _random_circuit(rng, int(rng.integers(2, 6)), 14, forest=True)
        assert compile_circuit(circuit, options).forest


@pytest.mark.parametrize("options", ALL_OPTIONS, ids=lambda o: f"{o.cz_form}-{o.restore_swaps}")
def test_triangle_is_not_certified_and_keeps_its_light_cone_output(options):
    circuit = parse_circuit({"qubits": 3, "gates": TRIANGLE})
    sim = simulate_circuit(circuit, options=options)
    assert not sim.compile_result.forest
    assert sim.success_probability * 729 == pytest.approx(30.6012825257642, abs=1e-9)
    # the eager cut would have dropped the terms that close the cycle
    result = sim.compile_result
    _, forced_p = fock.run_certified(result.program, "000", result.positions, result.flips)
    assert forced_p * 729 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("certified", [True, False], ids=["bell", "triangle"])
def test_simulate_refuses_bad_input_bits_on_either_path(certified):
    # The certified fold packs the bits itself; it must refuse what the
    # light-cone path's prepare_computational_basis refuses, not read "2"
    # as a set bit.
    circuit = bell_circuit() if certified else parse_circuit({"qubits": 3, "gates": TRIANGLE})
    n = circuit.qubit_count
    assert simulate_circuit(circuit, "1" * n).compile_result.forest == certified
    for bits in ("02", "0a", "2" * n, [0, 2]):
        with pytest.raises(ValueError, match="bits must be 0/1"):
            simulate_circuit(circuit, bits)
    with pytest.raises(ValueError, match=f"{n + 1} bits for {n} qubits"):
        simulate_circuit(circuit, "0" * (n + 1))
    with pytest.raises(ValueError, match="3 bits for 2 qubits"):
        simulate_circuit(bell_circuit(), "000")


@pytest.mark.parametrize("options", ALL_OPTIONS, ids=lambda o: f"{o.cz_form}-{o.restore_swaps}")
def test_repeated_photon_pair_is_not_certified(options):
    circuit = parse_circuit({"qubits": 3, "gates": REPEATED_PHOTON_PAIR})
    sim = simulate_circuit(circuit, options=options)
    assert not sim.compile_result.forest
    oracle = dense_circuit_state(circuit, "000")
    assert state_fidelity(sim.amplitudes, oracle) == pytest.approx(1 / 19, abs=1e-9)
    assert sim.success_probability * 81 == pytest.approx(19.0, abs=1e-9)


def test_certified_runs_match_the_light_cone_path(monkeypatch):
    # Uncertified: the same fold as the light cone alone, bit for bit.
    # Certified: each post-selected gate is one rule on one bit per photon,
    # and the decoded state keeps the light-cone path's basis indices, with
    # amplitudes and the success probability within the fused rule's contract
    # (fused_fold_problems).  Random circuits under every option set, GHZ
    # chains up to 29 qubits, where the same rule rounds once per CNOT,
    # and the GHZ swap variant.
    fused = count_fused_gates(monkeypatch)
    rng = np.random.default_rng(31)
    runs = []
    for case in range(64):
        n = 3 + case % 3 // 2
        circuit = _random_circuit(rng, n, 14, forest=case % 8 < 4)
        bits = "".join(str(int(rng.integers(0, 2))) for _ in range(n))
        runs.append((circuit, ALL_OPTIONS[case % 4], bits))
    for options in ALL_OPTIONS:
        runs += [(ghz_chain_circuit(n), options, "0" * n) for n in (2, 5, 29)]
        runs.append((None, options, "000"))  # the GHZ swap variant
    seen = {True: set(), False: set()}
    for circuit, options, bits in runs:
        if circuit is None:
            result = compile_ghz_swap_variant(options)
        else:
            result = compile_circuit(circuit, options)
        state = fock.prepare_computational_basis(bits, len(result.positions))
        cone = fock.run_program_pruned(result.program, state)
        projected = fock.project_qubit_structure(cone)
        seen[result.forest].add(options)
        if not result.forest:
            sim = simulate_circuit(circuit, bits, options)
            amps, p = decode_logical(projected, result.positions, result.flips)
            assert list(sim.sparse_amplitudes.items()) == list(amps.items())
            assert sim.success_probability == p
            continue
        assert fused_fold_problems(result, bits, projected.projected_state) == []
    assert seen[True] == seen[False] == set(ALL_OPTIONS)
    # CZs and CNOTs with the target on either side all occur
    assert len(fused) >= 200 and set(fused) == {"CZ", "CNOT"}


DATA = pathlib.Path(__file__).parent / "data"


def _golden_runs():
    """``(name, circuit, options, input bits)`` of every circuit whose
    ``simulate`` output ``tests/data/simulate_golden.json`` pins."""
    runs = []
    for case in json.loads((DATA / "simulate_golden.json").read_text(encoding="utf-8"))["cases"]:
        flags, circuit = case["flags"], parse_circuit(case["circuit"])
        value = dict(zip(flags, flags[1:]))
        options = CompileOptions(
            place=False,
            cz_form=value.get("--cz-form", "compressed"),
            restore_swaps="--no-restore-swaps" not in flags,
        )
        runs.append((case["name"], circuit, options, value.get("--input", "0" * circuit.qubit_count)))
    return runs


def count_fused_gates(monkeypatch) -> list:
    """The kinds, ``"CZ"`` or ``"CNOT"``, of the gates the certified fold
    applies as one rule, in order: it reads :attr:`PostSelectedGate.rule`
    once per gate it applies, and a CNOT's blocks start with an H."""
    kinds = []
    rule = fock.PostSelectedGate.rule

    def counted(gate):
        kinds.append("CNOT" if gate[0].role == "H" else "CZ")
        return rule.__get__(gate, fock.PostSelectedGate)

    monkeypatch.setattr(fock.PostSelectedGate, "rule", property(counted))
    return kinds


def _post_selections(circuit) -> int:
    return sum(op.name in ("CZ", "CNOT") for op in circuit.gates)


def test_fused_gates_fold_like_the_unfused_fold_on_the_golden_circuits(monkeypatch):
    fused = count_fused_gates(monkeypatch)
    certified = 0
    for name, circuit, options, bits in _golden_runs():
        result = compile_circuit(circuit, options)
        if not result.forest:
            continue
        certified += 1
        fused.clear()
        assert fused_fold_problems(result, bits) == [], name
        # each post-selected gate went through its rule
        assert len(fused) == _post_selections(circuit), name
    assert certified == 21


def test_fused_gates_fold_the_20_qubit_forest_like_the_dense_oracle():
    # The 20-qubit forest that showed the certified fold's old absolute cut,
    # random_forest(Random(7), 20, 80, 19, 2) of benchmarks/workloads.py,
    # against the dense oracle; the unpruned fold is out of reach.  With
    # each gate's 1/3 multiplied into every amplitude, the absolute cut
    # dropped eight amplitudes below 2e-5 and addends of up to about
    # 1.1e-5; at unit scale every key comes back.
    circuit = parse_circuit(json.loads((DATA / "forest20.json").read_text(encoding="utf-8")))
    n, k = circuit.qubit_count, _post_selections(circuit)
    result = compile_circuit(circuit, CompileOptions(place=False))
    assert n == 20 and k == 19 and result.forest
    oracle = fock.canonical_global_phase(dense_circuit_state(circuit, "0" * n))
    keys = np.flatnonzero(np.abs(oracle) > 1e-12).tolist()
    amps, p = fock.run_certified(result.program, "0" * n, result.positions, result.flips)
    assert len(keys) == 8192 and list(amps) == keys
    for index, amp in amps.items():
        assert abs(amp - oracle[index]) < 1e-14
    assert abs(p * 9.0**k - 1) < 1e-12


# Each form of a fused gate: (cz_form, the CNOT target's window rail top or
# None for a CZ), and two-qubit circuits that feed it all four inputs.
GATE_FORMS = [(form, h_top) for form in ("compressed", "swap-sandwich") for h_top in (None, 1, 4)]


def _form_circuits(h_top):
    """H on both qubits, then the gate; and the same with T, Y on the
    control and RZ, X on the target before the gate, so that every rail
    slot enters the rule owing a phase and each rail pair's slots are
    crossed."""
    c, t = (1, 0) if h_top == 1 else (0, 1)
    gate = {"g": "CZ" if h_top is None else "CNOT", "c": c, "t": t}
    plain = [{"g": "H", "q": 0}, {"g": "H", "q": 1}]
    phased = plain + [
        {"g": "T", "q": c},
        {"g": "Y", "q": c},
        {"g": "RZ", "q": t, "angle": 0.7},
        {"g": "X", "q": t},
    ]
    return [parse_circuit({"qubits": 2, "gates": [*ops, gate]}) for ops in (plain, phased)]


def _mutant_caught(monkeypatch, form, h_top, rule, circuit) -> bool:
    gate = compiler._post_selected_form(form, h_top)
    gate.rule  # noqa: B018  (build the real rule, so the patch is undone to it)
    with monkeypatch.context() as patch:
        patch.setitem(gate.__dict__, "rule", rule)
        result = compile_circuit(circuit, CompileOptions(place=False, cz_form=form))
        try:
            return bool(fused_fold_problems(result, "00"))
        except ValueError:
            return True


@pytest.mark.parametrize("form, h_top", GATE_FORMS)
def test_the_fused_rule_is_the_permanent_of_the_gate_network(form, h_top):
    # Each coefficient is the transition amplitude of the gate's linear
    # network, H before and after the CZ network for a CNOT, by the
    # permanent formula, and no other qubit-structure output of its input
    # has any.  The matrix is built from the cached CZ network and H
    # block, not from the form's own block tuple.  Worst seen: 5.6e-17
    # off a coefficient, 1.7e-16 on another output.
    gate = compiler._post_selected_form(form, h_top)
    matrix = gates.layer_matrix(compiler._cz_layers(form), 6)
    if h_top is not None:
        h = gates.layer_matrix(compiler._fixed_gate_layers("H", False), 6, h_top)
        matrix = h @ matrix @ h

    def dense(modes):
        # the window occupation with one photon in each of ``modes``
        return tuple(int(mode in modes) for mode in range(6))

    structured = [dense((r0, r1)) for r0 in (1, 2) for r1 in (4, 5)]
    assert list(gate.rule) == [(1, 4), (1, 5), (2, 4), (2, 5)]
    for (i, j), ((o, p), coefficient) in gate.rule.items():
        assert o in (1, 2) and p in (4, 5)
        for other in structured:
            amp = fock.amplitude_via_permanent(matrix, dense((i, j)), other)
            want = coefficient if other == dense((o, p)) else 0.0
            assert abs(amp - want) < 1e-15, ((i, j), other)


@pytest.mark.parametrize("form, h_top", GATE_FORMS)
def test_the_fused_rule_oracle_catches_a_flipped_coefficient(monkeypatch, form, h_top):
    # On both inputs of each form, the plain one and the one whose rail
    # slots all owe a phase and are crossed, the oracle passes the real
    # rule and catches each of its four coefficients negated.
    gate = compiler._post_selected_form(form, h_top)
    for circuit in _form_circuits(h_top):
        options = CompileOptions(place=False, cz_form=form)
        assert fused_fold_problems(compile_circuit(circuit, options), "00") == []
        caught = 0
        for ij, (out, amp) in gate.rule.items():
            mutant = {**gate.rule, ij: (out, -amp)}
            caught += _mutant_caught(monkeypatch, form, h_top, mutant, circuit)
        assert caught == len(gate.rule) == 4


@pytest.mark.parametrize("form, h_top", GATE_FORMS)
def test_a_rule_built_without_the_projection_raises(monkeypatch, form, h_top):
    # The rule's fold without the projection keeps the gate's failure
    # terms, so an input has more than one output, which the monomial
    # rule refuses, naming the input by its two photons' window modes.
    gate = compiler._post_selected_form(form, h_top)
    assert fock.PostSelectedGate(gate).rule == gate.rule
    monkeypatch.setattr(
        fock,
        "project_qubit_structure",
        lambda state: fock.PostSelectionResult(state, state.squared_norm()),
    )
    refused = r"input \(1, 4\) has \d+ outputs that pass the projection, not one"
    with pytest.raises(ValueError, match=refused):
        fock.PostSelectedGate(gate).rule  # noqa: B018


def _strip_gates(program):
    """``program`` with each network step's blocks copied into a plain tuple."""
    return fock.NetworkProgram(
        program.mode_count,
        tuple(
            step._replace(blocks=tuple(step.blocks))
            if isinstance(step, fock.LinearLayer)
            else step
            for step in program.steps
        ),
    )


def _shift_truncations(program):
    """``program`` with each truncation moved one window up, or down where
    its window is the last."""

    def moved(modes):
        by = 3 if modes[1] + 3 < program.mode_count else -3
        return tuple(mode + by for mode in modes)

    return fock.NetworkProgram(
        program.mode_count,
        tuple(
            fock.TruncateAux(moved(step.modes))
            if isinstance(step, fock.TruncateAux)
            else step
            for step in program.steps
        ),
    )


def _double_truncations(program):
    """``program`` with each truncation repeated right after itself."""
    return fock.NetworkProgram(
        program.mode_count,
        tuple(
            repeated
            for step in program.steps
            for repeated in ((step, step) if isinstance(step, fock.TruncateAux) else (step,))
        ),
    )


def _copy_blocks(program):
    """``program`` with each layer's blocks copied, at the same offsets."""
    return fock.NetworkProgram(
        program.mode_count,
        tuple(
            fock.LinearLayer(
                step.mode_count,
                tuple(fock.MeshBlock(blk.top_mode, blk.setting, blk.role) for blk in step.blocks),
                step.label,
                step.offset,
            )
            if isinstance(step, fock.LinearLayer)
            else step
            for step in program.steps
        ),
    )


def _drop_truncations(program):
    """``program`` with every truncation removed, so no gate form is
    directly followed by its truncation."""
    return fock.NetworkProgram(
        program.mode_count,
        tuple(step for step in program.steps if not isinstance(step, fock.TruncateAux)),
    )


def _truncate_one_aux(program):
    """``program`` with each truncation cut down to its first aux mode."""
    return fock.NetworkProgram(
        program.mode_count,
        tuple(
            fock.TruncateAux(step.modes[:1])
            if isinstance(step, fock.TruncateAux)
            else step
            for step in program.steps
        ),
    )


def _truncate_no_aux(program):
    """``program`` with each truncation emptied of modes."""
    return fock.NetworkProgram(
        program.mode_count,
        tuple(
            fock.TruncateAux(()) if isinstance(step, fock.TruncateAux) else step
            for step in program.steps
        ),
    )


@pytest.mark.parametrize(
    "rebuild",
    [
        per_layer_program,
        flat_program,
        _copy_blocks,
        _strip_gates,
        _shift_truncations,
        _double_truncations,
        _drop_truncations,
        _truncate_one_aux,
        _truncate_no_aux,
    ],
    ids=[
        "split", "flat", "copied", "stripped", "off-window", "doubled",
        "dropped", "one-aux", "no-aux",
    ],
)
@pytest.mark.parametrize("options", ALL_OPTIONS, ids=lambda o: f"{o.cz_form}-{o.restore_swaps}")
def test_a_certified_fold_refuses_split_rebuilt_and_hand_built_gates(rebuild, options):
    # A certified fold applies every post-selected gate as its rule, so
    # each truncation must directly follow a step whose blocks are a gate
    # form, truncating that step's window; any other program is refused,
    # even one whose blocks equal a form's, as a plain tuple or as copied
    # blocks at the same offsets.  The light-cone path folds it like the
    # projected unpruned fold.
    rng = np.random.default_rng(97)
    circuits = [ghz_chain_circuit(4)] + [_random_circuit(rng, n, 16, forest=True) for n in (3, 5)]
    for circuit in circuits:
        result = compile_circuit(circuit, options)
        program = rebuild(result.program)
        bits = "0" * circuit.qubit_count
        state = fock.prepare_computational_basis(bits, circuit.qubit_count)
        with pytest.raises(ValueError, match="outside the steps of a post-selected gate"):
            fock.run_certified(program, bits, result.positions, result.flips)
        full = fock.project_qubit_structure(fock.run_program(program, state))
        pruned = fock.run_program_pruned(program, state)
        assert list(pruned.terms.items()) == list(full.projected_state.terms.items())


@pytest.mark.parametrize("options", ALL_OPTIONS, ids=lambda o: f"{o.cz_form}-{o.restore_swaps}")
def test_a_certified_fold_applies_a_hand_built_gate_form(options):
    # A gate form compares by content, so a step whose blocks are a form
    # built afresh from copied blocks, directly followed by its window's
    # truncation, is applied as the gate, with the same amplitudes and
    # success probability as the compiler's cached form.
    def rebuilt(step):
        copies = tuple(fock.MeshBlock(blk.top_mode, blk.setting, blk.role) for blk in step.blocks)
        return step._replace(blocks=fock.PostSelectedGate(copies))

    rng = np.random.default_rng(59)
    circuits = [ghz_chain_circuit(4)] + [_random_circuit(rng, n, 16, forest=True) for n in (3, 5)]
    for circuit in circuits:
        result = compile_circuit(circuit, options)
        steps = result.program.steps
        gates = [i for i, step in enumerate(steps) if isinstance(step, fock.TruncateAux)]
        assert gates, circuit
        program = fock.NetworkProgram(
            result.program.mode_count,
            tuple(rebuilt(step) if i + 1 in gates else step for i, step in enumerate(steps)),
        )
        for i in gates:
            fresh, cached = program.steps[i - 1].blocks, steps[i - 1].blocks
            assert fresh == cached and fresh is not cached and "rule" not in fresh.__dict__
        bits = "0" * circuit.qubit_count
        want = fock.run_certified(result.program, bits, result.positions, result.flips)
        assert fock.run_certified(program, bits, result.positions, result.flips) == want


@pytest.mark.parametrize("options", ALL_OPTIONS, ids=lambda o: f"{o.cz_form}-{o.restore_swaps}")
def test_every_truncation_directly_follows_its_gate_network(options):
    # The precondition of the certified fold's eager cuts
    # (fock.run_certified): each post-selected gate is two steps, its
    # cached form as the blocks of its whole network (a CNOT's H blocks
    # included) and then the truncation of its window's two aux modes; no
    # other step holds a form.
    rng = np.random.default_rng(83)
    circuits = [_random_circuit(rng, n, 16, forest=n % 2 == 0) for n in (3, 4, 5, 6, 7) * 2]
    circuits += [ghz_chain_circuit(n) for n in (2, 5)]
    circuits += [parse_circuit(brickwork(rng, n, 2)) for n in (4, 7)]
    programs = [compile_circuit(circuit, options).program for circuit in circuits]
    programs.append(compile_ghz_swap_variant(options).program)
    forms = {"CZ": [compiler._post_selected_form(options.cz_form, None)]}
    forms["CNOT"] = [compiler._post_selected_form(options.cz_form, h) for h in (1, 4)]
    labels = collections.Counter()
    for program in programs:
        steps = program.steps
        for i, step in enumerate(steps):
            if isinstance(step, fock.TruncateAux):
                network = steps[i - 1]
                assert i > 0 and isinstance(network, fock.LinearLayer), i
                assert any(network.blocks is gate for gate in forms[network.label.split()[0]])
                assert step.modes == (network.offset, network.offset + 3), network.label
                continue
            labels[step.label.split()[0]] += 1
            if isinstance(step.blocks, fock.PostSelectedGate):
                cut = steps[i + 1]
                assert isinstance(cut, fock.TruncateAux), step.label
                assert cut.modes == (step.offset, step.offset + 3), step.label
    # every kind of step occurs: CNOTs, CZs, routing and logical SWAPs
    assert min(labels[kind] for kind in ("CNOT", "CZ", "route", "SWAP")) >= 3, labels


def test_simulate_decodes_a_certified_circuit_like_the_projected_full_fold():
    circuit = bell_circuit()
    sim = simulate_circuit(circuit)
    state = fock.prepare_computational_basis("00", 2)
    full = fock.run_program(sim.compile_result.program, state)
    projected = fock.project_qubit_structure(full)
    assert len(full.terms) > len(projected.projected_state.terms)
    # the certified fold fuses each gate: the same basis indices, amplitudes
    # within the fused rule's contract
    result = sim.compile_result
    amps, p = decode_logical(projected, result.positions, result.flips)
    assert list(sim.sparse_amplitudes) == list(amps) == [0b00, 0b11]
    assert sim.success_probability == pytest.approx(p, rel=1e-15)
    assert fused_fold_problems(result, "00") == []


def test_ghz_chain_20_qubits():
    # Unpruned, the failure terms grow about 2.2x per qubit and n=20 would
    # take hours; with the light cone only the two GHZ terms remain.
    n = 20
    start = time.perf_counter()
    sim = simulate_circuit(ghz_chain_circuit(n))
    elapsed = time.perf_counter() - start
    assert sim.amplitudes[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert sim.amplitudes[-1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert np.sum(np.abs(sim.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert sim.success_probability * 9.0 ** (n - 1) == pytest.approx(1.0, abs=1e-9)
    assert len(sim.sparse_amplitudes) == 2
    assert elapsed < 30.0


def _closed_chain(n):
    """The GHZ-n chain closed by H(n-1) and CZ(0, n-1): uncertified."""
    gates = [GateOp("H", (0,))] + [GateOp("CNOT", (q, q + 1)) for q in range(n - 1)]
    return CircuitIR(n, tuple(gates) + (GateOp("H", (n - 1,)), GateOp("CZ", (0, n - 1))))


def _closed_chain_terms(amps, n):
    """Each decoded key as its two first and two last bits, and the moduli
    in key order; every key's interior bits are all equal."""
    keys = [format(index, f"0{n}b") for index in amps]
    assert all(len(set(bits[1:-1])) == 1 for bits in keys)
    return [bits[:2] + bits[-2:] for bits in keys], [abs(a) for a in amps.values()]


@pytest.mark.parametrize("n", [21, 29])
def test_closed_chain_keeps_its_seven_terms(n):
    # The light-cone fold cuts relative to the kept norm, which each
    # truncation shrinks by about 9.  With an absolute cut of 1e-14 the
    # chain kept 5 terms at n = 21 and 2 at n = 29.  Oracle: the unpruned
    # fold at n = 12, whose 7 keys have the same ends; the smallest modulus
    # falls by 3 per qubit and the two largest tend to 1/sqrt(5), 2/sqrt(5).
    m = 12
    result = compile_circuit(_closed_chain(m), CompileOptions(place=False))
    full = fock.run_program(result.program, fock.prepare_computational_basis("0" * m, m))
    oracle, _ = decode_logical(fock.project_qubit_structure(full), result.positions, result.flips)
    ends, moduli = _closed_chain_terms(oracle, m)
    start = time.perf_counter()
    sim = simulate_circuit(_closed_chain(n))
    assert time.perf_counter() - start < 5.0
    assert not sim.compile_result.forest
    got_ends, got_moduli = _closed_chain_terms(sim.sparse_amplitudes, n)
    assert got_ends == ends and len(ends) == 7
    assert min(got_moduli) * 3.0**n == pytest.approx(min(moduli) * 3.0**m, rel=2e-3)
    assert sorted(got_moduli)[-2:] == pytest.approx([5**-0.5, 2 * 5**-0.5], abs=1e-5)


def test_long_routing_loses_no_probability_at_crossings():
    # 400 logical SWAPs of the chain's end qubits, routed by SWAP2 networks:
    # about 20,000 solved crossings, each of which leaked about 4.4e-16 of
    # probability per photon while crossings were expanded as 2x2 rules
    payload = {
        "qubits": 4,
        "gates": [{"g": "H", "q": 0}]
        + [{"g": "CNOT", "c": q, "t": q + 1} for q in range(3)]
        + [{"g": "SWAP", "a": 0, "b": 3}] * 400,
    }
    sim = simulate_circuit(parse_circuit(payload))
    crossings = sum(
        blk.role == "X"
        for step in sim.compile_result.program.steps
        if isinstance(step, fock.LinearLayer)
        for blk in step.blocks
    )
    assert crossings == 20006
    assert abs(sim.success_probability * 9.0**3 - 1) < 1e-13
    assert list(sim.sparse_amplitudes) == [0b0000, 0b1111]
    for amp in sim.sparse_amplitudes.values():
        assert abs(amp - 1 / np.sqrt(2)) < 1e-13


def test_mesh_column_grids():
    def grid(scheme):
        return tuple(tuple(column_tops(scheme, 4, c)) for c in range(column_count(scheme, 4)))

    assert grid("clements") == ((0, 2), (1,), (0, 2), (1,))
    assert grid("reck") == ((2,), (1,), (0, 2), (1,), (2,))
    for scheme in ("clements", "reck"):
        table = MeshAssignment(scheme, 4, (), ()).phase_table()
        assert tuple(map(tuple, table["columns"])) == grid(scheme)
    with pytest.raises(ValueError):
        column_count("hex", 4)
    with pytest.raises(ValueError, match="unknown mesh scheme 'hex'"):
        place_in_mesh(fock.NetworkProgram(4, ()), "hex")


@pytest.mark.parametrize("scheme", ["clements", "reck"])
def test_mesh_geometry_matches_the_column_grid(scheme):
    for m in range(1, 41):
        grid = reference_mesh_columns(scheme, m)
        assert column_count(scheme, m) == len(grid)
        assert [tuple(column_tops(scheme, m, c)) for c in range(len(grid))] == list(grid)
        for top in range(m - 1):
            first, last = top_span(scheme, m, top)
            slots = [c for c, tops in enumerate(grid) if top in tops]
            assert (first, last) == (slots[0], slots[-1])
            assert slots == list(range(first, last + 1, 2))
        assignment = MeshAssignment(scheme, m, (), ())
        assert list(map(tuple, assignment.tops_by_column())) == list(grid)
        assert sum(map(len, assignment.tops_by_column())) == sum(map(len, grid))
        assert [(c, t) for c, t, _, _ in assignment.slots()] == [
            (c, t) for c, tops in enumerate(grid) for t in tops
        ]
    # one mode: Reck has no column, Clements one empty column
    if scheme == "reck":
        assert column_count(scheme, 1) == 0
    else:
        assert column_count(scheme, 1) == 1 and tuple(column_tops(scheme, 1, 0)) == ()


@pytest.mark.parametrize("restore", [True, False], ids=["restore", "no-restore"])
@pytest.mark.parametrize("scheme", ["clements", "reck"])
def test_place_in_mesh_matches_the_column_scan(scheme, restore):
    # The triangular Reck mesh is one slot wide at its top corner, so its
    # brickwork is mostly one round deep, and Clements' up to three.
    rng = np.random.default_rng(41)
    options = CompileOptions(scheme=scheme, restore_swaps=restore, place=False)
    deepest = 3 if scheme == "clements" else 1
    circuits = [
        parse_circuit(
            brickwork(rng, int(rng.integers(3, 15)), int(rng.integers(1, deepest + 2)))
        )
        for _ in range(16)
    ]
    circuits += [
        _random_circuit(rng, int(rng.integers(2, 7)), int(rng.integers(4, 16)), forest=True)
        for _ in range(16)
    ]
    # brickworks at the benchmark's sizes, three rounds deep
    circuits += [parse_circuit(brickwork(rng, n, 3)) for n in range(16, 33)]
    programs = [compile_circuit(circuit, options).program for circuit in circuits]
    # library-built steps off either edge: a block above mode 0 or below the
    # last mode has no slot, and a truncation there has no waveguide
    for step in (
        fock.LinearLayer(6, (fock.MeshBlock(-1, IDENTITY_SETTING, "U"),)),
        fock.LinearLayer(6, (fock.MeshBlock(5, IDENTITY_SETTING, "U"),), "bottom"),
        fock.TruncateAux((6,)),
        fock.TruncateAux((-1,)),
    ):
        programs.append(fock.NetworkProgram(6, (step,)))
    # a truncation of no modes marks nothing, wherever it stands
    empty = fock.TruncateAux(())
    programs.append(fock.NetworkProgram(6, (empty,)))
    programs.append(fock.NetworkProgram(6, (fock.TruncateAux((0,)), empty)))
    outcomes = collections.Counter()
    for program in programs:
        try:
            expected = reference_place_in_mesh(program, scheme)
        except (PlacementOverflow, ValueError) as refusal:
            outcomes["overflow" if isinstance(refusal, PlacementOverflow) else "empty"] += 1
            with pytest.raises(type(refusal)) as info:
                place_in_mesh(program, scheme)
            assert type(info.value) is type(refusal)
            assert str(info.value) == str(refusal)
            continue
        outcomes["placed"] += 1
        assignment = place_in_mesh(program, scheme)
        assert (assignment.placements, assignment.truncations) == expected
    # both outcomes are exercised, every off-edge step is refused, and so
    # is each empty truncation, by its step index
    assert outcomes["placed"] >= 5 and outcomes["overflow"] >= 5, outcomes
    assert outcomes["empty"] == 2, outcomes
    for program in programs[-6:-2]:
        with pytest.raises(PlacementOverflow, match="does not fit the"):
            place_in_mesh(program, scheme)
    for index, program in enumerate(programs[-2:]):
        with pytest.raises(
            ValueError, match=f"^step {index} truncates no modes, .* {scheme} mesh on 6 modes$"
        ):
            place_in_mesh(program, scheme)


def _slot_programs():
    """``(label, program, scheme)`` of the pinned compile circuits, their
    overflows included, and of a seeded brickwork pool, each compiled
    under both cz_forms and with and without restore swaps."""
    golden = json.loads((DATA / "compile_golden.json").read_text(encoding="utf-8"))
    circuits = [
        (case["name"], parse_circuit(case["circuit"]))
        for case in golden["cases"] + golden["overflows"]
    ]
    rng = np.random.default_rng(29)
    sizes = [(int(rng.integers(3, 17)), int(rng.integers(1, 4))) for _ in range(24)]
    circuits += [
        (f"brickwork n={n} rounds={rounds}", parse_circuit(brickwork(rng, n, rounds)))
        for n, rounds in sizes
    ]
    for label, circuit in circuits:
        for cz_form, restore in itertools.product(("compressed", "swap-sandwich"), (True, False)):
            options = CompileOptions(cz_form=cz_form, restore_swaps=restore, place=False)
            program = compile_circuit(circuit, options).program
            for scheme in ("clements", "reck"):
                yield f"{label} {cz_form} restore={restore} {scheme}", program, scheme


def test_place_in_mesh_puts_at_most_one_block_in_a_slot():
    # phase_table sorts the placements as tuples, with no key: that orders
    # them by (column, top_mode) only while no two share that slot, since
    # two settings that differ in phi3 alone (None against a float) do
    # not compare.
    outcomes = collections.Counter()
    for label, program, scheme in _slot_programs():
        try:
            assignment = place_in_mesh(program, scheme)
        except PlacementOverflow:
            outcomes[scheme, "overflow"] += 1
            continue
        outcomes[scheme, "placed"] += 1
        slots = [(p.column, p.top_mode) for p in assignment.placements]
        assert len(set(slots)) == len(slots), label
        table = assignment.phase_table()
        assert [(s["column"], s["top_mode"]) for s in table["slots"]] == sorted(slots), label
    assert min(outcomes.values()) >= 10 and len(outcomes) == 4, outcomes


def test_records_are_immutable_named_tuples():
    setting = MziSetting(0.1, 0.2, 0.3, 0.4)
    records = [
        GateOp("RZ", (2,), 0.5),
        PlacedBlock(3, 4, setting, "H"),
        TruncationMark(-1, (0, 3)),
        fock.LinearLayer(6, (fock.MeshBlock(0, setting, "H"),), "H q0", 1),
        fock.TruncateAux((0, 3)),
        setting,
    ]
    for record in records:
        name = type(record).__name__
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
        # equal values compare and hash equal, in a new object
        twin = type(record)(*record)
        assert twin is not record and twin == record and hash(twin) == hash(record), name
        assert record._replace() == record
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(record._fields, record))
        assert repr(record) == f"{name}({fields})"
    assert repr(records[2]) == "TruncationMark(after_column=-1, modes=(0, 3))"
    assert repr(records[4]) == "TruncateAux(modes=(0, 3))"
    assert GateOp("H", (0,)).angle is None
    layer = fock.LinearLayer(3, ())
    assert (layer.label, layer.offset) == ("", 0)
    assert (setting.phi3, setting.phi4, setting.is_extended) == (None, None, False)
    extended = setting._replace(phi3=0.5, phi4=-1.0)
    assert extended.is_extended and extended[:4] == setting[:4]
    # A post-selected gate form equals and hashes like its plain block
    # tuple and builds its rule once per object, but only a step whose
    # blocks are the form itself is taken as the gate.
    gate = compiler._post_selected_form("compressed", None)
    blocks = tuple(gate)
    assert type(blocks) is tuple and gate == blocks and hash(gate) == hash(blocks)
    fresh = fock.PostSelectedGate(blocks)
    assert fresh == gate and fresh is not gate and "rule" not in fresh.__dict__
    assert fresh.rule is fresh.rule is fresh.__dict__["rule"] and fresh.rule == gate.rule
    cut = fock.TruncateAux((0, 3))
    gated = fock.NetworkProgram(6, (fock.LinearLayer(6, gate), cut))
    assert fock.run_certified(gated, "00", (0, 1), (0, 0))[1] == pytest.approx(1 / 9, rel=1e-14)
    plain = fock.NetworkProgram(6, (fock.LinearLayer(6, blocks), cut))
    with pytest.raises(ValueError, match="outside the steps of a post-selected gate"):
        fock.run_certified(plain, "00", (0, 1), (0, 0))


def test_place_single_block_and_identity_slots():
    step = gates.layers_to_steps(
        (gates.device_block(0, gates.single_qubit_matrix("H"), "H"),), 3
    )
    program = fock.NetworkProgram(3, (step,))
    assignment = place_in_mesh(program, "clements")
    assert len(assignment.placements) == 1
    placed = assignment.placements[0]
    assert (placed.column, placed.top_mode, placed.role) == (0, 0, "H")
    table = assignment.phase_table()
    assert table["scheme"] == "clements"
    assert table["mode_count"] == 3
    assert len(table["slots"]) == len(assignment.placements)
    assert [(s["column"], s["top_mode"], s["role"]) for s in table["slots"]] == [(0, 0, "H")]
    # the other two slots are parked at the exact identity quadruple
    assert sum(map(len, assignment.tops_by_column())) - len(table["slots"]) == 2
    assert table["idle"] == {"theta1": np.pi, "theta2": 0.0, "phi1": np.pi, "phi2": 0.0}


def test_placement_overflow_raises():
    # the star GHZ program is deeper than one pass of a 9-mode mesh
    circuit = parse_circuit(
        {
            "qubits": 3,
            "gates": [
                {"g": "H", "q": 0},
                {"g": "CNOT", "c": 0, "t": 1},
                {"g": "CNOT", "c": 0, "t": 2},
            ],
        }
    )
    with pytest.raises(PlacementOverflow):
        compile_circuit(circuit)
    # the same circuit still simulates (simulation skips placement)
    sim = simulate_circuit(circuit)
    assert sim.success_probability == pytest.approx(1 / 81, abs=1e-10)


def test_truncation_marks_recorded_in_assignment():
    result = compile_circuit(bell_circuit())
    assert result.assignment is not None
    assert len(result.assignment.truncations) == 1
    mark = result.assignment.truncations[0]
    assert mark.modes == (0, 3)
    assert 0 <= mark.after_column < len(result.assignment.tops_by_column())


def test_mesh_phase_table_reproduces_bell_state():
    result = compile_circuit(bell_circuit())
    rebuilt = assignment_program(result.assignment)
    state = fock.prepare_computational_basis("00", 2)
    final = fock.run_program(rebuilt, state)
    projected = fock.project_qubit_structure(final)
    amps, prob = decode_logical(projected, result.positions, result.flips)
    sim = simulate_circuit(bell_circuit())
    assert np.max(np.abs(fock.dense_amplitudes(amps, 2) - sim.amplitudes)) < 1e-10
    assert prob == pytest.approx(sim.success_probability, abs=1e-12)


def test_mesh_phase_table_reproduces_bell_state_on_reck():
    result = compile_circuit(bell_circuit(), CompileOptions(scheme="reck"))
    assert result.assignment.scheme == "reck"
    rebuilt = assignment_program(result.assignment)
    state = fock.prepare_computational_basis("00", 2)
    final = fock.run_program(rebuilt, state)
    projected = fock.project_qubit_structure(final)
    amps, prob = decode_logical(projected, result.positions, result.flips)
    sim = simulate_circuit(bell_circuit())
    assert np.max(np.abs(fock.dense_amplitudes(amps, 2) - sim.amplitudes)) < 1e-10


def test_enumerate_placements_counts():
    assert enumerate_placements(gates.cz_ps_nonregular(), "clements", 6) == 5
    assert enumerate_placements(gates.cz_ps_nonregular(), "reck", 6) == 1
    assert enumerate_placements(gates.cz_ps_regular(), "clements", 6) == 2
    assert enumerate_placements(gates.cz_ps_regular(), "reck", 6) == 1
    with pytest.raises(ValueError):
        enumerate_placements((), "clements", 6)


def test_swap_networks_mesh_compatibility():
    nets = gates.swap_networks()
    for scheme in ("clements", "reck"):
        step = gates.layers_to_steps(nets["SWAP2"].blocks, 6)
        place_in_mesh(fock.NetworkProgram(6, (step,)), scheme)
    step = gates.layers_to_steps(nets["SWAP2A"].blocks, 6)
    place_in_mesh(fock.NetworkProgram(6, (step,)), "clements")
    with pytest.raises(PlacementOverflow):
        place_in_mesh(fock.NetworkProgram(6, (step,)), "reck")


def test_compile_result_carries_program_not_amplitudes():
    result = compile_circuit(bell_circuit(), CompileOptions(place=False))
    assert result.assignment is None
    assert len(result.positions) == 2
    assert result.program.mode_count == 6
    assert any(isinstance(s, fock.TruncateAux) for s in result.program.steps)


def test_simulate_rejects_bad_bits():
    with pytest.raises(ValueError):
        simulate_circuit(bell_circuit(), "0")


def test_placement_refuses_an_unknown_program_step():
    program = fock.NetworkProgram(6, (fock.TruncateAux((0, 3)), "bogus"))
    with pytest.raises(TypeError, match="^unknown program step str$"):
        place_in_mesh(program, "clements")


def test_compile_refuses_an_unknown_gate_in_a_hand_built_circuit():
    # parse_circuit refuses the name first; a hand-built CircuitIR skips it
    circuit = CircuitIR(2, (GateOp("H", (0,)), GateOp("CCX", (0, 1))))
    with pytest.raises(CircuitParseError, match="^unknown gate 'CCX'$"):
        compile_circuit(circuit)


def test_assignment_program_keeps_a_leading_truncation():
    # A truncation before any block marks after_column -1, and the rebuilt
    # program truncates before its first column, as the original does.
    cz = gates.cz_ps_regular().blocks
    program = fock.NetworkProgram(6, (fock.TruncateAux((0, 3)), gates.layers_to_steps(cz, 6)))
    assignment = place_in_mesh(program, "clements")
    assert assignment.truncations == (TruncationMark(-1, (0, 3)),)
    rebuilt = assignment_program(assignment)
    assert rebuilt.steps[0] == fock.TruncateAux((0, 3))
    assert [type(step) for step in rebuilt.steps[1:]] == [fock.LinearLayer] * 6
    state = fock.PhotonicState(6, {(1, 0, 0, 0, 1, 0): 1.0 + 0j, (0, 1, 0, 0, 1, 0): 1.0 + 0j})
    want = fock.run_program(program, state).terms
    got = fock.run_program(rebuilt, state).terms
    assert set(got) == set(want) and len(want) > 0
    assert all(abs(got[k] - want[k]) < 1e-12 for k in want)

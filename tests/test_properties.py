"""Property tests: random circuits against the dense oracle and the
unpruned fold, with the forest certificate checked against the test's own
photon graph."""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from photonmesh import fock  # noqa: E402
from photonmesh.compiler import (  # noqa: E402
    CompileOptions,
    compile_circuit,
    parse_circuit,
    simulate_circuit,
)

from helpers import dense_circuit_state, fused_fold_problems, state_fidelity  # noqa: E402

SINGLES = ("I", "X", "Y", "Z", "H", "T", "RZ", "RX", "RY")

options = st.builds(
    CompileOptions,
    cz_form=st.sampled_from(("compressed", "swap-sandwich")),
    restore_swaps=st.booleans(),
    place=st.just(False),
)


@st.composite
def circuits(draw, forest: bool):
    """A circuit dict and whether its photon graph is a forest.

    Photons are tracked through logical SWAPs; a CZ/CNOT on an already
    used logical pair is never drawn (the compiler refuses it).  With
    ``forest``, circuits have up to 8 qubits and 24 gates, so that long
    routed chains occur, and entanglers that would close a cycle are
    skipped; without it, entanglers are drawn more often, on 3 or 4 qubits
    and up to 12 gates, so that cycles and repeated photon pairs are
    common.
    """
    n = draw(st.integers(2, 8) if forest else st.integers(3, 4))
    kinds = ("single", "single", "swap", "entangler")
    if not forest:
        kinds = ("single", "swap", "entangler", "entangler")
    photon = list(range(n))
    parent = list(range(n))
    used = set()
    acyclic = True

    def root(p):
        while parent[p] != p:
            p = parent[p]
        return p

    gates = []
    for _ in range(draw(st.integers(1, 24 if forest else 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "single":
            name = draw(st.sampled_from(SINGLES))
            gate = {"g": name, "q": draw(st.integers(0, n - 1))}
            if name in ("RZ", "RX", "RY"):
                gate["angle"] = draw(st.floats(-np.pi, np.pi))
            gates.append(gate)
            continue
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if kind == "swap":
            gates.append({"g": "SWAP", "a": a, "b": b})
            photon[a], photon[b] = photon[b], photon[a]
            continue
        ra, rb = root(photon[a]), root(photon[b])
        if frozenset((a, b)) in used or (forest and ra == rb):
            continue
        used.add(frozenset((a, b)))
        acyclic &= ra != rb
        parent[ra] = rb
        gates.append({"g": draw(st.sampled_from(("CZ", "CNOT"))), "c": a, "t": b})
    return {"qubits": n, "gates": gates}, acyclic


def basis_input(n: int):
    return st.text(alphabet="01", min_size=n, max_size=n)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(circuits(forest=True), options, st.data())
def test_forest_circuits_match_the_dense_oracle(drawn, opts, data):
    payload, _ = drawn
    circuit = parse_circuit(payload)
    bits = data.draw(basis_input(circuit.qubit_count))
    sim = simulate_circuit(circuit, bits, opts)
    assert sim.compile_result.forest
    oracle = dense_circuit_state(circuit, bits)
    assert state_fidelity(sim.amplitudes, oracle) > 1 - 1e-9
    entanglers = sum(op.name in ("CZ", "CNOT") for op in circuit.gates)
    assert sim.success_probability * 9.0**entanglers == pytest.approx(1.0, abs=1e-9)
    # The certified fold applies each post-selected gate as one rule on one
    # bit per photon; the unpruned fold, projected and decoded, keeps its
    # basis indices, and its amplitudes and success probability to rounding.
    assert fused_fold_problems(sim.compile_result, bits) == []


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(circuits(forest=True), options, st.data())
def test_sparse_amplitudes_are_the_nonzero_entries_of_the_dense_view(drawn, opts, data):
    payload, _ = drawn
    circuit = parse_circuit(payload)
    n = circuit.qubit_count
    bits = data.draw(basis_input(n))
    sim = simulate_circuit(circuit, bits, opts)
    dense = sim.amplitudes
    nonzero = np.flatnonzero(dense).tolist()
    assert list(sim.sparse_amplitudes) == nonzero
    assert list(sim.sparse_amplitudes.values()) == dense[nonzero].tolist()
    # a dense decode of the unpruned fold's projection, written out here
    layout = fock.QubitLayout(n)
    result = sim.compile_result
    state = fock.prepare_computational_basis(bits, layout)
    full = fock.run_program(result.program, state)
    projected = fock.project_qubit_structure(full, layout).projected_state
    oracle = np.zeros(2**n, dtype=complex)
    for occ, amp in projected.terms.items():
        bits = [occ[layout.one_mode(result.positions[q])] ^ result.flips[q] for q in range(n)]
        oracle[int("".join(map(str, bits)), 2)] += amp
    oracle = fock.canonical_global_phase(oracle / np.linalg.norm(oracle))
    assert np.flatnonzero(oracle).tolist() == nonzero
    assert np.max(np.abs(oracle - dense)) < 1e-15


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(circuits(forest=False), options, st.data())
def test_any_circuit_projects_like_the_unpruned_fold(drawn, opts, data):
    payload, acyclic = drawn
    circuit = parse_circuit(payload)
    n = circuit.qubit_count
    bits = data.draw(basis_input(n))
    sim = simulate_circuit(circuit, bits, opts)
    assert sim.compile_result.forest == acyclic
    layout = fock.QubitLayout(n)
    state = fock.prepare_computational_basis(bits, layout)
    result = sim.compile_result
    full = fock.project_qubit_structure(fock.run_program(result.program, state), layout)
    amps, p = fock.decode_logical(full, layout, result.positions, result.flips)
    if not acyclic:  # the light cone alone: bit for bit
        assert list(sim.sparse_amplitudes.items()) == list(amps.items())
        assert sim.success_probability == p
        return
    assert list(sim.sparse_amplitudes) == list(amps)
    for index, amp in amps.items():
        assert abs(sim.sparse_amplitudes[index] - amp) < 1e-14
    assert sim.success_probability == pytest.approx(p, rel=1e-13)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.booleans(), options, st.data())
def test_projecting_the_pruned_fold_keeps_every_term(forest_circuit, opts, data):
    # The pruned fold's last checks already enforce qubit structure, so the
    # final projection drops no term and keeps the key order.  The
    # certified fold folds any compiled program, certified or not, and
    # decodes to as many basis states as it keeps terms.
    payload, _ = data.draw(circuits(forest=forest_circuit))
    circuit = parse_circuit(payload)
    n = circuit.qubit_count
    layout = fock.QubitLayout(n)
    bits = data.draw(basis_input(n))
    state = fock.prepare_computational_basis(bits, layout)
    result = compile_circuit(circuit, opts)
    pruned = fock.run_program_pruned(result.program, state, layout)
    projected = fock.project_qubit_structure(pruned, layout).projected_state
    assert list(projected.terms.items()) == list(pruned.terms.items())
    amps, p = fock.run_certified(result.program, bits, result.positions, result.flips)
    assert 0 < len(amps) <= 2**n and 0 < p <= 1

"""Acceptance suite: one test per shipped correctness criterion.

Each test prints a single ``[criterion NN] <label>: PASS/FAIL`` line and
enforces the stated runtime budget, so ``pytest -v -s`` gives a compact
scorecard of the package's core guarantees.
"""

from __future__ import annotations

import functools
import itertools
import time

import numpy as np
import pytest

from photonmesh import analysis, gates
from photonmesh.compiler import (
    CompileOptions,
    IllegalCascade,
    PlacementOverflow,
    assignment_program,
    bell_circuit,
    compile_circuit,
    compile_ghz_swap_variant,
    decode_logical,
    enumerate_placements,
    ghz_chain_circuit,
    parse_circuit,
    place_in_mesh,
    simulate_circuit,
)
from photonmesh.fock import (
    LinearLayer,
    MeshBlock,
    NetworkProgram,
    PhotonicState,
    TruncateAux,
    amplitude_via_permanent,
    apply_linear,
    dense_amplitudes,
    prepare_computational_basis,
    project_qubit_structure,
    run_program,
)
from photonmesh.linalg import (
    bs_general,
    equal_mod_global_phase,
    setting_unitary,
    solve_mzi_settings,
)

from helpers import random_mesh, run_layers, state_fidelity

CZ_DIAG = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def criterion(num: int, label: str, seconds: float):
    """Wrap a test body with a runtime budget and a scorecard line."""

    def deco(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"[criterion {num:02d}] {label}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            assert elapsed < seconds, (
                f"criterion {num} took {elapsed:.2f}s, budget {seconds}s"
            )
            print(f"[criterion {num:02d}] {label}: PASS ({elapsed:.2f}s)")

        return run

    return deco


def bell_state() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0b00] = v[0b11] = 1 / np.sqrt(2)
    return v


def ghz3_state() -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    v[0b000] = v[0b111] = 1 / np.sqrt(2)
    return v


@criterion(1, "post-selected CZ acts as diag(1,1,1,-1) at success 1/9", 1.0)
def test_criterion_01_cz_correctness():
    # rail modes of the two qubits in each six-mode labeling
    cases = (
        (gates.cz_ps_regular(), ((1, 2), (4, 5))),
        (gates.cz_ps_nonregular(), ((1, 2), (3, 4))),
    )
    for descriptor, (rails0, rails1) in cases:
        m, probs = gates.conditional_qubit_map(descriptor)
        assert equal_mod_global_phase(3.0 * m, CZ_DIAG, tol=1e-9)
        for p in probs:
            assert abs(p - 1.0 / 9.0) < 1e-10

        def occupation(j: int) -> tuple[int, ...]:
            occ = [0] * 6
            occ[rails0[(j >> 1) & 1]] = 1
            occ[rails1[j & 1]] = 1
            return tuple(occ)

        rng = np.random.default_rng(29)
        for _ in range(50):
            q0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            q1 = rng.normal(size=2) + 1j * rng.normal(size=2)
            q0 /= np.linalg.norm(q0)
            q1 /= np.linalg.norm(q1)
            coeff = np.kron(q0, q1)
            state = PhotonicState(6, {occupation(j): coeff[j] for j in range(4)})
            out = run_layers(state, descriptor.mzi_layers)
            projected = np.array([out.terms.get(occupation(k), 0j) for k in range(4)])
            assert abs(float(np.sum(np.abs(projected) ** 2)) - 1.0 / 9.0) < 1e-10
            assert equal_mod_global_phase(3.0 * projected, CZ_DIAG @ coeff, tol=1e-9)


@criterion(2, "Bell circuit reaches (|00>+|11>)/sqrt(2) at p = 1/9", 1.0)
def test_criterion_02_bell_circuit():
    sim = simulate_circuit(bell_circuit(), "00")
    assert state_fidelity(sim.amplitudes, bell_state()) >= 1 - 1e-10
    assert abs(sim.success_probability - 1.0 / 9.0) < 1e-10


@criterion(3, "both GHZ constructions reach the GHZ state at p = 1/81", 5.0)
def test_criterion_03_ghz_variants():
    sim = simulate_circuit(ghz_chain_circuit(3), "000")
    assert state_fidelity(sim.amplitudes, ghz3_state()) >= 1 - 1e-10
    assert abs(sim.success_probability - 1.0 / 81.0) < 1e-10

    variant = compile_ghz_swap_variant()
    state = prepare_computational_basis("000", 3)
    final = run_program(variant.program, state)
    projected = project_qubit_structure(final)
    amps, prob = decode_logical(projected, variant.positions, variant.flips)
    assert state_fidelity(dense_amplitudes(amps, 3), ghz3_state()) >= 1 - 1e-10
    assert abs(prob - 1.0 / 81.0) < 1e-10


@criterion(4, "GHZ chain success scales as 9**(1-n) up to n = 5", 60.0)
def test_criterion_04_ghz_scaling():
    for n, prob in analysis.ghz_probability_scan(5):
        assert abs(prob - 9.0 ** (1 - n)) < 1e-10


@criterion(5, "omitting aux truncation corrupts the GHZ chain output", 5.0)
def test_criterion_05_truncation_necessity():
    compiled = compile_circuit(ghz_chain_circuit(3), CompileOptions(place=False))
    steps = tuple(s for s in compiled.program.steps if not isinstance(s, TruncateAux))
    assert len(steps) < len(compiled.program.steps)
    final = run_program(
        NetworkProgram(9, steps),
        prepare_computational_basis("000", 3),
    )
    amps, _ = decode_logical(
        project_qubit_structure(final), compiled.positions, compiled.flips
    )
    overlap_sq = state_fidelity(dense_amplitudes(amps, 3), ghz3_state())
    assert overlap_sq < 1 - 1e-3


@criterion(6, "a second post-selected gate on a pair raises IllegalCascade", 1.0)
def test_criterion_06_cascade_prohibition():
    circuit = parse_circuit(
        {
            "qubits": 2,
            "gates": [{"g": "CNOT", "c": 0, "t": 1}, {"g": "CNOT", "c": 0, "t": 1}],
        }
    )
    with pytest.raises(IllegalCascade):
        compile_circuit(circuit, CompileOptions(place=False))


@criterion(7, "state propagation matches the permanent formula", 30.0)
def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(41)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        photons = int(rng.integers(1, 4))
        occ = [0] * m
        for _ in range(photons):
            occ[int(rng.integers(0, m))] += 1
        occ = tuple(occ)
        mesh = random_mesh(m, rng)
        u = gates.layer_matrix(sum(mesh, ()), m)
        out = run_layers(PhotonicState(m, {occ: 1.0 + 0.0j}), mesh)
        for combo in itertools.combinations_with_replacement(range(m), photons):
            target = [0] * m
            for mode in combo:
                target[mode] += 1
            target = tuple(target)
            direct = out.terms.get(target, 0j)
            reference = amplitude_via_permanent(u, occ, target)
            assert abs(direct - reference) < 1e-10


@criterion(8, "mesh embedding counts and SWAP network fits", 1.0)
def test_criterion_08_embedding_counts():
    assert enumerate_placements(gates.cz_ps_nonregular(), "clements", 6) == 5
    assert enumerate_placements(gates.cz_ps_nonregular(), "reck", 6) == 1
    assert enumerate_placements(gates.cz_ps_regular(), "clements", 6) == 2
    assert enumerate_placements(gates.cz_ps_regular(), "reck", 6) == 1

    nets = gates.swap_networks()
    for scheme in ("clements", "reck"):
        step = gates.layers_to_steps(nets["SWAP2"].blocks, 6)
        place_in_mesh(NetworkProgram(6, (step,)), scheme, 6)
    step = gates.layers_to_steps(nets["SWAP2A"].blocks, 6)
    with pytest.raises(PlacementOverflow):
        place_in_mesh(NetworkProgram(6, (step,)), "reck", 6)


@criterion(9, "every tabulated MZI setting reproduces its gate matrix", 1.0)
def test_criterion_09_setting_table():
    for name in ("I", "X", "Y", "Z", "H", "T"):
        evaluated = setting_unitary(gates.single_qubit_setting(name))
        assert equal_mod_global_phase(
            evaluated, gates.single_qubit_matrix(name), tol=1e-9
        )
    for matrix, setting in gates.r13_matrices():
        assert equal_mod_global_phase(setting_unitary(setting), matrix, tol=1e-9)


@criterion(10, "no bare 4-mode mesh implements a post-selected CZ", 300.0)
def test_criterion_10_cz_impossibility_in_4_modes():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        vals = rng.uniform(-2.0, 2.0, size=6)
        g11 = complex(vals[0], vals[1])
        g23 = complex(vals[2], vals[3])
        c = complex(vals[4], vals[5])
        if min(abs(g11), abs(g23), abs(c)) < 1e-3:
            continue
        checked += 1
        assert analysis.cz_constraint_residual(g11, g23, c) > 1e-3

    report = analysis.search_cz_in_4x4(restarts=200, seed=0)
    feasible_and_faithful = (
        report.best_process_fidelity > 1 - 1e-3
        and report.best_success_probability > 1e-6
    )
    assert not feasible_and_faithful
    assert report.constraint_residual > 1e-3


@criterion(11, "phase-table reconstruction reproduces circuit amplitudes", 10.0)
def test_criterion_11_mesh_faithfulness():
    for circuit, bits in ((bell_circuit(), "00"), (ghz_chain_circuit(3), "000")):
        reference = simulate_circuit(circuit, bits)
        for scheme in ("clements", "reck"):
            result = compile_circuit(circuit, CompileOptions(scheme=scheme))
            rebuilt = assignment_program(result.assignment)
            state = prepare_computational_basis(bits, result.qubit_count)
            final = run_program(rebuilt, state)
            projected = project_qubit_structure(final)
            amps, prob = decode_logical(
                projected, result.positions, result.flips
            )
            dense = dense_amplitudes(amps, result.qubit_count)
            assert np.allclose(dense, reference.amplitudes, atol=1e-10)
            assert abs(prob - reference.success_probability) < 1e-10


@criterion(12, "two photons never exit a 50:50 splitter separately", 1.0)
def test_criterion_12_hong_ou_mandel():
    splitter = bs_general(1 / np.sqrt(2), 1 / np.sqrt(2))
    block = MeshBlock(0, solve_mzi_settings(splitter), "BS")
    out = apply_linear(PhotonicState(2, {(1, 1): 1.0 + 0.0j}), LinearLayer(2, (block,)))
    assert abs(out.terms.get((1, 1), 0j)) < 1e-12
    assert abs(out.terms.get((2, 0), 0j) - 1j / np.sqrt(2)) < 1e-12
    assert abs(out.terms.get((0, 2), 0j) - 1j / np.sqrt(2)) < 1e-12

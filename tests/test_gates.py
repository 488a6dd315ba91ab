"""Gate devices, MZI settings, post-selected networks, and swap networks."""

from __future__ import annotations

import numpy as np
import pytest

from photonmesh.fock import (
    PhotonicState,
    decode_logical,
    dense_amplitudes,
    project_qubit_structure,
)
from photonmesh.gates import (
    PAULI_X,
    R13,
    R13_DAGGER,
    R13_PRIME,
    SUCCESS_CZ,
    cnot_ps,
    conditional_qubit_map,
    cz_ps_nonregular,
    cz_ps_regular,
    device_block,
    gate_library,
    layer_matrix,
    layers_to_steps,
    r13_matrices,
    single_qubit_matrix,
    single_qubit_setting,
    swap_networks,
)
from photonmesh.linalg import check_unitary, equal_mod_global_phase, setting_unitary

from helpers import CNOT4, CZ4, T, H, X, Y, Z, rx, ry, rz, run_layers, state_fidelity


def test_fixed_single_qubit_matrices():
    assert np.allclose(single_qubit_matrix("I"), np.eye(2), atol=1e-15)
    assert np.allclose(single_qubit_matrix("X"), X, atol=1e-15)
    assert np.allclose(single_qubit_matrix("Y"), Y, atol=1e-15)
    assert np.allclose(single_qubit_matrix("Z"), Z, atol=1e-15)
    assert np.allclose(single_qubit_matrix("H"), H, atol=1e-15)
    assert np.allclose(single_qubit_matrix("T"), T, atol=1e-15)


def test_rotation_matrix_conventions():
    for delta in (0.0, 0.3, -1.7, np.pi):
        assert np.allclose(single_qubit_matrix("RZ", delta), rz(delta), atol=1e-12)
        assert np.allclose(single_qubit_matrix("RX", delta), rx(delta), atol=1e-12)
        assert np.allclose(single_qubit_matrix("RY", delta), ry(delta), atol=1e-12)
    with pytest.raises(ValueError):
        single_qubit_matrix("RZ")
    with pytest.raises(ValueError):
        single_qubit_matrix("Q")


def test_named_settings_realize_their_gates_up_to_phase():
    for name in ("I", "X", "Y", "Z", "H", "T"):
        u = setting_unitary(single_qubit_setting(name))
        assert equal_mod_global_phase(u, single_qubit_matrix(name), tol=1e-9)


def test_rotation_settings_realize_their_gates_up_to_phase():
    for name in ("RZ", "RX", "RY"):
        for delta in (0.0, 0.4, -2.2, np.pi / 3, np.pi):
            u = setting_unitary(single_qubit_setting(name, delta))
            assert equal_mod_global_phase(
                u, single_qubit_matrix(name, delta), tol=1e-9
            )


def test_t_gate_relative_phases():
    setting = single_qubit_setting("T")
    theta, phi = setting.theta1 - setting.theta2, setting.phi1 - setting.phi2
    assert theta == pytest.approx(np.pi, abs=1e-12)
    assert phi == pytest.approx(3 * np.pi / 4, abs=1e-12)


def test_r13_family_values_and_relations():
    third = 1.0 / np.sqrt(3.0)
    assert np.allclose(
        R13, third * np.array([[-1, np.sqrt(2)], [-np.sqrt(2), -1]]), atol=1e-15
    )
    assert np.allclose(
        R13_PRIME, third * np.array([[-1, np.sqrt(2)], [np.sqrt(2), 1]]), atol=1e-15
    )
    assert np.allclose(R13_DAGGER, R13.T, atol=1e-15)
    assert np.allclose(R13_DAGGER @ R13, np.eye(2), atol=1e-14)
    for m in (R13, R13_PRIME, R13_DAGGER):
        assert check_unitary(m, tol=1e-14).is_unitary


def test_r13_settings_realize_their_matrices():
    for matrix, setting in r13_matrices():
        assert equal_mod_global_phase(setting_unitary(setting), matrix, tol=1e-9)


def test_gate_descriptor_matrix_is_substitution_transpose():
    # the substitution matrix of a device G is its transpose, on its own
    # rail pair and embedded at an offset in a wider mode space; Y and RY
    # are not symmetric, so G and G^T differ
    for g in (H, T, Y, ry(0.7)):
        block = device_block(0, g, "G")
        assert np.allclose(layer_matrix((block,), 2), g.T, atol=1e-12)
        wide = np.eye(4, dtype=complex)
        wide[1:3, 1:3] = g.T
        assert np.allclose(layer_matrix((block,), 4, offset=1), wide, atol=1e-12)


def test_layer_matrix_rebuilds_descriptors():
    for name, desc in gate_library().items():
        rebuilt = layer_matrix(desc.blocks, desc.mode_count)
        assert np.allclose(rebuilt, desc.matrix, atol=1e-9), name


def test_layers_to_steps_offsets_blocks():
    # a two-layer network becomes one step holding its block tuple itself
    blocks = (device_block(0, PAULI_X, "X"), device_block(1, H, "H"))
    step = layers_to_steps(blocks, 5, offset=2, label="shifted")
    assert step.label == "shifted"
    assert step.blocks is blocks
    assert step.offset == 2
    first, second = np.eye(5, dtype=complex), np.eye(5, dtype=complex)
    first[2:4, 2:4] = X.T
    second[3:5, 3:5] = H.T
    assert np.allclose(step.matrix, first @ second, atol=1e-12)


def test_single_layer_blocks_share_consistent_global_phases():
    # Blocks solved per slot must reproduce the layer matrix exactly, not
    # just block-by-block up to independent phases.
    desc = cz_ps_nonregular()
    (layer,) = desc.mzi_layers
    assert [blk.top_mode for blk in layer] == [0, 2, 4]
    assert np.allclose(layer_matrix(layer, 6), desc.matrix, atol=1e-12)


def test_cz_regular_structure():
    desc = cz_ps_regular()
    assert desc.name == "CZ"
    assert desc.native_labeling == "regular"
    assert desc.mode_count == 6
    assert desc.truncate_after
    assert len(desc.mzi_layers) == 3
    expected = (
        np.array(
            [
                [-1, np.sqrt(2), 0, 0, 0, 0],
                [np.sqrt(2), 1, 0, 0, 0, 0],
                [0, 0, -1, 0, -np.sqrt(2), 0],
                [0, 0, 0, -1, 0, np.sqrt(2)],
                [0, 0, np.sqrt(2), 0, -1, 0],
                [0, 0, 0, -np.sqrt(2), 0, -1],
            ]
        )
        / np.sqrt(3)
    )
    assert np.allclose(desc.matrix, expected, atol=1e-12)


def test_cz_conditional_map_both_labelings():
    target = np.diag([1.0, 1.0, 1.0, -1.0])
    for desc in (cz_ps_regular(), cz_ps_nonregular()):
        m, probs = conditional_qubit_map(desc)
        assert np.allclose(m, -target / 3.0, atol=1e-10)
        assert np.allclose(probs, SUCCESS_CZ, atol=1e-12)
    assert SUCCESS_CZ == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_cnot_conditional_map_both_labelings():
    for labeling in ("regular", "nonregular"):
        desc = cnot_ps(labeling)
        m, probs = conditional_qubit_map(desc)
        assert equal_mod_global_phase(3.0 * m, CNOT4, tol=1e-9)
        assert np.allclose(probs, 1.0 / 9.0, atol=1e-12)


def test_swap_networks_are_permutations():
    images = {
        "X": (1, 0),
        "SWAP2P": (2, 3, 0, 1),
        "SWAP1A": (1, 2, 0),
        "SWAP2": (0, 5, 4, 3, 2, 1),
        "SWAP2A": (3, 4, 5, 0, 1, 2),
    }
    nets = swap_networks()
    assert set(nets) == set(images)
    for name, desc in nets.items():
        perm = np.zeros((desc.mode_count, desc.mode_count), dtype=complex)
        for j, k in enumerate(images[name]):
            perm[j, k] = 1.0
        assert np.allclose(desc.matrix, perm, atol=1e-12), name
        assert not desc.truncate_after


def test_swap_network_layer_counts():
    nets = swap_networks()
    layer_counts = {name: len(desc.mzi_layers) for name, desc in nets.items()}
    assert layer_counts == {"X": 1, "SWAP2P": 3, "SWAP1A": 2, "SWAP2": 5, "SWAP2A": 6}
    assert sum(len(layer) for layer in nets["SWAP2A"].mzi_layers) == 13


def test_swap1a_cycles_aux_through_triplet():
    m = swap_networks()["SWAP1A"].matrix
    assert np.allclose(np.linalg.matrix_power(m, 3), np.eye(3), atol=1e-12)
    assert not np.allclose(np.linalg.matrix_power(m, 2), np.eye(3), atol=1e-3)


def test_swap2_is_an_involution_and_rail_flips():
    swap2 = swap_networks()["SWAP2"]
    m = swap2.matrix
    assert np.allclose(m @ m, np.eye(6), atol=1e-12)
    # photon in qubit 0's zero rail (mode 1) lands in qubit 1's one rail
    state = PhotonicState(6, {(0, 1, 0, 0, 1, 0): 1.0 + 0.0j})  # |00>
    out_state = run_layers(state, swap2.mzi_layers)
    amps, prob = decode_logical(project_qubit_structure(out_state), (0, 1), (0, 0))
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert abs(dense_amplitudes(amps, 2)[0b11]) == pytest.approx(1.0, abs=1e-12)


def test_conditional_map_rejects_single_qubit_networks():
    with pytest.raises(ValueError):
        conditional_qubit_map(swap_networks()["X"])


def test_cnot_applies_hadamards_on_target_rails():
    reg = cnot_ps("regular")
    non = cnot_ps("nonregular")
    assert reg.native_labeling == "regular"
    assert non.native_labeling == "nonregular"
    # CNOT = (I (x) H) CZ (I (x) H) as a substitution product
    h_first = reg.mzi_layers[0]
    assert len(h_first) == 1
    assert h_first[0].top_mode == 4
    assert non.mzi_layers[0][0].top_mode == 3


def test_flipped_basis_states_route_through_x_conjugation():
    # X G X equals the gate seen by a rail-flipped qubit
    g = single_qubit_matrix("T")
    flipped = PAULI_X @ g @ PAULI_X
    assert np.allclose(flipped, np.array([[g[1, 1], 0], [0, g[0, 0]]]), atol=1e-14)


def test_entangled_state_from_direct_network_run():
    # H on qubit 0 then the raw CZ network produces a maximally entangled
    # state when both qubits start in |+>-ish superpositions; check via a
    # hand-built two-photon input on the regular labeling.
    desc = cz_ps_regular()
    plus = 1.0 / np.sqrt(2.0)
    terms = {}
    for b0 in (0, 1):
        for b1 in (0, 1):
            occ = [0] * 6
            occ[1 + b0] = occ[4 + b1] = 1
            terms[tuple(occ)] = plus * plus
    state = run_layers(PhotonicState(6, terms), desc.mzi_layers)
    amps, prob = decode_logical(project_qubit_structure(state), (0, 1), (0, 0))
    expected = np.array([0.5, 0.5, 0.5, -0.5])
    assert state_fidelity(dense_amplitudes(amps, 2), expected) == pytest.approx(1.0, abs=1e-10)
    assert prob == pytest.approx(1.0 / 9.0, abs=1e-10)

"""Exact Fock-state simulation: expansion, permanents, projection, decoding."""

from __future__ import annotations

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from photonmesh import fock
from photonmesh.compiler import (
    CompileOptions,
    _post_selected_form,
    bell_circuit,
    compile_circuit,
    ghz_chain_circuit,
    parse_circuit,
    simulate_circuit,
)
from photonmesh.fock import (
    PRUNE_THRESHOLD,
    LinearLayer,
    MeshBlock,
    NetworkProgram,
    PhotonicState,
    PostSelectionResult,
    TruncateAux,
    amplitude_via_permanent,
    apply_linear,
    canonical_global_phase,
    decode_logical,
    dense_amplitudes,
    format_state_dump,
    light_cone,
    prepare_computational_basis,
    project_qubit_structure,
    qubit_structure,
    run_certified,
    run_program,
    run_program_pruned,
    truncate_aux,
)
from photonmesh.gates import PAULI_X, layer_matrix, swap_networks
from photonmesh.linalg import (
    IDENTITY_SETTING,
    MziSetting,
    setting_unitary,
    solve_mzi_settings,
)

from helpers import (
    BS,
    keep_checked,
    logical_checks,
    random_mesh,
    random_setting,
    reference_frames,
    reference_light_cone,
    run_layers,
    split_partition,
)

BS_SETTING = solve_mzi_settings(BS)


def splitter_layer(m: int, top: int) -> LinearLayer:
    """One 50:50 beam-splitter block on modes ``(top, top + 1)``."""
    return LinearLayer(m, (MeshBlock(top, BS_SETTING, "BS"),))


def test_qubit_q_owns_modes_3q_to_3q_plus_2():
    # aux 3q, rail 0 at 3q + 1 and rail 1 at 3q + 2, read from the count alone
    assert qubit_structure(3) == (
        ((0,), 0), ((1, 2), 1), ((3,), 0), ((4, 5), 1), ((6,), 0), ((7, 8), 1)
    )
    (occ,) = prepare_computational_basis("010", 3).terms
    assert [mode for mode, n in enumerate(occ) if n] == [1, 5, 7]


def test_prepare_computational_basis_occupations():
    state = prepare_computational_basis("01", 2)
    assert state.terms == {(0, 1, 0, 0, 0, 1): 1.0 + 0.0j}
    same = prepare_computational_basis([0, 1], 2)
    assert same.terms == state.terms
    with pytest.raises(ValueError):
        prepare_computational_basis("0x", 2)
    with pytest.raises(ValueError):
        prepare_computational_basis("0", 2)


def test_single_photon_amplitudes_follow_matrix_row():
    rng = np.random.default_rng(2)
    mesh = random_mesh(4, rng)
    t = layer_matrix(sum(mesh, ()), 4)
    state = PhotonicState(4, {(0, 1, 0, 0): 1.0 + 0.0j})
    out = run_layers(state, mesh)
    for k in range(4):
        occ = tuple(1 if j == k else 0 for j in range(4))
        assert abs(out.terms.get(occ, 0j) - t[1, k]) < 1e-12


def test_apply_linear_preserves_norm():
    rng = np.random.default_rng(4)
    mesh = random_mesh(5, rng)
    state = PhotonicState(5, {(1, 0, 2, 0, 0): 0.6, (0, 1, 0, 1, 1): 0.8j})
    out = run_layers(state, mesh)
    assert out.squared_norm() == pytest.approx(1.0, abs=1e-12)


def test_apply_linear_matches_permanent_formula():
    # Each random mesh runs twice: layer by layer through apply_linear,
    # which materializes every layer, and as one run_program fold with
    # layers of crossings and pure phases interleaved, so that its mixing
    # blocks act on non-adjacent slots after phases have built up.
    rng = np.random.default_rng(6)
    crossing = solve_mzi_settings(PAULI_X)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        mesh = random_mesh(m, rng)
        t = layer_matrix(sum(mesh, ()), m)
        occ = [0] * m
        for _ in range(int(rng.integers(1, 4))):
            occ[int(rng.integers(0, m))] += 1
        occ = tuple(occ)
        out = run_layers(PhotonicState(m, {occ: 1.0 + 0.0j}), mesh)
        for out_occ, amp in out.terms.items():
            ref = amplitude_via_permanent(t, occ, out_occ)
            assert abs(amp - ref) < 1e-11
        layers = []
        for blocks in mesh:
            monomial = []
            for top in rng.integers(0, m - 1, size=int(rng.integers(1, 2 * m))):
                # the solved crossing, or a crossing (inner phases equal) or
                # a pure phase (inner phases pi apart) with random phases
                theta, *phis = rng.uniform(0.0, 2.0 * np.pi, size=5)
                setting = (
                    crossing,
                    MziSetting(theta, theta, *phis),
                    MziSetting(theta + np.pi, theta, *phis),
                )[int(rng.integers(3))]
                monomial.append(MeshBlock(int(top), setting, "M"))
            layers += [tuple(monomial), blocks]
        program = NetworkProgram(m, tuple(LinearLayer(m, blk) for blk in layers))
        out = run_program(program, PhotonicState(m, {occ: 1.0 + 0.0j}))
        t = layer_matrix(sum(layers, ()), m)
        for combo in itertools.combinations_with_replacement(range(m), sum(occ)):
            target = tuple(combo.count(mode) for mode in range(m))
            ref = amplitude_via_permanent(t, occ, target)
            assert abs(out.terms.get(target, 0j) - ref) < 1e-11


def test_hong_ou_mandel_bunching():
    state = PhotonicState(2, {(1, 1): 1.0 + 0.0j})
    out = apply_linear(state, splitter_layer(2, 0))
    assert abs(out.terms.get((1, 1), 0j)) < 1e-12
    assert abs(out.terms.get((2, 0), 0j) - 1j / np.sqrt(2)) < 1e-12
    assert abs(out.terms.get((0, 2), 0j) - 1j / np.sqrt(2)) < 1e-12
    assert out.squared_norm() == pytest.approx(1.0, abs=1e-12)


def test_solved_crossing_moves_a_photon_without_residue():
    solved = setting_unitary(solve_mzi_settings(PAULI_X))
    # the solved crossing's inner phases are equal, so its diagonal is
    # exactly zero; inner phases 2 pi apart leave a rounding residue there
    assert solved[0, 0] == solved[1, 1] == 0
    wrapped = setting_unitary(MziSetting(0.3 + 2.0 * np.pi, 0.3, 0.0, 0.0))
    assert 0 < abs(wrapped[0, 0]) < 1e-15
    assert abs(solved[0, 1] - 1) < 1e-15 and abs(solved[1, 0] - 1) < 1e-15
    for crossing in (solved, wrapped):
        t = crossing.T.tolist()
        for (na, nb), p, amp in (((1, 0), 0, t[0][1]), ((0, 1), 1, t[1][0])):
            (out,) = fock._pair_transform(t, na, nb)
            assert out[0] == p and abs(out[1] - amp) < 1e-15


def test_balanced_splitter_leaves_no_hong_ou_mandel_output():
    rule = fock._pair_transform(setting_unitary(BS_SETTING).T.tolist(), 1, 1)
    assert [p for p, _ in rule] == [0, 2]


def test_pair_rule_outputs_square_sum_to_one():
    rng = np.random.default_rng(91)
    for _ in range(40):
        t = setting_unitary(random_setting(rng, bool(rng.integers(2)))).T.tolist()
        for na, nb in itertools.product(range(5), repeat=2):
            if 0 < na + nb <= 4:
                rule = fock._pair_transform(t, na, nb)
                assert [p for p, _ in rule] == sorted({p for p, _ in rule})
                assert sum(abs(c) ** 2 for _, c in rule) == pytest.approx(1.0, abs=1e-14)


def test_swap2_fold_accumulates_one_term_per_layer(monkeypatch):
    # SWAP2 is crossings only, which the fold carries as a relabeling: no
    # block rewrites a term, so no residue can accumulate, layer by layer
    # or over the whole network
    mixed = []
    mix = fock._mix
    monkeypatch.setattr(fock, "_mix", lambda *args: mixed.append(args) or mix(*args))
    layers = swap_networks()["SWAP2"].mzi_layers
    program = NetworkProgram(6, tuple(LinearLayer(6, blocks) for blocks in layers))
    images = (0, 5, 4, 3, 2, 1)
    for mode in range(6):
        occ = tuple(int(k == mode) for k in range(6))
        state = PhotonicState(6, {occ: 1.0 + 0.0j})
        for blocks in layers:
            state = apply_linear(state, LinearLayer(6, blocks))
            assert len(state.terms) == 1
        folded = run_program(program, PhotonicState(6, {occ: 1.0 + 0.0j}))
        assert list(folded.terms) == list(state.terms)
        ((out, amp),) = folded.terms.items()
        assert out.index(1) == images[mode] and abs(abs(amp) - 1) < 1e-15
    assert mixed == []


def test_packed_keys_hold_every_photon_of_the_largest_term():
    # inside the fold each mode is a digit as wide as the bit length of the
    # input's largest photon count: (2, 2) on a 50:50 block leaves (4, 0)
    # and (0, 4), which need 3 bits, though 4 - 1 fits in 2
    u = layer_matrix((MeshBlock(0, BS_SETTING, "BS"),), 2)
    out = apply_linear(PhotonicState(2, {(2, 2): 1.0 + 0.0j}), splitter_layer(2, 0))
    assert set(out.terms) == {(4, 0), (2, 2), (0, 4)}
    for p in range(5):
        ref = amplitude_via_permanent(u, (2, 2), (p, 4 - p))
        assert abs(out.terms.get((p, 4 - p), 0j) - ref) < 1e-12
    # a 1-photon term first and a 4-photon term after it: the width comes
    # from the largest term, not the first
    rng = np.random.default_rng(83)
    m = 4
    layers = random_mesh(m, rng)
    inputs = {(0, 1, 0, 0): 0.6 + 0.0j, (2, 0, 1, 1): 0.8j}
    program = NetworkProgram(m, tuple(LinearLayer(m, blocks) for blocks in layers))
    out = run_program(program, PhotonicState(m, inputs))
    u = layer_matrix(sum(layers, ()), m)
    assert (4, 0, 0, 0) in out.terms and (0, 0, 0, 4) in out.terms
    for photons in (1, 4):
        for combo in itertools.combinations_with_replacement(range(m), photons):
            target = tuple(combo.count(mode) for mode in range(m))
            ref = sum(
                amp * amplitude_via_permanent(u, occ, target)
                for occ, amp in inputs.items()
                if sum(occ) == photons
            )
            assert abs(out.terms.get(target, 0j) - ref) < 1e-12


def test_amplitude_via_permanent_validates_inputs():
    with pytest.raises(ValueError):
        amplitude_via_permanent(np.eye(2), (1, 0), (1, 1))
    with pytest.raises(ValueError):
        amplitude_via_permanent(np.eye(3), (1, 0), (0, 1))
    assert amplitude_via_permanent(np.eye(2), (0, 0), (0, 0)) == 1.0 + 0.0j


def test_prune_threshold_drops_dust():
    state = PhotonicState(2, {(1, 0): 1.0 + 0.0j, (0, 1): 1e-20 + 0.0j})
    out = apply_linear(state, LinearLayer(2, ()))
    assert (0, 1) not in out.terms
    assert out.terms.get((1, 0), 0j) == 1.0 + 0.0j
    assert PRUNE_THRESHOLD == 1e-14


def test_truncate_aux_drops_photonful_terms_without_renormalizing():
    state = PhotonicState(
        3, {(1, 1, 0): 0.6 + 0.0j, (0, 1, 1): 0.8 + 0.0j}
    )
    out = truncate_aux(state, (2,))
    assert out.terms == {(1, 1, 0): 0.6 + 0.0j}
    assert out.squared_norm() == pytest.approx(0.36, abs=1e-12)


def test_project_qubit_structure_keeps_one_photon_per_rail_pair():
    state = PhotonicState(
        3,
        {
            (0, 1, 0): 0.5 + 0.0j,  # valid |0>
            (0, 0, 1): 0.5 + 0.0j,  # valid |1>
            (1, 0, 0): 0.5 + 0.0j,  # photon in aux
            (0, 2, 0): 0.5 + 0.0j,  # doubly occupied rail
        },
    )
    result = project_qubit_structure(state)
    assert set(result.projected_state.terms) == {(0, 1, 0), (0, 0, 1)}
    assert result.success_probability == pytest.approx(0.5, abs=1e-12)


def test_projection_and_truncation_filter_as_their_checks_do():
    # project_qubit_structure and truncate_aux share one filter; on random
    # sparse states with multi-photon modes, photons in aux and doubled or
    # empty rail pairs, each keeps what the oracle keeps by its checks:
    # qubit_structure's, and one zero check per truncated mode.
    rng = np.random.default_rng(29)
    seen = {"kept": 0, "multi": 0, "aux": 0, "doubled": 0, "empty": 0}
    for case in range(60):
        n = 1 + case % 4
        m = 3 * n
        terms = {}
        for _ in range(int(rng.integers(1, 40))):
            occ = [0] * m
            for q in range(n):
                occ[3 * q + 1 + int(rng.integers(0, 2))] = 1
            for _ in range(int(rng.integers(0, 3))):  # misplace or add photons
                mode = int(rng.integers(0, m))
                occ[mode] = max(0, occ[mode] + int(rng.integers(-1, 3)))
            terms[tuple(occ)] = complex(rng.normal(), rng.normal())
        state = PhotonicState(m, terms)
        for occ in terms:
            pairs = [occ[3 * q + 1] + occ[3 * q + 2] for q in range(n)]
            seen["multi"] += max(occ) > 1
            seen["aux"] += any(occ[0::3])
            seen["doubled"] += max(pairs) > 1
            seen["empty"] += min(pairs) == 0

        result = project_qubit_structure(state)
        want = keep_checked(state, qubit_structure(n))
        assert list(result.projected_state.terms.items()) == list(want.terms.items())
        assert result.success_probability == want.squared_norm()
        seen["kept"] += len(want.terms)

        modes = tuple(range(0, m, 3)) if case % 2 else tuple(rng.choice(m, size=2, replace=True))
        got = truncate_aux(state, modes)
        want = keep_checked(state, tuple(((int(mode),), 0) for mode in modes))
        assert list(got.terms.items()) == list(want.terms.items())
        assert got.squared_norm() == want.squared_norm()
    assert min(seen.values()) >= 30, seen


def test_decode_qubits_msb_first_and_canonical_phase():
    state = PhotonicState(
        6,
        {
            (0, 1, 0, 0, 1, 0): -1.0 / np.sqrt(2),  # |00>
            (0, 0, 1, 0, 0, 1): -1.0 / np.sqrt(2),  # |11>
        },
    )
    amps, prob = decode_logical(project_qubit_structure(state), (0, 1), (0, 0))
    assert prob == pytest.approx(1.0, abs=1e-12)
    # sparse, in ascending index order, though |11> sorts first as an occupation
    assert list(amps) == [0b00, 0b11]
    # global phase canonicalized: the -1 factor is removed
    dense = dense_amplitudes(amps, 2)
    assert np.allclose(dense, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-12)


def test_decode_qubits_raises_when_nothing_survives():
    state = PhotonicState(3, {(1, 0, 0): 1.0 + 0.0j})
    with pytest.raises(ValueError):
        decode_logical(project_qubit_structure(state), (0,), (0,))


def test_decode_logical_raises_before_the_dense_vector():
    # decoding allocates nothing of size 2**40 (16 TiB as a dense vector)
    empty = PostSelectionResult(PhotonicState(120, {}), 0.0)
    with pytest.raises(ValueError, match="no qubit-structure amplitude"):
        decode_logical(empty, tuple(range(40)), (0,) * 40)


def test_canonical_global_phase_anchor():
    v = np.array([0.1j, -0.9j], dtype=complex)
    w = canonical_global_phase(v)
    assert w[1] == pytest.approx(0.9, abs=1e-15)
    zero = np.zeros(2, dtype=complex)
    assert np.array_equal(canonical_global_phase(zero), zero)


def test_run_program_matches_manual_steps():
    state = PhotonicState(3, {(1, 1, 0): 1.0 + 0.0j})
    layer = splitter_layer(3, 1)
    program = NetworkProgram(3, (layer, TruncateAux((0,))))
    out = run_program(program, state)
    manual = truncate_aux(apply_linear(state, layer), (0,))
    assert out.terms.keys() == manual.terms.keys()
    for occ in out.terms:
        assert abs(out.terms[occ] - manual.terms[occ]) < 1e-14
    # the photon in the aux mode kills every term
    assert out.squared_norm() == pytest.approx(0.0, abs=1e-14)


def test_run_program_validates_mode_count():
    program = NetworkProgram(3, ())
    with pytest.raises(ValueError):
        run_program(program, PhotonicState(2, {(1, 0): 1.0 + 0.0j}))


def test_format_state_dump_stable_text():
    state = PhotonicState(3, {(0, 1, 0): 0.5 + 0.0j, (1, 0, 0): -0.25j})
    dump = format_state_dump(state)
    lines = dump.splitlines()
    assert lines[0] == "modes=3"
    assert lines[1] == "010,5.000000000000000e-01,0.000000000000000e+00"
    assert lines[2] == "100,-0.000000000000000e+00,-2.500000000000000e-01"
    assert dump.endswith("\n")


def test_light_cone_of_identity_layers_merges_nothing():
    empty = LinearLayer(6, ())
    program = NetworkProgram(6, (empty, TruncateAux((0, 3)), empty))
    cone = light_cone(program)
    assert len(cone) == 3
    # only the input is checked: nothing later can change a block count
    assert cone[1:] == ((), ())
    # aux singletons holding 0 photons, rail pairs holding 1
    assert cone[0] == (((0,), 0), ((1, 2), 1), ((3,), 0), ((4, 5), 1))
    assert reference_light_cone(program) == (cone[0], None, None)


def test_light_cone_joins_only_where_a_block_mixes():
    # IDENTITY_SETTING's off-diagonal is not exactly zero, but under 1e-14:
    # the fold carries the parked block as a pure phase, which moves no
    # photon between slots, so the cone joins nothing there
    assert 0 < abs(setting_unitary(IDENTITY_SETTING)[0, 1]) < 1e-15
    parked = LinearLayer(6, (MeshBlock(2, IDENTITY_SETTING, "ID"),))
    program = NetworkProgram(6, (LinearLayer(6, ()), parked))
    assert light_cone(program) == (qubit_structure(2), ())
    assert reference_light_cone(program) == (qubit_structure(2), None)
    # an off-diagonal just above 1e-14 mixes, and joins its pair
    weak = MziSetting(np.pi - 1e-13, 0.0, np.pi, 0.0)
    assert 1e-14 < abs(setting_unitary(weak)[0, 1]) < 1e-13
    coupled = LinearLayer(6, (MeshBlock(2, weak, "U"),))
    program = NetworkProgram(6, (LinearLayer(6, ()), coupled))
    before, last = light_cone(program)
    # the input is checked against every block; the layer joins rail pair
    # (1, 2) and aux 3, so after it only the smaller, aux 3, is checked
    assert before == (((0,), 0), ((1, 2, 3), 1), ((4, 5), 1))
    assert last == (((3,), 0),)
    full_before, full_last = reference_light_cone(program)
    assert full_last == qubit_structure(2)
    assert full_before == (((0,), 0), ((1, 2, 3), 1), ((4, 5), 1))
    state = PhotonicState(
        6,
        {
            (0, 0, 0, 1, 1, 0): 0.5j,
            (0, 1, 0, 0, 0, 1): 0.5 + 0.0j,
            (0, 1, 0, 1, 0, 0): 1.0 + 0.0j,
        },
    )
    # the joined block may still move its photon out of aux 3; it may not
    # shed a second one, and after the last layer aux 3 must be empty
    kept = keep_checked(state, before)
    assert list(kept.terms) == [(0, 0, 0, 1, 1, 0), (0, 1, 0, 0, 0, 1)]
    assert list(kept.terms) == list(keep_checked(state, full_before).terms)
    assert list(keep_checked(kept, last).terms) == [(0, 1, 0, 0, 0, 1)]
    assert list(keep_checked(state, full_last).terms) == [(0, 1, 0, 0, 0, 1)]


def test_block_kernel_matches_permanent_of_layer_matrix():
    rng = np.random.default_rng(53)
    for _ in range(30):
        m = int(rng.integers(2, 8))
        layers = []
        for depth in range(int(rng.integers(1, 5))):
            # random tops, overlaps allowed (blocks apply in order); the
            # first layer also holds blocks at both edges, 0 and m - 2
            tops = list(rng.choice(m - 1, size=int(rng.integers(0, m))))
            if depth == 0:
                tops = [0, m - 2] + tops
            layers.append(
                tuple(
                    MeshBlock(int(top), random_setting(rng, bool(rng.integers(2))), "U")
                    for top in tops
                )
            )
        photons = int(rng.integers(1, 5))
        inputs = {}
        for _ in range(int(rng.integers(1, 4))):
            occ = [0] * m
            for mode in rng.integers(0, m, size=photons):
                occ[int(mode)] += 1
            inputs[tuple(occ)] = complex(rng.normal(), rng.normal())
        program = NetworkProgram(m, tuple(LinearLayer(m, blk) for blk in layers))
        out = run_program(program, PhotonicState(m, inputs))
        u = layer_matrix(sum(layers, ()), m)
        outputs = set()
        for combo in itertools.combinations_with_replacement(range(m), photons):
            target = [0] * m
            for mode in combo:
                target[mode] += 1
            outputs.add(tuple(target))
        assert set(out.terms) <= outputs
        for target in outputs:
            ref = sum(
                amp * amplitude_via_permanent(u, occ, target)
                for occ, amp in inputs.items()
            )
            assert abs(out.terms.get(target, 0j) - ref) < 1e-11


def test_run_program_pruned_drops_terms_that_cannot_pass():
    # the splitter mixes the aux mode into rail 0
    program = NetworkProgram(3, (LinearLayer(3, ()), splitter_layer(3, 0)))
    state = PhotonicState(3, {(1, 1, 0): 1.0 + 0.0j})
    full = run_program(program, state)
    pruned = run_program_pruned(program, state)
    # two photons where one must come out: dropped before the mixing layer
    assert len(full.terms) == 2
    assert pruned.terms == {}
    assert project_qubit_structure(full).projected_state.terms == {}


@pytest.mark.parametrize("forest", [False, True], ids=["light-cone", "certified"])
def test_both_folds_refuse_an_input_of_other_qubits(forest):
    # Both paths check the qubit count against the program: the certified
    # fold reads no light cone, so without the check five bits given with
    # the 2-qubit Bell program would fold it and return its terms silently.
    result = compile_circuit(bell_circuit(), CompileOptions(place=False))
    program, relabel = result.program, (result.positions, result.flips)
    if not forest:
        state = prepare_computational_basis("00000", 5)
        with pytest.raises(ValueError, match="state has 15 modes, program needs 6"):
            run_program_pruned(program, state)
        state = prepare_computational_basis("00", 2)
        assert len(run_program_pruned(program, state).terms) == 2
        return
    with pytest.raises(ValueError, match="5 bits for 2 qubits"):
        run_certified(program, "00000", *relabel)
    with pytest.raises(ValueError, match="program has 6 modes, 5 qubits need 15"):
        run_certified(program, "00000", tuple(range(5)), (0,) * 5)
    assert len(run_certified(program, "00", *relabel)[0]) == 2


@pytest.mark.parametrize(
    "call, refused",
    [
        (lambda state, program: project_qubit_structure(state), "state has 4 modes"),
        (lambda state, program: light_cone(program), "program has 4 modes"),
        (lambda state, program: run_program_pruned(program, state), "program has 4 modes"),
    ],
    ids=["project", "light-cone", "pruned"],
)
def test_a_mode_count_not_3_per_qubit_is_refused(call, refused):
    # the qubit count is read from the data, so 4 modes hold no register
    state = PhotonicState(4, {(0, 1, 0, 1): 1.0 + 0.0j})
    program = NetworkProgram(4, (splitter_layer(4, 1),))
    with pytest.raises(ValueError, match=f"^{refused}, not 3 per qubit$"):
        call(state, program)


def _crossed(top: int) -> LinearLayer:
    """A crossing on modes ``(top, top + 1)`` of a 2-qubit program."""
    return LinearLayer(6, (MeshBlock(top, solve_mzi_settings(PAULI_X), "X"),))


def _bare_cz() -> tuple[LinearLayer, TruncateAux]:
    """The two steps of a CZ on triplets 0 and 1, as the compiler emits them."""
    gate = _post_selected_form("compressed", None)
    return LinearLayer(6, gate, "CZ q0-q1"), TruncateAux((0, 3))


@pytest.mark.parametrize(
    "steps, refused",
    [
        # after a crossing of aux 3 and rail 4, a splitter on modes (2, 3)
        # mixes a rail of each photon
        ((_crossed(3), splitter_layer(6, 2)), r"mixes slots 2 and 4 .*not the two rails of one photon"),
        ((splitter_layer(6, 0),), r"mixes slots 0 and 1 .*not the two rails of one photon"),
        # a rail crossed into the gate window's first aux position
        ((_crossed(0), *_bare_cz()), r"window holds slots \(1, 0, 2, 3, 4, 5\), not two aux slots"),
        # rail 2 and aux 3 crossed: logical rail pair 0 is slots 1 and 3
        ((_crossed(2),), "final frame splits rail pair 0: slots 1 and 3"),
    ],
    ids=["two-photons", "onto-aux", "rail-in-aux-position", "split-final-frame"],
)
def test_the_certified_fold_refuses_a_frame_its_bits_cannot_hold(steps, refused):
    # A bit per photon holds only a photon inside its own rail pair; where
    # the frame would take one out of it, the fold raises rather than
    # answer.  The light-cone path folds the same programs.
    program = NetworkProgram(6, steps)
    with pytest.raises(ValueError, match=refused):
        run_certified(program, "01", (0, 1), (0, 0))
    state = prepare_computational_basis("01", 2)
    run_program_pruned(program, state)


def test_the_certified_fold_reads_crossed_rails_and_a_bare_gate():
    # Controls for the guards above: a crossing inside a rail pair, a
    # splitter on the crossed rails and a gate on crossed rail slots fold
    # like the light-cone path.
    steps = (_crossed(1), splitter_layer(6, 1), _crossed(4), *_bare_cz())
    program = NetworkProgram(6, steps)
    for bits in ("00", "01", "10", "11"):
        got, p = run_certified(program, bits, (0, 1), (0, 1))
        pruned = run_program_pruned(program, prepare_computational_basis(bits, 2))
        want, q = decode_logical(project_qubit_structure(pruned), (0, 1), (0, 1))
        assert list(got) == list(want) and len(got) == 2, bits
        assert max(abs(got[i] - want[i]) for i in want) < 1e-15
        assert p == pytest.approx(q, rel=1e-15) and p == pytest.approx(1 / 9, rel=1e-14)


def test_the_certified_fold_checks_its_unit_norm(monkeypatch):
    # Every certified gate succeeds with exactly 1/9, so the fold's
    # unit-scale state must keep a squared norm of 1.  A rule that loses
    # norm, here every coefficient of the Bell CNOT's form times 0.99, is
    # refused rather than reported as a success probability.
    result = compile_circuit(bell_circuit(), CompileOptions(place=False))
    (gate,) = [
        step.blocks
        for step in result.program.steps
        if isinstance(step, LinearLayer) and step.label.startswith("CNOT")
    ]
    rule = {ij: (out, 0.99 * c) for ij, (out, c) in gate.rule.items()}
    monkeypatch.setitem(gate.__dict__, "rule", rule)
    with pytest.raises(ValueError, match=r"squared norm - 1 = -1\.990e-02 after 1 post-selected"):
        run_certified(result.program, "00", result.positions, result.flips)
    monkeypatch.undo()
    _, p = run_certified(result.program, "00", result.positions, result.flips)
    assert abs(p * 9 - 1) < 1e-15


def test_a_bit_map_keeps_the_packed_folds_terms_and_order():
    # The certified fold's 2x2 map on one bit (_turn) must give the packed
    # fold's mixing step (_mix) term for term: the same amplitudes, owed
    # phases paid, and the same insertion order, bottom output first as
    # _pair_transform lists it.  At most two addends meet on a key, so the
    # order changes no amplitude today and only this test pins it.
    rng = np.random.default_rng(13)
    owed_top, owed_bottom = np.exp(0.3j), np.exp(1.1j)
    for setting in [BS_SETTING] + [random_setting(rng, False) for _ in range(4)]:
        device = MeshBlock(0, setting, "U")._device
        for top in (0, 1):  # the bit value of the photon in the top slot

            def packed(bit):  # the top slot at bit offset 1, the bottom at 0
                return 0b10 if bit == top else 0b01

            for terms in ({0: 0.6}, {1: 0.8j}, {0: 0.6, 1: 0.8j}, {1: 0.8j, 0: 0.6}):
                got = fock._turn(terms, device.t, 0, top, owed_top, owed_bottom)
                want = fock._mix(
                    {packed(b): a for b, a in terms.items()}, device, 1, 0, 1, owed_top, owed_bottom
                )
                assert [(packed(b), a) for b, a in got.items()] == list(want.items())


def test_light_cone_starts_from_the_qubit_structure():
    program = NetworkProgram(6, (splitter_layer(6, 2), TruncateAux((0, 3))))
    cone = light_cone(program)
    # the truncation merges nothing, so the splitter's entry is the projection
    assert cone[0] == qubit_structure(2)
    assert cone == (qubit_structure(2), ())
    assert qubit_structure(2) == (((0,), 0), ((1, 2), 1), ((3,), 0), ((4, 5), 1))
    assert reference_light_cone(program) == (qubit_structure(2), None)


def test_light_cone_seeds_its_union_find_in_one_pass():
    # 18,000 modes: a linear label scan per mode (O(m**2)) took about 2.5 s
    # on a 2-vCPU x86-64 host; one pass takes under 0.01 s.
    n = 6000
    circuit = parse_circuit({"qubits": n, "gates": [{"g": "H", "q": 0}]})
    program = compile_circuit(circuit, CompileOptions(place=False)).program
    start = time.perf_counter()
    cone = light_cone(program)
    elapsed = time.perf_counter() - start
    assert cone == (qubit_structure(n),)
    assert elapsed < 0.5


def test_light_cone_of_a_long_chain_moves_small_blocks_into_large():
    # A 3000-qubit GHZ chain joins one growing block to each next qubit.
    # Building a partition per join, or moving the large block into the
    # small one, is O(m**2): 5 to 10 s and about 1.0 s on a 2-vCPU x86-64
    # host, where moving the small block takes about 0.05 s.
    n = 3000
    program = compile_circuit(ghz_chain_circuit(n), CompileOptions(place=False)).program
    start = time.perf_counter()
    cone = light_cone(program)
    elapsed = time.perf_counter() - start
    assert len(cone) == len(program.steps)
    # after the input, only the blocks joined to the chain are checked,
    # never the chain's own block
    later = [modes for checks in cone[1:] for modes, _ in checks]
    assert max(map(len, later)) == 2
    assert sum(map(len, later)) < 10 * n
    assert elapsed < 0.5


@pytest.mark.parametrize(
    "gates",
    [
        [{"g": "H", "q": 0}, {"g": "CNOT", "c": 0, "t": 1}, {"g": "CNOT", "c": 1, "t": 2}],
        [{"g": "H", "q": 0}, {"g": "CZ", "c": 0, "t": 2}, {"g": "SWAP", "a": 1, "b": 2}],
        # a cycle: outside the forest envelope, junk terms pass projection
        [{"g": "H", "q": q} for q in range(3)]
        + [{"g": "CZ", "c": a, "t": b} for a, b in ((0, 1), (1, 2), (0, 2))],
    ],
    ids=["chain", "routed", "cycle"],
)
def test_pruned_final_state_equals_its_projection(gates):
    circuit = parse_circuit({"qubits": 3, "gates": gates})
    program = compile_circuit(circuit, CompileOptions(place=False)).program
    final = run_program_pruned(program, prepare_computational_basis("000", 3))
    projected = project_qubit_structure(final).projected_state
    assert final.terms
    assert list(final.terms.items()) == list(projected.terms.items())


def test_partition_split_moves_modes_into_a_new_block():
    whole = (((0, 1, 2, 3), 2),)
    pair = split_partition(whole, (1, 2), 1)
    assert pair == (((0, 3), 1), ((1, 2), 1))
    # a block that is exactly the split modes leaves no empty rest behind
    assert split_partition(pair, (1, 2), 1) == pair
    state = PhotonicState(
        4, {(1, 1, 0, 0): 1.0 + 0.0j, (0, 1, 1, 0): 0.5 + 0.0j, (0, 0, 0, 2): 0.5j}
    )
    assert list(keep_checked(state, pair).terms) == [(1, 1, 0, 0)]
    assert list(keep_checked(state, whole).terms) == list(state.terms)


def test_forest_light_cone_splits_the_rail_pairs_at_each_truncation():
    # The reference forest cone is the plain partition in force with each
    # truncated aux mode's rail pair split out as a block that must hold
    # one photon: the eager cut each post-selected gate's rule applies.
    circuit = ghz_chain_circuit(3)
    program = compile_circuit(circuit, CompileOptions(place=False)).program
    plain = light_cone(program)
    full_plain = reference_light_cone(program)
    full_eager = reference_light_cone(program, forest=True)
    truncations = 0
    held = None  # the plain partition in force: an entry of None keeps it
    entries = zip(program.steps, plain, full_plain, full_eager, reference_frames(program))
    for step, before, full_before, full_after, pos in entries:
        held = full_before or held
        if not isinstance(step, TruncateAux):
            assert full_after == full_before
            continue
        assert before == () and full_before is None
        truncations += 1
        expected = held
        for aux in step.modes:
            rails = tuple(sorted((pos[aux + 1], pos[aux + 2])))
            expected = split_partition(expected, rails, 1)
            assert (rails, 1) in full_after
        assert full_after == expected
    assert truncations == 2


def test_certified_fold_keeps_one_ninth_per_truncation():
    # after the k-th truncation and its cut, only the successful branch of
    # every gate so far is left, with squared norm 9**-k
    rng = np.random.default_rng(61)
    checked = 0
    for case in range(12):
        n = 3 + case % 3
        gates = [{"g": "H", "q": q} for q in range(n)]
        for q in range(1, n):  # a random spanning tree, some pairs non-adjacent
            gates.append({"g": ("CZ", "CNOT")[case % 2], "c": int(rng.integers(0, q)), "t": q})
            gates.append({"g": "RY", "q": q, "angle": float(rng.uniform(-3, 3))})
        circuit = parse_circuit({"qubits": n, "gates": gates})
        options = CompileOptions(
            place=False,
            cz_form=("compressed", "swap-sandwich")[case // 2 % 2],
            restore_swaps=case % 4 < 2,
        )
        result = compile_circuit(circuit, options)
        assert result.forest
        state = prepare_computational_basis("0" * n, n)
        k = 0
        for step in result.program.steps:
            if isinstance(step, LinearLayer):
                state = apply_linear(state, step)
                continue
            # the eager cut: one photon in each truncated aux mode's rail pair
            cut = tuple(((aux + 1, aux + 2), 1) for aux in step.modes)
            state = keep_checked(truncate_aux(state, step.modes), cut)
            k += 1
            assert state.squared_norm() == pytest.approx(9.0**-k, rel=1e-12)
            checked += 1
        assert k == n - 1
    assert checked >= 30


@pytest.mark.parametrize("forest", [False, True])
def test_skipped_restricts_drop_nothing(forest):
    # restricting after every step by the full partition in force gives the
    # same state as restricting only at the reference light cone's entries,
    # and the same keys as the fold's checks
    rng = np.random.default_rng(71)
    skipped_after_cut = 0
    for case in range(8):
        n = 3 + case % 3
        gates = [{"g": "H", "q": q} for q in range(n)]
        for q in range(1, n):
            gates.append({"g": ("CZ", "CNOT")[case % 2], "c": int(rng.integers(0, q)), "t": q})
            gates.append({"g": "RX", "q": int(rng.integers(0, n)), "angle": 0.7})
        circuit = parse_circuit({"qubits": n, "gates": gates})
        options = CompileOptions(place=False, restore_swaps=case % 4 < 2)
        result = compile_circuit(circuit, options)
        program = result.program
        start = prepare_computational_basis("0" * n, n)
        plain = reference_light_cone(program)
        cone = reference_light_cone(program, forest)
        state, held, after_cut = start, None, False
        for step, before, cut, pos in zip(program.steps, plain, cone, reference_frames(program)):
            held = before or held  # a plain entry of None keeps the partition
            if isinstance(step, LinearLayer):
                state = apply_linear(state, step)
            else:
                state = truncate_aux(state, step.modes)
            state = keep_checked(state, logical_checks(cut or held, pos))
            skipped_after_cut += cut is None and after_cut
            after_cut = forest and isinstance(step, TruncateAux)
        # the stepwise reference materializes and sorts every layer, so its
        # additions come in another order: keys agree, amplitudes to rounding
        if forest:
            relabel = (result.positions, result.flips)
            got, p = run_certified(program, "0" * n, *relabel)
            want, q = decode_logical(project_qubit_structure(state), *relabel)
            assert list(got) == list(want)
            assert max(abs(got[i] - want[i]) for i in want) < 1e-14
            assert p == pytest.approx(q, rel=1e-14)
        else:
            pruned = run_program_pruned(program, start)
            assert list(state.terms) == list(pruned.terms)
            for occ, amp in pruned.terms.items():
                assert abs(state.terms[occ] - amp) < 1e-14
        assert sum(cut is None for cut in cone) > len(cone) // 2
    assert skipped_after_cut or not forest


def count_device_builds(monkeypatch) -> list:
    """The settings the fold builds a device for, in build order."""
    calls = []
    entries = fock._setting_entries
    monkeypatch.setattr(fock, "_setting_entries", lambda s: calls.append(s) or entries(s))
    return calls


def test_blocks_of_equal_settings_with_other_zero_signs_get_their_own_devices(monkeypatch):
    plus, minus = MziSetting(0.0, 1.0, 2.0, 3.0), MziSetting(-0.0, 1.0, 2.0, 3.0)
    assert plus == minus and hash(plus) == hash(minus)
    calls = count_device_builds(monkeypatch)
    blocks = (MeshBlock(0, plus, "U"), MeshBlock(0, minus, "U"))
    assert blocks[0] == blocks[1]
    program = NetworkProgram(2, tuple(LinearLayer(2, (blk,)) for blk in blocks))
    run_program(program, PhotonicState(2, {(1, 0): 1.0 + 0.0j}))
    # nothing is keyed by value: each block builds from its own setting object
    assert len(calls) == 2
    assert calls[0] is plus and calls[1] is minus


def test_each_block_builds_one_device_and_changes_nothing(monkeypatch):
    rng = np.random.default_rng(67)
    m = 5
    mesh = random_mesh(m, rng)
    # the same block objects again, then equal settings in new objects
    fresh = tuple(
        tuple(replace(blk, setting=blk.setting._replace()) for blk in blocks) for blocks in mesh
    )
    layers = mesh + mesh + fresh
    program = NetworkProgram(m, tuple(LinearLayer(m, blocks) for blocks in layers))
    state = PhotonicState(m, {(1, 0, 1, 0, 1): 1.0 + 0.0j, (0, 2, 0, 1, 0): 0.5j})
    calls = count_device_builds(monkeypatch)
    folded = run_program(program, state)
    # one device per distinct block object, built from its own setting
    distinct = [blk.setting for blocks in mesh + fresh for blk in blocks]
    assert len(calls) == len(distinct)
    assert all(built is setting for built, setting in zip(calls, distinct))
    # the blocks keep their devices: a second fold builds none
    refolded = run_program(program, state)
    assert len(calls) == len(distinct)
    # the same state as the per-layer folds, bit for bit, key order included
    per_layer = run_layers(state, layers)
    assert list(folded.terms.items()) == list(per_layer.terms.items())
    assert list(refolded.terms.items()) == list(folded.terms.items())


@pytest.mark.parametrize("cz_form", ["compressed", "swap-sandwich"])
def test_compiled_programs_build_a_device_per_rotation_only(monkeypatch, cz_form):
    options = CompileOptions(cz_form=cz_form)
    ghz = ghz_chain_circuit(4)
    # three rotations, two of them of one angle, among fixed gates
    rotated = parse_circuit({"qubits": 3, "gates": [
        {"g": "H", "q": 0},
        {"g": "RX", "q": 0, "angle": 0.3},
        {"g": "CNOT", "c": 0, "t": 2},
        {"g": "RX", "q": 2, "angle": 0.3},
        {"g": "T", "q": 1},
        {"g": "RZ", "q": 1, "angle": -1.2},
    ]})
    # warm-up: whatever ran before, the fixed networks have their devices now
    simulate_circuit(ghz, options=options)
    simulate_circuit(rotated, options=options)
    calls = count_device_builds(monkeypatch)
    simulate_circuit(ghz, options=options)
    assert calls == []
    simulate_circuit(rotated, options=options)
    assert len(calls) == 3


def test_apply_linear_refuses_a_layer_of_another_width():
    state = prepare_computational_basis("0", 1)
    with pytest.raises(ValueError, match="^layer has 6 modes, state has 3$"):
        apply_linear(state, LinearLayer(6, ()))


def test_the_folds_refuse_an_unknown_program_step():
    program = NetworkProgram(3, (TruncateAux((0,)), "bogus"))
    state = prepare_computational_basis("0", 1)
    for fold in (run_program, run_program_pruned):
        with pytest.raises(TypeError, match="^unknown program step str$"):
            fold(program, state)
    with pytest.raises(TypeError, match="^unknown program step str$"):
        run_certified(program, "0", (0,), (0,))

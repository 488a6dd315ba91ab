"""MZI building blocks, permanents, and exact phase solving."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from photonmesh.linalg import (
    IDENTITY_SETTING,
    PERMANENT_MAX_DIM,
    MziSetting,
    bs_general,
    check_unitary,
    embed_block,
    equal_mod_global_phase,
    extended_mzi_unitary,
    mzi_unitary,
    permanent,
    phase_shifter,
    setting_unitary,
    solve_mzi_settings,
)

from helpers import (
    naive_permanent,
    random_setting,
    random_unitary,
    reference_mzi_unitary,
    rx,
    ry,
    rz,
)


def test_balanced_beamsplitter_matrix():
    bs = bs_general(1 / np.sqrt(2), 1 / np.sqrt(2))
    expected = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)
    assert np.allclose(bs, expected, atol=1e-15)
    assert check_unitary(bs).is_unitary
    with pytest.raises(ValueError):
        bs_general(1.0, 1.0)


def test_phase_shifter_is_diagonal():
    ps = phase_shifter(0.3, -1.1)
    assert np.allclose(ps, np.diag(np.exp(1j * np.array([0.3, -1.1]))), atol=1e-15)


def test_mzi_closed_form_theta2_phi2_zero():
    # theta2 = phi2 = 0:  i e^{i theta/2} [[sin(t/2) e^{i phi}, cos(t/2)],
    #                                      [cos(t/2) e^{i phi}, -sin(t/2)]]
    for theta, phi in [(0.7, 1.9), (2.4, -0.6), (np.pi, 0.0), (0.0, 0.0)]:
        u = mzi_unitary(MziSetting(theta, 0.0, phi, 0.0))
        half = theta / 2.0
        pref = 1j * np.exp(1j * half)
        expected = pref * np.array(
            [
                [np.sin(half) * np.exp(1j * phi), np.cos(half)],
                [np.cos(half) * np.exp(1j * phi), -np.sin(half)],
            ]
        )
        assert np.allclose(u, expected, atol=1e-12)


def test_mzi_depends_on_phase_differences_only_up_to_global_phase():
    a = mzi_unitary(MziSetting(1.3, 0.4, 2.0, 0.7))
    b = mzi_unitary(MziSetting(0.9, 0.0, 1.3, 0.0))
    assert equal_mod_global_phase(a, b, tol=1e-12)


def test_identity_setting_is_exactly_identity():
    u = setting_unitary(IDENTITY_SETTING)
    assert np.allclose(u, np.eye(2), atol=1e-15)
    # the relative-phase form (pi, pi) is identity only up to a phase
    rel = mzi_unitary(MziSetting(np.pi, 0.0, np.pi, 0.0))
    assert equal_mod_global_phase(rel, np.eye(2), tol=1e-12)
    assert IDENTITY_SETTING.relative_phases() == (np.pi, np.pi)


def test_extended_mzi_prepends_output_phases():
    base = MziSetting(0.8, 0.1, -0.4, 0.2)
    ext = MziSetting(0.8, 0.1, -0.4, 0.2, phi3=0.5, phi4=-1.2)
    assert not base.is_extended
    assert ext.is_extended
    expected = phase_shifter(0.5, -1.2) @ mzi_unitary(base)
    assert np.allclose(extended_mzi_unitary(ext), expected, atol=1e-13)
    assert np.allclose(setting_unitary(ext), expected, atol=1e-13)


def test_scalar_entries_match_the_product_form():
    rng = np.random.default_rng(14)
    # signed zeros and multiples of pi/2, where rounding of the product
    # and of the scalar entries differ the most
    edges = (0.0, -0.0, np.pi, -np.pi, np.pi / 2.0)
    settings = [IDENTITY_SETTING]
    settings += [MziSetting(*p) for p in itertools.product(edges, repeat=4)]
    settings += [
        MziSetting(*p, phi3=a, phi4=b)
        for p in itertools.product(edges[:3], repeat=4)
        for a, b in ((-0.0, 0.0), (np.pi, -0.0))
    ]
    settings += [random_setting(rng, extended) for extended in (False, True) for _ in range(100)]
    settings.append(MziSetting(0.3, 1.2, -0.7, 2.0, phi3=0.9))  # phi4 missing reads as 0
    for setting in settings:
        ref = reference_mzi_unitary(setting)
        assert np.max(np.abs(setting_unitary(setting) - ref)) <= 1e-15
        plain = reference_mzi_unitary(replace(setting, phi3=None, phi4=None))
        assert np.max(np.abs(mzi_unitary(setting) - plain)) <= 1e-15
        phi3 = 0.0 if setting.phi3 is None else setting.phi3
        extended = reference_mzi_unitary(replace(setting, phi3=phi3))
        assert np.max(np.abs(extended_mzi_unitary(setting) - extended)) <= 1e-15
    # the identity setting is not exact in floating point: its off-diagonal
    # stays a nonzero residue, as in the product form
    off = setting_unitary(IDENTITY_SETTING)[0, 1]
    assert 0 < abs(off) < 1e-16
    assert 0 < abs(reference_mzi_unitary(IDENTITY_SETTING)[0, 1]) < 1e-16


def test_solve_reads_nested_sequences_like_arrays():
    rng = np.random.default_rng(15)
    for _ in range(20):
        u = random_unitary(2, rng)
        assert solve_mzi_settings(u.tolist()) == solve_mzi_settings(u)
        assert solve_mzi_settings(tuple(map(tuple, u.tolist()))) == solve_mzi_settings(u)
    with pytest.raises(ValueError, match="not unitary"):
        solve_mzi_settings([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="not unitary"):
        solve_mzi_settings([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="2x2"):
        solve_mzi_settings([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_mzi_always_unitary():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t1, t2, p1, p2 = rng.uniform(-np.pi, np.pi, size=4)
        report = check_unitary(mzi_unitary(MziSetting(t1, t2, p1, p2)))
        assert report.is_unitary
        assert report.max_deviation < 1e-12


def test_embed_block_one_based_position():
    blk = np.array([[0, 1], [1, 0]], dtype=complex)
    m = embed_block(blk, 2, 4)
    expected = np.eye(4, dtype=complex)
    expected[1:3, 1:3] = blk
    assert np.allclose(m, expected, atol=1e-15)
    with pytest.raises(ValueError):
        embed_block(blk, 0, 4)
    with pytest.raises(ValueError):
        embed_block(blk, 4, 4)


def test_permanent_known_values():
    assert permanent(np.array([[3.0]])) == pytest.approx(3.0)
    m2 = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert permanent(m2) == pytest.approx(1 * 4 + 2 * 3)
    assert permanent(np.ones((3, 3))) == pytest.approx(6.0)
    assert permanent(np.eye(5)) == pytest.approx(1.0)


def test_permanent_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        for _ in range(5):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert abs(permanent(m) - naive_permanent(m)) < 1e-10


def test_permanent_dimension_cap():
    with pytest.raises(ValueError):
        permanent(np.eye(PERMANENT_MAX_DIM + 1))


def test_check_unitary_flags_deviation():
    u = np.eye(3, dtype=complex)
    u[0, 0] = 1.0 + 1e-6
    report = check_unitary(u)
    assert not report.is_unitary
    assert report.max_deviation == pytest.approx(2e-6, rel=1e-2)


def test_equal_mod_global_phase():
    rng = np.random.default_rng(5)
    u = random_unitary(3, rng)
    assert equal_mod_global_phase(np.exp(0.83j) * u, u, tol=1e-12)
    assert not equal_mod_global_phase(u + 0.1, u, tol=1e-10)
    zero = np.zeros((2, 2))
    assert equal_mod_global_phase(zero, zero)


def test_solve_mzi_settings_roundtrip_random_unitaries():
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = random_unitary(2, rng)
        setting = solve_mzi_settings(u)
        assert np.allclose(setting_unitary(setting), u, atol=1e-11)


def test_solve_mzi_settings_plain_when_reachable():
    # Anything produced by a plain MZI must solve back without output phases.
    rng = np.random.default_rng(13)
    for _ in range(20):
        t1, t2, p1, p2 = rng.uniform(-np.pi, np.pi, size=4)
        u = mzi_unitary(MziSetting(t1, t2, p1, p2))
        setting = solve_mzi_settings(u)
        assert not setting.is_extended
        assert np.allclose(setting_unitary(setting), u, atol=1e-12)


def test_solve_mzi_settings_diagonal_and_antidiagonal():
    for u in (
        np.diag([1.0, 1.0]).astype(complex),
        np.diag([1.0, -1.0]).astype(complex),
        np.diag([np.exp(0.4j), np.exp(-1.1j)]),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
    ):
        setting = solve_mzi_settings(u)
        assert np.allclose(setting_unitary(setting), u, atol=1e-12)


@pytest.mark.parametrize("rotation", [rx, ry, rz])
@pytest.mark.parametrize(
    "angle", [4.5409924698258664e-05, 1e-6, -3e-5, 3e-5, 1e-9, -1e-11]
)
def test_solve_mzi_settings_near_identity_rotations(rotation, angle):
    # The column ratio grows like cot(angle/2), so its rounding error alone
    # used to fail a fixed tolerance in the peeled (extended) path.
    u = rotation(angle)
    setting = solve_mzi_settings(u)
    assert np.max(np.abs(setting_unitary(setting) - u)) < 1e-14


def test_solve_mzi_settings_rejects_nonunitary():
    with pytest.raises(ValueError):
        solve_mzi_settings(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))
    with pytest.raises(ValueError):
        solve_mzi_settings(np.eye(3, dtype=complex))

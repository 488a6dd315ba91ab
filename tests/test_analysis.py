"""Tests for the 4-mode feasibility analysis and GHZ probability scan."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from photonmesh import analysis
from photonmesh.analysis import (
    CZ_TARGET,
    FeasibilityReport,
    cz_constraint_residual,
    constrained_family,
    ghz_probability_scan,
    process_fidelity,
    search_cz_in_4x4,
)
from photonmesh.linalg import MziSetting, setting_unitary

from helpers import numpy_blas_name, reference_constraint_residual, reference_mesh_unitary

# Reports of the one-restart-at-a-time descent that the lockstep descent
# replaced, recorded from it: (restarts, seed, target, report).
PINNED_REPORTS = [
    (20, 0, None, FeasibilityReport(
        restarts=20,
        best_process_fidelity=0.89285714092888,
        best_success_probability=0.4375000000103148,
        best_parameters=(
            6.283195973822965, 4.50019011545952, 3.141536345438234,
            0.03362827723168083, 3.141590474383599, 1.2842949912403503,
            6.283191474542418, 2.8924978384210016, 3.1416521716098464,
            4.154584877775064, 1.04719013411589, 3.242306299487479,
            1.2392637229117414, 5.0776729651868475, 3.0711196066803472,
            6.212155991893708,
        ),
        constraint_residual=0.5391862920264073,
    )),
    (20, 3, None, FeasibilityReport(
        restarts=20,
        best_process_fidelity=0.8928571401270049,
        best_success_probability=0.4374999980623275,
        best_parameters=(
            -2.4852937579481784e-05, 5.643978586231114, 2.126172517340132e-05,
            5.0258344395605, 5.23597002644027, 5.4483882708755536,
            -5.1519267566911694e-05, 1.5499382925379388, 6.283125306231874,
            4.571517093917598, 3.1416958450799535, 3.4273067954518974,
            5.818785164300026, 0.41469450260973595, 1.5984410047463131,
            4.147221158987992,
        ),
        constraint_residual=0.5382420969599013,
    )),
    (2, 5, None, FeasibilityReport(
        restarts=2,
        best_process_fidelity=0.8928571378238633,
        best_success_probability=0.4374999996376606,
        best_parameters=(
            0.3561762214170153, 1.5139659248966109, 4.261139592949832,
            1.2668003376947157, 3.1414992960623205, 0.40362760819385757,
            5.927011327741266, 0.40347120902876316, 4.261173429187548,
            6.283138231270061, 1.047229729840751, 4.783493783726667,
            5.4801657496791245, 0.11634710999531439, 5.2711070035876375,
            -0.7924621657139738,
        ),
        constraint_residual=0.5060703780389253,
    )),
    (2, 11, None, FeasibilityReport(
        restarts=2,
        best_process_fidelity=0.8928571365171949,
        best_success_probability=0.4375000001372963,
        best_parameters=(
            3.141687272545052, 2.9975180237360783, 3.141667311822777,
            3.1016994743998314, 6.863262166044886, 2.0851661551081495,
            3.14169048009402, 2.28870358989821, 3.141566378711806,
            3.813782609069072, 2.278441241575002, 5.489606866096999,
            5.449617429360144, 0.8090208744161077, 3.7440825099551582,
            1.7413527167276366,
        ),
        constraint_residual=0.5450332859165801,
    )),
    (3, 1, np.eye(4), FeasibilityReport(
        restarts=3,
        best_process_fidelity=0.999999233652872,
        best_success_probability=0.9982282643982411,
        best_parameters=(
            2.2484588226928, 3.323263281077886, -0.00016864611493019757,
            2.6510930140414257, 3.1603834110957743, 3.011274250682358,
            2.2485448017249956, 6.162153563995592, 6.283285974771859,
            4.853989506659829, 3.0754333141266397, 1.4130009324451387,
            1.0094063411047631, 6.094221105379693, 2.9734139292113904,
            0.7280051138837079,
        ),
        constraint_residual=0.5301803361559757,
    )),
]


def test_constrained_family_structure():
    m = constrained_family(1.0, 1.0, 1.0 / 3.0)
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [0.0, 2.0 / 3.0, 1.0 / 3.0, 0.0],
            [0.0, 0.0, 0.0, 1.0 / 3.0],
        ],
        dtype=complex,
    )
    assert np.allclose(m, expected, atol=1e-12)


def test_constrained_family_rejects_zero_parameters():
    with pytest.raises(ValueError):
        constrained_family(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        constrained_family(1.0, 1e-13, 1.0)
    with pytest.raises(ValueError):
        constrained_family(1.0, 1.0, 0.0)


def test_known_constraint_residual():
    assert cz_constraint_residual(1.0, 1.0, 1.0 / 3.0) == pytest.approx(
        0.875, abs=1e-6
    )


def test_constraint_residual_positive_for_seeded_samples():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 10:
        vals = rng.uniform(-2.0, 2.0, size=6)
        g11 = complex(vals[0], vals[1])
        g23 = complex(vals[2], vals[3])
        c = complex(vals[4], vals[5])
        if min(abs(g11), abs(g23), abs(c)) < 1e-3:
            continue
        checked += 1
        assert cz_constraint_residual(g11, g23, c) > 1e-3


def test_process_fidelity_properties():
    assert process_fidelity(CZ_TARGET, CZ_TARGET) == pytest.approx(1.0, abs=1e-12)
    # invariant under nonzero rescaling of the map
    assert process_fidelity(-0.3j * CZ_TARGET, CZ_TARGET) == pytest.approx(
        1.0, abs=1e-12
    )
    assert process_fidelity(np.zeros((4, 4)), CZ_TARGET) == 0.0
    assert process_fidelity(np.eye(4, dtype=complex), CZ_TARGET) == pytest.approx(
        0.25, abs=1e-12
    )


def test_internal_mzi_matches_linalg_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(10):
        theta, phi = rng.uniform(0.0, 2.0 * np.pi, size=2)
        block = analysis._mzi2(theta, phi)
        full = setting_unitary(MziSetting(theta, 0.0, phi, 0.0))
        assert np.allclose(block, full, atol=1e-12)


def test_mzi_stack_equals_scalar_calls():
    rng = np.random.default_rng(4)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(5, 6))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=(5, 6))
    blocks = analysis._mzi2(theta, phi)
    assert blocks.shape == (5, 6, 2, 2)
    for k in np.ndindex(theta.shape):
        assert np.array_equal(blocks[k], analysis._mzi2(theta[k], phi[k]))


def test_mesh_unitary_matches_embedded_mzi_blocks():
    rng = np.random.default_rng(8)
    params = rng.uniform(0.0, 2.0 * np.pi, size=(12, 16))

    def mesh(rows):
        return analysis._mesh_product(*analysis._mesh_parts(rows))

    stack = mesh(params)
    assert stack.shape == (12, 4, 4)
    for k, row in enumerate(params):
        u = stack[k]
        assert np.allclose(u, reference_mesh_unitary(row, analysis._SLOT_TOPS), atol=1e-12)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        # a stack of rows is the row-by-row calls, bit for bit
        assert np.array_equal(u, mesh(params[k : k + 1])[0])


def test_process_fidelity_stack_equals_slices():
    rng = np.random.default_rng(5)
    maps = rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4))
    maps[7] = 0.0
    params = rng.uniform(0.0, 2.0 * np.pi, size=(40, 16))
    search_maps = analysis._conditional_map(analysis._mesh_product(*analysis._mesh_parts(params)))
    other = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for stack in (maps, search_maps):
        for target in (CZ_TARGET, np.eye(4, dtype=complex), other):
            stacked = process_fidelity(stack, target)
            assert stacked.shape == (40,)
            assert stacked.tolist() == [process_fidelity(m, target) for m in stack]
    def evaluate(rows):
        return analysis._evaluate_parts(*analysis._mesh_parts(rows), CZ_TARGET)

    fid, succ = evaluate(params)
    for k in range(len(params)):
        assert (fid[k], succ[k]) == evaluate(params[k : k + 1])


def test_evaluate_computes_the_power_once(monkeypatch):
    # One _power per evaluated stack, and still one process_fidelity call:
    # the benchmark's trace counts those calls as evaluations.
    params = np.random.default_rng(9).uniform(0.0, 2.0 * np.pi, size=(6, 16))
    maps = analysis._conditional_map(analysis._mesh_product(*analysis._mesh_parts(params)))
    fid, power = process_fidelity(maps, CZ_TARGET), analysis._power(maps)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("_power", "process_fidelity"):
        monkeypatch.setattr(analysis, name, counted(name, getattr(analysis, name)))
    got_fid, got_succ = analysis._evaluate_parts(*analysis._mesh_parts(params), CZ_TARGET)
    assert sorted(calls) == ["_power", "process_fidelity"]
    assert got_fid.tolist() == fid.tolist()
    assert got_succ.tolist() == (power / 4.0).tolist()


def test_cached_parts_score_like_a_full_recompute():
    # A candidate one coordinate away from a cached point is scored from
    # the point's blocks and phase factors; that must equal a full
    # recompute of its parameter row, bit for bit.
    rng = np.random.default_rng(12)
    points = rng.uniform(0.0, 2.0 * np.pi, size=(7, 16))
    blocks, phases = analysis._mesh_parts(points)
    rows = points.tolist()

    def check(owner, coords, values):
        cands = points[owner]
        cands[np.arange(len(owner)), coords] = values
        parts = analysis._candidate_parts(blocks, phases, rows, owner, coords, values)
        full = analysis._mesh_parts(cands)
        assert all(np.array_equal(a, b) for a, b in zip(parts, full))
        fid, succ = analysis._evaluate_parts(*parts, CZ_TARGET)
        want_fid, want_succ = analysis._evaluate_parts(*analysis._mesh_parts(cands), CZ_TARGET)
        assert fid.tolist() == want_fid.tolist()
        assert succ.tolist() == want_succ.tolist()

    # Both signs of every coordinate of every point, as one batch per point
    # and one candidate at a time.
    for r, row in enumerate(rows):
        step = rng.uniform(1e-4, 0.8)
        coords = [i for i in range(16) for _ in (0, 1)]
        values = [row[i] + d for i in range(16) for d in (step, -step)]
        check([r] * 32, coords, values)
        for i, v in zip(coords, values):
            check([r], [i], [v])
    # Batches of mixed points and coordinates, K = 1 to 64.
    for k in range(1, 65):
        owner = rng.integers(0, len(rows), size=k).tolist()
        coords = rng.integers(0, 16, size=k).tolist()
        values = [rows[r][i] + d for r, i, d in zip(owner, coords, rng.uniform(-0.8, 0.8, k))]
        check(owner, coords, values)


def test_constraint_residual_broadcasts_like_scalar_calls():
    rng = np.random.default_rng(6)
    vals = rng.uniform(-2.0, 2.0, size=(6, 3, 4))
    g11, g23, c = vals[0] + 1j * vals[1], vals[2] + 1j * vals[3], vals[4] + 1j * vals[5]
    stacked = cz_constraint_residual(g11, g23, c)
    assert stacked.shape == (3, 4)
    for k in np.ndindex(stacked.shape):
        assert stacked[k] == cz_constraint_residual(g11[k], g23[k], c[k])
    # a scalar broadcasts against an array
    assert cz_constraint_residual(1.0, 1.0, np.full(2, 1.0 / 3.0)).tolist() == [
        cz_constraint_residual(1.0, 1.0, 1.0 / 3.0)
    ] * 2


def test_constraint_residual_stops_at_the_fixed_point():
    # Stopping once a step moves no bracket end gives the 300-step result.
    rng = np.random.default_rng(10)
    vals = rng.uniform(-2.0, 2.0, size=(6, 4, 5))
    g11, g23, c = vals[0] + 1j * vals[1], vals[2] + 1j * vals[3], vals[4] + 1j * vals[5]
    stacked = cz_constraint_residual(g11, g23, c)
    assert stacked.tolist() == reference_constraint_residual(g11, g23, c).tolist()
    for k in [(0, 0), (2, 3), (3, 4)]:
        assert cz_constraint_residual(g11[k], g23[k], c[k]) == (
            reference_constraint_residual(g11[k], g23[k], c[k])
        )
    assert cz_constraint_residual(1.0, 1.0, 1.0 / 3.0) == (
        reference_constraint_residual(1.0, 1.0, 1.0 / 3.0)
    )
    # a scalar broadcasts against an array
    assert cz_constraint_residual(1.0, g23[0], 0.5).tolist() == (
        reference_constraint_residual(1.0, g23[0], 0.5).tolist()
    )


def _sequential_descent(restarts, seed, target, max_sweeps, skips=None):
    """The descent one restart and one candidate at a time, each candidate
    scored as a stack of one: (best fidelity, success, parameters).

    ``skips``, if given, collects for every move the number of coordinates
    its sweep tried without moving since the sweep began or last moved."""
    rng = np.random.default_rng(seed)
    floor = analysis._SUCCESS_FLOOR
    best = (0.0, 0.0, tuple([0.0] * 16))

    def visit(params):
        nonlocal best
        parts = analysis._mesh_parts(params[None])
        fid, succ = (float(x[0]) for x in analysis._evaluate_parts(*parts, target))
        if succ > floor and fid > best[0]:
            best = (fid, succ, tuple(float(x) for x in params))
        return fid if succ > floor else fid * (succ / floor)

    for _ in range(restarts):
        params = rng.uniform(0.0, 2.0 * np.pi, size=16)
        current = visit(params)
        step = 0.8
        for _sweep in range(max_sweeps):
            improved = False
            passed = 0
            for i in range(16):
                for delta in (step, -step):
                    cand = params.copy()
                    cand[i] += delta
                    sc = visit(cand)
                    if sc > current:
                        params, current = cand, sc
                        improved = True
                        if skips is not None:
                            skips.append(passed)
                        passed = -1
                        break
                passed += 1
            if not improved:
                step *= 0.5
                if step < 1e-4:
                    break
    return best


def _report_best(report):
    return (
        report.best_process_fidelity,
        report.best_success_probability,
        report.best_parameters,
    )


@pytest.mark.parametrize(
    "restarts, seed, target, max_sweeps",
    [
        (2, 4, CZ_TARGET, 200),
        (2, 1, np.eye(4), 30),
        (5, 9, CZ_TARGET, 3),
        (1, 7, CZ_TARGET, 200),  # one restart
        (4, 2, CZ_TARGET, 0),  # start points only
    ],
)
def test_lockstep_descent_walks_the_sequential_path(restarts, seed, target, max_sweeps):
    report = search_cz_in_4x4(restarts, seed, target, max_sweeps)
    assert _report_best(report) == _sequential_descent(
        restarts, seed, np.asarray(target, dtype=complex), max_sweeps
    )
    # The report holds a copy of the best row, in Python floats.
    assert type(report.best_parameters) is tuple
    assert all(type(x) is float for x in _report_best(report)[:2] + report.best_parameters)


@pytest.mark.parametrize("restarts, seed, max_sweeps", [(2, 1, 2), (3, 4, 2)])
def test_lockstep_descent_walks_past_windows_without_a_move(restarts, seed, max_sweeps):
    # Some sweep tries a whole window or more before it moves: a tick scores
    # the restart and leaves it in place, and the next tick goes on from the
    # first unscored coordinate.  (2, 1, 2) moves at the first coordinate
    # after a full window, (3, 4, 2) only after two windows.
    skips = []
    best = _sequential_descent(restarts, seed, CZ_TARGET, max_sweeps, skips=skips)
    assert max(skips) >= analysis._WINDOW
    assert _report_best(search_cz_in_4x4(restarts, seed, CZ_TARGET, max_sweeps)) == best


@pytest.mark.parametrize(
    "restarts, seed, target, expected",
    PINNED_REPORTS,
    ids=[f"restarts{r}-seed{s}" for r, s, _, _ in PINNED_REPORTS],
)
def test_search_reproduces_pinned_reports(restarts, seed, target, expected):
    # The walked path is pinned exactly.  The last bits of the fidelity and
    # the success probability follow the host's numpy complex loops, so
    # those two are pinned to 1e-15 relative.
    report = search_cz_in_4x4(restarts=restarts, seed=seed, target=target)
    assert (report.restarts, report.best_parameters, report.constraint_residual) == (
        expected.restarts,
        expected.best_parameters,
        expected.constraint_residual,
    )
    assert report.best_process_fidelity == pytest.approx(
        expected.best_process_fidelity, rel=1e-15
    )
    assert report.best_success_probability == pytest.approx(
        expected.best_success_probability, rel=1e-15
    )


@pytest.mark.skipif(
    "openblas" not in numpy_blas_name().lower(), reason="numpy is not built on OpenBLAS"
)
def test_search_does_not_depend_on_the_blas_kernel():
    # Another OpenBLAS kernel rounds matrix products differently; the
    # search makes none on its walked path, so its report stays the same.
    code = (
        "import dataclasses, json\n"
        "from photonmesh.analysis import search_cz_in_4x4\n"
        "print(json.dumps(dataclasses.asdict(search_cz_in_4x4(restarts=2, seed=5))))\n"
    )
    package_root = os.path.dirname(os.path.dirname(analysis.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    fields = json.loads(proc.stdout)
    fields["best_parameters"] = tuple(fields["best_parameters"])
    assert FeasibilityReport(**fields) == search_cz_in_4x4(restarts=2, seed=5)


def test_search_rejects_nonpositive_restarts():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="restarts"):
            search_cz_in_4x4(restarts=bad)


def test_search_identity_target_is_reachable():
    report = search_cz_in_4x4(restarts=3, seed=1, target=np.eye(4))
    assert report.best_process_fidelity > 1.0 - 1e-3
    assert report.best_success_probability > 0.5


def test_search_cz_small_run_stays_below_unit_fidelity():
    report = search_cz_in_4x4(restarts=2, seed=5)
    assert report.restarts == 2
    assert len(report.best_parameters) == 16
    # every feasible configuration the descent visited fell short of CZ
    assert report.best_process_fidelity < 1.0 - 1e-3
    assert report.best_success_probability > 1e-6
    assert report.constraint_residual > 1e-3


def test_search_is_deterministic():
    first = search_cz_in_4x4(restarts=2, seed=11)
    second = search_cz_in_4x4(restarts=2, seed=11)
    assert first == second


def test_ghz_probability_scan_values():
    scan = ghz_probability_scan(3)
    assert [n for n, _ in scan] == [2, 3]
    assert scan[0][1] == pytest.approx(1.0 / 9.0, abs=1e-10)
    assert scan[1][1] == pytest.approx(1.0 / 81.0, abs=1e-10)


def test_ghz_probability_scan_rejects_small_n():
    with pytest.raises(ValueError):
        ghz_probability_scan(1)

"""End-to-end tests of the command line interface.

Most tests call ``cli.main`` in process with stdout and stderr captured;
:func:`test_module_entry_point` runs ``python -m photonmesh`` as a
subprocess for the exit codes and stderr of the real entry point.
"""

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from photonmesh import cli, compiler, fock
from photonmesh.cli import fmt_float

from helpers import brickwork, numpy_blas_name

BELL = {"qubits": 2, "gates": [{"g": "H", "q": 0}, {"g": "CNOT", "c": 0, "t": 1}]}
CASCADE = {
    "qubits": 2,
    "gates": [{"g": "CNOT", "c": 0, "t": 1}, {"g": "CNOT", "c": 0, "t": 1}],
}
STAR = {
    "qubits": 3,
    "gates": [
        {"g": "H", "q": 0},
        {"g": "CNOT", "c": 0, "t": 1},
        {"g": "CNOT", "c": 0, "t": 2},
    ],
}


def write_circuit(tmp_path, payload, name="circuit.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(*argv):
    """``cli.main`` on ``argv``, with the fields of a finished subprocess."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def run_module(*argv):
    """``python -m photonmesh`` on ``argv`` in a subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "photonmesh", *argv],
        capture_output=True,
        text=True,
    )


def test_module_entry_point(tmp_path):
    proc = run_module("gates", "list", "--name", "CZ", "--format", "json")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert [e["name"] for e in json.loads(proc.stdout)["networks"]] == ["CZ"]
    proc = run_module("simulate", write_circuit(tmp_path, CASCADE))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("photonmesh: illegal cascade:")
    proc = run_module("frobnicate")
    assert proc.returncode == 4
    assert proc.stderr.startswith("photonmesh: error:")


def test_simulate_bell_json(tmp_path):
    path = write_circuit(tmp_path, BELL)
    proc = run_cli("simulate", path, "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["input"] == "00"
    assert payload["qubits"] == 2
    amp = payload["amplitudes"]
    # only the projected entries, in index order: |01> and |10> are absent (0)
    assert list(amp) == ["00", "11"]
    assert amp["00"][0] == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    assert amp["11"][0] == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    for label in ("00", "11"):
        assert amp[label][1] == pytest.approx(0.0, abs=1e-10)
    assert payload["success_probability"] == pytest.approx(1 / 9, abs=1e-10)
    assert payload["positions"] == [0, 1]
    assert payload["flips"] == [0, 0]
    assert payload["forest"] is True


def test_simulate_reports_the_forest_certificate(tmp_path):
    triangle = {
        "qubits": 3,
        "gates": [
            {"g": "H", "q": 0},
            {"g": "H", "q": 1},
            {"g": "CZ", "c": 0, "t": 1},
            {"g": "CZ", "c": 1, "t": 2},
            {"g": "H", "q": 2},
            {"g": "CZ", "c": 0, "t": 2},
        ],
    }
    for circuit, forest in ((STAR, True), (triangle, False)):
        proc = run_cli("simulate", write_circuit(tmp_path, circuit), "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["forest"] is forest


def test_simulate_human_skips_zero_amplitudes(tmp_path):
    path = write_circuit(tmp_path, BELL)
    proc = run_cli("simulate", path)
    assert proc.returncode == 0
    assert proc.stdout.startswith("input 00\n")
    assert "|00>" in proc.stdout
    assert "|11>" in proc.stdout
    assert "|01>" not in proc.stdout
    assert "success probability" in proc.stdout


def test_simulate_tsv_format(tmp_path):
    path = write_circuit(tmp_path, BELL)
    proc = run_cli("simulate", path, "--format", "tsv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "kind\tbitstring\tre\tim"
    amp_lines = [ln for ln in lines if ln.startswith("amp\t")]
    assert [ln.split("\t")[1] for ln in amp_lines] == ["00", "11"]
    assert lines[-1].startswith("success\t")


def test_simulate_with_input_bits(tmp_path):
    path = write_circuit(tmp_path, BELL)
    proc = run_cli("simulate", path, "--input", "01", "--format", "json")
    assert proc.returncode == 0
    amp = json.loads(proc.stdout)["amplitudes"]
    assert amp["01"][0] == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    assert amp["10"][0] == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    assert list(amp) == ["01", "10"]  # |00> and |11> are absent (0)


def test_simulate_dump_state(tmp_path):
    path = write_circuit(tmp_path, BELL)
    dump = tmp_path / "state.txt"
    proc = run_cli("simulate", path, "--dump-state", str(dump))
    assert proc.returncode == 0
    text = dump.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "modes=6"
    # occupation,re,im records; both Bell terms plus rail-doubled junk
    assert any(ln.startswith("010010,") for ln in lines)
    assert any(ln.startswith("001001,") for ln in lines)
    assert any(ln.startswith("000020,") for ln in lines)


def test_simulate_rejects_bad_input_bits(tmp_path):
    path = write_circuit(tmp_path, BELL)
    for bad in ("0", "012", "0101"):
        proc = run_cli("simulate", path, "--input", bad)
        assert proc.returncode == 4
        assert "circuit error" in proc.stderr


def test_missing_circuit_file(tmp_path):
    proc = run_cli("simulate", str(tmp_path / "nope.json"))
    assert proc.returncode == 4
    assert proc.stderr.startswith("photonmesh:")


def test_malformed_circuit_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 4
    assert "invalid JSON" in proc.stderr


def test_deeply_nested_circuit_json_is_a_circuit_error(tmp_path):
    # the JSON decoder recurses once per bracket and gives up long before this
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for command in ("simulate", "compile"):
        proc = run_cli(command, str(path))
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"photonmesh: circuit error: {path}: ")


@pytest.mark.parametrize("angle", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_angle_is_a_circuit_error(tmp_path, angle):
    path = tmp_path / "angle.json"
    path.write_text(
        '{"qubits": 1, "gates": [{"g": "RY", "q": 0, "angle": %s}]}' % angle,
        encoding="utf-8",
    )
    for command in ("simulate", "compile"):
        proc = run_cli(command, str(path))
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == "photonmesh: circuit error: RY needs a finite 'angle'\n"


def test_angle_on_a_two_qubit_gate_is_a_circuit_error(tmp_path):
    path = write_circuit(tmp_path, {
        "qubits": 2, "gates": [{"g": "CZ", "c": 0, "t": 1, "angle": 0.3}],
    })
    for command in ("simulate", "compile"):
        proc = run_cli(command, path)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == "photonmesh: circuit error: CZ takes no 'angle'\n"


def ghz_chain_file(tmp_path, n):
    return write_circuit(tmp_path, {
        "qubits": n,
        "gates": [{"g": "H", "q": 0}]
        + [{"g": "CNOT", "c": q, "t": q + 1} for q in range(n - 1)],
    })


def test_ghz_chain_of_40_keeps_both_terms(tmp_path):
    # A regression test of the certified fold's unit scale: it counts each
    # post-selected gate's 1/9 instead of multiplying 1/3 into every
    # amplitude, so no amplitude nears the absolute cut.  Multiplied in,
    # both terms fell below it from n = 31 on and decoding raised.
    n = 40
    circuit = compiler.ghz_chain_circuit(n)
    result = compiler.compile_circuit(circuit, compiler.CompileOptions(place=False))
    assert result.forest
    amps, p = fock.run_certified(result.program, "0" * n, result.positions, result.flips)
    assert list(amps) == [0, 2**n - 1]
    for amp in amps.values():
        assert amp == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(p * 9.0 ** (n - 1) - 1) < 1e-12


def test_an_underflowing_success_probability_raises_and_exits_4(tmp_path):
    # 9.0**-k is subnormal from k = 323 on, so a GHZ chain of 324 qubits or
    # more would print a success probability that lost its precision (about
    # 1.1e-314 at n = 330).  The last chain in the normal range still runs.
    n = 323
    sim = compiler.simulate_circuit(compiler.ghz_chain_circuit(n))
    assert abs(sim.success_probability * 9.0 ** (n - 1) - 1) < 1e-12
    n = 330
    message = "success probability 9**-329 of 329 post-selected gates underflows a float"
    with pytest.raises(ValueError, match=re.escape(message)):
        compiler.simulate_circuit(compiler.ghz_chain_circuit(n))
    proc = run_cli("simulate", ghz_chain_file(tmp_path, n))
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", f"photonmesh: error: {message}\n")


def test_empty_projection_raises_and_exits_4(tmp_path):
    # The GHZ-31 chain, then a SWAP and a CZ that repeat a photon pair, so
    # the circuit is uncertified and takes the light-cone path.  Its
    # absolute PRUNE_THRESHOLD drops every term (the light-cone half of
    # ROADMAP item 1, still open), so decoding raises.  Guard: if the
    # light-cone fold ever keeps terms here, stop and rewrite this test as
    # a regression test of its relative cut.
    n = 31
    gates = [{"g": "H", "q": 0}] + [{"g": "CNOT", "c": q, "t": q + 1} for q in range(n - 1)]
    gates += [{"g": "SWAP", "a": 29, "b": 28}, {"g": "CZ", "c": 30, "t": 28}]
    payload = {"qubits": n, "gates": gates}
    circuit = compiler.parse_circuit(payload)
    result = compiler.compile_circuit(circuit, compiler.CompileOptions(place=False))
    assert not result.forest
    start = time.perf_counter()
    with pytest.raises(ValueError, match="no qubit-structure amplitude"):
        compiler.simulate_circuit(circuit)
    proc = run_cli("simulate", write_circuit(tmp_path, payload))
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "no qubit-structure amplitude" in proc.stderr
    assert time.perf_counter() - start < 5.0


def test_ghz_chain_of_30_keeps_both_terms(tmp_path):
    # Each term holds 1/sqrt(2) throughout the certified fold, which keeps
    # its amplitudes at unit scale and counts the gates' 1/9 apart.
    n = 30
    proc = run_cli("simulate", ghz_chain_file(tmp_path, n), "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(proc.stdout)
    amp = payload["amplitudes"]
    assert list(amp) == ["0" * n, "1" * n]
    for re_im in amp.values():
        assert complex(*re_im) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(payload["success_probability"] * 9.0 ** (n - 1) - 1) < 1e-12


def test_simulate_json_does_no_dense_work_at_24_qubits(tmp_path):
    # 2**24 amplitudes: a dense vector alone would take 256 MiB, and the
    # record would list 16M bitstrings
    n = 24
    path = ghz_chain_file(tmp_path, n)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        proc = run_cli("simulate", path, "--format", "json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5.0
    assert peak < 16 * 2**20
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    amp = payload["amplitudes"]
    assert list(amp) == ["0" * n, "1" * n]
    for re_im in amp.values():
        assert complex(*re_im) == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert payload["success_probability"] * 9.0 ** (n - 1) == pytest.approx(1.0, abs=1e-9)


def test_illegal_cascade_exit_code(tmp_path):
    path = write_circuit(tmp_path, CASCADE)
    proc = run_cli("simulate", path)
    assert proc.returncode == 2
    assert "illegal cascade" in proc.stderr


def test_placement_overflow_exit_code(tmp_path):
    path = write_circuit(tmp_path, STAR)
    proc = run_cli("compile", path)
    assert proc.returncode == 3
    assert "placement overflow" in proc.stderr
    # simulation does not place into a fixed mesh, so it still succeeds
    sim = run_cli("simulate", path, "--format", "json")
    assert sim.returncode == 0
    assert json.loads(sim.stdout)["success_probability"] == pytest.approx(
        1 / 81, abs=1e-10
    )


def test_compile_bell_json_table(tmp_path):
    path = write_circuit(tmp_path, BELL)
    proc = run_cli("compile", path, "--format", "json")
    assert proc.returncode == 0
    table = json.loads(proc.stdout)
    assert table["scheme"] == "clements"
    assert table["mode_count"] == 6
    assert table["qubit_count"] == 2
    assert table["positions"] == [0, 1]
    assert table["flips"] == [0, 0]
    assert list(table)[:5] == ["scheme", "mode_count", "columns", "idle", "slots"]
    # Only placed slots are listed; the rest are parked at ``idle``.
    assert table["slots_used"] == len(table["slots"])
    assert len(table["slots"]) < sum(len(column) for column in table["columns"])
    roles = {slot["role"] for slot in table["slots"]}
    assert "H" in roles and "ID" not in roles
    idle = table["idle"]
    assert list(idle) == ["theta1", "theta2", "phi1", "phi2"]
    assert idle["theta1"] == pytest.approx(np.pi, abs=1e-12)
    assert idle["theta2"] == 0.0
    assert idle["phi1"] == pytest.approx(np.pi, abs=1e-12)
    assert idle["phi2"] == 0.0
    assert table["truncations"][0]["modes"] == [0, 3]


def test_compile_tsv_and_output_file(tmp_path):
    path = write_circuit(tmp_path, BELL)
    out = tmp_path / "table.tsv"
    proc = run_cli("compile", path, "--format", "tsv", "--output", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("kind\tcolumn\ttop_mode\ttheta1")
    assert any(ln.startswith("slot\t") for ln in lines)
    assert any(ln.startswith("trunc\t") for ln in lines)


def test_compile_reck_scheme(tmp_path):
    path = write_circuit(tmp_path, BELL)
    proc = run_cli("compile", path, "--scheme", "reck", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["scheme"] == "reck"


PHASE_KEYS = ("theta1", "theta2", "phi1", "phi2", "phi3", "phi4")


def setting_phases(setting):
    """The phases a phase table entry holds for ``setting``."""
    return {k: getattr(setting, k) for k in PHASE_KEYS if getattr(setting, k) is not None}


def expand_phase_table(table):
    """Every slot of ``columns``, column by column, as ``(column, top_mode,
    phases, role)``: its listed entry, or ``idle`` with the role ``ID``."""
    listed = {(s["column"], s["top_mode"]): s for s in table["slots"]}
    assert len(listed) == len(table["slots"])
    full = []
    for col, tops in enumerate(table["columns"]):
        for top in tops:
            slot = listed.pop((col, top), None)
            if slot is None:
                full.append((col, top, table["idle"], "ID"))
            else:
                phases = {k: slot[k] for k in PHASE_KEYS if k in slot}
                full.append((col, top, phases, slot["role"]))
    assert listed == {}  # no listed slot lies outside the mesh
    return full


@pytest.mark.parametrize("restore", [True, False], ids=["restore", "no-restore"])
@pytest.mark.parametrize("scheme", ["clements", "reck"])
def test_compile_phase_table_expands_to_every_slot(tmp_path, scheme, restore):
    # The triangular Reck mesh is one slot wide at its top corner, so it
    # gets one brickwork round, and Clements three.
    rng = np.random.default_rng(23)
    rounds, smallest = (3, 12) if scheme == "clements" else (1, 8)
    flags = ["--scheme", scheme] + ([] if restore else ["--no-restore-swaps"])
    options = compiler.CompileOptions(scheme=scheme, restore_swaps=restore)
    for _ in range(4):
        payload = brickwork(rng, int(rng.integers(smallest, smallest + 6)), rounds)
        proc = run_cli("compile", write_circuit(tmp_path, payload), *flags, "--format", "json")
        assert proc.returncode == 0, proc.stderr
        table = json.loads(proc.stdout)
        assignment = compiler.compile_circuit(
            compiler.parse_circuit(payload), options
        ).assignment
        keys = [(s["column"], s["top_mode"]) for s in table["slots"]]
        assert keys == sorted(set(keys))
        assert table["slots_used"] == len(table["slots"]) == len(assignment.placements)
        assert "ID" not in {s["role"] for s in table["slots"]}
        assert expand_phase_table(table) == [
            (col, top, setting_phases(setting), role)
            for col, top, setting, role in assignment.slots()
        ]


def test_compile_near_identity_rotation(tmp_path):
    circuit = {"qubits": 1, "gates": [{"g": "RX", "q": 0, "angle": 4.5409924698258664e-05}]}
    path = write_circuit(tmp_path, circuit)
    proc = run_cli("compile", path, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    roles = [slot["role"] for slot in json.loads(proc.stdout)["slots"]]
    assert any(role.startswith("RX(") for role in roles)


def test_gates_list_human_and_name_filter():
    proc = run_cli("gates", "list")
    assert proc.returncode == 0
    for name in ("H", "R13", "CZ", "CNOT", "SWAP2A"):
        assert name in proc.stdout
    filtered = run_cli("gates", "list", "--name", "cz")
    assert filtered.returncode == 0
    lines = [ln for ln in filtered.stdout.splitlines() if ln.strip()]
    assert len(lines) == 1
    assert lines[0].startswith("CZ")


def test_gates_list_json_structure():
    proc = run_cli("gates", "list", "--format", "json")
    assert proc.returncode == 0
    sections = json.loads(proc.stdout)
    singles = {entry["name"] for entry in sections["single_qubit"]}
    assert singles == {"I", "X", "Y", "Z", "H", "T"}
    family = {entry["name"] for entry in sections["r13_family"]}
    assert family == {"R13", "R13p", "R13d"}
    networks = {entry["name"] for entry in sections["networks"]}
    assert {"CZ", "CZBAR", "CNOT", "SWAP2", "SWAP2A"} <= networks
    cz = next(e for e in sections["networks"] if e["name"] == "CZ")
    assert cz["mode_count"] == 6
    assert len(cz["layers"]) == 3
    assert cz["truncate_after"] is True


def test_analyze_ghz_scan(tmp_path):
    proc = run_cli("analyze", "ghz-scan", "--max-n", "3", "--format", "json")
    assert proc.returncode == 0
    points = json.loads(proc.stdout)["points"]
    assert [row["n"] for row in points] == [2, 3]
    for row in points:
        assert row["probability"] == pytest.approx(row["expected"], abs=1e-10)
    human = run_cli("analyze", "ghz-scan", "--max-n", "2")
    assert human.returncode == 0
    assert "n=2" in human.stdout


def test_analyze_ghz_scan_reaches_40_qubits():
    # Each row is exact to rounding past n = 30, where the absolute cut once
    # emptied the projection and the scan printed only that error.
    proc = run_cli("analyze", "ghz-scan", "--max-n", "40", "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    points = json.loads(proc.stdout)["points"]
    assert [row["n"] for row in points] == list(range(2, 41))
    for row in points:
        assert abs(row["probability"] / row["expected"] - 1) < 1e-12, row["n"]


def test_analyze_cz4x4_small_run():
    proc = run_cli(
        "analyze", "cz4x4", "--restarts", "2", "--seed", "5", "--format", "json"
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["restarts"] == 2
    assert 0.0 < report["best_process_fidelity"] < 1.0 - 1e-3
    assert report["best_success_probability"] > 1e-6
    assert report["constraint_residual"] > 1e-3
    assert len(report["best_parameters"]) == 16


def test_analyze_cz4x4_rejects_nonpositive_restarts():
    for bad in ("0", "-3"):
        proc = run_cli("analyze", "cz4x4", "--restarts", bad, "--format", "json")
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert "restarts" in proc.stderr


def test_output_is_deterministic(tmp_path):
    path = write_circuit(tmp_path, BELL)
    first = run_cli("simulate", path, "--format", "json")
    second = run_cli("simulate", path, "--format", "json")
    assert first.stdout == second.stdout
    table1 = run_cli("compile", path, "--format", "tsv")
    table2 = run_cli("compile", path, "--format", "tsv")
    assert table1.stdout == table2.stdout


def blas_forest(seed: int) -> dict:
    """A forest circuit that fits a 15-mode mesh: RX and RY rotations (RX
    needs an extended setting), a logical SWAP whose rail flips the later
    rotations see, and adjacent CNOT and CZ; the angles are drawn from
    ``seed``."""
    rng = random.Random(seed)

    def angle() -> float:
        return rng.uniform(-math.pi, math.pi)

    return {
        "qubits": 5,
        "gates": [
            {"g": "H", "q": 0},
            {"g": "RX", "q": 1, "angle": angle()},
            {"g": "RY", "q": 3, "angle": angle()},
            {"g": "CNOT", "c": 0, "t": 1},
            {"g": "SWAP", "a": 2, "b": 3},
            {"g": "RY", "q": 2, "angle": angle()},
            {"g": "RX", "q": 3, "angle": angle()},
            {"g": "H", "q": 4},
            {"g": "CZ", "c": 3, "t": 4},
        ],
    }


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "simulate_golden.json")


def test_simulate_prints_the_pinned_bytes(tmp_path):
    # The stdout of `simulate --format json` and `--format tsv`, pinned byte
    # for byte, rounding included, on GHZ chains n = 2..10, seeded routed
    # forests over both cz_forms and both restore_swaps values (half with an
    # --input), the uncertified triangle and a repeated photon pair.  The
    # file holds each circuit and flags with the bytes these same calls
    # printed at commit b3131e1.  The 21 certified records were written
    # again twice, and the 3 uncertified ones kept their bytes: when the
    # certified fold began to apply each post-selected gate as one rule
    # (same keys, amplitudes within 5.6e-16, success within 1e-15
    # relative), and when it began to keep its amplitudes at unit scale and
    # count each gate's 1/9, summing the success probability in insertion
    # order (same keys and order, amplitudes within 3.4e-16, success within
    # 1.3e-15 relative).
    with open(GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    assert len(cases) == 24
    assert sum('"forest": false' in case["json"] for case in cases) == 3
    for case in cases:
        path = write_circuit(tmp_path, case["circuit"])
        for fmt in ("json", "tsv"):
            proc = run_cli("simulate", path, *case["flags"], "--format", fmt)
            assert (proc.returncode, proc.stderr) == (0, ""), case["name"]
            assert proc.stdout == case[fmt], (case["name"], fmt)


COMPILE_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "compile_golden.json")


def test_compile_prints_the_pinned_bytes(tmp_path):
    # The stdout of `compile --format json` and `--format tsv`, pinned byte
    # for byte, on seeded routed brickworks (tests/helpers.py `brickwork`
    # with numpy's default_rng(seed)) over both cz_forms, both mesh schemes
    # where the circuit fits, and one run without restore swaps.  Four more
    # brickworks overflow their mesh: their exit code, empty stdout and
    # stderr are pinned, so the step label an overflow names is too.
    with open(COMPILE_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    cases, overflows = golden["cases"], golden["overflows"]
    assert len(cases) == 12 and len(overflows) == 4
    assert {"reck", "clements"} == {case["flags"][1] for case in cases}
    assert {"compressed", "swap-sandwich"} == {case["flags"][3] for case in cases}
    assert sum("[CNOT" in case["stderr"] for case in overflows) == 3
    for case in cases:
        path = write_circuit(tmp_path, case["circuit"])
        for fmt in ("json", "tsv"):
            proc = run_cli("compile", path, *case["flags"], "--format", fmt)
            assert (proc.returncode, proc.stderr) == (0, ""), case["name"]
            assert proc.stdout == case[fmt], (case["name"], fmt)
    for case in overflows:
        path = write_circuit(tmp_path, case["circuit"])
        proc = run_cli("compile", path, *case["flags"], "--format", "json")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            case["exit"], "", case["stderr"]
        ), case["name"]


@pytest.mark.skipif(
    "openblas" not in numpy_blas_name().lower(), reason="numpy is not built on OpenBLAS"
)
def test_compile_and_simulate_do_not_depend_on_the_blas_kernel(tmp_path):
    # Another OpenBLAS kernel rounds matrix products differently; compile
    # and simulate make none, so their output bytes stay the same.
    forest = blas_forest(14)
    result = compiler.compile_circuit(compiler.parse_circuit(forest))
    placed = result.assignment.placements
    assert result.forest and any(result.flips)
    assert any(p.setting.is_extended and p.role.endswith("*") for p in placed)
    # Bell pairs rotated by RY: a BLAS norm of their two amplitudes
    # differs between the kernels at some of these angles
    rng = random.Random(14)
    rotated = [
        {"qubits": 2, "gates": [
            {"g": "RY", "q": 0, "angle": rng.uniform(-math.pi, math.pi)},
            {"g": "CNOT", "c": 0, "t": 1},
        ]}
        for _ in range(30)
    ]
    paths = [
        write_circuit(tmp_path, BELL, "bell.json"),
        ghz_chain_file(tmp_path, 6),
        *(write_circuit(tmp_path, c, f"rotated{i}.json") for i, c in enumerate(rotated)),
        write_circuit(tmp_path, forest, "forest.json"),
    ]
    runs = [["simulate", path, "--format", "json"] for path in paths]
    runs.append(["compile", paths[-1], "--format", "json"])
    expected = ""
    for argv in runs:
        proc = run_cli(*argv)
        assert proc.returncode == 0, proc.stderr
        expected += proc.stdout
    code = (
        "import json, sys\n"
        "from photonmesh import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    cli.main(argv)\n"
    )
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    # the subprocess runs on Nehalem's kernel, or on the default one when
    # this process already runs on a chosen kernel
    env = dict(os.environ)
    if env.pop("OPENBLAS_CORETYPE", None) is None:
        env["OPENBLAS_CORETYPE"] = "Nehalem"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == expected


# A brickwork with rotations, so its table holds extended settings too.
BRICKWORK = brickwork(np.random.default_rng(14), 6, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ("compile", BELL),
        ("compile", BRICKWORK),
        ("compile", BRICKWORK, "--scheme", "reck"),
        ("simulate", BELL),
        ("simulate", STAR),
        ("gates", "list"),
        ("analyze", "ghz-scan"),
        ("analyze", "cz4x4", "--restarts", "1"),
        ("analyze", "cz4x4", "--restarts", "2"),
    ],
    ids=[
        "compile",
        "compile-brickwork",
        "compile-brickwork-reck",
        "simulate",
        "simulate-star",
        "gates-list",
        "ghz-scan",
        "cz4x4-1",
        "cz4x4",
    ],
)
def test_json_is_one_compact_line(tmp_path, argv):
    """The json render changes no byte of the default ``json.dumps``:
    its separators, ASCII escaping and the record's key order."""
    argv = [write_circuit(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    proc = run_cli(*argv, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 1
    assert proc.stdout == json.dumps(json.loads(proc.stdout)) + "\n"


def test_json_render_escapes_non_ascii(capsys):
    # no command's record holds a non-ASCII string yet; the render escapes one
    record = {"role": "R\u00e9", "phases": [0.5, -0.0, 1e-20], "nested": {"b": 1, "a": None}}
    assert cli._emit(SimpleNamespace(format="json"), record, None, None) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out == json.dumps(record) + "\n"
    assert out == '{"role": "R\\u00e9", "phases": [0.5, -0.0, 1e-20], "nested": {"b": 1, "a": null}}\n'


@pytest.mark.parametrize("fmt", ["json", "tsv", "human"])
def test_compile_output_file_holds_the_printed_bytes(tmp_path, fmt):
    path = write_circuit(tmp_path, BELL)
    out = tmp_path / f"table.{fmt}"
    printed = run_cli("compile", path, "--format", fmt)
    written = run_cli("compile", path, "--format", fmt, "--output", str(out))
    assert printed.returncode == written.returncode == 0
    assert written.stdout == ""
    assert out.read_bytes() == printed.stdout.encode("utf-8")


def test_usage_errors(tmp_path):
    assert run_cli().returncode == 4
    assert run_cli("frobnicate").returncode == 4
    assert run_cli("gates").returncode == 4
    path = write_circuit(tmp_path, BELL)
    assert run_cli("simulate", path, "--format", "xml").returncode == 4


def test_simulate_takes_no_scheme(tmp_path):
    # simulate never places its program, so a mesh geometry is not an option
    path = write_circuit(tmp_path, BELL)
    proc = run_cli("simulate", path, "--scheme", "reck")
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "unrecognized arguments: --scheme reck" in proc.stderr


def run_formats(*argv):
    """The json record and the tsv and human lines of one command."""
    out = {}
    for fmt in ("json", "tsv", "human"):
        proc = run_cli(*argv, "--format", fmt)
        assert proc.returncode == 0, proc.stderr
        out[fmt] = proc.stdout
    return json.loads(out["json"]), out["tsv"].splitlines(), out["human"].splitlines()


def numbers(text):
    """Numeric tokens of a human line, skipping digits inside names (R13)."""
    return re.findall(r"(?<![\w.+-])-?\d[\d.]*(?:e[-+]\d+)?", text)


@pytest.mark.parametrize("circuit", [BELL, STAR], ids=["bell", "star"])
def test_simulate_formats_agree(tmp_path, circuit):
    record, tsv, human = run_formats("simulate", write_circuit(tmp_path, circuit))
    amps = record["amplitudes"]
    n = record["qubits"]
    assert list(amps) == ["0" * n, "1" * n]  # the projected entries only
    success = fmt_float(record["success_probability"])
    assert tsv[0] == "kind\tbitstring\tre\tim"
    assert tsv[1:-2] == [
        f"amp\t{label}\t{fmt_float(re)}\t{fmt_float(im)}" for label, (re, im) in amps.items()
    ]
    assert record["forest"] is True
    assert tsv[-2] == "forest\t\ttrue\t"
    assert tsv[-1] == f"success\t\t{success}\t"
    shown = [
        f"  |{label}>  {fmt_float(re)}  {fmt_float(im)}"
        for label, (re, im) in amps.items()
        if abs(complex(re, im)) >= 1e-12
    ]
    assert len(shown) == 2  # Bell and GHZ: two nonzero amplitudes
    assert human == [
        f"input {record['input']}", *shown, "forest true", f"success probability {success}"
    ]


def test_compile_formats_agree(tmp_path):
    table, tsv, human = run_formats("compile", write_circuit(tmp_path, BELL))
    slots, truncs = table["slots"], table["truncations"]
    phase_keys = ("theta1", "theta2", "phi1", "phi2", "phi3", "phi4")
    assert tsv[0].split("\t") == ["kind", "column", "top_mode", *phase_keys, "role"]
    assert len(tsv) == 1 + len(slots) + 1 + len(truncs)
    for row, slot in zip(tsv[1:], slots):
        assert row.split("\t") == [
            "slot",
            fmt_float(slot["column"]),
            fmt_float(slot["top_mode"]),
            *(fmt_float(slot[k]) if k in slot else "" for k in phase_keys),
            slot["role"],
        ]
    assert tsv[1 + len(slots)].split("\t") == [
        "idle",
        "",
        "",
        *(fmt_float(table["idle"][k]) if k in table["idle"] else "" for k in phase_keys),
        "ID",
    ]
    for row, trunc in zip(tsv[2 + len(slots) :], truncs):
        fields = row.split("\t")
        assert fields[:2] == ["trunc", fmt_float(trunc["after_column"])]
        assert fields[-1] == "modes=" + ";".join(fmt_float(m) for m in trunc["modes"])
    assert "ID" not in {s["role"] for s in slots}
    assert len(human) == 2 + len(slots) + len(truncs)
    slot_count = sum(len(column) for column in table["columns"])
    assert numbers(human[0]) == [
        fmt_float(v)
        for v in (table["mode_count"], len(table["columns"]), table["slots_used"], slot_count)
    ]
    assert numbers(human[1]) == [fmt_float(v) for v in table["positions"] + table["flips"]]
    for line, slot in zip(human[2:], slots):
        assert f": {slot['role']} " in line
        assert numbers(line) == [
            fmt_float(v)
            for v in (slot["column"], slot["top_mode"], slot["top_mode"] + 1)
            + tuple(slot[k] for k in phase_keys if k in slot)
        ]
    for line, trunc in zip(human[2 + len(slots) :], truncs):
        assert numbers(line) == [fmt_float(v) for v in trunc["modes"] + [trunc["after_column"]]]


def test_ghz_scan_formats_agree():
    record, tsv, human = run_formats("analyze", "ghz-scan", "--max-n", "3")
    points = record["points"]
    assert [row["n"] for row in points] == [2, 3]
    expected = [[fmt_float(row[k]) for k in ("n", "probability", "expected")] for row in points]
    assert tsv[0] == "n\tprobability\texpected"
    assert [line.split("\t") for line in tsv[1:]] == expected
    # skip the digits of the formula text 9^(1-n)
    assert [numbers(line)[:2] + numbers(line)[-1:] for line in human] == expected


def test_gates_list_formats_agree():
    sections, tsv, human = run_formats("gates", "list", "--name", "CZ")
    assert sections["single_qubit"] == sections["r13_family"] == []
    (cz,) = sections["networks"]
    assert tsv == [
        "section\tname\tarity\tmode_count\tlayers\ttruncate_after",
        f"network\tCZ\t{cz['arity']}\t{cz['mode_count']}\t{len(cz['layers'])}\ttrue",
    ]
    assert cz["truncate_after"] is True
    (line,) = human
    assert line.startswith("CZ ")
    assert f"labeling {cz['labeling']}" in line
    assert numbers(line) == [fmt_float(cz["mode_count"]), fmt_float(len(cz["layers"]))]


def test_analyze_cz4x4_formats_agree():
    record, tsv, human = run_formats("analyze", "cz4x4", "--restarts", "2", "--seed", "5")
    assert tsv[0] == "name\tvalue"
    rows = dict(line.split("\t") for line in tsv[1:])
    assert list(rows) == list(record)
    for name, value in record.items():
        if isinstance(value, list):
            assert rows[name].split(";") == [fmt_float(v) for v in value]
        else:
            assert rows[name] == fmt_float(value)
    scalars = ("restarts", "best_process_fidelity", "best_success_probability",
               "constraint_residual")
    assert [numbers(line) for line in human] == [[fmt_float(record[k])] for k in scalars]


def test_gates_list_unknown_name_exits_4():
    for fmt in ("human", "json", "tsv"):
        proc = run_cli("gates", "list", "--name", "NOPE", "--format", fmt)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert "'NOPE'" in proc.stderr

"""Independent answers the benchmark checks photonmesh's outputs against.

Each ``check_*`` function takes one op's parsed JSON output and returns
``None`` when it is right or a one-line reason when it is not.  The dense
state vector and the MZI interpreter are written here from the textbook
definitions; none of them calls photonmesh to produce the expected answer.
Bitstrings missing from an ``amplitudes`` object read as zero, so a sparse
output needs no change here.
"""

from __future__ import annotations

import math

import numpy as np

_SQ = 1.0 / math.sqrt(2.0)
_FIXED = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
    "H": _SQ * np.array([[1, 1], [1, -1]], dtype=complex),
    "T": np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex),
}
_TWO = {
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}
# Beam splitter of the MZI: [[t, i r], [i r, t]] with t = r = 1/sqrt(2).
_BS = _SQ * np.array([[1, 1j], [1j, 1]], dtype=complex)
TOLERANCE = 1e-9


def gate_matrix(name: str, angle: float | None = None) -> np.ndarray:
    """RZ(d) = exp(-i d Z/2), RX(d) = exp(-i d X/2), RY(d) = exp(+i d Y/2)."""
    if name in _FIXED:
        return _FIXED[name]
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if name == "RZ":
        return np.diag([complex(c, -s), complex(c, s)])
    if name == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "RY":
        return np.array([[c, s], [-s, c]], dtype=complex)
    raise ValueError(f"unknown gate {name!r}")


def _apply(state: np.ndarray, gate: np.ndarray, qubits: list[int], n: int) -> np.ndarray:
    k = len(qubits)
    psi = np.moveaxis(state.reshape([2] * n), qubits, list(range(k)))
    psi = (gate @ psi.reshape(2**k, -1)).reshape([2] * n)
    return np.moveaxis(psi, list(range(k)), qubits).reshape(-1)


def dense_state(circuit: dict) -> np.ndarray:
    """State vector of a circuit dict run on |0...0>; qubit 0 is the high bit."""
    n = circuit["qubits"]
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for g in circuit["gates"]:
        if g["g"] in _TWO:
            qubits = [g["a"], g["b"]] if g["g"] == "SWAP" else [g["c"], g["t"]]
            state = _apply(state, _TWO[g["g"]], qubits, n)
        else:
            state = _apply(state, gate_matrix(g["g"], g.get("angle")), [g["q"]], n)
    return state


def amplitude_vector(payload: dict) -> np.ndarray:
    n = payload["qubits"]
    amps = np.zeros(2**n, dtype=complex)
    for bits, (re, im) in payload["amplitudes"].items():
        amps[int(bits, 2)] = complex(re, im)
    return amps


def _probability_problem(payload: dict, gates: int) -> str | None:
    scaled = payload["success_probability"] * 9.0**gates
    if abs(scaled - 1.0) > TOLERANCE:
        return f"success probability * 9^{gates} = {scaled!r}, expected 1"
    return None


def check_ghz(payload: dict, circuit: dict) -> str | None:
    """|0...0> and |1...1> at 1/sqrt(2) and p = 9^(1-n)."""
    n = circuit["qubits"]
    amps = amplitude_vector(payload)
    for index in (0, 2**n - 1):
        if abs(amps[index] - _SQ) > TOLERANCE:
            return f"GHZ amplitude {index:0{n}b} is {amps[index]!r}"
    return _probability_problem(payload, n - 1)


def check_forest(payload: dict, circuit: dict) -> str | None:
    """Fidelity with the dense state vector and p = 9^(-k) for k gates."""
    ref = dense_state(circuit)
    fidelity = abs(np.vdot(ref, amplitude_vector(payload))) ** 2
    if not fidelity > 1.0 - TOLERANCE:
        return f"fidelity with the dense reference is {fidelity!r}"
    gates = sum(g["g"] in ("CZ", "CNOT") for g in circuit["gates"])
    return _probability_problem(payload, gates)


def mzi(slot: dict) -> np.ndarray:
    """2x2 amplitude map of one slot: BS, inner phases, BS, input phases,
    then the optional output phases (phi3, phi4)."""
    inner = np.diag(np.exp(1j * np.array([slot["theta1"], slot["theta2"]])))
    outer = np.diag(np.exp(1j * np.array([slot["phi1"], slot["phi2"]])))
    u = _BS @ inner @ _BS @ outer
    if "phi3" in slot:
        u = np.diag(np.exp(1j * np.array([slot["phi3"], slot["phi4"]]))) @ u
    return u


def phase_table_map(table: dict) -> np.ndarray:
    """Single-photon transfer map of an emitted phase table.

    Columns act in order; a truncation mark after column ``c`` (``-1``:
    before the first) zeroes the rows of its auxiliary modes.
    """
    m = table["mode_count"]
    out = np.eye(m, dtype=complex)
    cut_after: dict[int, list[int]] = {}
    for mark in table["truncations"]:
        cut_after.setdefault(mark["after_column"], []).extend(mark["modes"])
    out[cut_after.get(-1, []), :] = 0.0
    by_column: dict[int, list[dict]] = {}
    for slot in table["slots"]:
        by_column.setdefault(slot["column"], []).append(slot)
    for col in range(len(table["columns"])):
        for slot in by_column.get(col, ()):
            top = slot["top_mode"]
            out[top : top + 2, :] = mzi(slot) @ out[top : top + 2, :]
        out[cut_after.get(col, []), :] = 0.0
    return out


def program_map(program) -> np.ndarray:
    """The same transfer map from a program's substitution matrices: each
    layer maps amplitudes by ``matrix.T``; truncation zeroes its modes."""
    out = np.eye(program.mode_count, dtype=complex)
    for step in program.steps:
        if hasattr(step, "matrix"):
            out = step.matrix.T @ out
        else:
            out[list(step.modes), :] = 0.0
    return out


def check_placement(payload: dict, program) -> str | None:
    """Phase table of ``compile`` against the unplaced program, to 1e-9."""
    gap = float(np.max(np.abs(phase_table_map(payload) - program_map(program))))
    if gap > TOLERANCE:
        return f"phase table map deviates from the program by {gap:.3e}"
    return None


def check_cz4x4(payload: dict) -> str | None:
    """No faithful, usable CZ in a bare 4-mode mesh, and a positive residual."""
    faithful = (
        payload["best_process_fidelity"] > 1 - 1e-3
        and payload["best_success_probability"] > 1e-6
    )
    if faithful:
        return "search reports a faithful CZ in 4 modes"
    if not payload["constraint_residual"] > 1e-3:
        return f"constraint residual {payload['constraint_residual']!r} <= 1e-3"
    return None

"""Shared test oracles: naive permanents, Haar unitaries, dense circuits.

The oracles are written independently of the package internals so the
tests compare two implementations, not one implementation with itself.
``random_mesh`` and ``run_layers`` only build and run block programs with
the package's own types.
"""

from __future__ import annotations

import itertools

import numpy as np

from photonmesh.fock import LinearLayer, MeshBlock, apply_linear
from photonmesh.linalg import MziSetting

_SQ = 1.0 / np.sqrt(2.0)

H = _SQ * np.array([[1, 1], [1, -1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
I2 = np.eye(2, dtype=complex)

CZ4 = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
CNOT4 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def rz(delta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * delta), np.exp(0.5j * delta)]).astype(complex)


def rx(delta: float) -> np.ndarray:
    c, s = np.cos(delta / 2.0), np.sin(delta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(delta: float) -> np.ndarray:
    # exp(+i * delta * Y / 2)
    c, s = np.cos(delta / 2.0), np.sin(delta / 2.0)
    return np.array([[c, s], [-s, c]], dtype=complex)


def single_gate_matrix(name: str, angle: float | None = None) -> np.ndarray:
    fixed = {"I": I2, "H": H, "X": X, "Y": Y, "Z": Z, "T": T}
    if name in fixed:
        return fixed[name]
    return {"RZ": rz, "RX": rx, "RY": ry}[name](angle)


def naive_permanent(m: np.ndarray) -> complex:
    """Permanent by the Leibniz sum; factorial cost, fine for n <= 7."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= m[i, j]
        total += prod
    return total


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase convention fixed."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def apply_gate(state: np.ndarray, gate: np.ndarray, qubits, n: int) -> np.ndarray:
    """Apply a k-qubit gate on the given qubit axes (qubit 0 = MSB)."""
    k = len(qubits)
    tensor = state.reshape([2] * n)
    g = gate.reshape([2] * (2 * k))
    tensor = np.tensordot(g, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(tensor, range(k), qubits).reshape(-1)


def dense_circuit_state(circuit, bits: str) -> np.ndarray:
    """Run a parsed circuit on a basis input with plain matrix algebra."""
    n = circuit.qubit_count
    state = np.zeros(2**n, dtype=complex)
    state[int(bits, 2)] = 1.0
    for op in circuit.gates:
        if op.name in ("CZ", "CNOT", "SWAP"):
            gate = {"CZ": CZ4, "CNOT": CNOT4, "SWAP": SWAP4}[op.name]
            state = apply_gate(state, gate, op.qubits, n)
        else:
            state = apply_gate(
                state, single_gate_matrix(op.name, op.angle), op.qubits, n
            )
    return state


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for normalized state vectors; insensitive to global phase."""
    return float(abs(np.vdot(a, b)) ** 2)


def random_setting(rng: np.random.Generator, extended: bool) -> MziSetting:
    """MZI phases uniform in [0, 2 pi); ``extended`` adds output phases."""
    phases = rng.uniform(0.0, 2.0 * np.pi, size=6)
    if extended:
        return MziSetting(*phases)
    return MziSetting(*phases[:4])


def random_mesh(m: int, rng: np.random.Generator) -> tuple[tuple[MeshBlock, ...], ...]:
    """Clements mesh on ``m`` modes: ``m`` columns of blocks at alternating
    even and odd top modes, each with a random plain or extended setting."""
    return tuple(
        tuple(
            MeshBlock(top, random_setting(rng, bool(rng.integers(2))), "U")
            for top in range(c % 2, m - 1, 2)
        )
        for c in range(m)
    )


def run_layers(state, layers):
    """Apply block layers to a Fock state, earliest layer first."""
    for blocks in layers:
        state = apply_linear(state, LinearLayer(state.mode_count, tuple(blocks)))
    return state

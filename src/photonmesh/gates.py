"""Gate library for path-encoded qubits on MZI meshes.

Single-qubit gates act on one rail pair and need a single MZI.  Two-qubit
entangling gates are post-selected: the CZ network couples the two rail
pairs and two auxiliary modes through 1/3-reflectivity devices, succeeds
with probability exactly one ninth, and requires the auxiliary modes to be
truncated afterwards.

Every multi-mode gate is described by a :class:`GateDescriptor` holding
both its substitution matrix (see :mod:`photonmesh.fock` for the
convention) and a layered decomposition into 2x2 MZI blocks; the two are
validated against each other at construction time.

Two mode labelings appear for two-qubit gates:

* ``nonregular``: modes ``(aux0, r00, r01, r10, r11, aux1)`` - both rails
  adjacent in the middle, auxiliaries outermost.  The CZ couplings are a
  single layer of three devices here.
* ``regular``: modes ``(aux0, r00, r01, aux1, r10, r11)`` - one aux + two
  rails per qubit, the layout that tiles to n qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import LinearLayer, MeshBlock
from .linalg import (
    MziSetting,
    embed_block,
    setting_unitary,
    solve_mzi_settings,
)
from . import fock

# Reflection/transmission family with |r|^2 = 1/3; the building blocks of
# the post-selected CZ.
R13 = np.array(
    [[-1.0, np.sqrt(2.0)], [-np.sqrt(2.0), -1.0]], dtype=complex
) / np.sqrt(3.0)
R13_PRIME = np.array(
    [[-1.0, np.sqrt(2.0)], [np.sqrt(2.0), 1.0]], dtype=complex
) / np.sqrt(3.0)
R13_DAGGER = R13.T.copy()

_SQ = 1.0 / np.sqrt(2.0)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_FIXED_GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": PAULI_X,
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
}

# Canonical relative phases (theta1 - theta2, phi1 - phi2) realizing the
# fixed gates up to a global phase, with theta2 = phi2 = 0.
_FIXED_SETTINGS: dict[str, tuple[float, float]] = {
    "I": (np.pi, np.pi),
    "X": (0.0, 0.0),
    "Y": (0.0, np.pi),
    "Z": (np.pi, 0.0),
    "H": (np.pi / 2.0, 0.0),
    "T": (np.pi, 3.0 * np.pi / 4.0),
}

SUCCESS_CZ = 1.0 / 9.0


# Entries of a 2x2 matrix as nested Python tuples, rows first.
Entries = tuple[tuple[complex, complex], tuple[complex, complex]]

# Zeros are stored as +0.0: Y's literal ``-1j`` has a real part of -0.0, and
# the sign of a zero can pick between +pi and -pi in a solved phase.
_FIXED_ENTRIES: dict[str, Entries] = {
    name: tuple(
        tuple(complex(z.real + 0.0, z.imag + 0.0) for z in row) for row in g.tolist()
    )
    for name, g in _FIXED_GATES.items()
}


def single_qubit_entries(gate: str, angle: float | None = None) -> Entries:
    """Entries of the textbook 2x2 matrix of a named gate, in Python scalars.

    Rotation conventions: ``RZ(d) = exp(-i d Z / 2)``,
    ``RX(d) = exp(-i d X / 2)``, ``RY(d) = exp(+i d Y / 2)`` (the y-axis
    sign follows the MZI recipe used by :func:`single_qubit_setting`).
    """
    name = gate.upper()
    if name in _FIXED_ENTRIES:
        if angle is not None:
            raise ValueError(f"{name} takes no angle")
        return _FIXED_ENTRIES[name]
    if name in ("RZ", "RX", "RY"):
        if angle is None:
            raise ValueError(f"{name} needs an angle")
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        if name == "RZ":
            return ((complex(c, -s), 0j), (0j, complex(c, s)))
        if name == "RX":
            return ((complex(c), -1j * s), (-1j * s, complex(c)))
        return ((complex(c), complex(s)), (complex(-s), complex(c)))
    raise ValueError(f"unknown single-qubit gate {gate!r}")


def single_qubit_matrix(gate: str, angle: float | None = None) -> np.ndarray:
    """Textbook 2x2 matrix of a named gate: :func:`single_qubit_entries`
    as an array."""
    return np.array(single_qubit_entries(gate, angle), dtype=complex)


def single_qubit_setting(gate: str, angle: float | None = None) -> MziSetting:
    """Canonical MZI phases for a named gate, ``theta2 = phi2 = 0``.

    The plain MZI realizes the gate up to a global phase.  ``RX`` and
    ``RY`` need the extended MZI (output phases ``phi3``/``phi4``); all
    other gates fit the plain four-phase form.
    """
    name = gate.upper()
    if name in _FIXED_SETTINGS:
        if angle is not None:
            raise ValueError(f"{name} takes no angle")
        dtheta, dphi = _FIXED_SETTINGS[name]
        return MziSetting(dtheta, 0.0, dphi, 0.0)
    if name == "RZ":
        if angle is None:
            raise ValueError("RZ needs an angle")
        return MziSetting(np.pi, 0.0, np.pi - angle, 0.0)
    if name == "RX":
        if angle is None:
            raise ValueError("RX needs an angle")
        return MziSetting(
            np.pi - angle, 0.0, np.pi / 2.0, 0.0, phi3=np.pi / 2.0, phi4=0.0
        )
    if name == "RY":
        if angle is None:
            raise ValueError("RY needs an angle")
        return MziSetting(np.pi - angle, 0.0, 0.0, 0.0, phi3=np.pi, phi4=0.0)
    raise ValueError(f"unknown single-qubit gate {gate!r}")


def r13_matrices() -> tuple[tuple[np.ndarray, MziSetting], ...]:
    """The 1/3-family matrices with MZI settings realizing them mod phase.

    Returns ``((R13, s), (R13', s'), (R13^dag, s^dag))``.  All three sit at
    ``theta1 - theta2 = +-2*arcsin(1/sqrt(3))`` with ``phi1 - phi2`` either
    0 or pi.
    """
    a = np.arcsin(1.0 / np.sqrt(3.0))
    return (
        (R13.copy(), MziSetting(2.0 * a, 0.0, np.pi, 0.0)),
        (R13_PRIME.copy(), MziSetting(-2.0 * a, 0.0, 0.0, 0.0)),
        (R13_DAGGER.copy(), MziSetting(-2.0 * a, 0.0, np.pi, 0.0)),
    )


@dataclass(frozen=True)
class GateDescriptor:
    """A gate network: substitution matrix plus its MZI-layer realization.

    ``matrix`` follows the creation-operator substitution convention of
    :mod:`photonmesh.fock` (for a single-qubit gate ``G`` this is ``G^T``;
    the device programmed into the MZI is ``G`` itself).  ``mzi_layers``
    lists parallel blocks per layer, earliest layer first; the product of
    the embedded block substitutions reproduces ``matrix`` exactly.
    ``truncate_after`` marks post-selected gates whose auxiliary modes
    must be truncated after the network.
    """

    name: str
    arity: int
    matrix: np.ndarray
    native_labeling: str
    mzi_layers: tuple[tuple[MeshBlock, ...], ...]
    truncate_after: bool = False

    @property
    def mode_count(self) -> int:
        return self.matrix.shape[0]

    @property
    def blocks(self) -> tuple[MeshBlock, ...]:
        """The blocks of ``mzi_layers`` as one tuple in application order:
        layer by layer, each layer's blocks in its own order."""
        return tuple(blk for layer in self.mzi_layers for blk in layer)


def layer_matrix(
    layer: tuple[MeshBlock, ...], mode_count: int, offset: int = 0
) -> np.ndarray:
    """Dense substitution matrix of a block sequence, applied in order, each
    block on modes ``(top_mode + offset, top_mode + offset + 1)`` (see
    :class:`~photonmesh.fock.LinearLayer`); the one builder of dense block
    matrices, which programs do not store.  A layered network is the
    sequence of its :attr:`GateDescriptor.blocks`."""
    out = np.eye(mode_count, dtype=complex)
    for blk in layer:
        device = setting_unitary(blk.setting)
        out = out @ embed_block(device.T, blk.top_mode + offset + 1, mode_count)
    return out


def layers_to_steps(
    blocks: tuple[MeshBlock, ...],
    mode_count: int,
    offset: int = 0,
    label: str = "",
) -> LinearLayer:
    """One program step of a whole gate network on a wider mode space.

    ``blocks`` is the network as one tuple in application order (see
    :attr:`GateDescriptor.blocks`); the step holds that tuple itself at
    ``offset``, so its blocks act on ``top_mode + offset``.  No block is
    rebuilt: every emission of a network the compiler caches shares that
    network's one tuple.  This is the compiler's one emission call.
    """
    return tuple.__new__(LinearLayer, (mode_count, blocks, label, offset))


def device_block(top: int, device, role: str) -> MeshBlock:
    """A block at ``top`` programmed to ``device``, a 2x2 array or nested
    2x2 sequence (see :func:`solve_mzi_settings`)."""
    return MeshBlock(top, solve_mzi_settings(device), role)


def _descriptor(
    name: str,
    arity: int,
    matrix: np.ndarray,
    labeling: str,
    layers: tuple[tuple[MeshBlock, ...], ...],
    truncate_after: bool = False,
) -> GateDescriptor:
    desc = GateDescriptor(
        name=name,
        arity=arity,
        matrix=np.asarray(matrix, dtype=complex),
        native_labeling=labeling,
        mzi_layers=layers,
        truncate_after=truncate_after,
    )
    built = layer_matrix(desc.blocks, desc.mode_count)
    deviation = float(np.max(np.abs(built - desc.matrix)))
    if deviation > 1e-9:
        raise ValueError(
            f"{name}: block decomposition deviates from matrix by {deviation:.3e}"
        )
    return desc


def cz_ps_nonregular() -> GateDescriptor:
    """Post-selected CZ on modes ``(aux0, r00, r01, r10, r11, aux1)``.

    A single layer of three 1/3-family devices.  Conditioned on the qubit
    structure surviving, the map is ``diag(1, 1, 1, -1)`` scaled by
    ``-1/3``, so each computational input succeeds with probability 1/9.
    """
    matrix = np.zeros((6, 6), dtype=complex)
    matrix[0:2, 0:2] = R13_PRIME
    matrix[2:4, 2:4] = R13_DAGGER
    matrix[4:6, 4:6] = R13_DAGGER
    layers = (
        (
            device_block(0, R13_PRIME, "R13p"),
            device_block(2, R13, "R13"),
            device_block(4, R13, "R13"),
        ),
    )
    return _descriptor("CZBAR", 2, matrix, "nonregular", layers, truncate_after=True)


def cz_ps_regular() -> GateDescriptor:
    """Post-selected CZ on modes ``(aux0, r00, r01, aux1, r10, r11)``.

    Same conditional action as :func:`cz_ps_nonregular` but in the
    per-qubit triplet layout.  The compressed realization is a swap of the
    two middle modes, one layer of three 1/3-family devices, and the swap
    again - three layers in total.
    """
    s2 = np.sqrt(2.0)
    matrix = np.array(
        [
            [-1, s2, 0, 0, 0, 0],
            [s2, 1, 0, 0, 0, 0],
            [0, 0, -1, 0, -s2, 0],
            [0, 0, 0, -1, 0, s2],
            [0, 0, s2, 0, -1, 0],
            [0, 0, 0, -s2, 0, -1],
        ],
        dtype=complex,
    ) / np.sqrt(3.0)
    layers = (
        (device_block(3, PAULI_X, "X"),),
        (
            device_block(0, R13_PRIME, "R13p"),
            device_block(2, R13, "R13"),
            device_block(4, R13_DAGGER, "R13d"),
        ),
        (device_block(3, PAULI_X, "X"),),
    )
    return _descriptor("CZ", 2, matrix, "regular", layers, truncate_after=True)


def cnot_ps(labeling: str = "regular") -> GateDescriptor:
    """Post-selected CNOT: Hadamards on the target rails around the CZ.

    The control is the first qubit of the labeling, the target the second.
    Success probability is 1/9, as for the CZ.
    """
    h = _FIXED_GATES["H"]
    if labeling == "regular":
        cz = cz_ps_regular()
        h_top = 4
    elif labeling == "nonregular":
        cz = cz_ps_nonregular()
        h_top = 3
    else:
        raise ValueError(f"unknown labeling {labeling!r}")
    h_embedded = embed_block(h, h_top + 1, 6)
    matrix = h_embedded @ cz.matrix @ h_embedded
    layers = (
        ((device_block(h_top, h, "H"),),)
        + cz.mzi_layers
        + ((device_block(h_top, h, "H"),),)
    )
    name = "CNOT" if labeling == "regular" else "CNOT_NONREG"
    return _descriptor(name, 2, matrix, labeling, layers, truncate_after=True)


def _x_layer(tops: tuple[int, ...]) -> tuple[MeshBlock, ...]:
    return tuple(device_block(t, PAULI_X, "X") for t in tops)


def _permutation_matrix(images: tuple[int, ...]) -> np.ndarray:
    out = np.zeros((len(images), len(images)), dtype=complex)
    for j, k in enumerate(images):
        out[j, k] = 1.0
    return out


def swap_networks() -> dict[str, GateDescriptor]:
    """Waveguide-swap networks built from crossing (Pauli-X) blocks.

    ============  =====  ========================================
    name          modes  action (mode j -> mode sigma(j))
    ============  =====  ========================================
    ``X``         2      cross one adjacent pair
    ``SWAP2P``    4      two rail pairs, no aux: 0<->2, 1<->3
    ``SWAP1A``    3      cycle aux through a triplet: (0 1 2)
    ``SWAP2``     6      adjacent qubit swap keeping each aux in
                         place: 1<->5, 2<->4; swapped qubits come
                         out rail-flipped
    ``SWAP2A``    6      adjacent triplet block swap: j -> j+3 mod 6
    ============  =====  ========================================

    ``SWAP2`` trades depth for a rail flip: restricted to the four rail
    modes it equals ``SWAP2A`` composed with a crossing on each rail pair.
    """
    out: dict[str, GateDescriptor] = {}
    out["X"] = _descriptor(
        "X", 1, PAULI_X.copy(), "regular", ((device_block(0, PAULI_X, "X"),),)
    )
    out["SWAP2P"] = _descriptor(
        "SWAP2P",
        2,
        _permutation_matrix((2, 3, 0, 1)),
        "nonregular",
        (_x_layer((1,)), _x_layer((0, 2)), _x_layer((1,))),
    )
    out["SWAP1A"] = _descriptor(
        "SWAP1A",
        1,
        _permutation_matrix((1, 2, 0)),
        "nonregular",
        (_x_layer((1,)), _x_layer((0,))),
    )
    out["SWAP2"] = _descriptor(
        "SWAP2",
        2,
        _permutation_matrix((0, 5, 4, 3, 2, 1)),
        "regular",
        (
            _x_layer((2, 4)),
            _x_layer((1, 3)),
            _x_layer((2, 4)),
            _x_layer((1, 3)),
            _x_layer((2, 4)),
        ),
    )
    out["SWAP2A"] = _descriptor(
        "SWAP2A",
        2,
        _permutation_matrix((3, 4, 5, 0, 1, 2)),
        "regular",
        (
            _x_layer((0, 2, 4)),
            _x_layer((1, 3)),
            _x_layer((0, 2, 4)),
            _x_layer((1, 3)),
            _x_layer((2,)),
            _x_layer((1, 3)),
        ),
    )
    return out


def gate_library() -> dict[str, GateDescriptor]:
    """All named multi-mode networks: CZ forms, CNOTs, swap networks."""
    lib = {
        "CZBAR": cz_ps_nonregular(),
        "CZ": cz_ps_regular(),
        "CNOT": cnot_ps("regular"),
        "CNOT_NONREG": cnot_ps("nonregular"),
    }
    lib.update(swap_networks())
    return lib


def _rail_modes(labeling: str) -> tuple[tuple[int, int], tuple[int, int]]:
    if labeling == "regular":
        return (1, 2), (4, 5)
    if labeling == "nonregular":
        return (1, 2), (3, 4)
    raise ValueError(f"unknown labeling {labeling!r}")


def conditional_qubit_map(
    descriptor: GateDescriptor,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-photon conditional map of a 6-mode two-qubit network.

    Returns ``(m, probs)`` where ``m[k, j]`` is the amplitude from
    computational input ``j`` to output ``k`` (both indexed 00, 01, 10, 11
    with the first qubit as the high bit) conditioned on the qubit
    structure surviving, and ``probs[j]`` is the success probability of
    input ``j``.  ``m`` is not normalized: its column norms squared are
    ``probs``.
    """
    if descriptor.mode_count != 6 or descriptor.arity != 2:
        raise ValueError("conditional map needs a 6-mode two-qubit network")
    rails0, rails1 = _rail_modes(descriptor.native_labeling)

    def occupation(j: int) -> tuple[int, ...]:
        occ = [0] * 6
        occ[rails0[(j >> 1) & 1]] = 1
        occ[rails1[j & 1]] = 1
        return tuple(occ)

    m = np.zeros((4, 4), dtype=complex)
    for j in range(4):
        for k in range(4):
            m[k, j] = fock.amplitude_via_permanent(
                descriptor.matrix, occupation(j), occupation(k)
            )
    probs = np.sum(np.abs(m) ** 2, axis=0)
    return m, probs

"""Shared test oracles: naive permanents, Haar unitaries, dense circuits.

The oracles are written independently of the package internals so the
tests compare two implementations, not one implementation with itself.
``random_mesh`` and ``run_layers`` only build and run block programs with
the package's own types.  ``flat_program`` rebuilds a program's layers
with their own blocks at absolute modes, the oracle for layers that share
blocks at an offset.  ``per_layer_program`` cuts each gate-network step
into one step per mesh layer, the oracle for one step per network.
``reference_light_cone`` is the full-partition light cone that
:func:`photonmesh.fock.light_cone`'s checks must agree with, over the
slots of the fold's frame, which it walks itself; ``reference_frames``
gives that frame after each step and ``logical_checks`` reads slot checks
on the logical modes of a state materialized there.  It and
``split_partition`` write a partition as the checks of all its blocks,
``(modes, count)`` in the order of each block's first mode, the form
:func:`photonmesh.fock.qubit_structure` returns.  ``keep_checked`` is the
filter by such checks that the projection, the truncation and the fold's
light-cone checks must reproduce.
``fused_fold_problems`` holds the certified fold
(:func:`photonmesh.fock.run_certified`), which applies each post-selected
gate as one rule on one bit per photon, to the unfused fold's decoded
result.
``reference_mzi_unitary`` is the product form of one MZI, built from the
balanced beam splitter ``BS``, that the scalar device entries of
:mod:`photonmesh.linalg` must reproduce.
``reference_mesh_unitary`` is the dense 4-mode mesh product that
:mod:`photonmesh.analysis` must reproduce, and
``reference_constraint_residual`` the full-length ternary search over
stacked Gram matrices that its closed-form residual must agree with.
``reference_mesh_columns`` and ``reference_place_in_mesh`` are the stored
column grid and the column-by-column placement scan that the compiler's
mesh arithmetic must reproduce.  ``brickwork`` draws seeded circuits to
compile and place.
"""

from __future__ import annotations

import itertools

import numpy as np

from photonmesh.fock import (
    Check,
    LinearLayer,
    MeshBlock,
    NetworkProgram,
    PhotonicState,
    PostSelectionResult,
    TruncateAux,
    apply_linear,
    decode_logical,
    prepare_computational_basis,
    project_qubit_structure,
    qubit_structure,
    run_certified,
    run_program,
)
from photonmesh.analysis import constrained_family
from photonmesh.compiler import PlacedBlock, PlacementOverflow, TruncationMark
from photonmesh.linalg import MziSetting, setting_unitary

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


def numpy_blas_name() -> str:
    """Name of the BLAS numpy is built on, or "" if numpy does not say."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 prints its config only
        return ""
    return config["Build Dependencies"]["blas"].get("name", "")


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


def flat_program(program: NetworkProgram) -> NetworkProgram:
    """``program`` with every layer's blocks rebuilt at their absolute modes,
    ``MeshBlock(top_mode + offset, ...)`` with ``offset=0``: each layer owns
    its blocks and shares none with the compiler's cached networks."""
    return NetworkProgram(
        program.mode_count,
        tuple(
            LinearLayer(
                step.mode_count,
                tuple(
                    MeshBlock(blk.top_mode + step.offset, blk.setting, blk.role)
                    for blk in step.blocks
                ),
                step.label,
            )
            if isinstance(step, LinearLayer)
            else step
            for step in program.steps
        ),
    )


def mesh_layers(blocks: tuple[MeshBlock, ...]) -> list[tuple[MeshBlock, ...]]:
    """A network's block tuple cut into its mesh layers: a layer ends before
    the first block that shares a mode with it or has a lower top mode than
    its last block, so every layer's blocks are disjoint and ascending."""
    layers, layer, used = [], [], set()
    for blk in blocks:
        modes = {blk.top_mode, blk.top_mode + 1}
        if layer and (modes & used or blk.top_mode < layer[-1].top_mode):
            layers.append(tuple(layer))
            layer, used = [], set()
        layer.append(blk)
        used |= modes
    if layer:
        layers.append(tuple(layer))
    return layers


def per_layer_program(program: NetworkProgram) -> NetworkProgram:
    """``program`` with every linear step cut into one step per mesh layer
    (:func:`mesh_layers`), each with the step's label and offset: the
    one-step-per-layer form of a compiled program."""
    steps = []
    for step in program.steps:
        if not isinstance(step, LinearLayer):
            steps.append(step)
            continue
        for layer in mesh_layers(step.blocks):
            steps.append(LinearLayer(step.mode_count, layer, step.label, step.offset))
    return NetworkProgram(program.mode_count, tuple(steps))


# The fused rule's rounding contract against the unfused fold: decoded
# amplitudes within an absolute bound, and the success probability within
# a relative bound per post-selected gate, since each gate rounds its
# factor of 1/9 anew in either fold.
FUSED_AMPLITUDE_TOL = 1e-15
FUSED_PROBABILITY_RTOL_PER_GATE = 1e-15


def fused_fold_problems(result, bits: str, unfused: PhotonicState | None = None) -> list[str]:
    """How the certified fold of a compiled circuit ``result``
    (``run_certified``) on input ``bits`` departs from the unfused fold,
    ``unfused``, a projected state; by default ``run_program`` of the same
    program, then ``project_qubit_structure``.  The contract: the unfused
    basis indices in the unfused order; decoded amplitudes within
    :data:`FUSED_AMPLITUDE_TOL` and the success probability within
    :data:`FUSED_PROBABILITY_RTOL_PER_GATE` relative times the number of
    post-selected gates.  Returns the broken clauses."""
    if unfused is None:
        state = prepare_computational_basis(bits, len(result.positions))
        unfused = project_qubit_structure(run_program(result.program, state)).projected_state
    got, p = run_certified(result.program, bits, result.positions, result.flips)
    want, q = decode_logical(
        PostSelectionResult(unfused, unfused.squared_norm()), result.positions, result.flips
    )
    if list(got) != list(want):
        return ["basis indices or their order differ"]
    problems = []
    worst = max(abs(got[i] - want[i]) for i in want)
    if worst > FUSED_AMPLITUDE_TOL:
        problems.append(f"a decoded amplitude is off by {worst:.2e}")
    gates = sum(isinstance(step, TruncateAux) for step in result.program.steps)
    if abs(p - q) > FUSED_PROBABILITY_RTOL_PER_GATE * gates * q:
        problems.append(f"the success probability is off by {abs(p - q) / q:.2e} relative")
    return problems


def split_partition(
    partition: tuple[Check, ...], modes: tuple[int, ...], count: int
) -> tuple[Check, ...]:
    """``partition``, as checks, with ``modes``, which lie in one block,
    split out as a new block that must hold ``count``; the rest of their
    block, if any, must then hold ``count`` fewer."""
    split = []
    for block, required in partition:
        if modes[0] in block:
            rest = tuple(mode for mode in block if mode not in modes)
            if rest:
                split.append((rest, required - count))
            split.append((tuple(modes), count))
        else:
            split.append((block, required))
    return tuple(sorted(split))


def _reference_walk(program: NetworkProgram):
    """The fold's frame, walked block by block: per program step, the slot
    pairs its mixing blocks act on and the frame after it, ``pos[mode]``
    the slot holding logical mode ``mode``.  A block whose device diagonal
    is at most 1e-14 is a crossing and swaps its two modes' slots; one
    whose off-diagonal is at most 1e-14 is a pure phase and moves nothing;
    any other mixes its two slots."""
    pos = list(range(program.mode_count))
    walk = []
    for step in program.steps:
        pairs = []
        if isinstance(step, LinearLayer):
            for blk in step.blocks:
                a = blk.top_mode + step.offset
                u = np.abs(setting_unitary(blk.setting))
                if u[0, 0] <= 1e-14 and u[1, 1] <= 1e-14:
                    pos[a], pos[a + 1] = pos[a + 1], pos[a]
                elif u[0, 1] > 1e-14 or u[1, 0] > 1e-14:
                    pairs.append((pos[a], pos[a + 1]))
        walk.append((pairs, tuple(pos)))
    return walk


def reference_frames(program: NetworkProgram) -> list[tuple[int, ...]]:
    """The fold's frame after each program step: ``pos[mode]`` is the slot
    that holds logical mode ``mode``."""
    return [pos for _, pos in _reference_walk(program)]


def logical_checks(checks, pos: tuple[int, ...]) -> tuple[Check, ...]:
    """Slot ``checks`` as checks on the logical modes that the frame ``pos``
    puts in those slots, the modes of a state materialized at that step."""
    mode_of = {slot: mode for mode, slot in enumerate(pos)}
    return tuple((tuple(sorted(mode_of[s] for s in slots)), count) for slots, count in checks)


def reference_light_cone(
    program: NetworkProgram, forest: bool = False
) -> tuple[tuple[Check, ...] | None, ...]:
    """The full partition of the fold's slots in force after each program
    step, as the checks of all its blocks, or ``None`` after a step where
    restricting by it can drop no term: the reference for
    :func:`photonmesh.fock.light_cone`'s checks.

    A backward union-find pass over slots, from the checks of
    :func:`qubit_structure`, for the program's ``mode_count // 3`` qubits,
    at the final frame's slots, that joins the two slots of every mixing
    block of a layer (see ``_reference_walk``) and builds the whole
    partition again after every layer that joins blocks.
    The entry is given after step 0, after every joining layer and, with
    ``forest``, after every truncation, with the slots of each truncated
    aux mode's rail pair split out as a block that must hold one photon:
    the terms the certified fold keeps after each post-selected gate's
    rule, and at the end of a compiled program.  ``logical_checks`` reads
    an entry on a state materialized at its step.
    """
    m = program.mode_count
    walk = _reference_walk(program)
    final = walk[-1][1] if walk else tuple(range(m))
    parent, required = list(range(m)), [0] * m
    for modes, count in qubit_structure(m // 3):
        slots = sorted(final[mode] for mode in modes)
        required[slots[0]] = count
        for slot in slots:
            parent[slot] = slots[0]

    def root(slot: int) -> int:
        while parent[slot] != slot:
            parent[slot] = parent[parent[slot]]
            slot = parent[slot]
        return slot

    def snapshot() -> tuple[Check, ...]:
        blocks: dict[int, list[int]] = {}
        for slot in range(m):
            blocks.setdefault(root(slot), []).append(slot)
        return tuple((tuple(slots), required[r]) for r, slots in blocks.items())

    current = snapshot()
    after: list[tuple[Check, ...] | None] = []
    for i in reversed(range(len(program.steps))):
        step, (pairs, pos), entry, drops = program.steps[i], walk[i], current, i == 0
        if forest and isinstance(step, TruncateAux):
            for aux in step.modes:
                entry = split_partition(entry, tuple(sorted((pos[aux + 1], pos[aux + 2]))), 1)
            drops = True
        merged = False
        for top, bottom in pairs:
            rj, rk = root(top), root(bottom)
            if rj != rk:
                parent[rk] = rj
                required[rj] += required[rk]
                merged = True
        if merged:
            current = snapshot()
            drops = True
        after.append(entry if drops else None)
    return tuple(reversed(after))


def keep_checked(state: PhotonicState, checks) -> PhotonicState:
    """The terms of ``state`` that hold exactly ``count`` photons in
    ``modes`` for every ``(modes, count)`` in ``checks``, in order."""
    kept = {
        occ: amp
        for occ, amp in state.terms.items()
        if all(sum(occ[mode] for mode in modes) == count for modes, count in checks)
    }
    return PhotonicState(state.mode_count, kept)


# The balanced (50:50) beam splitter.
BS = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)


def reference_mzi_unitary(setting: MziSetting) -> np.ndarray:
    """The device unitary of ``setting`` as the product of its parts,
    ``BS . PS(theta1, theta2) . BS . PS(phi1, phi2)`` with the balanced
    ``BS``, and ``PS(phi3, phi4)`` in front for an extended setting (a
    missing ``phi4`` reads as 0)."""

    def ps(a: float, b: float) -> np.ndarray:
        return np.diag([np.exp(1j * a), np.exp(1j * b)])

    u = BS @ ps(setting.theta1, setting.theta2) @ BS @ ps(setting.phi1, setting.phi2)
    if setting.is_extended:
        u = ps(setting.phi3, 0.0 if setting.phi4 is None else setting.phi4) @ u
    return u


def reference_mesh_unitary(params, tops) -> np.ndarray:
    """4x4 unitary of a rectangular mesh: plain MZI ``i`` at
    ``(theta, phi) = (params[2i], params[2i + 1])`` on modes
    ``(tops[i], tops[i] + 1)``, applied in order from the identity, then an
    output phase ``params[len(tops) * 2 + k]`` on mode ``k``."""
    u = np.eye(4, dtype=complex)
    for i, top in enumerate(tops):
        full = np.eye(4, dtype=complex)
        full[top : top + 2, top : top + 2] = reference_mzi_unitary(
            MziSetting(params[2 * i], 0.0, params[2 * i + 1], 0.0)
        )
        u = full @ u
    return np.diag(np.exp(1j * np.asarray(params[2 * len(tops) :]))) @ u


def reference_constraint_residual(gamma11, gamma23, c) -> float | np.ndarray:
    """``min over s > 0`` of ``max |s^2 M^dag M - I|`` for the constrained
    family, by a ternary search that always runs all 300 steps."""
    args = np.broadcast_arrays(
        *(np.asarray(x, dtype=complex) for x in (gamma11, gamma23, c))
    )
    m = np.array([constrained_family(*p) for p in zip(*(a.ravel() for a in args))])
    gram = np.matmul(m.conj().swapaxes(1, 2), m).reshape(-1, 16)
    eye = np.eye(4).ravel()

    def deviation(s2):
        return np.abs(s2[:, None] * gram - eye).max(axis=1)

    lo, hi = np.full(len(m), 1e-9), np.full(len(m), 1e9)
    for _ in range(300):
        a = lo + (hi - lo) / 3.0
        b = hi - (hi - lo) / 3.0
        left = deviation(a) <= deviation(b)
        lo, hi = np.where(left, lo, a), np.where(left, b, hi)
    out = deviation(0.5 * (lo + hi)).reshape(args[0].shape)
    return float(out) if out.ndim == 0 else out


def reference_clements_columns(mode_count: int) -> tuple[tuple[int, ...], ...]:
    """Rectangular mesh: ``m`` columns alternating even/odd block tops."""
    cols = []
    for c in range(mode_count):
        start = 0 if c % 2 == 0 else 1
        cols.append(tuple(range(start, mode_count - 1, 2)))
    return tuple(cols)


def reference_reck_columns(mode_count: int) -> tuple[tuple[int, ...], ...]:
    """Triangular mesh: ``2m - 3`` columns growing toward the middle."""
    m = mode_count
    cols = []
    for c in range(1, 2 * m - 2):
        low = m - 1 - c if c <= m - 1 else c - m + 1
        cols.append(tuple(range(low, m - 1, 2)))
    return tuple(cols)


def reference_mesh_columns(scheme: str, mode_count: int) -> tuple[tuple[int, ...], ...]:
    builders = {"clements": reference_clements_columns, "reck": reference_reck_columns}
    return builders[scheme](mode_count)


def reference_place_in_mesh(program: NetworkProgram, scheme: str):
    """``(placements, truncations)`` of the greedy earliest-column placement
    of every step's blocks in the order the step holds them, scanning the
    stored column grid of the program's modes one column at a time; raises
    :class:`PlacementOverflow` with the compiler's message, also for a
    block or truncation with a mode off either edge of the mesh, and
    ``ValueError`` with the compiler's message for a truncation of no
    modes."""
    mode_count = program.mode_count
    columns = reference_mesh_columns(scheme, mode_count)
    col_sets = [frozenset(c) for c in columns]
    free = [0] * mode_count
    placements, truncations = [], []
    for i, step in enumerate(program.steps):
        if isinstance(step, TruncateAux):
            if not step.modes:
                raise ValueError(
                    f"step {i} truncates no modes, which marks nothing on the "
                    f"{scheme} mesh on {mode_count} modes"
                )
            if any(m < 0 or m >= mode_count for m in step.modes):
                raise PlacementOverflow(
                    f"truncation at modes ({', '.join(str(m) for m in step.modes)}) "
                    f"does not fit the {scheme} mesh on {mode_count} modes"
                )
            after = max(free[m] for m in step.modes) - 1
            truncations.append(TruncationMark(after, tuple(step.modes)))
            for m in step.modes:
                free[m] = max(free[m], after + 1)
            continue
        for blk in step.blocks:
            lo = blk.top_mode + step.offset
            hi = lo + 1
            # a block off either edge of the mesh has no slot in any column
            off_mesh = lo < 0 or hi >= mode_count
            col = len(columns) if off_mesh else max(free[lo], free[hi])
            while col < len(columns) and lo not in col_sets[col]:
                col += 1
            if col >= len(columns):
                raise PlacementOverflow(
                    f"block at modes ({lo}, {hi})"
                    + (f" [{step.label}]" if step.label else "")
                    + f" does not fit the {scheme} mesh on {mode_count} modes"
                )
            placements.append(PlacedBlock(col, lo, blk.setting, blk.role))
            free[lo] = free[hi] = col + 1
    return tuple(placements), tuple(truncations)


def brickwork(rng: np.random.Generator, n: int, rounds: int = 3) -> dict:
    """Seeded brickwork: each round puts a single-qubit gate on every
    qubit, then CZ, CNOT, SWAP or nothing on each qubit pair of an
    alternating offset.  One routed CZ on qubits two apart closes it.
    A CZ or CNOT on a pair that already had one becomes a SWAP, so the
    circuit compiles without a cascade error."""
    singles = ("I", "X", "Y", "Z", "H", "T", "RZ", "RX", "RY")
    coupled, gates = set(), []
    for rnd in range(rounds):
        for q in range(n):
            gate = {"g": singles[int(rng.integers(len(singles)))], "q": q}
            if gate["g"] in ("RZ", "RX", "RY"):
                gate["angle"] = float(rng.uniform(-np.pi, np.pi))
            gates.append(gate)
        for a in range(rnd % 2, n - 1, 2):
            kind = ("CZ", "CNOT", "SWAP", None)[int(rng.integers(4))]
            if kind in ("CZ", "CNOT") and (a, a + 1) in coupled:
                kind = "SWAP"
            if kind == "SWAP":
                gates.append({"g": "SWAP", "a": a, "b": a + 1})
            elif kind is not None:
                coupled.add((a, a + 1))
                c, t = (a, a + 1) if rng.integers(2) else (a + 1, a)
                gates.append({"g": kind, "c": c, "t": t})
    a = int(rng.integers(n - 2))
    gates.append({"g": "CZ", "c": a, "t": a + 2})
    return {"qubits": n, "gates": gates}

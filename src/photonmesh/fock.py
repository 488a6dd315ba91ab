"""Exact few-photon Fock-space simulation of linear-optical networks.

States are sparse superpositions of occupation-number vectors.  A linear
layer with matrix ``T`` acts by substituting creation operators,

    a_j^dag  ->  sum_k T[j, k] a_k^dag,

so the single-photon amplitude map is ``T^T`` and sequential layers
compose left-to-right: applying ``T1`` then ``T2`` is the single matrix
``T1 @ T2``.  All matrices in this package (gate networks, printed gate
forms, program layers) follow this substitution convention.

Path encoding: qubit ``q`` of an n-qubit register owns the mode triplet
``(3q, 3q+1, 3q+2)`` = (auxiliary, rail 0, rail 1); logical ``|0>`` is a
photon in rail 0 and logical ``|1>`` a photon in rail 1.  Post-selected
two-qubit gates leave amplitude in the auxiliary modes, which is removed
(without renormalizing) by truncation; the squared norm lost this way is
exactly the post-selection failure probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import MziSetting, permanent

Occupation = tuple[int, ...]

# Amplitudes below this threshold are dropped after each layer; keeps the
# sparse representation from accumulating exact-zero debris.
PRUNE_THRESHOLD = 1e-14


@dataclass(frozen=True)
class PhotonicState:
    """Sparse Fock state: occupation tuple -> complex amplitude.

    Treated as immutable; operations return new states.  Terms are kept in
    sorted occupation order so that amplitude accumulation is deterministic.
    """

    mode_count: int
    terms: dict[Occupation, complex]

    def squared_norm(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.terms.values()))

    def amplitude(self, occupation: Occupation) -> complex:
        return self.terms.get(tuple(occupation), 0.0 + 0.0j)


@dataclass(frozen=True)
class QubitLayout:
    """Mode bookkeeping for the aux/rail0/rail1 triplet per qubit."""

    qubit_count: int

    @property
    def mode_count(self) -> int:
        return 3 * self.qubit_count

    def aux_mode(self, q: int) -> int:
        return 3 * q

    def zero_mode(self, q: int) -> int:
        return 3 * q + 1

    def one_mode(self, q: int) -> int:
        return 3 * q + 2

    @property
    def aux_modes(self) -> tuple[int, ...]:
        return tuple(3 * q for q in range(self.qubit_count))


@dataclass(frozen=True)
class PostSelectionResult:
    projected_state: PhotonicState
    success_probability: float


@dataclass(frozen=True)
class MeshBlock:
    """One 2x2 device inside a layer: topmost mode index, phases, and a role
    tag naming the gate the device realizes (``"H"``, ``"X"``, ``"R13"``...).
    """

    top_mode: int
    setting: MziSetting
    role: str


@dataclass(frozen=True)
class LinearLayer:
    """Program step: multiply the state by one substitution matrix.

    ``blocks`` optionally records the parallel 2x2 devices the matrix was
    assembled from, which is what mesh placement consumes.
    """

    matrix: np.ndarray
    blocks: tuple[MeshBlock, ...] | None = None
    label: str = ""


@dataclass(frozen=True)
class TruncateAux:
    """Program step: drop every term with a photon in any of ``modes``."""

    modes: tuple[int, ...]


@dataclass(frozen=True)
class NetworkProgram:
    """Ordered sequence of linear layers and truncation points."""

    mode_count: int
    steps: tuple[LinearLayer | TruncateAux, ...] = field(default_factory=tuple)

    def extended(self, *more: LinearLayer | TruncateAux) -> "NetworkProgram":
        return NetworkProgram(self.mode_count, self.steps + tuple(more))


def _sorted_state(mode_count: int, raw: dict[Occupation, complex]) -> PhotonicState:
    kept = {
        occ: raw[occ] for occ in sorted(raw) if abs(raw[occ]) > PRUNE_THRESHOLD
    }
    return PhotonicState(mode_count, kept)


def prepare_computational_basis(bits, layout: QubitLayout) -> PhotonicState:
    """One photon per qubit in the rail selected by ``bits``.

    ``bits`` is a string like ``"010"`` or a sequence of 0/1, qubit 0 first.
    """
    if isinstance(bits, str):
        if any(c not in "01" for c in bits):
            raise ValueError(f"bits must be 0/1, got {bits!r}")
        values = [int(c) for c in bits]
    else:
        values = [int(b) for b in bits]
        if any(v not in (0, 1) for v in values):
            raise ValueError(f"bits must be 0/1, got {values}")
    if len(values) != layout.qubit_count:
        raise ValueError(
            f"{len(values)} bits for {layout.qubit_count}-qubit layout"
        )
    occ = [0] * layout.mode_count
    for q, v in enumerate(values):
        occ[layout.one_mode(q) if v else layout.zero_mode(q)] = 1
    return PhotonicState(layout.mode_count, {tuple(occ): 1.0 + 0.0j})


def _expand_term(
    occ: Occupation,
    amp: complex,
    t: np.ndarray,
    active: np.ndarray,
    row_cols: list[np.ndarray],
) -> dict[Occupation, complex]:
    """Substitute creation operators for one input term.

    Photons on inactive (identity) rows pass through; each photon on an
    active row ``j`` fans out over the nonzero entries of ``t[j]``.  The
    bosonic normalization ``sqrt(prod t_k!) / sqrt(prod s_j!)`` uses the
    full input/output occupations, so pass-through photons are handled
    uniformly.
    """
    m = len(occ)
    base = list(occ)
    photons: list[int] = []
    for j in range(m):
        if occ[j] and active[j]:
            photons.extend([j] * occ[j])
            base[j] = 0
    in_norm = math.prod(math.factorial(n) for n in occ)
    partial: dict[Occupation, complex] = {tuple(base): amp / math.sqrt(in_norm)}
    for j in photons:
        cols = row_cols[j]
        row = t[j]
        nxt: dict[Occupation, complex] = {}
        for pocc, pamp in partial.items():
            for k in cols:
                new = list(pocc)
                new[k] += 1
                key = tuple(new)
                nxt[key] = nxt.get(key, 0.0) + pamp * row[k]
        partial = nxt
    out: dict[Occupation, complex] = {}
    for pocc, pamp in partial.items():
        out_norm = math.prod(math.factorial(n) for n in pocc)
        out[pocc] = pamp * math.sqrt(out_norm)
    return out


def apply_linear(state: PhotonicState, t: np.ndarray) -> PhotonicState:
    """Apply the substitution matrix ``t`` to every term of ``state``."""
    t = np.asarray(t, dtype=complex)
    m = state.mode_count
    if t.shape != (m, m):
        raise ValueError(f"matrix shape {t.shape} does not match {m} modes")
    eye = np.eye(m)
    active = np.any(t != eye, axis=1)
    row_cols = [np.nonzero(t[j])[0] for j in range(m)]
    accum: dict[Occupation, complex] = {}
    for occ in sorted(state.terms):
        for new_occ, new_amp in _expand_term(
            occ, state.terms[occ], t, active, row_cols
        ).items():
            accum[new_occ] = accum.get(new_occ, 0.0) + new_amp
    return _sorted_state(m, accum)


def amplitude_via_permanent(
    u: np.ndarray, input_occ: Occupation, output_occ: Occupation
) -> complex:
    """Transition amplitude <output| U |input> from a matrix permanent.

    For a substitution matrix ``u`` the amplitude is the permanent of the
    submatrix built by repeating row ``j`` of ``u`` ``s_j`` times and column
    ``k`` ``t_k`` times, divided by ``sqrt(prod s_j! prod t_k!)``.
    """
    u = np.asarray(u, dtype=complex)
    s = tuple(int(x) for x in input_occ)
    t = tuple(int(x) for x in output_occ)
    if u.shape != (len(s), len(s)) or len(s) != len(t):
        raise ValueError("matrix and occupation dimensions disagree")
    if sum(s) != sum(t):
        raise ValueError(f"photon number mismatch: {sum(s)} vs {sum(t)}")
    if sum(s) == 0:
        return 1.0 + 0.0j
    rows = [j for j, n in enumerate(s) for _ in range(n)]
    cols = [k for k, n in enumerate(t) for _ in range(n)]
    norm = math.prod(math.factorial(n) for n in s) * math.prod(
        math.factorial(n) for n in t
    )
    return permanent(u[np.ix_(rows, cols)]) / math.sqrt(norm)


def truncate_aux(state: PhotonicState, aux_modes) -> PhotonicState:
    """Drop terms with any photon in ``aux_modes``; no renormalization."""
    aux = tuple(aux_modes)
    kept = {
        occ: amp
        for occ, amp in state.terms.items()
        if all(occ[m] == 0 for m in aux)
    }
    return PhotonicState(state.mode_count, kept)


def project_qubit_structure(
    state: PhotonicState, layout: QubitLayout
) -> PostSelectionResult:
    """Keep exactly the terms with one photon per rail pair and empty aux.

    The squared norm of the kept part is the cumulative success probability
    of all post-selections (truncations included) so far, assuming a unit
    norm input to the overall program.
    """
    if state.mode_count != layout.mode_count:
        raise ValueError(
            f"state has {state.mode_count} modes, layout needs {layout.mode_count}"
        )
    kept: dict[Occupation, complex] = {}
    for occ, amp in state.terms.items():
        if any(occ[m] != 0 for m in layout.aux_modes):
            continue
        ok = True
        for q in range(layout.qubit_count):
            if occ[layout.zero_mode(q)] + occ[layout.one_mode(q)] != 1:
                ok = False
                break
        if ok:
            kept[occ] = amp
    projected = PhotonicState(state.mode_count, kept)
    return PostSelectionResult(projected, projected.squared_norm())


def canonical_global_phase(amps: np.ndarray) -> np.ndarray:
    """Rotate a state vector so its leading entry is real positive.

    The anchor is the first entry whose magnitude is within a relative
    tolerance of the largest one, so near-degenerate magnitudes resolve
    to the lowest basis index instead of depending on rounding noise.
    """
    mags = np.abs(amps)
    peak = float(mags.max()) if amps.size else 0.0
    if peak == 0.0:
        return amps
    anchor = amps[int(np.flatnonzero(mags >= peak * (1.0 - 1e-9))[0])]
    return amps * (abs(anchor) / anchor)


def decode_qubits(
    result: PostSelectionResult, layout: QubitLayout
) -> tuple[np.ndarray, float]:
    """Normalized qubit amplitudes (qubit 0 = most significant bit) and the
    success probability of the projection: :func:`compiler.decode_logical`
    with the identity relabeling."""
    from .compiler import decode_logical  # compiler imports this module

    n = layout.qubit_count
    return decode_logical(result, layout, tuple(range(n)), (0,) * n)


@dataclass(frozen=True)
class Partition:
    """Mode blocks that no later program layer couples to each other, with
    the photon count each block must hold for a term to pass
    :func:`project_qubit_structure`.  ``labels[mode]`` is the mode's block."""

    labels: tuple[int, ...]
    required: tuple[int, ...]

    def restrict(self, state: PhotonicState) -> PhotonicState:
        """Keep the terms whose block photon counts match ``required``."""
        kept = {}
        for occ, amp in state.terms.items():
            counts = [0] * len(self.required)
            for mode, n in enumerate(occ):
                if n:
                    counts[self.labels[mode]] += n
            if tuple(counts) == self.required:
                kept[occ] = amp
        return PhotonicState(state.mode_count, kept)


def light_cone(program: NetworkProgram, layout: QubitLayout) -> tuple[Partition, ...]:
    """The partition of modes in force after each program step.

    A backward union-find pass: it starts from the final projection (each
    rail pair one block holding one photon, each aux mode a block holding
    none) and, walking the steps in reverse, joins modes ``j`` and ``k``
    wherever a layer has ``matrix[j, k] != 0``, adding the blocks' required
    counts.  Layers after step ``i`` move photons only inside the blocks of
    entry ``i``, so a term whose count differs from the requirement in any
    block can never pass the projection.  Entries are shared objects: a new
    partition is made only where a layer merges blocks.
    """
    if program.mode_count != layout.mode_count:
        raise ValueError(
            f"program has {program.mode_count} modes, layout needs {layout.mode_count}"
        )
    parent = list(range(layout.mode_count))
    required = [0] * layout.mode_count
    for q in range(layout.qubit_count):
        parent[layout.one_mode(q)] = layout.zero_mode(q)
        required[layout.zero_mode(q)] = 1

    def root(mode: int) -> int:
        while parent[mode] != mode:
            parent[mode] = parent[parent[mode]]
            mode = parent[mode]
        return mode

    def snapshot() -> Partition:
        roots = [root(mode) for mode in range(layout.mode_count)]
        index = {r: i for i, r in enumerate(dict.fromkeys(roots))}
        return Partition(
            tuple(index[r] for r in roots), tuple(required[r] for r in index)
        )

    current = snapshot()
    after: list[Partition] = []
    for step in reversed(program.steps):
        after.append(current)
        if not isinstance(step, LinearLayer):
            continue
        merged = False
        for j, k in zip(*np.nonzero(step.matrix)):
            rj, rk = root(int(j)), root(int(k))
            if rj != rk:
                parent[rk] = rj
                required[rj] += required[rk]
                merged = True
        if merged:
            current = snapshot()
    return tuple(reversed(after))


def _fold(
    program: NetworkProgram,
    state: PhotonicState,
    cone: tuple[Partition, ...] | None,
) -> PhotonicState:
    if state.mode_count != program.mode_count:
        raise ValueError(
            f"state has {state.mode_count} modes, program needs {program.mode_count}"
        )
    cuts = cone or (None,) * len(program.steps)
    last = None
    for step, cut in zip(program.steps, cuts):
        if isinstance(step, LinearLayer):
            state = apply_linear(state, step.matrix)
        elif isinstance(step, TruncateAux):
            state = truncate_aux(state, step.modes)
        else:
            raise TypeError(f"unknown program step {type(step).__name__}")
        if cut is not last:
            state = cut.restrict(state)
            last = cut
    return state


def run_program(program: NetworkProgram, state: PhotonicState) -> PhotonicState:
    """Fold the program steps over ``state`` in order."""
    return _fold(program, state, None)


def run_program_pruned(
    program: NetworkProgram, state: PhotonicState, layout: QubitLayout
) -> PhotonicState:
    """:func:`run_program` that drops, after each step, every term that can
    never pass :func:`project_qubit_structure` (see :func:`light_cone`).

    The projection of the result equals that of the unpruned fold bit for
    bit, key order included: a dropped term's descendants never share an
    occupation with a kept term's, so every kept amplitude is the same sum
    of the same addends in the same order.  The test is only a necessary
    condition, so circuits outside the forest envelope keep their
    deviating output.
    """
    return _fold(program, state, light_cone(program, layout))


def format_state_dump(state: PhotonicState) -> str:
    """Stable text form of a state: one `occupation,re,im` line per term,
    occupations comma-free and lexicographically sorted."""
    lines = [f"modes={state.mode_count}"]
    for occ in sorted(state.terms):
        amp = state.terms[occ]
        occ_txt = "".join(str(n) for n in occ) if max(occ, default=0) < 10 else (
            "|".join(str(n) for n in occ)
        )
        lines.append(f"{occ_txt},{amp.real:.15e},{amp.imag:.15e}")
    return "\n".join(lines) + "\n"

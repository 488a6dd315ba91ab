"""Exact few-photon Fock-space simulation of MZI-mesh programs.

States are sparse superpositions of occupation-number vectors.  A linear
program step, one whole gate network, is its 2x2 blocks, applied in order,
and an offset: a block with top mode ``t`` acts on modes
``(t + offset, t + offset + 1)``, so every placement of a fixed network
shares the network's one block tuple (see :class:`LinearLayer`).  A block
on modes ``(a, a+1)``
whose device unitary is ``U`` substitutes creation operators by ``T = U^T``,

    a_{a+j}^dag  ->  sum_k T[j, k] a_{a+k}^dag   (j, k in {0, 1}),

so an occupation pair ``(n_a, n_b)`` expands binomially into outputs
``(p, n_a + n_b - p)`` and no other mode changes.  Dense substitution
matrices (gate networks, printed gate forms, :attr:`LinearLayer.matrix`)
follow the same convention and compose left-to-right: applying ``T1`` then
``T2`` is ``T1 @ T2``; they are built on demand only.

The fold over a program (:func:`run_program`) carries a frame from step to
step: term keys are physical occupations, ``pos[mode]`` is the slot that
holds logical mode ``mode``, and each slot owes a unit phase to every
photon in it.  A crossing (diagonal at most :data:`PRUNE_THRESHOLD`) swaps
two ``pos`` entries and multiplies two owed phases; a pure-phase block
(off-diagonal at most the threshold) multiplies two owed phases.  Either
costs O(1), touches no term and loses no probability: its photons pick up
the unit phases ``t/|t|`` of its nonzero entries.  A mixing block acts on
the slots ``(pos[a], pos[a+1])``, which need not be adjacent, and first
pays their owed phases into the terms it rewrites.  One walk,
:func:`_lower`, carries the frame and lowers each step to the slots its
mixing blocks and truncation act on; the fold, the certified fold and the
light cone read those slots and the final frame.  Inside the fold each key
is one packed int (see :func:`_fold`); the result is materialized once, as
a :class:`PhotonicState` with owed phases paid and occupation tuples
sorted.  Terms are never sorted in between, so accumulation follows dict
insertion order, which the input state and the program determine.

The compiler emits each post-selected gate as two steps: its whole network
(for a CNOT, with an H block before and after the CZ network), whose block
tuple is the gate itself (:class:`PostSelectedGate`), then the truncation
of its two aux modes.  Under the compiler's certificate
(``CompileResult.forest``) each photon stays inside its own rail pair, so
the certified fold (:func:`run_certified`) holds one bit per photon and
applies those two steps as one rule, with the eager cut.  Each gate then
succeeds with exactly 1/9 on every input, so the fold keeps its amplitudes
at unit scale, scales each rule by 3 and counts the gates instead; its
amplitudes differ from the light-cone path's by rounding only.

Path encoding: qubit ``q`` of an n-qubit register owns the mode triplet
``(3q, 3q+1, 3q+2)`` = (auxiliary, rail 0, rail 1); logical ``|0>`` is a
photon in rail 0 and logical ``|1>`` a photon in rail 1.  This numbering is
fixed, so no function takes a layout: each reads the qubit count from what
it is given, ``mode_count // 3`` of a state or program or ``len(positions)``
of a relabeling; the projection and the light cone refuse a mode count that
is not 3 per qubit.  Post-selected two-qubit gates leave amplitude in the
auxiliary modes, which is removed (without renormalizing) by truncation; the
squared norm lost this way is exactly the post-selection failure
probability.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import MziSetting, _setting_entries, permanent

Occupation = tuple[int, ...]
# A photon-count check: a term passes when it holds exactly ``count`` photons in ``modes``.
Check = tuple[tuple[int, ...], int]

# Amplitudes at or below this threshold are dropped after each layer that
# rewrites terms, and pair-rule outputs (relative to their input term, see
# _pair_transform) at or below it are never produced; keeps rounding residue
# out of the state.  The cut is relative in the certified fold, whose state
# has unit norm, and absolute in the light-cone fold, whose truncations
# shrink it.  A block whose diagonal or off-diagonal is at most this is a
# crossing or a pure phase, which the fold carries without a rule.
PRUNE_THRESHOLD = 1e-14


@dataclass(frozen=True)
class PhotonicState:
    """Sparse Fock state: occupation tuple -> complex amplitude.

    Treated as immutable; operations return new states.  The folds
    (:func:`run_program`, :func:`apply_linear`) return their terms in sorted
    occupation order, and accumulate in the insertion order of the state
    they are given, so a given input always gives the same amplitudes.
    """

    mode_count: int
    terms: dict[Occupation, complex]

    def squared_norm(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.terms.values()))


@dataclass(frozen=True)
class PostSelectionResult:
    projected_state: PhotonicState
    success_probability: float


@dataclass(frozen=True)
class MeshBlock:
    """One 2x2 device inside a layer: topmost mode index, phases, and a role
    tag naming the gate the device realizes (``"H"``, ``"X"``, ``"R13"``...).

    The fold applies the block through its :class:`_Device`, built from
    ``setting`` on first use and kept with the block.  Layers share the
    compiler's cached network blocks, so a fixed network is classified,
    and its pair rules built, once per process, and a rotation once per
    gate.
    """

    top_mode: int
    setting: MziSetting
    role: str

    @functools.cached_property
    def _device(self) -> _Device:
        return _Device(self.setting)


class LinearLayer(NamedTuple):
    """Program step: the 2x2 devices of one gate network on ``mode_count``
    modes, applied in order (see :func:`apply_linear`).  The compiler emits
    each network, all of its mesh layers, as one step; a step may equally
    hold a single mesh layer or a single block.

    A block's modes are relative to ``offset``: block ``blk`` acts on modes
    ``(blk.top_mode + offset, blk.top_mode + offset + 1)``.  So a fixed
    network placed at some triplet holds the network's own block tuple,
    shared by every placement of it, and only the offset differs."""

    mode_count: int
    blocks: tuple[MeshBlock, ...]
    label: str = ""
    offset: int = 0

    @property
    def matrix(self) -> np.ndarray:
        """Dense substitution matrix of the layer, built on each access."""
        from .gates import layer_matrix  # gates imports this module

        return layer_matrix(self.blocks, self.mode_count, self.offset)


class TruncateAux(NamedTuple):
    """Program step: drop every term with a photon in any of ``modes``."""

    modes: tuple[int, ...]


class PostSelectedGate(tuple):
    """One form of a post-selected gate as the compiler emits it: the block
    tuple of its whole network in the coordinates of its six-mode window
    ``(aux, r0, r1, aux, r0, r1)``, the CZ network and, for a CNOT, an H
    block on the target's rails before and after it.  The compiler emits
    the form itself as its network step's ``blocks``, and the certified
    fold (:func:`run_certified`) applies the gate as one rule where such a
    step is directly followed by the truncation of its own window's aux
    modes.  A form equals and hashes like its plain block tuple; the rule
    is cached per object, and so once per form."""

    @functools.cached_property
    def rule(self) -> dict[tuple[int, int], tuple[tuple[int, int], complex]]:
        """The gate and its eager cut on the window, as a monomial map
        ``{(i, j): ((o, p), coefficient)}``: the input with one photon in
        window mode ``i`` of the first rail pair (1 or 2), one in mode ``j``
        of the second (4 or 5) and none in aux maps to its one output that
        passes the projection, one photon in each of ``o`` and ``p``.  Every
        input and output holds one photon per rail pair, so a mode names
        its photon.

        Built once per object: :func:`apply_linear` of the blocks on each
        input, then :func:`project_qubit_structure`, which also makes the
        truncation of the aux modes, so the rule absorbs the network's
        crossings and their phases.  An input with any other number of
        passing outputs raises ``ValueError``.  The certified fold reads
        this map on every use (:func:`_gate`), times 3.

        In exact arithmetic each output has modulus 1/3, the physical map:
        the gate acts as ``diag(1, 1, 1, -1) / 3`` up to phases, and a
        CNOT's H blocks make that a permutation.  The fold rounds the four
        moduli apart by up to two ulps, which a chain of gates would
        compound into a drift between its branches, so each coefficient
        keeps its phase and takes the mean of the four moduli."""
        network = LinearLayer(6, self)
        rule = {}
        for i, j in ((1, 4), (1, 5), (2, 4), (2, 5)):
            occ = [0] * 6
            occ[i] = occ[j] = 1
            state = apply_linear(PhotonicState(6, {tuple(occ): 1.0 + 0.0j}), network)
            outputs = project_qubit_structure(state).projected_state.terms
            if len(outputs) != 1:
                raise ValueError(
                    f"post-selected gate: input {(i, j)} has {len(outputs)} outputs "
                    "that pass the projection, not one"
                )
            ((key, amp),) = outputs.items()
            rule[i, j] = (tuple(mode for mode, n in enumerate(key) if n), amp)
        modulus = sum(abs(amp) for _, amp in rule.values()) / len(rule)
        return {ij: (out, modulus * (amp / abs(amp))) for ij, (out, amp) in rule.items()}


@dataclass(frozen=True)
class NetworkProgram:
    """Ordered sequence of program steps: linear steps, one per emitted
    gate network, and truncation points."""

    mode_count: int
    steps: tuple[LinearLayer | TruncateAux, ...] = field(default_factory=tuple)


def prepare_computational_basis(bits, qubit_count: int) -> PhotonicState:
    """One photon per qubit of a ``qubit_count``-qubit register in the rail
    selected by ``bits``.

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
    if len(values) != qubit_count:
        raise ValueError(f"{len(values)} bits for {qubit_count}-qubit layout")
    occ = [0] * (3 * qubit_count)
    for q, v in enumerate(values):
        occ[3 * q + 1 + v] = 1
    return PhotonicState(3 * qubit_count, {tuple(occ): 1.0 + 0.0j})


def _pair_transform(
    t: list[list[complex]], na: int, nb: int
) -> tuple[tuple[int, complex], ...]:
    """Outputs ``(p, amplitude)`` of the 2x2 substitution ``t`` on the
    occupation pair ``(na, nb)``: ``p`` photons leave on the top mode and
    ``na + nb - p`` on the bottom one.

    The coefficient of ``x^p y^q`` in ``(t00 x + t01 y)^na (t10 x + t11 y)^nb``,
    times the bosonic normalization ``sqrt(p! q! / (na! nb!))``.

    Outputs of magnitude at most :data:`PRUNE_THRESHOLD` are left out.  In
    exact arithmetic they are zeros, such as the Hong-Ou-Mandel residue of
    about 1e-16 of two photons on a 50:50 device.  The outputs' squared
    magnitudes add up to 1, so the cut never drops more than the
    end-of-layer prune drops from a term of amplitude 1.
    """
    (t00, t01), (t10, t11) = t
    n = na + nb
    coeffs = [0j] * (n + 1)
    for i in range(na + 1):
        top = math.comb(na, i) * t00**i * t01 ** (na - i)
        for j in range(nb + 1):
            coeffs[i + j] += top * math.comb(nb, j) * t10**j * t11 ** (nb - j)
    norm = math.factorial(na) * math.factorial(nb)
    outputs = (
        (p, c * math.sqrt(math.factorial(p) * math.factorial(n - p) / norm))
        for p, c in enumerate(coeffs)
    )
    return tuple((p, c) for p, c in outputs if abs(c) > PRUNE_THRESHOLD)


class _Device:
    """One setting as the fold applies it, classified once per block (see
    :attr:`MeshBlock._device`).

    ``t`` is its substitution ``U^T``.  A device whose diagonal is at most
    :data:`PRUNE_THRESHOLD` (a crossing, ``swaps``) or whose off-diagonal is
    (a pure phase) moves each photon without splitting it, and ``units``
    holds the unit phases ``t01/|t01|, t10/|t10|`` or ``t00/|t00|,
    t11/|t11|`` that its top and bottom photon pick up.  For a mixing
    device ``units`` is ``None`` and ``rules`` caches its
    :func:`_pair_transform` expansions per input pair."""

    __slots__ = ("t", "swaps", "units", "rules")

    def __init__(self, setting: MziSetting):
        t00, t10, t01, t11 = _setting_entries(setting)
        self.t = ((t00, t01), (t10, t11))
        self.rules: dict[tuple[int, int], tuple[tuple[int, complex], ...]] = {}
        self.swaps = abs(t00) <= PRUNE_THRESHOLD and abs(t11) <= PRUNE_THRESHOLD
        if self.swaps:
            self.units = (t01 / abs(t01), t10 / abs(t10))
        elif abs(t01) <= PRUNE_THRESHOLD and abs(t10) <= PRUNE_THRESHOLD:
            self.units = (t00 / abs(t00), t11 / abs(t11))
        else:
            self.units = None

    def rule(self, na: int, nb: int) -> tuple[tuple[int, complex], ...]:
        rule = self.rules.get((na, nb))
        if rule is None:
            rule = self.rules[na, nb] = _pair_transform(self.t, na, nb)
        return rule


def _mix(
    terms: dict[int, complex], device: _Device, top: int, bottom: int, digit: int,
    owed_top: complex, owed_bottom: complex,
) -> dict[int, complex]:
    """``terms``, packed keys (see :func:`_fold`), after the mixing
    ``device`` acts with its top mode on the slot at bit offset ``top`` and
    its bottom mode on the slot at ``bottom``; the slots need not be
    adjacent.  Each photon on the pair first picks up the phase its slot
    owes.  Outputs that meet on one occupation are added in insertion
    order and not pruned."""
    pair = digit << top | digit << bottom
    outputs: dict[int, list[tuple[int, complex]]] = {}
    accum: dict[int, complex] = {}
    get = accum.get
    for key, amp in terms.items():
        bits = key & pair
        if not bits:
            accum[key] = get(key, 0.0) + amp
            continue
        rule = outputs.get(bits)
        if rule is None:
            na, nb = bits >> top & digit, bits >> bottom & digit
            factor = owed_top**na * owed_bottom**nb
            rule = outputs[bits] = [
                ((p << top | (na + nb - p) << bottom) - bits, c * factor)
                for p, c in device.rule(na, nb)
            ]
        for delta, c in rule:
            out = key + delta
            accum[out] = get(out, 0.0) + amp * c
    return accum


def apply_linear(state: PhotonicState, layer: LinearLayer) -> PhotonicState:
    """Apply the blocks of ``layer``, in order, to every term of ``state``:
    the fold (:func:`run_program`) of a one-step program, materialized on
    return.

    Each block rewrites only the occupations of its own mode pair, by
    :func:`_pair_transform`; a crossing or pure-phase block splits no term.
    Amplitudes are pruned at :data:`PRUNE_THRESHOLD` once, at the end of
    the step, and the result is in sorted occupation order.
    """
    m = state.mode_count
    if layer.mode_count != m:
        raise ValueError(f"layer has {layer.mode_count} modes, state has {m}")
    return _fold(state, _lower(NetworkProgram(m, (layer,)), False), None)


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


def qubit_structure(qubit_count: int) -> tuple[Check, ...]:
    """The final projection, stated once, as checks in qubit order: each
    qubit's aux mode holds no photon and its rail pair one.
    :func:`project_qubit_structure` filters by them and :func:`light_cone`
    seeds its union-find from them."""
    return tuple(
        check
        for q in range(qubit_count)
        for check in (((3 * q,), 0), ((3 * q + 1, 3 * q + 2), 1))
    )


def _qubit_count(mode_count: int, what: str) -> int:
    """The qubits of a register on ``mode_count`` modes, three per qubit;
    another mode count raises ``ValueError`` naming ``what`` has them."""
    if mode_count % 3:
        raise ValueError(f"{what} has {mode_count} modes, not 3 per qubit")
    return mode_count // 3


def _restrict(state: PhotonicState, checks: tuple[Check, ...]) -> PhotonicState:
    """The terms of ``state``, in insertion order, that pass every check
    ``(modes, count)``: the one filter of tuple-keyed states."""
    kept = {}
    for occ, amp in state.terms.items():
        for modes, count in checks:
            n = 0
            for mode in modes:
                n += occ[mode]
            if n != count:
                break
        else:
            kept[occ] = amp
    return PhotonicState(state.mode_count, kept)


def truncate_aux(state: PhotonicState, modes) -> PhotonicState:
    """Drop terms with any photon in ``modes``, by one zero check per mode
    (see :func:`_restrict`); no renormalization."""
    return _restrict(state, tuple(((mode,), 0) for mode in modes))


def project_qubit_structure(state: PhotonicState) -> PostSelectionResult:
    """Keep exactly the terms with one photon per rail pair and empty aux:
    :func:`_restrict` by the checks of :func:`qubit_structure` for the
    ``mode_count // 3`` qubits of ``state``.

    The squared norm of the kept part is the cumulative success probability
    of all post-selections (truncations included) so far, assuming a unit
    norm input to the overall program.
    """
    checks = qubit_structure(_qubit_count(state.mode_count, "state"))
    projected = _restrict(state, checks)
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


def decode_logical(
    result: PostSelectionResult, positions: tuple[int, ...], flips: tuple[int, ...]
) -> tuple[dict[int, complex], float]:
    """Qubit amplitudes read through a waveguide relabeling, and the success
    probability of the projection.

    Returns ``({basis index: amplitude}, success_probability)`` with one
    entry per projected term, in ascending index order; basis states the
    projection does not reach are absent and have amplitude 0, so nothing
    of size ``2**n`` is allocated (:func:`dense_amplitudes` builds the
    vector).  Logical qubit ``q`` of the ``len(positions)`` qubits, the
    most significant bit for ``q = 0``, is read from triplet
    ``positions[q]`` and XORed with ``flips[q]`` (see :func:`_decode`).
    """
    rows = [(occ[2::3], amp) for occ, amp in result.projected_state.terms.items()]
    return _decode(rows, positions, flips), result.success_probability


def _decode(rows, positions: tuple[int, ...], flips: tuple[int, ...]) -> dict[int, complex]:
    """The one decoder, of :func:`decode_logical` and :func:`run_certified`:
    rows ``(rails, amplitude)``, ``rails[t]`` the rail (0 or 1) of triplet
    ``t``'s photon, read as basis index ``rails[positions[0]] ^ flips[0]``
    (most significant) to ``rails[positions[-1]] ^ flips[-1]``, summed per
    index, in ascending index order, normalized and rotated by
    :func:`canonical_global_phase`, which picks the same anchor as on the
    dense vector."""
    summed: dict[int, complex] = {}
    for rails, amp in rows:
        idx = 0
        for t, f in zip(positions, flips):
            idx = idx << 1 | rails[t] ^ f
        summed[idx] = summed.get(idx, 0j) + amp
    indices = sorted(summed)
    values = [summed[i] for i in indices]
    # summed in index order: np.linalg.norm is a BLAS dot product
    norm = math.sqrt(sum(v.real * v.real + v.imag * v.imag for v in values))
    if norm == 0.0:
        raise ValueError("projection left no qubit-structure amplitude")
    values = canonical_global_phase(np.array(values, dtype=complex) / norm)
    return dict(zip(indices, values.tolist()))


def dense_amplitudes(amplitudes: dict[int, complex], qubit_count: int) -> np.ndarray:
    """The ``2**qubit_count`` state vector of a sparse ``{basis index:
    amplitude}`` map such as :func:`decode_logical` returns."""
    dense = np.zeros(2**qubit_count, dtype=complex)
    dense[list(amplitudes)] = list(amplitudes.values())
    return dense


def light_cone(program: NetworkProgram) -> tuple[tuple[Check, ...], ...]:
    """The checks to filter the fold's state by after each program step: a
    term passes a check ``(slots, count)`` when it holds exactly ``count``
    photons in ``slots``, slots of the fold's frame (see :func:`_lower`).
    A step with no checks can drop no term.  Applied after every step, from
    step 0 on, the checks keep exactly the terms that restricting by the
    whole partition in force would keep.

    A backward union-find pass over slots from the final projection, one
    block per check of :func:`qubit_structure`, for the program's
    ``mode_count // 3`` qubits, at the final frame's slots.
    Photons change slots only at mixing blocks, so, walking the lowered
    steps in reverse, it joins the two slots of each mix and adds the
    blocks' required counts; a crossing or a pure phase joins nothing.
    After step ``i`` photons move only inside the blocks in force, so a
    term whose count differs in any block can never pass the projection.
    Only the checks a term can newly fail are listed: after step 0 every
    block, and after a step that joins blocks the joined blocks but the
    largest of each group, whose count the others fix.  A join moves the
    smaller member lists into the largest, so a slot moves at most
    ``log2(m)`` times for ``m`` slots.
    """
    return _cone(_lower(program, False))


def _cone(lowering) -> tuple[tuple[Check, ...], ...]:
    """:func:`light_cone` of a program lowered by ``_lower(program, False)``."""
    lowered, pos, _ = lowering
    checks = qubit_structure(_qubit_count(len(pos), "program"))
    block = [0] * len(pos)  # block[slot]: the block holding ``slot``
    required: list[int] = []
    members: dict[int, list[int]] = {}
    for label, (modes, count) in enumerate(checks):
        required.append(count)
        members[label] = [pos[mode] for mode in modes]
        for mode in modes:
            block[pos[mode]] = label

    later = [_join(mixes, block, required, members) for _, mixes, _, _ in reversed(lowered[1:])]
    first = sorted((tuple(sorted(slots)), required[label]) for label, slots in members.items())
    return (tuple(first), *reversed(later)) if lowered else ()


def _join(
    mixes, block: list[int], required: list[int], members: dict[int, list[int]]
) -> tuple[Check, ...]:
    """Join, in place, the blocks in force that the lowered ``mixes`` (see
    :func:`_lower`) couple, and return the checks of the join, none if they
    join nothing: every joined block but the largest of its group.  The
    smaller member lists move into the largest."""
    link: dict[int, int] = {}

    def find(label: int) -> int:
        while label in link:
            label = link[label]
        return label

    for _, top, bottom, _, _ in mixes:
        a, b = find(block[top]), find(block[bottom])
        if a != b:
            link[b] = a
    groups: dict[int, list[int]] = {}
    for label in link:
        root = find(label)
        groups.setdefault(root, [root]).append(label)
    checks = []
    for group in groups.values():
        big = max(group, key=lambda label: len(members[label]))
        into = members[big]
        for label in group:
            if label == big:
                continue
            slots = members.pop(label)
            checks.append((tuple(sorted(slots)), required[label]))
            required[big] += required[label]
            into.extend(slots)
            for slot in slots:
                block[slot] = big
    return tuple(checks)


def _keep(
    terms: dict[int, complex], empty: int, prune: bool,
    counted: list[tuple[tuple[int, ...], int]], digit: int,
) -> dict[int, complex]:
    """The packed ``terms`` with no photon under the mask ``empty``, above
    :data:`PRUNE_THRESHOLD` if ``prune``, and with exactly ``count`` photons
    in the digits at ``shifts`` for each ``(shifts, count)`` in ``counted``.
    Those digits' values are judged once per distinct combination."""
    watched = 0
    for shifts, _ in counted:
        for s in shifts:
            watched |= digit << s
    judged: dict[int, bool] = {}
    kept = {}
    for key, amp in terms.items():
        if key & empty or prune and abs(amp) <= PRUNE_THRESHOLD:
            continue
        bits = key & watched
        ok = judged.get(bits)
        if ok is None:
            ok = True
            for shifts, count in counted:
                n = 0
                for s in shifts:
                    n += bits >> s & digit
                if n != count:
                    ok = False
                    break
            judged[bits] = ok
        if ok:
            kept[key] = amp
    return kept


def _lower(program: NetworkProgram, gates: bool):
    """The one walk of the fold's frame (see the module docstring): each
    step ``i`` of ``program`` lowered to ``(i, mixes, cut, gate)``, and the
    final frame: ``(lowered, pos, owed)``.  A mix is ``(device, top slot,
    bottom slot, owed top, owed bottom)``, whose owed phases the reader
    pays into the terms it rewrites; crossings and pure phases go into the
    frame and leave no mix.  ``cut`` is a truncation's slots, else ``None``.
    With ``gates``, a step whose blocks are a :class:`PostSelectedGate`,
    directly followed by the truncation of its window's aux modes, lowers
    with that truncation to one entry, ``gate = (form, window slots, their
    owed phases)``: the rule absorbs the network's crossings, so the frame
    does not move, and the gate's rail slots then owe nothing."""
    steps, m = program.steps, program.mode_count
    pos, owed = list(range(m)), [1.0 + 0.0j] * m
    lowered, taken = [], -1
    for i, step in enumerate(steps):
        if i == taken:
            continue
        if isinstance(step, TruncateAux):
            lowered.append((i, (), tuple([pos[mode] for mode in step.modes]), None))
            continue
        if not isinstance(step, LinearLayer):
            raise TypeError(f"unknown program step {type(step).__name__}")
        off, cut = step.offset, steps[i + 1] if i + 1 < len(steps) else None
        if (
            gates
            and isinstance(step.blocks, PostSelectedGate)
            and isinstance(cut, TruncateAux)
            and cut.modes == (off, off + 3)
        ):
            slots = pos[off : off + 6]
            lowered.append((i, (), None, (step.blocks, slots, [owed[s] for s in slots])))
            owed[slots[1]] = owed[slots[2]] = owed[slots[4]] = owed[slots[5]] = 1.0 + 0.0j
            taken = i + 1
            continue
        mixes = []
        for blk in step.blocks:
            device, a = blk._device, blk.top_mode + off
            sa, sb = pos[a], pos[a + 1]
            if device.units is None:
                mixes.append((device, sa, sb, owed[sa], owed[sb]))
                owed[sa] = owed[sb] = 1.0 + 0.0j
                continue
            owed[sa] *= device.units[0]
            owed[sb] *= device.units[1]
            if device.swaps:
                pos[a], pos[a + 1] = sb, sa
        lowered.append((i, mixes, None, None))
    return lowered, pos, owed


def _fold(
    state: PhotonicState, lowering, cone: tuple[tuple[Check, ...], ...] | None
) -> PhotonicState:
    """The fold behind :func:`run_program`, :func:`run_program_pruned` and
    :func:`apply_linear`: every step of a program lowered by
    ``_lower(program, False)``, in order, then, if ``cone`` is given, its
    checks after each step.

    Inside the fold a term's key is one int: slot ``s`` is a digit of
    ``width`` bits, the bit length of the input's largest photon count, at
    offset ``shift[s]``, slot 0 most significant.  A mixing block reads its
    pair with one AND and adds a precomputed delta per output; a truncation
    and the zero-count checks of a step are one AND against a mask.  Mixes,
    truncations and checks all name slots; only the final read-back goes
    through the frame.
    """
    lowered, pos, owed = lowering
    m = len(pos)
    if state.mode_count != m:
        raise ValueError(f"state has {state.mode_count} modes, program needs {m}")
    cuts = cone or ((),) * len(lowered)
    width = max((sum(occ) for occ in state.terms), default=0).bit_length()
    digit = (1 << width) - 1
    shift = [width * (m - 1 - slot) for slot in range(m)]
    terms = {}
    for occ, amp in state.terms.items():
        key = 0
        for n in occ:
            key = key << width | int(n)
        terms[key] = amp
    for (_, mixes, cut, _), checks in zip(lowered, cuts):
        empty = 0
        for device, sa, sb, owed_a, owed_b in mixes:
            terms = _mix(terms, device, shift[sa], shift[sb], digit, owed_a, owed_b)
        for slot in cut or ():
            empty |= digit << shift[slot]
        counted = [
            (tuple([shift[slot] for slot in slots]), count)
            for slots, count in checks
            if count
        ]
        for slots, count in checks:
            if not count:
                for slot in slots:
                    empty |= digit << shift[slot]
        # Two filters on purpose: all through _keep, or an uncached _keep, folded 4-10% slower.
        if counted:
            terms = _keep(terms, empty, bool(mixes), counted, digit)
        elif mixes or empty:
            terms = {
                key: amp
                for key, amp in terms.items()
                if not key & empty and (not mixes or abs(amp) > PRUNE_THRESHOLD)
            }
    # Pay the owed phases, read each key in logical order and sort once;
    # the prune catches input terms that no mixing layer has rewritten.
    debts = [(shift[slot], f) for slot, f in enumerate(owed) if f != 1.0]
    order = [shift[slot] for slot in pos]
    final = {}
    for key, amp in terms.items():
        if abs(amp) <= PRUNE_THRESHOLD:
            continue
        for s, f in debts:
            n = key >> s & digit
            if n:
                amp *= f**n
        final[tuple([key >> s & digit for s in order])] = amp
    return PhotonicState(m, {occ: final[occ] for occ in sorted(final)})


def run_program(program: NetworkProgram, state: PhotonicState) -> PhotonicState:
    """Fold the program steps over ``state`` in order, keeping every term.

    Crossings and pure-phase blocks are carried in the fold's frame (see
    the module docstring), every block is classified and its rules built
    once, on its first fold, and the result is sorted once, at the end."""
    return _fold(state, _lower(program, False), None)


def run_program_pruned(program: NetworkProgram, state: PhotonicState) -> PhotonicState:
    """:func:`run_program` that drops, after each step, every term that can
    never pass :func:`project_qubit_structure` (see :func:`light_cone`).

    The program is lowered once (:func:`_lower`) for the cone and the fold,
    so each step's checks name the slots the fold keys its terms by.  The
    projection of the result equals that of the unpruned fold bit for bit,
    key order included: both folds carry the same frame, keep their terms
    in insertion order, and a dropped term's descendants never share an
    occupation with a kept term's.  The test is only a necessary condition,
    so circuits outside the forest envelope keep their deviating output.  A
    program whose mode count is not 3 per qubit raises ``ValueError``.
    """
    lowering = _lower(program, False)
    return _fold(state, lowering, _cone(lowering))


def _photon(top: int, bottom: int) -> int | None:
    """The photon whose two rail slots are ``top`` and ``bottom``, or None."""
    p = top // 3
    return p if bottom // 3 == p and top % 3 and bottom % 3 else None


def _turn(terms, t, photon: int, top: int, owed_top: complex, owed_bottom: complex):
    """Bit-keyed ``terms`` after the mixing substitution ``t`` on the rails
    of ``photon``, its top mode on the rail of bit value ``top``: the
    steps of :func:`_mix` for one photon, owed phases paid, outputs listed
    and cut as :func:`_pair_transform` lists and cuts them."""
    (t00, t01), (t10, t11) = t
    flip = 1 << photon
    rules, cut = [(), ()], PRUNE_THRESHOLD
    rules[top] = [(m, c * owed_top) for m, c in ((flip, t01), (0, t00)) if abs(c) > cut]
    rules[1 - top] = [(m, c * owed_bottom) for m, c in ((0, t11), (flip, t10)) if abs(c) > cut]
    accum: dict[int, complex] = {}
    get = accum.get
    for key, amp in terms.items():
        for m, c in rules[key >> photon & 1]:
            accum[key ^ m] = get(key ^ m, 0.0) + amp * c
    return accum


def _gate(terms, gate: PostSelectedGate, slots: list[int], owed: list[complex], label: str):
    """Bit-keyed ``terms`` after ``gate`` and its eager cut, ``slots[k]``
    holding window mode ``k`` and owing ``owed[k]`` (see :func:`_lower`):
    its :attr:`~PostSelectedGate.rule` times 3, a unit-modulus bijection on
    the two photons' bits that merges and shrinks no term, as a table of
    XOR masks and coefficients times the owed phases of their input slots."""
    q, r = _photon(slots[1], slots[2]), _photon(slots[4], slots[5])
    if q is None or r is None or slots[0] % 3 or slots[3] % 3:
        raise ValueError(
            f"post-selected gate {label!r}: its window holds slots {tuple(slots)}, "
            "not two aux slots and the rail pairs of two photons"
        )
    bit = [s % 3 - 1 for s in slots]
    table = [(0, 0j)] * 4
    for (i, j), ((o, p), c) in gate.rule.items():
        mask = (bit[i] ^ bit[o]) << q | (bit[j] ^ bit[p]) << r
        table[bit[i] | bit[j] << 1] = (mask, 3 * c * (owed[i] * owed[j]))
    kept = {}
    for key, amp in terms.items():
        mask, c = table[key >> q & 1 | (key >> r & 1) << 1]
        kept[key ^ mask] = amp * c
    return kept


def run_certified(
    program: NetworkProgram, bits, positions: tuple[int, ...], flips: tuple[int, ...]
) -> tuple[dict[int, complex], float]:
    """:func:`decode_logical` of a certified program (``CompileResult.forest``)
    on the computational-basis input ``bits``, read through ``positions``
    and ``flips``, with each post-selected gate applied as its rule.

    A term is an int whose bit ``p`` puts photon ``p`` in slot ``3p + 1``
    (0) or ``3p + 2`` (1).  The fold reads the program lowered with its
    gates (:func:`_lower`).  A mix is a 2x2 map on one bit (:func:`_turn`),
    pruned at :data:`PRUNE_THRESHOLD` after its step, and a gate a table
    on two bits (:func:`_gate`).  The fold counts its gates, ``k``, and
    each succeeds with exactly 1/9 on every input, so the state stays at
    unit norm and the success probability is its squared norm, summed in
    insertion order, times ``9.0**-k``.  The decoded rows go to
    :func:`_decode`.  Amplitudes differ from the light-cone path's by
    rounding only: within 5.6e-16 on the pinned ``simulate`` circuits, the
    benchmark's random forests and GHZ chains of up to 29 qubits, where
    ``|p * 9**k - 1|`` stays within 9.5e-15.

    A squared norm off 1 by more than 1e-9 raises ``ValueError``, as does
    a success probability below the smallest normal float, from k = 323 on.
    What a bit cannot hold raises ``ValueError`` too: a truncation outside the
    steps of a gate, as in a program split or rebuilt, a mixing block
    outside a gate on anything but one photon's two rails, which a gate
    form without its truncation right after it reaches, a gate window not
    of two aux slots and two photons' rails, and a final frame that splits
    a rail pair.  :func:`run_program_pruned` folds such programs.
    """
    n = len(positions)
    (occ,) = prepare_computational_basis(bits, n).terms
    if program.mode_count != 3 * n:
        raise ValueError(f"program has {program.mode_count} modes, {n} qubits need {3 * n}")
    terms = {sum(occ[3 * p + 2] << p for p in range(n)): 1.0 + 0.0j}
    lowered, pos, owed = _lower(program, True)
    k = 0
    for i, mixes, cut, gate in lowered:
        if cut is not None:
            raise ValueError(
                f"step {i} truncates {program.steps[i].modes} outside the steps of a "
                "post-selected gate the compiler emitted; a certified fold "
                "needs each gate's truncation directly after its network"
            )
        if gate is not None:
            terms = _gate(terms, *gate, program.steps[i].label)
            k += 1
            continue
        for device, sa, sb, owed_a, owed_b in mixes:
            p = _photon(sa, sb)
            if p is None:
                raise ValueError(
                    f"step {i} ({program.steps[i].label!r}) mixes slots {sa} and {sb} outside "
                    "the steps of a post-selected gate, not the two rails of one photon"
                )
            terms = _turn(terms, device.t, p, sa % 3 - 1, owed_a, owed_b)
        if mixes:
            terms = {k: amp for k, amp in terms.items() if abs(amp) > PRUNE_THRESHOLD}
    # reads[t]: the photon of logical rail pair t, and its bit when in mode 3t + 2
    reads = []
    for t in range(n):
        a, b = pos[3 * t + 1], pos[3 * t + 2]
        p = _photon(a, b)
        if p is None:
            raise ValueError(f"the final frame splits rail pair {t}: slots {a} and {b}")
        reads.append((p, b % 3 - 1))
    debts = [(s // 3, s % 3 - 1, f) for s, f in enumerate(owed) if f != 1.0 and s % 3]
    rows = []
    for key, amp in terms.items():
        for p, v, f in debts:
            if key >> p & 1 == v:
                amp *= f
        rows.append(([key >> p & 1 ^ v ^ 1 for p, v in reads], amp))
    norm = float(sum(abs(amp) ** 2 for _, amp in rows))
    # 8e4 times the worst rounding measured (1.2e-14), over the pinned
    # circuits, the benchmark's forests and GHZ chains of up to 40 qubits
    if abs(norm - 1) > 1e-9:
        raise ValueError(
            f"certified fold lost its unit norm: squared norm - 1 = {norm - 1:.3e} "
            f"after {k} post-selected gates"
        )
    probability = norm * 9.0**-k
    if probability < sys.float_info.min:
        raise ValueError(
            f"success probability 9**-{k} of {k} post-selected gates underflows a float"
        )
    return _decode(rows, positions, flips), probability


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

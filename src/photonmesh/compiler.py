"""Compile qubit circuits to photonic mesh programs and simulate them.

The compiler maps an n-qubit circuit onto ``3n`` waveguides (one aux + two
rails per qubit), emitting MZI layers gate by gate.  Two-qubit gates act on
adjacent qubit triplets; non-adjacent operands are routed together with
``SWAP2`` networks and routed back afterwards.

``SWAP2`` exchanges two adjacent qubits' rail photons but crosses each
qubit's rails in the process, so every routed photon comes out with its
rails flipped.  Rather than spending extra crossings to undo this, the
compiler tracks a waveguide relabeling per logical qubit: ``positions[q]``
is the triplet currently holding qubit ``q`` and ``flips[q]`` records
whether its rails are exchanged.  A single-qubit gate on a flipped qubit
is emitted conjugated by X.  Before a CZ or CNOT, each flipped operand is
unflipped with an explicit X block: a flipped CZ operand or CNOT control
would change the gate.  A flipped CNOT target would not, since X on the
target commutes through a CNOT (:func:`compile_ghz_swap_variant` relies on
this), but it is unflipped too.  A logical SWAP unflips nothing: its
operands' flips cross over and each toggles.  The final relabeling is
applied when decoding measurement amplitudes.

Every post-selected gate is two program steps: its whole network, then the
truncation of the two auxiliary modes it used.  A CNOT's network holds the
CZ network between two H blocks on the target's rails; the trailing H acts
on rails only and the truncation on aux modes only, so the two commute and
the truncation may follow it.  A pair of qubits may share at most one
post-selected gate: a second one would post-select on photons that are no
longer in the product-form the gate's success accounting assumes, so the
compiler refuses it (:class:`IllegalCascade`).

Distinct pairs always compile, but exactness has a sharper boundary.  Each
post-selected gate leaves failure terms in which one operand's rail pair
is doubly occupied and the other's is empty; truncation removes the aux
photons but keeps those terms.  On an uncertified circuit (below) the
simulator drops them as soon as no later layer can rebalance them into one
photon per rail pair (the light cone of :func:`fock.run_program_pruned`),
which gives the same projection as carrying them to the end.  That
projection is exact whenever the gates' interaction graph over photons
(qubit pairs, tracked through any logical SWAPs) is a forest.  If a gate
closes a cycle, correlated doubled/empty terms from earlier gates can meet
inside its six-mode window and rebalance into a configuration that passes
projection, so the decoded state and success probability deviate from the
ideal circuit.  The simulator reports that outcome faithfully rather than
rejecting such circuits.

The compiler proves forest-ness as it emits: a union-find over photons,
each tracked by the qubit label that holds it, joined by every
post-selected gate.  Routing and restore swaps move a label with its
photon; only a logical SWAP changes which photon a label holds.  A gate
whose two photons already share a root, which a second gate on the same
photon pair does too, leaves the circuit uncertified;
``CompileResult.forest`` is the certificate.  Inside a forest no failure
term a truncation keeps can reach a passing configuration: the gate's two
sides are joined by that gate alone, so no later layer can move a photon
from the doubled side to the empty one.  For a certified circuit the
simulator therefore applies each post-selected gate, its network and its
truncation, as one rule that keeps only the gate's successful outputs
(``fock.PostSelectedGate``), and that eager cut is its whole filter: every
other mixing block acts inside one rail pair, so every term is one bit per
photon, the rail it is in (``fock.run_certified``), and no light cone is
computed.  The decoded basis states stay those of the light-cone path, and
amplitudes move by rounding only.  Uncertified circuits take the
light-cone path (``fock.run_program_pruned``) alone.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import fock, gates
from .fock import (
    LinearLayer,
    MeshBlock,
    NetworkProgram,
    TruncateAux,
    decode_logical,
)
# embed_block and setting_unitary are unused; benchmarks/spans.py wraps them here.
from .linalg import IDENTITY_SETTING, MziSetting, embed_block, setting_unitary

SINGLE_QUBIT_GATES = gates.FIXED_GATES + gates.ROTATION_GATES
ROTATION_GATES = gates.ROTATION_GATES
TWO_QUBIT_GATES = ("CZ", "CNOT", "SWAP")
# The values CompileOptions.scheme and .cz_form accept, the default first.
MESH_SCHEMES = ("clements", "reck")
CZ_FORMS = ("compressed", "swap-sandwich")
# Membership tests on the hot paths ask these sets, not the public tuples.
_SINGLE_QUBIT = frozenset(SINGLE_QUBIT_GATES)
_ROTATIONS = frozenset(ROTATION_GATES)
_TWO_QUBIT = frozenset(TWO_QUBIT_GATES)


class CircuitParseError(ValueError):
    """Raised for structurally invalid circuit descriptions."""


class IllegalCascade(RuntimeError):
    """Raised when two post-selected gates act on the same qubit pair."""


class PlacementOverflow(RuntimeError):
    """Raised when a program does not fit the requested mesh."""


class GateOp(NamedTuple):
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None


@dataclass(frozen=True)
class CircuitIR:
    qubit_count: int
    gates: tuple[GateOp, ...]


@dataclass(frozen=True)
class CompileOptions:
    """Knobs for circuit compilation.

    ``scheme`` selects the mesh geometry (``"clements"`` rectangular or
    ``"reck"`` triangular).  ``cz_form`` picks the CZ realization:
    ``"compressed"`` (swap, coupling layer, swap; 3 layers) or
    ``"swap-sandwich"`` (the same network with the mode relabeling spelled
    out as two crossings per side; 5 layers).  ``restore_swaps`` routes
    qubits back to their home triplets after each two-qubit gate.
    ``place`` assigns the program to a ``3n``-mode mesh; a universal mesh
    has a fixed column budget, so deep circuits can overflow it - disable
    placement when only the program is needed (simulation does this).
    """

    scheme: str = MESH_SCHEMES[0]
    cz_form: str = CZ_FORMS[0]
    restore_swaps: bool = True
    place: bool = True


class PlacedBlock(NamedTuple):
    column: int
    top_mode: int
    setting: MziSetting
    role: str


class TruncationMark(NamedTuple):
    """Truncation of ``modes`` between mesh columns ``after_column`` and
    ``after_column + 1`` (-1 means before the first column)."""

    after_column: int
    modes: tuple[int, ...]


@dataclass(frozen=True)
class MeshAssignment:
    """A program's placed blocks and truncation marks on the mesh that
    ``scheme`` and ``mode_count`` fix (:func:`column_tops`); no grid is stored."""

    scheme: str
    mode_count: int
    placements: tuple[PlacedBlock, ...]
    truncations: tuple[TruncationMark, ...]

    def tops_by_column(self) -> list[range]:
        """Each column's block tops (:func:`column_tops`), one per column."""
        m = self.mode_count
        return [column_tops(self.scheme, m, c) for c in range(column_count(self.scheme, m))]

    def slots(self) -> Iterator[tuple[int, int, MziSetting, str]]:
        """``(column, top_mode, setting, role)`` of every slot, column by
        column; unused slots carry the identity setting and the role ``"ID"``."""
        assigned = {(p.column, p.top_mode): (p.setting, p.role) for p in self.placements}
        for col, tops in enumerate(self.tops_by_column()):
            for top in tops:
                yield (col, top, *assigned.get((col, top), (IDENTITY_SETTING, "ID")))

    def phase_table(self) -> dict:
        """JSON-ready phase table of the placed slots, sorted by
        ``(column, top_mode)``.  Every other slot of ``columns`` is parked at
        ``idle``, the identity setting, and is not listed, so the table
        still fixes every slot's phases (:meth:`slots` is the full walk).

        The placements sort as tuples: :func:`place_in_mesh` gives each
        ``(column, top_mode)`` slot at most one block, so no two placements
        tie there and their settings are never compared.  A slot of an
        extended setting (``phi3`` set) lists ``phi3`` and ``phi4`` after
        ``role``."""
        idle = IDENTITY_SETTING
        slots = []
        append = slots.append
        for column, top, setting, role in sorted(self.placements):
            theta1, theta2, phi1, phi2, phi3, phi4 = setting
            entry = {
                "column": column,
                "top_mode": top,
                "theta1": theta1,
                "theta2": theta2,
                "phi1": phi1,
                "phi2": phi2,
                "role": role,
            }
            if phi3 is not None:
                entry["phi3"] = phi3
                entry["phi4"] = phi4
            append(entry)
        return {
            "scheme": self.scheme,
            "mode_count": self.mode_count,
            "columns": [list(tops) for tops in self.tops_by_column()],
            "idle": {
                "theta1": idle.theta1,
                "theta2": idle.theta2,
                "phi1": idle.phi1,
                "phi2": idle.phi2,
            },
            "slots": slots,
            "truncations": [
                {"after_column": t.after_column, "modes": list(t.modes)}
                for t in self.truncations
            ],
        }


@dataclass(frozen=True)
class CompileResult:
    program: NetworkProgram
    assignment: MeshAssignment | None
    positions: tuple[int, ...]
    flips: tuple[int, ...]
    forest: bool  # the forest certificate; see the module docstring


@dataclass(frozen=True)
class SimulationResult:
    """``sparse_amplitudes`` is the decoded logical state as
    ``{basis index: amplitude}``, one entry per projected term in ascending
    index order (see :func:`decode_logical`); absent basis states have
    amplitude 0.  :attr:`amplitudes` is the dense ``2**n`` vector, built on
    each access.  Rerun ``fock.run_program`` on ``compile_result.program``
    for the full Fock state."""

    sparse_amplitudes: dict[int, complex]
    success_probability: float
    compile_result: CompileResult

    @property
    def amplitudes(self) -> np.ndarray:
        """Dense state vector, qubit 0 the most significant bit; built on
        each access, so it costs ``2**n`` memory only for a caller who asks."""
        return fock.dense_amplitudes(
            self.sparse_amplitudes, len(self.compile_result.positions)
        )


def parse_circuit(data) -> CircuitIR:
    """Validate a circuit dict ``{"qubits": n, "gates": [...]}``.

    Gate entries: ``{"g": "H", "q": 0}``, ``{"g": "RZ", "q": 0, "angle": x}``,
    ``{"g": "CNOT", "c": 0, "t": 1}``, ``{"g": "CZ", "c": 0, "t": 1}``,
    ``{"g": "SWAP", "a": 0, "b": 1}``.
    """
    if not isinstance(data, dict):
        raise CircuitParseError("circuit must be a JSON object")
    qubits = data.get("qubits")
    if not isinstance(qubits, int) or isinstance(qubits, bool) or qubits < 1:
        raise CircuitParseError(f"'qubits' must be a positive integer, got {qubits!r}")
    raw_gates = data.get("gates", [])
    if not isinstance(raw_gates, list):
        raise CircuitParseError("'gates' must be a list")

    def index(entry: dict, key: str) -> int:
        v = entry.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < qubits:
            raise CircuitParseError(
                f"gate {entry.get('g')!r}: {key!r} must be a qubit index in "
                f"[0, {qubits}), got {v!r}"
            )
        return v

    ops: list[GateOp] = []
    op = tuple.__new__  # what GateOp._make calls, without the call
    for entry in raw_gates:
        if not isinstance(entry, dict) or "g" not in entry:
            raise CircuitParseError(f"gate entry must be an object with 'g': {entry!r}")
        name = str(entry["g"]).upper()
        if name in _SINGLE_QUBIT:
            q = index(entry, "q")
            angle = entry.get("angle")
            if name in _ROTATIONS:
                if not isinstance(angle, (int, float)) or isinstance(angle, bool):
                    raise CircuitParseError(f"{name} needs a numeric 'angle'")
                try:
                    angle = float(angle)
                except OverflowError:  # an integer beyond float range
                    angle = math.inf
                if not math.isfinite(angle):  # json.load reads NaN and Infinity
                    raise CircuitParseError(f"{name} needs a finite 'angle'")
            elif angle is not None:
                raise CircuitParseError(f"{name} takes no 'angle'")
            ops.append(op(GateOp, (name, (q,), angle)))
        elif name in _TWO_QUBIT:
            keys = ("a", "b") if name == "SWAP" else ("c", "t")
            a, b = index(entry, keys[0]), index(entry, keys[1])
            if a == b:
                raise CircuitParseError(f"{name} needs two distinct qubits")
            if entry.get("angle") is not None:
                raise CircuitParseError(f"{name} takes no 'angle'")
            ops.append(op(GateOp, (name, (a, b), None)))
        else:
            raise CircuitParseError(f"unknown gate {entry['g']!r}")
    return CircuitIR(qubits, tuple(ops))


def bell_circuit() -> CircuitIR:
    return CircuitIR(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1))))


def ghz_chain_circuit(n: int) -> CircuitIR:
    """H on qubit 0 followed by a CNOT chain (0,1), (1,2), ..."""
    if n < 2:
        raise ValueError("GHZ chain needs at least 2 qubits")
    ops = [GateOp("H", (0,))]
    ops += [GateOp("CNOT", (q, q + 1)) for q in range(n - 1)]
    return CircuitIR(n, tuple(ops))


def column_count(scheme: str, mode_count: int) -> int:
    """Columns of the ``scheme`` mesh on ``mode_count`` modes: ``m`` for
    Clements, ``max(0, 2m - 3)`` for Reck; raises for an unknown scheme."""
    if scheme == "clements":
        return mode_count
    if scheme == "reck":
        return max(0, 2 * mode_count - 3)
    raise ValueError(f"unknown mesh scheme {scheme!r}")


def column_tops(scheme: str, mode_count: int, column: int) -> range:
    """Block top modes of ``column``: ``low, low + 2, ..., m - 2``, where
    ``low`` is ``column % 2`` (Clements) or ``|m - 2 - column|`` (Reck).
    Like :func:`top_span`, it trusts ``scheme``; :func:`column_count` checks it."""
    m = mode_count
    low = column % 2 if scheme == "clements" else abs(m - 2 - column)
    return range(low, m - 1, 2)


def top_span(scheme: str, mode_count: int, top: int) -> tuple[int, int]:
    """``(first, last)``: ``top`` has a slot in every other column from
    ``first`` to ``last``, the other side's view of :func:`column_tops`."""
    m = mode_count
    if scheme == "clements":
        return top % 2, m - 1 - (m - 1 - top) % 2
    return m - 2 - top, m - 2 + top


def place_in_mesh(program: NetworkProgram, scheme: str) -> MeshAssignment:
    """Greedy earliest-column placement of a program's blocks in the
    ``scheme`` mesh on the program's ``mode_count`` modes.

    Blocks are placed in program order, each step's in the order it holds
    them, and ``placements`` lists them in that order.  Each block goes into
    the first column that has a slot at its top mode and is not earlier
    than any previously placed block sharing one of its modes; the blocks
    of one step, a whole gate network, spread over several columns.  The
    compiler's networks hold each mesh layer's blocks disjoint and in
    ascending top order, so a layer's blocks land as they would sorted.
    Truncation steps become column markers and act as barriers on their
    modes.  A block finds its column in O(1) from its top's :func:`top_span`,
    so placement costs O(placements + m).

    :class:`PlacementOverflow` is raised for a block that finds no column
    and, before any span is read, for a block or truncation with a mode
    outside ``0 .. mode_count - 1``: a block above mode 0 or below the last
    mode has no slot, and a truncation there has no waveguide.  A truncation
    of no modes marks nothing and raises ``ValueError``.
    """
    mode_count = program.mode_count
    column_count(scheme, mode_count)  # validate the scheme
    spans = [top_span(scheme, mode_count, top) for top in range(mode_count - 1)]
    tops = len(spans)  # a block's top is in range(tops)
    free = [0] * mode_count
    placements: list[PlacedBlock] = []
    truncations: list[TruncationMark] = []
    place = placements.append
    new = tuple.__new__  # what PlacedBlock._make calls, without the call
    for i, step in enumerate(program.steps):
        if isinstance(step, TruncateAux):
            modes = tuple(step.modes)
            if not modes:
                raise ValueError(
                    f"step {i} truncates no modes, which marks nothing on the "
                    f"{scheme} mesh on {mode_count} modes"
                )
            if not all(0 <= m < mode_count for m in modes):
                raise PlacementOverflow(
                    f"truncation at modes ({', '.join(map(str, modes))}) does "
                    f"not fit the {scheme} mesh on {mode_count} modes"
                )
            barrier = max(free[m] for m in modes)  # no later block on modes
            truncations.append(TruncationMark(barrier - 1, modes))
            for m in modes:
                free[m] = barrier
            continue
        if not isinstance(step, LinearLayer):
            raise TypeError(f"unknown program step {type(step).__name__}")
        off = step.offset
        for blk in step.blocks:
            lo = blk.top_mode + off
            hi = lo + 1
            if 0 <= lo < tops:
                first, last = spans[lo]
                col = free[lo]
                if free[hi] > col:
                    col = free[hi]
                if first > col:
                    col = first
                col += (col - first) % 2  # the next column with a slot at lo
                if col <= last:
                    place(new(PlacedBlock, (col, lo, blk.setting, blk.role)))
                    free[lo] = free[hi] = col + 1
                    continue
            raise PlacementOverflow(
                f"block at modes ({lo}, {hi})"
                + (f" [{step.label}]" if step.label else "")
                + f" does not fit the {scheme} mesh on {mode_count} modes"
            )
    return MeshAssignment(
        scheme=scheme,
        mode_count=mode_count,
        placements=tuple(placements),
        truncations=tuple(truncations),
    )


def assignment_program(assignment: MeshAssignment) -> NetworkProgram:
    """Rebuild a runnable program from mesh phases alone.

    Every slot of every column becomes a block with its stored setting
    (identity for unused slots), so running this program checks that the
    placed phase table - not the original gate layers - reproduces the
    intended physics.
    """
    trunc_after: dict[int, list[TruncationMark]] = {}
    steps: list[LinearLayer | TruncateAux] = []
    for mark in assignment.truncations:
        if mark.after_column < 0:
            steps.append(TruncateAux(mark.modes))
        else:
            trunc_after.setdefault(mark.after_column, []).append(mark)
    m = assignment.mode_count
    columns: list[list[MeshBlock]] = [[] for _ in assignment.tops_by_column()]
    for col, top, setting, role in assignment.slots():
        columns[col].append(MeshBlock(top, setting, role))
    for col, blocks in enumerate(columns):
        steps.append(LinearLayer(m, tuple(blocks), label=f"column{col}"))
        for mark in trunc_after.get(col, ()):
            steps.append(TruncateAux(mark.modes))
    return NetworkProgram(m, tuple(steps))


def enumerate_placements(pattern, scheme: str, mode_count: int) -> int:
    """Count the placements of a layered block pattern in a mesh.

    ``pattern`` is a gate descriptor or a sequence of layers, each layer a
    sequence of block top modes.  Counted are (a) rigid placements - all
    layers in consecutive columns, layer ``i`` entirely inside column
    ``start + i`` - and (b) for a single layer spanning the full width of
    a rectangular mesh, the two staircase families where consecutive
    blocks step one column pair up or down.  The staircases exist because
    full-width layers of crossings commute block by block; meshes with a
    triangular profile do not admit them.  No column is built: membership
    is a range test on :func:`column_tops`.
    """
    if isinstance(pattern, gates.GateDescriptor):
        layers = [[blk.top_mode for blk in layer] for layer in pattern.mzi_layers]
    else:
        layers = [list(layer) for layer in pattern]
    if not layers:
        raise ValueError("pattern has no layers")
    columns = column_count(scheme, mode_count)
    count = 0
    for start in range(columns - len(layers) + 1):
        if all(
            top in column_tops(scheme, mode_count, start + i)
            for i, layer in enumerate(layers)
            for top in layer
        ):
            count += 1
    if (
        scheme == "clements"
        and len(layers) == 1
        and sorted(layers[0]) == list(column_tops(scheme, mode_count, 0))
        and len(layers[0]) > 1
    ):
        starts = range(0, columns - 2 * (len(layers[0]) - 1), 2)
        count += 2 * len(starts)  # one ascending + one descending staircase each
    return count


# The networks and fixed devices below never change, so each is built and
# solved once per process.  A cached network is one tuple of frozen blocks in
# application order: layer by layer, each layer's blocks disjoint and in
# ascending top order.  Every emission of it is one program step that holds
# that tuple (gates.layers_to_steps).


@functools.cache
def _swap2_layers() -> tuple[MeshBlock, ...]:
    """Blocks of the ``SWAP2`` network."""
    return gates.swap_networks()["SWAP2"].blocks


@functools.cache
def _cz_layers(cz_form: str) -> tuple[MeshBlock, ...]:
    """Blocks of the CZ network in ``cz_form`` (see :class:`CompileOptions`)."""
    if cz_form == "compressed":
        return gates.cz_ps_regular().blocks
    if cz_form == "swap-sandwich":
        x = gates.device_block
        bar = gates.cz_ps_nonregular().blocks
        return (
            (x(3, gates.PAULI_X, "X"), x(4, gates.PAULI_X, "X"))
            + bar
            + (x(4, gates.PAULI_X, "X"), x(3, gates.PAULI_X, "X"))
        )
    raise ValueError(f"unknown cz_form {cz_form!r}")


def _gate_layers(
    name: str, angle: float | None, flipped: bool
) -> tuple[MeshBlock, ...]:
    """The one block of a single-qubit gate on a rail pair at mode 0,
    conjugated by X when the qubit's rails are ``flipped``: an exact
    permutation of the gate's entries, ``(X g X)[j][k] = g[1-j][1-k]``."""
    (g00, g01), (g10, g11) = gates.single_qubit_entries(name, angle)
    role = name if angle is None else f"{name}({angle:g})"
    if flipped:
        (g00, g01), (g10, g11) = (g11, g10), (g01, g00)
        role += "*"
    return (gates.device_block(0, ((g00, g01), (g10, g11)), role),)


@functools.cache
def _fixed_gate_layers(name: str, flipped: bool) -> tuple[MeshBlock, ...]:
    """:func:`_gate_layers` of a gate without an angle, solved once."""
    return _gate_layers(name, None, flipped)


@functools.cache
def _post_selected_form(cz_form: str, h_top: int | None) -> fock.PostSelectedGate:
    """The gate form of a CZ (``h_top`` None) or of a CNOT whose target's
    rails start at window mode ``h_top``: the CZ network, for a CNOT between
    two H blocks on those rails, as one block tuple.  Built once per form,
    so a certified fold builds each form's rule once per process."""
    if h_top is None:
        return fock.PostSelectedGate(_cz_layers(cz_form))
    (h,) = _fixed_gate_layers("H", False)
    h = replace(h, top_mode=h_top)
    return fock.PostSelectedGate((h, *_cz_layers(cz_form), h))


class _Emitter:
    """Accumulates program steps while tracking qubit positions and flips.

    It also certifies forest-ness: a union-find over photons, each tracked
    by the qubit label that holds it, ``photon_of[q]``.  A routing or
    restore swap moves a label together with its photon, so it leaves
    ``photon_of`` alone; a logical SWAP moves the photons but not the
    labels, so it exchanges its operands' entries.  Every post-selected
    gate (:meth:`post_selected_gate`) joins its two operands' photons.  A
    gate whose photons already share a root closes a cycle, or repeats a
    photon pair, and clears ``forest``.
    """

    def __init__(self, qubit_count: int, options: CompileOptions):
        self.m = 3 * qubit_count
        self.options = options
        self.steps: list[LinearLayer | TruncateAux] = []
        self.positions = list(range(qubit_count))
        self.qubit_at = list(range(qubit_count))
        self.flips = [0] * qubit_count
        self._entangled: set[frozenset[int]] = set()  # qubit pairs that had a CZ or CNOT
        self.photon_of = list(range(qubit_count))
        self.component = list(range(qubit_count))
        self.forest = True

    def emit(self, blocks: tuple[MeshBlock, ...], offset: int, label: str) -> None:
        """Append one network, ``blocks`` at ``offset``, as one program step."""
        self.steps.append(gates.layers_to_steps(blocks, self.m, offset, label))

    def _root(self, photon: int) -> int:
        while self.component[photon] != photon:
            photon = self.component[photon]
        return photon

    def physical_swap(self, p: int, label: str) -> None:
        """SWAP2 between triplets ``p`` and ``p+1``; both photons rail-flip."""
        self.emit(_swap2_layers(), 3 * p, label)
        qa, qb = self.qubit_at[p], self.qubit_at[p + 1]
        self.qubit_at[p], self.qubit_at[p + 1] = qb, qa
        self.positions[qa], self.positions[qb] = p + 1, p
        self.flips[qa] ^= 1
        self.flips[qb] ^= 1

    def route_adjacent(self, a: int, b: int) -> list[int]:
        """Move the higher of the two carriers next to the lower one."""
        lo = min(self.positions[a], self.positions[b])
        hi = max(self.positions[a], self.positions[b])
        swaps = []
        for p in range(hi - 1, lo, -1):
            self.physical_swap(p, f"route q{a}-q{b}")
            swaps.append(p)
        return swaps

    def unflip(self, q: int) -> None:
        if not self.flips[q]:
            return
        top = 3 * self.positions[q] + 1
        self.emit(_fixed_gate_layers("X", False), top, f"unflip q{q}")
        self.flips[q] = 0

    def single_gate(self, op: GateOp) -> None:
        """Emit a single-qubit gate; rotations are solved per gate, the
        fixed gates come from :func:`_fixed_gate_layers`."""
        q = op.qubits[0]
        flipped = bool(self.flips[q])
        if op.angle is None:
            blocks = _fixed_gate_layers(op.name, flipped)
        else:
            blocks = _gate_layers(op.name, op.angle, flipped)
        top = 3 * self.positions[q] + 1
        self.emit(blocks, top, f"{op.name} q{q}")

    def post_selected_gate(self, name: str, a: int, b: int) -> None:
        """Emit ``CZ`` or ``CNOT`` (target ``b``) on the adjacent qubits ``a``
        and ``b`` as they stand: the cached gate form, its whole network with
        a CNOT's two H blocks, as one step's blocks at the pair's window,
        then the truncation of the window's aux modes, and join the gate's
        two photons.  A certified fold applies such a step and its
        truncation as one rule (:class:`fock.PostSelectedGate`)."""
        lo = min(self.positions[a], self.positions[b])
        h_top = 1 if self.positions[b] == lo else 4  # the target's rails
        gate = _post_selected_form(self.options.cz_form, h_top if name == "CNOT" else None)
        self.emit(gate, 3 * lo, f"{name} q{a}-q{b}")
        self.steps.append(TruncateAux((3 * lo, 3 * lo + 3)))
        ra, rb = self._root(self.photon_of[a]), self._root(self.photon_of[b])
        if ra == rb:
            self.forest = False
        self.component[ra] = rb

    def two_qubit_gate(self, op: GateOp) -> None:
        a, b = op.qubits
        post_selected = op.name in ("CZ", "CNOT")
        if post_selected:
            pair = frozenset((a, b))
            if pair in self._entangled:
                raise IllegalCascade(
                    f"qubits {a} and {b} already shared a post-selected gate; "
                    "cascading a second one breaks the success accounting"
                )
            self._entangled.add(pair)
        swaps = self.route_adjacent(a, b)
        if post_selected:
            self.unflip(a)
            self.unflip(b)
            self.post_selected_gate(op.name, a, b)
        else:  # logical SWAP
            lo = min(self.positions[a], self.positions[b])
            self.emit(_swap2_layers(), 3 * lo, f"SWAP q{a}-q{b}")
            # The photons exchange carriers and rail-flip; the logical labels
            # stay with their positions, so the photons and flips cross over.
            fa, fb = self.flips[a], self.flips[b]
            self.flips[a], self.flips[b] = fb ^ 1, fa ^ 1
            of = self.photon_of
            of[a], of[b] = of[b], of[a]
        if self.options.restore_swaps:
            for p in reversed(swaps):
                self.physical_swap(p, f"restore q{a}-q{b}")

    def result(self) -> CompileResult:
        program = NetworkProgram(self.m, tuple(self.steps))
        assignment = None
        if self.options.place:
            assignment = place_in_mesh(program, self.options.scheme)
        return CompileResult(
            program=program,
            assignment=assignment,
            positions=tuple(self.positions),
            flips=tuple(self.flips),
            forest=self.forest,
        )


def compile_circuit(
    circuit: CircuitIR, options: CompileOptions | None = None
) -> CompileResult:
    """Lower a circuit to a mesh program plus the final waveguide relabeling.

    The returned program acts on ``3 * qubit_count`` modes.  Measurement
    amplitudes must be decoded through ``positions``/``flips`` (see
    :func:`decode_logical`); :func:`simulate_circuit` does this.
    """
    options = options or CompileOptions()
    # Refuse an unknown scheme or cz_form up front, whatever the gates.
    column_count(options.scheme, 0)
    _cz_layers(options.cz_form)
    em = _Emitter(circuit.qubit_count, options)
    for op in circuit.gates:
        if op.name in _SINGLE_QUBIT:
            em.single_gate(op)
        elif op.name in _TWO_QUBIT:
            em.two_qubit_gate(op)
        else:
            raise CircuitParseError(f"unknown gate {op.name!r}")
    return em.result()


def compile_ghz_swap_variant(
    options: CompileOptions | None = None,
) -> CompileResult:
    """Three-qubit GHZ in star form with an explicit routing swap left in.

    The circuit is H(0), CNOT(0,1), CNOT(0,2).  Qubit 2 is brought next to
    qubit 0 with one ``SWAP2`` and deliberately *not* routed back, so the
    output arrives in the permuted order with qubits 1 and 2 rail-flipped;
    ``positions = (0, 2, 1)`` and ``flips = (0, 1, 1)`` describe exactly
    that relabeling.  No X correction is inserted before the second CNOT:
    a rail flip on the *target* commutes through a CNOT, which is what
    makes this variant cheap.

    The program is deeper than one pass of a 9-mode universal mesh, so no
    mesh assignment is produced.
    """
    options = replace(options or CompileOptions(), place=False)
    em = _Emitter(3, options)
    em.single_gate(GateOp("H", (0,)))
    # CNOT(0, 1) on triplets 0-1
    em.post_selected_gate("CNOT", 0, 1)
    # route qubit 2 next to qubit 0; stays there
    em.physical_swap(1, "route q2")
    # CNOT(0, 2): target q2 now at triplet 1, rail-flipped - no correction
    em.post_selected_gate("CNOT", 0, 2)
    return em.result()


def simulate_circuit(
    circuit: CircuitIR,
    input_bits="",
    options: CompileOptions | None = None,
) -> SimulationResult:
    """Compile and run a circuit on a computational basis input.

    ``input_bits`` defaults to all zeros.  Amplitudes are normalized and
    kept sparse (see :class:`SimulationResult`); ``success_probability``
    is the chance that all post-selections succeed and the photons come
    out in qubit structure.  Simulation runs the program directly and skips
    mesh placement, so circuit depth is not limited by a mesh column budget
    here.  A certified program (``result.forest``) folds on one bit per
    photon (:func:`fock.run_certified`), any other through the light cone
    (:func:`fock.run_program_pruned`); both refuse the same bad input.
    """
    result = compile_circuit(circuit, replace(options or CompileOptions(), place=False))
    if input_bits == "":
        input_bits = "0" * circuit.qubit_count
    if result.forest:
        amps, prob = fock.run_certified(result.program, input_bits, result.positions, result.flips)
    else:
        state = fock.prepare_computational_basis(input_bits, circuit.qubit_count)
        final = fock.run_program_pruned(result.program, state)
        projected = fock.project_qubit_structure(final)
        amps, prob = decode_logical(projected, result.positions, result.flips)
    return SimulationResult(
        sparse_amplitudes=amps, success_probability=prob, compile_result=result
    )

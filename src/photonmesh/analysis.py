"""Numerical feasibility studies for post-selected gates.

Two results are probed here:

* A post-selected CZ needs auxiliary modes.  On a bare 4-mode network
  (two rail pairs, nothing else) the two-photon conditional map can only
  be proportional to CZ if the single-photon matrix takes a constrained
  form, and no member of that family is proportional to a unitary -
  :func:`cz_constraint_residual` measures the obstruction, and
  :func:`search_cz_in_4x4` hunts for counterexamples over the full
  mesh parameter space and (deliberately) fails to find any.
* The n-qubit GHZ chain built from post-selected CNOTs succeeds with
  probability ``9**(1 - n)``; :func:`ghz_probability_scan` measures it.

The search scores a stack of K candidates at once in a batch-last layout:
the MZI blocks, mesh unitaries and conditional maps are ``(2, 2, ...)`` or
``(4, 4, K)`` arrays in memory, one 1-D array per matrix entry, and every
step from the blocks to the trace is an elementwise numpy product or sum.
The functions still take and return ``(K, 16)`` parameters and
``(K, 4, 4)`` stacks, as views of that layout.  No matrix product is made
on the walked path, so no BLAS kernel can change its rounding.

The descent runs its restarts in lockstep ticks.  A tick scores, as one
stack, both signs of the next ``_WINDOW`` coordinates of each active
restart's sweep.  Each restart caches the six MZI blocks and four output
phase factors of its current point, so a candidate computes only the one
block or factor it changes, and the mesh product runs from those parts.
Between ticks the bookkeeping is plain Python: per-restart lists, and the
batch's scores read back as Python floats.  Every part is elementwise, so
none of this changes a bit of the walked path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compiler

CZ_TARGET = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

# Mesh slot pattern (column, top mode) of a rectangular 4-mode mesh; six
# MZIs plus four output phases parameterize all of U(4).
_SLOT_TOPS = (0, 2, 1, 0, 2, 1)

# Input/output rail modes per two-qubit basis state: qubit 0 on modes
# (0, 1), qubit 1 on modes (2, 3).
_MODE_A = (0, 0, 1, 1)
_MODE_B = (2, 3, 2, 3)

# Flat indices into a row-major 4x4 unitary of the four factors of each
# two-photon permanent: entry [i, j] of the (transposed) conditional map
# is ``u[f0] * u[f1] + u[f2] * u[f3]``.  Built in plain Python: numpy
# array arithmetic here, at import, raised the peak memory of every CLI
# process by about 0.1 MB, searches or not.
_PERM_FACTORS = np.array(
    [
        [4 * rows[i] + cols[j] for i in range(4) for j in range(4)]
        for rows, cols in (
            (_MODE_A, _MODE_A),
            (_MODE_B, _MODE_B),
            (_MODE_A, _MODE_B),
            (_MODE_B, _MODE_A),
        )
    ]
)

_SUCCESS_FLOOR = 1e-6


@dataclass(frozen=True)
class FeasibilityReport:
    restarts: int
    best_process_fidelity: float
    best_success_probability: float
    best_parameters: tuple[float, ...]
    constraint_residual: float


def constrained_family(gamma11: complex, gamma23: complex, c: complex) -> np.ndarray:
    """The only 4x4 single-photon matrix shape whose conditional two-photon
    map is proportional to CZ, up to the free parameters shown."""
    g11, g23, c = complex(gamma11), complex(gamma23), complex(c)
    if min(abs(g11), abs(g23), abs(c)) < 1e-12:
        raise ValueError("family parameters must be nonzero")
    return np.array(
        [
            [g11, 0, 0, 0],
            [0, -g11, g23, 0],
            [0, 2 * c / g23, c / g11, 0],
            [0, 0, 0, c / g11],
        ],
        dtype=complex,
    )


def cz_constraint_residual(gamma11, gamma23, c) -> float | np.ndarray:
    """Distance of the constrained family from (a multiple of) a unitary.

    Returns ``min over s > 0`` of ``max |s^2 M^dag M - I|`` for the family
    matrix ``M``.  The inner expression is convex in ``s^2``, so a ternary
    search is exact; a strictly positive residual means no scaling of
    ``M`` is unitary, hence no post-selected CZ at any success probability
    on a bare 4-mode network with these parameters.

    The arguments broadcast: scalars give a float, arrays give an array of
    their broadcast shape whose entries equal the scalar calls, as every
    sample runs the same ternary search in one ``np.where`` step.  The
    search stops at its fixed point, the first step that moves neither
    end of any sample's bracket, or after 300 steps; every later step
    would repeat that one, so the result is the 300-step result.
    """
    args = np.broadcast_arrays(
        *(np.asarray(x, dtype=complex) for x in (gamma11, gamma23, c))
    )
    shape = args[0].shape
    flat = zip(*(a.ravel() for a in args))
    m = np.array([constrained_family(*p) for p in flat]).reshape(-1, 4, 4)
    gram = np.matmul(m.conj().swapaxes(1, 2), m).reshape(-1, 16)
    eye = np.eye(4).ravel()

    def deviation(s2: np.ndarray) -> np.ndarray:
        return np.abs(s2[:, None] * gram - eye).max(axis=1)

    lo, hi = np.full(len(m), 1e-9), np.full(len(m), 1e9)
    for _ in range(300):
        a = lo + (hi - lo) / 3.0
        b = hi - (hi - lo) / 3.0
        left = deviation(a) <= deviation(b)
        next_lo, next_hi = np.where(left, lo, a), np.where(left, b, hi)
        # A step that moves neither end repeats itself from here on.
        if np.array_equal(next_lo, lo) and np.array_equal(next_hi, hi):
            break
        lo, hi = next_lo, next_hi
    out = deviation(0.5 * (lo + hi)).reshape(shape)
    return float(out) if out.ndim == 0 else out


def _mzi2(theta, phi) -> np.ndarray:
    """Closed form of the plain MZI at (theta1, theta2, phi1, phi2) =
    (theta, 0, phi, 0), broadcast over ``theta`` and ``phi``: the blocks
    have their shape plus a trailing ``(2, 2)``.  In memory the block
    entries come first, each a contiguous array of that shape."""
    half = np.asarray(theta, dtype=float) / 2.0
    pref = 1j * np.exp(1j * half)
    eip = np.exp(1j * np.asarray(phi, dtype=float))
    s, c = np.sin(half), np.cos(half)
    blk = np.empty((2, 2) + np.broadcast(half, eip).shape, dtype=complex)
    np.multiply(s, eip, out=blk[0, 0, ...])
    blk[0, 1] = c
    np.multiply(c, eip, out=blk[1, 0, ...])
    np.negative(s, out=blk[1, 1, ...])
    # Prefactor first: numpy's complex loops round ``blk * pref`` differently.
    np.multiply(pref, blk, out=blk)
    return blk.transpose(*range(2, blk.ndim), 0, 1)


def _mesh_parts(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The MZI blocks and output phase factors of a ``(K, 16)`` parameter
    stack, batch-last: blocks ``(2, 2, 6, K)``, block ``b`` at coordinates
    ``(2b, 2b + 1)``, and phase factors ``(4, K)``, factor ``q`` at
    coordinate ``12 + q``.  Both are C-contiguous, one 1-D array per
    entry."""
    p = np.asarray(params, dtype=float).T
    blocks = _mzi2(p[0:12:2], p[1:12:2]).transpose(2, 3, 0, 1)
    return blocks, np.exp(1j * p[12:16])


def _mesh_product(blocks: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """``(K, 4, 4)`` mesh unitaries of the parts :func:`_mesh_parts` gives.

    The result is a view of a batch-last ``(4, 4, K)`` array: one 1-D
    array per matrix entry.  Each MZI replaces its two rows ``r0, r1`` by
    ``b00 * r0 + b01 * r1`` and ``b10 * r0 + b11 * r1``, elementwise over
    the batch, so every row of the stack is computed by the same
    arithmetic as a stack of one, and no matrix product is made.  The
    first column's two MZIs act on the identity and are written in
    directly.
    """
    k = blocks.shape[-1]
    u = np.zeros((4, 4, k), dtype=complex)
    u[0:2, 0:2] = blocks[:, :, 0]
    u[2:4, 2:4] = blocks[:, :, 1]
    terms = np.empty((2, 2, 4, k), dtype=complex)
    for idx in range(2, 6):
        rows = u[_SLOT_TOPS[idx] : _SLOT_TOPS[idx] + 2]
        # terms[r, c] = b[r, c] * rows[c]; new row r = terms[r, 0] + terms[r, 1]
        np.multiply(blocks[:, :, idx, None], rows, out=terms)
        np.add(terms[:, 0], terms[:, 1], out=rows)
    np.multiply(phases[:, None], u, out=u)
    return u.transpose(2, 0, 1)


def _conditional_map(u: np.ndarray) -> np.ndarray:
    """``(K, 4, 4)`` two-photon maps between computational basis states of
    a ``(K, 4, 4)`` unitary stack; entry [k, j] is the amplitude from input
    j to output k.  Each entry is a 2x2 permanent of ``u``, taken
    elementwise over the batch; the result is a batch-last view whose
    ``transpose(2, 1, 0)`` is contiguous."""
    k = len(u)
    flat = u.transpose(1, 2, 0).reshape(16, k)
    f0, f1, f2, f3 = _PERM_FACTORS
    raw = flat[f0] * flat[f1]
    raw += flat[f2] * flat[f3]
    return raw.reshape(4, 4, k).transpose(2, 1, 0)


def _sum16(x: np.ndarray) -> np.ndarray:
    """Sum of the 16 rows of ``x`` in the order numpy's pairwise ``np.sum``
    adds 16 contiguous numbers: ``r_i = x_i + x_{i+8}``, then
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``."""
    r = x[:8] + x[8:]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    return r[0] + r[1]


def _power(maps: np.ndarray) -> np.ndarray:
    """``||M||_F^2`` of each map in a ``(K, 4, 4)`` stack.  The squared
    moduli are taken column by column, the order in which
    :func:`_conditional_map` lays out each map, and summed as a plain
    ``np.sum`` over those 16 numbers would, whatever the stack size."""
    return _sum16(np.abs(maps.transpose(2, 1, 0).reshape(16, len(maps))) ** 2)


def process_fidelity(
    m: np.ndarray, target: np.ndarray, *, power: np.ndarray | None = None
) -> float | np.ndarray:
    """``|Tr(T^dag M)|^2 / (4 * ||M||_F^2)``: 1 iff M is proportional to T.

    ``m`` is one 4x4 map (giving a float) or a ``(K, 4, 4)`` stack (giving
    K fidelities, each equal to the call on its slice).  A caller that
    already holds :func:`_power` of the stack passes it as ``power``, so
    it is not computed twice.  The trace is a fixed sequence of
    elementwise products and sums, with no matrix product.
    """
    m = np.asarray(m)
    stack = m if m.ndim == 3 else m[None]
    total = _power(stack) if power is None else power
    # prod[i, j] = conj(T[j, i]) * M[j, i]; row i sums to (T^dag M)[i, i],
    # and the diagonal is summed in pairs, as ``np.trace`` does.
    prod = np.asarray(target).conj().T[:, :, None] * stack.transpose(2, 1, 0)
    diag = ((prod[:, 0] + prod[:, 1]) + prod[:, 2]) + prod[:, 3]
    tr = (diag[0] + diag[1]) + (diag[2] + diag[3])
    # libm hypot and pow, as a Python-scalar ``abs(tr) ** 2`` uses; array
    # ``np.abs`` and ``** 2`` round differently.
    overlap = np.float_power(np.hypot(tr.real, tr.imag), 2)
    fid = np.zeros(len(stack))
    np.divide(overlap, 4.0 * total, out=fid, where=total != 0.0)
    return fid if m.ndim == 3 else float(fid[0])


def _evaluate_parts(
    blocks: np.ndarray, phases: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Process fidelity and mean success probability of each mesh in a
    batch of :func:`_mesh_parts`."""
    maps = _conditional_map(_mesh_product(blocks, phases))
    power = _power(maps)
    return process_fidelity(maps, target, power=power), power / 4.0


def _candidate_parts(blocks, phases, points, owner, coords, values):
    """:func:`_mesh_parts` of K candidates, each one coordinate away from
    a cached point: candidate ``j`` is ``points[owner[j]]`` with
    coordinate ``coords[j]`` set to ``values[j]``, and column ``r`` of
    ``blocks`` and ``phases`` holds the parts of ``points[r]``.

    Only the block or phase factor a candidate changes is computed; the
    rest are copied from its point.  Every part is elementwise, so the
    result equals :func:`_mesh_parts` of the candidate rows bit for bit.
    """
    # ``take`` lays the copies out C-contiguous, as ``_mesh_parts`` does,
    # so entry ``(b, j)`` of a flat view is element ``b * K + j``.
    k = len(owner)
    cols = np.array(owner)
    cand_blocks = blocks.take(cols, axis=3)
    cand_phases = phases.take(cols, axis=1)
    at, theta, phi, phase_at, phase_val = [], [], [], [], []
    for j, (r, i, v) in enumerate(zip(owner, coords, values)):
        if i >= 12:
            phase_at.append((i - 12) * k + j)
            phase_val.append(v)
        elif i % 2:
            at.append(i // 2 * k + j)
            theta.append(points[r][i - 1])
            phi.append(v)
        else:
            at.append(i // 2 * k + j)
            theta.append(v)
            phi.append(points[r][i + 1])
    if at:
        cand_blocks.reshape(2, 2, -1)[:, :, at] = _mzi2(theta, phi).transpose(1, 2, 0)
    if phase_at:
        cand_phases.reshape(-1)[phase_at] = np.exp(1j * np.array(phase_val))
    return cand_blocks, cand_phases


def _score(fid: float, succ: float) -> float:
    return fid if succ > _SUCCESS_FLOOR else fid * (succ / _SUCCESS_FLOOR)


# Coordinates each active restart scores per lockstep tick.  A sweep's
# first improvement usually comes a few coordinates in, so a longer
# window mostly scores candidates the walk never reaches, and a shorter
# one pays the fixed cost of a tick more often.  On the six-seed
# restarts-20 suite, windows of 4 to 8 ran within noise of each other
# and 3 ran about 8% slower.
_WINDOW = 5


def search_cz_in_4x4(
    restarts: int = 200,
    seed: int = 0,
    target: np.ndarray | None = None,
    max_sweeps: int = 200,
) -> FeasibilityReport:
    """Search a universal 4-mode mesh for a post-selected two-qubit gate.

    Seeded multi-restart coordinate descent over the 16 mesh phases,
    maximizing process fidelity to ``target`` (default CZ) among
    configurations whose mean success probability exceeds ``1e-6``.
    Each sweep tries every coordinate at ``+step`` then ``-step``, moves
    to the first candidate that raises the score and goes on with the next
    coordinate from there; a sweep without a move halves the step.
    The report carries the best such configuration over *every* candidate
    the descent walked (each point a sweep tried before it moved on), so a
    negative result means none of them came close.
    ``constraint_residual`` is the smallest family obstruction
    (:func:`cz_constraint_residual`) over 200 seeded parameter samples.
    Deterministic for fixed ``(restarts, seed)``; ``restarts`` must be at
    least 1.

    The restarts run in lockstep.  Each tick scores, in one stack, both
    signs of the next ``_WINDOW`` coordinates of every active restart's
    sweep, then walks each restart's candidates in sweep order: it moves
    at the first one whose score beats its current point, and the ones
    after that are dropped unseen, so each restart walks exactly the path
    it would walk alone.  A restart keeps the six MZI blocks and four
    output phase factors of its current point, so a candidate computes
    only the block or factor its coordinate changes
    (:func:`_candidate_parts`); the bookkeeping between ticks is plain
    Python on Python floats.

    The descent makes no BLAS call: each stack goes through the
    elementwise kernel (:func:`_mesh_product`, :func:`_conditional_map`,
    :func:`process_fidelity`), so the report does not depend on the BLAS
    kernel the host picks.  Only the residual takes one stacked Gram
    product.  The tests pin the walked path (``best_parameters``) and
    ``constraint_residual`` exactly; the last bits of the fidelity and
    success probability follow numpy's own SIMD loops, and are pinned to
    1e-15 relative.
    """
    if restarts < 1:
        raise ValueError("search needs restarts >= 1")
    if target is None:
        target = CZ_TARGET
    target = np.asarray(target, dtype=complex)
    rng = np.random.default_rng(seed)
    # Row r holds the same draws as the r-th of ``restarts`` size-16 draws.
    start = rng.uniform(0.0, 2.0 * np.pi, size=(restarts, 16))
    # Parts of each restart's current point, updated in place on a move.
    blocks, phases = _mesh_parts(start)
    fid, succ = (x.tolist() for x in _evaluate_parts(blocks, phases, target))
    params = start.tolist()

    # Best walked point per restart: its first strict maximum of fidelity
    # among points whose success is above the floor.
    best_fid, best_succ = [0.0] * restarts, [0.0] * restarts
    best_params = [(0.0,) * 16] * restarts
    for r in range(restarts):
        if succ[r] > _SUCCESS_FLOOR and fid[r] > best_fid[r]:
            best_fid[r], best_succ[r], best_params[r] = fid[r], succ[r], tuple(params[r])
    current = [_score(f, s) for f, s in zip(fid, succ)]
    step = [0.8] * restarts
    pos = [0] * restarts
    improved = [False] * restarts
    sweeps = [0] * restarts
    active = list(range(restarts)) if max_sweeps > 0 else []
    while active:
        owner, coords, values = [], [], []
        for r in active:
            row, delta = params[r], step[r]
            for i in range(pos[r], min(pos[r] + _WINDOW, 16)):
                owner += (r, r)
                coords += (i, i)
                values += (row[i] + delta, row[i] - delta)
        cand_blocks, cand_phases = _candidate_parts(blocks, phases, params, owner, coords, values)
        fid, succ = (x.tolist() for x in _evaluate_parts(cand_blocks, cand_phases, target))

        moved, moved_at, still = [], [], []
        first = 0
        for r in active:
            end = min(pos[r] + _WINDOW, 16)
            stop = first + 2 * (end - pos[r])
            pos[r] = end
            for j in range(first, stop):
                i, f, s = coords[j], fid[j], succ[j]
                if s > _SUCCESS_FLOOR and f > best_fid[r]:
                    point = params[r][:i] + [values[j]] + params[r][i + 1 :]
                    best_fid[r], best_succ[r], best_params[r] = f, s, tuple(point)
                sc = _score(f, s)
                if sc > current[r]:
                    # The first improvement: the walk moves, and the
                    # candidates after it were speculative.
                    params[r] = params[r][:i] + [values[j]] + params[r][i + 1 :]
                    current[r], improved[r], pos[r] = sc, True, i + 1
                    moved.append(r)
                    moved_at.append(j)
                    break
            first = stop

            # End of sweep: halve the step unless it moved, stop below 1e-4.
            if pos[r] == 16:
                sweeps[r] += 1
                if not improved[r]:
                    step[r] *= 0.5
                    if step[r] < 1e-4:
                        continue
                if sweeps[r] >= max_sweeps:
                    continue
                pos[r], improved[r] = 0, False
            still.append(r)
        for r, j in zip(moved, moved_at):
            blocks[..., r] = cand_blocks[..., j]
            phases[:, r] = cand_phases[:, j]
        active = still

    # Restarts merge in order with a strict ``>``: the first best wins.
    winner = max(range(restarts), key=best_fid.__getitem__)

    samples = []
    sample_rng = np.random.default_rng(seed)
    while len(samples) < 200:
        vals = sample_rng.uniform(-2.0, 2.0, size=6)
        g11 = complex(vals[0], vals[1])
        g23 = complex(vals[2], vals[3])
        c = complex(vals[4], vals[5])
        if min(abs(g11), abs(g23), abs(c)) < 1e-3:
            continue
        samples.append((g11, g23, c))
    residual = np.min(cz_constraint_residual(*np.array(samples).T))

    return FeasibilityReport(
        restarts=restarts,
        best_process_fidelity=best_fid[winner],
        best_success_probability=best_succ[winner],
        best_parameters=best_params[winner],
        constraint_residual=float(residual),
    )


def ghz_probability_scan(n_max: int) -> list[tuple[int, float]]:
    """Success probability of the GHZ chain for 2..n_max qubits.

    Each of the ``n - 1`` post-selected CNOTs multiplies the success
    probability by 1/9, giving ``9**(1 - n)``.
    """
    if n_max < 2:
        raise ValueError("scan needs n_max >= 2")
    out = []
    for n in range(2, n_max + 1):
        sim = compiler.simulate_circuit(compiler.ghz_chain_circuit(n), "0" * n)
        out.append((n, sim.success_probability))
    return out

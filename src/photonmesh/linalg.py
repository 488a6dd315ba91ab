"""Matrix building blocks for Mach-Zehnder-interferometer (MZI) meshes.

This module provides MZI settings and their 2x2 device unitaries, the solve
of a 2x2 unitary back into MZI phases, embedding of 2x2 blocks into larger
mode spaces, matrix permanents, and small comparison utilities used
throughout the package.

An MZI's unitary and the solve of a 2x2 unitary back into MZI phases are
computed in Python scalars with :mod:`math`, entry by entry: no numpy call
and no BLAS product, so the compiler's phases and the simulator's devices
come out the same on every host and under any BLAS kernel.

Conventions
-----------
* A symmetric beam splitter with transmissivity ``t`` and reflectivity
  ``r`` (``t^2 + r^2 = 1``) acts on a mode pair as ``[[t, i*r], [i*r, t]]``.
* An MZI is two balanced beam splitters with an internal phase-shifter
  pair ``(theta1, theta2)`` between them and an input pair
  ``(phi1, phi2)`` before them:

      U = BS . PS(theta1, theta2) . BS . PS(phi1, phi2)

  Up to a global phase only the differences ``theta1 - theta2`` and
  ``phi1 - phi2`` matter.
* The extended MZI appends an output phase-shifter pair:
  ``PS(phi3, phi4) . U``.  It can realize any element of U(2) exactly,
  including the global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Largest matrix dimension accepted by `permanent`.  Ryser's formula costs
# O(2^n * n); n = 14 stays comfortably under a second.
PERMANENT_MAX_DIM = 14

_SOLVE_TOL = 1e-12


class MziSetting(NamedTuple):
    """Phase-shifter settings of one (possibly extended) MZI.

    ``phi3``/``phi4`` are the output phase shifters of the extended MZI and
    are ``None`` for a plain MZI.
    """

    theta1: float
    theta2: float
    phi1: float
    phi2: float
    phi3: float | None = None
    phi4: float | None = None

    @property
    def is_extended(self) -> bool:
        return self.phi3 is not None


@dataclass(frozen=True)
class UnitarityReport:
    max_deviation: float
    is_unitary: bool
    tolerance: float


# Settings of the MZI that is the 2x2 identity; used to park unused mesh
# slots.  In floating point it is not exact: the off-diagonal evaluates to
# about 6.1e-17 and the top diagonal's imaginary part to -1.8e-16.  The
# off-diagonal never reaches a Fock state: the Fock fold carries a block
# whose off-diagonal is that small as a pure phase.
IDENTITY_SETTING = MziSetting(np.pi, 0.0, np.pi, 0.0)


def _expi(x: float) -> complex:
    """``exp(i*x)`` from ``math`` alone."""
    return complex(math.cos(x), math.sin(x))


def _setting_entries(setting: MziSetting) -> tuple[complex, complex, complex, complex]:
    """Entries ``(u00, u01, u10, u11)`` of the device unitary of ``setting``,
    in Python scalars: the one source of every MZI matrix in the package.

    ``BS . PS(theta1, theta2) . BS`` is ``[[d, o], [o, -d]]`` with
    ``d = (e1 - e2)/2`` and ``o = i(e1 + e2)/2``; the input phases scale
    its columns and, for an extended setting, the output phases its rows
    (a missing ``phi4`` reads as 0).
    """
    e1, e2 = _expi(setting.theta1), _expi(setting.theta2)
    d = complex(0.5 * (e1.real - e2.real), 0.5 * (e1.imag - e2.imag))
    o = complex(-0.5 * (e1.imag + e2.imag), 0.5 * (e1.real + e2.real))
    f1, f2 = _expi(setting.phi1), _expi(setting.phi2)
    u00, u01, u10, u11 = d * f1, o * f2, o * f1, -d * f2
    if not setting.is_extended:
        return u00, u01, u10, u11
    g3 = _expi(setting.phi3)
    g4 = _expi(0.0 if setting.phi4 is None else setting.phi4)
    return g3 * u00, g3 * u01, g4 * u10, g4 * u11


def setting_unitary(setting: MziSetting) -> np.ndarray:
    """The 2x2 device unitary of ``setting`` as an array: the output phases
    apply exactly when the setting is extended."""
    u00, u01, u10, u11 = _setting_entries(setting)
    return np.array(((u00, u01), (u10, u11)), dtype=complex)


def embed_block(block: np.ndarray, k: int, m: int) -> np.ndarray:
    """Embed a 2x2 block on the adjacent mode pair ``(k, k+1)`` of ``m`` modes.

    Modes are numbered from 1 here, so ``k`` ranges over ``1 .. m-1``;
    ``embed_block(b, 1, 3)`` puts ``b`` on the top two of three modes.
    """
    block = np.asarray(block, dtype=complex)
    if block.shape != (2, 2):
        raise ValueError(f"block must be 2x2, got {block.shape}")
    if not 1 <= k <= m - 1:
        raise ValueError(f"mode index k={k} out of range for m={m}")
    out = np.eye(m, dtype=complex)
    out[k - 1 : k + 1, k - 1 : k + 1] = block
    return out


def permanent(m: np.ndarray) -> complex:
    """Permanent of a square matrix via Ryser's formula with Gray-code updates.

    Exact up to floating point; cost O(2^n * n).  Raises ``ValueError`` for
    non-square input or dimension above ``PERMANENT_MAX_DIM``.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    if n > PERMANENT_MAX_DIM:
        raise ValueError(f"dimension {n} exceeds permanent cap {PERMANENT_MAX_DIM}")
    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        changed = gray ^ new_gray
        j = changed.bit_length() - 1
        if new_gray & changed:
            row_sums += a[:, j]
        else:
            row_sums -= a[:, j]
        gray = new_gray
        popcount = bin(gray).count("1")
        sign = -1.0 if (n - popcount) % 2 else 1.0
        total += sign * np.prod(row_sums)
    return complex(total)


def check_unitary(m: np.ndarray, tol: float = 1e-12) -> UnitarityReport:
    """Report the largest entry of ``m^dag m - I`` and whether it is within tol."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"check_unitary needs a square matrix, got shape {a.shape}")
    dev = float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))
    return UnitarityReport(max_deviation=dev, is_unitary=dev <= tol, tolerance=tol)


def equal_mod_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """True when ``a = exp(i*gamma) * b`` for some real gamma, within tol.

    The phase is anchored on the largest-magnitude entry of ``b``; if ``b``
    is (numerically) zero the test degenerates to ``a`` being zero too.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) <= tol:
        return bool(np.max(np.abs(a)) <= tol)
    gamma = a[idx] / b[idx]
    if abs(abs(gamma) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a - gamma * b)) <= tol)


def _angle(z: complex) -> float:
    return math.atan2(z.imag, z.real)


def _matrix_entries(u) -> tuple[complex, complex, complex, complex]:
    """The four entries of a 2x2 array or nested 2x2 sequence, as Python
    complex numbers."""
    if isinstance(u, np.ndarray):
        if u.shape != (2, 2):
            raise ValueError(f"expected a 2x2 unitary, got shape {u.shape}")
        u = u.tolist()
    try:
        (u00, u01), (u10, u11) = u
    except (TypeError, ValueError):
        raise ValueError(f"expected a 2x2 unitary, got {u!r}") from None
    return complex(u00), complex(u01), complex(u10), complex(u11)


def _solve_plain(
    u00: complex, u01: complex, u10: complex, u11: complex, real_ratio: bool = False
) -> MziSetting | None:
    """Exact plain-MZI settings for ``u`` (phi2 = 0), or None if impossible.

    Writing the MZI as ``g * [[s*e^{i dp}, c], [c*e^{i dp}, -s]]`` with
    ``s = sin((theta1-theta2)/2)``, ``c = cos(...)``, ``|g| = 1``, a unitary
    is reachable exactly iff the ratio ``u11 / u01`` is real (both
    columns share the phase structure of that form).  ``real_ratio`` skips
    that test for a ``u`` whose ratio is real by construction: the ratio's
    size is ``cot`` of half the mixing angle, so near the identity its
    rounding error alone exceeds any fixed tolerance.
    """
    c_mag = abs(u01)
    s_mag = abs(u11)
    if c_mag > _SOLVE_TOL and s_mag > _SOLVE_TOL:
        if not real_ratio and abs((u11 / u01).imag) > _SOLVE_TOL:
            return None
        g = u01 / c_mag
        s = -(u11 / g).real
        c = c_mag
    elif c_mag <= _SOLVE_TOL:
        g = -u11
        s, c = 1.0, 0.0
    else:
        g = u01
        s, c = 0.0, 1.0
    dtheta = 2.0 * math.atan2(s, c)
    if abs(s) > _SOLVE_TOL:
        dphi = _angle(u00 / (g * s))
    else:
        dphi = _angle(u10 / (g * c))
    sigma = 2.0 * _angle(g) - math.pi
    # a plain setting (no phi3, phi4), built as MziSetting._make builds it
    return tuple.__new__(
        MziSetting, ((sigma + dtheta) / 2.0, (sigma - dtheta) / 2.0, dphi, 0.0, None, None)
    )


def solve_mzi_settings(u) -> MziSetting:
    """Exact MZI settings realizing the unitary ``u`` including global phase.

    ``u`` is a 2x2 array or a nested 2x2 sequence; the solve reads its four
    entries and works in Python scalars.  It tries the plain four-phase form
    first; when ``u`` is outside its range, output phases ``(phi3, phi4)``
    are peeled off so the remainder has a real column ratio and is
    plain-solvable by construction.  The returned setting reproduces ``u``
    to machine precision, which keeps relative phases consistent across all
    blocks of a multi-block network layer.
    """
    u00, u01, u10, u11 = _matrix_entries(u)
    # the entries of u^dag u - I, whose largest check_unitary reports
    deviations = (
        abs(u00.real**2 + u00.imag**2 + u10.real**2 + u10.imag**2 - 1.0),
        abs(u01.real**2 + u01.imag**2 + u11.real**2 + u11.imag**2 - 1.0),
        abs(u00.conjugate() * u01 + u10.conjugate() * u11),
    )
    deviation = math.nan if any(map(math.isnan, deviations)) else max(deviations)
    if not deviation <= 1e-9:
        raise ValueError(f"matrix is not unitary (deviation {deviation:.3e})")
    plain = _solve_plain(u00, u01, u10, u11)
    if plain is not None:
        return plain
    phi3 = _angle(u01)
    phi4 = _angle(-u11)
    r3, r4 = _expi(-phi3), _expi(-phi4)
    inner = _solve_plain(r3 * u00, r3 * u01, r4 * u10, r4 * u11, real_ratio=True)
    theta1, theta2, phi1, phi2, _, _ = inner
    return tuple.__new__(MziSetting, (theta1, theta2, phi1, phi2, phi3, phi4))

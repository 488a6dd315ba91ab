"""Matrix building blocks for Mach-Zehnder-interferometer (MZI) meshes.

This module provides the 2x2 device matrices (beam splitters, phase
shifters, MZIs), embedding of 2x2 blocks into larger mode spaces, matrix
permanents, and small comparison utilities used throughout the package.

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

from dataclasses import dataclass

import numpy as np

# Largest matrix dimension accepted by `permanent`.  Ryser's formula costs
# O(2^n * n); n = 14 stays comfortably under a second.
PERMANENT_MAX_DIM = 14

_SOLVE_TOL = 1e-12


@dataclass(frozen=True)
class MziSetting:
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

    def relative_phases(self) -> tuple[float, float]:
        """Return ``(theta1 - theta2, phi1 - phi2)``."""
        return (self.theta1 - self.theta2, self.phi1 - self.phi2)


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


def bs_general(t: float, r: float) -> np.ndarray:
    """Beam splitter ``[[t, i*r], [i*r, t]]`` with ``t^2 + r^2 = 1``."""
    if abs(t * t + r * r - 1.0) > 1e-12:
        raise ValueError(f"t^2 + r^2 = {t * t + r * r} != 1")
    return np.array([[t, 1j * r], [1j * r, t]], dtype=complex)


def phase_shifter(theta1: float, theta2: float) -> np.ndarray:
    """Diagonal phase pair ``diag(exp(i*theta1), exp(i*theta2))``."""
    return np.diag([np.exp(1j * theta1), np.exp(1j * theta2)]).astype(complex)


def mzi_unitary(setting: MziSetting) -> np.ndarray:
    """2x2 unitary of a plain MZI (output phases of ``setting`` ignored)."""
    bs = bs_general(1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
    inner = phase_shifter(setting.theta1, setting.theta2)
    outer = phase_shifter(setting.phi1, setting.phi2)
    return bs @ inner @ bs @ outer


def extended_mzi_unitary(setting: MziSetting) -> np.ndarray:
    """2x2 unitary of an MZI followed by output phases ``(phi3, phi4)``."""
    phi3 = 0.0 if setting.phi3 is None else setting.phi3
    phi4 = 0.0 if setting.phi4 is None else setting.phi4
    return phase_shifter(phi3, phi4) @ mzi_unitary(setting)


def setting_unitary(setting: MziSetting) -> np.ndarray:
    """Unitary realized by ``setting``, extended or plain as appropriate."""
    if setting.is_extended:
        return extended_mzi_unitary(setting)
    return mzi_unitary(setting)


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


def _solve_plain(u: np.ndarray, real_ratio: bool = False) -> MziSetting | None:
    """Exact plain-MZI settings for ``u`` (phi2 = 0), or None if impossible.

    Writing the MZI as ``g * [[s*e^{i dp}, c], [c*e^{i dp}, -s]]`` with
    ``s = sin((theta1-theta2)/2)``, ``c = cos(...)``, ``|g| = 1``, a unitary
    is reachable exactly iff the ratio ``u[1,1] / u[0,1]`` is real (both
    columns share the phase structure of that form).  ``real_ratio`` skips
    that test for a ``u`` whose ratio is real by construction: the ratio's
    size is ``cot`` of half the mixing angle, so near the identity its
    rounding error alone exceeds any fixed tolerance.
    """
    c_mag = abs(u[0, 1])
    s_mag = abs(u[1, 1])
    if c_mag > _SOLVE_TOL and s_mag > _SOLVE_TOL:
        if not real_ratio and abs((u[1, 1] / u[0, 1]).imag) > _SOLVE_TOL:
            return None
        g = u[0, 1] / c_mag
        s = -(u[1, 1] / g).real
        c = c_mag
    elif c_mag <= _SOLVE_TOL:
        g = -u[1, 1]
        s, c = 1.0, 0.0
    else:
        g = u[0, 1]
        s, c = 0.0, 1.0
    dtheta = 2.0 * np.arctan2(s, c)
    if abs(s) > _SOLVE_TOL:
        dphi = float(np.angle(u[0, 0] / (g * s)))
    else:
        dphi = float(np.angle(u[1, 0] / (g * c)))
    sigma = 2.0 * np.angle(g) - np.pi
    return MziSetting(
        theta1=float((sigma + dtheta) / 2.0),
        theta2=float((sigma - dtheta) / 2.0),
        phi1=dphi,
        phi2=0.0,
    )


def solve_mzi_settings(u: np.ndarray) -> MziSetting:
    """Exact MZI settings realizing the unitary ``u`` including global phase.

    Tries the plain four-phase form first; when ``u`` is outside its range,
    output phases ``(phi3, phi4)`` are peeled off so the remainder has a
    real column ratio and is plain-solvable by construction.  The returned
    setting reproduces ``u`` to machine precision, which keeps relative
    phases consistent across all blocks of a multi-block network layer.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 unitary, got shape {u.shape}")
    report = check_unitary(u, tol=1e-9)
    if not report.is_unitary:
        raise ValueError(f"matrix is not unitary (deviation {report.max_deviation:.3e})")
    plain = _solve_plain(u)
    if plain is not None:
        return plain
    phi3 = float(np.angle(u[0, 1]))
    phi4 = float(np.angle(-u[1, 1]))
    v = phase_shifter(-phi3, -phi4) @ u
    inner = _solve_plain(v, real_ratio=True)
    return MziSetting(
        theta1=inner.theta1,
        theta2=inner.theta2,
        phi1=inner.phi1,
        phi2=inner.phi2,
        phi3=phi3,
        phi4=phi4,
    )

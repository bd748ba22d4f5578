"""Heat-operator annihilation checks: termwise analytic residuals and
central finite differences on bound families.

The operator is d/d(omega_ij) - (1/(4 pi i)) d^2/dZ_i dZ_j with the n^2
entries of omega treated as independent coordinates.  For i != j this is
half the directional derivative along the symmetric perturbation
E_ij + E_ji, which is the unique convention under which every theta term
is annihilated exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeMismatch
from .linalg import check_symmetric
from .theta import Bound, theta_terms

DEFAULT_EPS = 1e-4


def _check_indices(n: int, i: int, j: int) -> tuple[int, int]:
    if not (1 <= i <= j <= n):
        raise ShapeMismatch("need 1 <= i <= j <= n")
    return i - 1, j - 1


def heat_term_residual(K, omega, i: int, j: int) -> float:
    """|d Theta_K/d omega_ij - (1/4 pi i) d^2 Theta_K/dZ_i dZ_j| at the
    reference point Z = (0.2 + 0.1i, ..., 0.2 + 0.1i), both sides computed
    analytically.  K is one vector or a (points, n) stack; a stack returns
    its worst residual.

    The omega-derivative contributes pi i K_i K_j Theta_K and the Z-side
    (2 pi i K_i)(2 pi i K_j)/(4 pi i) Theta_K; the residual is relative to
    the larger side once that exceeds one, so the check stays at machine
    precision where an indefinite form makes the term large.  A term that
    overflows gives a nan residual, which fails every tolerance.
    """
    omega = check_symmetric(omega)
    n = omega.shape[0]
    ii, jj = _check_indices(n, i, j)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    Z = np.full(n, 0.2 + 0.1j, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        term = theta_terms(K, Z, omega)
        lhs = (1j * math.pi * K[:, ii] * K[:, jj]) * term
        rhs = (2j * math.pi * K[:, ii]) * (2j * math.pi * K[:, jj]) / (4j * math.pi) * term
        resid = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return float(np.max(resid))


def fd_omega_derivative(bound: Bound, Z, i: int, j: int, eps: float) -> complex:
    """Central difference approximation of the independent-entry derivative
    d/d omega_ij along symmetric perturbations; the i != j direction is
    halved to undo the doubled directional derivative.  The steps are
    real, so they keep Im(omega), and with it its signature, bit for bit:
    both are rebinds of the family bound to omega (Bound.rebind), which
    share its forms, enumeration and radii."""
    omega, n = bound.omega, bound.n
    ii, jj = _check_indices(n, i, j)
    E = np.zeros((n, n))
    E[ii, jj] = E[jj, ii] = 1.0  # one entry when i == j
    Z = np.asarray(Z, dtype=complex)
    ((plus, _),) = bound.rebind(omega + eps * E).stack([Z])
    ((minus, _),) = bound.rebind(omega - eps * E).stack([Z])
    scale = 2.0 if ii != jj else 1.0
    return (plus - minus) / (2.0 * eps * scale)


def fd_zz_derivative(bound: Bound, Z, centre: complex, i: int, j: int, eps: float) -> complex:
    """Second-order central stencil for d^2/dZ_i dZ_j of the bound family;
    ``centre`` is its value at Z, which the caller evaluates once for every
    diagonal stencil, and the 2 or 4 other points are one stack."""
    n = bound.n
    ii, jj = _check_indices(n, i, j)
    Z = np.asarray(Z, dtype=complex)
    ei = np.zeros(n)
    ej = np.zeros(n)
    ei[ii] = 1.0
    ej[jj] = 1.0
    if ii == jj:
        (fp, _), (fm, _) = bound.stack([Z + eps * ei, Z - eps * ei])
        return (fp - 2.0 * centre + fm) / (eps * eps)
    (fpp, _), (fpm, _), (fmp, _), (fmm, _) = bound.stack(
        [Z + eps * ei + eps * ej, Z + eps * ei - eps * ej, Z - eps * ei + eps * ej, Z - eps * ei - eps * ej]
    )
    return (fpp - fpm - fmp + fmm) / (4.0 * eps * eps)


def heat_fd_residual(bound: Bound, Z, centre: complex, i: int, j: int, eps: float = DEFAULT_EPS) -> float:
    """|H F| for the bound family at Z (``centre``, its value there, as for
    fd_zz_derivative), with both derivatives approximated by central
    differences; the inner family tolerance should sit well below eps**2
    so truncation error dominates rounding."""
    d_omega = fd_omega_derivative(bound, Z, i, j, eps)
    d_zz = fd_zz_derivative(bound, Z, centre, i, j, eps)
    return abs(d_omega - d_zz / (4j * math.pi))

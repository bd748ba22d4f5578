"""Action of the theta subgroup on period matrices and evaluators, the
transformed theta terms, numerical determination of the unit multiplier,
and the contour-integral coboundary for the inversion element at n = 1.

The half-integral determinant power always uses the principal branch
(argument in (-pi/2, pi/2]); the leftover eighth-root-of-unity ambiguity is
the multiplier zeta, fitted numerically per element against a reference
identity and never assumed globally consistent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    AmbiguousZeta,
    NonconvergentContour,
    SingularDenominator,
    ValidationError,
)
from .lattice import ConeSpec, ModularElement, find_split_basis
from .linalg import check_symmetric, principal_sqrt_det, signature
from .theta import (
    ConeSum,
    DEFAULT_TOL,
    Evaluator,
    Family,
    complex_fsum,
    sample_points,
)

EIGHTH_ROOTS = tuple(cmath.exp(1j * math.pi * j / 4) for j in range(8))


def omega_transform(g: ModularElement, omega) -> np.ndarray:
    """Transformed period matrix (tD omega - tB)(-tC omega + tA)^{-1};
    the result is symmetric with the signature of the input."""
    omega = check_symmetric(omega)
    den = -g.C.T.astype(complex) @ omega + g.A.T.astype(complex)
    if abs(np.linalg.det(den)) < 1e-12:
        raise SingularDenominator("(-tC omega + tA) is singular")
    num = g.D.T.astype(complex) @ omega - g.B.T.astype(complex)
    out = num @ np.linalg.inv(den)
    return (out + out.T) / 2


def round_trip_residual(g: ModularElement, omega, og) -> float:
    """Max-norm distance of (A og + B)(C og + D)^{-1}, the inverse
    transform of og = omega_transform(g, omega), from omega."""
    back = (g.A.astype(complex) @ og + g.B) @ np.linalg.inv(g.C.astype(complex) @ og + g.D)
    return float(np.max(np.abs(back - omega)))


@dataclass(frozen=True)
class ModularImage(Family):
    """Image f^g of a family under the group action:

        f^g(Z, omega) = zeta det(C omega^g + D)^{1/2}
                        exp(pi i tZ C t(C omega^g + D) Z)
                        f(t(C omega^g + D) Z, omega^g).

    All prefactors are stored symbolically; the inner family is evaluated at
    the transformed argument over the transformed period matrix.
    """

    inner: Family
    g: ModularElement
    zeta: complex = 1.0

    def value_tail(self, omega, Z):
        omega = check_symmetric(omega)
        Z = np.asarray(Z, dtype=complex)
        og = omega_transform(self.g, omega)
        T = (self.g.C.astype(complex) @ og + self.g.D.astype(complex)).T
        pref = self.zeta * principal_sqrt_det(T.T)
        pref *= cmath.exp(1j * math.pi * (Z @ self.g.C.astype(complex) @ T @ Z))
        v, t = self.inner.value_tail(og, T @ Z)
        return pref * v, abs(pref) * t


def modular_apply(g: ModularElement, f: Evaluator, zeta: complex) -> Evaluator:
    """Evaluator of f^g over the period matrix of f."""
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise ValidationError("zeta must be a unit complex number")
    return Evaluator(ModularImage(f.family, g, zeta), f.omega)


def theta_g_term(K, Z, omega, g: ModularElement, zeta: complex) -> complex:
    """Single transformed theta term

        zeta det(C omega^g + D)^{1/2} exp(pi i tZ C t(C omega^g + D) Z)
        exp(pi i tK omega^g K + 2 pi i tK t(C omega^g + D) Z).
    """
    omega = check_symmetric(omega)
    Z = np.asarray(Z, dtype=complex)
    K = np.asarray(K, dtype=float)
    og = omega_transform(g, omega)
    CT = g.C.astype(complex)
    T = (CT @ og + g.D.astype(complex)).T
    val = zeta * principal_sqrt_det(T.T)
    val *= cmath.exp(1j * math.pi * (Z @ CT @ T @ Z))
    val *= cmath.exp(1j * math.pi * (K @ og @ K + 2.0 * (K @ (T @ Z))))
    return val


# ---------------------------------------------------------------------------
# contour coboundary at n = 1

def contour_integrand(y: complex, z: complex, tau: complex, nshift: int) -> complex:
    """exp(pi i tau y^2 + 2 pi i (z + n) y) / (exp(2 pi i y) - 1)."""
    return cmath.exp(1j * math.pi * tau * y * y + 2j * math.pi * (z + nshift) * y) / (
        cmath.exp(2j * math.pi * y) - 1.0
    )


def _panel_quadrature(f, lo: float, hi: float, panels: int) -> complex:
    x, w = leggauss(16)  # Gauss-Legendre nodes per panel
    vals = []
    width = (hi - lo) / panels
    for p in range(panels):
        a = lo + width * p
        mid = a + width / 2
        half = width / 2
        for xi, wi in zip(x, w):
            vals.append(wi * half * f(mid + half * xi))
    return complex_fsum(vals)


def contour_f(z: complex, tau: complex, kpole: int, nshift: int, tol: float = 1e-10) -> complex:
    """Contour integral of the theta-kernel integrand along the vertical
    line Re y = kpole - 1/2, for Im tau < 0.

    The line is parameterised y = (kpole - 1/2) + i s and oriented from
    s = +inf to s = -inf; this orientation makes the lattice-shift identity
    for the integral hold with the residue sign used throughout (the
    opposite choice flips a sign that no unit multiplier could absorb).
    The Gaussian truncation keeps the omitted tails below tol/2 and the
    panel count is doubled until successive values agree to tol/4.
    """
    if tau.imag >= 0:
        raise NonconvergentContour("Im(tau) must be negative")
    c = kpole - 0.5
    b = -tau.imag
    # stationary point of |integrand| in s, then a Gaussian-width margin
    s_peak = -(tau.real * c + (z.real + nshift)) / b
    width = math.sqrt(
        max(math.log(1.0 / min(tol, 0.5)) + math.pi * b * c * c + 2 * math.pi * abs(z.imag) * abs(c), 1.0)
        / (math.pi * b)
    )
    S = abs(s_peak) + width + 2.0

    def g(s: float) -> complex:
        return contour_integrand(complex(c, s), z, tau, nshift)

    while True:
        panels = max(8, int(2 * S))
        prev = None
        while panels <= 1 << 14:
            val = -1j * _panel_quadrature(g, -S, S, panels)
            if prev is not None and abs(val - prev) < tol / 4:
                if abs(g(S)) + abs(g(-S)) < tol:
                    return val
                break  # endpoints not negligible: widen
            prev = val
            panels *= 2
        else:
            raise NonconvergentContour("quadrature failed to settle below tol")
        S *= 1.5


def inversion_rhs(z: complex, tau: complex, nshift: int, zeta: complex) -> complex:
    """zeta tau^{-1/2} exp(-pi i (z+n)^2 / tau), principal branch."""
    return zeta * tau ** (-0.5) * cmath.exp(-1j * math.pi * (z + nshift) ** 2 / tau)


def shift_rhs(z: complex, tau: complex, kpole: int) -> complex:
    """exp(pi i tau k^2 + 2 pi i k z)."""
    return cmath.exp(1j * math.pi * tau * kpole * kpole + 2j * math.pi * kpole * z)


#: probe arguments of the n = 1 inversion identities
_PROBES = (0j, 0.3 + 0j, 0.3 + 0.2j, -0.7 + 0j, 0.1 - 0.1j)


def fit_eighth_root(ratios) -> tuple[complex, float]:
    """Eighth root of unity minimising the worst deviation from the given
    ratios; raises AmbiguousZeta when the two best candidates are within a
    factor of two of each other."""
    scored = sorted(
        (max(abs(r - cand) for r in ratios), cand) for cand in EIGHTH_ROOTS
    )
    best, second = scored[0], scored[1]
    if second[0] < 2 * best[0]:
        raise AmbiguousZeta(
            "residuals %g and %g are within a factor of two" % (best[0], second[0])
        )
    return best[1], best[0]


def _inversion_ratios(tau: complex, tol: float) -> list[tuple[complex, complex, complex]]:
    """(z, f(z), ratio) at each probe z, where f is the contour coboundary
    (pole 1, no shift) integrated to tol and ratio is the translation
    difference f(z + 1) - f(z) over tau^{-1/2} exp(-pi i z^2 / tau); for
    the inversion element every ratio is its multiplier zeta."""
    out = []
    for z in _PROBES:
        fz = contour_f(z, tau, 1, 0, tol)
        lhs = contour_f(z + 1, tau, 1, 0, tol) - fz
        out.append((z, fz, lhs / inversion_rhs(z, tau, 0, 1.0)))
    return out


def verify_case3_1d(tau: complex, tol: float = 1e-8) -> dict:
    """Residual report for the two coboundary identities of the inversion
    element at n = 1 (contour pole 1, no shift):

      * translation identity: (1-action - 1) f = zeta tau^{-1/2}
        exp(-pi i z^2/tau), with a single fitted eighth root zeta;
      * period identity: (tau-action - 1) f = -exp(pi i tau + 2 pi i z).

    Returns {"zeta", "zeta_residual", "zeta_spread", "translation_max",
    "period_max", "pass"}.
    """
    if tau.imag >= 0:
        raise NonconvergentContour("Im(tau) must be negative")
    inner_tol = min(tol * 1e-2, 1e-10)
    probes = _inversion_ratios(tau, inner_tol)
    ratios = [ratio for _, _, ratio in probes]
    # (period translation - 1) f = exp(pi i tau + 2 pi i z) f(z + tau) - f(z)
    period_max = max(
        abs(
            cmath.exp(1j * math.pi * tau + 2j * math.pi * z) * contour_f(z + tau, tau, 1, 0, inner_tol)
            - fz
            + shift_rhs(z, tau, 1)
        )
        for z, fz, _ in probes
    )
    zeta, zeta_residual = fit_eighth_root(ratios)
    spread = max(abs(r1 - r2) for r1 in ratios for r2 in ratios)
    translation_max = max(
        abs((ratio - zeta) * inversion_rhs(z, tau, 0, 1.0)) for z, _, ratio in probes
    )
    ok = (
        translation_max < tol
        and period_max < tol
        and spread < tol
        and abs(zeta**8 - 1.0) < tol
    )
    return {
        "zeta": zeta,
        "zeta_residual": zeta_residual,
        "zeta_spread": spread,
        "translation_max": translation_max,
        "period_max": period_max,
        "pass": ok,
    }


# ---------------------------------------------------------------------------
# numerical determination of the unit multiplier

def determine_zeta(g: ModularElement, omega) -> tuple[complex, float]:
    """Fit the eighth root of unity for g against a reference identity.

    Supported references: the identity element (zeta = 1); upper-triangular
    elements (C = 0), where the transformed cone sum must reproduce the
    plain one at five sample points; and the 1-dimensional inversion
    (C = +-1, A = D = 0) with Im(omega) < 0 via the contour identity.
    Elsewhere no reference is available and ValidationError is raised.
    """
    omega = check_symmetric(omega)
    n = g.n
    if g.is_identity():
        return 1.0, 0.0
    if not np.any(g.C):
        # compare the transformed cone sum against the plain one
        k, _ = signature(omega.imag)
        basis = find_split_basis(omega.imag, k)
        cone = ConeSpec(basis.positive_generators(), (0,) * n)
        plain = ConeSum(cone, DEFAULT_TOL)
        ratios = []
        for Z in sample_points(n, 5):
            base, _ = plain.value_tail(omega, Z)
            image, _ = ModularImage(plain, g, 1.0).value_tail(omega, Z)
            ratios.append(base / image)
        return fit_eighth_root(ratios)
    if n == 1 and g.A[0, 0] == 0 and g.D[0, 0] == 0 and abs(g.C[0, 0]) == 1:
        tau = complex(omega[0, 0])
        if tau.imag >= 0:
            raise ValidationError("inversion reference needs Im(tau) < 0")
        return fit_eighth_root([ratio for _, _, ratio in _inversion_ratios(tau, 1e-11)])
    raise ValidationError("no reference identity available for this element")

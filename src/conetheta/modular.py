"""Action of the theta subgroup on period matrices and bound families, the
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

from .errors import (
    AmbiguousZeta,
    NonconvergentContour,
    SingularDenominator,
    ValidationError,
)
from .lattice import ModularElement
from .linalg import check_symmetric, principal_sqrt_det
from .theta import Bound, Family, ThetaValue, as_stack, complex_fsum, sample_points

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
    return out / 2 + out.T / 2  # halved first, as in check_symmetric


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

    def bind(self, omega) -> "BoundModularImage":
        return BoundModularImage(self, check_symmetric(omega))

    # its own entry in the class, so that a tracer can wrap it per class
    value_tail = Family.value_tail


class BoundModularImage(Bound):
    """A ModularImage over one period matrix: omega^g, T = t(C omega^g + D),
    zeta det(T)^{1/2} and the inner family bound to omega^g, computed once.
    The rest depends on Z and stays per row.  Given a bound of the inner
    family, the inner family is rebound from it (Bound.rebind), so it keeps
    its forms where Im(omega^g) has not moved."""

    def __init__(self, family: ModularImage, omega: np.ndarray, inner: Bound | None = None):
        self.family, self.omega = family, omega
        g = family.g
        og = omega_transform(g, omega)
        self.C = g.C.astype(complex)
        self.T = (self.C @ og + g.D.astype(complex)).T
        self.pref = family.zeta * principal_sqrt_det(self.T.T)
        self.inner = family.inner.bind(og) if inner is None else inner.rebind(og)

    def rebind(self, omega2) -> "BoundModularImage":
        return BoundModularImage(self.family, check_symmetric(omega2), self.inner)

    def stack(self, Zs):
        Zs = as_stack(Zs, self.n)
        rows = self.inner.stack(np.array([self.T @ Z for Z in Zs]))
        out = []
        for Z, (v, t) in zip(Zs, rows):
            pref = self.pref * cmath.exp(1j * math.pi * (Z @ self.C @ self.T @ Z))
            out.append(ThetaValue(pref * v, abs(pref) * t))
        return out


def modular_apply(g: ModularElement, f: Bound, zeta: complex) -> BoundModularImage:
    """f^g bound to the period matrix of the bound family f, over f."""
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise ValidationError("zeta must be a unit complex number")
    return BoundModularImage(ModularImage(f.family, g, zeta), f.omega, f)


# ---------------------------------------------------------------------------
# contour coboundary at n = 1

def _exponent(y, z: complex, tau: complex, nshift: int):
    return 1j * np.pi * tau * y * y + 2j * np.pi * (z + nshift) * y


def contour_integrand(y, z: complex, tau: complex, nshift: int):
    """exp(pi i tau y^2 + 2 pi i (z + n) y) / (exp(2 pi i y) - 1), elementwise
    over an array y."""
    return np.exp(_exponent(y, z, tau, nshift)) / (np.exp(2j * np.pi * y) - 1.0)


#: most trapezoidal steps on [-S, S] before the contour gives up
_MAX_STEPS = 1 << 18


def contour_f(z: complex, tau: complex, kpole: int, nshift: int, tol: float = 1e-10) -> complex:
    """Contour integral of the theta-kernel integrand along the vertical
    line Re y = kpole - 1/2, for Im tau < 0.

    The line is parameterised y = (kpole - 1/2) + i s and oriented from
    s = +inf to s = -inf; this orientation makes the lattice-shift identity
    for the integral hold with the residue sign used throughout (the
    opposite choice flips a sign that no unit multiplier could absorb).
    The Gaussian truncation keeps the omitted tails below tol/2.  On the
    window the integrand is analytic in the strip |Im s| < 1/2 (its poles
    sit at the integers), so the trapezoidal rule converges like
    exp(-pi/h) in its step h: the step starts at 1/8 and is halved,
    evaluating only the new midpoints, until successive values agree to
    tol/4 and an estimate of the nodes' rounding noise is below tol/4 too.
    A window wider than 2^18 steps of 1/8, or a step below 2S/2^18, raises
    NonconvergentContour.
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

    while True:
        if not S <= _MAX_STEPS / 16:  # also for an infinite or nan window
            raise NonconvergentContour("contour window too wide for the step cap")
        # S rounded up to the 1/8 grid and power-of-two steps make every node
        # an exact binary fraction: rounding stretches no level's grid, an
        # error that all nested levels would share and none could show
        steps = 2 * math.ceil(8 * S)
        h = 1 / 8
        y = c + 1j * h * np.arange(-steps // 2, steps // 2 + 1)
        nodes = contour_integrand(y, z, tau, nshift)
        # a node carries about 1 + |exponent| units of rounding; successive
        # levels show that noise only as it averages down, by sqrt(2) a
        # level, so two levels agreeing by chance count only below it
        noise = 2**-53 * h * np.linalg.norm(nodes * (1 + np.abs(_exponent(y, z, tau, nshift))))
        ends = abs(nodes[0]) + abs(nodes[-1])
        nodes[[0, -1]] /= 2
        sums = [complex_fsum(nodes)]
        prev = None
        while steps <= _MAX_STEPS:
            val = -1j * h * complex_fsum(sums)
            if prev is not None and abs(val - prev) < tol / 4 and noise < tol / 4:
                if ends < tol:
                    return val
                break  # endpoints not negligible: widen
            prev = val
            h /= 2
            noise /= math.sqrt(2)
            mid = c + 1j * h * np.arange(1 - steps, steps, 2)
            sums.append(complex_fsum(contour_integrand(mid, z, tau, nshift)))
            steps *= 2
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
        ((max(abs(r - cand) for r in ratios), cand) for cand in EIGHTH_ROOTS),
        key=lambda sc: sc[0],  # stable: a tie keeps the EIGHTH_ROOTS order
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

def zeta_reference(g: ModularElement, omega) -> str:
    """The reference identity that determine_zeta fits g's multiplier
    against at omega: "identity" (g = I), "upper" (C = 0) or "inversion"
    (n = 1, A = D = 0, C = +-1, Im(tau) < 0).  Raises ValidationError when
    none applies, before any cone sum is built."""
    if g.is_identity():
        return "identity"
    if not np.any(g.C):
        return "upper"
    if g.n == 1 and g.A[0, 0] == 0 and g.D[0, 0] == 0 and abs(g.C[0, 0]) == 1:
        if complex(omega[0, 0]).imag >= 0:
            raise ValidationError("inversion reference needs Im(tau) < 0")
        return "inversion"
    raise ValidationError("no reference identity available for this element")


def determine_zeta(g: ModularElement, f: Bound) -> tuple[complex, float]:
    """Fit the eighth root of unity for g on the bound cone sum f, the
    family that the multiplier multiplies, against a reference identity
    (zeta_reference): zeta = 1 for the identity; for C = 0, f^g with
    zeta = 1 (modular_apply, over f) must reproduce f at the five default
    sample points; for the 1-dimensional inversion, the contour identity at
    f.omega.  Elsewhere ValidationError is raised.
    """
    reference = zeta_reference(g, f.omega)
    if reference == "identity":
        return 1.0, 0.0
    if reference == "upper":
        samples = sample_points(g.n, 5)
        pairs = zip(f.stack(samples), modular_apply(g, f, 1.0).stack(samples))
        return fit_eighth_root([base.value / img.value for base, img in pairs])
    tau = complex(f.omega[0, 0])
    return fit_eighth_root([ratio for _, _, ratio in _inversion_ratios(tau, 1e-11)])

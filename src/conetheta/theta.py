"""Cone-restricted theta sums and their evaluator algebra.

A single term is Theta_K(Z, omega) = exp(pi i tK omega K + 2 pi i tK Z).
Sums run over shifted positive cones with a rigorous Gaussian tail bound;
evaluators are immutable objects closed symbolically under the lattice
action (prefactor and argument shift stored exactly, only the final sum is
approximate).  Identical inputs always produce bit-identical outputs:
all terms of a sum are evaluated in one vectorised pass and their real and
imaginary parts are added with math.fsum, which is correctly rounded and so
does not depend on the order of the terms.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadCharacteristic, RadiusOverflow, ShapeMismatch
from .lattice import (
    ConeForm,
    ConeSpec,
    SplitBasis,
    enumerate_cone,
    enumerate_wedge,
    form_values,
)
from .linalg import check_symmetric
from .rng import DEFAULT_SEED, SplitMix64

#: default absolute tolerance for truncated sums
DEFAULT_TOL = 1e-10

_MAX_RADIUS = 64.0

#: first wedge cutoff, and the cutoff past which doubling gives up
_WEDGE_START = 6
_WEDGE_MAX_CUT = 96


def complex_fsum(values) -> complex:
    """Correctly rounded sum of complex values (math.fsum on the real and
    imaginary parts); the result does not depend on the order."""
    values = np.asarray(values, dtype=complex)
    return complex(math.fsum(values.real), math.fsum(values.imag))


def theta_terms(K, Z, omega) -> np.ndarray:
    """theta_term for every row of a (points, n) array K, in one pass."""
    K = np.asarray(K, dtype=float)
    Z = np.asarray(Z, dtype=complex)
    omega = np.asarray(omega, dtype=complex)
    if K.ndim != 2 or Z.shape != (K.shape[1],) or omega.shape != (K.shape[1],) * 2:
        raise ShapeMismatch("incompatible shapes for theta terms")
    phase = form_values(K, omega) + 2.0 * (K @ Z)
    return np.exp(1j * math.pi * phase)


def theta_term(K, Z, omega) -> complex:
    """exp(pi i tK omega K + 2 pi i tK Z); K may be rational (a lattice point
    plus a characteristic shift)."""
    K = np.asarray(K, dtype=float)
    Z = np.asarray(Z, dtype=complex)
    omega = np.asarray(omega, dtype=complex)
    if K.shape != Z.shape or omega.shape != (K.size, K.size):
        raise ShapeMismatch("incompatible shapes for a theta term")
    return cmath.exp(1j * math.pi * (K @ omega @ K + 2.0 * (K @ Z)))


@dataclass(frozen=True)
class ThetaValue:
    """A truncated sum value together with an absolute bound on the omitted
    terms."""

    value: complex
    tail: float


@dataclass(frozen=True)
class Characteristic:
    """Rational shift a with Delta * a integral, stored reduced mod Z^n with
    components in [0, 1); Delta is a positive diagonal type with a
    divisibility chain."""

    a: tuple
    delta: tuple

    def __post_init__(self):
        delta = tuple(int(d) for d in self.delta)
        if any(d <= 0 for d in delta):
            raise BadCharacteristic("type entries must be positive")
        for d1, d2 in zip(delta, delta[1:]):
            if d2 % d1:
                raise BadCharacteristic("type entries must form a divisibility chain")
        a = tuple(Fraction(x) for x in self.a)
        if len(a) != len(delta):
            raise ShapeMismatch("characteristic and type lengths differ")
        for x, d in zip(a, delta):
            if (x * d).denominator != 1:
                raise BadCharacteristic("Delta * a is not integral")
        a = tuple(x - math.floor(x) for x in a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "delta", delta)

    @property
    def n(self) -> int:
        return len(self.a)


def reduced_characteristics(delta) -> list[Characteristic]:
    """All det(Delta) distinct reduced characteristics of the given type."""
    delta = tuple(int(d) for d in delta)
    axes = [[Fraction(j, d) for j in range(d)] for d in delta]
    return [Characteristic(a, delta) for a in itertools.product(*axes)]


# ---------------------------------------------------------------------------
# tail bound

def _drift(form: ConeForm, Z) -> tuple[float, float]:
    """(alpha, beta) with |tK y| <= alpha + beta sqrt(tK Q K) on the cone,
    y = Im Z (see tail_bound)."""
    y = np.asarray(Z, dtype=complex).imag
    beta = float(np.linalg.norm(form.G.T @ y)) / math.sqrt(form.lam)
    return abs(float(form.shift @ y)) + form.t_s * beta, beta


def _shell_count(form: ConeForm, t: float) -> int:
    """Bound on the number of cone points with sqrt(tK Q K) < t + 1."""
    return (2 * math.floor((t + 1.0 + form.t_s) / math.sqrt(form.lam)) + 3) ** form.rank


def tail_bound(form: ConeForm, Z, radius: float) -> float:
    """Upper bound for the sum of |Theta_K| over the points of the factored
    cone excluded by the radius, i.e. those with tK Q K > radius**2.

    Construction (all steps are inequalities, so the result is a true
    bound): write K = s + G c and t = sqrt(tK Q K).  With lam the smallest
    eigenvalue of the coefficient Gram matrix tG Q G,

      * |Theta_K| = exp(-pi t^2 - 2 pi tK y), y = Im Z, and
        |tK y| <= alpha + beta t  with  beta = |tG y| / sqrt(lam),
        alpha = |ts y| + t_s beta,  t_s = sqrt(ts Q s);
      * the number of cone points with t <= T is at most
        (2 floor((T + t_s)/sqrt(lam)) + 3)^m.

    The tail is summed over unit shells [radius + j, radius + j + 1) with
    the shell count evaluated at the outer edge; the series is cut once a
    term ratio certifies geometric decay.  Requires radius >= beta + 1 (the
    shell maximum must be decreasing); smaller radii return +inf.
    """
    if form.rank == 0:
        return 0.0
    alpha, beta = _drift(form, Z)
    if radius < beta + 1.0:
        return math.inf
    total = 0.0
    prev_term = None
    for j in range(0, 100000):
        t = radius + j
        log_term = (
            math.log(_shell_count(form, t))
            + 2.0 * math.pi * alpha
            - math.pi * t * t
            + 2.0 * math.pi * beta * t
        )
        term = math.exp(log_term) if log_term < 700 else math.inf
        total += term
        if term == 0.0:
            break
        if prev_term is not None and term < prev_term / 2 and term < 1e-300:
            total += term  # geometric remainder, ratio <= 1/2
            break
        prev_term = term
    return total


#: cone-sum radii are multiples of this step
_RADIUS_STEP = 0.125


def _on_grid(x: float) -> float:
    """The smallest radius on the grid that is >= x."""
    return math.ceil(x / _RADIUS_STEP) * _RADIUS_STEP


def _first_shell_radius(form: ConeForm, Z, tol: float, max_radius: float) -> float:
    """The smallest radius r >= beta + 1 on the grid whose first shell term
    of tail_bound, count(r) exp(2 pi alpha - pi r^2 + 2 pi beta r), is at
    most tol; a value above max_radius once none up to it qualifies.

    For a fixed count the condition is a quadratic in r, with root
    beta + sqrt(beta^2 + (log count + 2 pi alpha - log tol) / pi).  The count
    grows with r, so the root is recomputed at the rounded-up root until it
    no longer moves; each step stays at or below the smallest qualifying
    radius.  The full bound is at least its first shell, so no radius on the
    grid below the result makes tail_bound <= tol.
    """
    alpha, beta = _drift(form, Z)
    r = _on_grid(beta + 1.0)
    while r <= max_radius:
        excess = math.log(_shell_count(form, r)) + 2.0 * math.pi * alpha - math.log(tol)
        nxt = _on_grid(beta + math.sqrt(max(beta * beta + excess / math.pi, 0.0)))
        if nxt <= r:
            break
        r = nxt
    return r


# ---------------------------------------------------------------------------
# evaluator families

class Family:
    """Evaluation rule (omega, Z) -> (value, tail).  Families are immutable
    and deterministic; an Evaluator pins a family to one period matrix."""

    def value_tail(self, omega, Z) -> tuple[complex, float]:
        raise NotImplementedError


@dataclass(frozen=True)
class Evaluator:
    family: Family
    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", check_symmetric(self.omega))

    def __call__(self, Z) -> ThetaValue:
        v, t = self.family.value_tail(self.omega, np.asarray(Z, dtype=complex))
        return ThetaValue(v, t)


@dataclass(frozen=True)
class ConeSum(Family):
    """Sum of theta terms over a shifted cone, truncated at the smallest
    radius on a 1/8 grid whose certified tail bound clears the tolerance.

    evaluate factors the cone once (lattice.ConeForm), solves for the first
    radius whose first Gaussian shell alone is below tol
    (_first_shell_radius), checks it with the full tail_bound and steps up
    by 1/8 until the bound holds; typically the first check holds.  No
    radius above max_radius is used (RadiusOverflow).  Returns (value,
    tail bound, radius).
    """

    cone: ConeSpec
    tol: float = DEFAULT_TOL
    max_radius: float = _MAX_RADIUS

    def evaluate(self, omega, Z) -> tuple[complex, float, float]:
        omega = check_symmetric(omega)
        Z = np.asarray(Z, dtype=complex)
        if self.cone.rank == 0:
            return theta_term(self.cone.shift_float(), Z, omega), 0.0, 0.0
        form = ConeForm(self.cone, omega.imag)
        radius = _first_shell_radius(form, Z, self.tol, self.max_radius)
        while True:
            if radius > self.max_radius:
                raise RadiusOverflow(
                    "radius %g exceeded without reaching tol %g" % (self.max_radius, self.tol)
                )
            bound = tail_bound(form, Z, radius)
            if bound <= self.tol:
                break
            radius += _RADIUS_STEP
        pts = enumerate_cone(form, radius)
        return complex_fsum(theta_terms(pts, Z, omega)), bound, radius

    def value_tail(self, omega, Z):
        v, t, _ = self.evaluate(omega, Z)
        return v, t


@dataclass(frozen=True)
class WedgeSum(Family):
    """Signed sum over the wedge between a positive cone and its image under
    the unit shear at the basis splitting index; the truncation is judged by
    comparing consecutive doubled cutoffs, and the reported tail is their
    difference (an estimate, not a bound)."""

    basis: SplitBasis
    tol: float = DEFAULT_TOL

    def value_tail(self, omega, Z):
        omega = check_symmetric(omega)
        Z = np.asarray(Z, dtype=complex)
        Q = omega.imag

        def partial(R: int) -> complex:
            pts = enumerate_wedge(self.basis, Q, R)
            K = np.array([K for K, _ in pts], dtype=float).reshape(-1, self.basis.n)
            signs = np.array([sign for _, sign in pts], dtype=float)
            return complex_fsum(signs * theta_terms(K, Z, omega))

        R = _WEDGE_START
        prev = partial(R)
        while True:
            R *= 2
            cur = partial(R)
            change = abs(cur - prev)
            if change < self.tol:
                return cur, change
            if R > _WEDGE_MAX_CUT:
                raise RadiusOverflow("wedge cutoff %d exceeded" % _WEDGE_MAX_CUT)
            prev = cur


@dataclass(frozen=True)
class LambdaShifted(Family):
    """Image of a family under the lattice action of the pair (M, N):

        f(Z) -> exp(pi i tN omega N + 2 pi i tN Z) f(Z + M + omega N),

    whose prefactor is the theta term of N.

    ``mvec`` holds the translation already twisted by the type (Delta M).
    Prefactors and the argument shift are stored symbolically and applied
    exactly at evaluation time.
    """

    inner: Family
    mvec: tuple
    nvec: tuple

    def value_tail(self, omega, Z):
        omega = check_symmetric(omega)
        Z = np.asarray(Z, dtype=complex)
        M = np.array(self.mvec, dtype=float)
        N = np.array(self.nvec, dtype=float)
        pref = theta_term(N, Z, omega)
        v, t = self.inner.value_tail(omega, Z + M + omega @ N)
        return pref * v, abs(pref) * t


# ---------------------------------------------------------------------------
# public operations

def cone_sum(Z, omega, cone: ConeSpec, tol: float = DEFAULT_TOL) -> ThetaValue:
    """Cone-restricted theta sum with certified tail <= tol."""
    v, t, _ = ConeSum(cone, tol).evaluate(omega, Z)
    return ThetaValue(v, t)


def theta_char(
    char: Characteristic, Z, omega, cone: ConeSpec, tol: float = DEFAULT_TOL
) -> ThetaValue:
    """Cone sum with every lattice point shifted by the characteristic."""
    shifted = cone.with_extra_shift(char.a)
    v, t, _ = ConeSum(shifted, tol).evaluate(omega, Z)
    return ThetaValue(v, t)


def lambda_action(Mvec, Nvec, f: Evaluator, delta=None) -> Evaluator:
    """Act on an evaluator by the lattice pair (M, N) over its own period
    matrix; the type vector ``delta`` twists the translation part to
    Delta M for non-principal types."""
    M = [int(x) for x in np.asarray(Mvec).ravel()]
    if delta is not None:
        M = [int(d) * m for d, m in zip(delta, M, strict=True)]
    N = tuple(int(x) for x in np.asarray(Nvec).ravel())
    return Evaluator(LambdaShifted(f.family, tuple(M), N), f.omega)


def wedge_function(basis: SplitBasis, omega, tol: float = DEFAULT_TOL) -> Evaluator:
    """Evaluator of the signed wedge sum attached to the unit shear at the
    basis splitting index."""
    return Evaluator(WedgeSum(basis, tol), np.asarray(omega, dtype=complex))


def sample_points(n: int, count: int = 5, seed: int = DEFAULT_SEED) -> list[np.ndarray]:
    """Deterministic pseudo-random probe points with |Re| <= 0.5, |Im| <= 0.3.

    Each component consumes two splitmix64 draws (real then imaginary part),
    components in order, points in order.
    """
    rng = SplitMix64(seed)
    pts = []
    for _ in range(count):
        Z = np.empty(n, dtype=complex)
        for i in range(n):
            re = rng.next_float() - 0.5
            im = 0.6 * rng.next_float() - 0.3
            Z[i] = complex(re, im)
        pts.append(Z)
    return pts


def _direction_pairs(columns: np.ndarray, k: int, n: int):
    """Unused differential directions for a cochain sitting at position
    (1..k; empty): every M-column and the N-columns beyond k.  ``columns``
    is the 2n x 2n coordinate matrix (N block first)."""
    dirs = []
    for j in range(k, n):
        col = columns[:, j]
        dirs.append(("N_%d" % (j + 1), tuple(col[n:]), tuple(col[:n])))
    for i in range(n):
        col = columns[:, n + i]
        dirs.append(("M_%d" % (i + 1), tuple(col[n:]), tuple(col[:n])))
    return dirs


def verify_cocycle(
    c: Evaluator, columns, k: int, delta=None, seed: int = DEFAULT_SEED
) -> dict[str, float]:
    """Residuals of the untouched differentials applied to a cochain placed
    at position (1..k; empty): (N_j - 1) c for j > k and (M_i - 1) c for all
    i, evaluated at five sample points drawn from ``seed``.

    ``columns`` is the 2n x 2n integer coordinate matrix of the basis (the
    first n columns are the N-type directions; SplitBasis.columns_2n()).
    Returns {direction: residual}.
    """
    n = c.omega.shape[0]
    columns = np.asarray(columns, dtype=np.int64)
    if columns.shape != (2 * n, 2 * n):
        raise ShapeMismatch("basis columns must be 2n x 2n")
    samples = sample_points(n, 5, seed)
    residuals: dict[str, float] = {}
    base_vals = [c(Z).value for Z in samples]
    for name, mvec, nvec in _direction_pairs(columns, k, n):
        acted = lambda_action(mvec, nvec, c, delta=delta)
        resid = 0.0
        for Z, base in zip(samples, base_vals):
            resid = max(resid, abs(acted(Z).value - base))
        residuals[name] = resid
    return residuals

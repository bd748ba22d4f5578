"""Cone-restricted theta sums and their family algebra.

A single term is Theta_K(Z, omega) = exp(pi i tK omega K + 2 pi i tK Z).
Sums run over shifted positive cones with a rigorous Gaussian tail bound;
families are immutable objects closed symbolically under the lattice
action (prefactor and argument shift stored exactly, only the final sum is
approximate), and a family bound to a period matrix is its evaluator.
Identical inputs always produce bit-identical outputs: all terms of a sum
are evaluated in one vectorised pass and their real and imaginary parts are
added with math.fsum, which is correctly rounded and so does not depend on
the order of the terms.

What depends only on Q = Im(omega) is done once per cone and form
(lattice.ConeForm): the factorisation, the largest enumeration so far with
its norms, and one radius per Im Z.  A family bound to omega keeps its form
while it lives, and rebinding it to a period matrix with the same Im(omega)
shares that form.  Caches live on these objects only, never in a module.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import BadCharacteristic, NonPositiveRestriction, NotSplitAfterTransform
from .errors import RadiusOverflow, ShapeMismatch, ValidationError
from .lattice import (
    ConeForm,
    ConeSpec,
    SplitBasis,
    enumerate_cone,  # not called here (the sums enumerate through ConeForm.points); kept as theta.enumerate_cone
    enumerate_wedge,
    form_values,
    wedge_cones,
)
from .linalg import check_symmetric
from .rng import DEFAULT_SEED, SplitMix64

#: default absolute tolerance for truncated sums
DEFAULT_TOL = 1e-10

_MAX_RADIUS = 64.0

#: most truncation radii a ConeForm keeps (BoundConeSum._radius), so that a
#: long-lived bound family scanned over many Im Z holds a bounded memo
_RADII_KEPT = 1024


def complex_fsum(values) -> complex:
    """Correctly rounded sum of complex values (math.fsum on the real and
    imaginary parts); the result does not depend on the order.  A term that
    is not finite, or a sum beyond the double range, raises ValidationError."""
    values = np.asarray(values, dtype=complex)
    try:
        total = complex(math.fsum(values.real), math.fsum(values.imag))
        if cmath.isfinite(total):
            return total
    except (OverflowError, ValueError):  # intermediate overflow, inf - inf
        pass
    raise ValidationError("a term or the sum is beyond the double range")


def theta_terms(K, Z, omega) -> np.ndarray:
    """theta_term for every row of a (points, n) array K, in one pass."""
    K = np.asarray(K, dtype=float)
    Z = np.asarray(Z, dtype=complex)
    omega = np.asarray(omega, dtype=complex)
    if K.ndim != 2 or Z.shape != (K.shape[1],) or omega.shape != (K.shape[1],) * 2:
        raise ShapeMismatch("incompatible shapes for theta terms")
    return _terms(K, form_values(K, omega), Z)


def _terms(K: np.ndarray, quad: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """theta_terms given the part that does not depend on Z, quad =
    form_values(K, omega); form_values rounds each row on its own, so a
    prefix of quad is quad of the prefix."""
    with np.errstate(over="ignore", invalid="ignore"):  # complex_fsum rejects what overflows
        return np.exp(1j * math.pi * (quad + 2.0 * (K @ Z)))


def theta_term(K, Z, omega) -> complex:
    """exp(pi i tK omega K + 2 pi i tK Z); K may be rational (a lattice point
    plus a characteristic shift)."""
    K = np.asarray(K, dtype=float)
    Z = np.asarray(Z, dtype=complex)
    omega = np.asarray(omega, dtype=complex)
    if K.shape != Z.shape or omega.shape != (K.size, K.size):
        raise ShapeMismatch("incompatible shapes for a theta term")
    return cmath.exp(1j * math.pi * (K @ omega @ K + 2.0 * (K @ Z)))


class ThetaValue(NamedTuple):
    """A truncated sum value together with an absolute bound on the omitted
    terms; it unpacks as (value, tail)."""

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
    Gy = form.G.T @ y
    beta = math.sqrt(float(Gy @ Gy)) / math.sqrt(form.lam)  # |tG y|, as np.linalg.norm computes it
    return abs(float(form.shift @ y)) + form.t_s * beta, beta


def _shell_count(form: ConeForm, t: float, weighted: bool) -> float:
    """Bound on the number of cone points with sqrt(tK Q K) < t + 1, each
    counted |c_0| times when ``weighted``."""
    c_max = (t + 1.0 + form.t_s) / math.sqrt(form.lam)  # bounds every |c_i|
    count = (2 * math.floor(c_max) + 3) ** form.rank
    return count * c_max if weighted else count


def tail_bound(form: ConeForm, Z, radius: float, weighted: bool = False) -> float:
    """Upper bound for the sum of |Theta_K| over the points of the factored
    cone excluded by the radius, i.e. those with tK Q K > radius**2; with
    ``weighted``, each point K = s + G c counts |c_0| times (WedgeSum).

    Construction (all steps are inequalities, so the result is a true
    bound): write K = s + G c and t = sqrt(tK Q K).  With lam the smallest
    eigenvalue of the coefficient Gram matrix tG Q G,

      * |Theta_K| = exp(-pi t^2 - 2 pi tK y), y = Im Z, and
        |tK y| <= alpha + beta t  with  beta = |tG y| / sqrt(lam),
        alpha = |ts y| + t_s beta,  t_s = sqrt(ts Q s);
      * the number of cone points with t <= T is at most
        (2 floor((T + t_s)/sqrt(lam)) + 3)^m, and each has
        |c_0| <= (T + t_s)/sqrt(lam).

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
            math.log(_shell_count(form, t, weighted))
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


def _first_shell_radius(form: ConeForm, Z, tol: float, max_radius: float, weighted) -> float:
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
        excess = math.log(_shell_count(form, r, weighted)) + 2.0 * math.pi * alpha - math.log(tol)
        nxt = _on_grid(beta + math.sqrt(max(beta * beta + excess / math.pi, 0.0)))
        if nxt <= r:
            break
        r = nxt
    return r


def _solve_radius(forms, Z, tol: float, max_radius: float, weighted) -> tuple[float, float]:
    """(radius, bound): the first grid radius, from the largest
    _first_shell_radius of the forms up, at which their summed tail_bound is
    at most tol, and that sum.  RadiusOverflow past max_radius."""
    radius = max(_first_shell_radius(f, Z, tol, max_radius, weighted) for f in forms)
    while True:
        if radius > max_radius:
            raise RadiusOverflow("radius %g exceeded without reaching tol %g" % (max_radius, tol))
        bound = sum(tail_bound(f, Z, radius, weighted) for f in forms)
        if bound <= tol:
            return radius, bound
        radius += _RADIUS_STEP


# ---------------------------------------------------------------------------
# families and their bounds

def as_stack(Zs, n: int) -> np.ndarray:
    """Zs as a (p, n) complex array with p >= 1; ShapeMismatch otherwise."""
    Zs = np.asarray(Zs, dtype=complex)
    if Zs.ndim != 2 or Zs.shape[1] != n or not len(Zs):
        raise ShapeMismatch("expected a nonempty (p, %d) stack of Z, got shape %r" % (n, Zs.shape))
    return Zs


def _one_row(Z) -> np.ndarray:
    """A single Z as a stack of one (a Z that is not 1-d fails as_stack)."""
    return np.asarray(Z, dtype=complex)[None]


class Family:
    """Evaluation rule (omega, Z) -> (value, tail).  Families are immutable
    and deterministic.  bind checks omega once and returns the family bound
    to it (a Bound), which holds the work that depends only on omega;
    value_tail is bind plus one Z."""

    def bind(self, omega) -> "Bound":
        raise NotImplementedError

    def value_tail(self, omega, Z) -> ThetaValue:
        return self.bind(omega)(Z)


class Bound:
    """A family bound to one checked period matrix ``omega``: the evaluator
    of that family there.

    stack evaluates a (p, n) stack of Z and returns one ThetaValue per row;
    calling the bound on one Z is a stack of one.  Each row is evaluated as
    it would be alone: everything that depends on Z is computed per row, in
    the same order, so a row's value and tail do not depend on the other
    rows.

    A bound keeps, for as long as it lives, what its stacks computed from
    omega alone: a cone sum's form (lattice.ConeForm) keeps its largest
    enumeration with the norms and the radius solved for each Im Z (up to
    _RADII_KEPT of them), and the bound keeps tK omega K over that
    enumeration.  Later stacks read them back bit for bit, so a value never
    depends on what was evaluated before.  rebind(omega2) is bind(omega2)
    that shares the forms when Im(omega2) equals Im(omega) bit for bit (a
    cone sum and the families over one); other families bind anew."""

    family: Family
    omega: np.ndarray

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    def __call__(self, Z) -> ThetaValue:
        (row,) = self.stack(_one_row(Z))
        return row

    def stack(self, Zs) -> list[ThetaValue]:
        raise NotImplementedError

    def rebind(self, omega2) -> "Bound":
        return self.family.bind(omega2)


@dataclass(frozen=True)
class ConeSum(Family):
    """Sum of theta terms over a shifted cone, truncated at the smallest
    radius on a 1/8 grid whose certified tail bound clears the tolerance.

    bind factors the cone once (lattice.ConeForm).  Each Z then solves for
    the first radius whose first Gaussian shell alone is below tol
    (_first_shell_radius), checks it with the full tail_bound and steps up
    by 1/8 until the bound holds; typically the first check holds.  No
    radius above max_radius is used (RadiusOverflow).  evaluate returns
    (value, tail bound, radius).
    """

    cone: ConeSpec
    tol: float = DEFAULT_TOL
    max_radius: float = _MAX_RADIUS

    def bind(self, omega) -> "BoundConeSum":
        return BoundConeSum(self, check_symmetric(omega))

    def evaluate(self, omega, Z) -> tuple[complex, float, float]:
        (row,) = self.bind(omega).evaluate(_one_row(Z))
        return row


class BoundConeSum(Bound):
    """A ConeSum over one period matrix: the cone's ConeForm, given or
    factored (none for a rank-0 cone, whose sum is the term of its shift),
    and ``quad``, tK omega K over a prefix of the form's kept points."""

    def __init__(self, family: ConeSum, omega: np.ndarray, form: ConeForm | None = None):
        self.family, self.omega, self.quad = family, omega, np.empty(0, dtype=complex)
        cone = family.cone
        if not cone.rank:
            self.form, self.shift = None, cone.shift_float()
        else:
            self.form = ConeForm(cone, omega.imag) if form is None else form

    def rebind(self, omega2) -> "BoundConeSum":
        omega2 = check_symmetric(omega2)
        same_q = self.form is not None and omega2.imag.tobytes() == self.omega.imag.tobytes()
        return BoundConeSum(self.family, omega2, self.form if same_q else None)

    def points(self, radius: float) -> np.ndarray:
        """The points the sum at this radius runs over (enumerate_cone; the
        shift alone for a rank-0 cone)."""
        if self.form is None:
            return self.shift[None, :]
        return self.form.points(radius)[0]

    def _radius(self, Z) -> tuple[float, float]:
        """_solve_radius for Z, solved once per Im Z and tolerances on the
        form (it reads nothing else of Z).  The memo holds at most
        _RADII_KEPT entries: a full one is emptied before the next solve."""
        fam = self.family
        key, radii = (Z.imag.tobytes(), fam.tol, fam.max_radius), self.form.radii
        if key not in radii:
            if len(radii) >= _RADII_KEPT:
                radii.clear()
            radii[key] = _solve_radius([self.form], Z, fam.tol, fam.max_radius, False)
        return radii[key]

    def evaluate(self, Zs) -> list[tuple[complex, float, float]]:
        """(value, tail bound, radius) for every row of a stack of Z.

        Each row solves its own radius and sums the form's points up to it
        (ConeForm.points: a prefix of one enumeration at the largest radius
        so far).  The part of the terms that does not depend on Z,
        tK omega K, is computed once for these points and kept: its real
        part is form_values(K, Re omega) and its imaginary part is the
        form's norm, the same floats as form_values(K, omega) gives.  It is
        rounded point by point, so a row's prefix of it is what that row
        alone would compute."""
        Zs = as_stack(Zs, self.n)
        if self.form is None:
            return [(theta_term(self.shift, Z, self.omega), 0.0, 0.0) for Z in Zs]
        rows = [(Z, *self._radius(Z)) for Z in Zs]
        top = max(radius for _, radius, _ in rows)
        pts, norms = self.form.points(top)
        if len(self.quad) < len(pts):
            self.quad = None  # freed before the larger one is built
            self.quad = np.empty(len(pts), dtype=complex)
            self.quad.real, self.quad.imag = form_values(pts, self.omega.real), norms
        out = []
        for Z, radius, bound in rows:
            K = pts if radius == top else self.form.points(radius)[0]
            out.append((complex_fsum(_terms(K, self.quad[: len(K)], Z)), bound, radius))
        return out

    def stack(self, Zs):
        return [ThetaValue(value, tail) for value, tail, _ in self.evaluate(Zs)]


@dataclass(frozen=True)
class WedgeSum(Family):
    """Signed sum over the wedge of lattice.wedge_cones (built once, in
    ``cones``) with a certified tail bound <= tol.

    The |c_0| points of a coefficient vector c lie on the segment from P c
    to T c (plain and sheared generators) along N_k.  As Q(N_k) <= 0, Q is
    concave there and E(K) = -pi tK Q K - 2 pi tK y convex, so each
    |Theta_K| = e^E(K) is at most max(e^E(P c), e^E(T c)).  The points with
    c outside both ellipsoids Q(P c), Q(T c) <= r^2 are thus bounded by the
    two cones' tail_bounds, each point counted |c_0| times; the radius is
    solved as for ConeSum, up to _MAX_RADIUS.  NotSplitAfterTransform (from
    bind) when Q is not positive on both cones or Q(N_k) > 0.
    """

    basis: SplitBasis
    tol: float = DEFAULT_TOL
    cones: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cones", wedge_cones(self.basis))

    def bind(self, omega) -> "BoundWedgeSum":
        return BoundWedgeSum(self, check_symmetric(omega))

    # its own entry in the class, so that a tracer can wrap it per class
    value_tail = Family.value_tail


class BoundWedgeSum(Bound):
    """A WedgeSum over one period matrix: the two cones' forms, checked for
    the split once.  Rows of a stack that solve the same radius share one
    enumerate_wedge and its tK omega K."""

    def __init__(self, family: WedgeSum, omega: np.ndarray):
        self.family, self.omega = family, omega
        Q, basis = omega.imag, family.basis
        try:
            self.forms = [ConeForm(cone, Q) for cone in family.cones]
        except NonPositiveRestriction:
            raise NotSplitAfterTransform("a wedge cone is not positive for the form") from None
        shear = basis.N[:, basis.k - 1].astype(float)
        if shear @ Q @ shear > 0:
            raise NotSplitAfterTransform("the form is positive on the shear direction")

    def stack(self, Zs):
        Zs = as_stack(Zs, self.n)
        basis = self.family.basis
        signed = {}  # radius -> (points, signs, tK omega K), for this stack only
        out = []
        for Z in Zs:
            radius, bound = _solve_radius(self.forms, Z, self.family.tol, _MAX_RADIUS, True)
            if radius not in signed:
                K = enumerate_wedge(basis, self.forms, radius)
                signed[radius] = K, np.sign(K @ basis.M[:, basis.k]), form_values(K, self.omega)
            K, sign, quad = signed[radius]
            with np.errstate(over="ignore", invalid="ignore"):  # inf * sign; complex_fsum rejects it
                terms = sign * _terms(K, quad, Z)
            out.append(ThetaValue(complex_fsum(terms), bound))
        return out


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

    def bind(self, omega) -> "BoundLambdaShifted":
        return BoundLambdaShifted(self, self.inner.bind(omega))


class BoundLambdaShifted(Bound):
    """A LambdaShifted over the period matrix of its bound inner family:
    tN omega N and omega N computed once."""

    def __init__(self, family: LambdaShifted, inner: Bound):
        self.family, self.inner, self.omega = family, inner, inner.omega
        self.M = np.array(family.mvec, dtype=float)
        self.N = np.array(family.nvec, dtype=float)
        if self.M.shape != (self.n,) or self.N.shape != (self.n,):
            raise ShapeMismatch("lattice pair and period matrix sizes differ")
        self.tNoN = self.N @ self.omega @ self.N
        self.oN = self.omega @ self.N

    def rebind(self, omega2) -> "BoundLambdaShifted":
        return BoundLambdaShifted(self.family, self.inner.rebind(omega2))

    def stack(self, Zs):
        Zs = as_stack(Zs, self.n)
        out = []
        for Z, (v, t) in zip(Zs, self.inner.stack(Zs + self.M + self.oN)):
            # the theta term of N (theta_term), with tN omega N hoisted
            pref = cmath.exp(1j * math.pi * (self.tNoN + 2.0 * (self.N @ Z)))
            out.append(ThetaValue(pref * v, abs(pref) * t))
        return out


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


def lambda_action(Mvec, Nvec, f: Bound, delta=None) -> BoundLambdaShifted:
    """Act on a bound family by the lattice pair (M, N) over its own period
    matrix, wrapping it (nothing of f is computed again); the type vector
    ``delta`` twists the translation part to Delta M for non-principal
    types."""
    M = [int(x) for x in np.asarray(Mvec).ravel()]
    if delta is not None:
        M = [int(d) * m for d, m in zip(delta, M, strict=True)]
    N = tuple(int(x) for x in np.asarray(Nvec).ravel())
    return BoundLambdaShifted(LambdaShifted(f.family, tuple(M), N), f)


def wedge_function(basis: SplitBasis, omega, tol: float = DEFAULT_TOL) -> BoundWedgeSum:
    """The signed wedge sum attached to the unit shear at the basis
    splitting index, bound to omega."""
    return WedgeSum(basis, tol).bind(omega)


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
    c: Bound, columns, k: int, delta=None, seed: int = DEFAULT_SEED
) -> dict[str, float]:
    """Residuals of the untouched differentials applied to a cochain placed
    at position (1..k; empty): (N_j - 1) c for j > k and (M_i - 1) c for all
    i, evaluated at five sample points drawn from ``seed``: one stack for
    the bound family c and one per direction, all over c.

    ``columns`` is the 2n x 2n integer coordinate matrix of the basis (the
    first n columns are the N-type directions; SplitBasis.columns_2n()).
    Returns {direction: residual}.
    """
    n = c.n
    columns = np.asarray(columns, dtype=np.int64)
    if columns.shape != (2 * n, 2 * n):
        raise ShapeMismatch("basis columns must be 2n x 2n")
    samples = sample_points(n, 5, seed)
    residuals: dict[str, float] = {}
    base_vals = [tv.value for tv in c.stack(samples)]
    for name, mvec, nvec in _direction_pairs(columns, k, n):
        acted = lambda_action(mvec, nvec, c, delta=delta)
        resid = 0.0
        for tv, base in zip(acted.stack(samples), base_vals):
            resid = max(resid, abs(tv.value - base))
        residuals[name] = resid
    return residuals

import cmath
import itertools
import math
from collections import defaultdict
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conetheta import intmat, lattice, modular, theta
from conetheta.errors import (
    BadCharacteristic,
    NonPositiveRestriction,
    NotSplitAfterTransform,
    RadiusOverflow,
    ShapeMismatch,
    ValidationError,
)
from conetheta.lattice import ConeForm, ConeSpec, ModularElement, SplitBasis, enumerate_cone
from conetheta.modular import ModularImage, modular_apply
from conetheta.rng import SplitMix64
from conetheta.theta import (
    Characteristic,
    ConeSum,
    LambdaShifted,
    WedgeSum,
    complex_fsum,
    cone_sum,
    lambda_action,
    reduced_characteristics,
    sample_points,
    tail_bound,
    theta_char,
    theta_term,
    theta_terms,
    verify_cocycle,
    wedge_function,
)

OM1 = np.array([[1j]])
Z0 = np.array([0j])
FULL1 = ConeSpec.full_lattice(1)


def brute_theta1(z, tau, N=40):
    return sum(cmath.exp(1j * math.pi * tau * m * m + 2j * math.pi * m * z) for m in range(-N, N + 1))


def test_theta_term_zero_vector():
    assert theta_term(np.zeros(2), np.array([0.3 + 0.1j, -0.2j]), np.diag([1j, 2j])) == 1.0


def test_theta_term_gaussian():
    got = theta_term(np.array([1.0]), Z0, OM1)
    assert abs(got - math.exp(-math.pi)) < 1e-15
    assert abs(got - 0.04321391826377224) < 1e-11


def test_theta_term_with_argument():
    got = theta_term(np.array([2.0]), np.array([0.5 + 0j]), OM1)
    assert abs(got - math.exp(-4 * math.pi)) < 1e-18
    assert abs(got - 3.4873e-6) < 1e-9


def test_cone_sum_classical_value():
    tv = cone_sum(Z0, OM1, FULL1, 1e-10)
    # oracle: direct summation over |K| <= 10
    oracle = sum(math.exp(-math.pi * m * m) for m in range(-10, 11))
    assert abs(tv.value - oracle) <= 1e-10
    assert abs(tv.value - math.pi**0.25 / math.gamma(0.75)) < 1e-9
    assert tv.tail <= 1e-10


def test_cone_sum_point_cone():
    tv = cone_sum(Z0, np.array([[-1j]]), ConeSpec(np.zeros((1, 0), dtype=np.int64), (0,)))
    assert tv.value == 1.0 and tv.tail == 0.0


def test_cone_sum_reduces_to_one_dimension():
    om = np.diag([-1j, 1j])
    tv = cone_sum(np.zeros(2, complex), om, ConeSpec(np.array([[0], [1]]), (0, 0)))
    assert abs(tv.value - math.pi**0.25 / math.gamma(0.75)) < 1e-9


def test_cone_sum_rejects_negative_span():
    with pytest.raises(NonPositiveRestriction):
        cone_sum(Z0, np.array([[-1j]]), FULL1)


def test_cone_sum_radius_overflow():
    fam = ConeSum(FULL1, 1e-30, max_radius=4.0)
    with pytest.raises(RadiusOverflow):
        fam.evaluate(OM1, Z0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("integer_part", [10**30, 3**80, 10**200])
def test_cone_sum_large_library_shift(integer_part):
    # one exact move leaves the rounding error of float(shift) behind, so
    # shifts beyond about 2**100 need more moves (10**200 + 1/3 needs 9)
    want = ConeSum(ConeSpec([[1]], (Fraction(1, 3),)), 1e-10).evaluate(OM1, Z0)
    got = ConeSum(ConeSpec([[1]], (integer_part + Fraction(1, 3),)), 1e-10).evaluate(OM1, Z0)
    assert got == want
    assert abs(got[0] - 0.956782594394922) < 1e-12


@pytest.mark.parametrize(
    "generators", [[[1]], np.zeros((1, 0), dtype=np.int64)], ids=["rank1", "rank0"]
)
def test_cone_sum_rejects_shift_beyond_double(generators):
    # float(10**400) raised OverflowError, in ConeForm and on the rank-0 path
    with pytest.raises(ValidationError):
        ConeSum(ConeSpec(generators, (10**400,)), 1e-10).evaluate(OM1, Z0)


def test_cone_sum_matches_brute_at_random_points():
    for Z in sample_points(1, 5):
        tv = cone_sum(Z, OM1, FULL1, 1e-12)
        assert abs(tv.value - brute_theta1(complex(Z[0]), 1j)) < 1e-11


def test_tail_bound_rank_zero():
    point = ConeSpec(np.zeros((1, 0), dtype=np.int64), (0,))
    assert tail_bound(ConeForm(point, OM1.imag), Z0, 3.0) == 0.0


def test_tail_bound_dominates_remainder():
    bound = tail_bound(ConeForm(FULL1, OM1.imag), Z0, 10.0)
    remainder = 2 * sum(math.exp(-math.pi * m * m) for m in range(11, 80))
    assert remainder <= bound <= 1e-40


def test_tail_bound_monotone():
    form = ConeForm(FULL1, OM1.imag)
    b5 = tail_bound(form, Z0, 5.0)
    b6 = tail_bound(form, Z0, 6.0)
    assert b6 <= b5


def test_cone_sum_factors_the_cone_once(monkeypatch):
    # one eigvalsh and one Cholesky per sum, and the cone, validated when
    # it was built, is not validated again (also not by with_extra_shift)
    cone = ConeSpec(np.array([[1, 0], [1, 1], [0, 1]]), (0, Fraction(1, 3), 0))
    omega = np.array([[0.1 + 1.0j, 0.2j, 0.0], [0.2j, 1.5j, 0.1j], [0.0, 0.1j, 0.3 + 2.0j]])
    Z = np.array([0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.25j])
    counts = defaultdict(int)

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in (
        (np.linalg, "eigvalsh"),
        (np.linalg, "cholesky"),
        (np.linalg, "matrix_rank"),
        (intmat, "is_primitive_columns"),
        (lattice, "is_primitive_columns"),  # the name ConeSpec calls
    ):
        counted(owner, name)
    ConeSum(cone).evaluate(omega, Z)
    assert dict(counts) == {"eigvalsh": 1, "cholesky": 1}
    counts.clear()
    theta_char(Characteristic((0, Fraction(1, 2), 0), (1, 2, 2)), Z, omega, cone)
    assert dict(counts) == {"eigvalsh": 1, "cholesky": 1}

    # a whole verify_cocycle binds the cone once: one factorisation, and an
    # enumeration only for a stack whose largest radius is larger than any
    # before.  That is the base values (radius 3.625) and N_2 (6.625);
    # N_3 needs less, and the M_i directions move Re Z only, so they reuse
    # the base radii.  The other stacks are served from the kept points.
    counted(lattice, "_enumerate")  # what ConeForm.points calls
    counts.clear()
    basis = SplitBasis.identity(3, 1)
    residuals = verify_cocycle(ConeSum(cone).bind(omega), basis.columns_2n(), basis.k)
    assert len(residuals) == 5
    assert dict(counts) == {"eigvalsh": 1, "cholesky": 1, "_enumerate": 2}

    # the image under an upper-triangular element with A = D = I transforms
    # omega once, and Im(omega^g) = Im(omega) bit for bit, so its inner sum
    # shares a fresh bound's form: nothing is factored again, and its
    # rows (T = I) enumerate as often as the plain bound's
    counted(modular, "omega_transform")
    counts.clear()
    g = ModularElement(np.eye(3), np.array([[2, 1, 0], [1, 0, 1], [0, 1, 2]]), np.zeros((3, 3)), np.eye(3))
    cg = modular_apply(g, ConeSum(cone).bind(omega), 1.0)
    residuals = verify_cocycle(cg, lattice.transform_basis(g, basis)[0], basis.k)
    assert dict(counts) == {"eigvalsh": 1, "cholesky": 1, "omega_transform": 1, "_enumerate": 2}


def test_tail_is_true_bound():
    # |reference at radius 2r - truncated at r| <= tail(r)
    for om, cone, Z in [
        (OM1, FULL1, np.array([0.2 + 0.1j])),
        (np.diag([-1j, 1j]), ConeSpec(np.array([[0], [1]]), (0, 0)), np.array([0.1, 0.2 - 0.2j])),
    ]:
        form = ConeForm(cone, om.imag)
        for r in (4.0, 6.0):
            pts_r = enumerate_cone(form, r)
            pts_2r = enumerate_cone(form, 2 * r)
            v_r = complex_fsum([theta_term(K, Z, om) for K in pts_r])
            v_2r = complex_fsum([theta_term(K, Z, om) for K in pts_2r])
            assert abs(v_2r - v_r) <= tail_bound(form, Z, r)


def test_evaluation_deterministic():
    ev = ConeSum(FULL1, 1e-12).bind(OM1)
    Z = np.array([0.3 + 0.2j])
    first = ev(Z)
    second = ev(Z)
    assert first.value == second.value and first.tail == second.tail


def test_theta_char_zero_shift_matches_cone_sum():
    char = Characteristic((0,), (1,))
    a = theta_char(char, Z0, OM1, FULL1)
    b = cone_sum(Z0, OM1, FULL1)
    assert a.value == b.value


def test_theta_char_half_shift():
    char = Characteristic((Fraction(1, 2),), (2,))
    tv = theta_char(char, Z0, OM1, FULL1, 1e-10)
    oracle = sum(math.exp(-math.pi * (m + 0.5) ** 2) for m in range(-10, 11))
    assert abs(tv.value - oracle) <= 1e-10


def test_theta_char_integral_shift_absorbed():
    char = Characteristic((1,), (1,))  # reduces to 0 mod 1
    a = theta_char(char, Z0, OM1, FULL1)
    b = cone_sum(Z0, OM1, FULL1)
    assert abs(a.value - b.value) < 1e-10


def test_characteristic_validation():
    with pytest.raises(BadCharacteristic):
        Characteristic((Fraction(1, 3),), (2,))
    with pytest.raises(BadCharacteristic):
        Characteristic((0, 0), (2, 3))  # 2 does not divide 3


def test_reduced_characteristics_count():
    assert len(reduced_characteristics((1, 2))) == 2
    assert len(reduced_characteristics((2, 2))) == 4
    assert len(reduced_characteristics((1, 1))) == 1


def test_lambda_action_identity_pair():
    ev = ConeSum(FULL1, 1e-12).bind(OM1)
    acted = lambda_action((0,), (0,), ev)
    for Z in sample_points(1, 3):
        assert abs(acted(Z).value - ev(Z).value) == 0.0


def test_lambda_action_translation_only():
    ev = ConeSum(FULL1, 1e-12).bind(OM1)
    acted = lambda_action((1,), (0,), ev)
    for Z in sample_points(1, 3):
        assert abs(acted(Z).value - ev(Z + 1.0).value) < 1e-14


def test_lambda_action_shifts_cone():
    # acting by a lattice direction re-indexes the sum over the shifted
    # cone; verify against the directly shifted enumeration, both for the
    # direction inside the positive cone (shift absorbed) and for the
    # negative-cone direction (a genuinely different point set)
    om = np.diag([-1j, 1j])
    cone = ConeSpec(np.array([[0], [1]]), (0, 0))
    ev = ConeSum(cone, 1e-12).bind(om)
    for direction in ((0, 1), (1, 0)):
        shifted = ConeSpec(np.array([[0], [1]]), direction)
        ev_shift = ConeSum(shifted, 1e-12).bind(om)
        acted = lambda_action((0, 0), direction, ev)
        for Z in sample_points(2, 5):
            assert abs(acted(Z).value - ev_shift(Z).value) < 1e-9


def test_lambda_action_composition():
    om = np.diag([-1j, 1j])
    cone = ConeSpec(np.array([[0], [1]]), (0, 0))
    ev = ConeSum(cone, 1e-12).bind(om)
    rng = SplitMix64(55)
    for _ in range(10):
        M1 = (rng.next_int(-1, 1), rng.next_int(-1, 1))
        N1 = (rng.next_int(-1, 1), rng.next_int(-1, 1))
        M2 = (rng.next_int(-1, 1), rng.next_int(-1, 1))
        N2 = (rng.next_int(-1, 1), rng.next_int(-1, 1))
        two_step = lambda_action(M1, N1, lambda_action(M2, N2, ev))
        one_step = lambda_action(
            (M1[0] + M2[0], M1[1] + M2[1]), (N1[0] + N2[0], N1[1] + N2[1]), ev
        )
        for Z in sample_points(2, 2, rng.next_int(0, 10**6)):
            assert abs(two_step(Z).value - one_step(Z).value) < 1e-10


# ---------------------------------------------------------------------------
# wedge function

WOM = np.diag([-1j, 2j])
WBASIS = SplitBasis.identity(2, 1)


def _wedge_oracle(Z, R=16):
    """Independent double enumeration over the two shell families with
    cancellation (bounded shells, then sum the surviving signed points)."""
    cnt = defaultdict(int)
    for r in range(0, 2 * R + 1):
        for s in range(-R, R + 1):
            cnt[(r - s, s)] += 1
            cnt[(r, s)] -= 1
    vals = []
    for (a, s), c in sorted(cnt.items()):
        if c and max(abs(a), abs(s)) <= R:
            vals.append(c * theta_term(np.array([a, s], dtype=float), Z, WOM))
    return complex_fsum(vals)


def test_wedge_function_matches_oracle():
    f = wedge_function(WBASIS, WOM, tol=1e-12)
    for Z in sample_points(2, 5):
        assert abs(f(Z).value - _wedge_oracle(Z)) < 1e-10


def test_wedge_shear_identity():
    # (shear-direction action - 1) f = plain cone sum - sheared cone sum
    f = wedge_function(WBASIS, WOM, tol=1e-12)
    plain = ConeSum(ConeSpec(np.array([[0], [1]]), (0, 0)), 1e-12).bind(WOM)
    sheared = ConeSum(ConeSpec(np.array([[-1], [1]]), (0, 0)), 1e-12).bind(WOM)
    for Z in sample_points(2, 5):
        lhs = lambda_action((0, 0), (1, 0), f)(Z).value - f(Z).value
        rhs = plain(Z).value - sheared(Z).value
        assert abs(lhs - rhs) < 1e-8


def test_wedge_rejects_a_form_positive_on_the_shear_direction():
    # Q = I is positive on both cones, but Q(N_1) > 0 voids the concavity
    # that the tail bound rests on
    with pytest.raises(NotSplitAfterTransform):
        wedge_function(WBASIS, np.diag([1j, 1j]))(np.zeros(2))


def test_wedge_next_identity():
    f = wedge_function(WBASIS, WOM, tol=1e-12)
    sheared = ConeSum(ConeSpec(np.array([[-1], [1]]), (0, 0)), 1e-12).bind(WOM)
    for Z in sample_points(2, 5):
        lhs = lambda_action((0, 0), (0, 1), f)(Z).value - f(Z).value
        assert abs(lhs + sheared(Z).value) < 1e-8


# ---------------------------------------------------------------------------
# cocycle verification

def _cols(n, k):
    basis = SplitBasis.identity(n, k)
    return basis.columns_2n(), basis.k


def test_verify_cocycle_classical():
    ev = ConeSum(FULL1, 1e-12).bind(OM1)
    res = verify_cocycle(ev, *_cols(1, 0))
    assert set(res) == {"N_1", "M_1"}
    assert all(r < 1e-9 for r in res.values())


def test_verify_cocycle_point_cone_exact():
    om = np.array([[-1j]])
    ev = ConeSum(ConeSpec(np.zeros((1, 0), dtype=np.int64), (0,)), 1e-12).bind(om)
    res = verify_cocycle(ev, *_cols(1, 1))
    assert set(res) == {"M_1"}
    assert res["M_1"] < 1e-12


def test_verify_cocycle_indefinite():
    om = np.diag([-1j, 1j])
    ev = ConeSum(ConeSpec(np.array([[0], [1]]), (0, 0)), 1e-12).bind(om)
    res = verify_cocycle(ev, *_cols(2, 1))
    assert set(res) == {"N_2", "M_1", "M_2"}
    assert all(r < 1e-8 for r in res.values())


def test_verify_cocycle_twisted_characteristic():
    om = np.diag([-1j, 1j])
    char = Characteristic((0, Fraction(1, 2)), (1, 2))
    cone = ConeSpec(np.array([[0], [1]]), (0, 0)).with_extra_shift(char.a)
    ev = ConeSum(cone, 1e-12).bind(om)
    res = verify_cocycle(ev, *_cols(2, 1), delta=char.delta)
    assert all(r < 1e-8 for r in res.values())


def test_sample_points_deterministic_and_bounded():
    a = sample_points(2, 5)
    b = sample_points(2, 5)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    for Z in a:
        assert np.all(np.abs(Z.real) <= 0.5) and np.all(np.abs(Z.imag) <= 0.3)


# ---------------------------------------------------------------------------
# independent high-precision oracle


def _mp_cone_sum(cone, omega, Z, radius):
    """The cone sum in 30-digit mpmath arithmetic over every point with
    tK Q K <= (radius + 3)**2, found by scanning the coefficient box that
    bounds that ellipsoid.  Each point is built from exact rationals; the
    terms left out are bounded by tail_bound at radius + 3, below 1e-50 for
    every case here."""
    mp = mpmath.mp.clone()
    mp.dps = 30
    Q = omega.imag
    G = cone.generators.astype(float)
    s = cone.shift_float()
    A = G.T @ Q @ G
    c_star = np.linalg.solve(A, -(G.T @ Q @ s))
    half = (radius + 3.0) / math.sqrt(float(np.min(np.linalg.eigvalsh(A)))) + 1.0
    ranges = [range(math.floor(c - half), math.ceil(c + half) + 1) for c in c_star]
    om = [[mp.mpc(complex(x)) for x in row] for row in omega]
    zz = [mp.mpc(complex(x)) for x in Z]
    total = mp.mpc(0)
    for coeffs in itertools.product(*ranges):
        K = s + G @ np.array(coeffs, dtype=float)
        if K @ Q @ K > (radius + 3.0) ** 2:
            continue
        Kq = [
            mp.mpf(x.numerator) / x.denominator
            for x in (
                Fraction(sh) + sum(int(g) * c for g, c in zip(row, coeffs))
                for sh, row in zip(cone.shift, cone.generators)
            )
        ]
        n = len(Kq)
        quad = mp.fsum(Kq[i] * om[i][j] * Kq[j] for i in range(n) for j in range(n))
        lin = mp.fsum(Kq[i] * zz[i] for i in range(n))
        total += mp.exp(1j * mp.pi * (quad + 2 * lin))
    return complex(total)


ORACLE_CASES = [
    # (omega, cone, characteristic or None, Z)
    (np.array([[0.3 + 1.1j]]), FULL1, None, np.array([0.2 + 0.1j])),
    (
        np.array([[0.1 - 1.0j, 0.3], [0.3, 0.2 + 2.0j]]),
        ConeSpec(np.array([[0], [1]]), (0, 0)),
        None,
        np.array([0.1 + 0.2j, -0.3 + 0.1j]),
    ),
    (
        np.array([[0.1 + 1.2j, 0.3j, 0.1j], [0.3j, 0.2 + 1.0j, -0.2j], [0.1j, -0.2j, -0.1 + 0.9j]]),
        ConeSpec.full_lattice(3),
        None,
        np.array([0.3 - 0.2j, -0.1 + 0.25j, 0.45 + 0.1j]),
    ),
    (
        np.array([[0.2 + 1.0j, 0.1 + 0.2j], [0.1 + 0.2j, -0.3 + 0.8j]]),
        ConeSpec.full_lattice(2),
        Characteristic((Fraction(1, 2), Fraction(1, 3)), (2, 6)),
        np.array([-0.2 + 0.3j, 0.4 - 0.1j]),
    ),
    (
        np.array([[0.1 - 1.0j, 0.2j, 0.1], [0.2j, 1.5j, 0.3j], [0.1, 0.3j, 0.2 + 1.0j]]),
        ConeSpec(np.array([[0, 0], [1, 0], [0, 1]]), (0, 0, 0)),
        Characteristic((0, Fraction(1, 2), Fraction(1, 2)), (1, 2, 2)),
        np.array([0.05 + 0.1j, -0.25 - 0.3j, 0.35 + 0.2j]),
    ),
]


@pytest.mark.parametrize("omega, cone, char, Z", ORACLE_CASES)
def test_cone_sums_match_mpmath_oracle(omega, cone, char, Z):
    if char is None:
        tv = cone_sum(Z, omega, cone)
    else:
        tv = theta_char(char, Z, omega, cone)
        cone = cone.with_extra_shift(char.a)
    _, _, radius = ConeSum(cone).evaluate(omega, Z)
    oracle = _mp_cone_sum(cone, omega, Z, radius)
    assert abs(tv.value - oracle) <= tv.tail + 1e-14


# ---------------------------------------------------------------------------
# the radius search


@st.composite
def _radius_cases(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    U = np.eye(n, dtype=np.int64)
    moves = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-1, 1))
    for i, j, c in draw(st.lists(moves, max_size=4)):
        if i != j:
            U[:, i] += c * U[:, j]
    perm = draw(st.permutations(range(n)))
    gens = U[:, list(perm)[:m]]  # columns of a unimodular matrix: a primitive sublattice
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    B = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    Q = B.T @ B + draw(st.floats(0.5, 2.0)) * np.eye(n)
    X = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n) / 2
    omega = (X + X.T) / 2 + 1j * Q
    fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))
    shift = draw(st.lists(fractions, min_size=n, max_size=n))
    re = draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))
    im = draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n))
    Z = np.array(re) + 1j * np.array(im)
    tol = 10.0 ** draw(st.floats(-14.0, -6.0))
    return ConeSpec(gens, tuple(shift)), omega, Z, tol


#: largest coefficient box the reference scans (a few cones with a small
#: lam would need millions of points)
_MAX_BOX = 100_000


def _box(cone, Q, radius):
    """Coefficients of the box around the minimiser that bounds the
    ellipsoid tK Q K <= radius**2, as ranges."""
    s = cone.shift_float()
    G = cone.generators.astype(float)
    A = G.T @ Q @ G
    b = G.T @ Q @ s
    c_star = np.linalg.solve(A, -b)
    q_min = float(s @ Q @ s + b @ c_star)
    half = math.sqrt(max(radius**2 - q_min, 0.0) / float(np.min(np.linalg.eigvalsh(A)))) + 1e-9
    return [range(math.ceil(c - half), math.floor(c + half) + 1) for c in c_star]


def _box_filter_sum(cone, omega, Z, radius):
    """Sum of the terms with tK Q K <= radius**2, found by scanning the box."""
    Q = omega.imag
    box = np.array(list(itertools.product(*_box(cone, Q, radius))), dtype=float)
    K = cone.shift_float() + box.reshape(-1, cone.rank) @ cone.generators.T
    K = K[lattice.form_values(K, Q) <= radius**2]
    return complex_fsum(theta_terms(K, Z, omega))


@settings(max_examples=60, deadline=None)
@given(_radius_cases())
def test_radius_search_is_smallest_certifying_radius(case):
    cone, omega, Z, tol = case
    fam = ConeSum(cone, tol)
    value, bound, radius = fam.evaluate(omega, Z)
    form = ConeForm(cone, omega.imag)
    assert bound <= tol and radius <= fam.max_radius
    assert bound == tail_bound(form, Z, radius)
    # the grid point below does not certify (tail_bound is +inf below beta + 1)
    assert tail_bound(form, Z, radius - 0.125) > tol
    wide = radius + 1.5
    assume(math.prod(len(r) for r in _box(cone, omega.imag, wide)) <= _MAX_BOX)
    reference = _box_filter_sum(cone, omega, Z, wide)
    assert abs(value - reference) <= bound + tail_bound(form, Z, wide) + 1e-14


# ---------------------------------------------------------------------------
# bound families and stacks of Z


def _same_rows(family, omega, Zs):
    """A bound stack of Z gives, row by row, what a one-Z call gives."""
    rows = family.bind(omega).stack(Zs)
    assert len(rows) == len(Zs)
    for Z, (value, tail) in zip(Zs, rows):
        want_value, want_tail = family.value_tail(omega, Z)
        assert value == want_value and tail == want_tail


def _z_stacks(n):
    # rows with Im Z of different sizes solve different radii
    row = st.tuples(
        st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n),
        st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n),
    )
    return st.lists(row, min_size=1, max_size=5).map(
        lambda rows: np.array([np.array(re) + 1j * np.array(im) for re, im in rows])
    )


@settings(max_examples=40, deadline=None)
@given(_radius_cases(), st.data())
def test_stack_matches_single_rows(case, data):
    cone, omega, _, tol = case
    n = cone.n
    Zs = data.draw(_z_stacks(n))
    fam = ConeSum(cone, max(tol, 1e-12))
    _same_rows(fam, omega, Zs)
    pair = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    _same_rows(LambdaShifted(fam, tuple(data.draw(pair)), tuple(data.draw(pair))), omega, Zs)
    # an upper-triangular element (C = 0): a GL_n block, then a symmetric
    # translation; Im(omega) is positive definite, so the cone stays positive
    U = np.eye(n, dtype=np.int64)
    moves = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-1, 1))
    for i, j, c in data.draw(st.lists(moves, max_size=3)):
        if i != j:
            U[i] += c * U[j]
    S = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))).reshape(n, n)
    zero = np.zeros((n, n), dtype=np.int64)
    g = ModularElement(np.eye(n), S + S.T, zero, np.eye(n)) @ ModularElement(
        U.T, zero, zero, intmat.unimodular_inverse(U)
    )
    _same_rows(ModularImage(fam, g, 1j), omega, Zs)


def _inner_form(bound):
    """The ConeForm under a bound family (through lambda shifts and modular
    images)."""
    while not hasattr(bound, "form"):
        bound = bound.inner
    return bound.form


def _rebind_matches_bind(family, omega, omega2, Zs):
    """bound.rebind(omega2) evaluates a stack as family.bind(omega2) does,
    after the bound at omega has filled its caches with a stack of its own.
    Returns whether the rebind shares the bound's form."""
    bound = family.bind(omega)
    bound.stack(Zs[::-1])
    got = bound.rebind(omega2).stack(Zs)
    assert got == family.bind(omega2).stack(Zs)
    assert bound.rebind(omega2).stack(Zs) == got  # a second rebind, on warm caches
    return _inner_form(bound.rebind(omega2)) is _inner_form(bound)


@settings(max_examples=40, deadline=None)
@given(_radius_cases(), st.data())
def test_rebind_matches_a_fresh_bind(case, data):
    # the real steps of the heat suite's finite differences: Im(omega) does
    # not move, so the form (its enumeration and radii) is shared, and every
    # value and tail is what a fresh bind gives, bit for bit
    cone, omega, _, tol = case
    n = cone.n
    Zs = data.draw(_z_stacks(n))
    i, j = sorted(data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    E = np.zeros((n, n))
    E[i, j] = E[j, i] = data.draw(st.sampled_from([1e-4, -1e-4, 2e-3, -1e-3]))
    omega2 = omega + E
    fam = ConeSum(cone, max(tol, 1e-12))
    assert _rebind_matches_bind(fam, omega, omega2, Zs)
    pair = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    shifted = LambdaShifted(fam, tuple(data.draw(pair)), tuple(data.draw(pair)))
    assert _rebind_matches_bind(shifted, omega, omega2, Zs)
    # A = D = I, C = 0: omega^g = omega - B, so Im(omega^g) stays Im(omega)
    # bit for bit, and the form is shared
    S = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))).reshape(n, n)
    zero = np.zeros((n, n), dtype=np.int64)
    translation = ModularElement(np.eye(n), S + S.T, zero, np.eye(n))
    assert _rebind_matches_bind(ModularImage(fam, translation, 1j), omega, omega2, Zs)
    # a GL_n block with A != I: the form is shared exactly when
    # Im(omega^g) has kept its bits, and is bound anew otherwise
    U = np.eye(n, dtype=np.int64)
    for a, b, c in data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 2, st.integers(-1, 1)), max_size=3)):
        if a != b:
            U[a] += c * U[b]
    g = ModularElement(U.T, zero, zero, intmat.unimodular_inverse(U))
    im_g = [modular.omega_transform(g, om).imag.tobytes() for om in (omega, omega2)]
    same_bits = im_g[0] == im_g[1]
    assert _rebind_matches_bind(ModularImage(fam, g, 1.0), omega, omega2, Zs) == same_bits


@settings(max_examples=20, deadline=None)
@given(st.floats(-0.5, 0.5), st.floats(0.7, 1.5), st.sampled_from([1e-4, -2e-3]), _z_stacks(1))
def test_rebind_binds_anew_when_im_omega_moves(re, im, eps, Zs):
    # with C != 0, Im(omega^g) depends on Re(omega): the inversion sends
    # omega to -1/omega, whose imaginary part moves with a real step
    inversion = ModularElement([[0]], [[-1]], [[1]], [[0]])
    family = ModularImage(ConeSum(FULL1, 1e-12), inversion, 1.0)
    omega = np.array([[complex(re, im)]])
    assert not _rebind_matches_bind(family, omega, omega + eps, Zs)


def test_radius_memo_is_bounded(monkeypatch):
    # a bound scanned over many Im Z keeps at most _RADII_KEPT radii on its
    # form, and a radius solved again after the memo was emptied is the same
    monkeypatch.setattr(theta, "_RADII_KEPT", 3)
    bound = ConeSum(FULL1, 1e-12).bind(np.array([[1j]]))
    Zs = [np.array([complex(0.1, y)]) for y in (0.0, 0.05, 0.1, 0.15, 0.2, 0.0)]
    rows = []
    for Z in Zs:
        rows += bound.evaluate([Z])
        assert 1 <= len(bound.form.radii) <= 3
    assert rows[-1] == rows[0]
    assert rows == ConeSum(FULL1, 1e-12).bind(np.array([[1j]])).evaluate(Zs)


#: forms split by the identity basis at k = 1: Q(N_1) < 0, and Q is
#: positive on the plain and the sheared cone
_WEDGE_OMEGAS = (WOM, np.array([[0.1 - 1.0j, 0.2 + 0.3j], [0.2 + 0.3j, -0.1 + 2.0j]]))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_WEDGE_OMEGAS), _z_stacks(2))
def test_wedge_stack_matches_single_rows(omega, Zs):
    _same_rows(WedgeSum(WBASIS, 1e-10), omega, Zs)


def test_stack_rows_with_different_radii():
    # the first row's radius, 3, is the norm of its outermost points +-3:
    # its prefix ends on a tie with r**2
    fam = ConeSum(FULL1, 1e-10)
    Zs = np.array([[0.1 + 0.1j], [0.2 + 0.3j], [-0.4 + 0.0j], [0.1 + 0.1j]])
    rows = fam.bind(OM1).evaluate(Zs)
    assert rows[0][2] == 3.0 and len({radius for _, _, radius in rows}) == 3
    for Z, row in zip(Zs, rows):
        assert row == fam.evaluate(OM1, Z)


@pytest.mark.parametrize(
    "cone, omega",
    [
        (ConeSpec(np.zeros((2, 0), dtype=np.int64), (Fraction(1, 2), 0)), np.diag([-1j, -2j])),
        (ConeSpec(np.array([[0], [1]]), (Fraction(1, 3), Fraction(1, 2))), np.diag([-1j, 1j])),
    ],
    ids=["rank0", "shifted"],
)
def test_stack_rank0_and_shifted_cones(cone, omega):
    Zs = np.array([[0.1 + 0.2j, -0.3 + 0.1j], [0.4 - 0.3j, 0.2 + 0.0j]])
    for fam in (ConeSum(cone, 1e-12), LambdaShifted(ConeSum(cone, 1e-12), (1, 0), (0, 1))):
        _same_rows(fam, omega, Zs)
        _same_rows(fam, omega, Zs[:1])  # a stack of one


@pytest.mark.parametrize(
    "shape", [(2,), (1, 3), (3, 1), (0, 2), (1, 1, 2)], ids=["one-d", "wide", "narrow", "empty", "three-d"]
)
def test_stack_shape_mismatch(shape):
    families = (
        ConeSum(ConeSpec(np.array([[0], [1]]), (0, 0))),
        ConeSum(ConeSpec(np.zeros((2, 0), dtype=np.int64), (0, 0))),
        WedgeSum(WBASIS),
    )
    for fam in families:
        bound = fam.bind(WOM)
        for wrapped in (bound, theta.BoundLambdaShifted(LambdaShifted(fam, (0, 0), (1, 0)), bound)):
            with pytest.raises(ShapeMismatch):
                wrapped.stack(np.zeros(shape, dtype=complex))
    g = ModularElement(np.eye(2), np.array([[2, 1], [1, 0]]), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ShapeMismatch):
        ModularImage(families[0], g).bind(WOM).stack(np.zeros(shape, dtype=complex))
    if len(shape) == 1:
        with pytest.raises(ShapeMismatch):
            families[0].evaluate(WOM, np.zeros(3))  # a single Z of the wrong length

import cmath
import itertools
import math
from collections import defaultdict
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conetheta import intmat, lattice
from conetheta.errors import BadCharacteristic, NonPositiveRestriction, RadiusOverflow
from conetheta.lattice import ConeForm, ConeSpec, SplitBasis, enumerate_cone
from conetheta.rng import SplitMix64
from conetheta.theta import (
    Characteristic,
    ConeSum,
    Evaluator,
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
    ev = Evaluator(ConeSum(FULL1, 1e-12), OM1)
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
    ev = Evaluator(ConeSum(FULL1, 1e-12), OM1)
    acted = lambda_action((0,), (0,), ev)
    for Z in sample_points(1, 3):
        assert abs(acted(Z).value - ev(Z).value) == 0.0


def test_lambda_action_translation_only():
    ev = Evaluator(ConeSum(FULL1, 1e-12), OM1)
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
    ev = Evaluator(ConeSum(cone, 1e-12), om)
    for direction in ((0, 1), (1, 0)):
        shifted = ConeSpec(np.array([[0], [1]]), direction)
        ev_shift = Evaluator(ConeSum(shifted, 1e-12), om)
        acted = lambda_action((0, 0), direction, ev)
        for Z in sample_points(2, 5):
            assert abs(acted(Z).value - ev_shift(Z).value) < 1e-9


def test_lambda_action_composition():
    om = np.diag([-1j, 1j])
    cone = ConeSpec(np.array([[0], [1]]), (0, 0))
    ev = Evaluator(ConeSum(cone, 1e-12), om)
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
    plain = Evaluator(ConeSum(ConeSpec(np.array([[0], [1]]), (0, 0)), 1e-12), WOM)
    sheared = Evaluator(ConeSum(ConeSpec(np.array([[-1], [1]]), (0, 0)), 1e-12), WOM)
    for Z in sample_points(2, 5):
        lhs = lambda_action((0, 0), (1, 0), f)(Z).value - f(Z).value
        rhs = plain(Z).value - sheared(Z).value
        assert abs(lhs - rhs) < 1e-8


def test_wedge_next_identity():
    f = wedge_function(WBASIS, WOM, tol=1e-12)
    sheared = Evaluator(ConeSum(ConeSpec(np.array([[-1], [1]]), (0, 0)), 1e-12), WOM)
    for Z in sample_points(2, 5):
        lhs = lambda_action((0, 0), (0, 1), f)(Z).value - f(Z).value
        assert abs(lhs + sheared(Z).value) < 1e-8


# ---------------------------------------------------------------------------
# cocycle verification

def _cols(n, k):
    basis = SplitBasis.identity(n, k)
    return basis.columns_2n(), basis.k


def test_verify_cocycle_classical():
    ev = Evaluator(ConeSum(FULL1, 1e-12), OM1)
    res = verify_cocycle(ev, *_cols(1, 0))
    assert set(res) == {"N_1", "M_1"}
    assert all(r < 1e-9 for r in res.values())


def test_verify_cocycle_point_cone_exact():
    om = np.array([[-1j]])
    ev = Evaluator(ConeSum(ConeSpec(np.zeros((1, 0), dtype=np.int64), (0,)), 1e-12), om)
    res = verify_cocycle(ev, *_cols(1, 1))
    assert set(res) == {"M_1"}
    assert res["M_1"] < 1e-12


def test_verify_cocycle_indefinite():
    om = np.diag([-1j, 1j])
    ev = Evaluator(ConeSum(ConeSpec(np.array([[0], [1]]), (0, 0)), 1e-12), om)
    res = verify_cocycle(ev, *_cols(2, 1))
    assert set(res) == {"N_2", "M_1", "M_2"}
    assert all(r < 1e-8 for r in res.values())


def test_verify_cocycle_twisted_characteristic():
    om = np.diag([-1j, 1j])
    char = Characteristic((0, Fraction(1, 2)), (1, 2))
    cone = ConeSpec(np.array([[0], [1]]), (0, 0)).with_extra_shift(char.a)
    ev = Evaluator(ConeSum(cone, 1e-12), om)
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

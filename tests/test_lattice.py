import itertools
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conetheta.errors import NotFound, NotSymplectic, SignatureMismatch, ValidationError
from conetheta.intmat import int_det, unimodular_inverse
from conetheta.lattice import (
    ConeForm,
    ConeSpec,
    ModularElement,
    SplitBasis,
    enumerate_cone,
    enumerate_wedge,
    find_split_basis,
    form_values,
    is_gamma12,
    is_split_basis,
    is_symplectic,
    random_gamma12,
    transform_basis,
)
from conetheta.rng import SplitMix64


def _g(A, B, C, D):
    return ModularElement(np.array(A), np.array(B), np.array(C), np.array(D))


def test_is_symplectic_identity():
    assert is_symplectic(ModularElement.identity(2))


def test_is_symplectic_inversion():
    assert is_symplectic(_g([[0]], [[-1]], [[1]], [[0]]))


def test_is_symplectic_all_ones_fails():
    assert not is_symplectic(_g([[1]], [[1]], [[1]], [[1]]))


def test_modular_product_beyond_int64_raises():
    eye = np.eye(2, dtype=np.int64)
    zero = np.zeros((2, 2), dtype=np.int64)
    g = ModularElement(eye, 2**62 * eye, zero, eye)
    assert is_symplectic(g)
    with pytest.raises(ValidationError):
        g @ g  # B = 2**63 I does not fit int64


def test_is_symplectic_exact_beyond_int64():
    # tC B = 2**64 I, which int64 arithmetic wraps to 0, so that
    # tA D - tC B would read I
    eye = np.eye(2, dtype=np.int64)
    assert not is_symplectic(ModularElement(eye, 2**32 * eye, 2**32 * eye, eye))


def test_is_gamma12_identity():
    assert is_gamma12(ModularElement.identity(1))


def test_is_gamma12_inversion():
    assert is_gamma12(_g([[0]], [[-1]], [[1]], [[0]]))


def test_is_gamma12_odd_parity():
    assert not is_gamma12(_g([[1]], [[1]], [[1]], [[2]]))


def test_is_gamma12_requires_symplectic():
    with pytest.raises(NotSymplectic):
        is_gamma12(_g([[1]], [[1]], [[1]], [[1]]))


def test_is_split_basis_trivial():
    assert is_split_basis(SplitBasis.identity(1, 0), np.array([[1.0]]), 0)


def test_is_split_basis_indefinite():
    assert is_split_basis(SplitBasis.identity(2, 1), np.diag([-1.0, 2.0]), 1)


def test_is_split_basis_wrong_order():
    assert not is_split_basis(SplitBasis.identity(2, 1), np.diag([1.0, -1.0]), 1)


def test_is_split_basis_signature_guard():
    with pytest.raises(SignatureMismatch):
        is_split_basis(SplitBasis.identity(2, 1), np.eye(2), 1)


def test_find_split_basis_swaps_columns():
    basis = find_split_basis(np.diag([1.0, -1.0]), 1)
    assert basis.N.tolist() == [[0, 1], [1, 0]]
    assert basis.M.tolist() == [[0, 1], [1, 0]]
    assert is_split_basis(basis, np.diag([1.0, -1.0]), 1)


def test_find_split_basis_hyperbolic_not_found():
    # For the standard hyperbolic plane no unimodular N with M = tN^{-1} can
    # satisfy both positivity conditions: with N = [[c,a],[d,b]] the dual
    # condition forces cd < 0 and the primal ab > 0, which makes
    # det = cb - da a sum of two same-sign nonzero terms, so |det| >= 2.
    with pytest.raises(NotFound):
        find_split_basis(np.array([[0.0, 1.0], [1.0, 0.0]]), 1, bound=3)


def test_find_split_basis_positive_definite_identity():
    basis = find_split_basis(np.eye(2), 0)
    assert basis.N.tolist() == [[1, 0], [0, 1]]


def test_find_split_basis_empty_bound():
    with pytest.raises(NotFound):
        find_split_basis(np.diag([1.0, -1.0]), 1, bound=0)


def test_find_split_basis_negative_definite_identity():
    # k = n: Q is negative definite on every column, so the reference splits
    basis = find_split_basis(-np.eye(3), 3)
    assert basis.N.tolist() == np.eye(3, dtype=int).tolist()
    assert basis.M.tolist() == np.eye(3, dtype=int).tolist()


def _planted_form(seed, n, k):
    """Q = tW^{-1} diag(-1.., 1..) W^{-1} for a signed permutation W after
    one elementary column move (drawn until the reference basis does not
    split Q), so W is a split basis within bound 3."""
    rng = np.random.default_rng(seed)
    D = np.diag([-1.0] * k + [1.0] * (n - k))
    while True:
        W = np.eye(n, dtype=np.int64)
        i, j = rng.choice(n, 2, replace=False)
        W[:, j] += int(rng.choice((-1, 1))) * W[:, i]
        W = np.eye(n, dtype=np.int64)[rng.permutation(n)] * rng.choice((-1, 1), n) @ W
        Winv = np.rint(np.linalg.inv(W))
        Q = Winv.T @ D @ Winv
        neg, pos = np.linalg.eigvalsh(Q[:k, :k]), np.linalg.eigvalsh(Q[k:, k:])
        if not (np.all(neg < 0) and np.all(pos > 0)):
            return Q


#: (seed, n, k, N) returned by the search that tested Q^{-1} on the
#: M-columns of every candidate; the direct criterion must find the same N
_PINNED_SPLIT_BASES = [
    (1, 2, 1, [[-1, 1], [0, 1]]),
    (2, 2, 1, [[1, 0], [1, 1]]),
    (3, 3, 1, [[-1, 0, 1], [0, 0, -1], [0, 1, 0]]),
    (4, 3, 1, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
    (5, 3, 2, [[-1, 0, 1], [1, 0, 0], [0, 1, 0]]),
    (6, 3, 2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    (7, 4, 1, [[-1, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    (8, 4, 1, [[0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]]),
    (9, 4, 2, [[0, 0, 0, 1], [0, -1, 0, -1], [1, 0, 0, 0], [0, 0, 1, 0]]),
    (10, 4, 2, [[0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]]),
    (11, 4, 3, [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1]]),
    (12, 4, 3, [[0, 0, 0, 1], [1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]]),
]


@pytest.mark.parametrize("seed,n,k,N", _PINNED_SPLIT_BASES)
def test_find_split_basis_pinned(seed, n, k, N):
    basis = find_split_basis(_planted_form(seed, n, k), k)
    assert basis.N.tolist() == N
    assert np.array_equal(basis.M, unimodular_inverse(np.array(N)).T)
    assert basis.k == k


def _dual_split_reference(basis, Q, k):
    """Split test through the dual form: Q positive definite on the last
    n-k N-columns and Q^{-1} on the last n-k M-columns."""

    def posdef(B, F):
        A = B.astype(float).T @ F @ B.astype(float)
        if A.shape[0] == 0:
            return True
        eig = np.linalg.eigvalsh((A + A.T) / 2)
        return bool(eig.min() > 1e-10 * max(1.0, float(np.abs(eig).max())))

    return posdef(basis.N[:, k:], Q) and posdef(basis.M[:, k:], np.linalg.inv(Q))


def _unimodular(draw, n, max_moves, coef):
    """Up to max_moves column moves U_i += c U_j with |c| <= coef, then a
    column permutation."""
    U = np.eye(n, dtype=np.int64)
    moves = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-coef, coef))
    for i, j, c in draw(st.lists(moves, max_size=max_moves)):
        if i != j:
            U[:, i] += c * U[:, j]
    return U[:, list(draw(st.permutations(range(n))))]


@st.composite
def _split_cases(draw):
    """A random unimodular N, an index k and an integer form tP D P of
    signature (k, n-k), with P unimodular and D = diag(-d.., d..)."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(0, n))
    N = _unimodular(draw, n, 6, 1)
    P = _unimodular(draw, n, 4, 1)
    d = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=float)
    Q = P.T @ np.diag(np.where(np.arange(n) < k, -d, d)) @ P
    return SplitBasis(N, unimodular_inverse(N).T, k), Q, k


@settings(max_examples=300, deadline=None)
@given(_split_cases())
def test_is_split_basis_matches_dual_reference(case):
    basis, Q, k = case
    assert is_split_basis(basis, Q, k) == _dual_split_reference(basis, Q, k)


def test_split_basis_unimodular_invariant():
    for Q, k in [(np.diag([1.0, -1.0]), 1), (np.diag([-1.0, 2.0]), 1), (np.eye(2), 0)]:
        b = find_split_basis(Q, k)
        assert abs(int_det(b.N)) == 1
        assert abs(int_det(b.M)) == 1
        assert np.array_equal(b.N.T @ b.M, np.eye(2, dtype=np.int64))


def test_enumerate_cone_interval():
    pts = enumerate_cone(ConeForm(ConeSpec(np.array([[1]]), (0,)), np.array([[1.0]])), 2.0)
    assert [int(p[0]) for p in pts] == [0, -1, 1, -2, 2]


def test_enumerate_cone_rank_zero():
    pts = enumerate_cone(ConeForm(ConeSpec(np.zeros((2, 0), dtype=np.int64), (0, 0)), np.eye(2)), 1.0)
    assert len(pts) == 1 and np.allclose(pts[0], 0.0)


def test_enumerate_cone_sublattice():
    pts = enumerate_cone(
        ConeForm(ConeSpec(np.array([[0], [1]]), (0, 0)), np.diag([-1.0, 2.0])), 3.0
    )
    coords = [tuple(int(x) for x in p) for p in pts]
    assert coords == [(0, 0), (0, -1), (0, 1), (0, -2), (0, 2)]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_cone_form_rejects_shift_with_infinite_norm():
    # the huge part lies off the cone span, so no lattice move removes it
    cone = ConeSpec(np.array([[0], [1]]), (10**200, 0))
    with pytest.raises(ValidationError):
        ConeForm(cone, np.eye(2))


def test_cone_form_moves_shift_by_lattice_vector():
    # c* = -(2**53 - 1): the shift moves by G trunc(c*) to exactly 0
    form = ConeForm(ConeSpec(np.array([[1]]), (2**53 - 1,)), np.array([[1.0]]))
    assert form.shift.tolist() == [0.0] and form.c_star.tolist() == [0.0] and form.t_s == 0.0
    # c* = (-1/2, 4/3) moves by G (0, 1) in exact rationals
    cone = ConeSpec(np.array([[1, 0], [2, 1]]), (Fraction(1, 2), Fraction(-1, 3)))
    assert ConeForm(cone, np.eye(2)).shift.tolist() == [0.5, float(Fraction(2, 3))]


def test_cone_form_keeps_shift_with_small_minimiser():
    cone = ConeSpec(np.array([[1], [1]]), (Fraction(-2, 3), Fraction(1, 7)))
    form = ConeForm(cone, np.eye(2))
    assert abs(form.c_star[0]) < 1
    assert form.shift.tolist() == cone.shift_float().tolist()


def test_enumerate_cone_prefix_property():
    cone = ConeSpec(np.eye(2, dtype=np.int64), (0, 0))
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    form = ConeForm(cone, Q)
    small = enumerate_cone(form, 2.5)
    large = enumerate_cone(form, 4.0)
    assert len(small) < len(large)
    for a, b in zip(small, large):
        assert np.array_equal(a, b)


def _box_filter_cone(cone, Q, radius):
    """Reference enumeration: scan the coefficient box around the minimiser
    that bounds the ellipsoid, keep tK Q K <= radius**2 and sort by (norm,
    coordinates).  Points are scored with form_values, whose value for a row
    does not depend on the other rows.  The points are built from the shift
    ConeForm enumerates from (moved by a lattice vector when |c*| >= 1), so
    that equal points have equal floats."""
    s = ConeForm(cone, Q).shift
    G = cone.generators.astype(float)
    A = G.T @ Q @ G
    lam = float(np.min(np.linalg.eigvalsh(A)))
    b = G.T @ Q @ s
    c_star = np.linalg.solve(A, -b)
    q_min = float(s @ Q @ s + b @ c_star)
    r2 = radius**2
    if r2 < q_min - 1e-12:
        return []
    half = np.sqrt(max(r2 - q_min, 0.0) / lam) + 1e-9
    ranges = [range(int(np.ceil(c - half)), int(np.floor(c + half)) + 1) for c in c_star]
    box = np.array(list(itertools.product(*ranges)), dtype=float).reshape(-1, cone.rank)
    K = s + box @ G.T
    norms = form_values(K, Q)
    return [k for _, k in sorted((float(q), tuple(k)) for q, k in zip(norms, K) if q <= r2)]


@st.composite
def _random_cones(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    U = np.eye(n, dtype=np.int64)
    moves = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    for i, j, c in draw(st.lists(moves, max_size=6)):
        if i != j:
            U[:, i] += c * U[:, j]
    perm = draw(st.permutations(range(n)))
    gens = U[:, list(perm)[:m]]  # columns of a unimodular matrix: a primitive sublattice
    entries = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    B = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    Q = B.T @ B + draw(st.floats(0.5, 2.0)) * np.eye(n)
    fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))
    shift = draw(st.lists(fractions, min_size=n, max_size=n))
    radius = draw(st.floats(0.5, 4.0))
    return ConeSpec(gens, tuple(shift)), Q, radius


@settings(max_examples=100, deadline=None)
@given(_random_cones())
def test_enumerate_cone_matches_box_filter(case):
    cone, Q, radius = case
    got = [tuple(k) for k in enumerate_cone(ConeForm(cone, Q), radius)]
    assert got == _box_filter_cone(cone, Q, radius)


def _wedge_multiset_oracle(basis, idx, R):
    """Brute-force shell cancellation: every shell r = 0..2R along N_idx
    counts the sheared cone family +1 and the plain family -1 at each point;
    the nonzero counts whose coefficients in (N_idx, N_idx+1, ...) lie in
    the window |.| <= R are kept."""
    shift_dir = basis.N[:, idx - 1]
    plain = basis.N[:, idx:]
    sheared = plain.copy()
    sheared[:, 0] -= shift_dir
    cnt = defaultdict(int)
    for r in range(0, 2 * R + 1):
        for c in itertools.product(range(-R, R + 1), repeat=plain.shape[1]):
            cnt[tuple(int(x) for x in r * shift_dir + sheared @ c)] += 1
            cnt[tuple(int(x) for x in r * shift_dir + plain @ c)] -= 1
    coords = lambda p: basis.M.T @ np.array(p)  # tM N = I
    return {
        p: c
        for p, c in cnt.items()
        if c != 0 and np.max(np.abs(coords(p)[idx - 1:])) <= R
    }


def _wedge_map(pts):
    got = {tuple(int(x) for x in K): s for K, s in pts}
    assert len(got) == len(pts)
    return got


def test_enumerate_wedge_matches_double_sum_oracle():
    basis = SplitBasis.identity(2, 1)
    Q = np.diag([-1.0, 2.0])
    got = _wedge_map(enumerate_wedge(basis, Q, 7))
    assert got == _wedge_multiset_oracle(basis, 1, 7)


@st.composite
def _unimodular_bases(draw):
    N = _unimodular(draw, draw(st.integers(2, 4)), 8, 2)
    return SplitBasis(N, unimodular_inverse(N).T, 1)


@settings(max_examples=60, deadline=None)
@given(_unimodular_bases(), st.integers(0, 5))
def test_enumerate_wedge_matches_oracle_on_random_bases(basis, R):
    Q = np.eye(basis.n)  # positive on every cone; the region does not depend on Q
    for idx in range(1, basis.n):
        got = _wedge_map(enumerate_wedge(SplitBasis(basis.N, basis.M, idx), Q, R))
        assert got == _wedge_multiset_oracle(basis, idx, R)


def test_enumerate_wedge_signs():
    # sheared-family-only points carry +1, plain-family-only points -1
    basis = SplitBasis.identity(2, 1)
    got = dict_pts = {
        tuple(int(x) for x in K): s
        for K, s in enumerate_wedge(basis, np.diag([-1.0, 2.0]), 4)
    }
    assert dict_pts[(-1, 1)] == 1
    assert dict_pts[(0, -1)] == -1
    assert (0, 0) not in dict_pts


def test_enumerate_wedge_radius_zero():
    basis = SplitBasis.identity(2, 1)
    assert enumerate_wedge(basis, np.diag([-1.0, 2.0]), 0) == []


def test_transform_basis_identity():
    basis = SplitBasis.identity(2, 1)
    cols, S = transform_basis(ModularElement.identity(2), basis)
    assert np.array_equal(cols, np.eye(4, dtype=np.int64))
    assert np.array_equal(S, np.eye(4, dtype=np.int64))


def test_transform_basis_inversion_n1():
    basis = SplitBasis.identity(1, 0)
    g = _g([[0]], [[-1]], [[1]], [[0]])
    cols, S = transform_basis(g, basis)
    # transformed first vector is the old M-column, second is minus the old N
    assert cols[:, 0].tolist() == [0, 1]
    assert cols[:, 1].tolist() == [-1, 0]
    assert np.array_equal(S, g.matrix().T)


def test_transform_basis_upper_triangular():
    # with the reference basis S is the transpose of the group element
    basis = SplitBasis.identity(2, 1)
    B = np.array([[2, 1], [1, 0]])
    g = _g(np.eye(2, dtype=int), B, np.zeros((2, 2), dtype=int), np.eye(2, dtype=int))
    _, S = transform_basis(g, basis)
    expect = np.eye(4, dtype=np.int64)
    expect[2:, :2] = B.T
    assert np.array_equal(S, expect)


def test_transform_basis_composition():
    rng = SplitMix64(2024)
    for n in (2, 3):
        basis = SplitBasis.identity(n, 1)
        for _ in range(25):
            g = random_gamma12(n, rng, 2)
            h = random_gamma12(n, rng, 2)
            cols_h, S_h = transform_basis(h, basis)
            cols_gh, S_gh = transform_basis(g @ h, basis)
            gt_inv = g.inverse().matrix().T
            assert np.array_equal(cols_gh, gt_inv @ cols_h)
            _, S_g = transform_basis(g, basis)
            assert np.array_equal(S_gh, S_h @ S_g)
            assert is_symplectic(ModularElement.from_matrix(S_gh))


def test_transform_basis_beyond_int64_raises():
    # g = (I, B; 0, I) is in the theta subgroup and tN M = I, but the
    # transformed N-column -B N_2 has the entry -2**64, which int64 wraps to 0
    t = 2**32
    basis = SplitBasis(np.array([[1, t], [0, 1]]), np.array([[1, 0], [-t, 1]]), 1)
    eye, zero = np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)
    g = ModularElement(eye, np.array([[0, t], [t, 0]]), zero, eye)
    assert is_gamma12(g)
    with pytest.raises(ValidationError):
        transform_basis(g, basis)


def test_transform_basis_matches_object_arithmetic():
    # columns = tg^{-1} P and P S = tg P over Python ints, P = diag(N, M)
    rng = SplitMix64(11)
    N = np.array([[1, 2, 0], [0, 1, -1], [1, 0, 1]])
    basis = SplitBasis(N, unimodular_inverse(N).T, 1)
    P = basis.columns_2n().astype(object)
    for _ in range(20):
        g = random_gamma12(3, rng, 4)
        cols, S = transform_basis(g, basis)
        assert cols.dtype == S.dtype == np.int64
        assert cols.tolist() == (g.inverse().matrix().T.astype(object) @ P).tolist()
        assert (P @ S.astype(object)).tolist() == (g.matrix().T.astype(object) @ P).tolist()


def test_modular_inverse_beyond_int64_raises():
    # g = (1, -2**63; 0, 1) is symplectic, but its inverse has B = 2**63,
    # which negating the int64 block wraps back to -2**63
    g = ModularElement([[1]], [[-(2**63)]], [[0]], [[1]])
    assert is_symplectic(g)
    with pytest.raises(ValidationError):
        g.inverse()


def test_modular_inverse_is_exact():
    g = ModularElement([[1]], [[2**63 - 1]], [[0]], [[1]])
    assert g.inverse().B.tolist() == [[-(2**63) + 1]]
    assert (g @ g.inverse()).is_identity()


def test_random_gamma12_members():
    rng = SplitMix64(7)
    for n in (1, 2, 3):
        for _ in range(10):
            assert is_gamma12(random_gamma12(n, rng, 3))

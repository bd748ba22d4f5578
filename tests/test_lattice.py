import importlib.util
import itertools
import json
import math
import tracemalloc
import warnings
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conetheta import lattice
from conetheta.cli import main
from conetheta.errors import (
    ConethetaError,
    NotFound,
    NotSymplectic,
    ShapeMismatch,
    SignatureMismatch,
    SingularMatrix,
    ValidationError,
)
from conetheta.intmat import int_det, unimodular_completion, unimodular_inverse
from conetheta.linalg import as_real_symmetric, signature
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
    wedge_cones,
)
from conetheta.rng import SplitMix64
from conetheta.theta import WedgeSum, complex_fsum, sample_points, theta_terms


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


@pytest.mark.parametrize(
    "Q, N", [(np.diag([-1.0, 2.0]), [[1, 0], [0, 1]]), (np.diag([1.0, -1.0]), [[0, 1], [1, 0]])],
    ids=["reference-splits", "searched"],
)
def test_find_split_basis_computes_the_signature_once(monkeypatch, Q, N):
    calls = []

    def counted(A):
        calls.append(A)
        return signature(A)

    monkeypatch.setattr(lattice, "signature", counted)
    assert find_split_basis(Q, 1).N.tolist() == N
    assert len(calls) == 1


def test_find_split_basis_empty_bound():
    with pytest.raises(NotFound):
        find_split_basis(np.diag([1.0, -1.0]), 1, bound=0)


def test_find_split_basis_negative_definite_identity():
    # k = n: Q is negative definite on every column, so the reference splits
    basis = find_split_basis(-np.eye(3), 3)
    assert basis.N.tolist() == np.eye(3, dtype=int).tolist()
    assert basis.M.tolist() == np.eye(3, dtype=int).tolist()


def _box(Q, k, bound=3):
    """find_split_basis's box search alone, on Q symmetrised as
    find_split_basis leaves it (no reference basis, no reduction)."""
    return lattice._box_split_basis(as_real_symmetric(Q), k, bound)


def _planted_form(seed, n, k, moves=1):
    """Q = tW^{-1} diag(-1.., 1..) W^{-1} for a signed permutation W after
    ``moves`` elementary column moves (drawn until the reference basis does
    not split Q), so W is a split basis within bound 3 for moves <= 2."""
    rng = np.random.default_rng(seed)
    D = np.diag([-1.0] * k + [1.0] * (n - k))
    while True:
        W = np.eye(n, dtype=np.int64)
        for _ in range(moves):
            i, j = rng.choice(n, 2, replace=False)
            W[:, j] += int(rng.choice((-1, 1))) * W[:, i]
        W = np.eye(n, dtype=np.int64)[rng.permutation(n)] * rng.choice((-1, 1), n) @ W
        Winv = np.rint(np.linalg.inv(W))
        Q = Winv.T @ D @ Winv
        neg, pos = np.linalg.eigvalsh(Q[:k, :k]), np.linalg.eigvalsh(Q[k:, k:])
        if not (np.all(neg < 0) and np.all(pos > 0)):
            return Q


#: (seed, n, k, N) that find_split_basis returns, from the reduction
_PINNED_SPLIT_BASES = [
    (1, 2, 1, [[1, 1], [0, 1]]),
    (2, 2, 1, [[1, 0], [1, 1]]),
    (3, 3, 1, [[1, -1, 0], [0, 1, 0], [0, 0, 1]]),
    (4, 3, 1, [[0, 1, -1], [0, 0, 1], [1, 0, 0]]),
    (5, 3, 2, [[-1, 0, 1], [1, 0, 0], [0, 1, 0]]),
    (6, 3, 2, [[0, 0, 1], [0, 1, 0], [1, -1, 0]]),
    (7, 4, 1, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    (8, 4, 1, [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 1]]),
    (9, 4, 2, [[0, 0, 1, 0], [1, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    (10, 4, 2, [[0, 0, 1, 1], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]),
    (11, 4, 3, [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1]]),
    (12, 4, 3, [[0, 0, 0, 1], [1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]]),
]

#: (seed, n, k, N) returned by the box search that tested Q^{-1} on the
#: M-columns of every candidate; the direct criterion must find the same N
_PINNED_BOX_BASES = [
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


@pytest.mark.parametrize("seed,n,k,N", _PINNED_BOX_BASES)
def test_box_split_basis_pinned(seed, n, k, N):
    basis = _box(_planted_form(seed, n, k), k)
    assert basis.N.tolist() == N
    assert np.array_equal(basis.M, unimodular_inverse(np.array(N)).T)
    assert basis.k == k


def test_find_split_basis_candidate_cap(monkeypatch, tmp_path, capsys):
    # a search that runs out of candidates below the cap says nothing of it
    with pytest.raises(NotFound) as exc:
        _box(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    assert "capped" not in str(exc.value)

    Q, k = _planted_form(3, 3, 1), 1
    completed = []
    completion = lattice.unimodular_completion

    def recorded_completion(V):
        completed.append(V.tolist())
        return completion(V)

    monkeypatch.setattr(lattice, "unimodular_completion", recorded_completion)
    # the CLI runs the box when the reduction misses
    monkeypatch.setattr(lattice, "_reduced_basis", lambda Q, k, bound: None)
    N = _box(Q, k).N
    order = list(completed)
    omega = [[{"re": 0.0, "im": float(x)} for x in row] for row in Q]
    inst = tmp_path / "planted.json"
    inst.write_text(json.dumps({"n": 3, "k": k, "omega": omega}))
    assert main(["split-basis", "--instance", str(inst)]) == 0
    # position of the winning block in the search's candidate order
    positives = lattice._short_vectors(3, 3)
    positives = positives[form_values(positives, Q) > 0]
    place = next(
        i
        for i, idxs in enumerate(itertools.combinations(range(len(positives)), 2))
        if np.array_equal(positives[list(idxs)].T, N[:, k:])
    )

    monkeypatch.setattr(lattice, "MAX_SPLIT_CANDIDATES", place + 1)
    del completed[:]
    assert _box(Q, k).N.tolist() == N.tolist()
    assert completed == order

    monkeypatch.setattr(lattice, "MAX_SPLIT_CANDIDATES", place)
    del completed[:]
    with pytest.raises(NotFound, match="among the first %d candidate blocks" % place):
        _box(Q, k)
    assert place > 0 and completed == order[:-1]

    capsys.readouterr()
    assert main(["split-basis", "--instance", str(inst)]) == 4
    assert "(search capped)" in capsys.readouterr().err


def _positive_one_at_a_time(F, B):
    """The positivity test as it decided one matrix at a time."""
    if B.shape[1] == 0:
        return True
    Bf = B.astype(float)
    A = Bf.T @ F @ Bf
    eig = np.linalg.eigvalsh((A + A.T) / 2)
    return bool(np.min(eig) > 1e-10 * max(1.0, float(np.max(np.abs(eig)))))


def _split_basis_one_at_a_time(Q, k, bound):
    """find_split_basis as it tried the completions C + V X of a candidate:
    one eigvalsh each, in itertools.product order of X."""
    n = len(Q)
    if signature(Q) != (k, n - k):
        raise SignatureMismatch("signature")
    eye = np.eye(n, dtype=np.int64)
    if _positive_one_at_a_time(-Q, eye[:, :k]) and _positive_one_at_a_time(Q, eye[:, k:]):
        return eye, eye, k
    m = n - k
    shorts = lattice._short_vectors(n, bound)
    positives = shorts[form_values(shorts, Q) > 0]
    for idxs in itertools.islice(itertools.combinations(range(len(positives)), m), 200000):
        V = positives[list(idxs)].T
        if not _positive_one_at_a_time(Q, V):
            continue
        try:
            Cbase = unimodular_completion(V)
        except SingularMatrix:
            continue
        for flat in itertools.product(range(-bound, bound + 1), repeat=k * m):
            C = Cbase + V @ np.array(flat, dtype=np.int64).reshape(m, k)
            if np.abs(C).max(initial=0) <= bound and _positive_one_at_a_time(-Q, C):
                N = np.column_stack([C, V])
                return N, unimodular_inverse(N).T, k
    raise NotFound("no split basis")


def _noisy_form(seed, n, k):
    """A planted form plus a symmetric perturbation of size about 0.05."""
    E = np.random.default_rng(seed + 1000).normal(scale=0.05, size=(n, n))
    return _planted_form(seed, n, k) + (E + E.T) / 2


def _orthogonal_form(seed, n, k):
    """tO diag(-d.., d..) O for a random orthogonal O and d in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    O = np.linalg.qr(rng.normal(size=(n, n)))[0]
    d = rng.uniform(0.5, 2.0, n)
    return O.T @ np.diag(np.where(np.arange(n) < k, -d, d)) @ O


_FORM_KINDS = {
    "one-move": _planted_form,
    "two-move": lambda seed, n, k: _planted_form(seed, n, k, 2),
    "noisy": _noisy_form,
    "orthogonal": _orthogonal_form,
}

#: (kind, n, k, bound); at n = 5, k = 2, 3 the one-at-a-time search tries
#: 7**6 completions per candidate, so those forms use bound 2 (5**6, which
#: still spans several chunks)
_SAME_ANSWER_CASES = [
    (kind, n, k, 2 if n == 5 and k in (2, 3) else 3)
    for kind in _FORM_KINDS
    for n in range(2, 6)
    for k in range(1, n)
    if not (n == 5 and k in (2, 3) and kind in ("one-move", "noisy"))
] + [("hyperbolic", 2, 1, 3)]


def _diagonal_witness_form(seed, n, k, d):
    """tW^{-1} diag(-d_1..-d_k, d_{k+1}..d_n) W^{-1} for W as in
    _planted_form (one move, drawn until the reference basis does not
    split the form), so W is a split basis within bound 3."""
    rng = np.random.default_rng(seed)
    D = np.diag(np.where(np.arange(n) < k, -d, d))
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


def _isotropic_near(n, k, scale, gap):
    """Weights scale except d_{k+1} = scale + gap: Q(W (e_1 + e_{k+1})) = gap."""
    d = np.full(n, float(scale))
    d[k] += gap
    return d


#: forms that stress the column screen's rounding slack at k >= 2: entries
#: spread over 1e3..1e6, and columns W (e_1 + e_{k+1}) whose Q is within
#: 1e-11 of 0 (below and above), or -1e-4 against weights 1e5, where the
#: screen must keep a column that the stacked test may pass
_SLACK_KINDS = {
    "scaled": lambda seed, n, k: _diagonal_witness_form(
        seed, n, k, 10.0 ** np.random.default_rng(seed + 2000).uniform(3, 6, n)
    ),
    "isotropic-below": lambda seed, n, k: _diagonal_witness_form(seed, n, k, _isotropic_near(n, k, 1, -1e-11)),
    "isotropic-above": lambda seed, n, k: _diagonal_witness_form(seed, n, k, _isotropic_near(n, k, 1, 1e-11)),
    "isotropic-scaled": lambda seed, n, k: _diagonal_witness_form(seed, n, k, _isotropic_near(n, k, 1e5, -1e-4)),
}
_FORM_KINDS.update(_SLACK_KINDS)
_SAME_ANSWER_CASES += [
    (kind, n, k, 2 if n == 5 and k in (2, 3) else 3)
    for kind in _SLACK_KINDS
    for n in range(3, 6)
    for k in range(2, n)
]


def _outcome(search, Q, k, bound):
    try:
        N, M, index = search(Q, k, bound)
    except ConethetaError as e:
        return type(e).__name__
    return np.asarray(N).tolist(), np.asarray(M).tolist(), index


@pytest.mark.parametrize("kind,n,k,bound", _SAME_ANSWER_CASES)
def test_find_split_basis_matches_one_at_a_time_search(kind, n, k, bound):
    if kind == "hyperbolic":
        Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        Q = _FORM_KINDS[kind](0, n, k)

    def batched(Q, k, bound):
        basis = _box(Q, k, bound)
        return basis.N, basis.M, basis.k

    want = _outcome(_split_basis_one_at_a_time, Q, k, bound)
    assert _outcome(batched, Q, k, bound) == want
    if kind == "hyperbolic":
        assert want == "NotFound"


def test_is_positive_on_stack_decides_as_each_matrix_alone():
    rng = np.random.default_rng(3)
    cases = []
    for n, j in ((2, 1), (3, 2), (4, 2), (5, 3), (4, 4)):
        S = rng.normal(size=(n, n))
        cases.append((S + S.T, rng.integers(-3, 4, size=(300, n, j))))
    # least Gram eigenvalue within a few ulps of the _POS_EIG_TOL threshold:
    # Q = diag(t, 1) on the identity, a sign flip and two shears
    items = np.array([[[1, 0], [0, 1]], [[-1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    for t in [1e-10 * (1 + d) for d in (-1e-9, -4e-16, 0.0, 4e-16, 1e-9)]:
        t_near = [np.nextafter(t, -1.0), t, np.nextafter(t, 1.0)]
        for tt in t_near:
            cases.append((np.diag([tt, 1.0]), items))
    # nearly dependent columns v, v + e_i with large v
    v = rng.integers(-1000, 1001, size=(200, 3, 1))
    e = np.eye(3, dtype=np.int64)[rng.integers(0, 3, 200)][:, :, None]
    S = rng.normal(size=(3, 3))
    cases.append((S @ S.T + 0.1 * np.eye(3), np.concatenate([v, v + e], axis=2)))
    cases.append((np.diag([-1.0, 2.0, 3.0]), np.concatenate([v, v + e], axis=2)))
    # empty stacks: every completion of a chunk outside the bound, and no columns
    cases.append((np.eye(3), np.zeros((0, 3, 2), dtype=np.int64)))
    cases.append((np.eye(3), np.zeros((4, 3, 0), dtype=np.int64)))
    decided = set()
    for Q, B in cases:
        got = lattice._is_positive_on(Q, B)
        assert got.dtype == bool and got.shape == (len(B),)
        alone = [lattice._is_positive_on(Q, b) for b in B]
        assert got.tolist() == alone
        decided.update(alone)
    assert decided == {True, False}
    at_threshold = [lattice._is_positive_on(np.diag([t, 1.0]), np.eye(2)) for t in
                    (np.nextafter(1e-10, 0.0), 1e-10, np.nextafter(1e-10, 1.0))]
    assert at_threshold == [False, False, True]


def _positive_by_eigvalsh(Q, B):
    """_is_positive_on's stacked test as it was at every width: the least
    eigvalsh eigenvalue of the symmetrised Gram matrix against the
    relative threshold."""
    Bf = B.astype(float)
    A = Bf.transpose(0, 2, 1) @ Q @ Bf
    eig = np.linalg.eigvalsh((A + A.transpose(0, 2, 1)) / 2)
    return eig[:, 0] > 1e-10 * np.maximum(1.0, np.abs(eig).max(axis=1))


def test_is_positive_on_width_one_matches_eigvalsh():
    # a stack of width 1 takes its symmetrised Gram entry as the eigenvalue
    rng = np.random.default_rng(5)
    cases = []
    for n in range(1, 7):
        S = rng.normal(size=(n, n))
        cases.append((S + S.T, rng.integers(-3, 4, size=(200, n, 1))))
    # Gram entries at the edges of the double range and at the threshold
    dbl_max = np.finfo(float).max
    signs = np.array([[[1]], [[-1]], [[2]]])
    for x in (np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e-10, np.nextafter(1e-10, 1.0),
              1e308, -1e308, dbl_max / 2, dbl_max, -dbl_max):
        cases.append((np.array([[x]]), signs))
    # Q entries near DBL_MAX, where the Gram entry or A + tA overflows
    big = np.array([[dbl_max, -dbl_max / 2], [-dbl_max / 2, dbl_max / 4]])
    vectors = np.array(list(itertools.product(range(-1, 2), repeat=2)))[:, :, None]
    cases += [(big, vectors), (big / 2, vectors), (-big, vectors)]
    decided = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for Q, B in cases:
            got = lattice._is_positive_on(Q, B)
            assert got.dtype == bool and got.tolist() == _positive_by_eigvalsh(Q, B).tolist()
            decided.update(got.tolist())
    assert decided == {True, False}


def _digest_script():
    """scripts/outputs_digest.py as a module, for its split_forms."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "outputs_digest.py"
    spec = importlib.util.spec_from_file_location("outputs_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_find_split_basis_decides_candidate_blocks_in_doubling_stacks(monkeypatch):
    # the n = 5, k = 2 form of split_forms at seed 3 rejects nearly all of
    # its 62,700 candidate blocks by their positivity test; they are
    # decided in stacks of 1, 2, .., 4096 and then 4096 at a time, one
    # 3 x 3 eigvalsh each (the completions' are 2 x 2), not one per block
    Q = next(Q for Q, k in _digest_script().split_forms(3, 5) if k == 2)
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def counted(A):
        if A.shape[-1] == 3:
            stacks.append(len(A))
        return eigvalsh(A)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    basis = _box(Q, 2)
    assert stacks[:13] == [2**i for i in range(13)] and set(stacks[13:]) == {4096}
    assert len(stacks) <= 30 and sum(stacks) >= 62_700
    assert is_split_basis(basis, Q, 2)


def test_find_split_basis_tests_completions_in_chunks(monkeypatch):
    # n = 4, k = 1: the 7**3 completions of a candidate fit one chunk, and
    # its Gram matrices are 1 x 1 while the candidates' are 3 x 3
    Q = _planted_form(7, 4, 1)
    gram_sizes = []
    completed = []
    eigvalsh, completion = np.linalg.eigvalsh, lattice.unimodular_completion

    def counted_eigvalsh(A):
        gram_sizes.append(A.shape[-1])
        return eigvalsh(A)

    def counted_completion(V):
        C = completion(V)
        completed.append(V)
        return C

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(lattice, "unimodular_completion", counted_completion)
    _box(Q, 1)
    # per candidate one check of V
    # and one stacked check per chunk of its completions (the parent's loop
    # made one check per completion within the bound)
    assert completed and gram_sizes.count(1) <= len(completed)
    assert gram_sizes.count(3) >= len(completed)

    # two moves at n = 5, k = 2: 7**6 completions per candidate, chunked
    Q = _planted_form(0, 5, 2, 2)
    tracemalloc.start()
    try:
        _box(Q, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _short_vectors_by_lexsort(n, bound):
    """_short_vectors as it was built: filter the window on the sign of the
    first nonzero entry, then sort by (norm, coordinates) with one lexsort."""
    v = np.indices((2 * bound + 1,) * n).reshape(n, -1).T - bound
    v = v[v[np.arange(len(v)), np.argmax(v != 0, axis=1)] > 0]
    return v[np.lexsort(tuple(v[:, j] for j in range(n - 1, -1, -1)) + ((v * v).sum(axis=1),))]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("bound", range(1, 4))
def test_short_vectors_match_the_lexsort_reference(n, bound):
    got, want = lattice._short_vectors(n, bound), _short_vectors_by_lexsort(n, bound)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n, bound, m", [(2, 3, 1), (3, 1, 0), (3, 1, 2), (3, 2, 2), (3, 2, 3), (4, 1, 3), (4, 3, 2)])
def test_candidate_blocks_match_combinations_of_all_positives(n, bound, m):
    # form_values over growing prefixes: the same blocks in the same order
    # as itertools.combinations over the positives of the whole window,
    # also when the prefixes run out (all blocks drawn)
    S = np.random.default_rng(n * 10 + m).normal(size=(n, n))
    Q = S + S.T
    shorts = lattice._short_vectors(n, bound)
    positives = shorts[form_values(shorts, Q) > 0]
    want = [positives[list(idxs)].T for idxs in itertools.combinations(range(len(positives)), m)]
    got = list(itertools.islice(lattice._candidate_blocks(shorts, Q, m), 20000))
    assert len(got) == min(len(want), 20000) and len(got) > 0
    assert all(np.array_equal(a, b) and a.shape == b.shape for a, b in zip(got, want))


def test_find_split_basis_tests_positivity_as_far_as_the_blocks_reach(monkeypatch):
    # the first candidate block of this form is a split basis's V, so only
    # the first 64 short vectors are tested for Q > 0, not the 1200 of the
    # window; the exit-4 message still counts all blocks
    rows = []

    def counted(K, Q):
        rows.append(len(K))
        return form_values(K, Q)

    monkeypatch.setattr(lattice, "form_values", counted)
    Q = _planted_form(7, 4, 1)
    assert _box(Q, 1).N.tolist() == [[-1, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    assert 0 < sum(rows) < len(lattice._short_vectors(4, 3))
    del rows[:]
    with pytest.raises(NotFound) as exc:
        _box(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    assert "capped" not in str(exc.value)
    assert rows[-1] == len(lattice._short_vectors(2, 3))


def test_find_split_basis_screens_completions_by_column(monkeypatch):
    # n = 4, k = 3: a candidate has 7**3 completions, and the parent tested
    # every one within the bound in one 3 x 3 stack; now each column is
    # screened over its 7 offsets, and only the product of the survivors
    # reaches the stacked test
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(A):
        if A.ndim == 3 and A.shape[-1] == 3:
            sizes.append(len(A))
        return eigvalsh(A)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    Q = _planted_form(11, 4, 3)
    assert _box(Q, 3).N.tolist() == [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1]]
    assert 0 < sum(sizes) < 7**3


def _dual_split_reference(basis, Q, k):
    """Split test through the dual form: Q positive definite on the last
    n-k N-columns and Q^{-1} on the last n-k M-columns."""
    return _positive_one_at_a_time(Q, basis.N[:, k:]) and _positive_one_at_a_time(
        np.linalg.inv(Q), basis.M[:, k:]
    )


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


def _no_box(monkeypatch):
    def box(Q, k, bound):
        raise AssertionError("the box search ran")

    monkeypatch.setattr(lattice, "_box_split_basis", box)


@pytest.mark.parametrize("n", range(3, 9))
def test_reduction_splits_every_split_form(monkeypatch, n):
    # seeds 0-7, every k: the reduction alone, no box; at n = 8 the box's
    # window at bound 20 would exit 2
    _no_box(monkeypatch)
    for seed in range(8):
        for Q, k in _digest_script().split_forms(seed, n):
            basis = find_split_basis(Q, k, bound=20)
            assert is_split_basis(basis, Q, k) and np.abs(basis.N).max() <= 20


def test_reduction_splits_planted_forms_within_bound_3(monkeypatch):
    _no_box(monkeypatch)
    for seed in range(8):
        for n in range(2, 6):
            for k in range(1, n):
                Q = _planted_form(seed, n, k)
                basis = find_split_basis(Q, k)
                assert is_split_basis(basis, Q, k) and np.abs(basis.N).max() <= 3


def test_find_split_basis_falls_back_to_the_box_beyond_the_bound():
    # the reduction splits both n = 3 forms of split_forms at seed 5 with
    # an entry 3, and gives nothing within bound 1; there the search gives
    # the box's answer: NotFound at k = 1, a basis at k = 2
    for Q, k in _digest_script().split_forms(5, 3):
        Q = as_real_symmetric(Q)
        assert lattice._reduced_basis(Q, k, 1) is None and np.abs(lattice._reduced_basis(Q, k, 3)).max() == 3
        if k == 1:
            for search in (find_split_basis, _box):
                with pytest.raises(NotFound, match="^no split basis with entries bounded by 1$"):
                    search(Q, k, 1)
        else:
            got, want = find_split_basis(Q, k, 1), _box(Q, k, 1)
            assert got.N.tolist() == want.N.tolist() == [[0, 1, 1], [1, 0, 0], [0, 0, -1]]
            assert np.array_equal(got.M, want.M) and got.k == want.k == k


def test_find_split_basis_hyperbolic_message():
    # the reduction misses the plane, and the box's NotFound is raised
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert lattice._reduced_basis(Q, 1, 3) is None
    with pytest.raises(NotFound) as exc:
        find_split_basis(Q, 1)
    assert str(exc.value) == "no split basis with entries bounded by 3"


def _random_unimodular(rng, n):
    """Signed permutation times 2n random column moves N_i += c N_j, |c| <= 2."""
    N = np.eye(n, dtype=np.int64)[rng.permutation(n)] * rng.choice((-1, 1), n)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.choice(n, 2, replace=False)
        N[:, i] += int(rng.integers(-2, 3)) * N[:, j]
    return N


def test_split_basis_rounded_inverse_matches_unimodular_inverse(monkeypatch):
    calls = []
    monkeypatch.setattr(lattice, "unimodular_inverse", lambda N: calls.append(N))
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for _ in range(20):
            N = _random_unimodular(rng, n)
            M = lattice._split_basis(N, 0).M
            assert M.dtype == np.int64 and np.array_equal(M, unimodular_inverse(N).T)
    assert calls == []


def test_split_basis_falls_back_where_the_float_inverse_is_wrong(monkeypatch):
    # det = 1 for both; the float inverse of the first is off by about
    # 8e8, and LAPACK finds the second singular
    wrong = np.array([[1 + 3 * 2**40, 2**40], [3, 1]], dtype=np.int64)
    singular = np.array([[2**40 + 1, 2**40], [2**40, 2**40 - 1]], dtype=np.int64)
    assert not np.array_equal(np.rint(np.linalg.inv(wrong)).T, unimodular_inverse(wrong).T)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(singular)
    calls = []

    def counted(N):
        calls.append(N)
        return unimodular_inverse(N)

    monkeypatch.setattr(lattice, "unimodular_inverse", counted)
    for N in (wrong, singular):
        assert np.array_equal(lattice._split_basis(N, 1).M, unimodular_inverse(N).T)
    assert len(calls) == 2


def test_split_basis_checks_duality_in_int64_and_exactly(monkeypatch):
    exact_calls = []
    exact = lattice.exact

    def counted(M):
        exact_calls.append(M)
        return exact(M)

    monkeypatch.setattr(lattice, "exact", counted)
    eye = np.eye(2, dtype=np.int64)
    # small entries: int64 products, no Python ints
    SplitBasis(eye, eye, 1)
    with pytest.raises(ShapeMismatch):
        SplitBasis(eye, np.array([[1, 1], [0, 1]]), 1)
    assert exact_calls == []
    # entries near 2**62: the object path
    N = np.array([[1, 2**62], [0, 1]])
    SplitBasis(N, np.array([[1, 0], [-(2**62), 1]]), 1)
    with pytest.raises(ShapeMismatch):
        SplitBasis(N, np.array([[1, 0], [1 - 2**62, 1]]), 1)
    # tN M = (1 + 2**64) I, which int64 would wrap to I
    N = np.array([[1, 2**32], [-(2**32), 1]])
    with pytest.raises(ShapeMismatch):
        SplitBasis(N, N, 1)
    assert len(exact_calls) == 6


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
    # the form's kept enumeration serves every smaller grid radius as a
    # prefix, in the same order and bits as enumerate_cone there; on the
    # shifted rank-1 cone (q_min = 7/16) the radii below sqrt(q_min) give
    # enumerate_cone's empty set and are kept by neither
    shifted = ConeForm(ConeSpec(np.array([[0], [1]]), (Fraction(1, 2), 0)), Q)
    assert shifted.q_min == 0.4375
    for form in (form, shifted):
        top, _ = form.points(4.0)
        for r in np.arange(0.0, 4.0, 0.125):
            K, norms = form.points(r)
            fresh = enumerate_cone(form, r)
            assert K.shape == fresh.shape and K.tobytes() == fresh.tobytes() == top[: len(K)].tobytes()
            assert norms.tobytes() == form_values(fresh, Q).tobytes()
        assert form.radius == 4.0
    assert len(shifted.points(0.625)[0]) == 0 < len(shifted.points(0.75)[0])


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
    # enumerate_cone orders by norm alone, ties in its enumeration order:
    # the norms do not decrease, and the points are the box filter's
    cone, Q, radius = case
    K = enumerate_cone(ConeForm(cone, Q), radius)
    norms = form_values(K, Q)
    assert np.all(norms[1:] >= norms[:-1])
    got = [k for _, k in sorted((float(q), tuple(k)) for q, k in zip(norms, K))]
    assert got == _box_filter_cone(cone, Q, radius)


def test_enumerate_drops_points_within_the_budget_slack():
    # the widened budget visits +-2 (norm 4), and the norm test drops them
    form = ConeForm(ConeSpec(np.array([[1]]), (0,)), np.array([[1.0]]))
    K, norms = lattice._enumerate(form, math.sqrt(4.0 - 1e-12))
    assert K.ravel().tolist() == [0.0, -1.0, 1.0] and norms.tolist() == [0.0, 1.0, 1.0]


def _reference_placement(cone, Q):
    """ConeForm's (shift, c*, q_min, t_s) by the general placement for every
    shift, zero included, with the move loop on numpy values: the reference
    for ConeForm's zero-shift shortcut and its Python-float loop."""
    G, m = cone.generators.astype(float), cone.rank
    A = G.T @ Q @ G
    A = (A + A.T) / 2

    def place(s):
        sQs = float(s @ Q @ s)
        c_star, q_min = None, sQs
        if m:
            b = G.T @ Q @ s
            c_star = np.linalg.solve(A, -b)
            q_min = float(sQs + b @ c_star)
        return s, c_star, q_min, math.sqrt(max(sQs, 0.0)) if np.any(s) else 0.0

    placed = place(cone.shift_float())
    moved, last = cone, math.inf
    while m and np.all(np.isfinite(placed[1])):
        t = [int(c) for c in np.trunc(placed[1])]
        size = max(abs(x) for x in t)
        if size == 0 or size >= last:
            break
        last = size
        moved = moved.with_extra_shift(lattice.exact(cone.generators) @ np.array(t, dtype=object))
        placed = place(moved.shift_float())
    return placed


def _reference_enumerate(form, radius, c_star, q_min):
    """lattice._enumerate with every level batched in numpy, one np.repeat
    more per level and the keep gathers always made, on the reference
    placement's c* and q_min; a stable sort of the norms orders the points."""
    s, m, n = form.shift, form.rank, len(form.shift)
    r2 = radius**2
    if r2 < q_min - 1e-12:
        return np.empty((0, n)), np.empty(0)
    R = form.R
    budget = max(r2 - q_min, 0.0) + lattice._BUDGET_SLACK * max(1.0, r2)
    coeffs = np.zeros((1, m))
    used = np.zeros(1)
    for i in range(m - 1, -1, -1):
        offset = (coeffs[:, i + 1:] - c_star[i + 1:]) @ R[i, i + 1:]
        center = c_star[i] - offset / R[i, i]
        width = np.sqrt(np.maximum(budget - used, 0.0)) / R[i, i]
        lo = np.ceil(center - width)
        counts = np.maximum(np.floor(center + width) - lo + 1, 0).astype(np.int64)
        parent = np.repeat(np.arange(len(counts)), counts)
        step = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        coeffs = coeffs[parent]
        coeffs[:, i] = lo[parent] + step
        used = used[parent] + (R[i, i] * (coeffs[:, i] - c_star[i]) + offset[parent]) ** 2
    K = s + coeffs @ form.G.T
    norm = form_values(K, form.Q)
    keep = norm <= r2
    K, norm = K[keep], norm[keep]
    order = np.argsort(norm, kind="stable")
    return K[order], norm[order]


@st.composite
def _placement_cases(draw):
    """A cone of rank 1..6 (columns of a unimodular U) and a form that is
    positive on its span and may be indefinite off it, so that ts Q s can be
    <= 0; the shift is zero, a characteristic-like fraction, or that plus
    a huge lattice vector of the cone (which ConeForm moves away) or a part
    off the span, up to 10**6 times a lattice vector."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    U = _unimodular(draw, n, 6, 1)
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    B = np.array(draw(st.lists(entries, min_size=m * m, max_size=m * m))).reshape(m, m)
    D = np.diag(np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))))
    D[:m, :m] = B.T @ B + draw(st.floats(0.3, 2.0)) * np.eye(m)
    Uinv = unimodular_inverse(U).astype(float)
    Q = Uinv.T @ D @ Uinv
    Q = (Q + Q.T) / 2
    kind = draw(st.sampled_from(["zero", "fraction", "huge", "off-span"]))
    shift = [Fraction(0)] * n
    if kind != "zero":
        fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))
        shift = draw(st.lists(fractions, min_size=n, max_size=n))
    if kind == "huge":
        big = draw(st.lists(st.integers(-(10**30), 10**30), min_size=m, max_size=m))
        shift = [a + b for a, b in zip(shift, U[:, :m].astype(object) @ np.array(big, dtype=object))]
    if kind == "off-span" and m < n:
        scale = draw(st.sampled_from([1, 3, 10**6]))
        shift = [a + scale * int(b) for a, b in zip(shift, U[:, -1])]
    radius = draw(st.floats(0.5, 2.0 + 2.0 / m))
    return ConeSpec(U[:, :m], tuple(shift)), Q, radius


@settings(max_examples=200, deadline=None)
@given(_placement_cases())
def test_cone_form_placement_matches_reference(case):
    cone, Q, _ = case
    s, c_star, q_min, t_s = _reference_placement(cone, Q)
    if not (math.isfinite(q_min) and math.isfinite(t_s)):
        with pytest.raises(ValidationError):
            ConeForm(cone, Q)
        return
    form = ConeForm(cone, Q)
    # == and array_equal count +0.0 and -0.0 as equal
    assert form.shift.tobytes() == s.tobytes()
    assert np.array_equal(form.c_star, c_star) and form.q_min == q_min and form.t_s == t_s


@settings(max_examples=200, deadline=None)
@given(_placement_cases())
def test_enumerate_matches_reference_level_loop(case):
    cone, Q, radius = case
    _, c_star, q_min, _ = _reference_placement(cone, Q)
    assume(math.isfinite(q_min))
    form = ConeForm(cone, Q)
    # a form negative off the span can make q_min very negative and the
    # ellipsoid huge: bound the coefficient box before enumerating
    budget = max(radius**2 - q_min, 0.0) + 1.0
    G = cone.generators.astype(float)
    half = np.sqrt(budget * np.diag(np.linalg.inv(G.T @ Q @ G)))
    assume(np.prod(2 * half + 1) <= 50_000)
    K, norms = lattice._enumerate(form, radius)
    ref_K, ref_norms = _reference_enumerate(form, radius, c_star, q_min)
    assert K.shape == ref_K.shape
    assert K.tobytes() == ref_K.tobytes() and norms.tobytes() == ref_norms.tobytes()


def _wedge_forms(basis, Q):
    return [ConeForm(cone, Q) for cone in wedge_cones(basis)]


def _wedge_multiset_oracle(basis, Q, R):
    """Brute-force shell cancellation: every shell r = 0..2B along N_k
    counts the sheared cone family +1 and the plain family -1 at each point
    whose coefficients lie in the box |.| <= B, where B bounds both
    ellipsoids; the nonzero counts with |t| <= B whose coefficient vector c
    lies in the union of the ellipsoids Q(plain c) <= R^2 and
    Q(sheared c) <= R^2 are kept."""
    idx = basis.k
    shift_dir = basis.N[:, idx - 1]
    plain = basis.N[:, idx:]
    sheared = plain.copy()
    sheared[:, 0] -= shift_dir
    grams = [G.T @ Q @ G for G in (plain, sheared)]
    B = int(R / math.sqrt(min(np.linalg.eigvalsh(A)[0] for A in grams)) + 1e-9)
    cnt = defaultdict(int)
    for r in range(0, 2 * B + 1):
        for c in itertools.product(range(-B, B + 1), repeat=plain.shape[1]):
            cnt[tuple(int(x) for x in r * shift_dir + sheared @ c)] += 1
            cnt[tuple(int(x) for x in r * shift_dir + plain @ c)] -= 1

    def kept(p):
        coords = basis.M.T @ np.array(p)  # tM N = I
        c = coords[idx:]
        return abs(coords[idx - 1]) <= B and min(c @ A @ c for A in grams) <= R * R

    return {p: s for p, s in cnt.items() if s != 0 and kept(p)}


def _wedge_map(basis, K):
    """{point: sign} of an enumerate_wedge result; the sign is sign(c_0)."""
    signs = np.sign(K @ basis.M[:, basis.k])
    got = {tuple(int(x) for x in p): int(s) for p, s in zip(K, signs)}
    assert len(got) == len(K)
    return got


def test_enumerate_wedge_matches_double_sum_oracle():
    basis = SplitBasis.identity(2, 1)
    Q = np.diag([-1.0, 2.0])
    got = _wedge_map(basis, enumerate_wedge(basis, _wedge_forms(basis, Q), 7))
    assert got == _wedge_multiset_oracle(basis, Q, 7)


def _wedge_gram(n, k, b):
    """Integer Gram matrix, in the N coordinates, of a form split at k:
    -1 on N_1..N_k, 4 on N_{k+1}..N_n, and b_j between N_k and N_{k+1+j}.
    Both wedge cones are positive (the sheared Gram matrix has 3 - 2 b_0 >= 1
    first), and for n - k >= 2 a nonzero b_1 makes their ellipsoids cross."""
    G = np.diag([-1] * k + [4] * (n - k))
    G[k - 1, k:] = G[k:, k - 1] = b[: n - k]
    return G


#: a wedge basis with large entries; its forms are near-degenerate
_FAR_N = np.array([[1, 0, 0, 0], [-64, 9, 16, 0], [28, -4, -7, 0], [0, 0, 0, 1]], dtype=np.int64)


@st.composite
def _wedge_bases(draw):
    """(N, M, b): a random unimodular N with M = tN^-1 at n = 2..4, and the
    couplings b of _wedge_gram; the form split at k is M G tM."""
    N = _unimodular(draw, draw(st.integers(2, 4)), 8, 2)
    return N, unimodular_inverse(N).T, draw(st.lists(st.integers(-1, 1), min_size=3, max_size=3))


@settings(max_examples=60, deadline=None)
@given(_wedge_bases(), st.integers(0, 5))
def test_enumerate_wedge_matches_oracle_on_random_bases(case, R):
    N, M, b = case
    for k in range(1, len(N)):
        basis = SplitBasis(N, M, k)
        Q = M @ _wedge_gram(len(N), k, b) @ M.T
        got = _wedge_map(basis, enumerate_wedge(basis, _wedge_forms(basis, Q), R))
        assert got == _wedge_multiset_oracle(basis, Q, R)


def _wedge_box_sum(basis, omega, Z, target):
    """The wedge sum over every (t, c) in the box |.| <= B, with
    K = t N_k + sum_i c_i N_{k+1+i} and the sign [t >= -c_0] - [t >= 0] of
    the two families, and a bound on its error: the rounding of its terms
    plus what the box leaves out, B being the least size for which that part
    is at most ``target``.

    Only points with |t| <= |c_0| carry a sign, so the box leaves out just
    the c with |c|_inf = s > B: (2s+1)^m - (2s-1)^m of them, each carrying
    at most s points, and each point below e^E(P c) + e^E(T c) by the
    concavity argument of test_wedge_tail_is_certified.  For X = P, T,
    E(X c) = e_X - pi t(c - c*) A (c - c*) <= e_X - pi lam (s - |c*|_inf)^2
    once s >= |c*|_inf, with A = tX Q X, lam its least eigenvalue, c* the
    minimiser of the shifted exponent and e_X its value there.
    """
    k, n = basis.k, basis.n
    m = n - k
    Q, y = omega.imag, np.asarray(Z).imag
    peaks = []  # (e_X, lam, |c*|_inf) of each cone
    for cone in wedge_cones(basis):
        X = cone.generators.astype(float)
        A = X.T @ Q @ X
        c_star = np.linalg.solve(A, -X.T @ y)
        peaks.append((math.pi * float(c_star @ A @ c_star), float(np.linalg.eigvalsh(A)[0]),
                      float(np.abs(c_star).max())))

    def left_out(B):
        total, s, prev = 0.0, B + 1, math.inf
        while True:
            shell = s * ((2 * s + 1) ** m - (2 * s - 1) ** m)
            term = shell * sum(math.exp(e - math.pi * lam * (s - d) ** 2) for e, lam, d in peaks)
            total += term
            if term < prev and term <= 1e-30 * total:
                return total
            prev, s = term, s + 1

    B = math.ceil(max(d for _, _, d in peaks))
    while left_out(B) > target:
        B += 1
    tc = np.indices((2 * B + 1,) * (m + 1)).reshape(m + 1, -1).T - B
    sign = (tc[:, 0] >= -tc[:, 1]).astype(int) - (tc[:, 0] >= 0)
    tc, sign = tc[sign != 0], sign[sign != 0]
    K = (tc @ basis.N[:, k - 1:].T).astype(float)
    terms = sign * theta_terms(K, Z, omega)
    absK = np.abs(K)
    phase_abs = math.pi * (form_values(absK, np.abs(omega)) + 2.0 * (absK @ np.abs(Z)))
    rounding = 64 * 2.0**-52 * float(np.sum((1.0 + phase_abs) * np.abs(terms)))
    return complex_fsum(terms), rounding + left_out(B)


@settings(max_examples=30, deadline=None)
@given(
    _wedge_bases(),
    st.sampled_from([1e-2, 1e-6, 1e-10]),
    st.integers(0, 2**31),
    st.lists(st.integers(-1, 1), min_size=4, max_size=4),
)
# a fixed box |t|, |c_i| <= 12 left out 6.2e65 of 7.26e72 here (k = 1)
@example((np.eye(4, dtype=np.int64), np.eye(4, dtype=np.int64), [1, 1, 1]), 1e-2, 0, [-1, -1, 0, 0])
# the terms of the k = 1 sum overflow (see test_wedge_sum_beyond_double_range)
@example((_FAR_N, unimodular_inverse(_FAR_N).T, [1, 0, 0]), 1e-2, 0, [0, 0, 0, 0])
def test_wedge_tail_is_certified(case, tol, seed, u):
    """Every WedgeSum tail is a true bound, at a sample Z and at the
    lambda-shifted Z + omega N u.  A sum beyond the double range raises
    ValidationError, and then the reference must overflow as well.

    The bound rests on concavity: a coefficient vector c carries |c_0|
    points on the segment from P c to T c (P, T the plain and sheared
    generators), which moves along N_k with Q(N_k) < 0.  So Q is concave and
    -pi Q(K) - 2 pi tK y convex on it, and every point's |Theta_K| is at most
    the larger of its values at P c and T c.  The points outside both
    ellipsoids are then bounded by the two cones' tail_bounds, each point
    counted |c_0| times.  The reference sums the sign rule over a box sized
    from the instance, whose left-out part is bounded the same way and kept
    below a thousandth of tol.
    """
    N, M, b = case
    n = len(N)
    for k in range(1, n):
        basis = SplitBasis(N, M, k)
        Q = M @ _wedge_gram(n, k, b) @ M.T
        omega = 0.1 * np.add.outer(np.arange(n), np.arange(n)) + 1j * Q
        Z = sample_points(n, 1, seed)[0]
        for at in (Z, Z + omega @ (N @ np.array(u[:n]))):
            try:
                value, tail = WedgeSum(basis, tol).value_tail(omega, at)
            except ValidationError:
                with pytest.raises((OverflowError, ValidationError)):
                    _wedge_box_sum(basis, omega, at, 1e-3 * tol)
                continue
            assert tail <= tol
            ref, allowance = _wedge_box_sum(basis, omega, at, 1e-3 * tol)
            assert abs(value - ref) <= tail + allowance


def _far_wedge_instance():
    """The form of _FAR_N split at k = 1, as an instance carrying that basis."""
    Q = unimodular_inverse(_FAR_N).T @ _wedge_gram(4, 1, [1, 0, 0]) @ unimodular_inverse(_FAR_N)
    omega = 0.1 * np.add.outer(np.arange(4), np.arange(4)) + 1j * Q
    return omega, {
        "n": 4,
        "k": 1,
        "omega": [[{"re": float(x.real), "im": float(x.imag)} for x in row] for row in omega],
        "basis": {"n": 4, "k": 1, "N": _FAR_N.tolist(), "M": unimodular_inverse(_FAR_N).T.tolist()},
    }


def test_wedge_sum_beyond_double_range(tmp_path, capsys):
    # Q has an eigenvalue of -2e-4, and the terms of the k = 1 wedge sum
    # overflow: a documented error, exit 2 from the CLI, never a traceback,
    # and no numpy warning on the way: stderr holds the error line only
    omega, payload = _far_wedge_instance()
    basis = SplitBasis(_FAR_N, unimodular_inverse(_FAR_N).T, 1)
    with pytest.raises(ValidationError):
        WedgeSum(basis, 1e-2).value_tail(omega, sample_points(4, 1, 0)[0])
    inst = tmp_path / "far.json"
    inst.write_text(json.dumps(payload))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--instance", str(inst), "--suite", "wedge"]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_enumerate_wedge_signs():
    # sheared-family-only points carry +1, plain-family-only points -1
    basis = SplitBasis.identity(2, 1)
    got = _wedge_map(basis, enumerate_wedge(basis, _wedge_forms(basis, np.diag([-1.0, 2.0])), 4))
    assert got[(-1, 1)] == 1
    assert got[(0, -1)] == -1
    assert (0, 0) not in got


def test_enumerate_wedge_radius_zero():
    basis = SplitBasis.identity(2, 1)
    pts = enumerate_wedge(basis, _wedge_forms(basis, np.diag([-1.0, 2.0])), 0)
    assert pts.shape == (0, 2)


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

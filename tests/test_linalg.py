import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conetheta.errors import DegenerateForm, ShapeMismatch, SingularMatrix
from conetheta import linalg
from conetheta.linalg import as_real_symmetric, check_symmetric, principal_sqrt_det, signature


def test_signature_diagonal():
    assert signature(np.diag([-1.0, 1.0])) == (1, 1)


def test_signature_identity3():
    assert signature(np.eye(3)) == (0, 3)


def test_signature_offdiagonal():
    # eigenvalues +-1 from the characteristic polynomial x^2 - 1
    assert signature(np.array([[0.0, 1.0], [1.0, 0.0]])) == (1, 1)


def test_signature_degenerate_raises():
    with pytest.raises(DegenerateForm):
        signature(np.diag([1.0, 1e-12]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_signature_congruence_invariant(data):
    n = data.draw(st.integers(2, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    while True:
        Q = rng.integers(-3, 4, size=(n, n)).astype(float)
        Q = (Q + Q.T) / 2
        eig = np.linalg.eigvalsh(Q)
        if np.min(np.abs(eig)) > 1e-6:
            break
    # random unimodular R from shear products
    R = np.eye(n)
    for _ in range(6):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            S = np.eye(n)
            S[i, j] = rng.integers(-2, 3)
            R = R @ S
    assert signature(R.T @ Q @ R) == signature(Q)


def test_principal_sqrt_det_identity():
    assert principal_sqrt_det(np.eye(3)) == 1.0


def test_principal_sqrt_det_negative_one():
    assert principal_sqrt_det(np.array([[-1.0]])) == 1j


def test_principal_sqrt_det_ii():
    # det = -1, principal root is +i
    assert abs(principal_sqrt_det(np.diag([1j, 1j])) - 1j) < 1e-14


def test_principal_sqrt_branch_range():
    rng = np.random.default_rng(11)
    for _ in range(50):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        if abs(np.linalg.det(M)) < 1e-6:
            continue
        w = principal_sqrt_det(M)
        assert -cmath.pi / 2 < cmath.phase(w) <= cmath.pi / 2
        assert abs(w * w - np.linalg.det(M)) < 1e-12 * max(1.0, abs(np.linalg.det(M)))


def test_shape_checks():
    with pytest.raises(ShapeMismatch):
        signature(np.zeros((2, 3)))
    with pytest.raises(SingularMatrix):
        principal_sqrt_det(np.zeros((2, 2)))


def test_check_symmetric_returns_a_symmetric_matrix_unchanged():
    M = np.array([[1 + 2j, -0.0 + 0.5j], [-0.0 + 0.5j, 3.0 - 0.0j]])
    A = check_symmetric(M)
    assert A is not M and A.tobytes() == M.tobytes()


@pytest.mark.parametrize("part", ["real", "imag"])
def test_check_symmetric_mirrors_a_signed_zero(part):
    # entries (0, 1) and (1, 0) differ only in the sign of a zero: equal as
    # numbers, not as bits, so the matrix is symmetrised, as (A + tA)/2
    # would, to +0.0 in both places
    M = np.array([[1j, 0.3 + 0.4j], [0.3 + 0.4j, 2j]])
    getattr(M, part)[0, 1], getattr(M, part)[1, 0] = 0.0, -0.0
    A = check_symmetric(M)
    assert A.tobytes() == A.T.tobytes() == ((M + M.T) / 2).tobytes()
    assert not np.signbit(getattr(A, part)[1, 0])


def test_as_real_symmetric_mirrors_once(monkeypatch):
    # the bits of the upper-triangle mirror, for matrices that are or are
    # not symmetric, with signed zeros in either triangle and on the diagonal
    rng = np.random.default_rng(8)
    cases = []
    for n in (1, 2, 3, 5):
        A = rng.normal(size=(n, n))
        cases += [A, A + A.T, np.zeros((n, n)), -np.zeros((n, n))]
        B = A + A.T
        B[rng.integers(0, n), rng.integers(0, n)] = -0.0
        cases.append(B)
    mirrors = []
    for A in cases:
        want = np.triu(A) + np.triu(A, 1).T
        got = as_real_symmetric(A)
        assert got is not A and got.tobytes() == want.tobytes()
        mirrors.append(got)
    # a mirror is its own mirror, and is returned without mirroring again
    monkeypatch.setattr(linalg.np, "triu", None)
    for S in mirrors:
        again = as_real_symmetric(S)
        assert again is not S and again.tobytes() == S.tobytes()

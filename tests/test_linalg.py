import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conetheta.errors import DegenerateForm, ShapeMismatch, SingularMatrix
from conetheta.linalg import principal_sqrt_det, signature


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

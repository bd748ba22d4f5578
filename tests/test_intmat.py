import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conetheta import intmat
from conetheta.errors import SingularMatrix, ValidationError
from conetheta.intmat import (
    as_int_matrix,
    int_det,
    is_primitive_columns,
    to_int64,
    unimodular_completion,
    unimodular_inverse,
)


@st.composite
def _matrices(draw, square=False):
    """An n x m integer matrix, n <= 6 and m from 0 to n + 1 (m = n when
    square): entries in [-3, 3], or the columns of a unimodular matrix built
    by column moves; sometimes the last column is forced to depend on the
    others."""
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(0, n + 1))
    if m <= n and draw(st.booleans()):
        U = np.eye(n, dtype=np.int64)
        moves = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
        for i, j, c in draw(st.lists(moves, max_size=3 * n)):
            if i != j:
                U[:, i] += c * U[:, j]
        V = U[:, list(draw(st.permutations(range(n))))[:m]]
    else:
        entries = draw(st.lists(st.integers(-3, 3), min_size=n * m, max_size=n * m))
        V = np.array(entries, dtype=np.int64).reshape(n, m)
    if m >= 2 and draw(st.booleans()):
        coef = np.array(draw(st.lists(st.integers(-2, 2), min_size=m - 1, max_size=m - 1)))
        V[:, -1] = V[:, :-1] @ coef
    return V


def _primitive_reference(V):
    """Rank m and gcd 1 of the m x m minors."""
    n, m = V.shape
    minors = [int_det(V[list(rows)]) for rows in itertools.combinations(range(n), m)]
    return np.linalg.matrix_rank(V) == m and math.gcd(*minors) == 1


@settings(max_examples=400, deadline=None)
@given(_matrices())
def test_is_primitive_columns_matches_minor_gcd(V):
    assert is_primitive_columns(V) == _primitive_reference(V)


@settings(max_examples=300, deadline=None)
@given(_matrices(square=True))
def test_unimodular_inverse_is_exact(A):
    n = A.shape[0]
    if abs(int_det(A)) == 1:
        X = unimodular_inverse(A)
        assert (X.astype(object) @ A.astype(object)).tolist() == np.eye(n, dtype=int).tolist()
    else:
        with pytest.raises(SingularMatrix):
            unimodular_inverse(A)


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_unimodular_completion_is_unimodular(V):
    n, m = V.shape
    if not _primitive_reference(V):
        with pytest.raises(SingularMatrix):
            unimodular_completion(V)
        return
    C = unimodular_completion(V)
    assert C.shape == (n, n - m)
    assert abs(int_det(np.column_stack([V, C]))) == 1


@pytest.mark.parametrize("entry", [2**63, 2**64, -(2**63) - 1], ids=["2^63", "2^64", "-2^63-1"])
def test_as_int_matrix_beyond_int64_raises(entry):
    # 2**63 makes a uint64 array that astype(int64) would wrap; the other
    # two make an object array of Python ints
    with pytest.raises(ValidationError):
        as_int_matrix([[entry]])


def test_as_int_matrix_int64_extremes():
    M = as_int_matrix([[2**63 - 1, -(2**63)]])
    assert M.dtype == np.int64 and M.tolist() == [[2**63 - 1, -(2**63)]]


def _completion_by_two_reductions(V):
    """The completion by two reductions: reduce V to get U, invert U by a
    second reduction and back substitution, and take the last n - m
    columns of U^{-1}."""
    n, m = V.shape
    _, U = intmat._reduce(V.tolist(), m)
    return intmat._int64_matrix(intmat._inverse(U), n)[:, m:]


def test_unimodular_completion_matches_two_reductions():
    # random primitive V: m columns of a unimodular matrix made by column
    # moves, at n = 1..6 and m = 1..n
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for m in range(1, n + 1):
            for _ in range(25):
                U = np.eye(n, dtype=np.int64)
                for _ in range(3 * n):
                    i, j = rng.choice(n, 2, replace=n == 1)
                    if i != j:
                        U[:, i] += int(rng.integers(-3, 4)) * U[:, j]
                V = U[:, rng.permutation(n)[:m]]
                got, want = unimodular_completion(V), _completion_by_two_reductions(V)
                assert got.dtype == np.int64 and got.shape == (n, n - m)
                assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "M",
    [
        np.array([[2**63]], dtype=object),
        np.array([[0, -(2**63) - 1]], dtype=object),
        np.array([[1, 2**63 - 1], [2**63, 0]], dtype=object),
        np.array([[2**63 + 5]], dtype=np.uint64),
    ],
    ids=["2^63", "-2^63-1", "2^63-among-others", "uint64"],
)
def test_to_int64_beyond_int64_raises(M):
    with pytest.raises(ValidationError):
        to_int64(M)


def test_to_int64_in_range():
    for M in (
        np.array([[2**63 - 1, -(2**63)], [0, 5]], dtype=object),
        np.array([[2**63 - 1]], dtype=np.uint64),
        np.array([[-3, 4]], dtype=np.int32),
        np.array([[-(2**63), 2**63 - 1]], dtype=np.int64),
    ):
        got = to_int64(M)
        assert got.dtype == np.int64 and got.tolist() == M.tolist()
    for shape in ((0,), (0, 3), (3, 0)):
        for dtype in (object, np.uint64, np.int64):
            got = to_int64(np.zeros(shape, dtype=dtype))
            assert got.dtype == np.int64 and got.shape == shape

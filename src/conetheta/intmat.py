"""Exact integer matrix utilities: a determinant, one unimodular row
reduction and what it answers, and exact products.

The reduction finds, for an n x m integer matrix V, a unimodular U with
U V = [T; 0] and T upper triangular.  The gcd of the m x m minors of V is
|det T|, so V spans a primitive rank-m sublattice exactly when the diagonal
of T is +-1 (is_primitive_columns).  A square A with det +-1 then has the
inverse T^{-1} U by back substitution (unimodular_inverse).  The same
reduction can carry U^{-1} in place of U, undoing each row step on its
columns, so one reduction of a primitive V gives the last n - m columns
of U^{-1}, which complete V to a unimodular matrix
(unimodular_completion).  int_det is a separate fraction-free
determinant.

Everything runs over Python ints (arbitrary precision); numpy arrays are
accepted and converted.  Products that must not wrap go through ``exact``
(Python ints in an object array) and come back through ``to_int64``, which
raises ValidationError for an entry beyond int64.  Sizes are desk scale
(n <= 8), so the simple cubic algorithms are fine.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch, SingularMatrix, ValidationError

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def as_int_matrix(M) -> np.ndarray:
    A = np.asarray(M)
    if A.ndim != 2:
        raise ShapeMismatch("expected a matrix, got ndim=%d" % A.ndim)
    if A.dtype.kind in "uO":
        # an entry beyond int64 makes the array unsigned or an object array
        # of Python ints; range-check it instead of letting astype wrap
        if not all(isinstance(x, (int, np.integer)) for x in A.flat):
            raise ShapeMismatch("matrix entries are not integers")
        return to_int64(A)
    if not np.issubdtype(A.dtype, np.integer):
        B = np.rint(A).astype(np.int64)
        if not np.array_equal(B, A):
            raise ShapeMismatch("matrix entries are not integers")
        A = B
    return A.astype(np.int64)


def exact(M) -> np.ndarray:
    """The integer matrix M over Python ints, so that products cannot wrap."""
    return np.asarray(M).astype(object)


def to_int64(M) -> np.ndarray:
    """An exact integer matrix as int64; ValidationError if an entry does not fit."""
    M = np.asarray(M)
    if M.dtype != np.int64 and M.size and not (_INT64_MIN <= min(M.flat) and max(M.flat) <= _INT64_MAX):
        raise ValidationError("integer matrix entry beyond the int64 range")
    return M.astype(np.int64)


def int_det(M) -> int:
    """Determinant by fraction-free (Bareiss) elimination, exact."""
    A = [[int(x) for x in row] for row in as_int_matrix(M)]
    n = len(A)
    if n == 0:
        return 1
    if any(len(row) != n for row in A):
        raise ShapeMismatch("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k] != 0:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def _xgcd(a: int, b: int):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _reduce(A: list, m: int, inverse: bool = False):
    """(T, U) with U A = [T; 0] for the n x m integer rows A (changed in
    place), U unimodular and T upper triangular with diagonal +-1; None when
    the columns of A do not span a primitive rank-m sublattice.  With
    ``inverse``, (T, W) instead, W = U^{-1} as the list of its columns.

    Column by column, the first nonzero entry at or below the diagonal is
    swapped up, and each lower entry b is cleared against the pivot a by
    the rows (x, y; -b/g, a/g), where x a + y b = g = gcd(a, b); these have
    determinant 1.  The pivot is then the gcd of its column below the rows
    already fixed, and later columns do not change it, so a pivot other
    than +-1 ends the reduction.  W follows by the inverse steps on its
    columns: a swap of the same two, and (a/g, -y; b/g, x) for each clearing.
    """
    n = len(A)
    X = [[int(i == j) for j in range(n)] for i in range(n)]  # rows of U, or columns of W
    for col in range(m):
        piv = next((i for i in range(col, n) if A[i][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        X[col], X[piv] = X[piv], X[col]
        for i in range(col + 1, n):
            a, b = A[col][col], A[i][col]
            if b == 0:
                continue
            x, y, g = _xgcd(a, b)
            a, b = a // g, b // g
            top, low = A[col], A[i]
            A[col] = [x * u + y * v for u, v in zip(top, low)]
            A[i] = [a * v - b * u for u, v in zip(top, low)]
            top, low = X[col], X[i]
            if inverse:
                X[col] = [a * u + b * v for u, v in zip(top, low)]
                X[i] = [x * v - y * u for u, v in zip(top, low)]
            else:
                X[col] = [x * u + y * v for u, v in zip(top, low)]
                X[i] = [a * v - b * u for u, v in zip(top, low)]
        if abs(A[col][col]) != 1:
            return None
    return A[:m], X


def _inverse(A: list):
    """The inverse of the square integer rows A over Python ints, or None
    when det A != +-1: with U A = T, solve T X = U from the last row up,
    dividing by T's diagonal entries +-1."""
    n = len(A)
    reduced = _reduce(A, n)
    if reduced is None:
        return None
    T, U = reduced
    X = [None] * n
    for i in range(n - 1, -1, -1):
        X[i] = [
            T[i][i] * (U[i][j] - sum(T[i][l] * X[l][j] for l in range(i + 1, n)))
            for j in range(n)
        ]
    return X


def _int64_matrix(rows: list, n: int) -> np.ndarray:
    return to_int64(np.array(rows, dtype=object).reshape(n, n))


def is_primitive_columns(V) -> bool:
    """True iff the columns of V are independent and generate a primitive
    sublattice (the gcd of their maximal minors is 1)."""
    V = as_int_matrix(V)
    return _reduce(V.tolist(), V.shape[1]) is not None


def unimodular_inverse(M) -> np.ndarray:
    """Exact inverse of an integer matrix with determinant +-1."""
    A = as_int_matrix(M)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ShapeMismatch("inverse of a non-square matrix")
    X = _inverse(A.tolist())
    if X is None:
        raise SingularMatrix("matrix is not unimodular (det=%d)" % int_det(A))
    return _int64_matrix(X, n)


def unimodular_completion(V) -> np.ndarray:
    """Columns extending the primitive n x m matrix V to a unimodular n x n
    matrix; returns the n x (n-m) block of new columns.

    With U V = [T; 0], (V | U^{-1}[:, m:]) = U^{-1} diag(T, I), whose
    determinant is +-1; the reduction carries U^{-1} itself.
    """
    V = as_int_matrix(V)
    n, m = V.shape
    reduced = _reduce(V.tolist(), m, inverse=True)
    if reduced is None:
        raise SingularMatrix("columns do not span a primitive sublattice")
    return to_int64(np.array(reduced[1][m:], dtype=object).reshape(n - m, n).T)

"""Dense complex/real matrix arithmetic: symmetry checks, signatures, the
branch-controlled square root of a determinant, and the indefinite LLL
reduction of a symmetric form.

All inputs are small (n <= 8) IEEE double matrices.  Values are treated as
immutable; every public function is pure.  The reduction works in place on
Python lists of floats, which at this size are faster than numpy.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DegenerateForm, ShapeMismatch, SingularMatrix

#: relative eigenvalue threshold below which a form counts as degenerate
TOL_DEGENERATE = 1e-9

#: relative max-norm asymmetry above which a matrix counts as not symmetric
TOL_SYMMETRIC = 1e-12


def as_square_complex(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch("expected a square matrix, got shape %r" % (A.shape,))
    if not np.all(np.isfinite(A.view(float))):
        raise ShapeMismatch("matrix entries must be finite")
    return A


def as_square_real(Q) -> np.ndarray:
    """Q as a new C-ordered float matrix, checked square and finite."""
    A = np.array(Q, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch("expected a square matrix, got shape %r" % (A.shape,))
    if not np.all(np.isfinite(A)):
        raise ShapeMismatch("matrix entries must be finite")
    return A


def as_real_symmetric(Q) -> np.ndarray:
    A = as_square_real(Q)
    # the upper triangle is authoritative; mirror it.  A matrix that is its
    # own mirror (A = t(A + 0.0) bitwise: symmetric, and no -0.0, which the
    # mirror's added zeros turn into +0.0) is returned as it is, so a form
    # symmetrised once is not mirrored again
    if A.tobytes() == (A + 0.0).T.tobytes():
        return A
    return np.triu(A) + np.triu(A, 1).T


def check_symmetric(M) -> np.ndarray:
    """M as a complex matrix, checked square, finite and symmetric up to
    TOL_SYMMETRIC, and symmetrised as A/2 + tA/2 (halving first, so that no
    finite entry overflows; above the subnormal range the same floats as
    (A + tA)/2).  A bitwise symmetric M comes back unchanged, as a new
    array (an entry whose mirror differs only in the sign of a zero is
    symmetrised, to +0.0)."""
    A = as_square_complex(M)
    if A.tobytes() == A.T.tobytes():
        return A.copy()
    if np.max(np.abs(A - A.T)) > TOL_SYMMETRIC * max(1.0, np.max(np.abs(A))):
        raise ShapeMismatch("matrix is not symmetric")
    return A / 2 + A.T / 2


def signature(Q) -> tuple[int, int]:
    """Signature (neg, pos) of a nondegenerate real symmetric form.

    Raises DegenerateForm when some eigenvalue is within TOL_DEGENERATE
    (relative to the largest magnitude eigenvalue) of zero.
    """
    A = as_real_symmetric(Q)
    eig = np.linalg.eigvalsh(A).tolist()
    size = [abs(e) for e in eig]
    scale = max(size, default=0.0)
    if scale == 0.0 or min(size) <= TOL_DEGENERATE * scale:
        raise DegenerateForm("eigenvalue within %g of zero" % TOL_DEGENERATE)
    neg = sum(e < 0 for e in eig)
    return neg, len(eig) - neg


def principal_sqrt_det(M) -> complex:
    """Principal square root of det(M): the root with argument in (-pi/2, pi/2].

    The residual sign ambiguity of a half-integral power is deliberately not
    resolved here; callers absorb it into their unit multiplier.
    """
    A = as_square_complex(M)
    d = complex(np.linalg.det(A))
    if d == 0 or not np.isfinite(abs(d)):
        raise SingularMatrix("determinant is zero")
    if d.imag == 0.0:
        d = complex(d.real, 0.0)  # normalise -0.0 so the branch cut is stable
    w = cmath.sqrt(d)
    if w.real < 0 or (w.real == 0 and w.imag < 0):
        w = -w
    return w


#: Bunch and Kaufman's pivot ratio (1 + sqrt(17)) / 8, rounded: a diagonal
#: pivot below this share of the largest off-diagonal entry gives way to a
#: 2 x 2 pivot on that entry
_PIVOT_RATIO = 0.64

#: steps after which one LLL run stops, a guard against float cycling
_LLL_STEPS = 1000


def _majorant(G: list, pivoted: bool) -> list | None:
    """The positive definite majorant H = sum_b L_b |D_b| tL_b of the
    symmetric G = L D tL (lists of floats), or None at a zero pivot.

    A pivot block W = S[P, P] = E_b diag(w) tE_b of the Schur complement S
    (E_b its eigenvectors) has |D_b| = E_b |w| tE_b.  With f = S[:, P] e
    for each eigenpair (e, w), the block takes f tf / w off S and adds
    f tf / |w| to H.  Pivoted (Bunch and Kaufman, Math. Comp. 31, 1977):
    the largest diagonal entry, or a 2 x 2 block on the largest
    off-diagonal entry when the diagonal is below _PIVOT_RATIO of it.
    Unpivoted: the diagonal in order, None at a pivot within 1e-9 of the
    largest so far."""
    n = len(G)
    S, H = [row[:] for row in G], [[0.0] * n for _ in range(n)]
    left, top = list(range(n)), 0.0
    while left:
        p, off = left[0], 0.0
        if pivoted:
            p = max(left, key=lambda i: abs(S[i][i]))
            off = max((abs(S[i][j]) for i in left for j in left if i < j), default=0.0)
        d = abs(S[p][p])
        top = max(top, d)
        if d < _PIVOT_RATIO * off:
            # one Jacobi rotation diagonalises W = (a, b; b, c)
            i, j = P = next((i, j) for i in left for j in left if i < j and abs(S[i][j]) == off)
            a, b, c = S[i][i], S[i][j], S[j][j]
            angle = 0.5 * math.atan2(2 * b, a - c)
            cs, sn = math.cos(angle), math.sin(angle)
            updates = [([cs * S[r][i] + sn * S[r][j] for r in left], a * cs * cs + 2 * b * cs * sn + c * sn * sn),
                       ([cs * S[r][j] - sn * S[r][i] for r in left], a * sn * sn - 2 * b * cs * sn + c * cs * cs)]
        elif d > (0.0 if pivoted else 1e-9 * top):
            P, updates = (p,), [([S[r][p] for r in left], S[p][p])]
        else:
            return None
        for f, w in updates:
            for r, x in zip(left, f):
                h, s = x / abs(w), x / w
                Hr, Sr = H[r], S[r]
                for t, y in zip(left, f):
                    Hr[t] += h * y
                    Sr[t] -= s * y
        left = [r for r in left if r not in P]
    return H


def _column_op(M: list, j: int, i: int, q: int) -> None:
    """Column j -= q column i, on the symmetric Gram matrix M in place."""
    row = [x - q * y for x, y in zip(M[j], M[i])]
    row[j] -= q * row[i]
    M[j] = row
    for l, x in enumerate(row):
        M[l][j] = x


def _swap(M: list, i: int, j: int) -> None:
    """Swap columns i and j, on the symmetric Gram matrix M in place."""
    M[i], M[j] = M[j], M[i]
    for row in M:
        row[i], row[j] = row[j], row[i]


def _lll(H: list, G: list, B: list) -> bool:
    """LLL-reduce (delta = 0.99) the basis B, a list of integer columns,
    under the positive definite Gram matrix H; each column operation is
    done on H, G and B together.  True if B moved.  Gram-Schmidt runs on
    H's floats one row at a time; a row whose squared length comes out
    <= 0 ends the run as unmoved."""
    n = len(H)
    mu, r = [[0.0] * n for _ in range(n)], [H[0][0]] + [0.0] * (n - 1)
    k, moved = 1, False
    for _ in range(_LLL_STEPS):
        if k >= n:
            break
        for j in range(k + 1):
            x = H[k][j] - sum(mu[j][l] * mu[k][l] * r[l] for l in range(j))
            if j < k:
                mu[k][j] = x / r[j]
        r[k] = x
        if not r[k] > 0:
            return False
        for j in range(k - 1, -1, -1):  # size reduction
            q = round(mu[k][j])
            if q:
                _column_op(H, k, j, q)
                _column_op(G, k, j, q)
                B[k] = [x - q * y for x, y in zip(B[k], B[j])]
                for l in range(j):
                    mu[k][l] -= q * mu[j][l]
                mu[k][j] -= q
                moved = True
        m = mu[k][k - 1]
        if 0.99 * r[k - 1] > r[k] + m * m * r[k - 1]:  # Lovasz condition fails
            _swap(H, k - 1, k)
            _swap(G, k - 1, k)
            B[k - 1], B[k] = B[k], B[k - 1]
            moved, k = True, max(k - 1, 1)
            r[0] = H[0][0]
        else:
            k += 1
    return moved


def reduced_bases(Q: np.ndarray):
    """The integer bases B that an indefinite LLL reduction of the real
    symmetric Q (D. Simon, Math. Comp. 74, 2005) passes through, each as
    (the values tb Q b of its columns, its columns as lists of ints).

    A pass keeps B and G = tB Q B (floats, updated with every column
    operation, never recomputed) and repeats: factor G = L D tL, and
    LLL-reduce B under the positive definite majorant H = L |D| tL
    (_majorant, _lll).  It yields B after the first round and after each
    round that moved B, and ends when LLL makes no move.  Pass A starts at
    B = I and pivots the factorisation, for at most 30 rounds.  Pass B
    starts from the LLL basis under the eigenvalue majorant |Q| and does
    not pivot, for at most 20 rounds.  A float failure (overflow, nan)
    ends a pass."""
    n = len(Q)
    for pivoted, rounds in ((True, 30), (False, 20)):
        G, B = Q.tolist(), np.eye(n, dtype=np.int64).tolist()
        try:
            if not pivoted:
                with np.errstate(over="ignore", invalid="ignore"):  # inf and nan end the pass
                    w, V = np.linalg.eigh(Q)
                    A = (V * np.abs(w)) @ V.T
                    A = A / 2 + A.T / 2
                _lll(A.tolist(), G, B)
            for r in range(rounds):
                H = _majorant(G, pivoted)
                moved = H is not None and _lll(H, G, B)
                if moved or r == 0:
                    yield [G[j][j] for j in range(n)], [col[:] for col in B]
                if not moved:
                    break
        except (ArithmeticError, ValueError):
            continue

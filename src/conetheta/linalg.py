"""Dense complex/real matrix arithmetic: symmetry checks, signatures and
the branch-controlled square root of a determinant.

All inputs are small (n <= 8) IEEE double matrices.  Values are treated as
immutable; every function is pure.
"""

from __future__ import annotations

import cmath

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
    eig = np.linalg.eigvalsh(A)
    scale = float(np.max(np.abs(eig))) if eig.size else 0.0
    if scale == 0.0 or np.min(np.abs(eig)) <= TOL_DEGENERATE * scale:
        raise DegenerateForm("eigenvalue within %g of zero" % TOL_DEGENERATE)
    neg = int(np.sum(eig < 0))
    return neg, A.shape[0] - neg


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

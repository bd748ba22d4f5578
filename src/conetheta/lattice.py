"""Integer lattice machinery: the rank-2n lattice with its reference
splitting, symplectic/theta-subgroup membership, split bases for an
indefinite form, and enumeration of positive cones and wedge regions.

Conventions.  A lattice vector is a 2n integer column (v-part, m-part):
the first n coordinates multiply the period matrix, the last n are plain
integer translations.  A split basis is stored as two n x n integer
matrices N and M whose columns are the basis vectors of the two halves,
tied by tN @ M = I.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    NonPositiveRestriction,
    NotFound,
    NotGamma12,
    NotSymplectic,
    ShapeMismatch,
    SignatureMismatch,
    SingularMatrix,
    ValidationError,
)
from .intmat import (
    as_int_matrix,
    exact,
    is_primitive_columns,
    to_int64,
    unimodular_completion,
    unimodular_inverse,
)
from .linalg import as_real_symmetric, as_square_real, reduced_bases, signature

_POS_EIG_TOL = 1e-10


def _is_positive_on(Q: np.ndarray, B: np.ndarray) -> bool | np.ndarray:
    """True iff the form Q is positive definite on the columns of B.  For a
    stack B of shape (P, n, j), a boolean array with one entry per item.

    A single B is decided as a stack of one, so that each item of a stack
    gets the same Gram matrix, the same eigenvalues and the same answer as
    it would alone.  A 1 x 1 Gram matrix is its own eigenvalue (eigvalsh
    returns the entry bit for bit), so a stack of width 1 skips eigvalsh."""
    if B.ndim == 2:
        return bool(_is_positive_on(Q, B[None])[0])
    if B.shape[2] == 0:
        return np.ones(len(B), dtype=bool)
    Bf = B.astype(float)
    A = Bf.transpose(0, 2, 1) @ Q @ Bf
    A = (A + A.transpose(0, 2, 1)) / 2
    eig = A[:, 0] if B.shape[2] == 1 else np.linalg.eigvalsh(A)
    return eig[:, 0] > _POS_EIG_TOL * np.maximum(1.0, np.abs(eig).max(axis=1))


def _max_abs(A: np.ndarray) -> int:
    """max |A| of an int64 array, as a Python int (-(-2**63) would wrap)."""
    return max(-int(A.min(initial=0)), int(A.max(initial=0)))


@dataclass(frozen=True)
class SplitBasis:
    """Basis {N_1..N_n, M_1..M_n} with tN @ M = I and splitting index k."""

    N: np.ndarray
    M: np.ndarray
    k: int

    def __post_init__(self):
        N = as_int_matrix(self.N)
        M = as_int_matrix(self.M)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "M", M)
        n = N.shape[0]
        if N.shape != (n, n) or M.shape != (n, n):
            raise ShapeMismatch("N and M must be square of equal size")
        if not (0 <= self.k <= n):
            raise ShapeMismatch("index k out of range")
        # each entry of tN M sums n products of at most max|N| max|M|, so
        # below 2**62 in all int64 cannot wrap
        size = n * _max_abs(N) * _max_abs(M)
        product = N.T @ M if size < 2**62 else exact(N).T @ exact(M)
        if not np.array_equal(product, np.eye(n, dtype=np.int64)):
            raise ShapeMismatch("tN @ M != I")

    @property
    def n(self) -> int:
        return int(self.N.shape[0])

    def columns_2n(self) -> np.ndarray:
        """The 2n x 2n block-diagonal coordinate matrix (N | M)."""
        n = self.n
        P = np.zeros((2 * n, 2 * n), dtype=np.int64)
        P[:n, :n] = self.N
        P[n:, n:] = self.M
        return P

    def positive_generators(self) -> np.ndarray:
        """Columns N_{k+1}..N_n spanning the positive cone."""
        return self.N[:, self.k:]

    @classmethod
    def identity(cls, n: int, k: int) -> "SplitBasis":
        eye = np.eye(n, dtype=np.int64)
        return cls(eye, eye.copy(), k)


@dataclass(frozen=True)
class ModularElement:
    """Element of Sp(2n, Z) stored as four n x n integer blocks."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        blocks = {}
        shape = None
        for name in "ABCD":
            blk = as_int_matrix(getattr(self, name))
            if shape is None:
                shape = blk.shape
            if blk.shape != shape or blk.shape[0] != blk.shape[1]:
                raise ShapeMismatch("blocks must be square and equally sized")
            blocks[name] = blk
        for name, blk in blocks.items():
            object.__setattr__(self, name, blk)

    @property
    def n(self) -> int:
        return int(self.A.shape[0])

    def matrix(self) -> np.ndarray:
        return np.block([[self.A, self.B], [self.C, self.D]]).astype(np.int64)

    @classmethod
    def from_matrix(cls, M) -> "ModularElement":
        M = as_int_matrix(M)
        if M.shape[0] % 2:
            raise ShapeMismatch("matrix size must be even")
        n = M.shape[0] // 2
        return cls(M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:])

    @classmethod
    def identity(cls, n: int) -> "ModularElement":
        eye = np.eye(n, dtype=np.int64)
        zero = np.zeros((n, n), dtype=np.int64)
        return cls(eye, zero, zero.copy(), eye.copy())

    def __matmul__(self, other: "ModularElement") -> "ModularElement":
        return ModularElement.from_matrix(to_int64(exact(self.matrix()) @ exact(other.matrix())))

    def inverse(self) -> "ModularElement":
        # symplectic inverse: (tD, -tB; -tC, tA); -(-2**63) does not fit int64
        B, C = (to_int64(-exact(X.T)) for X in (self.B, self.C))
        return ModularElement(self.D.T, B, C, self.A.T)

    def is_identity(self) -> bool:
        return np.array_equal(self.matrix(), np.eye(2 * self.n, dtype=np.int64))


def is_symplectic(g: ModularElement) -> bool:
    """Exact check of the three block relations defining Sp(2n, Z)."""
    A, B, C, D = (exact(X) for X in (g.A, g.B, g.C, g.D))
    eye = np.eye(g.n, dtype=np.int64)
    return (
        np.array_equal(A.T @ C, C.T @ A)
        and np.array_equal(B.T @ D, D.T @ B)
        and np.array_equal(A.T @ D - C.T @ B, eye)
    )


def is_gamma12(g: ModularElement) -> bool:
    """Theta-subgroup membership: diag(tA C) and diag(tB D) both even."""
    if not is_symplectic(g):
        raise NotSymplectic("element is not symplectic")
    d1 = np.diag(exact(g.A).T @ exact(g.C))
    d2 = np.diag(exact(g.B).T @ exact(g.D))
    return bool(np.all(d1 % 2 == 0) and np.all(d2 % 2 == 0))


@dataclass(frozen=True)
class ConeSpec:
    """Shifted sublattice cone: points shift + sum_i c_i * gen_i.  The
    sums pick their own truncation radius and pass it to enumerate_cone."""

    generators: np.ndarray  # n x m integer, primitive independent columns
    shift: tuple  # rational n-vector (Fractions)

    def __post_init__(self):
        G = as_int_matrix(self.generators)
        if G.ndim != 2:
            raise ShapeMismatch("generators must form an n x m matrix")
        object.__setattr__(self, "generators", G)
        shift = tuple(Fraction(s) for s in self.shift)
        if len(shift) != G.shape[0]:
            raise ShapeMismatch("shift length does not match ambient dimension")
        object.__setattr__(self, "shift", shift)
        # dependent columns are not primitive either
        if G.shape[1] and not is_primitive_columns(G):
            raise ShapeMismatch("generators are not a primitive sublattice basis")

    @property
    def n(self) -> int:
        return int(self.generators.shape[0])

    @property
    def rank(self) -> int:
        return int(self.generators.shape[1])

    def shift_float(self) -> np.ndarray:
        """The shift in doubles; ValidationError if an entry does not fit one."""
        try:
            return np.array([float(s) for s in self.shift])
        except OverflowError:
            raise ValidationError("cone shift entry beyond the double range") from None

    def with_extra_shift(self, extra) -> "ConeSpec":
        """The same cone shifted by ``extra``; the generators are not checked
        again."""
        extra = tuple(extra)
        if len(extra) != self.n:
            raise ShapeMismatch("shift length does not match ambient dimension")
        new = copy.copy(self)
        object.__setattr__(new, "shift", tuple(a + Fraction(b) for a, b in zip(self.shift, extra)))
        return new

    @classmethod
    def full_lattice(cls, n: int) -> "ConeSpec":
        return cls(np.eye(n, dtype=np.int64), (0,) * n)


def is_split_basis(basis: SplitBasis, Q, k: int) -> bool:
    """True iff Q is negative definite on the first k N-columns and positive
    definite on the last n-k.

    For Q of signature (k, n-k) this is the same as Q positive definite on
    the last n-k N-columns and Q^{-1} on the last n-k M-columns: Q^{-1} on
    the annihilator of U = span(N_1..N_k) is Q on the Q-orthogonal
    complement of U, which is positive definite iff Q is negative definite
    on U.
    """
    Q = as_real_symmetric(Q)
    n = basis.n
    if signature(Q) != (k, n - k):
        raise SignatureMismatch("signature(Q) != (%d, %d)" % (k, n - k))
    return _is_positive_on(-Q, basis.N[:, :k]) and _is_positive_on(Q, basis.N[:, k:])


def _short_vectors(n: int, bound: int) -> np.ndarray:
    """Nonzero integer vectors with sup-norm <= bound and first nonzero entry
    positive, as the rows of an array sorted by (euclidean norm,
    lexicographic coordinates).

    np.indices lists the window in lexicographic order, symmetric about the
    zero vector at its centre, so the rows after the centre are exactly the
    vectors with first nonzero entry positive, in lexicographic order; a
    stable sort of their norms then breaks ties by the coordinates."""
    side = 2 * bound + 1
    v = np.indices((side,) * n).reshape(n, -1).T[side**n // 2 + 1:] - bound
    return v[np.argsort((v * v).sum(axis=1), kind="stable")]


#: largest candidate window (2*bound+1)**n that the box search builds in
#: memory: the default bound 3 fits up to n = 7
MAX_SPLIT_WINDOW = 10**6

#: candidate blocks V that the box search tries before it gives up; at
#: n = 5 the default bound's window has more, so a split basis within the
#: bound can be missed
MAX_SPLIT_CANDIDATES = 200_000


#: completions of one candidate tested per stacked eigvalsh (at n = 6,
#: k = 3 a candidate has 7**9 of them), the largest slice of partial
#: completions _surviving_completions expands at once, and the largest
#: batch of candidate blocks the box search decides at once
_COMPLETION_CHUNK = 4096

#: relative slack of the box search's column screen: a column c whose
#: tc Q c, as computed, is at least this times (1 + |c|^T |Q| |c|) is in
#: no completion that the stacked test passes
_SCREEN_SLACK = 1e-9


def _candidate_blocks(shorts: np.ndarray, Q: np.ndarray, m: int):
    """The candidate blocks V of the box search: the m-subsets of the rows
    of ``shorts`` on which Q is positive, in itertools.combinations order,
    each as an n x m matrix.

    form_values runs over prefixes of ``shorts`` that double from 64 rows,
    only as far as the blocks reach.  It rounds each row on its own, so the
    same rows come out positive as over all of ``shorts``."""
    positives, seen = shorts[:0], 0

    def has(j: int) -> bool:  # is there a positive row j?
        nonlocal positives, seen
        while j >= len(positives) and seen < len(shorts):
            rows = shorts[seen:max(64, 2 * seen)]
            positives = np.concatenate([positives, rows[form_values(rows, Q) > 0]])
            seen += len(rows)
        return j < len(positives)

    idx = list(range(m))
    if not has(m - 1):
        return
    while True:
        yield positives[idx].T
        # the rightmost index that can still move, as itertools.combinations
        for i in range(m - 1, -1, -1):
            if idx[i] + m - i < len(positives) or has(idx[i] + m - i):
                break
        else:
            return
        idx[i:] = range(idx[i] + 1, idx[i] + 1 + m - i)


def _surviving_completions(cols: np.ndarray, ok: np.ndarray, side: int, m: int):
    """The completions C + V X whose every column survives, as stacks
    (P, n, k) of at most _COMPLETION_CHUNK, in itertools.product order of
    the flattened X (the last entry varies fastest).

    cols[c, o] is column c of C + V X when column c of X is the o-th offset
    x in [-bound, bound]^m (lexicographic order), and ok[c, o] says whether
    it survives.  The entries of X are fixed in product order, one digit
    per level, each level keeping only the partial X whose partial columns
    extend to a survivor; a level of more than _COMPLETION_CHUNK is
    expanded a slice at a time, so memory stays bounded."""
    k = ok.shape[0]
    if k == 1:  # X is one column: product order is the order of its offsets
        survivors = np.flatnonzero(ok[0])
        for lo in range(0, len(survivors), _COMPLETION_CHUNK):
            yield cols[0, survivors[lo:lo + _COMPLETION_CHUNK], :, None]
        return
    # extends[r][c, p]: some survivor of column c starts with the r + 1 digits of p
    extends = [ok.reshape(k, side ** (r + 1), side ** (m - r - 1)).any(axis=2) for r in range(m)]
    digits = np.arange(side)

    def expand(states: np.ndarray, p: int):
        # states[:, c]: column c's partial offset, its digits fixed so far
        if p == m * k:
            yield np.ascontiguousarray(cols[np.arange(k), states].transpose(0, 2, 1))
            return
        r, c = divmod(p, k)
        prefix = (states[:, c, None] * side + digits).ravel()
        keep = np.flatnonzero(extends[r][c][prefix])
        states = states[keep // side]
        states[:, c] = prefix[keep]
        for lo in range(0, len(states), _COMPLETION_CHUNK):
            yield from expand(states[lo:lo + _COMPLETION_CHUNK], p + 1)

    yield from expand(np.zeros((1, k), dtype=np.int64), 0)


def _first_completion(Q: np.ndarray, V: np.ndarray, Cbase: np.ndarray, offsets: np.ndarray, bound: int):
    """The first completion C = Cbase + V X of the positive block V, in
    itertools.product order of X, with entries within the bound and Q
    negative definite on its columns; None if there is none.  ``offsets``
    lists the columns x of X in lexicographic order."""
    n, m = V.shape
    k = n - m
    # C + V X is a column operation on (C | V), so |det| stays 1;
    # column c of it is C_c + V x for column x of X
    cols = Cbase.T[:, None, :] + offsets @ V.T
    ok = np.abs(cols).max(axis=2) <= bound
    if k >= 2:
        # the stacked test passes a completion only if its computed Gram
        # matrix -tC Q C is positive definite (eigvalsh's backward error
        # is far below _POS_EIG_TOL), so only if every computed diagonal
        # entry -tc Q c is > 0.  That dot product and q here are each
        # within 2n eps |c|^T |Q| |c| (< 1e-14 of it) of the exact
        # value; a majorant that overflows screens nothing
        f, a = cols.astype(float), np.abs(cols).astype(float)
        q, size = ((f @ Q) * f).sum(axis=2), ((a @ np.abs(Q)) * a).sum(axis=2)
        slack = _SCREEN_SLACK * (1.0 + size)
        ok &= (q < slack) | np.isinf(slack)
        if not ok.any(axis=1).all():  # at k = 1 there is then no chunk
            return None
    for C in _surviving_completions(cols, ok, 2 * bound + 1, m):
        passed = _is_positive_on(-Q, C)
        if passed.any():
            return C[np.argmax(passed)]
    return None


def find_split_basis(Q, k: int, bound: int = 3) -> SplitBasis:
    """A split basis with N-entries bounded by ``bound``.

    A split basis has Q negative definite on N_1..N_k and positive definite
    on N_{k+1}..N_n (see is_split_basis); M = tN^{-1} is derived from N.
    The reference basis is tried first, then the indefinite reduction
    (_reduced_basis), whose N is taken when its entries are within the
    bound and it passes the same two positivity tests.  Otherwise the box
    search runs (_box_split_basis), and raises NotFound when it finds
    nothing; it is exhaustive up to the bound and the first
    MAX_SPLIT_CANDIDATES candidate blocks, so this is evidence but not
    proof of nonexistence.  A box whose window has more than
    MAX_SPLIT_WINDOW vectors is a ValidationError.
    """
    Q = as_real_symmetric(Q)
    n = Q.shape[0]
    if signature(Q) != (k, n - k):
        raise SignatureMismatch("signature(Q) != (%d, %d)" % (k, n - k))
    if bound < 1:
        raise NotFound("empty search space (bound < 1)")
    # is_split_basis for the reference basis, with the signature checked above
    eye = np.eye(n, dtype=np.int64)
    if _is_positive_on(-Q, eye[:, :k]) and _is_positive_on(Q, eye[:, k:]):
        return SplitBasis.identity(n, k)
    N = _reduced_basis(Q, k, bound)
    if N is not None:
        return _split_basis(N, k)
    return _box_split_basis(Q, k, bound)


def _split_basis(N: np.ndarray, k: int) -> SplitBasis:
    """SplitBasis(N, tN^{-1}, k) for a unimodular N.  M is the rounded
    float inverse when SplitBasis's exact check tN M = I accepts it, and
    unimodular_inverse(N).T otherwise (a float inverse of an N with large
    entries can be wrong)."""
    try:
        M = np.rint(np.linalg.inv(N)).T
        if np.abs(M).max(initial=0.0) < 2.0**62:
            return SplitBasis(N, M.astype(np.int64), k)
    except (np.linalg.LinAlgError, ShapeMismatch):
        pass
    return SplitBasis(N, unimodular_inverse(N).T, k)


# ---------------------------------------------------------------------------
# split bases by indefinite lattice reduction

def _reduced_basis(Q: np.ndarray, k: int, bound: int) -> np.ndarray | None:
    """A split basis's N from the indefinite LLL reduction of Q
    (linalg.reduced_bases), or None when it gives none within the bound.

    Each basis the reduction passes through, its columns ordered by tb Q b
    (most negative first), is taken as N when its entries are within the
    bound (and fit int64) and it passes the tests of is_split_basis."""
    for norms, B in reduced_bases(Q):
        B = [B[j] for j in sorted(range(len(B)), key=norms.__getitem__)]
        top = max(abs(x) for col in B for x in col)
        if top <= bound and top < 2**62:
            N = np.array(B, dtype=np.int64).T.copy()
            if _is_positive_on(-Q, N[:, :k]) and _is_positive_on(Q, N[:, k:]):
                return N
    return None


# ---------------------------------------------------------------------------
# split bases by exhaustive search in a box

def _box_split_basis(Q: np.ndarray, k: int, bound: int) -> SplitBasis:
    """find_split_basis's exhaustive fallback, on a symmetric Q of
    signature (k, n-k) and a bound >= 1.

    Strategy: take n-k candidate positive columns V from short vectors
    (ordered by norm, then coordinates), in itertools.combinations order,
    complete them to a unimodular matrix (C | V) when they span a primitive
    sublattice, then add integer multiples V X of V to C.  The first
    completion C + V X with entries bounded by ``bound`` on which Q is
    negative definite, in itertools.product order of X, wins: the same
    basis as trying them one at a time.

    Only the work that can decide that answer is done.  The short vectors
    are tested for Q > 0 only as far as the candidate blocks reach.  The
    blocks themselves are tested for Q > 0 in batches that double from 1
    up to _COMPLETION_CHUNK, one stacked eigvalsh each (each block gets
    the answer it gets alone), and the positive ones are tried in order,
    so a search won by its first block tests only that one.  A tried
    block is completed by one exact reduction.  Each column of C + V X is
    screened once over its (2*bound+1)**(n-k) offsets: it must be within
    the bound and, for k >= 2, have tc Q c < 0 up to a slack that covers
    the rounding of both computations (at k = 1 the screen would be the
    test itself).  Only the completions whose every column survives are
    tested, one stacked eigvalsh per chunk (none at k = 1, where each
    Gram matrix is 1 x 1), and a candidate with a column that has no
    survivor is skipped.

    Failure raises NotFound, whose message says when the cap of
    MAX_SPLIT_CANDIDATES blocks ended the search.  A bound whose window
    has more than MAX_SPLIT_WINDOW vectors is a ValidationError.
    """
    n = Q.shape[0]
    side = 2 * bound + 1
    if side**n > MAX_SPLIT_WINDOW:
        raise ValidationError(
            "bound %d: the search window (2*bound+1)**%d exceeds %d vectors"
            % (bound, n, MAX_SPLIT_WINDOW)
        )
    m = n - k
    shorts = _short_vectors(n, bound)
    # the columns x of X, in lexicographic order
    offsets = np.indices((side,) * m).reshape(m, side**m).T - bound
    blocks = itertools.islice(_candidate_blocks(shorts, Q, m), MAX_SPLIT_CANDIDATES)
    size = 1
    while batch := list(itertools.islice(blocks, size)):
        size = min(2 * size, _COMPLETION_CHUNK)
        # a positive V has independent columns
        for V in itertools.compress(batch, _is_positive_on(Q, np.array(batch))):
            try:
                Cbase = unimodular_completion(V)
            except SingularMatrix:  # V is not primitive
                continue
            C = _first_completion(Q, V, Cbase, offsets, bound)
            if C is not None:
                return _split_basis(np.column_stack([C, V]), k)
    message = "no split basis with entries bounded by %d" % bound
    positives = int(np.count_nonzero(form_values(shorts, Q) > 0))
    if math.comb(positives, m) > MAX_SPLIT_CANDIDATES:
        message += " among the first %d candidate blocks (search capped)" % MAX_SPLIT_CANDIDATES
    raise NotFound(message)


def form_values(K: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """tK Q K for every row of a (points, n) array K (Q real or complex).

    Elementwise operations in a fixed order, so each row's value is rounded
    the same way whatever the other rows are: a point keeps its norm, and
    so its place in the enumeration order, when the radius grows.
    """
    KQ = K[:, :1] * Q[0]
    for i in range(1, K.shape[1]):
        KQ = KQ + K[:, i:i + 1] * Q[i]
    out = KQ[:, 0] * K[:, 0]
    for j in range(1, K.shape[1]):
        out = out + KQ[:, j] * K[:, j]
    return out


class ConeForm:
    """A cone together with the form Q restricted to it, factored once.

    Holds the float generators G and shift s, the coefficient Gram matrix
    A = tG Q G with its smallest eigenvalue ``lam`` (one eigvalsh, which
    also checks that Q is positive definite on the cone span) and its upper
    triangular Cholesky factor R (A = tR R), the minimiser ``c_star`` of the
    form on s + span(G), its minimum ``q_min`` and t_s = sqrt(ts Q s).
    enumerate_cone and theta.tail_bound read these at any radius.  A cone of
    rank 0 has no factor.  A zero shift has c* = 0 and q_min = t_s = 0, with
    nothing to solve.  While trunc(c*) != 0, the shift is moved by the
    lattice vector G trunc(c*) in exact rationals, so that a large integer
    part does not round away the low bits of float(s) + G c; the points stay
    the same.  Raises NonPositiveRestriction when Q is not positive definite
    on the span, and ValidationError when q_min or t_s is not finite (a
    shift too large for the form).

    The form also keeps, for as long as it lives, what the sums over it
    compute from Q alone: its largest enumeration so far with the norms
    (``points`` serves every smaller radius from it), and ``radii``, the
    truncation radii theta's cone sums solve, keyed by Im Z and their
    tolerances (a radius depends on nothing else; theta caps how many are
    kept).
    """

    def __init__(self, cone: ConeSpec, Q):
        # Q must be exactly symmetric; the sums pass Im of an omega that
        # check_symmetric has symmetrised, so it is not mirrored again
        Q = as_square_real(Q)
        if Q.shape[0] != cone.n:
            raise ShapeMismatch("form and cone dimensions differ")
        self.Q = Q
        self.radius, self.kept, self.radii = -math.inf, None, {}
        self.rank = m = cone.rank
        self.G = G = cone.generators.astype(float)
        A = None
        if m:
            A = G.T @ Q @ G
            A = (A + A.T) / 2
            eig = np.linalg.eigvalsh(A).tolist()
            if eig[0] <= _POS_EIG_TOL * max(1.0, max(map(abs, eig))):
                raise NonPositiveRestriction("form is not positive definite on the cone span")
            self.lam = eig[0]
            self.R = np.linalg.cholesky(A).T
        if not any(cone.shift):
            # c* = 0 and q_min = t_s = 0: nothing to solve, nothing to move
            self.shift, self.c_star, self.q_min, self.t_s = np.zeros(cone.n), np.zeros(m), 0.0, 0.0
            return
        self._place(cone.shift_float(), A)
        # c* inherits the rounding error of float(s), so a huge shift needs
        # more than one move; each move shrinks c* by a factor near 2**-52
        moved, last = cone, math.inf
        while m:
            c_star = self.c_star.tolist()
            if not all(map(math.isfinite, c_star)):
                break
            t = [int(c) for c in c_star]  # truncated toward zero
            size = max(map(abs, t))
            if size == 0 or size >= last:
                break
            last = size
            moved = moved.with_extra_shift(exact(cone.generators) @ np.array(t, dtype=object))
            self._place(moved.shift_float(), A)
        if not (math.isfinite(self.q_min) and math.isfinite(self.t_s)):
            raise ValidationError("cone shift too large: its norm under the form is not finite")

    def _place(self, s: np.ndarray, A: np.ndarray | None) -> None:
        """shift, c_star, q_min and t_s for the float shift s (A, lam and R
        do not depend on it)."""
        Q, G = self.Q, self.G
        self.shift = s
        sQs = float(s @ Q @ s)
        self.q_min = sQs
        if A is not None:
            b = G.T @ Q @ s
            self.c_star = np.linalg.solve(A, -b)
            self.q_min = float(sQs + b @ self.c_star)
        self.t_s = math.sqrt(max(sQs, 0.0)) if np.any(s) else 0.0

    def points(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(points, norms) of enumerate_cone at this radius, for a cone of
        rank >= 1.  The points of the largest enumeration come sorted by
        norm, ties in the enumeration's own order, which does not depend on
        the radius; so those of a smaller radius r are its prefix with
        tK Q K <= r**2: the same floats in the same order as an enumeration
        at r.  A larger radius drops the kept enumeration and then
        enumerates once."""
        r2 = radius**2
        if r2 < self.q_min - 1e-12:  # enumerate_cone's empty case
            return np.empty((0, len(self.shift))), np.empty(0)
        if radius > self.radius:
            self.radius, self.kept = -math.inf, None  # freed before the larger one is built
            self.radius, self.kept = radius, _enumerate(self, radius)
            return self.kept
        K, norms = self.kept
        count = int(np.searchsorted(norms, r2, side="right"))
        return K[:count], norms[:count]


#: relative widening of the enumeration budget, so that rounding in the
#: Cholesky recursion never drops a point the final norm test keeps
_BUDGET_SLACK = 1e-9


def enumerate_cone(form: ConeForm, radius: float) -> np.ndarray:
    """All points K = shift + sum c_i gen_i of the factored cone with
    tK Q K <= radius**2, as the rows of a (points, n) array sorted by
    tK Q K.  Points of equal norm keep the order the enumeration makes them
    in, lexicographic in (c_m, .., c_1), the same at every radius; no sum
    reads it, as complex_fsum does not depend on the order of the terms.
    A cone of rank 0 gives its shift.

    Fincke-Pohst enumeration (Math. Comp. 44, 1985): with A = tR R and c*
    from the form, tK Q K = q_min + sum_i (R (c - c*))_i**2.  Coefficients
    are fixed from the last to the first; at each level every partial
    vector gets the integer interval its remaining budget allows, all
    partial vectors of a level in one batch (the last coefficient's single
    interval in Python floats).  The norm is then recomputed
    from K (form_values) and compared with radius**2, so the kept set does
    not depend on the recursion's rounding.
    """
    if form.rank == 0:
        return form.shift[None, :]
    return _enumerate(form, radius)[0]


def _enumerate(form: ConeForm, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """enumerate_cone for a cone of rank >= 1, with the norms tK Q K of its
    points (form_values, in the same order).  A stable sort of the norms
    alone orders them: the prefix property needs nothing more."""
    s, m, n = form.shift, form.rank, len(form.shift)
    r2 = radius**2
    if r2 < form.q_min - 1e-12:
        return np.empty((0, n)), np.empty(0)
    R, c_star = form.R, form.c_star
    budget = max(r2 - form.q_min, 0.0) + _BUDGET_SLACK * max(1.0, r2)
    # the last coefficient, alone on its level: one interval, in Python
    # floats (the same IEEE operations as the batched levels below)
    center, width = c_star[-1].item(), math.sqrt(budget) / R[-1, -1]
    lo, hi = math.ceil(center - width), math.floor(center + width)
    coeffs = np.zeros((max(hi - lo + 1, 0), m))  # partial vectors; the columns past a level are fixed
    coeffs[:, -1] = np.arange(lo, hi + 1, dtype=float)
    used = (R[-1, -1] * (coeffs[:, -1] - c_star[-1])) ** 2  # budget spent by the fixed coordinates
    for i in range(m - 2, -1, -1):
        offset = (coeffs[:, i + 1:] - c_star[i + 1:]) @ R[i, i + 1:]
        center = c_star[i] - offset / R[i, i]
        width = np.sqrt(np.maximum(budget - used, 0.0)) / R[i, i]
        lo = np.ceil(center - width)
        counts = np.maximum(np.floor(center + width) - lo + 1, 0).astype(np.int64)
        parent = np.repeat(np.arange(len(counts)), counts)
        # the j-th child of a parent gets lo + j: lo less the children before it, plus its index
        first = (lo - (np.cumsum(counts) - counts))[parent]
        coeffs = coeffs.take(parent, axis=0)  # the rows of coeffs[parent], gathered faster
        coeffs[:, i] = first + np.arange(len(parent))
        if i:  # the first coefficient leaves no budget to track
            used = used[parent] + (R[i, i] * (coeffs[:, i] - c_star[i]) + offset[parent]) ** 2
    K = s + coeffs @ form.G.T
    norm = form_values(K, form.Q)
    keep = norm <= r2
    if not keep.all():
        K, norm = K[keep], norm[keep]
    order = np.argsort(norm, kind="stable")
    return K.take(order, axis=0), norm[order]


def wedge_cones(basis: SplitBasis) -> tuple[ConeSpec, ConeSpec]:
    """The wedge's unshifted plain cone N_{k+1}..N_n (k = basis.k) and its
    image under the shear N_{k+1} -> N_{k+1} - N_k; ShapeMismatch unless 0 < k < n."""
    k, n = basis.k, basis.n
    if not (1 <= k <= n - 1):
        raise ShapeMismatch("unipotent index out of range")
    plain = basis.N[:, k:]
    sheared = plain.copy()
    sheared[:, 0] = to_int64(exact(plain[:, 0]) - exact(basis.N[:, k - 1]))
    return ConeSpec(plain, (0,) * n), ConeSpec(sheared, (0,) * n)


def enumerate_wedge(basis: SplitBasis, forms, radius: float) -> np.ndarray:
    """The wedge points K = t N_k + sum_i c_i N_{k+1+i}, k = basis.k, whose
    c = (tM K)[k:] lies in either ellipsoid of the given radius of ``forms``
    (the factored wedge_cones), as the rows of a (points, n) integer array.

    The sheared family covers t >= -c_0 and the plain family t >= 0, so the
    net sign is [t >= -c_0] - [t >= 0] = sign(c_0) = sign(tK M_{k+1}) on
    the |c_0| points -c_0 <= t <= -1 (c_0 >= 1) or 0 <= t <= -c_0 - 1
    (c_0 <= -1), which are generated in closed form.
    """
    k, plain = basis.k, forms[0]
    c_plain, c_sheared = (np.rint(enumerate_cone(f, radius) @ basis.M[:, k:]) for f in forms)
    # the sheared c outside the plain ellipsoid, by enumerate_cone's own norm test
    c_sheared = c_sheared[form_values(c_sheared @ plain.G.T, plain.Q) > radius**2]
    c = np.vstack([c_plain, c_sheared]).astype(np.int64)
    counts = np.abs(c[:, 0])  # |c_0| values of t per coefficient vector
    parent = np.repeat(np.arange(len(c)), counts)
    step = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
    c = c[parent]
    t = np.where(c[:, 0] > 0, -c[:, 0], 0) + step
    return np.outer(t, basis.N[:, k - 1]) + c @ basis.N[:, k:].T


def transform_basis(g: ModularElement, basis: SplitBasis) -> tuple[np.ndarray, np.ndarray]:
    """Apply g to the basis.

    Returns (columns, S): ``columns`` is the 2n x 2n integer matrix whose
    first n columns are the transformed N-vectors and last n the transformed
    M-vectors (in reference coordinates; the result need not respect the
    splitting), and S is the change-of-basis element of Sp(2n, Z) relating
    the two resolutions, S = P^{-1} tg P with P = diag(N, M).

    In blocks, tg^{-1} = (D, -C; -B, A), and P^{-1} = diag(tM, tN) because
    tN M = I.  Both products are exact; an entry beyond int64 is a
    ValidationError.
    """
    if not is_gamma12(g):
        raise NotGamma12("element is not in the theta subgroup")
    A, B, C, D = (exact(X) for X in (g.A, g.B, g.C, g.D))
    N, M = exact(basis.N), exact(basis.M)
    columns = np.block([[D @ N, -C @ M], [-B @ N, A @ M]])
    S = np.block([[M.T @ A.T @ N, M.T @ C.T @ M], [N.T @ B.T @ N, N.T @ D.T @ M]])
    return to_int64(columns), to_int64(S)


# ---------------------------------------------------------------------------
# generators of the theta subgroup, used by the randomised suites

def gamma12_generators(n: int) -> list[ModularElement]:
    gens = []
    eye = np.eye(n, dtype=np.int64)
    zero = np.zeros((n, n), dtype=np.int64)
    J = ModularElement(zero, -eye, eye.copy(), zero.copy())
    gens.append(J)
    # upper/lower unipotents with even diagonal
    for i in range(n):
        B = np.zeros((n, n), dtype=np.int64)
        B[i, i] = 2
        gens.append(ModularElement(eye, B, zero, eye.copy()))
        gens.append(ModularElement(eye, zero, B.copy(), eye.copy()))
    for i in range(n):
        for j in range(i + 1, n):
            B = np.zeros((n, n), dtype=np.int64)
            B[i, j] = B[j, i] = 1
            gens.append(ModularElement(eye, B, zero, eye.copy()))
            gens.append(ModularElement(eye, zero, B.copy(), eye.copy()))
    # GL_n block-diagonal elements
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            A = eye.copy()
            A[i, j] = 1
            gens.append(ModularElement(A.T, zero, zero, unimodular_inverse(A)))
    return gens


def random_gamma12(n: int, rng, length: int = 3) -> ModularElement:
    """Random word in the theta-subgroup generators and their inverses."""
    gens = gamma12_generators(n)
    g = ModularElement.identity(n)
    for _ in range(length):
        h = rng.choice(gens)
        if rng.next_int(0, 1):
            h = h.inverse()
        g = g @ h
    return g

"""Exact group-ring algebra over the rank-2n integer lattice: Koszul
differentials, telescoping decompositions x - 1 = sum_j R_j (x'_j - 1),
and the induced chain map between the resolutions of two bases.

Coefficients are Python ints (arbitrary precision); a group-ring element
is a finite map from exponent vectors to nonzero integers.  All operations
are exact; ring operations skip the public constructor's validation.  A
ChainMap checks and decomposes its basis change once, for any number of
chains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSymplectic, ShapeMismatch
from .intmat import as_int_matrix, unimodular_inverse
from .lattice import ModularElement, is_symplectic


class GroupRingElement:
    """Finite integer combination of lattice elements, stored sparsely as
    {exponent tuple: coefficient}.  Immutable by convention."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict | None = None):
        self.rank = rank
        clean = {}
        if terms:
            for exp, coef in terms.items():
                if coef == 0:
                    continue
                if len(exp) != rank:
                    raise ShapeMismatch("exponent length != rank")
                clean[tuple(int(e) for e in exp)] = int(coef)
        self.terms = clean

    @classmethod
    def _of(cls, rank: int, terms: dict) -> "GroupRingElement":
        """Element from int-tuple exponents of length rank; drops zeros only."""
        self = object.__new__(cls)
        self.rank = rank
        self.terms = {e: c for e, c in terms.items() if c}
        return self

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, rank: int) -> "GroupRingElement":
        return cls._of(rank, {})

    @classmethod
    def one(cls, rank: int) -> "GroupRingElement":
        return cls._of(rank, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, exp, coef: int = 1) -> "GroupRingElement":
        exp = tuple(int(e) for e in exp)
        return cls(len(exp), {exp: coef})

    # -- ring structure ----------------------------------------------------
    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if other.rank != self.rank:
            raise ShapeMismatch("group-ring elements of different rank")
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, 0) + coef
        return GroupRingElement._of(self.rank, out)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement._of(self.rank, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        """Convolution product; exponent vectors add."""
        if other.rank != self.rank:
            raise ShapeMismatch("group-ring elements of different rank")
        out: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return GroupRingElement._of(self.rank, out)

    def scale(self, c: int) -> "GroupRingElement":
        c = int(c)
        return GroupRingElement._of(self.rank, {e: c * v for e, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def augmentation(self) -> int:
        """Image under the map sending every lattice monomial to 1."""
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "GR(0)"
        bits = ["%+d*x^%r" % (c, list(e)) for e, c in sorted(self.terms.items())]
        return "GR(" + " ".join(bits) + ")"


def x_minus_one(rank: int, exp) -> GroupRingElement:
    return GroupRingElement(rank, {tuple(int(e) for e in exp): 1, (0,) * rank: -1})


def telescope_decompose(exp, basis_order=None) -> list[GroupRingElement]:
    """Coefficients R_j with x - 1 = sum_j R_j (x'_j - 1) for the monomial x
    with the given exponent vector, peeling factors in ``basis_order``
    (default: ascending index).  R_j = x^prefix (x'_j^e - 1) / (x'_j - 1),
    with x^prefix the factors peeled before j, written out term by term:
    +x^(prefix + p e_j) for p in range(e), or -x^(prefix + p e_j) for p in
    range(e, 0)."""
    exp = [int(e) for e in exp]
    rank = len(exp)
    order = list(basis_order) if basis_order is not None else list(range(rank))
    if sorted(order) != list(range(rank)):
        raise ShapeMismatch("basis_order must be a permutation of 0..rank-1")
    out = [GroupRingElement.zero(rank) for _ in range(rank)]
    prefix = [0] * rank  # exponent of the factors peeled so far; prefix[j] = 0 here
    for j in order:
        e = exp[j]
        if e:
            powers, sign = (range(e), 1) if e > 0 else (range(e, 0), -1)
            terms = {}
            for p in powers:
                prefix[j] = p
                terms[tuple(prefix)] = sign
            out[j] = GroupRingElement._of(rank, terms)
            prefix[j] = e
    return out


@dataclass(frozen=True)
class KoszulChain:
    """Element of Z[lattice] tensor wedge^p W: map from strictly increasing
    index tuples (0-based, into the 2n wedge generators) to coefficients."""

    rank: int
    degree: int
    components: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for subset, coef in self.components.items():
            subset = tuple(int(i) for i in subset)
            if len(subset) != self.degree or list(subset) != sorted(set(subset)):
                raise ShapeMismatch("subsets must be strictly increasing of the degree")
            if any(i < 0 or i >= self.rank for i in subset):
                raise ShapeMismatch("wedge index out of range")
            if not coef.is_zero():
                clean[subset] = coef
        object.__setattr__(self, "components", clean)

    @classmethod
    def generator(cls, rank: int, subset) -> "KoszulChain":
        subset = tuple(int(i) for i in subset)
        return cls(rank, len(subset), {subset: GroupRingElement.one(rank)})

    def __add__(self, other: "KoszulChain") -> "KoszulChain":
        if (self.rank, self.degree) != (other.rank, other.degree):
            raise ShapeMismatch("chain shapes differ")
        out = dict(self.components)
        for subset, coef in other.components.items():
            out[subset] = out.get(subset, GroupRingElement.zero(self.rank)) + coef
        return KoszulChain(self.rank, self.degree, out)

    def __sub__(self, other: "KoszulChain") -> "KoszulChain":
        neg = {s: -c for s, c in other.components.items()}
        return self + KoszulChain(other.rank, other.degree, neg)

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KoszulChain)
            and self.rank == other.rank
            and self.degree == other.degree
            and self.components == other.components
        )


def _basis_exponent(basis: np.ndarray | None, rank: int, index: int):
    if basis is None:
        exp = [0] * rank
        exp[index] = 1
        return tuple(exp)
    return tuple(int(x) for x in basis[:, index])


def koszul_d(chain: KoszulChain, basis=None) -> KoszulChain:
    """Koszul differential d(a (x) w_{p_1}..w_{p_k}) =
    sum_i (-1)^{i+1} a (x_{p_i} - 1) (x) w_{p_1}..^w_{p_i}..w_{p_k}.

    ``basis``: optional 2n x 2n integer matrix whose column p is the exponent
    vector of the generator x_p (default: reference basis).
    """
    if chain.degree < 1:
        raise ShapeMismatch("differential needs degree >= 1")
    if basis is not None:
        basis = as_int_matrix(basis)
    rank = chain.rank
    out: dict[tuple, GroupRingElement] = {}
    for subset, coef in chain.components.items():
        for pos, p in enumerate(subset):
            sign = -1 if pos % 2 else 1
            rest = subset[:pos] + subset[pos + 1 :]
            factor = x_minus_one(rank, _basis_exponent(basis, rank, p))
            term = (coef * factor).scale(sign)
            out[rest] = out.get(rest, GroupRingElement.zero(rank)) + term
    return KoszulChain(rank, chain.degree - 1, out)


def gr_det(mat: list[list[GroupRingElement]], rank: int) -> GroupRingElement:
    """Determinant over the group ring by cofactor expansion (sizes <= 4)."""
    size = len(mat)
    if size == 0:
        return GroupRingElement.one(rank)
    if size == 1:
        return mat[0][0]
    out = GroupRingElement.zero(rank)
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * gr_det(minor, rank)
        out = out + (term if j % 2 == 0 else -term)
    return out


class ChainMap:
    """Chain map s_* between the Koszul resolutions of the reference basis
    and the basis changed by x_i = prod_j (x'_j)^{S_ji}:

        1 (x) w_{p_1}..w_{p_k}  |->  sum over increasing {t_1<..<t_k} of
        det(R_{p_i t_j}) (x) w_{t_1}..w_{t_k},

    where row i of R is telescope_decompose of column i of S in the given
    peeling order.  The constructor checks once that S is symplectic
    (NotSymplectic otherwise) and decomposes each column once; a call only
    expands the determinants, whose alternating structure carries the sign.
    Any peeling order yields a chain map; the orders differ by a chain
    homotopy.
    """

    def __init__(self, S, basis_order=None):
        S = as_int_matrix(S)
        if not is_symplectic(ModularElement.from_matrix(S)):
            raise NotSymplectic("basis-change matrix is not symplectic")
        self.rank = rank = S.shape[0]
        self.rows = [telescope_decompose(S[:, i], basis_order) for i in range(rank)]

    def __call__(self, chain: KoszulChain) -> KoszulChain:
        rank = self.rank
        if chain.rank != rank:
            raise ShapeMismatch("matrix size does not match chain rank")
        rows = self.rows
        out: dict[tuple, GroupRingElement] = {}
        for subset, coef in chain.components.items():
            for target in itertools.combinations(range(rank), len(subset)):
                det = gr_det([[rows[p][t] for t in target] for p in subset], rank)
                if det.is_zero():
                    continue
                term = coef * det
                out[target] = out.get(target, GroupRingElement.zero(rank)) + term
        return KoszulChain(rank, chain.degree, out)


def s_star(S, chain: KoszulChain, basis_order=None) -> KoszulChain:
    """Image of ``chain`` under the chain map of the basis change S (see
    ChainMap); builds the map for this one call."""
    return ChainMap(S, basis_order)(chain)


def verify_chain_map(S, n: int, maxdeg: int, basis_order=None) -> bool:
    """Exact check of s_* o d = d' o s_* on every generator 1 (x) w_subset of
    degree <= maxdeg, where d uses the transformed basis exponents (columns
    of S) and d' the reference basis, with one ChainMap for all of them."""
    S = as_int_matrix(S)
    rank = 2 * n
    if S.shape != (rank, rank):
        raise ShapeMismatch("matrix must be 2n x 2n")
    s_map = ChainMap(S, basis_order)
    for deg in range(1, maxdeg + 1):
        for subset in itertools.combinations(range(rank), deg):
            gen = KoszulChain.generator(rank, subset)
            lhs = s_map(koszul_d(gen, basis=S))
            rhs = koszul_d(s_map(gen), basis=None)
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# the five structural basis-change types, used by the randomised suites

def _block_diag_symplectic(A) -> np.ndarray:
    A = as_int_matrix(A)
    n = A.shape[0]
    S = np.zeros((2 * n, 2 * n), dtype=np.int64)
    S[:n, :n] = A
    S[n:, n:] = unimodular_inverse(A).T
    return S


def type_Ia(A) -> np.ndarray:
    """Block-diagonal change fixing the first k basis vectors: A must have an
    identity top-left k x k block."""
    return _block_diag_symplectic(A)


def type_Ib(n: int, k: int) -> np.ndarray:
    """Unit shear adding generator k to generator k-1 (1-based), acting
    inside the first half."""
    A = np.eye(n, dtype=np.int64)
    if k >= 2:
        A[k - 2, k - 1] = 1
    return _block_diag_symplectic(A)


def type_Ic(n: int, k: int) -> np.ndarray:
    """Unit shear adding generator k+1 to generator k (1-based)."""
    A = np.eye(n, dtype=np.int64)
    A[k - 1, k] = 1
    return _block_diag_symplectic(A)


def type_II(B) -> np.ndarray:
    """Lower unipotent (I, 0; B, I) with B symmetric."""
    B = as_int_matrix(B)
    n = B.shape[0]
    if not np.array_equal(B, B.T):
        raise NotSymplectic("type II requires a symmetric block")
    S = np.eye(2 * n, dtype=np.int64)
    S[n:, :n] = B
    return S


def type_III(n: int) -> np.ndarray:
    """The interchange (0, I; -I, 0)."""
    S = np.zeros((2 * n, 2 * n), dtype=np.int64)
    S[:n, n:] = np.eye(n, dtype=np.int64)
    S[n:, :n] = -np.eye(n, dtype=np.int64)
    return S


def random_Ia_block(n: int, k: int, rng) -> np.ndarray:
    """Random n x n block for type_Ia: identity k x k top-left block and a
    unit lower-triangular completion with entries in [-2, 2], drawn row by
    row."""
    A = np.eye(n, dtype=np.int64)
    for i in range(k, n):
        for j in range(i):
            A[i, j] = rng.next_int(-2, 2)
    return A


def random_type_word(n: int, k: int, length: int, rng) -> np.ndarray:
    """Product of random type Ia/Ib/Ic/II/III matrices."""
    S = np.eye(2 * n, dtype=np.int64)
    for _ in range(length):
        which = rng.next_int(0, 4)
        if which == 0:
            step = type_Ia(random_Ia_block(n, k, rng))
        elif which == 1:
            step = type_Ib(n, max(k, 2))
        elif which == 2:
            step = type_Ic(n, min(k, n - 1) or 1)
        elif which == 3:
            B = np.zeros((n, n), dtype=np.int64)
            for i in range(n):
                for j in range(i, n):
                    B[i, j] = B[j, i] = rng.next_int(-2, 2)
            step = type_II(B)
        else:
            step = type_III(n)
        S = S @ step
    return S

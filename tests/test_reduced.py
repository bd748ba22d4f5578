import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conetheta.errors import WindowOverflow, WindowTooSmall
from conetheta.reduced import (
    CoefficientArray,
    _differential_rows,
    _sparse_rank,
    cohomology_ranks,
    component_dimension,
    partial_sum_preimage,
    shift_delta,
    shift_difference_matrix,
    shift_injectivity_deficit,
)
from conetheta.rng import SplitMix64


def arr(k, w, values):
    return CoefficientArray(k, w, values)


def test_shift_delta_zero():
    assert shift_delta(arr(1, 5, {}), 1).is_zero()


def test_shift_delta_indicator():
    out = shift_delta(arr(1, 5, {(0,): 1}), 1)
    assert out.values == {(1,): 1, (0,): -1}


def test_shift_delta_second_difference():
    a = arr(1, 6, {(0,): 2, (1,): -1})
    twice = shift_delta(shift_delta(a, 1), 1)
    expected = {}
    for pt in range(-1, 5):
        val = a((pt - 2,)) - 2 * a((pt - 1,)) + a((pt,))
        if val:
            expected[(pt,)] = val
    assert twice.values == expected


def test_shift_delta_top_edge_rejected():
    with pytest.raises(WindowOverflow):
        shift_delta(arr(1, 3, {(3,): 1}), 1)


def test_preimage_zero():
    assert partial_sum_preimage(arr(1, 5, {}), 1).is_zero()


def test_preimage_indicator():
    b = partial_sum_preimage(arr(1, 5, {(0,): 1}), 1)
    assert b.values == {(t,): -1 for t in range(0, 6)}
    # delta of b reproduces the indicator inside the window: for K >= -4 the
    # needed inputs are stored (or provably zero), so check directly
    for K in range(-5, 6):
        left = b((K - 1,)) if K - 1 >= -5 else 0
        assert left - b((K,)) == (1 if K == 0 else 0)


def test_preimage_linearity():
    rng = SplitMix64(4)
    for _ in range(50):
        v1 = {(rng.next_int(-3, 3), rng.next_int(-3, 3)): rng.next_int(-2, 2) for _ in range(4)}
        v2 = {(rng.next_int(-3, 3), rng.next_int(-3, 3)): rng.next_int(-2, 2) for _ in range(4)}
        a1, a2 = arr(2, 5, v1), arr(2, 5, v2)
        q = rng.next_int(1, 2)
        lhs = partial_sum_preimage(a1 + a2, q)
        rhs = partial_sum_preimage(a1, q) + partial_sum_preimage(a2, q)
        assert lhs.values == rhs.values


def test_preimage_inverts_delta_on_line_sum_zero_arrays():
    rng = SplitMix64(1717)
    for _ in range(100):
        k = rng.next_int(1, 2)
        q = rng.next_int(1, k)
        seed = {
            tuple(rng.next_int(0, 2) for _ in range(k)): rng.next_int(-3, 3)
            for _ in range(5)
        }
        a = shift_delta(arr(k, 5, seed), q)
        b = partial_sum_preimage(a, q)
        assert shift_delta(b, q).values == a.values


def test_cohomology_ranks_k1():
    assert cohomology_ranks(1, 5) == [0, 1]


def test_cohomology_ranks_k2():
    assert cohomology_ranks(2, 5) == [0, 0, 1]


def test_cohomology_ranks_stability():
    assert cohomology_ranks(1, 6) == [0, 1]
    assert cohomology_ranks(2, 6) == [0, 0, 1]


def test_cohomology_ranks_window_guard():
    with pytest.raises(WindowTooSmall):
        cohomology_ranks(2, 3)


def test_shift_injectivity():
    assert shift_injectivity_deficit(1, 5, 1) == 0
    assert shift_injectivity_deficit(2, 5, 1) == 0
    assert shift_injectivity_deficit(2, 5, 2) == 0


def test_assembled_differentials_compose_to_zero():
    # multiply consecutive sparse differential matrices exactly
    k, w = 2, 5
    d0 = _differential_rows(k, w, 0)
    d1 = _differential_rows(k, w, 1)
    assert len(d0) == component_dimension(k, w, 1)
    # column views: column index -> {row: val}
    d0_cols = [dict() for _ in range(component_dimension(k, w, 0))]
    for r, row in enumerate(d0):
        for c, v in row.items():
            d0_cols[c][r] = v
    d1_cols = [dict() for _ in range(component_dimension(k, w, 1))]
    for r, row in enumerate(d1):
        for c, v in row.items():
            d1_cols[c][r] = v
    for c, col in enumerate(d0_cols):
        acc = {}
        for mid, v in col.items():
            for r2, v2 in d1_cols[mid].items():
                acc[r2] = acc.get(r2, 0) + v * v2
        assert all(val == 0 for val in acc.values()), "d o d != 0 at column %d" % c


def _fraction_rank(rows):
    """Rank over Q by Gaussian elimination in Fractions, pivoting on the
    leading column: the elimination _sparse_rank replaced."""
    pivots = {}
    for row in rows:
        entries = {c: Fraction(v) for c, v in row.items() if v}
        while entries:
            col = min(entries)
            if col not in pivots:
                pivots[col] = entries
                break
            piv = pivots[col]
            factor = entries[col] / piv[col]
            for c, v in piv.items():
                val = entries.get(c, 0) - factor * v
                if val:
                    entries[c] = val
                else:
                    entries.pop(c, None)
    return len(pivots)


@st.composite
def _sparse_matrices(draw):
    """Row dicts with entries in [-4, 4], mostly zero, some of whose rows
    are integer combinations of earlier ones (so pivots are not +-1)."""
    ncols = draw(st.integers(0, 12))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            row = {c: sum(a * r.get(c, 0) for a, r in zip(coeffs, rows)) for c in range(ncols)}
        else:
            row = {c: draw(entry) for c in range(ncols)}
        rows.append(row)
    return rows


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices())
def test_sparse_rank_matches_fraction_elimination(rows):
    assert _sparse_rank(rows) == _fraction_rank(rows)


def test_sparse_rank_pinned_cases():
    # rank 2 over Q although the rows agree mod 2 (rank 1 there)
    assert _sparse_rank([{0: 1, 1: 1}, {0: 1, 1: -1}]) == 2
    # entries beyond int64: the second row is 3**50 times the first, and
    # the determinant of the last pair is -1
    big = 3**50
    assert _sparse_rank([{0: 1, 1: big}, {0: big, 1: big * big}]) == 1
    assert _sparse_rank([{0: 1, 1: big}, {0: big, 1: big * big + 1}]) == 2
    assert _sparse_rank([{0: big, 1: big + 1}, {0: big + 1, 1: big + 2}]) == 2
    # numpy integers are read as Python ints, so their products do not wrap
    assert _sparse_rank([{0: np.int64(2**62), 1: np.int64(1)}, {0: np.int64(1), 1: np.int64(0)}]) == 2
    # empty rows and the all-zero matrix
    assert _sparse_rank([]) == 0
    assert _sparse_rank([{}, {}]) == 0
    assert _sparse_rank([{0: 0, 3: 0}] * 3) == 0
    with pytest.raises(TypeError):
        _sparse_rank([{0: Fraction(1, 2)}])


def test_suite_matrices_rank_as_with_fractions():
    mats = [_differential_rows(k, w, p) for k, w in ((1, 5), (2, 5), (1, 6), (2, 6)) for p in range(k)]
    mats += [shift_difference_matrix(1, 5, 1), shift_difference_matrix(2, 5, 2)]
    assert [_sparse_rank(m) for m in mats] == [_fraction_rank(m) for m in mats]


def test_cohomology_ranks_k3():
    assert cohomology_ranks(3, 5) == [0, 0, 0, 1]
    assert [shift_injectivity_deficit(3, 5, q) for q in (1, 2, 3)] == [0, 0, 0]


@pytest.mark.parametrize("k,w", [(k, w) for k in (1, 2, 3) for w in range(k + 2, 7)])
def test_euler_characteristic(k, w):
    # sum_p (-1)^p comb(k, p) (2w+1)^p (2w)^(k-p) = (2w - (2w+1))^k
    dims = sum((-1) ** p * component_dimension(k, w, p) for p in range(k + 1))
    betti = sum((-1) ** p * b for p, b in enumerate(cohomology_ranks(k, w)))
    assert dims == betti == (-1) ** k


def _reference_component_points(k, w, subset):
    window = [range(-w, w + 1) if q in subset else range(-w, w) for q in range(k)]
    return list(itertools.product(*window))


def _reference_differential_rows(k, w, p):
    """The per-point builder the stride layout replaced: dicts keyed by
    (subset, point) tuples give every row and column its index."""
    subsets_p = [frozenset(s) for s in itertools.combinations(range(k), p)]
    subsets_p1 = [frozenset(s) for s in itertools.combinations(range(k), p + 1)]
    col_index = {}
    for S in sorted(subsets_p, key=sorted):
        for point in _reference_component_points(k, w, S):
            col_index[(tuple(sorted(S)), point)] = len(col_index)
    row_index = {}
    for S in sorted(subsets_p1, key=sorted):
        for point in _reference_component_points(k, w, S):
            row_index[(tuple(sorted(S)), point)] = len(row_index)
    rows = [dict() for _ in range(len(row_index))]
    for S in subsets_p:
        Skey = tuple(sorted(S))
        for q in range(k):
            if q in S:
                continue
            Tkey = tuple(sorted(S | {q}))
            sign = (-1) ** sum(1 for s in S if s < q)
            for point in _reference_component_points(k, w, S):
                up = point[:q] + (point[q] + 1,) + point[q + 1 :]
                r = row_index[(Tkey, up)]
                c = col_index[(Skey, point)]
                rows[r][c] = rows[r].get(c, 0) + sign
                r = row_index[(Tkey, point)]
                rows[r][c] = rows[r].get(c, 0) - sign
    return rows


def _reference_shift_difference_matrix(k, w, q):
    qi = q - 1
    dom = [range(-w, w + 1)] * k
    dom[qi] = range(-w, w)
    col_index = {point: i for i, point in enumerate(itertools.product(*dom))}
    codomain = list(itertools.product(*([range(-w, w + 1)] * k)))
    row_index = {point: i for i, point in enumerate(codomain)}
    rows = [dict() for _ in range(len(codomain))]
    for point, c in col_index.items():
        up = point[:qi] + (point[qi] + 1,) + point[qi + 1 :]
        rows[row_index[up]][c] = rows[row_index[up]].get(c, 0) + 1
        rows[row_index[point]][c] = rows[row_index[point]].get(c, 0) - 1
    return rows


def _python_int_entries(rows):
    return all(type(c) is int and type(v) is int for row in rows for c, v in row.items())


@pytest.mark.parametrize("k,w", [(k, w) for k in (1, 2, 3) for w in range(k + 2, 7)])
def test_row_builders_match_the_per_point_reference(k, w):
    for p in range(k):
        rows = _differential_rows(k, w, p)
        assert rows == _reference_differential_rows(k, w, p)
        assert _python_int_entries(rows)
    for q in range(1, k + 1):
        rows = shift_difference_matrix(k, w, q)
        assert rows == _reference_shift_difference_matrix(k, w, q)
        assert _python_int_entries(rows)

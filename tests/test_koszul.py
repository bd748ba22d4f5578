import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conetheta import intmat, koszul
from conetheta.errors import NotSymplectic, ShapeMismatch, ValidationError
from conetheta.koszul import (
    ChainMap,
    GroupRingElement,
    KoszulChain,
    koszul_d,
    random_type_word,
    s_star,
    telescope_decompose,
    type_Ia,
    type_Ib,
    type_Ic,
    type_II,
    type_III,
    verify_chain_map,
    x_minus_one,
)
from conetheta.rng import SplitMix64

RANK = 4  # two lattice directions of each half


def mono(*exp):
    return GroupRingElement.monomial(exp)


def test_gr_multiply_unit():
    x = mono(1, 0, 0, 0)
    assert GroupRingElement.one(RANK) * x == x


def test_gr_multiply_difference_of_squares():
    x = mono(1, 0, 0, 0)
    one = GroupRingElement.one(RANK)
    assert (x - one) * (x + one) == mono(2, 0, 0, 0) - one


def test_gr_multiply_two_factors():
    a = x_minus_one(RANK, (1, 0, 0, 0))
    b = x_minus_one(RANK, (0, 1, 0, 0))
    product = a * b
    expected = (
        mono(1, 1, 0, 0) - mono(1, 0, 0, 0) - mono(0, 1, 0, 0) + GroupRingElement.one(RANK)
    )
    assert product == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(*([st.integers(-2, 2)] * RANK)), st.integers(-3, 3)
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(
        st.tuples(
            st.tuples(*([st.integers(-2, 2)] * RANK)), st.integers(-3, 3)
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_gr_multiply_commutes(terms_a, terms_b):
    a = GroupRingElement(RANK, dict(terms_a))
    b = GroupRingElement(RANK, dict(terms_b))
    assert a * b == b * a


def test_koszul_d_degree_one():
    d = koszul_d(KoszulChain.generator(RANK, (2,)))
    assert d.components == {(): x_minus_one(RANK, (0, 0, 1, 0))}


def test_koszul_d_square_zero():
    c = KoszulChain.generator(RANK, (0, 1))
    assert koszul_d(koszul_d(c)).is_zero()


def test_koszul_d_degree_two_signs():
    d = koszul_d(KoszulChain.generator(RANK, (0, 1)))
    assert d.components[(1,)] == x_minus_one(RANK, (1, 0, 0, 0))
    assert d.components[(0,)] == -x_minus_one(RANK, (0, 1, 0, 0))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_koszul_d_square_zero_random(data):
    rng_seed = data.draw(st.integers(0, 2**31))
    rng = SplitMix64(rng_seed)
    deg = rng.next_int(2, 3)
    import itertools

    subs = list(itertools.combinations(range(RANK), deg))
    comps = {}
    for _ in range(3):
        sub = subs[rng.next_int(0, len(subs) - 1)]
        terms = {
            tuple(rng.next_int(-3, 3) for _ in range(RANK)): rng.next_int(-3, 3)
            for _ in range(3)
        }
        comps[sub] = GroupRingElement(RANK, terms)
    chain = KoszulChain(RANK, deg, comps)
    assert koszul_d(koszul_d(chain)).is_zero()


def test_augmentation_kills_differential():
    for sub in [(0,), (1,), (2,), (3,)]:
        d = koszul_d(KoszulChain.generator(RANK, sub))
        assert all(g.augmentation() == 0 for g in d.components.values())


def test_telescope_cube():
    R = telescope_decompose([3, 0, 0, 0])
    assert R[0] == mono(2, 0, 0, 0) + mono(1, 0, 0, 0) + GroupRingElement.one(RANK)
    assert all(R[j].is_zero() for j in range(1, RANK))


def test_telescope_single():
    R = telescope_decompose([0, 1, 0, 0])
    assert R[1] == GroupRingElement.one(RANK)


def test_telescope_inverse():
    R = telescope_decompose([-1, 0, 0, 0])
    assert R[0] == GroupRingElement(RANK, {(-1, 0, 0, 0): -1})


def test_public_constructor_validates_and_drops_zeros():
    with pytest.raises(ShapeMismatch):
        GroupRingElement(4, {(1, 0): 1})
    assert GroupRingElement(RANK, {(1, 0, 0, 0): 0, (0, 1, 0, 0): 2}).terms == {(0, 1, 0, 0): 2}


def test_ring_operations_drop_zeros_and_reject_other_ranks():
    x = mono(1, 0, 0, 0)
    assert (x - x).terms == {} and x.scale(0).terms == {}
    assert ((x + GroupRingElement.one(RANK)) * (x - GroupRingElement.one(RANK))).terms == {
        (2, 0, 0, 0): 1,
        (0, 0, 0, 0): -1,
    }
    with pytest.raises(ShapeMismatch):
        x + mono(1, 0)
    with pytest.raises(ShapeMismatch):
        x * mono(1, 0)


def _product_form_telescope(exp, order):
    """The telescoping coefficients as a product: R_j = prefix * g_j, with the
    prefix the monomial of the factors peeled before j and g_j the geometric
    sum with x'_j^e - 1 = g_j (x'_j - 1)."""
    rank = len(exp)
    out = [GroupRingElement.zero(rank) for _ in range(rank)]
    prefix = GroupRingElement.one(rank)
    for j in order:
        e = exp[j]
        if e:
            powers, coef = (range(e), 1) if e > 0 else (range(e, 0), -1)
            geom = GroupRingElement.zero(rank)
            for p in powers:
                step = [0] * rank
                step[j] = p
                geom = geom + GroupRingElement.monomial(step, coef)
            out[j] = prefix * geom
            step = [0] * rank
            step[j] = e
            prefix = prefix * GroupRingElement.monomial(step)
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_telescope_matches_product_form(data):
    rank = data.draw(st.integers(1, 6))
    exp = data.draw(st.lists(st.integers(-5, 5), min_size=rank, max_size=rank))
    order = data.draw(st.permutations(range(rank)))
    assert telescope_decompose(exp, order) == _product_form_telescope(exp, order)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*([st.integers(-4, 4)] * RANK)), st.permutations(range(RANK)))
def test_telescope_reconstruction(exp, order):
    total = GroupRingElement.one(RANK)
    for j, R in enumerate(telescope_decompose(exp, order)):
        step = [0] * RANK
        step[j] = 1
        total = total + R * x_minus_one(RANK, step)
    assert total == GroupRingElement.monomial(exp)


def test_s_star_identity_matrix():
    S = np.eye(RANK, dtype=np.int64)
    for sub in [(0,), (1, 3), (0, 1)]:
        c = KoszulChain.generator(RANK, sub)
        assert s_star(S, c) == c


def test_s_star_type_III():
    img = s_star(type_III(2), KoszulChain.generator(RANK, (2,)))
    assert img.components == {(0,): GroupRingElement.one(RANK)}


def test_s_star_type_Ic_two_components():
    img = s_star(type_Ic(2, 1), KoszulChain.generator(RANK, (1,)))
    assert img.components[(0,)] == GroupRingElement.one(RANK)
    assert img.components[(1,)] == mono(1, 0, 0, 0)
    assert s_star(type_Ic(2, 1), KoszulChain.generator(RANK, (0,))).components == {
        (0,): GroupRingElement.one(RANK)
    }


def test_s_star_type_Ia_top_coefficient():
    img = s_star(type_Ia(np.array([[1, 0], [3, 1]])), KoszulChain.generator(RANK, (0,)))
    assert img.components.get((0,)) == GroupRingElement.one(RANK)


def test_s_star_type_Ib_top_coefficient_with_its_order():
    # the quoted coefficient-one identity holds for the decomposition that
    # peels generator k before k-1
    img = s_star(type_Ib(2, 2), KoszulChain.generator(RANK, (0, 1)), (1, 0, 2, 3))
    assert img.components.get((0, 1)) == GroupRingElement.one(RANK)


def test_s_star_rejects_nonsymplectic():
    with pytest.raises(NotSymplectic):
        s_star(np.eye(RANK, dtype=np.int64) * 2, KoszulChain.generator(RANK, (0,)))


def test_chain_map_matches_s_star_and_checks_rank():
    rng = SplitMix64(5)
    S = random_type_word(2, 1, 3, rng)
    s_map = ChainMap(S, (1, 0, 2, 3))
    for sub in [(0,), (2,), (0, 3), (1, 2, 3)]:
        gen = KoszulChain.generator(RANK, sub)
        assert s_map(gen) == s_star(S, gen, (1, 0, 2, 3))
    with pytest.raises(ShapeMismatch):
        s_map(KoszulChain.generator(2, (0,)))


def test_verify_chain_map_rejects_nonsymplectic():
    with pytest.raises(NotSymplectic):
        verify_chain_map(np.eye(RANK, dtype=np.int64) * 2)


def test_verify_chain_map_builds_one_chain_map(monkeypatch):
    calls = {"is_symplectic": 0, "telescope_decompose": 0}

    def counted(name):
        original = getattr(koszul, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(koszul, name, wrapper)

    counted("is_symplectic")
    counted("telescope_decompose")
    S = random_type_word(2, 1, 3, SplitMix64(2024))
    assert verify_chain_map(S)
    assert calls == {"is_symplectic": 1, "telescope_decompose": RANK}


def test_verify_chain_map_identity():
    assert verify_chain_map(np.eye(RANK, dtype=np.int64))


def test_verify_chain_map_type_II_conjugated():
    B = np.array([[2, 1], [1, 0]])
    S = type_II(B)
    assert verify_chain_map(S)


def test_verify_chain_map_random_words():
    rng = SplitMix64(31337)
    for _ in range(20):
        S = random_type_word(2, 1, rng.next_int(1, 3), rng)
        assert verify_chain_map(S)


def test_verify_chain_map_any_peel_order():
    rng = SplitMix64(99)
    for order in [(1, 0, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)]:
        for _ in range(5):
            S = random_type_word(2, 1, 2, rng)
            assert verify_chain_map(S, basis_order=order)


def test_verify_chain_map_detects_a_wrong_decomposition(monkeypatch):
    # one unit monomial too many in R_0 breaks x - 1 = sum_j R_j (x'_j - 1)
    original = koszul.telescope_decompose

    def wrong(exp, basis_order=None):
        R = original(exp, basis_order)
        R[0] = R[0] + GroupRingElement.one(len(R))
        return R

    monkeypatch.setattr(koszul, "telescope_decompose", wrong)
    assert not verify_chain_map(random_type_word(2, 1, 3, SplitMix64(2024)))


def test_random_type_word_raises_instead_of_wrapping():
    # 300 steps reach entries beyond int64; the product wrapped silently
    with pytest.raises(ValidationError):
        random_type_word(2, 1, 300, SplitMix64(1))


@pytest.mark.parametrize(
    "make, n, k",
    [(type_Ic, 2, 0), (type_Ic, 2, 2), (type_Ic, 1, 1), (type_Ib, 2, 1), (type_Ib, 2, 3),
     (type_Ib, 1, 2)],
)
def test_shear_types_reject_an_index_out_of_range(make, n, k):
    # type_Ic(2, 0) wrapped to A[-1, 0], a shear in the wrong direction; the
    # others indexed past the block
    with pytest.raises(ShapeMismatch):
        make(n, k)


def test_random_type_word_at_n1_rejects_its_shears():
    # the first draw of seed 6 is a type Ic step, which has no index at n = 1
    with pytest.raises(ShapeMismatch):
        random_type_word(1, 1, 1, SplitMix64(6))


def _gr_det(mat, rank):
    """Determinant over the group ring by cofactor expansion along row 0,
    skipping zero entries."""
    if not mat:
        return GroupRingElement.one(rank)
    out = GroupRingElement.zero(rank)
    for j in range(len(mat)):
        if mat[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * _gr_det(minor, rank)
        out = out + (term if j % 2 == 0 else -term)
    return out


def _minors_form(S, subset, order):
    """s_*(1 (x) w_P) in its minors form: the sum over increasing T of
    det(R_PT) (x) w_T, with row p of R telescope_decompose of column p of S."""
    rank = len(S)
    R = [telescope_decompose(S[:, p], order) for p in range(rank)]
    minors = {
        T: _gr_det([[R[p][t] for t in T] for p in subset], rank)
        for T in itertools.combinations(range(rank), len(subset))
    }
    return KoszulChain(rank, len(subset), minors)


@pytest.mark.parametrize("n", [2, 3])
def test_chain_map_is_the_minors_form(n):
    # the wedge products of the degree-1 images are the minors of R, on
    # every generator of every degree and on a chain with several components
    rank = 2 * n
    rng = SplitMix64(7 + n)
    orders = [tuple(range(rank)), tuple(reversed(range(rank))), (1, 0) + tuple(range(2, rank))]
    for _ in range(20):
        S = random_type_word(n, rng.next_int(1, n), rng.next_int(1, 3), rng)
        for order in orders:
            s_map = ChainMap(S, order)
            for deg in range(rank + 1):
                chain, expected = {}, KoszulChain(rank, deg)
                for i, subset in enumerate(itertools.combinations(range(rank), deg)):
                    gen = KoszulChain.generator(rank, subset)
                    image = _minors_form(S, subset, order)
                    assert s_map(gen) == image
                    # coefficient x_0 - i - 2, never zero
                    coef = GroupRingElement(rank, {(1,) + (0,) * (rank - 1): 1, (0,) * rank: -i - 2})
                    chain[subset] = coef
                    scaled = {t: coef * c for t, c in image.components.items()}
                    expected = expected + KoszulChain(rank, deg, scaled)
                assert s_map(KoszulChain(rank, deg, chain)) == expected


def test_x_minus_one_of_the_zero_exponent_is_zero():
    # the dict literal {exp: 1, zero: -1} kept only the -1 for exp = 0
    assert x_minus_one(RANK, (0, 0, 0, 0)).is_zero()
    assert x_minus_one(RANK, (0, 2, 0, 0)) == mono(0, 2, 0, 0) - GroupRingElement.one(RANK)
    with pytest.raises(ShapeMismatch):
        x_minus_one(RANK, (1, 0))


def test_koszul_d_of_a_zero_basis_column_is_zero():
    # x_p = x^0 = 1 when column p is zero, so d(w_p) = x_p - 1 = 0
    basis = np.eye(RANK, dtype=np.int64)
    basis[:, 1] = 0
    assert koszul_d(KoszulChain.generator(RANK, (1,)), basis=basis).is_zero()
    d = koszul_d(KoszulChain.generator(RANK, (0, 1)), basis=basis)
    assert d.components == {(1,): x_minus_one(RANK, (1, 0, 0, 0))}


def test_koszul_d_rejects_a_basis_of_another_size():
    with pytest.raises(ShapeMismatch):
        koszul_d(KoszulChain.generator(RANK, (0,)), basis=np.eye(2, dtype=np.int64))


# -- the term-by-term product form that koszul_d and ChainMap replaced --------

def _reference_koszul_d(chain, basis=None):
    """d as a sum of group-ring products a (x_p - 1), one element per term
    (x_p - 1 written as x^e minus one, so a zero column gives 0)."""
    rank = chain.rank
    out = {}
    for subset, coef in chain.components.items():
        for pos, p in enumerate(subset):
            if basis is None:
                exp = [0] * rank
                exp[p] = 1
            else:
                exp = [int(x) for x in basis[:, p]]
            factor = GroupRingElement.monomial(exp) - GroupRingElement.one(rank)
            term = (coef * factor).scale(-1 if pos % 2 else 1)
            rest = subset[:pos] + subset[pos + 1 :]
            out[rest] = out.get(rest, GroupRingElement.zero(rank)) + term
    return KoszulChain(rank, chain.degree - 1, out)


def _reference_wedge(chain, image):
    out = {}
    for T, a in chain.items():
        for t, r in image.items():
            if t in T:
                continue
            term = a * r if sum(u > t for u in T) % 2 == 0 else -(a * r)
            key = tuple(sorted(T + (t,)))
            out[key] = out.get(key, GroupRingElement.zero(a.rank)) + term
    return out


def _reference_chain_map(S, chain, order):
    rank = len(S)
    rows = [telescope_decompose(S[:, i], order) for i in range(rank)]
    images = [{t: r for t, r in enumerate(R) if not r.is_zero()} for R in rows]
    out = {}
    for subset, coef in chain.components.items():
        image = {(): coef}
        for p in subset:
            image = _reference_wedge(image, images[p])
        for target, term in image.items():
            out[target] = out.get(target, GroupRingElement.zero(rank)) + term
    return KoszulChain(rank, chain.degree, out)


# integers on both sides of the int64 range, so that a wrapped product or
# sum would differ from the reference
_WIDE = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


@st.composite
def _chains(draw, rank):
    degree = draw(st.integers(1, 4))
    subsets = list(itertools.combinations(range(rank), degree))
    components = {}
    for subset in draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=3, unique=True)):
        terms = draw(
            st.dictionaries(st.tuples(*([_WIDE] * rank)), _WIDE, min_size=1, max_size=3)
        )
        components[subset] = GroupRingElement(rank, terms)
    return KoszulChain(rank, degree, components)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_koszul_d_and_chain_map_match_the_product_form(data):
    n = data.draw(st.integers(2, 3))
    rank = 2 * n
    S = random_type_word(n, data.draw(st.integers(1, n)), data.draw(st.integers(1, 3)),
                         SplitMix64(data.draw(st.integers(0, 2**32))))
    order = data.draw(st.permutations(range(rank)))
    chain = data.draw(_chains(rank))
    assert koszul_d(chain) == _reference_koszul_d(chain)
    assert koszul_d(chain, basis=S) == _reference_koszul_d(chain, basis=S)
    image = ChainMap(S, order)(chain)
    assert image == _reference_chain_map(S, chain, order)
    assert koszul_d(image) == ChainMap(S, order)(koszul_d(chain, basis=S))


def test_koszul_d_keeps_integers_beyond_int64():
    # one term beyond int64 in coefficient and exponent, checked by hand
    big = 2**70
    chain = KoszulChain(RANK, 1, {(0,): GroupRingElement(RANK, {(big, 0, 0, 0): big})})
    expected = {(): GroupRingElement(RANK, {(big + 1, 0, 0, 0): big, (big, 0, 0, 0): -big})}
    assert koszul_d(chain).components == expected == _reference_koszul_d(chain).components


def test_unit_lower_inverse_matches_unimodular_inverse():
    rng = SplitMix64(11)
    for n in range(1, 9):
        for k in range(n + 1):
            A = koszul.random_Ia_block(n, k, rng)
            inv = koszul._unit_lower_inverse(A)
            assert inv.dtype == np.int64
            assert np.array_equal(inv, intmat.unimodular_inverse(A))
            assert np.array_equal(type_Ia(A), koszul._block_diag_symplectic(A, inv))

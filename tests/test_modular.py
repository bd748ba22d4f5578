import cmath
import math

import mpmath
import numpy as np
import pytest

from conetheta import lattice, modular
from conetheta.errors import NonconvergentContour, SingularDenominator, ValidationError
from conetheta.lattice import ConeSpec, ModularElement, SplitBasis, random_gamma12, transform_basis
from conetheta.linalg import principal_sqrt_det, signature
from conetheta.modular import (
    EIGHTH_ROOTS,
    ModularImage,
    contour_f,
    contour_integrand,
    determine_zeta,
    fit_eighth_root,
    inversion_rhs,
    modular_apply,
    omega_transform,
    shift_rhs,
    verify_case3_1d,
)
from conetheta.rng import SplitMix64
from conetheta.theta import ConeSum, sample_points, theta_term


def _g(A, B, C, D):
    return ModularElement(np.array(A), np.array(B), np.array(C), np.array(D))


J1 = _g([[0]], [[-1]], [[1]], [[0]])
OM2 = np.diag([-1j, 1j])


def test_omega_transform_identity():
    om = np.array([[0.3 - 1j]])
    assert np.allclose(omega_transform(ModularElement.identity(1), om), om)


def test_omega_transform_translation():
    B = np.array([[2, 1], [1, 0]])
    g = _g(np.eye(2, dtype=int), B, np.zeros((2, 2), dtype=int), np.eye(2, dtype=int))
    assert np.max(np.abs(omega_transform(g, OM2) - (OM2 - B))) == 0.0


def test_omega_transform_inversion():
    om = np.array([[1j]])
    assert np.allclose(omega_transform(J1, om), np.array([[1j]]))


def test_omega_transform_round_trip_and_signature():
    rng = SplitMix64(17)
    om = np.array([[-1j, 0.2], [0.2, 1.5j]])
    for _ in range(20):
        g = random_gamma12(2, rng, 4)
        try:
            og = omega_transform(g, om)
        except SingularDenominator:
            continue
        back = (g.A.astype(complex) @ og + g.B) @ np.linalg.inv(
            g.C.astype(complex) @ og + g.D
        )
        assert np.max(np.abs(back - om)) < 1e-9
        assert signature(og.imag) == signature(om.imag)
        gi = g.inverse()
        assert np.max(np.abs(omega_transform(gi, og) - om)) < 1e-9


def test_modular_apply_identity():
    ev = ConeSum(ConeSpec.full_lattice(1), 1e-12).bind(np.array([[1j]]))
    out = modular_apply(ModularElement.identity(1), ev, 1.0)
    for Z in sample_points(1, 3):
        assert abs(out(Z).value - ev(Z).value) < 1e-14


def test_modular_apply_case2_fixes_cocycle():
    cone = ConeSpec(np.array([[0], [1]]), (0, 0))
    ev = ConeSum(cone, 1e-12).bind(OM2)
    B = np.array([[2, 1], [1, 0]])
    g = _g(np.eye(2, dtype=int), B, np.zeros((2, 2), dtype=int), np.eye(2, dtype=int))
    out = modular_apply(g, ev, 1.0)
    for Z in sample_points(2, 5):
        assert abs(out(Z).value - ev(Z).value) < 1e-9


def test_modular_apply_composition_ratio():
    # (f^g)^h / f^{hg} is constant in Z, unimodular, and an eighth root
    om = np.array([[1j]])
    fam = ConeSum(ConeSpec.full_lattice(1), 1e-13)
    rng = SplitMix64(23)
    checked = 0
    for _ in range(12):
        g = random_gamma12(1, rng, 2)
        h = random_gamma12(1, rng, 2)
        hg = h @ g
        try:
            ratios = []
            for Z in sample_points(1, 5):
                inner = ModularImage(fam, g, 1.0)
                vgh, _ = ModularImage(inner, h, 1.0).value_tail(om, Z)
                vhg, _ = ModularImage(fam, hg, 1.0).value_tail(om, Z)
                if abs(vhg) < 1e-8:
                    raise ZeroDivisionError
                ratios.append(vgh / vhg)
        except (SingularDenominator, ZeroDivisionError):
            continue
        checked += 1
        assert abs(abs(ratios[0]) - 1.0) < 1e-8
        assert max(abs(r - ratios[0]) for r in ratios) < 1e-8
        assert abs(ratios[0] ** 8 - 1.0) < 1e-7
    assert checked >= 5


def test_modular_apply_composition_ratio_n2():
    # same constancy property with an indefinite two-dimensional form
    fam = ConeSum(ConeSpec(np.array([[0], [1]]), (0, 0)), 1e-13)
    zero = np.zeros((2, 2), dtype=int)
    eye = np.eye(2, dtype=int)
    J2 = _g(zero, -eye, eye, zero)
    TB = _g(eye, [[2, 1], [1, 0]], zero, eye)
    for g, h in [(J2, TB), (TB, J2), (TB, TB)]:
        hg = h @ g
        ratios = []
        for Z in sample_points(2, 5):
            vgh, _ = ModularImage(ModularImage(fam, g, 1.0), h, 1.0).value_tail(OM2, Z)
            vhg, _ = ModularImage(fam, hg, 1.0).value_tail(OM2, Z)
            ratios.append(vgh / vhg)
        assert abs(abs(ratios[0]) - 1.0) < 1e-8
        assert max(abs(r - ratios[0]) for r in ratios) < 1e-8
        assert abs(ratios[0] ** 8 - 1.0) < 1e-7


def theta_g_term(K, Z, omega, g: ModularElement, zeta: complex) -> complex:
    """Single transformed theta term, the oracle of the quasi-shift tests:

        zeta det(C omega^g + D)^{1/2} exp(pi i tZ C t(C omega^g + D) Z)
        exp(pi i tK omega^g K + 2 pi i tK t(C omega^g + D) Z).
    """
    Z = np.asarray(Z, dtype=complex)
    K = np.asarray(K, dtype=float)
    og = omega_transform(g, omega)
    CT = g.C.astype(complex)
    T = (CT @ og + g.D.astype(complex)).T
    val = zeta * principal_sqrt_det(T.T)
    val *= cmath.exp(1j * math.pi * (Z @ CT @ T @ Z))
    val *= cmath.exp(1j * math.pi * (K @ og @ K + 2.0 * (K @ (T @ Z))))
    return val


def test_theta_g_term_identity_element():
    K = np.array([1.0, -1.0])
    for Z in sample_points(2, 3):
        a = theta_g_term(K, Z, OM2, ModularElement.identity(2), 1.0)
        b = theta_term(K, Z, OM2)
        assert abs(a - b) < 1e-14


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_theta_g_quasi_shift():
    rng = SplitMix64(101)
    om = np.array([[-1j, 0.3], [0.3, 1.5j]])
    draws = 0
    while draws < 100:
        g = random_gamma12(2, rng, 2)
        try:
            omega_transform(g, om)
        except SingularDenominator:
            continue
        K = np.array([rng.next_int(-1, 1), rng.next_int(-1, 1)])
        M = np.array([rng.next_int(-1, 1), rng.next_int(-1, 1)])
        N = np.array([rng.next_int(-1, 1), rng.next_int(-1, 1)])
        Z = sample_points(2, 1, rng.next_int(0, 10**6))[0]
        lhs = theta_g_term(K, Z + M + om @ N, om, g, 1.0) * cmath.exp(
            2j * math.pi * (N @ Z) + 1j * math.pi * (N @ om @ N)
        )
        rhs = theta_g_term(K + g.A.T @ N + g.C.T @ M, Z, om, g, 1.0)
        assert _rel(lhs, rhs) < 1e-8
        draws += 1


def test_theta_g_m_invariance():
    # the transformed translation directions fix every transformed term
    rng = SplitMix64(7)
    om = np.array([[-1j, 0.3], [0.3, 1.5j]])
    basis = SplitBasis.identity(2, 1)
    for _ in range(20):
        g = random_gamma12(2, rng, 2)
        try:
            omega_transform(g, om)
        except SingularDenominator:
            continue
        cols, _ = transform_basis(g, basis)
        i = rng.next_int(0, 1)
        mg = cols[:, 2 + i]
        K = np.array([rng.next_int(-1, 1), rng.next_int(-1, 1)])
        Z = sample_points(2, 1, rng.next_int(0, 10**6))[0]
        Mpart, Npart = mg[2:], mg[:2]
        lhs = theta_g_term(K, Z + Mpart + om @ Npart, om, g, 1.0) * cmath.exp(
            2j * math.pi * (Npart @ Z) + 1j * math.pi * (Npart @ om @ Npart)
        )
        rhs = theta_g_term(K, Z, om, g, 1.0)
        assert _rel(lhs, rhs) < 1e-9


# ---------------------------------------------------------------------------
# contour integral

def test_contour_integrand_spot_value():
    got = contour_integrand(0.5, 0.0, -1j, 0)
    assert abs(got - math.exp(math.pi / 4) / (-2.0)) < 1e-14


def test_contour_requires_negative_imag():
    with pytest.raises(NonconvergentContour):
        contour_f(0.0, 1j, 1, 0)


def _mp_contour(z, tau, kpole, nshift):
    """The integral of contour_f in 30-digit mpmath arithmetic: mpmath.quad
    over the same line y = kpole - 1/2 + i s, oriented from s = +inf to
    s = -inf, split at unit steps across the Gaussian around its peak."""
    mp = mpmath.mp.clone()
    mp.dps = 30
    z, tau = mp.mpc(z), mp.mpc(tau)
    c = mp.mpf(kpole) - mp.mpf(1) / 2

    def integrand(s):  # f(y) dy/ds
        y = c + mp.j * s
        num = mp.exp(mp.j * mp.pi * tau * y * y + 2 * mp.j * mp.pi * (z + nshift) * y)
        return mp.j * num / (mp.exp(2 * mp.j * mp.pi * y) - 1)

    peak = (tau.real * c + z.real + nshift) / tau.imag
    half = int(mp.sqrt(30 / -tau.imag)) + 3
    cuts = [peak + k for k in range(half, -half - 1, -1)]
    return complex(mp.quad(integrand, [mp.inf] + cuts + [-mp.inf]))


@pytest.mark.parametrize(
    "z, tau, kpole, nshift, tol",
    [
        (0.3, -1j, 1, 0, 1e-11),
        (0.3 + 0.2j, 0.3 - 1.2j, 1, 0, 1e-11),
        (0.1 - 0.1j, -2j, 1, 2, 1e-11),
        (1.3 + 0.2j, 0.1 - 0.3j, 1, 0, 1e-11),
        (0.1, 0.4 - 1j, 0, 1, 1e-11),
        (-0.7, 0.1 - 0.3j, 0, 0, 1e-10),
        (0.3, -1j, -1, 1, 1e-10),
        (-0.4 + 0.1j, -0.8j, 1, -1, 1e-10),
        (-0.64 - 0.03j, -1.05 - 0.98j, 2, 1, 1e-11),
        (1.3, 0.99 - 0.24j, 1, 0, 1e-11),
    ],
)
def test_contour_matches_mpmath_oracle(z, tau, kpole, nshift, tol):
    assert abs(contour_f(z, tau, kpole, nshift, tol) - _mp_contour(z, tau, kpole, nshift)) < tol


def test_contour_refuses_tol_below_its_rounding():
    # the nodes reach 3e6 here and carry about 1e-9 of rounding noise; the
    # levels' differences shrink with it by sqrt(2) a level, and without the
    # noise condition two levels agree by chance on a value 6.9e-10 off
    z, tau = 1.5612336237419 - 1.0021958961055937j, 0.1120518158219368 - 0.7284291279210309j
    with pytest.raises(NonconvergentContour):
        contour_f(z, tau, 1, 1, 1e-10)
    assert abs(contour_f(z, tau, 1, 1, 1e-8) - _mp_contour(z, tau, 1, 1)) < 1e-8


def test_contour_levels_nest_on_an_exact_grid(monkeypatch):
    # every level evaluates only new midpoints, and together the levels
    # cover one uniform grid of exact binary fractions on the line
    seen = []

    def recording(y, *args):
        seen.append(np.asarray(y))
        return contour_integrand(y, *args)

    monkeypatch.setattr(modular, "contour_integrand", recording)
    contour_f(0.3 + 0.2j, 0.3 - 1.2j, 2, 1, 1e-11)
    assert len(seen) >= 3
    s = np.sort(np.concatenate(seen).imag)
    assert all((y.real == 1.5).all() for y in seen)
    h = s[1] - s[0]
    assert h == 2.0 ** -round(math.log2(1 / h)) and h <= 1 / 16
    assert np.array_equal(s, s[0] + h * np.arange(len(s))) and s[0] == -s[-1]


@pytest.mark.parametrize("tau", [0.3 - 1e-9j, 0.3 - 1e-300j, complex(0.3, -5e-324)])
def test_contour_window_cap_precedes_evaluation(tau, monkeypatch):
    # the window grows like 1/|Im tau|; past the step cap nothing is evaluated
    def no_nodes(*args):
        raise AssertionError("integrand evaluated")

    monkeypatch.setattr(modular, "contour_integrand", no_nodes)
    with pytest.raises(NonconvergentContour):
        contour_f(0.3, tau, 1, 0)


def test_contour_period_identity():
    # (period action - 1) f = -exp(pi i tau k^2 + 2 pi i k z)
    for tau in (-1j, -2j, 0.3 - 1.2j):
        for z in (0.0, 0.3, 0.3 + 0.2j):
            fz = contour_f(z, tau, 1, 0, 1e-11)
            lhs = cmath.exp(1j * math.pi * tau + 2j * math.pi * z) * contour_f(
                z + tau, tau, 1, 0, 1e-11
            ) - fz
            assert abs(lhs + shift_rhs(z, tau, 1)) < 1e-8


def test_contour_translation_identity_fits_eighth_root():
    for tau in (-1j, -2j):
        z = 0.3
        fz = contour_f(z, tau, 1, 0, 1e-11)
        lhs = contour_f(z + 1, tau, 1, 0, 1e-11) - fz
        ratio = lhs / inversion_rhs(z, tau, 0, 1.0)
        best = min(abs(ratio - c) for c in EIGHTH_ROOTS)
        assert best < 1e-8


def test_verify_case3_defaults():
    for tau in (-1j, -2j, 0.3 - 1.2j):
        rep = verify_case3_1d(tau, 1e-8)
        assert rep["pass"], rep
        assert abs(rep["zeta"] ** 8 - 1.0) < 1e-8
        assert rep["zeta_spread"] < 1e-8


def test_case3_zeta_value():
    # downward orientation gives exp(-3 pi i / 4) for every lower-half tau
    rep = verify_case3_1d(-1j, 1e-8)
    assert abs(rep["zeta"] - cmath.exp(-3j * math.pi / 4)) < 1e-12


# ---------------------------------------------------------------------------
# multiplier determination

@pytest.mark.parametrize("root", EIGHTH_ROOTS)
def test_fit_eighth_root_exact_ratio(root):
    # other candidates tie in their distance to the ratio; the fit must not
    # compare the candidates themselves
    assert fit_eighth_root([root]) == (root, 0.0)


def _plain(omega):
    """The cone sum over e2, the positive direction of OM2, bound to omega."""
    return ConeSum(ConeSpec(np.array([[0], [1]]), (0, 0))).bind(omega)


def _point(omega):
    """The rank-0 cone sum (the constant 1) at n = 1, bound to omega."""
    return ConeSum(ConeSpec(np.zeros((1, 0), dtype=np.int64), (0,))).bind(omega)


def test_determine_zeta_identity():
    zeta, resid = determine_zeta(ModularElement.identity(2), _plain(OM2))
    assert zeta == 1.0 and resid == 0.0


def test_determine_zeta_case2_is_one():
    B = np.array([[2, 1], [1, 0]])
    g = _g(np.eye(2, dtype=int), B, np.zeros((2, 2), dtype=int), np.eye(2, dtype=int))
    zeta, resid = determine_zeta(g, _plain(OM2))
    assert abs(zeta - 1.0) < 1e-12
    assert resid < 1e-8


def test_determine_zeta_case2_fits_on_the_given_family(monkeypatch):
    # the fit factors nothing: f^g shares the form of f (Im(omega^g) =
    # Im(omega) for A = D = I, C = 0), and the cone is the one f sums over
    B = np.array([[2, 1], [1, 0]])
    g = _g(np.eye(2, dtype=int), B, np.zeros((2, 2), dtype=int), np.eye(2, dtype=int))
    f = _plain(OM2)
    forms = []
    init = lattice.ConeForm.__init__

    def counted(self, *args):
        forms.append(args)
        init(self, *args)

    monkeypatch.setattr(lattice.ConeForm, "__init__", counted)
    zeta, _ = determine_zeta(g, f)
    assert zeta == 1.0 and forms == []


def test_determine_zeta_inversion():
    zeta, resid = determine_zeta(J1, _point(np.array([[-1j]])))
    assert resid < 1e-8
    assert abs(zeta**8 - 1.0) < 1e-12
    assert abs(zeta - cmath.exp(-3j * math.pi / 4)) < 1e-12


def test_determine_zeta_inversion_small_imaginary_part():
    # the contour at z = 1.3 carries rounding noise near the 1e-11 the probes
    # are integrated to; the root is exp(-3 pi i / 4) for every lower-half tau
    zeta, resid = determine_zeta(J1, _point(np.array([[0.99 - 0.24j]])))
    assert abs(zeta - cmath.exp(-3j * math.pi / 4)) < 1e-12
    assert resid < 1e-9


def test_determine_zeta_unavailable_reference():
    g = _g([[1, 0], [0, 0]], [[0, 0], [0, -1]], [[0, 0], [0, 1]], [[1, 0], [0, 0]])
    with pytest.raises(ValidationError):
        determine_zeta(g, _plain(OM2))

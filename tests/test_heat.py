import itertools
import math

import numpy as np
import pytest

from conetheta.heat import fd_omega_derivative, heat_fd_residual, heat_term_residual
from conetheta.lattice import ConeSpec, ModularElement
from conetheta.modular import ModularImage
from conetheta.theta import Characteristic, ConeSum

OM1 = np.array([[1j]])


def test_termwise_zero_vector():
    assert heat_term_residual(np.zeros(2), np.diag([1j, 1j]), 1, 2) == 0.0


def test_termwise_single_mode():
    assert heat_term_residual(np.array([1.0]), OM1, 1, 1) < 1e-14


def test_termwise_off_diagonal():
    om = np.array([[1j, 0.2], [0.2, 2j]])
    assert heat_term_residual(np.array([1.0, 1.0]), om, 1, 2) < 1e-14


def test_termwise_grid():
    # exact annihilation for all modes up to 5 in up to three dimensions,
    # definite and indefinite forms alike
    cases = [
        (np.array([[1j]]), 1),
        (np.diag([-1j, 1j]), 2),
        (np.array([[1j, 0.1, 0.0], [0.1, 2j, 0.2], [0.0, 0.2, -1j]]), 3),
    ]
    for om, n in cases:
        worst = 0.0
        for K in itertools.product(*([range(-5, 6)] * n)):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    worst = max(worst, heat_term_residual(np.array(K, dtype=float), om, i, j))
        assert worst < 1e-14, (n, worst)


def test_termwise_stack_is_worst_row():
    om = np.array([[1j, 0.1, 0.0], [0.1, 2j, 0.2], [0.0, 0.2, -1j]])
    grid = np.array(list(itertools.product(range(-3, 4), repeat=3)), dtype=float)
    for i, j in [(1, 1), (1, 3), (2, 3)]:
        rows = [heat_term_residual(K, om, i, j) for K in grid]
        assert heat_term_residual(grid, om, i, j) == max(rows)


def test_termwise_overflow_fails_every_tolerance():
    # the term exp(60 pi * 25) overflows: the residual is nan, never < tol
    assert math.isnan(heat_term_residual(np.array([[1.0], [5.0]]), np.array([[-60j]]), 1, 1))


def test_fd_classical():
    fam = ConeSum(ConeSpec.full_lattice(1), 1e-13)
    r = heat_fd_residual(fam, OM1, np.array([0.2 + 0j]), 1, 1, eps=1e-4)
    assert r < 1e-6


def test_fd_indefinite_diagonal():
    om = np.diag([-1j, 1j])
    fam = ConeSum(ConeSpec(np.array([[0], [1]]), (0, 0)), 1e-13)
    r = heat_fd_residual(fam, om, np.array([0.1 + 0j, 0.2 + 0j]), 2, 2, eps=1e-4)
    assert r < 1e-6


def test_fd_off_diagonal_scale_convention():
    # full two-dimensional lattice so the mixed entry genuinely enters
    om = np.array([[1j, 0.3], [0.3, 1.5j]])
    fam = ConeSum(ConeSpec.full_lattice(2), 1e-13)
    Z = np.array([0.1 + 0.05j, 0.2 - 0.1j])
    assert heat_fd_residual(fam, om, Z, 1, 2, eps=1e-4) < 1e-6
    # the doubled symmetric step must be halved exactly once; an unscaled
    # derivative would be twice the analytic one and fail the residual
    d_scaled = fd_omega_derivative(fam, om, Z, 1, 2, 1e-4)
    d_raw = d_scaled * 2
    from conetheta.heat import fd_zz_derivative
    import math

    analytic = fd_zz_derivative(fam, om, Z, 1, 2, 1e-4) / (4j * math.pi)
    assert abs(d_scaled - analytic) < 1e-6
    assert abs(d_raw - analytic) > 1e-3


def test_fd_second_order_scaling():
    fam = ConeSum(ConeSpec.full_lattice(1), 1e-13)
    Z = np.array([0.2 + 0j])
    coarse = heat_fd_residual(fam, OM1, Z, 1, 1, eps=2e-3)
    fine = heat_fd_residual(fam, OM1, Z, 1, 1, eps=1e-3)
    assert 2.5 <= coarse / fine <= 6.0


def test_fd_transformed_case2():
    om = np.diag([-1j, 1j])
    B = np.array([[2, 1], [1, 0]])
    g = ModularElement(np.eye(2, dtype=int), B, np.zeros((2, 2), dtype=int), np.eye(2, dtype=int))
    fam = ModularImage(ConeSum(ConeSpec(np.array([[0], [1]]), (0, 0)), 1e-13), g, 1.0)
    Z = np.array([0.2 + 0.05j, 0.1 + 0j])
    for i, j in [(1, 1), (1, 2), (2, 2)]:
        assert heat_fd_residual(fam, om, Z, i, j, eps=1e-4) < 1e-6


def test_fd_transformed_inversion_1d():
    g = ModularElement(np.array([[0]]), np.array([[-1]]), np.array([[1]]), np.array([[0]]))
    point = ConeSpec(np.zeros((1, 0), dtype=np.int64), (0,))
    fam = ModularImage(ConeSum(point, 1e-13), g, 1.0)
    assert heat_fd_residual(fam, np.array([[-1j]]), np.array([0.2 + 0.1j]), 1, 1, eps=1e-4) < 1e-6


def test_fd_characteristic():
    from fractions import Fraction

    char = Characteristic((Fraction(1, 2),), (2,))
    fam = ConeSum(ConeSpec.full_lattice(1).with_extra_shift(char.a), 1e-13)
    assert heat_fd_residual(fam, OM1, np.array([0.15 + 0j]), 1, 1, eps=1e-4) < 1e-6


def test_fd_perturbations_preserve_signature():
    # real-direction steps leave Im(omega), and so its signature, untouched,
    # even close to degeneracy
    fam = ConeSum(ConeSpec.full_lattice(1), 1e-10)
    thin = np.array([[0.1j]])
    r = heat_fd_residual(fam, thin, np.array([0.05 + 0j]), 1, 1, eps=1e-4)
    assert np.isfinite(r)


def test_index_validation():
    with pytest.raises(Exception):
        heat_term_residual(np.array([1.0, 1.0]), np.diag([1j, 1j]), 2, 1)

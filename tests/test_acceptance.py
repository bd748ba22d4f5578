"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output on failure) and asserts at the stated tolerance.  Run:

    pytest tests/test_acceptance.py -v -s
"""

import cmath
import itertools
import math

import numpy as np

from conetheta.cli import (
    suite_characteristics,
    suite_cocycle,
    suite_heat,
    suite_koszul,
    suite_modular_case2,
    suite_modular_case3_1d,
    suite_reduced,
    suite_wedge,
)
from conetheta.errors import SingularDenominator
from conetheta.heat import heat_fd_residual, heat_term_residual
from conetheta.koszul import (
    GroupRingElement,
    KoszulChain,
    s_star,
    type_Ia,
    type_Ib,
    type_Ic,
    type_III,
)
from conetheta.lattice import ConeSpec, ModularElement, random_gamma12
from conetheta.modular import ModularImage, omega_transform
from conetheta.rng import SplitMix64
from conetheta.serialize import ProblemInstance, parse_instance
from conetheta.theta import ConeSum, cone_sum, sample_points
from conetheta.reduced import cohomology_ranks
from test_modular import theta_g_term


def _report(num: int, name: str, ok: bool):
    print("ACCEPTANCE %02d %-28s %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, name)


def _cm(M):
    return [
        [{"re": float(z.real), "im": float(z.imag)} for z in row]
        for row in np.asarray(M, complex)
    ]


def _inst(n, k, omega, **extra) -> ProblemInstance:
    payload = {"n": n, "k": k, "omega": _cm(omega)}
    payload.update(extra)
    return parse_instance(payload)


CASE2_G = {
    "A": [[1, 0], [0, 1]],
    "B": [[2, 1], [1, 0]],
    "C": [[0, 0], [0, 0]],
    "D": [[1, 0], [0, 1]],
}


def test_criterion_01_classical_limit():
    tv = cone_sum(np.array([0j]), np.array([[1j]]), ConeSpec.full_lattice(1), 1e-10)
    oracle = sum(math.exp(-math.pi * m * m) for m in range(-10, 11))
    closed = math.pi**0.25 / math.gamma(0.75)
    ok = abs(tv.value - oracle) <= 1e-10 and abs(tv.value - closed) <= 1e-9
    _report(1, "classical-limit", ok)


def test_criterion_02_cocycle_suite():
    reports = [
        suite_cocycle(_inst(1, 0, [[1j]])),
        suite_cocycle(_inst(1, 1, [[-1j]])),
        suite_cocycle(_inst(2, 1, np.diag([-1j, 1j]), g=CASE2_G)),
    ]
    ok = all(r.passed for r in reports)
    worst = max(
        (c.residual for r in reports for c in r.checks if c.residual is not None),
        default=0.0,
    )
    ok = ok and worst < 1e-8
    _report(2, "cocycle-residuals<1e-8", ok)


def test_criterion_03_heat_suite():
    rep1 = suite_heat(_inst(1, 0, [[1j]], characteristic={"a": ["1/2"], "delta": [2]}))
    rep2 = suite_heat(_inst(2, 1, np.diag([-1j, 1j]), g=CASE2_G))
    ok = rep1.passed and rep2.passed
    # termwise annihilation in three dimensions, definite and indefinite
    om3 = np.array([[1j, 0.1, 0.0], [0.1, 2j, 0.2], [0.0, 0.2, -1j]])
    worst = 0.0
    for K in itertools.product(*([range(-5, 6)] * 3)):
        for i in range(1, 4):
            for j in range(i, 4):
                worst = max(worst, heat_term_residual(np.array(K, float), om3, i, j))
    ok = ok and worst < 1e-14
    # the inversion image at n = 1 is annihilated as well
    g = ModularElement(np.array([[0]]), np.array([[-1]]), np.array([[1]]), np.array([[0]]))
    point = ConeSpec(np.zeros((1, 0), dtype=np.int64), (0,))
    fam = ModularImage(ConeSum(point, 1e-13), g, 1.0)
    r_inv = heat_fd_residual(fam, np.array([[-1j]]), np.array([0.2 + 0.1j]), 1, 1, eps=1e-4)
    ok = ok and r_inv < 1e-6
    _report(3, "heat-termwise+fd", ok)


def test_criterion_04_modular_case2():
    rep = suite_modular_case2(_inst(2, 1, np.diag([-1j, 1j]), g=CASE2_G))
    by_name = {c.name: c for c in rep.checks}
    ok = rep.passed and by_name["omega_minus_B"].residual == 0.0
    ok = ok and by_name["pointwise_equality"].residual < 1e-9
    _report(4, "modular-case2", ok)


def test_criterion_05_modular_case3_1d():
    ok = True
    for tau in (-1j, -2j, 0.3 - 1.2j):
        rep = suite_modular_case3_1d(_inst(1, 1, [[tau]]))
        ok = ok and rep.passed
    _report(5, "modular-case3-1d", ok)


def test_criterion_06_wedge_coboundary():
    rep = suite_wedge(_inst(2, 1, np.diag([-1j, 2j])))
    by_name = {c.name: c for c in rep.checks}
    ok = (
        rep.passed
        and by_name["shear_direction_identity"].residual < 1e-8
        and by_name["next_direction_identity"].residual < 1e-8
    )
    _report(6, "wedge-coboundary", ok)


def test_criterion_07_koszul_exact():
    rep = suite_koszul(_inst(2, 1, np.diag([-1j, 1j])))
    ok = rep.passed
    # the three structural identities, re-checked verbatim here
    rank = 4
    img = s_star(type_Ia(np.array([[1, 0], [2, 1]])), KoszulChain.generator(rank, (0,)))
    ok = ok and img.components.get((0,)) == GroupRingElement.one(rank)
    img = s_star(type_Ib(2, 2), KoszulChain.generator(rank, (0, 1)), (1, 0, 2, 3))
    ok = ok and img.components.get((0, 1)) == GroupRingElement.one(rank)
    img = s_star(type_Ic(2, 1), KoszulChain.generator(rank, (1,)))
    ok = ok and img.components == {
        (0,): GroupRingElement.one(rank),
        (1,): GroupRingElement.monomial((1, 0, 0, 0)),
    }
    img = s_star(type_III(2), KoszulChain.generator(rank, (2,)))
    ok = ok and img.components == {(0,): GroupRingElement.one(rank)}
    _report(7, "koszul-exact", ok)


def test_criterion_08_reduced_complex():
    rep = suite_reduced(_inst(2, 1, np.diag([-1j, 1j])))
    ok = rep.passed
    ok = ok and cohomology_ranks(1, 5) == [0, 1] and cohomology_ranks(2, 5) == [0, 0, 1]
    ok = ok and cohomology_ranks(1, 6) == [0, 1] and cohomology_ranks(2, 6) == [0, 0, 1]
    _report(8, "reduced-betti", ok)


def test_criterion_09_quasi_shift():
    # 100 seeded draws split between one and two dimensions; the residual is
    # normalised by the term magnitude (the identity is exact and both sides
    # can be exponentially large, so machine precision is relative)
    rng = SplitMix64(0x7E7A)
    worst = 0.0

    def rel(a, b):
        return abs(a - b) / max(1.0, abs(a), abs(b))

    for n, om in ((1, np.array([[0.2 + 1j]])), (2, np.array([[-1j, 0.3], [0.3, 1.5j]]))):
        draws = 0
        while draws < 50:
            g = random_gamma12(n, rng, 2)
            try:
                omega_transform(g, om)
            except SingularDenominator:
                continue
            K = np.array([rng.next_int(-1, 1) for _ in range(n)])
            M = np.array([rng.next_int(-1, 1) for _ in range(n)])
            N = np.array([rng.next_int(-1, 1) for _ in range(n)])
            Z = sample_points(n, 1, rng.next_int(0, 10**6))[0]
            lhs = theta_g_term(K, Z + M + om @ N, om, g, 1.0) * cmath.exp(
                2j * math.pi * (N @ Z) + 1j * math.pi * (N @ om @ N)
            )
            rhs = theta_g_term(K + g.A.T @ N + g.C.T @ M, Z, om, g, 1.0)
            worst = max(worst, rel(lhs, rhs))
            draws += 1
    _report(9, "quasi-shift-100-draws", worst < 1e-8)


def test_criterion_10_characteristics():
    ok = True
    for delta, a in (([1, 2], ["0", "1/2"]), ([2, 2], ["1/2", "1/2"])):
        rep = suite_characteristics(
            _inst(2, 1, np.diag([-1j, 1j]), characteristic={"a": a, "delta": delta})
        )
        ok = ok and rep.passed
        by_name = {c.name: c for c in rep.checks}
        ok = ok and by_name["class_count_det_delta"].passed
        twisted = [c.residual for c in rep.checks if c.name.startswith("twisted:")]
        ok = ok and max(twisted) < 1e-8
    _report(10, "characteristics", ok)

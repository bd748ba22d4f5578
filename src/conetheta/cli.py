"""Command line front end: JSON problem instances in, deterministic JSON
reports out.

Commands:
  eval         cone-restricted theta sum (with optional characteristic)
  transform    period-matrix transform, half-determinant and multiplier
  split-basis  bounded search for a split basis
  verify       named verification suites

Exit codes: 0 success / all checks passed; 1 a verification check failed;
2 validation failure; 3 truncation radius overflow; 4 split-basis search
exhausted.  Reports contain no timestamps, so a given instance and seed
always produce byte-identical output; wall time goes to stderr.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import itertools
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import (
    ConethetaError,
    NotFound,
    RadiusOverflow,
    ValidationError,
)
from .heat import heat_fd_residual, heat_term_residual
from .intmat import unimodular_inverse
from .koszul import (
    GroupRingElement,
    KoszulChain,
    koszul_d,
    random_Ia_block,
    random_type_word,
    s_star,
    telescope_decompose,
    type_Ia,
    type_Ib,
    type_Ic,
    type_III,
    verify_chain_map,
    x_minus_one,
)
from .lattice import (
    ConeSpec,
    ModularElement,
    SplitBasis,
    find_split_basis,
    is_gamma12,
    transform_basis,
    wedge_cones,
)
from .linalg import principal_sqrt_det, signature
from .modular import (
    determine_zeta,
    modular_apply,
    omega_transform,
    round_trip_residual,
    verify_case3_1d,
)
from .reduced import (
    CoefficientArray,
    cohomology_ranks,
    partial_sum_preimage,
    shift_delta,
    shift_injectivity_deficit,
)
from .rng import SplitMix64
from .serialize import (
    ProblemInstance,
    basis_to_json,
    check_tolerance,
    complex_to_json,
    dumps_canonical,
    load_instance,
    matrix_to_json,
    theta_value_to_json,
)
from .theta import (
    ConeSum,
    ThetaValue,
    lambda_action,
    reduced_characteristics,
    sample_points,
    verify_cocycle,
    wedge_function,
)

TOL_SUM = 1e-10
TOL_IDENTITY = 1e-8
TOL_FD = 1e-6


@dataclass
class CheckRecord:
    name: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None
    exact: bool = False

    def to_json(self) -> dict:
        out = {"name": self.name, "pass": bool(self.passed)}
        if self.exact:
            out["exact"] = True
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
        return out


@dataclass
class VerificationReport:
    suite: str
    checks: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, residual: float, tol: float):
        self.checks.append(CheckRecord(name, residual < tol, residual, tol))

    def add_exact(self, name: str, ok: bool):
        self.checks.append(CheckRecord(name, ok, exact=True))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [c.to_json() for c in self.checks],
            "pass": self.passed,
        }


def _positive_cone(inst: ProblemInstance) -> tuple[SplitBasis, ConeSpec]:
    basis = inst.basis or find_split_basis(inst.omega.imag, inst.k)
    cone = ConeSpec(basis.positive_generators(), (0,) * inst.n)
    return basis, cone


def _add_cocycle(rep: VerificationReport, prefix: str, residuals: dict, tol: float):
    """One check per direction of a verify_cocycle result, named
    prefix:direction."""
    for name, r in residuals.items():
        rep.add("%s:%s" % (prefix, name), r, tol)


# ---------------------------------------------------------------------------
# verification suites

def suite_cocycle(inst: ProblemInstance) -> VerificationReport:
    rep = VerificationReport("cocycle")
    tol = inst.tol("identity", TOL_IDENTITY)
    basis, cone = _positive_cone(inst)
    c = ConeSum(cone, inst.tol("sum", TOL_SUM) * 1e-2).bind(inst.omega)
    _add_cocycle(rep, "c", verify_cocycle(c, basis.columns_2n(), basis.k, seed=inst.seed), tol)
    if inst.g is not None and not np.any(inst.g.C):
        zeta, _ = determine_zeta(inst.g, c)
        cg = modular_apply(inst.g, c, zeta)
        cols, _ = transform_basis(inst.g, basis)
        _add_cocycle(rep, "c^g", verify_cocycle(cg, cols, inst.k, seed=inst.seed), tol)
    return rep


def suite_heat(inst: ProblemInstance) -> VerificationReport:
    rep = VerificationReport("heat")
    tol_term = inst.tol("heat_term", 1e-14)
    tol_fd = inst.tol("fd", TOL_FD)
    n = inst.n
    pairs = list(itertools.combinations_with_replacement(range(1, n + 1), 2))
    basis, cone = _positive_cone(inst)
    fam = ConeSum(cone, 1e-13)
    Z = np.full(n, 0.2 + 0.05j, dtype=complex)
    # each family is bound once: every fd step rebinds it, and its value at
    # Z serves every diagonal stencil
    bound = fam.bind(inst.omega)
    ((centre, _, radius),) = bound.evaluate([Z])
    # the termwise identity on the points the fd family's sum enumerates
    points = bound.points(radius)
    residuals = [heat_term_residual(points, inst.omega, i, j) for i, j in pairs]
    rep.add("termwise_max", float(np.max(residuals)), tol_term)

    def add_fd(prefix: str, bound, centre: complex) -> None:
        for i, j in pairs:
            rep.add("%s_%d%d" % (prefix, i, j), heat_fd_residual(bound, Z, centre, i, j), tol_fd)

    add_fd("fd", bound, centre)
    r_coarse = heat_fd_residual(bound, Z, centre, n, n, eps=2e-3)
    r_fine = heat_fd_residual(bound, Z, centre, n, n, eps=1e-3)
    if r_coarse == 0.0 and r_fine == 0.0:
        # a constant family (the rank-0 cone at k = n) is annihilated exactly
        scaling_ok = True
    else:
        factor = r_coarse / r_fine if r_fine else float("inf")
        scaling_ok = 2.5 <= factor <= 6.0
    rep.add_exact("fd_scaling_factor_in_[2.5,6]", scaling_ok)

    if inst.g is not None:
        zeta = 1.0 if np.any(inst.g.C) else determine_zeta(inst.g, bound)[0]
        image = modular_apply(inst.g, bound, zeta)
        add_fd("fd_transformed", image, image(Z).value)
    if inst.characteristic is not None:
        shifted = ConeSum(cone.with_extra_shift(inst.characteristic.a), 1e-13).bind(inst.omega)
        add_fd("fd_characteristic", shifted, shifted(Z).value)
    return rep


def suite_modular_case1(inst: ProblemInstance) -> VerificationReport:
    rep = VerificationReport("modular-case1")
    tol = inst.tol("identity", TOL_IDENTITY)
    n = inst.n
    rng = SplitMix64(inst.seed)
    basis, _ = _positive_cone(inst)
    zero = np.zeros((n, n), dtype=np.int64)
    mats = [random_Ia_block(n, max(inst.k, 1), rng) for _ in range(3)]
    for idx, A in enumerate(mats):
        g = ModularElement(A.T, zero, zero, unimodular_inverse(A))
        og = omega_transform(g, inst.omega)
        rep.add("symmetric_%d" % idx, float(np.max(np.abs(og - og.T))), 1e-12)
        rep.add_exact(
            "signature_preserved_%d" % idx,
            signature(og.imag) == signature(inst.omega.imag),
        )
        rep.add("round_trip_%d" % idx, round_trip_residual(g, inst.omega, og), 1e-10)
        cols, S = transform_basis(g, basis)
        rep.add_exact(
            "block_diagonal_%d" % idx,
            not np.any(cols[n:, :n]) and not np.any(cols[:n, n:]),
        )
        rep.add_exact("chain_map_%d" % idx, verify_chain_map(S))
    # top-coefficient identities for the structural types
    top = tuple(range(max(inst.k, 1)))
    Sia = type_Ia(mats[0])
    img = s_star(Sia, KoszulChain.generator(2 * n, top))
    rep.add_exact(
        "type_Ia_top_coefficient_1",
        img.components.get(top) == GroupRingElement.one(2 * n),
    )
    if n >= 2:
        kk = max(inst.k, 2)
        order = [kk - 1, kk - 2] + [i for i in range(2 * n) if i not in (kk - 1, kk - 2)]
        img = s_star(type_Ib(n, kk), KoszulChain.generator(2 * n, tuple(range(kk))), order)
        rep.add_exact(
            "type_Ib_top_coefficient_1",
            img.components.get(tuple(range(kk))) == GroupRingElement.one(2 * n),
        )
    return rep


def suite_modular_case2(inst: ProblemInstance) -> VerificationReport:
    rep = VerificationReport("modular-case2")
    if inst.g is None or np.any(inst.g.C) or not is_gamma12(inst.g):
        raise ValidationError("suite requires an upper-triangular theta-subgroup element")
    g = inst.g
    og = omega_transform(g, inst.omega)
    rep.add(
        "omega_minus_B",
        float(np.max(np.abs(og - (inst.omega - g.B.astype(complex))))),
        1e-12,
    )
    basis, cone = _positive_cone(inst)
    c = ConeSum(cone, 1e-12).bind(inst.omega)
    zeta, fit_resid = determine_zeta(g, c)
    rep.add_exact("zeta_is_unit", abs(abs(zeta) - 1) < 1e-9)
    rep.add("zeta_fit_residual", fit_resid, inst.tol("identity", TOL_IDENTITY))
    cg = modular_apply(g, c, zeta)
    samples = sample_points(inst.n, 5, inst.seed)
    worst = 0.0
    for a, b in zip(c.stack(samples), cg.stack(samples)):
        worst = max(worst, abs(a.value - b.value))
    rep.add("pointwise_equality", worst, inst.tol("case2", 1e-9))
    cols, _ = transform_basis(g, basis)
    resg = verify_cocycle(cg, cols, inst.k, seed=inst.seed)
    _add_cocycle(rep, "c^g", resg, inst.tol("identity", TOL_IDENTITY))
    return rep


def suite_modular_case3_1d(inst: ProblemInstance) -> VerificationReport:
    rep = VerificationReport("modular-case3-1d")
    if inst.n != 1:
        raise ValidationError("suite requires n = 1")
    tau = complex(inst.omega[0, 0])
    if tau.imag >= 0:
        raise ValidationError("suite requires Im(omega) < 0")
    tol = inst.tol("identity", TOL_IDENTITY)
    out = verify_case3_1d(tau, tol)
    rep.add("translation_identity_max", out["translation_max"], tol)
    rep.add("period_identity_max", out["period_max"], tol)
    rep.add("zeta_constancy", out["zeta_spread"], tol)
    rep.add("zeta_eighth_root", abs(out["zeta"] ** 8 - 1.0), tol)
    return rep


def suite_wedge(inst: ProblemInstance) -> VerificationReport:
    rep = VerificationReport("wedge")
    if inst.n < 2 or not (1 <= inst.k <= inst.n - 1):
        raise ValidationError("suite requires n >= 2 and 1 <= k <= n-1")
    tol = inst.tol("identity", TOL_IDENTITY)
    basis, cone = _positive_cone(inst)
    f = wedge_function(basis, inst.omega, tol=1e-12)
    e_plain, e_trans = (ConeSum(c, 1e-12).bind(inst.omega) for c in wedge_cones(basis))
    shear = tuple(int(x) for x in basis.N[:, basis.k - 1])
    after = tuple(int(x) for x in basis.N[:, basis.k])
    samples = sample_points(inst.n, 5, inst.seed)
    stacks = zip(
        f.stack(samples),
        lambda_action((0,) * inst.n, shear, f).stack(samples),
        lambda_action((0,) * inst.n, after, f).stack(samples),
        e_plain.stack(samples),
        e_trans.stack(samples),
    )
    worst1 = worst2 = 0.0
    for base, sheared, next_, plain, trans in stacks:
        lhs1 = sheared.value - base.value
        worst1 = max(worst1, abs(lhs1 - (plain.value - trans.value)))
        lhs2 = next_.value - base.value
        worst2 = max(worst2, abs(lhs2 + trans.value))
    rep.add("shear_direction_identity", worst1, tol)
    rep.add("next_direction_identity", worst2, tol)
    return rep


def suite_koszul(inst: ProblemInstance) -> VerificationReport:
    rep = VerificationReport("koszul")
    n = 2
    rank = 2 * n
    rng = SplitMix64(inst.seed)
    # d o d = 0 on random chains
    ok_dd = True
    for _ in range(20):
        deg = rng.next_int(2, 3)
        comps = {}
        subs = list(itertools.combinations(range(rank), deg))
        for _ in range(3):
            sub = subs[rng.next_int(0, len(subs) - 1)]
            terms = {}
            for _ in range(3):
                exp = tuple(rng.next_int(-3, 3) for _ in range(rank))
                terms[exp] = rng.next_int(-3, 3)
            comps[sub] = GroupRingElement(rank, terms)
        chain = KoszulChain(rank, deg, comps)
        if not koszul_d(koszul_d(chain)).is_zero():
            ok_dd = False
    rep.add_exact("d_squared_zero", ok_dd)
    # telescoping reconstruction
    ok_tel = True
    for _ in range(200):
        exp = [rng.next_int(-4, 4) for _ in range(rank)]
        total = GroupRingElement.one(rank)
        for j, R in enumerate(telescope_decompose(exp)):
            step = [0] * rank
            step[j] = 1
            total = total + R * x_minus_one(rank, step)
        if total != GroupRingElement.monomial(exp):
            ok_tel = False
    rep.add_exact("telescope_reconstruction", ok_tel)
    # chain maps over random structural words
    ok_words = True
    for _ in range(50):
        S = random_type_word(n, 1, rng.next_int(1, 3), rng)
        if not verify_chain_map(S):
            ok_words = False
    rep.add_exact("chain_map_50_words", ok_words)
    # the three structural identities
    img = s_star(type_Ia(np.array([[1, 0], [2, 1]])), KoszulChain.generator(rank, (0,)))
    rep.add_exact("type_Ia_top_1", img.components.get((0,)) == GroupRingElement.one(rank))
    img = s_star(type_Ib(n, 2), KoszulChain.generator(rank, (0, 1)), (1, 0, 2, 3))
    rep.add_exact("type_Ib_top_1", img.components.get((0, 1)) == GroupRingElement.one(rank))
    img = s_star(type_Ic(n, 1), KoszulChain.generator(rank, (1,)))
    ic_ok = img.components.get((0,)) == GroupRingElement.one(rank) and img.components.get(
        (1,)
    ) == GroupRingElement.monomial((1, 0, 0, 0))
    rep.add_exact("type_Ic_two_components", ic_ok)
    img = s_star(type_III(n), KoszulChain.generator(rank, (2,)))
    rep.add_exact(
        "type_III_v_to_u",
        img.components == {(0,): GroupRingElement.one(rank)},
    )
    # augmentation compatibility
    ok_aug = True
    for sub in [(0,), (1,), (2,), (3,)]:
        d = koszul_d(KoszulChain.generator(rank, sub))
        if any(g.augmentation() != 0 for g in d.components.values()):
            ok_aug = False
    rep.add_exact("augmentation_kills_d", ok_aug)
    return rep


def suite_reduced(inst: ProblemInstance) -> VerificationReport:
    rep = VerificationReport("reduced")
    rep.add_exact("betti_k1_w5", cohomology_ranks(1, 5) == [0, 1])
    rep.add_exact("betti_k2_w5", cohomology_ranks(2, 5) == [0, 0, 1])
    rep.add_exact("betti_k1_stable", cohomology_ranks(1, 6) == [0, 1])
    rep.add_exact("betti_k2_stable", cohomology_ranks(2, 6) == [0, 0, 1])
    rep.add_exact(
        "shift_injective",
        shift_injectivity_deficit(1, 5, 1) == 0 and shift_injectivity_deficit(2, 5, 2) == 0,
    )
    rng = SplitMix64(inst.seed)
    ok = True
    for _ in range(100):
        k = rng.next_int(1, 2)
        w = 5
        raw = {}
        for _ in range(6):
            # support in the nonnegative range of every direction, where the
            # partial-sum formula telescopes cleanly
            pt = tuple(rng.next_int(0, 2) for _ in range(k))
            raw[pt] = rng.next_int(-3, 3)
        q = rng.next_int(1, k)
        seedarr = CoefficientArray(k, w, raw)
        a = shift_delta(seedarr, q)  # line sums along q vanish by construction
        b = partial_sum_preimage(a, q)
        if shift_delta(b, q).values != a.values:
            ok = False
    rep.add_exact("preimage_inverts_delta", ok)
    return rep


def suite_characteristics(inst: ProblemInstance) -> VerificationReport:
    rep = VerificationReport("characteristics")
    if inst.characteristic is None:
        raise ValidationError("suite requires a characteristic")
    char = inst.characteristic
    tol = inst.tol("identity", TOL_IDENTITY)
    classes = reduced_characteristics(char.delta)
    want = int(np.prod(char.delta))
    rep.add_exact("class_count_det_delta", len(classes) == want)
    rep.add_exact("classes_distinct", len({c.a for c in classes}) == want)
    basis, cone = _positive_cone(inst)
    shifted = cone.with_extra_shift(char.a)
    c = ConeSum(shifted, 1e-12).bind(inst.omega)
    res = verify_cocycle(c, basis.columns_2n(), basis.k, delta=char.delta, seed=inst.seed)
    _add_cocycle(rep, "twisted", res, tol)
    # a shift by a lattice vector of the cone is absorbed by it: the sum
    # starts from the moved shift (ConeForm's exact move), over the same
    # points.  A rank-0 cone (k = n) has no such vector, and the check
    # compares the sum with itself
    plain = ConeSum(cone, 1e-12).bind(inst.omega)
    lattice_vector = [10**6 * sum(int(x) for x in row) for row in cone.generators]
    intshift = ConeSum(cone.with_extra_shift(lattice_vector), 1e-12).bind(inst.omega)
    samples = sample_points(inst.n, 3, inst.seed)
    worst = 0.0
    for a, b in zip(plain.stack(samples), intshift.stack(samples)):
        worst = max(worst, abs(a.value - b.value))
    rep.add("integral_shift_absorbed", worst, 1e-10)
    return rep


SUITES = {
    "cocycle": suite_cocycle,
    "heat": suite_heat,
    "modular-case1": suite_modular_case1,
    "modular-case2": suite_modular_case2,
    "modular-case3-1d": suite_modular_case3_1d,
    "wedge": suite_wedge,
    "koszul": suite_koszul,
    "reduced": suite_reduced,
    "characteristics": suite_characteristics,
}


# ---------------------------------------------------------------------------
# commands

def _parse_z(text: str, n: int) -> np.ndarray:
    try:
        parts = [p for p in text.split(";") if p.strip()]
        vals = [complex(float(re), float(im)) for re, im in (p.split(",") for p in parts)]
    except ValueError as exc:
        raise ValidationError("cannot parse --z %r" % text) from exc
    if len(vals) != n:
        raise ValidationError("--z has %d components, expected %d" % (len(vals), n))
    if not all(cmath.isfinite(v) for v in vals):
        raise ValidationError("--z has a non-finite component: %r" % text)
    return np.array(vals, dtype=complex)


def _emit(payload: dict, json_out: str | None):
    text = dumps_canonical(payload)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_eval(args) -> int:
    inst = load_instance(args.instance)
    Z = _parse_z(args.z, inst.n) if args.z else np.zeros(inst.n, dtype=complex)
    cone = inst.cone if inst.cone is not None else _positive_cone(inst)[1]
    if args.tol is not None:
        tol = check_tolerance("--tol", args.tol)
    else:
        tol = inst.tol("sum", TOL_SUM)
    if inst.characteristic is not None:
        cone = cone.with_extra_shift(inst.characteristic.a)
    if not (math.isfinite(args.radius_max) and args.radius_max > 0):
        raise ValidationError("--radius-max must be finite and > 0, got %r" % args.radius_max)
    fam = ConeSum(cone, tol, max_radius=args.radius_max)
    value, tail, radius = fam.evaluate(inst.omega, Z)
    _emit(theta_value_to_json(ThetaValue(value, tail), radius), args.json_out)
    return 0


def cmd_transform(args) -> int:
    inst = load_instance(args.instance)
    if inst.g is None:
        raise ValidationError("instance has no modular element")
    g = inst.g
    if not is_gamma12(g):
        raise ValidationError("element is not in the theta subgroup")
    og = omega_transform(g, inst.omega)
    sqrt_det = principal_sqrt_det(g.C.astype(complex) @ og + g.D.astype(complex))
    try:
        if g.is_identity():  # zeta = 1 needs no sum, and so no split basis
            zeta, fit_resid = 1.0, 0.0
        else:
            zeta, fit_resid = determine_zeta(g, ConeSum(_positive_cone(inst)[1], TOL_SUM).bind(inst.omega))
        zeta_json = complex_to_json(zeta)
    except ConethetaError:
        zeta_json = None
        fit_resid = None
    residuals = {
        "round_trip": round_trip_residual(g, inst.omega, og),
        "symmetry": float(np.max(np.abs(og - og.T))),
    }
    if fit_resid is not None:
        residuals["zeta_fit"] = float(fit_resid)
    _emit(
        {
            "omega_g": matrix_to_json(og),
            "sqrt_det": complex_to_json(sqrt_det),
            "zeta": zeta_json,
            "residuals": residuals,
        },
        args.json_out,
    )
    return 0


def cmd_split_basis(args) -> int:
    inst = load_instance(args.instance)
    basis = find_split_basis(inst.omega.imag, inst.k, args.bound)
    _emit(basis_to_json(basis), args.json_out)
    return 0


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    if args.suite == "all":
        names = list(SUITES)
        if inst.basis is None:
            # one split-basis search for every suite.  When it fails, the
            # instance stays without a basis, so each suite that needs one
            # meets the same error where it searches, and is skipped as before
            try:
                inst = dataclasses.replace(inst, basis=find_split_basis(inst.omega.imag, inst.k))
            except ConethetaError:
                pass
    else:
        if args.suite not in SUITES:
            raise ValidationError("unknown suite %r" % args.suite)
        names = [args.suite]
    reports = []
    overall = True
    for name in names:
        t0 = time.perf_counter()
        try:
            rep = SUITES[name](inst)
        except ConethetaError as exc:
            if args.suite == "all":
                reports.append({"suite": name, "skipped": str(exc)})
                continue
            raise
        rep.elapsed = time.perf_counter() - t0
        print("suite %-18s %-4s (%.2fs)" % (name, "pass" if rep.passed else "FAIL", rep.elapsed), file=sys.stderr)
        overall = overall and rep.passed
        reports.append(rep.to_json())
    payload = reports[0] if len(reports) == 1 and args.suite != "all" else {
        "suites": reports,
        "pass": overall,
    }
    _emit(payload, args.json_out)
    return 0 if overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conetheta",
        description="cone-restricted theta computation and verification kernel",
    )
    parser.add_argument("--version", action="version", version="conetheta %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a cone-restricted theta sum")
    p.add_argument("--instance", required=True)
    p.add_argument("--z", default=None, help='argument as "re,im;re,im;..."')
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--radius-max", type=float, default=64.0)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transform", help="apply the instance's modular element")
    p.add_argument("--instance", required=True)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("split-basis", help="search for a split basis")
    p.add_argument("--instance", required=True)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_split_basis)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--instance", required=True)
    p.add_argument("--suite", required=True, help="one of %s or 'all'" % ", ".join(SUITES))
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RadiusOverflow as exc:
        print("radius overflow: %s" % exc, file=sys.stderr)
        return 3
    except NotFound as exc:
        print("not found: %s" % exc, file=sys.stderr)
        return 4
    except ConethetaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

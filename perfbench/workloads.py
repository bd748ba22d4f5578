"""Seeded inputs, operations and output checks of the three workloads.

Each workload's op list is a fixed number of passes.  A pass has a fixed
mix of op classes; the seed draws only the numbers inside the ops, so the
cost of a pass hardly depends on the seed.  Inputs are plain JSON data, and the program
sees them only through ``serialize.parse_instance``.  Checks and reference
values are computed here with numpy alone, never with conetheta code.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TOL_SUM = 1e-10
SPLIT_BOUND = 3
EPS = float(np.finfo(float).eps)
_POS_TOL = 1e-10
#: lattice points per vectorised block of the cone-sum reference
REF_CHUNK = 8192

SKIPPED = "skipped"
NOT_FOUND = "not-found"


def _cx(z) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _omega_json(omega: np.ndarray) -> list:
    return [[_cx(z) for z in row] for row in omega]


def _omega_array(payload: dict) -> np.ndarray:
    return np.array([[complex(z["re"], z["im"]) for z in row] for row in payload["omega"]])


def _int_inverse(P: np.ndarray) -> np.ndarray:
    """Inverse of a small unimodular integer matrix, checked exactly."""
    N = np.rint(np.linalg.inv(P.astype(float))).astype(np.int64)
    if not np.array_equal(P @ N, np.eye(len(P), dtype=np.int64)):
        raise ArithmeticError("matrix is not unimodular")
    return N


def _posdef(A: np.ndarray) -> bool:
    if A.shape[0] == 0:
        return True
    eig = np.linalg.eigvalsh((A + A.T) / 2)
    return bool(eig.min() > _POS_TOL * max(1.0, float(np.abs(eig).max())))


def split_check(N, M, Q, k: int, bound: int) -> str:
    """Empty string when (N, M) is a split basis of Q with index k and
    N-entries within ``bound``; otherwise the reason it is not."""
    N = [[int(x) for x in row] for row in N]
    M = [[int(x) for x in row] for row in M]
    n = len(Q)
    if len(N) != n or len(M) != n or any(len(r) != n for r in N + M):
        return "basis shape"
    for i in range(n):
        for j in range(n):
            if sum(N[r][i] * M[r][j] for r in range(n)) != (i == j):
                return "tN @ M != I"
    if max(abs(x) for row in N for x in row) > bound:
        return "N entries exceed the bound"
    Q = np.asarray(Q, dtype=float)
    Np = np.array(N, dtype=float)[:, k:]
    Mp = np.array(M, dtype=float)[:, k:]
    if not _posdef(Np.T @ Q @ Np):
        return "Q not positive on the last N-columns"
    if not _posdef(Mp.T @ np.linalg.inv(Q) @ Mp):
        return "Q^-1 not positive on the last M-columns"
    return ""


class Workload:
    """One workload: op generation, preparation (parsing), the timed
    operation, an optional reference value and the output check."""

    name = ""
    #: passes in the op list; the list is repeated in rounds until the run's
    #: time is up, and an op's latency is a high percentile of its rounds
    passes = 2
    #: op classes of 0.2 s or more, kept in the first pass only: a short
    #: round gives each op more rounds, and so a steadier latency
    first_pass_only: frozenset = frozenset()

    def generate(self, seed: int, passes: int, kernel) -> list[list[dict]]:
        rng = np.random.default_rng([seed, 0xC07E])
        plan = [self._pass(rng, p, kernel) for p in range(passes)]
        return plan[:1] + [[op for op in ops if op["cls"] not in self.first_pass_only] for ops in plan[1:]]

    def _pass(self, rng, index: int, kernel) -> list[dict]:
        raise NotImplementedError

    def warmup(self, ops: list[dict]) -> dict:
        """The op run once at the end of each set-up."""
        raise NotImplementedError

    def prepare(self, kernel, op: dict):
        return kernel.serialize.parse_instance(op["payload"])

    def execute(self, kernel, prepared):
        raise NotImplementedError

    def reference(self, op: dict):
        return None

    def check(self, op: dict, output, ref) -> str | None:
        """Empty string when the output is correct, None when the op is a
        skipped one, else the reason it failed."""
        raise NotImplementedError

    def known_failure(self, op: dict, reason: str) -> bool:
        return False


# ---------------------------------------------------------------------------
# cone-eval

# (n, k, ops per pass, of which theta_char ops).  Most ops have n <= 4.  The
# cone-rank-5 ops (5, 0) and (6, 1), in the first pass only, take about half
# of a round; with them, the cone-rank-4 ops (4, 0), (5, 1) and (6, 2) carry
# the tail.
# (6, 0) is left out: one full-lattice n = 6 sum takes 2.3 s at the seed.
CONE_MIX = (
    (1, 0, 4, 0),
    (2, 0, 4, 0),
    (2, 1, 4, 1),
    (3, 0, 4, 0),
    (3, 1, 4, 1),
    (3, 2, 4, 0),
    (4, 0, 4, 0),
    (4, 1, 4, 0),
    (4, 2, 4, 1),
    (4, 3, 4, 0),
    (5, 0, 1, 0),
    (5, 1, 1, 0),
    (5, 2, 1, 0),
    (5, 3, 1, 1),
    (5, 4, 1, 0),
    (6, 1, 1, 0),
    (6, 2, 1, 0),
    (6, 3, 1, 0),
    (6, 4, 1, 0),
    (6, 5, 1, 0),
)

#: cones of rank >= 4 get a real Z: with |Im Z| up to 0.3 the seed's radius
#: steps to 6 or 8 there and one op takes 7-22 s, which no run can hold
_REAL_Z_RANK = 4


def _small_unimodular(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P = L U with unit triangular factors, |P| <= 2 and |P^-1| <= 3."""
    while True:
        L = np.tril(rng.integers(-1, 2, (n, n)), -1) + np.eye(n, dtype=np.int64)
        U = np.triu(rng.integers(-1, 2, (n, n)), 1) + np.eye(n, dtype=np.int64)
        P = L @ U
        if np.abs(P).max() > 2:
            continue
        N = _int_inverse(P)
        if np.abs(N).max() <= 3:
            return P, N


class ConeEval(Workload):
    name = "cone-eval"
    # a round takes 1.5-2.5 s on a 2-core x86 VM.  Two passes put the tail
    # among the 12 cone-rank-4 ops, below the 2 cone-rank-5 ops.
    passes = 2
    first_pass_only = frozenset({"n5k0", "n6k1"})

    def _pass(self, rng, index, kernel):
        ops = []
        for n, k, count, chars in CONE_MIX:
            m = n - k
            for j in range(count):
                P, N = _small_unimodular(rng, n)
                # Im(omega) = tP D P, so tN Im(omega) N = D and the last m
                # columns of N span a positive cone.  The positive entries
                # are 1..2, evenly spaced, in a seed-drawn order: the
                # smallest, 1, fixes the enumeration box, and their product,
                # which sets the points kept, is the same for every seed
                d = np.concatenate([-rng.uniform(1, 2, k), rng.permutation(np.linspace(1.0, 2.0, m))])
                Q = P.T @ np.diag(d) @ P
                X = rng.uniform(-0.5, 0.5, (n, n))
                omega = (X + X.T) / 2 + 1j * (Q + Q.T) / 2
                im = 0.0 if m >= _REAL_Z_RANK else 0.3
                Z = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-im, im, n)
                payload = {
                    "n": n,
                    "k": k,
                    "omega": _omega_json(omega),
                    "cone": {"generators": N[:, k:].T.tolist(), "shift": ["0"] * n},
                }
                if j < chars:
                    twos = int(rng.integers(1, n + 1))
                    delta = [1] * (n - twos) + [2] * twos
                    a = [str(Fraction(int(rng.integers(0, dd)), dd)) for dd in delta]
                    payload["characteristic"] = {"a": a, "delta": delta}
                ops.append(
                    {
                        "cls": "n%dk%d%s" % (n, k, "char" if j < chars else ""),
                        "payload": payload,
                        "z": [[float(z.real), float(z.imag)] for z in Z],
                    }
                )
        order = rng.permutation(len(ops))
        out = [ops[i] for i in order]
        for i, op in enumerate(out):
            op["id"] = "p%d-%d" % (index, i)
        return out

    def warmup(self, ops):
        return next(op for op in ops if op["payload"]["n"] == 2)

    def prepare(self, kernel, op):
        inst = kernel.serialize.parse_instance(op["payload"])
        Z = np.array([complex(re, im) for re, im in op["z"]])
        return inst, Z

    def execute(self, kernel, prepared):
        inst, Z = prepared
        if inst.characteristic is not None:
            tv = kernel.theta.theta_char(inst.characteristic, Z, inst.omega, inst.cone, TOL_SUM)
            return tv.value, tv.tail
        value, tail, _ = kernel.theta.ConeSum(inst.cone, TOL_SUM).evaluate(inst.omega, Z)
        return value, tail

    def reference(self, op):
        return cone_reference(op)

    def check(self, op, output, ref):
        value, tail = output
        ref_value, allowance = ref
        if not (math.isfinite(tail) and tail <= TOL_SUM):
            return "tail %r exceeds %g" % (tail, TOL_SUM)
        err = abs(complex(value) - ref_value)
        if not err <= tail + allowance:
            return "|value - reference| = %.3g > tail %.3g + allowance %.3g" % (err, tail, allowance)
        return ""


def cone_reference(op: dict) -> tuple[complex, float]:
    """Brute-force cone sum over a coefficient box much wider than the
    program's radius, with a bound on what the box leaves out.

    Returns (value, allowance).  The allowance is the box truncation bound
    plus 32 eps (1 + pi (|K| |omega| |K| + 2 |K| |Z|)) |term| per term, with
    entrywise absolute values: the rounding error of the phase, which exp
    turns into a relative error of the term, on both sides.
    """
    payload = op["payload"]
    n, k = payload["n"], payload["k"]
    omega = _omega_array(payload)
    Q = omega.imag
    G = np.array(payload["cone"]["generators"], dtype=float).T
    m = n - k
    char = payload.get("characteristic")
    s = np.array([float(Fraction(x)) for x in char["a"]] if char else [0.0] * n)
    Z = np.array([complex(re, im) for re, im in op["z"]])
    y = Z.imag
    A = G.T @ Q @ G
    lam = float(np.linalg.eigvalsh(A).min())
    c0 = np.linalg.solve(A, -G.T @ Q @ s)
    K0 = s + G @ c0
    q_min = float(K0 @ Q @ K0)
    beta = float(np.linalg.norm(G.T @ y))
    lead = -math.pi * q_min + 2 * math.pi * abs(float(K0 @ y))

    def outside(B: int) -> float:
        # points outside the box sit at |c - c0| >= B + 1/2; shell [T, T+1)
        # holds at most (2T + 3)^m of them, each below
        # exp(lead - pi lam T^2 + 2 pi beta T) once T >= beta / lam
        total, T = 0.0, B + 0.5
        while True:
            log_term = m * math.log(2 * T + 3) + lead - math.pi * lam * T * T + 2 * math.pi * beta * T
            term = math.exp(log_term) if log_term < 700 else math.inf
            total += term
            if term < 1e-30 * max(total, 1e-300) or term == 0.0:
                return total
            T += 1.0

    B = max(5, math.ceil(beta / lam) + 2)
    while outside(B) > 1e-15:
        B += 1
    width = 2 * B + 1
    powers = width ** np.arange(m)
    center = np.rint(c0)
    re_sums, im_sums = [], []
    slack = 0.0
    for lo in range(0, width**m, REF_CHUNK):
        idx = np.arange(lo, min(lo + REF_CHUNK, width**m))
        C = (idx[:, None] // powers) % width - B + center
        K = s + C @ G.T
        phase = np.pi * (np.einsum("pi,ij,pj->p", K, omega, K) + 2.0 * (K @ Z))
        absK = np.abs(K)
        phase_abs = np.pi * (np.einsum("pi,ij,pj->p", absK, np.abs(omega), absK) + 2.0 * (absK @ np.abs(Z)))
        terms = np.exp(1j * phase)
        re_sums.append(math.fsum(terms.real))
        im_sums.append(math.fsum(terms.imag))
        slack += float(np.sum((1.0 + phase_abs) * np.abs(terms)))
    value = complex(math.fsum(re_sums), math.fsum(im_sums))
    return value, 32 * EPS * slack + outside(B)


# ---------------------------------------------------------------------------
# verify-all


def _c(re: float, im: float) -> dict:
    return {"re": re, "im": im}


_I2 = [[1, 0], [0, 1]]
_I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
_Z3 = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]

#: the three instances; the workload seed draws the ``seed`` field of each
VERIFY_INSTANCES = {
    # the only instance with Im(omega) < 0 at n = 1, so the only one on
    # which modular-case3-1d runs; k = n, so its heat suite hits the known
    # failure below
    "n1": {"n": 1, "k": 1, "omega": [[_c(0.3, -1.2)]]},
    # the README instance
    "n2": {
        "n": 2,
        "k": 1,
        "omega": [[_c(0.0, -1.0), _c(0.0, 0.0)], [_c(0.0, 0.0), _c(0.0, 2.0)]],
        "basis": {"n": 2, "k": 1, "N": _I2, "M": _I2},
        "g": {"A": _I2, "B": [[2, 1], [1, 0]], "C": [[0, 0], [0, 0]], "D": _I2},
        "characteristic": {"a": ["0", "1/2"], "delta": [1, 2]},
        "cone": {"generators": [[0, 1]], "shift": ["0", "0"]},
        "tolerances": {"sum": 1e-10, "identity": 1e-8, "fd": 1e-6},
    },
    # n = 3, k = 1 with an upper-triangular theta-subgroup element and a
    # characteristic, so every suite but modular-case3-1d could run (the
    # wedge is left out, see LEFT_OUT)
    "n3": {
        "n": 3,
        "k": 1,
        "omega": [
            [_c(0.1, -1.0), _c(0.05, 0.0), _c(0.0, 0.0)],
            [_c(0.05, 0.0), _c(-0.2, 1.5), _c(0.1, 0.2)],
            [_c(0.0, 0.0), _c(0.1, 0.2), _c(0.0, 2.0)],
        ],
        "g": {"A": _I3, "B": [[2, 1, 0], [1, 0, 1], [0, 1, 2]], "C": _Z3, "D": _I3},
        "characteristic": {"a": ["0", "1/2", "1/2"], "delta": [1, 2, 2]},
    },
}

#: the heat suite's check compares 0/0 on a rank-0 cone (k = n), so it
#: fails on the n1 instance at the seed; it is counted as a failed op
KNOWN_HEAT_FAILURE = "checks failed: fd_scaling_factor_in_[2.5,6]"

#: left out of the op list.  The n3 wedge suite takes 5-8 s at the seed
#: (its sums reach cutoff 24 or 48 over a 3-d box), too long to be repeated
#: in enough rounds of one run for a steady latency; the n2 wedge suite runs
#: the same code.  The koszul suite reads nothing of its instance but the
#: seed, so the n1 and n3 copies (0.4 s each) would only repeat n2's work.
LEFT_OUT = frozenset({"n3/wedge", "n1/koszul", "n3/koszul"})

#: the suites whose preconditions reject their instance at the seed, each
#: with a ``ValidationError``; only these are skipped.  Any other error, a
#: precondition failure elsewhere, or one of these suites running at all is
#: a failed op the benchmark does not know, so the op set cannot shrink
#: unnoticed.
KNOWN_SKIPS = frozenset(
    {
        "n1/modular-case2",  # no theta-subgroup element
        "n1/wedge",  # needs n >= 2
        "n1/characteristics",  # no characteristic
        "n2/modular-case3-1d",  # needs n = 1
        "n3/modular-case3-1d",
    }
)


class VerifyAll(Workload):
    name = "verify-all"
    # a round takes 2-3.6 s on a 2-core x86 VM.  Each pass draws its own
    # instance seeds; the second pass gives the median and the tail more
    # samples
    passes = 2
    first_pass_only = frozenset({"n2/koszul", "n2/wedge", "n3/heat"})

    def _pass(self, rng, index, kernel):
        ops = []
        for label, base in VERIFY_INSTANCES.items():
            payload = dict(base, seed=int(rng.integers(0, 2**31)))
            for suite in kernel.cli.SUITES:
                if "%s/%s" % (label, suite) in LEFT_OUT:
                    continue
                ops.append(
                    {
                        "id": "p%d-%s-%s" % (index, label, suite),
                        "cls": "%s/%s" % (label, suite),
                        "payload": payload,
                        "suite": suite,
                    }
                )
        return ops

    def warmup(self, ops):
        return next(op for op in ops if op["cls"] == "n2/cocycle")

    def prepare(self, kernel, op):
        return kernel.serialize.parse_instance(op["payload"]), kernel.cli.SUITES[op["suite"]]

    def execute(self, kernel, prepared):
        inst, suite = prepared
        try:
            return suite(inst)
        except kernel.errors.ValidationError:
            # a suite's precondition check; any other error propagates and
            # fails the op
            return SKIPPED

    def check(self, op, output, ref):
        known_skip = op["cls"] in KNOWN_SKIPS
        if isinstance(output, str) and output == SKIPPED:
            return None if known_skip else "precondition failed outside the seed's skip set"
        if known_skip:
            return "ran, but the seed skips this suite on this instance"
        report = output.to_json()
        if not report["checks"]:
            return "empty report"
        if report["pass"]:
            return ""
        return "checks failed: " + ", ".join(c["name"] for c in report["checks"] if not c["pass"])

    def known_failure(self, op, reason):
        return op["cls"] == "n1/heat" and reason == KNOWN_HEAT_FAILURE


# ---------------------------------------------------------------------------
# split-basis

# (class, n, k, forms per pass).  By cost the classes run hyperbolic
# (5-8 ms) < n3k1 (8-19 ms) < n4k1 ~ n4k3 (80-150 ms) on a 2-core x86 VM;
# over two passes the counts put the median op in the upper quarter of the
# n3k1 group, not at its top, where the seed moves it most, and the tail in
# the middle of the n4k1 and n4k3 group, which carries ops_per_s.  n4k2
# is left out: one search takes 0.5-0.8 s at the seed, so even two of them
# would double a round, halve the rounds each op gets, and set ops_per_s
# by themselves.
SPLIT_MIX = (
    ("n3k1", 3, 1, 15),
    ("hyperbolic", 2, 1, 1),
    ("n4k1", 4, 1, 4),
    ("n4k3", 4, 3, 4),
)

HYPERBOLIC_PLANE = {"n": 2, "k": 1, "omega": [[_c(0.0, 0.0), _c(0.0, 1.0)], [_c(0.0, 1.0), _c(0.0, 0.0)]]}


def _witness(rng, n: int) -> np.ndarray:
    """Signed permutation times one elementary column move.  Witnesses with
    more moves make the seed's exhaustive search take from 0.01 s to over
    17 s per form, which no run of fixed length can average out."""
    N = np.eye(n, dtype=np.int64)
    i, j = rng.choice(n, 2, replace=False)
    N[:, j] += int(rng.choice((-1, 1))) * N[:, i]
    perm = np.eye(n, dtype=np.int64)[rng.permutation(n)] * rng.choice((-1, 1), n)
    return perm @ N


class SplitBasisWorkload(Workload):
    name = "split-basis"
    # a round takes 1.5-2.5 s on a 2-core x86 VM
    passes = 2

    def _pass(self, rng, index, kernel):
        ops = []
        for cls, n, k, count in SPLIT_MIX:
            for _ in range(count):
                if cls == "hyperbolic":
                    ops.append({"cls": cls, "payload": HYPERBOLIC_PLANE, "planted": False})
                    continue
                eye = np.eye(n, dtype=np.int64)
                # D = diag(-1, .., 1): with entries drawn from [1, 2] the cost
                # of one n4k2 search varies twice as much (CV 0.27 vs 0.15)
                D = np.diag([-1.0] * k + [1.0] * (n - k))
                while True:
                    Ninv = _int_inverse(_witness(rng, n)).astype(float)
                    Q = Ninv.T @ D @ Ninv
                    # forms the reference basis already splits never reach
                    # the search
                    if split_check(eye, eye, Q, k, SPLIT_BOUND):
                        break
                payload = {"n": n, "k": k, "omega": _omega_json(1j * Q)}
                ops.append({"cls": cls, "payload": payload, "planted": True})
        order = rng.permutation(len(ops))
        out = [dict(ops[i], id="p%d-%d" % (index, pos)) for pos, i in enumerate(order)]
        return out

    def warmup(self, ops):
        return next(op for op in ops if op["cls"] == "n3k1")

    def execute(self, kernel, inst):
        try:
            return kernel.lattice.find_split_basis(inst.omega.imag, inst.k, bound=SPLIT_BOUND)
        except kernel.errors.NotFound:
            return NOT_FOUND

    def check(self, op, output, ref):
        if isinstance(output, str):
            # only the hyperbolic plane has no split basis
            return "" if not op["planted"] else "NotFound on a form with a planted witness"
        payload = op["payload"]
        Q = _omega_array(payload).imag
        reason = split_check(output.N, output.M, Q, payload["k"], SPLIT_BOUND)
        if not reason and output.k != payload["k"]:
            reason = "basis index %d != %d" % (output.k, payload["k"])
        return reason


WORKLOADS = {w.name: w for w in (ConeEval(), VerifyAll(), SplitBasisWorkload())}

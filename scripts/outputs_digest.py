"""Print SHA-256 digests of the benchmark workloads' outputs, so that two
commits can be compared for bit-identical results.

    python3 scripts/outputs_digest.py --seeds 0 1 2 3 4 5 6 7
    python3 scripts/outputs_digest.py --root OTHER_CHECKOUT --seeds 1 --scale-n 6

Each line is ``workload seed digest ops``.  ``cone-eval``, ``verify-all``
and ``split-basis`` are digested for every seed, over every op of the seed's
op list (both passes), in order, each op run by the workload's own
``prepare`` and ``execute``:

* ``cone-eval``: the op's (value, tail, radius), as the hex of each float;
  the radius is read off the ``ConeSum.evaluate`` call that ``execute``
  makes (directly, or through ``theta_char``);
* ``verify-all``: the suite's report as canonical JSON
  (``serialize.dumps_canonical``), or ``skipped`` where the suite declines
  its instance;
* ``split-basis``: the found basis's ``N``, ``M`` and ``k`` as JSON, or
  ``not-found``.

A ``split-basis-n5`` line per seed digests ``find_split_basis`` (default
bound) on the ROADMAP's ``tP D P`` forms at ``n = 5``, one for each
``k = 1..4`` (``split_forms``), beyond the benchmark's ``n <= 4``: the
found ``N``, ``M`` and ``k`` as JSON.  A ``split-basis-n6`` line per seed
does the same for the ``n = 6`` form at ``k = 3``, whose searches try up
to a few hundred thousand candidate blocks.  An op that raises contributes its
exception's type and message (for ``NotFound``, whether the cap ended the
search).  With ``--scale-n N`` a further line digests every suite's report
on the ROADMAP's scale instance at that ``n``.

The op lists come from ``perfbench.workloads``, which is only read.  Both
it and ``conetheta`` are imported from ``--root`` (default: this checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def load(root: Path) -> tuple[SimpleNamespace, object]:
    """(kernel, perfbench.workloads) imported from the checkout at root."""
    sys.path[:0] = [str(root / "src"), str(root)]
    names = ("errors", "lattice", "serialize", "theta", "cli")
    kernel = SimpleNamespace(**{n: importlib.import_module("conetheta." + n) for n in names})
    origin = Path(kernel.theta.__file__).resolve().parent
    if origin != (root / "src" / "conetheta").resolve():
        raise ImportError("conetheta was imported from %s, not from %s" % (origin, root))
    return kernel, importlib.import_module("perfbench.workloads")


def cone_output(kernel, workload, op: dict) -> str:
    radii = []
    evaluate = kernel.theta.ConeSum.evaluate

    def recording(self, omega, Z):
        row = evaluate(self, omega, Z)
        radii.append(row[2])
        return row

    kernel.theta.ConeSum.evaluate = recording
    try:
        value, tail = workload.execute(kernel, workload.prepare(kernel, op))
    finally:
        kernel.theta.ConeSum.evaluate = evaluate
    (radius,) = radii
    return " ".join(float(x).hex() for x in (value.real, value.imag, tail, radius))


def verify_output(kernel, workload, op: dict) -> str:
    report = workload.execute(kernel, workload.prepare(kernel, op))
    if isinstance(report, str):  # the workload's SKIPPED
        return report
    return kernel.serialize.dumps_canonical(report.to_json())


def basis_json(basis) -> str:
    return json.dumps({"N": basis.N.tolist(), "M": basis.M.tolist(), "k": basis.k})


def split_output(kernel, workload, op: dict) -> str:
    basis = workload.execute(kernel, workload.prepare(kernel, op))
    if isinstance(basis, str):  # the workload's NOT_FOUND
        return basis
    return basis_json(basis)


def search_output(kernel, Q, k: int) -> str:
    return basis_json(kernel.lattice.find_split_basis(Q, k))


def split_forms(seed: int, n: int):
    """The ROADMAP's split-basis forms tP D P for k = 1..n-1, as (Q, k):
    D = diag(-d_1..-d_k, d_{k+1}..d_n) with d = linspace(1, 2, n), and one
    P for every k, made by 2n random unit column moves P_i += +-P_j drawn
    from numpy's default_rng(seed)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    P = np.eye(n, dtype=np.int64)
    for _ in range(2 * n):
        i, j = rng.choice(n, 2, replace=False)
        P[:, i] += int(rng.choice((-1, 1))) * P[:, j]
    d = np.linspace(1.0, 2.0, n)
    for k in range(1, n):
        yield P.T @ np.diag(np.where(np.arange(n) < k, -d, d)) @ P, k


def scale_output(kernel, inst, suite: str) -> str:
    try:
        report = kernel.cli.SUITES[suite](inst)
    except kernel.errors.ValidationError:
        return "skipped"
    return kernel.serialize.dumps_canonical(report.to_json())


def scale_payload(n: int) -> dict:
    """The ROADMAP's scale instance: k = 1, identity basis, Im(omega) =
    diag(-0.5, linspace(1, 2, n-1)), Re(omega) = 0.1 everywhere, seed 7, g
    with A = D = I, C = 0, B_11 = 2, B_{n-1,n} = B_{n,n-1} = 1, and the
    characteristic (0, .., 0, 1/2) of type (1, .., 1, 2)."""
    import numpy as np

    im = [-0.5] + np.linspace(1.0, 2.0, n - 1).tolist()
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    zero = [[0] * n for _ in range(n)]
    B = [row[:] for row in zero]
    B[0][0] = 2
    B[n - 2][n - 1] = B[n - 1][n - 2] = 1
    omega = [[{"re": 0.1, "im": im[i] if i == j else 0.0} for j in range(n)] for i in range(n)]
    return {
        "n": n,
        "k": 1,
        "omega": omega,
        "basis": {"n": n, "k": 1, "N": eye, "M": eye},
        "g": {"A": eye, "B": B, "C": zero, "D": eye},
        "characteristic": {"a": ["0"] * (n - 1) + ["1/2"], "delta": [1] * (n - 1) + [2]},
        "seed": 7,
    }


def guarded(fn, *args) -> str:
    try:
        return fn(*args)
    except Exception as exc:  # an error is an output too
        return "raised %s: %s" % (type(exc).__name__, exc)


def digest(outputs) -> tuple[str, int]:
    h, count = hashlib.sha256(), 0
    for out in outputs:
        h.update(out.encode() + b"\n")
        count += 1
    return h.hexdigest(), count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to import from")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--scale-n", type=int, default=None, help="also digest the scale instance at this n (>= 2)")
    args = parser.parse_args(argv)
    kernel, workloads = load(args.root.resolve())
    digested = (
        (workloads.ConeEval(), cone_output),
        (workloads.VerifyAll(), verify_output),
        (workloads.SplitBasisWorkload(), split_output),
    )
    for workload, output in digested:
        for seed in args.seeds:
            ops = [op for ops in workload.generate(seed, workload.passes, kernel) for op in ops]
            sha, count = digest(guarded(output, kernel, workload, op) for op in ops)
            print("%s %d %s %d" % (workload.name, seed, sha, count), flush=True)
    for seed in args.seeds:
        sha, count = digest(guarded(search_output, kernel, Q, k) for Q, k in split_forms(seed, 5))
        print("split-basis-n5 %d %s %d" % (seed, sha, count), flush=True)
    for seed in args.seeds:
        forms = [(Q, k) for Q, k in split_forms(seed, 6) if k == 3]
        sha, count = digest(guarded(search_output, kernel, Q, k) for Q, k in forms)
        print("split-basis-n6 %d %s %d" % (seed, sha, count), flush=True)
    if args.scale_n is not None:
        inst = kernel.serialize.parse_instance(scale_payload(args.scale_n))
        sha, count = digest(guarded(scale_output, kernel, inst, s) for s in kernel.cli.SUITES)
        print("scale-n%d - %s %d" % (args.scale_n, sha, count), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

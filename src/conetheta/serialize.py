"""JSON wire formats: complex numbers as {"re", "im"}, matrices as
row-major nested arrays, plus records for bases, group elements and problem
instances.  All floats are IEEE doubles serialised by repr, so a
given instance always produces byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .intmat import to_int64
from .lattice import ConeSpec, ModularElement, SplitBasis
from .linalg import check_symmetric, signature
from .theta import Characteristic, ThetaValue


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def json_to_complex(d) -> complex:
    try:
        if isinstance(d, (int, float)):
            return complex(float(d), 0.0)
        return complex(float(d["re"]), float(d["im"]))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValidationError("expected {re, im} record") from exc


def matrix_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in M]


def json_to_matrix(rows) -> np.ndarray:
    try:
        M = np.array([[json_to_complex(z) for z in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError("malformed matrix payload") from exc
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("matrix payload is not square")
    return M


def int_matrix_to_json(M) -> list:
    return [[int(x) for x in row] for row in np.asarray(M)]


def json_to_int_matrix(rows) -> np.ndarray:
    """A list of rows of integral JSON scalars (see json_to_int) as an int64
    matrix; a fractional, non-finite or non-numeric entry, or one beyond
    int64, is a ValidationError rather than a truncation."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValidationError("integer matrix payload is not a list of rows")
    M = np.array([[json_to_int(x, "matrix entry") for x in row] for row in rows], dtype=object)
    if M.ndim != 2:
        raise ValidationError("integer matrix payload is not 2-dimensional")
    return to_int64(M)


def json_to_int(value, name: str) -> int:
    """An integral JSON scalar (an integer, an integral float or a numeric
    string) as an int; anything else, 1.5 or 1e400 included, is a
    ValidationError rather than a truncation."""
    try:
        x = Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("%s is not an integer: %r" % (name, value)) from exc
    if x.denominator != 1:
        raise ValidationError("%s is not an integer: %r" % (name, value))
    return int(x)


def basis_to_json(basis: SplitBasis) -> dict:
    return {
        "n": basis.n,
        "k": basis.k,
        "N": int_matrix_to_json(basis.N),
        "M": int_matrix_to_json(basis.M),
    }


def json_to_basis(d) -> SplitBasis:
    try:
        k = json_to_int(d["k"], "basis k")
        return SplitBasis(json_to_int_matrix(d["N"]), json_to_int_matrix(d["M"]), k)
    except (KeyError, TypeError) as exc:
        raise ValidationError("malformed basis payload") from exc


def json_to_modular(d) -> ModularElement:
    try:
        return ModularElement(*(json_to_int_matrix(d[name]) for name in "ABCD"))
    except (KeyError, TypeError) as exc:
        raise ValidationError("malformed modular element payload") from exc


def check_tolerance(name: str, value) -> float:
    """A tolerance as a float; anything but a finite number > 0 is a
    ValidationError."""
    try:
        tol = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("tolerance %s is not a number: %r" % (name, value)) from exc
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError("tolerance %s must be finite and > 0, got %r" % (name, value))
    return tol


def theta_value_to_json(tv: ThetaValue, radius_used: float) -> dict:
    value = complex_to_json(tv.value)
    return {"value": value, "tail": float(tv.tail), "radius_used": float(radius_used)}


@dataclass
class ProblemInstance:
    """Everything a CLI command needs: dimensions, the period matrix, and
    optional basis / group element / characteristic / cone, plus named
    tolerances and the sampling seed."""

    n: int
    k: int
    omega: np.ndarray
    basis: SplitBasis | None = None
    g: ModularElement | None = None
    characteristic: Characteristic | None = None
    cone: ConeSpec | None = None
    tolerances: dict | None = None
    seed: int = 0x7E7A

    def tol(self, name: str, default: float) -> float:
        if self.tolerances and name in self.tolerances:
            return float(self.tolerances[name])
        return default


#: cone shift entries must be below this in magnitude: beyond it a double
#: no longer holds every integer, so s + G c is not exact
_MAX_EXACT_SHIFT = 2**53


def parse_instance(payload: dict) -> ProblemInstance:
    try:
        n = json_to_int(payload["n"], "n")
        k = json_to_int(payload["k"], "k")
        omega = json_to_matrix(payload["omega"])
    except (KeyError, TypeError) as exc:
        raise ValidationError("instance requires n, k and omega") from exc
    if omega.shape != (n, n):
        raise ValidationError("omega shape does not match n")
    try:
        omega = check_symmetric(omega)
    except Exception as exc:
        raise ValidationError("omega is not symmetric: %s" % exc) from exc
    try:
        sig = signature(omega.imag)
    except Exception as exc:
        raise ValidationError("Im(omega) is degenerate: %s" % exc) from exc
    if sig != (k, n - k):
        raise ValidationError("signature of Im(omega) is %r, expected (%d, %d)" % (sig, k, n - k))
    inst = ProblemInstance(n=n, k=k, omega=omega)
    if "basis" in payload and payload["basis"] is not None:
        inst.basis = json_to_basis(payload["basis"])
        if inst.basis.n != n:
            raise ValidationError("basis dimension does not match n")
        if inst.basis.k != k:
            raise ValidationError("basis k does not match the instance k")
    if "g" in payload and payload["g"] is not None:
        inst.g = json_to_modular(payload["g"])
        if inst.g.n != n:
            raise ValidationError("modular element dimension does not match n")
    if "characteristic" in payload and payload["characteristic"] is not None:
        rec = payload["characteristic"]
        try:
            a = tuple(Fraction(x) for x in rec["a"])
            delta = tuple(json_to_int(d, "delta entry") for d in rec["delta"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError("malformed characteristic payload") from exc
        inst.characteristic = Characteristic(a, delta)
    if "cone" in payload and payload["cone"] is not None:
        rec = payload["cone"]
        try:
            gens = json_to_int_matrix(rec["generators"]).T  # rows in JSON
            shift = tuple(Fraction(x) for x in rec.get("shift", [0] * n))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError("malformed cone payload") from exc
        if any(abs(x) >= _MAX_EXACT_SHIFT for x in shift):
            raise ValidationError("cone shift entries must be below 2**53 in magnitude")
        inst.cone = ConeSpec(gens, shift)
    if "tolerances" in payload and payload["tolerances"] is not None:
        rec = payload["tolerances"]
        if not isinstance(rec, dict):
            raise ValidationError("tolerances must be a record of names to numbers")
        inst.tolerances = {str(k2): check_tolerance(str(k2), v) for k2, v in rec.items()}
    if "seed" in payload:
        inst.seed = json_to_int(payload["seed"], "seed")
    return inst


def load_instance(path: str) -> ProblemInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError("cannot read instance: %s" % exc) from exc
    return parse_instance(payload)


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)

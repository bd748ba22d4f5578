import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conetheta import cli, lattice
from conetheta.cli import main
from conetheta.errors import ConethetaError
from conetheta.serialize import (
    basis_to_json,
    dumps_canonical,
    int_matrix_to_json,
    json_to_basis,
    json_to_modular,
    parse_instance,
)
from conetheta.lattice import ModularElement, SplitBasis


def cm(M):
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in np.asarray(M, complex)]


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_eval_classical(tmp_path, capsys):
    inst = write(tmp_path, "i.json", {"n": 1, "k": 0, "omega": cm([[1j]])})
    assert main(["eval", "--instance", inst, "--z", "0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"]["re"] - 1.086434811213308) < 1e-9
    assert out["tail"] <= 1e-10
    assert out["radius_used"] < 4.0


def test_eval_point_cone(tmp_path, capsys):
    inst = write(tmp_path, "i.json", {"n": 1, "k": 1, "omega": cm([[-1j]])})
    assert main(["eval", "--instance", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == {"re": 1.0, "im": 0.0} and out["tail"] == 0.0


def test_eval_validation_failure(tmp_path):
    # non-symmetric omega
    bad = {"n": 2, "k": 0, "omega": cm([[1j, 0.5], [0.2, 1j]])}
    inst = write(tmp_path, "i.json", bad)
    assert main(["eval", "--instance", inst]) == 2


def test_eval_radius_overflow(tmp_path):
    inst = write(tmp_path, "i.json", {"n": 1, "k": 0, "omega": cm([[1j]])})
    assert main(["eval", "--instance", inst, "--tol", "1e-30", "--radius-max", "4"]) == 3


@pytest.mark.parametrize("radius_max", ["-1", "0", "nan", "inf"])
def test_eval_rejects_bad_radius_max(tmp_path, radius_max):
    inst = write(tmp_path, "i.json", {"n": 1, "k": 0, "omega": cm([[1j]])})
    assert main(["eval", "--instance", inst, "--radius-max", radius_max]) == 2


def test_eval_radius_max_at_solved_radius(tmp_path, capsys):
    # the solved radius is below 3 here (2.875)
    inst = write(tmp_path, "i.json", {"n": 1, "k": 0, "omega": cm([[1j]])})
    assert main(["eval", "--instance", inst, "--radius-max", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tail"] <= 1e-10 and out["radius_used"] <= 3.0


def test_eval_radius_max_below_first_radius(tmp_path, capsys):
    # no radius up to 1 certifies tol 1e-10
    inst = write(tmp_path, "i.json", {"n": 1, "k": 0, "omega": cm([[1j]])})
    assert main(["eval", "--instance", inst, "--radius-max", "1"]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("field", ["g", "basis", "cone"])
def test_instance_integer_beyond_int64(tmp_path, field):
    payload = {
        "n": 2,
        "k": 1,
        "omega": cm(np.diag([-1j, 2j])),
        "g": {"A": [[1, 0], [0, 1]], "B": [[0, 0], [0, 0]], "C": [[0, 0], [0, 0]], "D": [[1, 0], [0, 1]]},
        "basis": {"n": 2, "k": 1, "N": [[1, 0], [0, 1]], "M": [[1, 0], [0, 1]]},
        "cone": {"generators": [[0, 1]]},
    }
    big = 2**63
    if field == "g":
        payload["g"]["A"][0][0] = big
    elif field == "basis":
        payload["basis"]["N"][0][0] = big
    else:
        payload["cone"]["generators"][0][1] = big
    inst = write(tmp_path, "i.json", payload)
    assert main(["eval", "--instance", inst]) == 2


def test_verify_rejects_basis_dual_only_modulo_int64(tmp_path):
    # 3 * -6148914691236517205 = 1 - 2**64, which int64 wraps to 1: tN @ M
    # would read I, although det N = 3
    payload = {
        "n": 2,
        "k": 1,
        "omega": cm(np.diag([-1j, 2j])),
        "basis": {"n": 2, "k": 1, "N": [[3, 0], [0, 1]], "M": [[-6148914691236517205, 0], [0, 1]]},
    }
    inst = write(tmp_path, "i.json", payload)
    assert main(["verify", "--instance", inst, "--suite", "cocycle"]) == 2


def _readme_basis_instance():
    return {
        "n": 2,
        "k": 1,
        "omega": cm(np.diag([-1j, 2j])),
        "basis": {"n": 2, "k": 1, "N": [[1, 0], [0, 1]], "M": [[1, 0], [0, 1]]},
        "characteristic": {"a": ["0", "1/2"], "delta": [1, 2]},
        "seed": 5,
    }


@pytest.mark.parametrize(
    "field, value",
    [
        ("basis.k", '"x"'),
        ("basis.k", "1e400"),
        ("basis.k", "1.5"),
        ("k", "1.5"),
        ("n", "1.5"),
        ("seed", "1.5"),
        ("delta", "2.5"),
    ],
)
def test_verify_rejects_non_integral_integers(tmp_path, field, value):
    # "x" and 1e400 escaped as ValueError / OverflowError, 1.5 was truncated
    payload = _readme_basis_instance()
    record = {"basis.k": payload["basis"], "delta": payload["characteristic"]["delta"]}.get(field, payload)
    record[{"basis.k": "k", "delta": 1}.get(field, field)] = "@"
    p = tmp_path / "i.json"
    p.write_text(json.dumps(payload).replace('"@"', value))
    assert main(["verify", "--instance", str(p), "--suite", "cocycle"]) == 2


def test_verify_accepts_integral_floats(tmp_path, capsys):
    payload = _readme_basis_instance()
    assert main(["verify", "--instance", write(tmp_path, "a.json", payload), "--suite", "cocycle"]) == 0
    plain = capsys.readouterr().out
    payload.update(n=2.0, k=1.0, seed=5.0)
    payload["basis"]["k"] = 1.0
    assert main(["verify", "--instance", write(tmp_path, "b.json", payload), "--suite", "cocycle"]) == 0
    assert capsys.readouterr().out == plain


def test_verify_rejects_basis_k_other_than_instance_k(tmp_path):
    # with basis k = 0, verify --suite all skipped cocycle, heat and wedge
    # and passed
    payload = _readme_basis_instance()
    payload["basis"]["k"] = 0
    assert main(["verify", "--instance", write(tmp_path, "i.json", payload), "--suite", "all"]) == 2


#: per integer-matrix field: the command that reads it, the path to one
#: entry of the README instance and that entry's value
_MATRIX_ENTRIES = {
    "cone": (["eval"], ("cone", "generators", 0, 1), 1),
    "basis": (["verify", "--suite", "cocycle"], ("basis", "N", 0, 0), 1),
    "g": (["transform"], ("g", "B", 0, 0), 2),
}


@pytest.mark.parametrize("field", sorted(_MATRIX_ENTRIES))
def test_integer_matrix_entries_are_checked(tmp_path, capsys, field):
    # a fractional entry was truncated (1.7 read as 1) and the command exited 0
    command, path, plain = _MATRIX_ENTRIES[field]
    payload = _readme_basis_instance()
    eye = [[1, 0], [0, 1]]
    payload["g"] = {"A": eye, "B": [[2, 1], [1, 0]], "C": [[0, 0], [0, 0]], "D": eye}
    payload["cone"] = {"generators": [[0, 1]], "shift": ["0", "0"]}
    record = payload
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = "@"

    def run(value):
        p = tmp_path / "i.json"
        p.write_text(json.dumps(payload).replace('"@"', value))
        code = main([command[0], "--instance", str(p), *command[1:]])
        return code, capsys.readouterr().out

    want = run(str(plain))
    assert want[0] == 0
    for same in ("%d.0" % plain, '"%d"' % plain):
        assert run(same) == want
    for bad in ("%d.7" % plain, "%d.5" % plain, "1e400", '"x"', str(2**63)):
        assert run(bad)[0] == 2, bad


@pytest.mark.parametrize("radius", ["abc", None])
def test_cone_radius_key_is_ignored(tmp_path, capsys, radius):
    payload = {"n": 1, "k": 0, "omega": cm([[1j]]), "cone": {"generators": [[1]], "shift": ["1/3"]}}
    assert main(["eval", "--instance", write(tmp_path, "a.json", payload), "--z", "0,0"]) == 0
    plain = capsys.readouterr().out
    payload["cone"]["radius"] = radius
    assert main(["eval", "--instance", write(tmp_path, "b.json", payload), "--z", "0,0"]) == 0
    assert capsys.readouterr().out == plain


_OMEGA1 = cm([[1j]])


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 1, "k": 0, "omega": [[{"re": 0, "im": 10**400}]]},
        {"n": 1, "k": 0, "omega": [[10**400]]},
        {"n": 1, "k": 0, "omega": _OMEGA1, "tolerances": {"sum": 10**400}},
        {"n": math.inf, "k": 0, "omega": _OMEGA1},
        {"n": math.nan, "k": 0, "omega": _OMEGA1},
        {"n": 1, "k": 0, "omega": _OMEGA1, "seed": math.inf},
        {"n": 1, "k": 0, "omega": _OMEGA1, "seed": "x"},
    ],
)
def test_instance_number_out_of_range(tmp_path, payload):
    assert main(["eval", "--instance", write(tmp_path, "i.json", payload)]) == 2


@pytest.mark.parametrize(
    "shift",
    ["1e400", "-1e400", 10**400, "1" + "0" * 400 + "/3"],
    ids=["decimal", "negative", "integer", "fraction"],
)
def test_eval_cone_shift_beyond_float_range(tmp_path, shift):
    payload = {"n": 1, "k": 0, "omega": _OMEGA1, "cone": {"generators": [[1]], "shift": [shift]}}
    assert main(["eval", "--instance", write(tmp_path, "i.json", payload), "--z", "0,0"]) == 2


@pytest.mark.parametrize("shift", ["1e16", "12345678901234567", "1e17", "1e200"])
def test_eval_cone_shift_beyond_exact_float(tmp_path, capsys, shift):
    # from 2**53 on a double no longer holds every integer, so s + G c is
    # not exact
    payload = {"n": 1, "k": 0, "omega": _OMEGA1, "cone": {"generators": [[1]], "shift": [shift]}}
    assert main(["eval", "--instance", write(tmp_path, "i.json", payload), "--z", "0,0"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "shift, small, frac",
    [("9007199254740991", "0", 0), ("1000000000001/3", "2/3", Fraction(2, 3))],
    ids=["integer", "fraction"],
)
def test_eval_cone_shift_with_large_integer_part(tmp_path, capsys, shift, small, frac):
    # a shift along the generator does not change the cone's points, so its
    # integer part must not change the sum
    def run(s):
        cone = {"generators": [[1]], "shift": [s]}
        payload = {"n": 1, "k": 0, "omega": _OMEGA1, "cone": cone}
        assert main(["eval", "--instance", write(tmp_path, "i.json", payload), "--z", "0,0"]) == 0
        return json.loads(capsys.readouterr().out)

    out = run(shift)
    assert out == run(small)
    exact = math.fsum(math.exp(-math.pi * float(c + frac) ** 2) for c in range(-30, 31))
    assert abs(out["value"]["re"] - exact) <= out["tail"] + 1e-15


@pytest.mark.parametrize("shift", ["1000", "1000000"])
def test_eval_off_span_shift_fails_before_enumerating(tmp_path, capsys, monkeypatch, shift):
    # the shift lies off the cone span, where Q is negative, so q_min is
    # -shift**2 and the enumeration budget huge (22.9 TiB of points at
    # 10**6); the term at the bottom of the cone is beyond the double range,
    # and so is the sum: exit 2 with the summation's own message, and
    # nothing enumerated
    def enumerate_(form, radius):
        raise AssertionError("enumerated")

    monkeypatch.setattr(lattice, "_enumerate", enumerate_)
    cone = {"generators": [[0, 1, 0], [0, 0, 1]], "shift": [shift, "0", "0"]}
    payload = {"n": 3, "k": 1, "omega": cm(np.diag([-1j, 1j, 1j])), "cone": cone}
    assert main(["eval", "--instance", write(tmp_path, "i.json", payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a term or the sum is beyond the double range\n"


def test_eval_rank_zero_term_beyond_double_range(tmp_path, capsys):
    # a rank-0 cone sums one term, here of modulus exp(pi/4 + 1000 pi):
    # exit 2 with the summation's own message, not an OverflowError
    payload = {"n": 1, "k": 1, "omega": cm([[-1j]]), "characteristic": {"a": ["1/2"], "delta": [2]}}
    inst = write(tmp_path, "i.json", payload)
    assert main(["eval", "--instance", inst, "--z", "0,-1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a term or the sum is beyond the double range\n"
    assert main(["eval", "--instance", inst, "--z", "0,-1"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert value["re"] == pytest.approx(math.exp(math.pi / 4 + math.pi))


@pytest.mark.parametrize("off", [0.0, 1e-3], ids=["symmetric", "nearly-symmetric"])
def test_eval_huge_finite_omega_entry(tmp_path, capsys, off):
    # Re omega_11 = 1e308 is finite, and symmetrising must not overflow it
    # (an asymmetry of 1e-3 is within the tolerance relative to it); the
    # cone e2 reads only omega_22, so the output is that of Re = 0
    def run(re11, re12):
        omega = [[complex(re11, -1), re12], [0, 1j]]
        cone = {"generators": [[0, 1]], "shift": ["0", "0"]}
        payload = {"n": 2, "k": 1, "omega": cm(omega), "cone": cone}
        assert main(["eval", "--instance", write(tmp_path, "i.json", payload)]) == 0
        return capsys.readouterr().out

    out = run(1e308, off)
    assert out == run(0.0, 0.0)
    assert json.loads(out)["value"] == {"re": 1.0864348112122568, "im": 0.0}


def test_eval_characteristic(tmp_path, capsys):
    payload = {
        "n": 1,
        "k": 0,
        "omega": cm([[1j]]),
        "characteristic": {"a": ["1/2"], "delta": [2]},
    }
    inst = write(tmp_path, "i.json", payload)
    assert main(["eval", "--instance", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    oracle = sum(math.exp(-math.pi * (m + 0.5) ** 2) for m in range(-10, 11))
    assert abs(out["value"]["re"] - oracle) < 1e-9


def test_transform_identity(tmp_path, capsys):
    payload = {
        "n": 1,
        "k": 0,
        "omega": cm([[1j]]),
        "g": {"A": [[1]], "B": [[0]], "C": [[0]], "D": [[1]]},
    }
    inst = write(tmp_path, "i.json", payload)
    assert main(["transform", "--instance", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["omega_g"] == cm([[1j]])
    assert out["zeta"] == {"re": 1.0, "im": 0.0}


def test_transform_translation(tmp_path, capsys):
    payload = {
        "n": 2,
        "k": 1,
        "omega": cm(np.diag([-1j, 1j])),
        "g": {
            "A": [[1, 0], [0, 1]],
            "B": [[2, 1], [1, 0]],
            "C": [[0, 0], [0, 0]],
            "D": [[1, 0], [0, 1]],
        },
    }
    inst = write(tmp_path, "i.json", payload)
    assert main(["transform", "--instance", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    got = np.array([[c["re"] + 1j * c["im"] for c in row] for row in out["omega_g"]])
    assert np.max(np.abs(got - (np.diag([-1j, 1j]) - np.array([[2, 1], [1, 0]])))) == 0.0


def test_transform_inversion(tmp_path, capsys):
    payload = {
        "n": 1,
        "k": 0,
        "omega": cm([[1j]]),
        "g": {"A": [[0]], "B": [[-1]], "C": [[1]], "D": [[0]]},
    }
    inst = write(tmp_path, "i.json", payload)
    assert main(["transform", "--instance", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["omega_g"][0][0]["im"] - 1.0) < 1e-12  # -1/i = i
    assert out["zeta"] is None  # no reference identity at positive index zero


def test_transform_minus_identity(tmp_path, capsys):
    # every ratio is -i, and other candidates tie in their distance to it
    payload = {
        "n": 1,
        "k": 0,
        "omega": cm([[0.1 + 1j]]),
        "g": {"A": [[-1]], "B": [[0]], "C": [[0]], "D": [[-1]]},
    }
    inst = write(tmp_path, "i.json", payload)
    assert main(["transform", "--instance", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["zeta"]["re"]) < 1e-15 and out["zeta"]["im"] == -1.0
    assert out["residuals"]["zeta_fit"] < 1e-15


def test_transform_inversion_too_wide_a_contour(tmp_path, capsys):
    # Im(tau) = -1e-9 puts the contour's Gaussian window past its step cap
    payload = {
        "n": 1,
        "k": 1,
        "omega": cm([[0.3 - 1e-9j]]),
        "g": {"A": [[0]], "B": [[-1]], "C": [[1]], "D": [[0]]},
    }
    inst = write(tmp_path, "i.json", payload)
    assert main(["transform", "--instance", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["zeta"] is None and "zeta_fit" not in out["residuals"]


def test_split_basis_swap(tmp_path, capsys):
    # Im(omega) = diag(1, -1) with k = 1 forces the column swap
    payload = {"n": 2, "k": 1, "omega": cm(np.diag([1j, -1j]))}
    inst = write(tmp_path, "i.json", payload)
    assert main(["split-basis", "--instance", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["N"] == [[0, 1], [1, 0]]


def test_split_basis_identity(tmp_path, capsys):
    payload = {"n": 2, "k": 0, "omega": cm(np.diag([1j, 1j]))}
    inst = write(tmp_path, "i.json", payload)
    assert main(["split-basis", "--instance", inst]) == 0
    assert json.loads(capsys.readouterr().out)["N"] == [[1, 0], [0, 1]]


def test_split_basis_not_found(tmp_path):
    payload = {"n": 2, "k": 1, "omega": cm(np.diag([1j, -1j]))}
    inst = write(tmp_path, "i.json", payload)
    assert main(["split-basis", "--instance", inst, "--bound", "0"]) == 4


def test_split_basis_bound_window_too_large(tmp_path):
    # (2*1000+1)**4 candidate vectors would not fit in memory
    payload = {"n": 4, "k": 1, "omega": cm(np.diag([1j, -1j, 1j, 1j]))}
    inst = write(tmp_path, "i.json", payload)
    assert main(["split-basis", "--instance", inst, "--bound", "1000"]) == 2


@pytest.mark.parametrize("bound,code", [(499, 0), (500, 2)])
def test_split_basis_bound_window_limit(tmp_path, bound, code):
    # the window (2*bound+1)**2 is 999**2 <= 10**6 and 1001**2 > 10**6
    payload = {"n": 2, "k": 1, "omega": cm(np.diag([1j, -1j]))}
    inst = write(tmp_path, "i.json", payload)
    assert main(["split-basis", "--instance", inst, "--bound", str(bound)]) == code


def test_eval_explicit_cone(tmp_path, capsys):
    payload = {
        "n": 2,
        "k": 1,
        "omega": cm(np.diag([-1j, 1j])),
        "cone": {"generators": [[0, 1]], "shift": ["0", "0"]},
    }
    inst = write(tmp_path, "i.json", payload)
    assert main(["eval", "--instance", inst, "--z", "0,0;0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"]["re"] - math.pi**0.25 / math.gamma(0.75)) < 1e-9


def test_verify_exit_codes(tmp_path):
    inst = write(tmp_path, "i.json", {"n": 2, "k": 1, "omega": cm(np.diag([-1j, 1j]))})
    assert main(["verify", "--instance", inst, "--suite", "cocycle"]) == 0
    assert main(["verify", "--instance", inst, "--suite", "heat"]) == 0
    assert main(["verify", "--instance", inst, "--suite", "koszul"]) == 0
    assert main(["verify", "--instance", inst, "--suite", "nope"]) == 2
    # wedge preconditions fail on this instance: validation exit
    assert main(["verify", "--instance", inst, "--suite", "wedge"]) == 2


def test_verify_heat_on_rank_zero_cone(tmp_path, capsys):
    # k = n: the cone sum is the constant 1, both fd residuals are exactly 0
    inst = write(tmp_path, "i.json", {"n": 1, "k": 1, "omega": cm([[0.3 - 1.2j]])})
    assert main(["verify", "--instance", inst, "--suite", "heat"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and all(c["pass"] for c in report["checks"])


def test_eval_negative_instance_tolerance(tmp_path):
    payload = {"n": 1, "k": 0, "omega": cm([[1j]]), "tolerances": {"sum": -1}}
    inst = write(tmp_path, "i.json", payload)
    assert main(["eval", "--instance", inst]) == 2


def test_eval_negative_tol_flag(tmp_path):
    inst = write(tmp_path, "i.json", {"n": 1, "k": 0, "omega": cm([[1j]])})
    assert main(["eval", "--instance", inst, "--tol", "-1"]) == 2


def test_eval_non_finite_z(tmp_path):
    inst = write(tmp_path, "i.json", {"n": 2, "k": 0, "omega": cm(np.diag([1j, 1j]))})
    assert main(["eval", "--instance", inst, "--z", "0,0;0.1,nan"]) == 2


def test_verify_reports_byte_identical(tmp_path, capsys):
    inst = write(
        tmp_path,
        "i.json",
        {"n": 2, "k": 1, "omega": cm(np.diag([-1j, 1j])), "seed": 99},
    )
    assert main(["verify", "--instance", inst, "--suite", "cocycle"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--instance", inst, "--suite", "cocycle"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_json_out(tmp_path, capsys):
    inst = write(tmp_path, "i.json", {"n": 1, "k": 1, "omega": cm([[-1j]])})
    out_file = tmp_path / "report.json"
    assert (
        main(
            [
                "verify",
                "--instance",
                inst,
                "--suite",
                "modular-case3-1d",
                "--json-out",
                str(out_file),
            ]
        )
        == 0
    )
    capsys.readouterr()
    data = json.loads(out_file.read_text())
    assert data["suite"] == "modular-case3-1d" and data["pass"]


def test_instance_signature_mismatch():
    with pytest.raises(Exception):
        parse_instance({"n": 1, "k": 0, "omega": cm([[-1j]])})


def test_basis_round_trip():
    b = SplitBasis(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]), 1)
    assert json_to_basis(basis_to_json(b)).N.tolist() == b.N.tolist()


def test_modular_round_trip():
    g = ModularElement.identity(2)
    payload = {name: int_matrix_to_json(getattr(g, name)) for name in "ABCD"}
    assert json_to_modular(payload).matrix().tolist() == g.matrix().tolist()


#: the checks that verify --suite all reports on the README instance, in
#: order; every one passes
_README_CHECKS = {
    "cocycle": ["c:N_2", "c:M_1", "c:M_2", "c^g:N_2", "c^g:M_1", "c^g:M_2"],
    "heat": [
        "termwise_max",
        "fd_11",
        "fd_12",
        "fd_22",
        "fd_scaling_factor_in_[2.5,6]",
        "fd_transformed_11",
        "fd_transformed_12",
        "fd_transformed_22",
        "fd_characteristic_11",
        "fd_characteristic_12",
        "fd_characteristic_22",
    ],
    "modular-case1": [
        "%s_%d" % (check, idx)
        for idx in range(3)
        for check in ("symmetric", "signature_preserved", "round_trip", "block_diagonal", "chain_map")
    ]
    + ["type_Ia_top_coefficient_1", "type_Ib_top_coefficient_1"],
    "modular-case2": ["omega_minus_B", "zeta_is_unit", "zeta_fit_residual", "pointwise_equality"]
    + ["c^g:N_2", "c^g:M_1", "c^g:M_2"],
    "wedge": ["shear_direction_identity", "next_direction_identity"],
    "koszul": [
        "d_squared_zero",
        "telescope_reconstruction",
        "chain_map_50_words",
        "type_Ia_top_1",
        "type_Ib_top_1",
        "type_Ic_two_components",
        "type_III_v_to_u",
        "augmentation_kills_d",
    ],
    "reduced": ["betti_k1_w5", "betti_k2_w5", "betti_k1_stable", "betti_k2_stable"]
    + ["shift_injective", "preimage_inverts_delta"],
    "characteristics": ["class_count_det_delta", "classes_distinct"]
    + ["twisted:N_2", "twisted:M_1", "twisted:M_2", "integral_shift_absorbed"],
}


def test_verify_all_reports_the_readme_check_list(tmp_path, capsys):
    # a refactor that drops or renames a check fails here; residuals are
    # left out, they depend on the platform
    payload = _readme_basis_instance()
    eye = [[1, 0], [0, 1]]
    payload["g"] = {"A": eye, "B": [[2, 1], [1, 0]], "C": [[0, 0], [0, 0]], "D": eye}
    payload["cone"] = {"generators": [[0, 1]], "shift": ["0", "0"]}
    payload["tolerances"] = {"sum": 1e-10, "identity": 1e-8, "fd": 1e-6}
    payload["seed"] = 32378
    assert main(["verify", "--instance", write(tmp_path, "i.json", payload), "--suite", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    triples = [
        (suite["suite"], check["name"], check["pass"])
        for suite in report["suites"]
        for check in suite.get("checks", [])
    ]
    assert triples == [(suite, name, True) for suite, names in _README_CHECKS.items() for name in names]
    skipped = {suite["suite"]: suite["skipped"] for suite in report["suites"] if "skipped" in suite}
    assert skipped == {"modular-case3-1d": "suite requires n = 1"}
    assert report["pass"]


def _each_suite_searching(inst) -> str:
    """The verify --suite all report with every suite run on the instance as
    loaded, so that each suite that needs a split basis searches for it."""
    reports, overall = [], True
    for name, suite in cli.SUITES.items():
        try:
            rep = suite(inst)
        except ConethetaError as exc:
            reports.append({"suite": name, "skipped": str(exc)})
            continue
        overall = overall and rep.passed
        reports.append(rep.to_json())
    return dumps_canonical({"suites": reports, "pass": overall}) + "\n"


_N3 = {
    "n": 3,
    "k": 1,
    "omega": cm([[0.1 - 1.0j, 0.05, 0.0], [0.05, -0.2 + 1.5j, 0.1 + 0.2j], [0.0, 0.1 + 0.2j, 2.0j]]),
    "g": {"A": np.eye(3, dtype=int).tolist(), "B": [[2, 1, 0], [1, 0, 1], [0, 1, 2]],
          "C": [[0] * 3] * 3, "D": np.eye(3, dtype=int).tolist()},
    "characteristic": {"a": ["0", "1/2", "1/2"], "delta": [1, 2, 2]},
    "seed": 11,
}
#: the hyperbolic plane: no split basis within the default bound
_HYPERBOLIC = {"n": 2, "k": 1, "omega": cm([[0, 1j], [1j, 0]]), "seed": 3}


@pytest.mark.parametrize("payload", [_N3, _HYPERBOLIC], ids=["found", "not-found"])
def test_verify_all_searches_the_split_basis_once(payload, tmp_path, capsys, monkeypatch):
    inst = write(tmp_path, "i.json", payload)
    calls = []
    search = cli.find_split_basis

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(cli, "find_split_basis", counted)
    code = main(["verify", "--instance", inst, "--suite", "all"])
    out = capsys.readouterr().out
    if payload is _N3:
        assert len(calls) == 1
    else:
        # a failed search leaves the instance without a basis, and every
        # suite that needs one is skipped with the search's own message
        skipped = [r for r in json.loads(out)["suites"] if "skipped" in r]
        assert {r["skipped"] for r in skipped} >= {"no split basis with entries bounded by 3"}
    monkeypatch.undo()
    assert out == _each_suite_searching(parse_instance(payload))
    assert code == (0 if json.loads(out)["pass"] else 1)


def test_wedge_suite_factors_each_cone_once(monkeypatch):
    # the two cone sums of the identity run on the wedge sum's own forms
    built = []
    init = lattice.ConeForm.__init__

    def counted(self, cone, Q):
        built.append(cone)
        init(self, cone, Q)

    monkeypatch.setattr(lattice.ConeForm, "__init__", counted)
    report = cli.suite_wedge(parse_instance(_N3))
    assert len(built) == 2 and report.passed


def test_transform_identity_needs_no_split_basis(tmp_path, capsys):
    # zeta = 1 for g = I is read off, so a form without a split basis fits it
    eye, zero = [[1, 0], [0, 1]], [[0, 0], [0, 0]]
    payload = dict(_HYPERBOLIC, g={"A": eye, "B": zero, "C": zero, "D": eye})
    assert main(["transform", "--instance", write(tmp_path, "i.json", payload)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["zeta"] == {"re": 1.0, "im": 0.0} and out["residuals"]["zeta_fit"] == 0.0


def test_transform_without_a_reference_builds_no_cone(tmp_path, capsys, monkeypatch):
    # the n = 2 inversion has no reference identity, so zeta is null; the
    # command learns that before it builds the positive cone, whose split
    # basis search the hyperbolic plane would run (and fail) for nothing
    eye, zero = [[1, 0], [0, 1]], [[0, 0], [0, 0]]
    minus = [[-1, 0], [0, -1]]
    payload = dict(_HYPERBOLIC, g={"A": zero, "B": minus, "C": eye, "D": zero})
    path = write(tmp_path, "i.json", payload)
    searches = []
    search = cli.find_split_basis

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(cli, "find_split_basis", counted)
    assert main(["transform", "--instance", path]) == 0
    out = capsys.readouterr().out
    assert searches == []
    assert json.loads(out)["zeta"] is None and "zeta_fit" not in json.loads(out)["residuals"]
    # byte-identical to the path that builds the cone first (the search
    # fails, and the error is caught in the same place)
    monkeypatch.setattr(cli, "zeta_reference", lambda g, omega: "upper")
    assert main(["transform", "--instance", path]) == 0
    assert capsys.readouterr().out == out
    assert len(searches) == 1


def test_integral_shift_check_sums_two_cones(monkeypatch):
    # integral_shift_absorbed compares the positive cone with that cone
    # shifted by a lattice vector of it: two different ConeSpecs, whose sums
    # agree only through ConeForm's exact move of the shift
    cones = []
    cone_sum = cli.ConeSum

    def recorded(cone, *args, **kwargs):
        cones.append(cone)
        return cone_sum(cone, *args, **kwargs)

    monkeypatch.setattr(cli, "ConeSum", recorded)
    report = cli.suite_characteristics(parse_instance(_N3))
    plain, shifted = cones[-2:]
    assert plain.generators.tolist() == shifted.generators.tolist()
    assert plain.shift != shifted.shift
    assert report.checks[-1].name == "integral_shift_absorbed" and report.checks[-1].passed


def _n8_instance() -> dict:
    """n = 8, k = 7: omega = 0.1 + i tP D P with P = I + E_81 - E_28 and
    D = diag(-1, -8/7, .., -13/7, 1), the basis N = P^-1 and the
    upper-triangular g with B_11 = 2.  The default split-basis search cannot
    run at n = 8 (its window is too large), so every suite must use the
    instance's basis."""
    n = 8
    P = np.eye(n, dtype=int)
    P[7, 0], P[1, 7] = 1, -1
    D = np.diag([-1.0] + [-(8 + j) / 7 for j in range(6)] + [1.0])
    N = np.eye(n, dtype=int)
    N[7, 0], N[1, 7], N[1, 0] = -1, 1, -1  # P^-1
    assert (N @ P == np.eye(n, dtype=int)).all()
    eye, zero = np.eye(n, dtype=int).tolist(), np.zeros((n, n), dtype=int).tolist()
    B = np.zeros((n, n), dtype=int)
    B[0, 0] = 2
    return {
        "n": n,
        "k": 7,
        "omega": cm(0.1 + 1j * (P.T @ D @ P)),
        "basis": {"n": n, "k": 7, "N": N.tolist(), "M": P.T.tolist()},
        "g": {"A": eye, "B": B.tolist(), "C": zero, "D": eye},
    }


@pytest.mark.parametrize("suite", ["cocycle", "heat", "modular-case2"])
def test_n8_suites_fit_zeta_on_the_instance_basis(suite, tmp_path, capsys):
    inst = write(tmp_path, "i.json", _n8_instance())
    assert main(["verify", "--instance", inst, "--suite", suite]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def test_n8_verify_all_runs_the_zeta_suites(tmp_path, capsys):
    inst = write(tmp_path, "i.json", _n8_instance())
    main(["verify", "--instance", inst, "--suite", "all"])
    ran = {r["suite"]: r.get("pass") for r in json.loads(capsys.readouterr().out)["suites"]}
    assert ran["cocycle"] is ran["heat"] is ran["modular-case2"] is True


def test_n8_transform_fits_zeta(tmp_path, capsys):
    inst = write(tmp_path, "i.json", _n8_instance())
    assert main(["transform", "--instance", inst]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["zeta"] == {"re": 1.0, "im": 0.0} and out["residuals"]["zeta_fit"] < 1e-8

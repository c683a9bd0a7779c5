"""CLI surface: every subcommand, exit codes, determinism, golden files."""

import contextlib
import functools
import io
import json
import math
import operator
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pjet import cli, errors, multiprime
from pjet.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestBuilders:
    def test_psi_serretate(self, capsys):
        code, js = run(capsys, "psi", "--p", "5", "--side", "serretate", "--N", "30")
        assert code == 0
        assert js["var"] == "t" and js["N"] == 30
        assert [0, "1", [1]] in js["terms"]  # the leading jet term

    def test_psi_fourier(self, capsys):
        code, js = run(capsys, "psi", "--p", "5", "--side", "fourier", "--window", "10")
        assert code == 0
        assert [-5, "1", [1]] in js["terms"]

    def test_fe0_and_fe_k_agree(self, capsys):
        code1, js1 = run(capsys, "fe0", "--P", "5,7", "--N", "30")
        code2, js2 = run(capsys, "fe-k", "--P", "5,7", "--k", "1", "--N", "30")
        assert code1 == code2 == 0
        assert js1["terms"] == js2["terms"]

    def test_fsharp(self, capsys):
        code, js = run(capsys, "fsharp", "--p", "13", "--window", "15", "--M", "6")
        assert code == 0
        assert js["p"] == 13

    def test_f2e0_and_f2e_k(self, capsys):
        code1, js1 = run(capsys, "f2e0", "--P", "5,13", "--N", "20")
        code2, js2 = run(capsys, "f2e-k", "--P", "5,13", "--k", "2", "--N", "20")
        assert code1 == code2 == 0
        assert js1["terms"] == js2["terms"]

    def test_f2e_below_largest_prime(self, capsys):
        code1, js1 = run(capsys, "f2e0", "--P", "5,13", "--N", "10")
        code2, js2 = run(capsys, "f2e-k", "--P", "5,13", "--k", "2", "--N", "10")
        assert code1 == code2 == 0
        assert js1["N"] == js2["N"] == 10 and js1["terms"] == js2["terms"]

    def test_eisenstein(self, capsys):
        code, js = run(capsys, "eisenstein", "--k", "4", "--trunc", "4")
        assert code == 0
        assert [1, "240"] in js["terms"]

    def test_delta_expand(self, capsys):
        code, js = run(
            capsys, "delta-expand", "--form", "E4", "--n", "1", "--p", "5", "--trunc", "8"
        )
        assert code == 0
        assert js["var"] == "q"

    def test_delta0(self, capsys, tmp_path):
        src = tmp_path / "series.json"
        src.write_text(json.dumps({"var": "q", "N": None, "terms": [[0, "1"], [1, "1"]]}))
        code, js = run(capsys, "delta0", "--input", str(src), "--p", "5", "--M", "6")
        assert code == 0
        coeffs = {e: c for e, c in js["terms"]}
        assert coeffs[1]["residue"] == str(5**5 - 1)  # -1 mod 5^6 at one digit down

    def test_delta0_reads_what_it_writes(self, capsys, tmp_path):
        # the first run printed "N":-15, and its own output was refused with
        # "N must be at least 0, got -15"; 13 * (1/q**2)**12 * (q**11) reaches
        # q**-13 with a unit, so the order is -13
        src, out = tmp_path / "a.json", tmp_path / "b.json"
        src.write_text(json.dumps({"var": "q", "N": 11, "terms": [[-2, "1"], [5, "-30"]]}))
        code, js = run(capsys, "--out", str(out), "delta0", "--input", str(src), "--p", "13", "--M", "2")
        assert code == 0 and js["N"] == -13
        assert js["terms"][0][0] == -19
        code, js = run(capsys, "delta0", "--input", str(out), "--p", "13", "--M", "2")
        # 13 * b**12 * (tail) reaches q**(12 * -19 - 13) = q**-241 with a unit,
        # so no order above it is known (q**-243 while b was known below -15)
        assert code == 0 and js["N"] <= -241 and all(c["digits"] == 0 for _, c in js["terms"])

    def test_delta0_refuses_a_coefficient_at_another_prime(self, capsys, tmp_path):
        # the quotient was taken at the coefficient's prime, 7, not at --p 5
        src = tmp_path / "a.json"
        src.write_text(json.dumps({"var": "q", "N": 4, "terms": [[0, {"p": 7, "M": 4, "residue": "2", "digits": 4}]]}))
        code, js = run(capsys, "delta0", "--input", str(src), "--p", "5", "--M", "4")
        assert code == 2 and js["error"] == {"code": "domain", "message": "a 7-adic coefficient has no delta0 at p=5"}

    def test_ap(self, capsys):
        code, js = run(capsys, "ap", "--p", "5")
        assert code == 0 and js["ap"] == 1 and js["source"] == "count"
        code, js = run(capsys, "ap", "--p", "11")
        assert code == 0 and js["ap"] == 1 and js["source"] == "fixture"


class TestChecks:
    def test_commutator_worked_case(self, capsys):
        code, js = run(
            capsys, "check-commutator", "--p1", "2", "--p2", "3", "--value", "6"
        )
        assert code == 0
        assert js["lhs"] == js["rhs"] == "-3605"

    def test_lemma_pass(self, capsys):
        code, js = run(capsys, "check-lemma", "--name", "xlaphi", "--p", "5", "--n", "1")
        assert code == 0 and js["pass"] is True
        code, js = run(
            capsys, "check-lemma", "--name", "logder", "--p", "5", "--n", "2", "--a", "3"
        )
        assert code == 0 and js["pass"] is True

    def test_basis_rank(self, capsys):
        code, js = run(capsys, "check-basis", "--P", "5", "--r", "2", "--N", "30")
        assert code == 0 and js["rank"] == 2

    def test_covariance_pass_and_fail(self, capsys, tmp_path):
        code, _ = run(capsys, "--out", str(tmp_path / "fe0.json"), "fe0", "--P", "5,7", "--N", "30")
        assert code == 0
        code, js = run(
            capsys,
            "check-covariance",
            "--input",
            str(tmp_path / "fe0.json"),
            "--gamma",
            "2",
            "--nu",
            "1",
        )
        assert code == 0 and js["pass"] is True
        code, js = run(
            capsys,
            "check-covariance",
            "--input",
            str(tmp_path / "fe0.json"),
            "--gamma",
            "2",
            "--nu",
            "2",
        )
        assert code == 1 and js["pass"] is False and js["witness"]

    def test_continuation(self, capsys, tmp_path):
        f1, f2 = tmp_path / "f1.json", tmp_path / "f2.json"
        run(capsys, "--out", str(f1), "fe-k", "--P", "5,7", "--k", "1", "--N", "20")
        run(capsys, "--out", str(f2), "fe-k", "--P", "5,7", "--k", "2", "--N", "20")
        code, js = run(capsys, "check-continuation", "--inputs", str(f1), str(f2))
        assert code == 0 and js["pass"] is True

    def test_continuation_failure_exit_code(self, capsys, tmp_path):
        f1, f2 = tmp_path / "f1.json", tmp_path / "f2.json"
        run(capsys, "--out", str(f1), "fe-k", "--P", "5,7", "--k", "1", "--N", "20")
        obj = json.loads(f1.read_text())
        obj["terms"][0][1] = "999"
        f2.write_text(json.dumps(obj))
        code, js = run(capsys, "check-continuation", "--inputs", str(f1), str(f2))
        assert code == 1 and js["pass"] is False and js["witness"]

    def test_continuation_zero_digits_is_usage_error(self, capsys, tmp_path):
        def member(p, digits, ring):
            coeff = {"p": p, "M": 8, "residue": "3", "digits": digits}
            return {"P": [5, 7], "N": 14, "ring": ring, "terms": [[[[[0, 0], 1]], coeff]]}

        f1, f2 = tmp_path / "f1.json", tmp_path / "f2.json"
        f1.write_text(json.dumps(member(5, 8, 1)))
        f2.write_text(json.dumps(member(7, 0, 2)))
        code, js = run(capsys, "check-continuation", "--inputs", str(f1), str(f2))
        assert code == 2 and "error" in js


    @staticmethod
    def padic_family(tmp_path):
        """The 5-adic and 7-adic members of fe0 (5,7) N 12 at M 6, as two files."""
        f0 = multiprime.build_fe0((5, 7), 12)
        files = [tmp_path / f"m{k}.json" for k in range(2)]
        for k, f in enumerate(files):
            f.write_text(json.dumps(multiprime.reduce_to_padic(f0, k, 6).to_json()))
        return [str(f) for f in files]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("digits", 2.5, "expected an integer, got 2.5"),
            ("digits", True, "expected an integer, got True"),
            ("residue", 7812.9, "expected an integer, got 7812.9"),
            ("M", 6.0, "expected an integer, got 6.0"),
            ("p", 7, "ring 1 holds no 7-adic coefficient"),
        ],
    )
    def test_padic_member_refused_at_read(self, capsys, tmp_path, key, value, message):
        # each passed with "pass": true: int() read the fields, and the check
        # never looked at a coefficient's prime
        files = self.padic_family(tmp_path)
        code, js = run(capsys, "check-continuation", "--inputs", *files)
        assert code == 0 and js["pass"] is True
        obj = json.loads(open(files[0], encoding="utf-8").read())
        obj["terms"][0][1][key] = value
        with open(files[0], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, js = run(capsys, "check-continuation", "--inputs", *files)
        assert code == 2 and js["error"] == {"code": "domain", "message": f"{files[0]}: {message}"}

    def test_padic_member_with_a_rational_coefficient_refused(self, capsys, tmp_path):
        # continuation_check read such a coefficient as known to 8 digits
        files = self.padic_family(tmp_path)
        obj = json.loads(open(files[1], encoding="utf-8").read())
        obj["terms"][2][1] = "1/3"
        with open(files[1], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, js = run(capsys, "check-continuation", "--inputs", *files)
        message = f"{files[1]}: a series holds rational or p-adic coefficients, not both"
        assert code == 2 and js["error"] == {"code": "domain", "message": message}

    def test_padic_member_reads_integer_strings_and_no_common_ring(self, capsys, tmp_path):
        files = self.padic_family(tmp_path)
        obj = json.loads(open(files[0], encoding="utf-8").read())
        obj["terms"][0][1]["digits"] = "3"
        with open(files[0], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, js = run(capsys, "check-continuation", "--inputs", *files)
        assert code == 0 and js["pass"] is True
        # the common ring holds exact coefficients only
        obj["ring"] = 0
        with open(files[0], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, js = run(capsys, "check-continuation", "--inputs", *files)
        assert code == 2 and js["error"]["message"] == f"{files[0]}: ring 0 holds no 5-adic coefficient"

    @pytest.mark.parametrize(
        "place, value",
        [
            (("terms", 4, 0, 0, 1), 4.5),  # the exponent of t in t^5 x_(1,0)
            (("terms", 4, 0, 0, 1), 5.0),
            (("terms", 4, 0, 1, 1), 1e0),
            (("terms", 4, 0, 1, 1), True),
            (("terms", 4, 0, 1, 0, 0), 1.0),  # an index entry
            (("terms", 4, 0, 1, 0, 1), False),
            (("P", 1), 7.0),
            (("N",), 3e1),
            (("N",), -1),
            (("ring",), False),
        ],
    )
    def test_continuation_refuses_a_non_integer_number(self, capsys, tmp_path, place, value):
        # int() would read 4.5 as 4 and 1e0 as 1, and a bool or an integral
        # float hashes as the int it equals; each is a usage error
        golden = os.path.join(os.path.dirname(__file__), "golden", "fe0_P5_7_N30.json")
        obj = json.loads(open(golden, encoding="utf-8").read())
        *path, last = place
        functools.reduce(operator.getitem, path, obj)[last] = value
        f = tmp_path / "f.json"
        f.write_text(json.dumps(obj))
        code, js = run(capsys, "check-continuation", "--inputs", str(f))
        assert code == 2 and js["error"]["code"] == "domain"

    @pytest.mark.parametrize(
        "place, value",
        [
            (("terms", 0, 0), 4.5),
            (("terms", 3, 0), 1.0),
            (("terms", 3, 0), True),
            (("terms", 0, 2, 0), 1.0),
            (("terms", 1, 2, 0), 2.5),
            (("terms", 2, 2, 0), True),
            (("N",), 7.5),
            (("N",), -3),
            (("N",), True),
            (("M",), 4.5),
            (("digits",), 2.5),
            (("base_order",), 1.0),
            (("p",), 5.0),
        ],
    )
    def test_t_side_refuses_a_non_integer_number(self, capsys, tmp_path, place, value):
        # the t power b of a t-side term [b, c, jets], a jet exponent, and the
        # header: int() would read "M": 4.5 as 4, and a fractional or negative
        # N names no truncation; each is a usage error
        golden = os.path.join(os.path.dirname(__file__), "golden", "psi_serretate_p5_N20.json")
        obj = json.loads(open(golden, encoding="utf-8").read())
        *path, last = place
        functools.reduce(operator.getitem, path, obj)[last] = value
        f = tmp_path / "f.json"
        f.write_text(json.dumps(obj))
        code, js = run(capsys, "check-covariance", "--input", str(f), "--gamma", "2", "--nu", "1")
        assert code == 2 and js["error"]["code"] == "domain"

    @pytest.mark.parametrize("key, value", [("digits", 1), ("base_order", 3), ("digits", "2")])
    def test_t_side_refuses_q_side_fields(self, capsys, tmp_path, key, value):
        # digits and base_order would cut the terms of a t-side series, and the
        # covariance check would then fail on an exact payload
        golden = os.path.join(os.path.dirname(__file__), "golden", "psi_serretate_p5_N20.json")
        obj = {**json.loads(open(golden, encoding="utf-8").read()), key: value}
        f = tmp_path / "f.json"
        f.write_text(json.dumps(obj))
        code, js = run(capsys, "check-covariance", "--input", str(f), "--gamma", "2", "--nu", "1")
        assert code == 2 and js["error"]["code"] == "domain"
        assert "digits and base_order are q-side fields" in js["error"]["message"]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"M": 4.5}, "expected an integer, got 4.5"),
            ({"var": "x"}, "unknown base tag 'x'"),
            ({"digits": 2}, "digits and base_order are q-side fields; a t-side series is exact below N"),
            ({"N": None}, "a weighted truncation bound is required"),
            ({"p": 4}, "4 is not a prime"),
            ({"N": -3}, "N must be at least 0, got -3"),
            ({"terms": [[0, "1", [1, -1]]]}, "jet exponents must be nonnegative"),
            ({"terms": [[-1, "1", []]]}, "negative base exponents need the q side"),
        ],
        ids=["M", "var", "digits", "null-N", "p", "negative-N", "negative-jet", "negative-b"],
    )
    def test_t_payload_refused_at_read(self, capsys, tmp_path, change, message):
        # each refusal of the t payload reader, named with the file; a null N
        # and a non-prime p were refused only after the read
        golden = os.path.join(os.path.dirname(__file__), "golden", "psi_serretate_p5_N20.json")
        obj = {**json.loads(open(golden, encoding="utf-8").read()), **change}
        f = tmp_path / "f.json"
        f.write_text(json.dumps(obj))
        code, js = run(capsys, "check-covariance", "--input", str(f), "--gamma", "2", "--nu", "1")
        assert code == 2 and js["error"] == {"code": "domain", "message": f"{f}: {message}"}

    @pytest.mark.parametrize(
        "key, value",
        [("N", 6.5), ("N", -2), ("N", True), ("N", 6.0), ("weight", 4.5), ("level", True), ("terms", [[1.0, "240"]])],
    )
    def test_q_expansion_refuses_a_bad_number(self, capsys, tmp_path, key, value):
        # a fractional N crashed in the layout, weight 4.5 was read as 4, and
        # N -2 or true gave base_order -20 or -5; each is a usage error
        main(["eisenstein", "--k", "4", "--trunc", "6"])
        obj = {**json.loads(capsys.readouterr().out), key: value}
        f = tmp_path / "f.json"
        f.write_text(json.dumps(obj))
        code, js = run(capsys, "delta-expand", "--input", str(f), "--n", "1", "--p", "5", "--M", "4")
        assert code == 2 and js["error"]["code"] == "domain"

    def test_reader_error_names_the_file_without_a_repr(self, capsys, tmp_path):
        # the reader's own DomainError was rewrapped as a repr:
        # "F is not a valid payload: DomainError('N must be at least 0, got -2')"
        main(["eisenstein", "--k", "4", "--trunc", "6"])
        obj = {**json.loads(capsys.readouterr().out), "N": -2}
        f = tmp_path / "f.json"
        f.write_text(json.dumps(obj))
        code, js = run(capsys, "delta-expand", "--input", str(f), "--n", "1", "--p", "5", "--M", "4")
        assert code == 2 and js["error"] == {"code": "domain", "message": f"{f}: N must be at least 0, got -2"}
        # a payload of the wrong shape keeps its message
        f.write_text(json.dumps({"N": 5, "var": "q"}))
        code, js = run(capsys, "delta-expand", "--input", str(f), "--n", "1", "--p", "5", "--M", "4")
        assert code == 2 and js["error"]["message"] == f"{f} is not a valid payload: KeyError('terms')"

    def test_q_expansion_refuses_a_padic_coefficient(self, capsys, tmp_path):
        # Fraction(c) in delta_fourier_expand raised TypeError on the p-adic
        # coefficient: a traceback and exit 1; delta0 still reads the file
        obj = {"var": "q", "N": 5, "weight": 4, "level": 1, "terms": [[0, "1"], [1, {"p": 5, "M": 4, "residue": "3", "digits": 4}]]}
        f = tmp_path / "f.json"
        f.write_text(json.dumps(obj))
        code, js = run(capsys, "delta-expand", "--input", str(f), "--n", "1", "--p", "5", "--M", "4")
        message = f"{f}: a q-expansion has rational coefficients; a p-adic one is read by delta0"
        assert code == 2 and js["error"] == {"code": "domain", "message": message}
        code, js = run(capsys, "delta0", "--input", str(f), "--p", "5", "--M", "4")
        assert code == 0 and js["terms"][1][1]["p"] == 5

    def test_q_expansion_reads_integer_strings(self, capsys, tmp_path):
        main(["eisenstein", "--k", "4", "--trunc", "6"])
        text = capsys.readouterr().out
        obj = json.loads(text)
        obj.update(N="6", weight="4", level="1", terms=[[str(e), c] for e, c in obj["terms"]])
        f = tmp_path / "f.json"
        f.write_text(json.dumps(obj))
        main(["delta-expand", "--input", str(f), "--n", "1", "--p", "5", "--M", "4"])
        want = capsys.readouterr().out
        (tmp_path / "g.json").write_text(text)
        main(["delta-expand", "--input", str(tmp_path / "g.json"), "--n", "1", "--p", "5", "--M", "4"])
        assert capsys.readouterr().out == want and '"base_order":6' in want



GOLDEN_JOBS = [
    ("psi_serretate_p5_N20.json", ["psi", "--p", "5", "--side", "serretate", "--N", "20"]),
    ("psi_fourier_p7_w12.json", ["psi", "--p", "7", "--side", "fourier", "--M", "8", "--window", "12"]),
    ("fe0_P5_7_N30.json", ["fe0", "--P", "5,7", "--N", "30"]),
    ("fe_k_P5_7_k1_N50.json", ["fe-k", "--P", "5,7", "--k", "1", "--N", "50"]),
    ("fe_k_P5_7_11_k3_N30.json", ["fe-k", "--P", "5,7,11", "--k", "3", "--N", "30"]),
    ("fe_k_P5_7_11_k2_N40.json", ["fe-k", "--P", "5,7,11", "--k", "2", "--N", "40"]),
    ("commutator_6_2_3.json", ["check-commutator", "--p1", "2", "--p2", "3", "--value", "6"]),
    ("basis_P5_7_r22_N50.json", ["check-basis", "--P", "5,7", "--r", "2,2", "--N", "50"]),
    ("basis_P5_7_r33_N1226.json", ["check-basis", "--P", "5,7", "--r", "3,3", "--N", "1226"]),
    ("basis_P5_7_11_r222_N386.json", ["check-basis", "--P", "5,7,11", "--r", "2,2,2", "--N", "386"]),
    (
        "delta_expand_E4_t12_n2_p7_M6.json",
        ["delta-expand", "--form", "E4", "--trunc", "12", "--n", "2", "--p", "7", "--M", "6"],
    ),
    (
        "covariance_fe0_P5_7_N30_g24_nu2.json",
        [
            "check-covariance", "--input", "tests/golden/fe0_P5_7_N30.json",
            "--gamma", "24", "--nu", "2",
        ],
    ),
    ("fsharp_p13_w30_M6.json", ["fsharp", "--p", "13", "--window", "30", "--M", "6"]),
    (
        "lemma_xlaphi_p5_n2_symbolic.json",
        ["check-lemma", "--name", "xlaphi", "--p", "5", "--n", "2", "--varphi", "symbolic"],
    ),
    (
        "delta_expand_delta_t12_n2_p5_M6.json",
        ["delta-expand", "--form", "delta", "--trunc", "12", "--n", "2", "--p", "5", "--M", "6"],
    ),
    ("lemma_logder_p7_n2_a3.json", ["check-lemma", "--name", "logder", "--p", "7", "--n", "2", "--a", "3"]),
    # a deep chain: each phi step's images carry p^j far past the digits
    ("lemma_logder_p5_n5_a3.json", ["check-lemma", "--name", "logder", "--p", "5", "--n", "5", "--a", "3"]),
    (
        "lemma_xlaphi_p7_n1_varphi_m3.json",
        ["check-lemma", "--name", "xlaphi", "--p", "7", "--n", "1", "--varphi", "-3"],
    ),
    ("eisenstein_k4_t12.json", ["eisenstein", "--k", "4", "--trunc", "12"]),
    ("f2e0_P5_7_11_N40.json", ["f2e0", "--P", "5,7,11", "--N", "40"]),
    ("f2e_k_P17_19_k2_N40.json", ["f2e-k", "--P", "17,19", "--k", "2", "--N", "40"]),
    (
        "delta0_E4_t12_p5_M4.json",
        ["delta0", "--input", "tests/golden/eisenstein_k4_t12.json", "--p", "5", "--M", "4"],
    ),
    (
        "continuation_padic_P5_7_11_N30_M6.json",
        ["check-continuation", "--inputs", *(f"tests/golden/padic_fe0_P5_7_11_N30_M6_k{k}.json" for k in (1, 2, 3))],
    ),
    (
        "continuation_padic_P5_7_11_N30_M6_fault.json",
        [
            "check-continuation", "--inputs", "tests/golden/padic_fe0_P5_7_11_N30_M6_k1.json",
            "tests/golden/padic_fe0_P5_7_11_N30_M6_k2_fault.json", "tests/golden/padic_fe0_P5_7_11_N30_M6_k3.json",
        ],
    ),
    (
        "continuation_exact_P5_7_N30.json",
        ["check-continuation", "--inputs", "tests/golden/fe0_P5_7_N30.json", "tests/golden/fe0_P5_7_N30.json"],
    ),
    (
        "continuation_exact_P5_7_N30_fault.json",
        ["check-continuation", "--inputs", "tests/golden/fe0_P5_7_N30.json", "tests/golden/fe0_P5_7_N30_fault.json"],
    ),
]


class TestGoldenFiles:
    import os

    GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

    def test_payloads_match_stored_bytes(self, capsys, monkeypatch):
        import os

        # the jobs name their input files relative to the repository root
        monkeypatch.chdir(os.path.dirname(os.path.dirname(self.GOLDEN_DIR)))
        for fname, argv in GOLDEN_JOBS:
            with open(os.path.join(self.GOLDEN_DIR, fname), encoding="utf-8") as fh:
                golden = fh.read()
            code = main(argv)
            assert capsys.readouterr().out == golden, fname
            # a pinned failing verdict exits 1, every other job 0
            assert code == (1 if json.loads(golden).get("pass") is False else 0), fname

    def test_build_expansions_output_matches_its_manifest(self, tmp_path, capsys):
        # the sha256 of every file the script writes is pinned in the manifest,
        # and its closing covariance check prints its payload and exits 0
        import hashlib

        assert _build_expansions().run(str(tmp_path)) == 0
        out = capsys.readouterr().out
        with open(os.path.join(self.GOLDEN_DIR, "build_expansions.sha256"), encoding="utf-8") as fh:
            manifest = {name: digest for digest, name in map(str.split, fh)}
        assert sorted(os.listdir(tmp_path)) == sorted(manifest)
        for fname, digest in manifest.items():
            assert hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest() == digest, fname
        closing = '{"gamma":2,"nu":1,"pass":true,"witness":null}\n[0] covariance of the order-e form\n'
        assert out.endswith("\n" + closing)

    def test_padic_family_members_match_stored_bytes(self):
        # the inputs of the two continuation goldens: the members of fe0
        # (5,7,11) N 30 at M 6, and the 7-adic one with one residue raised by 1
        f0 = multiprime.build_fe0((5, 7, 11), 30)
        for k in range(3):
            with open(os.path.join(self.GOLDEN_DIR, f"padic_fe0_P5_7_11_N30_M6_k{k + 1}.json"), encoding="utf-8") as fh:
                assert cli._dump(multiprime.reduce_to_padic(f0, k, 6).to_json()) == fh.read()
        with open(os.path.join(self.GOLDEN_DIR, "padic_fe0_P5_7_11_N30_M6_k2.json"), encoding="utf-8") as fh:
            good = json.load(fh)
        with open(os.path.join(self.GOLDEN_DIR, "padic_fe0_P5_7_11_N30_M6_k2_fault.json"), encoding="utf-8") as fh:
            bad = json.load(fh)
        diff = [(a, b) for a, b in zip(good["terms"], bad["terms"]) if a != b]
        assert {**good, "terms": len(good["terms"])} == {**bad, "terms": len(bad["terms"])} and len(diff) == 1
        (mono, c), (mono_bad, c_bad) = diff[0]
        assert mono == mono_bad and int(c_bad["residue"]) == int(c["residue"]) + 1

    def test_exact_fault_member_differs_in_one_coefficient(self):
        # the second input of the exact continuation fault: fe0 (5,7) N 30
        # with the coefficient 49 of the monomial [[0,0],7] [[0,1],3] raised by 1
        with open(os.path.join(self.GOLDEN_DIR, "fe0_P5_7_N30.json"), encoding="utf-8") as fh:
            good = json.load(fh)
        with open(os.path.join(self.GOLDEN_DIR, "fe0_P5_7_N30_fault.json"), encoding="utf-8") as fh:
            text = fh.read()
        bad = json.loads(text)
        assert cli._dump(bad) == text
        diff = [(a, b) for a, b in zip(good["terms"], bad["terms"]) if a != b]
        assert {**good, "terms": len(good["terms"])} == {**bad, "terms": len(bad["terms"])}
        assert diff == [([[[[0, 0], 7], [[0, 1], 3]], "49"], [[[[0, 0], 7], [[0, 1], 3]], "50"])]


class TestProtocol:
    def test_determinism(self, capsys):
        code1, _ = run(capsys, "fe0", "--P", "5,7", "--N", "30")
        out1 = None
        code1 = main(["fe0", "--P", "5,7", "--N", "30"])
        out1 = capsys.readouterr().out
        code2 = main(["fe0", "--P", "5,7", "--N", "30"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0 and out1 == out2

    def test_golden_match_and_mismatch(self, capsys, tmp_path):
        golden = tmp_path / "golden.json"
        code = main(["--out", str(golden), "psi", "--p", "5", "--N", "12"])
        capsys.readouterr()
        assert code == 0
        code = main(["--golden", str(golden), "psi", "--p", "5", "--N", "12"])
        capsys.readouterr()
        assert code == 0
        code = main(["--golden", str(golden), "psi", "--p", "7", "--N", "12"])
        capsys.readouterr()
        assert code == 1

    def test_golden_mismatch_names_the_first_difference(self, capsys, tmp_path):
        golden = tmp_path / "golden.json"
        main(["--out", str(golden), "psi", "--p", "5", "--N", "12"])
        capsys.readouterr()
        main(["psi", "--p", "5", "--N", "13"])
        plain = capsys.readouterr().out
        code = main(["--golden", str(golden), "psi", "--p", "5", "--N", "13"])
        out, err = capsys.readouterr()
        assert code == 1 and out == plain  # stdout is the payload, unchanged
        column = next(k for k, (a, b) in enumerate(zip(golden.read_text(), plain)) if a != b) + 1
        assert err.startswith(f"pjet: golden mismatch at line 1, column {column}: ")
        assert '"N":12' in err and '"N":13' in err

    @pytest.mark.parametrize(
        "want, got, where",
        [
            ("a\nbcd\n", "a\nbXd\n", "line 2, column 2"),
            ("a\nb\n", "a\nb\nc\n", "line 3, column 1"),
            ("ab\n", "ab", "line 1, column 3"),
            ("", "x", "line 1, column 1"),
        ],
    )
    def test_first_difference(self, want, got, where):
        assert cli._first_difference(want, got).startswith(where + ": ")

    @pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
    def test_unreadable_golden_exit_2_before_the_handler(self, capsys, monkeypatch, tmp_path, kind):
        path = {"missing": tmp_path / "no" / "x.json", "directory": tmp_path}.get(kind)
        if path is None:
            path = tmp_path / "latin1.json"
            path.write_bytes(b"\xff\xfe\n")
        ran = []
        monkeypatch.setattr(cli, "cmd_ap", lambda args: ran.append(args) or ({}, True))
        code, js = run(capsys, "--golden", str(path), "ap", "--p", "5")
        assert code == 2 and js["error"]["code"] == "domain" and ran == []

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        main(["psi", "--p", "5", "--N", "12"])
        plain = capsys.readouterr().out
        path = tmp_path / "no" / "x.json"
        code = main(["--out", str(path), "psi", "--p", "5", "--N", "12"])
        out, err = capsys.readouterr()
        assert code == 2 and out == plain and not path.exists()
        assert err.startswith(f"pjet: cannot write --out {path}: ")

    def test_roundtrip_own_output(self, capsys, tmp_path):
        path = tmp_path / "psi.json"
        main(["--out", str(path), "psi", "--p", "5", "--N", "20"])
        capsys.readouterr()
        code, js = run(
            capsys, "check-covariance", "--input", str(path), "--gamma", "2", "--nu", "1"
        )
        assert code == 0 and js["pass"] is True

    @pytest.mark.parametrize(
        "exc, want",
        [
            (errors.IntegralityViolation, 1),
            (errors.ReconstructionFailure, 1),
            (errors.PrecisionExhausted, 1),
            (errors.DomainError, 2),
            (errors.MissingPrimeValue, 2),
        ],
    )
    def test_error_exit_codes(self, capsys, monkeypatch, exc, want):
        def fail(args):
            raise exc("boom")

        monkeypatch.setattr(cli, "cmd_ap", fail)
        code, js = run(capsys, "ap", "--p", "5")
        assert code == want and js["error"]["code"] == exc.code

    def test_usage_error_exit_2(self, capsys):
        assert main(["psi"]) == 2  # missing --p
        capsys.readouterr()
        code, js = run(capsys, "eisenstein", "--k", "3", "--trunc", "5")
        assert code == 2 and "error" in js

    @pytest.mark.parametrize(
        "argv",
        [
            ["fe0", "--P", "x"],
            ["fe0", "--P", ","],
            ["fe0", "--P", "5,5"],
            ["fe-k", "--P", "5,7,5", "--k", "1"],
            ["check-basis", "--P", "7,7", "--r", "1,1"],
            ["fe0", "--P", "5,7", "--N", "-1"],
            ["f2e0", "--P", "5,13", "--N", "-4"],
            ["psi", "--p", "5", "--N", "-2"],
            ["fe-k", "--P", "5,7", "--k", "3"],
        ],
    )
    def test_bad_prime_list_or_bound_exit_2(self, capsys, argv):
        code, js = run(capsys, *argv)
        assert code == 2 and js["error"]["code"] == "domain"

    @pytest.mark.parametrize(
        "argv, flag, low",
        [
            (["fe0", "--P", "5,7"], "--N", 0),
            (["psi", "--p", "5", "--side", "fourier"], "--window", 1),
            (["psi", "--p", "5", "--side", "fourier"], "--M", 1),
            (["fsharp", "--p", "13", "--M", "2"], "--window", 1),
            (["delta0", "--input", "tests/golden/eisenstein_k4_t12.json", "--p", "5"], "--M", 1),
            (["eisenstein", "--k", "4"], "--trunc", 0),
            (["delta-expand", "--form", "E4", "--p", "5"], "--trunc", 0),
            (["f2e0", "--P", "5,13", "--N", "20"], "--nmax", 1),
            (["f2e-k", "--P", "5,13", "--k", "2", "--N", "20"], "--nmax", 1),
            (["check-lemma", "--name", "logder", "--p", "5"], "--n", 0),
            (["check-lemma", "--name", "xlaphi", "--p", "5"], "--n", 1),
            (
                ["check-continuation", "--inputs", "tests/golden/fe0_P5_7_N30.json"],
                "--height",
                1,
            ),
        ],
    )
    def test_flag_minimum(self, capsys, monkeypatch, argv, flag, low):
        monkeypatch.chdir(os.path.dirname(os.path.dirname(__file__)))
        for below in (low - 1, low - 3):
            code, js = run(capsys, *argv, flag, str(below))
            assert code == 2 and js["error"]["code"] == "domain", below
        code, js = run(capsys, *argv, flag, str(low))
        assert code == 0 and "error" not in js

    @pytest.mark.parametrize(
        "argv",
        [
            ["psi", "--side", "fourier"],
            ["psi", "--side", "serretate", "--N", "5"],
            ["check-lemma", "--name", "xlaphi"],
            ["check-lemma", "--name", "logder"],
        ],
    )
    def test_prime_required(self, capsys, argv):
        for p in ("4", "9"):
            code, js = run(capsys, *argv, "--p", p)
            assert code == 2 and js["error"]["code"] == "domain"
        code, js = run(capsys, *argv, "--p", "11")
        assert code == 0 and "error" not in js

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-basis", "--P", "5,7", "--r", "x"],
            ["check-basis", "--P", "5,7", "--r", "2,"],
            ["check-lemma", "--name", "xlaphi", "--p", "5", "--varphi", "x"],
            ["check-lemma", "--name", "xlaphi", "--p", "5", "--varphi", "1/0"],
        ],
    )
    def test_bad_order_vector_or_varphi_exit_2(self, capsys, argv):
        code, js = run(capsys, *argv)
        assert code == 2 and js["error"]["code"] == "domain"

    @pytest.mark.parametrize(
        "P, r, usable",
        [("5,7", "2,2", 36), ("5", "3", 26), ("5,7", "1,3", 50), ("5,7", "2,1", 6)],
    )
    def test_check_basis_needs_the_deepest_shift(self, capsys, P, r, usable):
        code, js = run(capsys, "check-basis", "--P", P, "--r", r, "--N", str(usable - 1))
        assert code == 2 and js["error"]["code"] == "domain"
        assert f"N >= {usable}" in js["error"]["message"]
        code, js = run(capsys, "check-basis", "--P", P, "--r", r, "--N", str(usable))
        assert code == 0 and js["pass"] is True

    @pytest.mark.parametrize(
        "P, r, N, message",
        [
            # the order vector is checked first, then N, then each prime, then p >= 5
            ("3,4", "1", "1", "order vector must have a positive entry per prime"),
            ("3,4", "2,2", "5", "N=5 truncates the deepest shift, which starts at weight 12; use N >= 13"),
            ("3,4", "1,1", "20", "4 is not a prime"),
            ("3,7", "1,1", "20", "the modular layer requires primes >= 5"),
            ("2,5", "1,2", "20", "the modular layer requires primes >= 5"),
        ],
    )
    def test_check_basis_refusal_order(self, capsys, P, r, N, message):
        code, js = run(capsys, "check-basis", "--P", P, "--r", r, "--N", N)
        assert code == 2 and js["error"] == {"code": "domain", "message": message}

    @pytest.mark.parametrize(
        "argv",
        [
            ["fe0", "--P", "3,5", "--N", "10"],
            ["fe-k", "--P", "3,5", "--k", "1", "--N", "10"],
            ["f2e0", "--P", "3,5", "--N", "10"],
            ["f2e-k", "--P", "3,5", "--k", "2", "--N", "10"],
            ["f2e-k", "--P", "5,2", "--k", "1", "--N", "10"],
        ],
    )
    def test_multiprime_builders_refuse_primes_below_five(self, capsys, argv):
        code, js = run(capsys, *argv)
        assert code == 2 and js["error"] == {"code": "domain", "message": "the modular layer requires primes >= 5"}

    @pytest.mark.parametrize("fname", ["basis_P5_7_r33_N1226.json", "basis_P5_7_11_r222_N386.json"])
    def test_check_basis_goldens_have_full_rank(self, fname):
        with open(os.path.join(os.path.dirname(__file__), "golden", fname), encoding="utf-8") as fh:
            obj = json.load(fh)
        assert obj["pass"] is True and obj["rank"] == obj["expected"] == math.prod(obj["r"])

    @pytest.mark.parametrize(
        "payload,argv",
        [
            (
                {"N": 4, "level": 1, "terms": [[0, "1"], [1, "240"]], "var": "q", "weight": 4},
                ["check-covariance", "--input", "FILE", "--gamma", "2", "--nu", "1"],
            ),
            (None, ["check-covariance", "--input", "FILE", "--gamma", "2", "--nu", "1"]),
            (None, ["ap", "--curve", "FILE", "--p", "5"]),
            ({"N": None, "terms": [[0, "1/0"]], "var": "q"}, ["delta0", "--input", "FILE", "--p", "5"]),
            ({"N": 4, "terms": [[0, "1"]]}, ["delta-expand", "--input", "FILE", "--p", "5"]),
            ("{not json", ["delta0", "--input", "FILE", "--p", "5"]),
        ],
        ids=[
            "q-expansion-as-jet-series", "missing-input", "missing-curve",
            "zero-denominator", "series-without-var", "not-json",
        ],
    )
    def test_bad_input_file_exit_2(self, capsys, tmp_path, payload, argv):
        path = tmp_path / "input.json"
        if payload is not None:
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code, js = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
        assert code == 2 and js["error"]["code"] == "domain"

    def test_cached_parser_matches_fresh_parser(self, capsys):
        jobs = [
            ["fe0", "--P", "5,7", "--N", "20"],
            ["psi", "--p", "5", "--side", "fourier", "--window", "6"],
            ["check-lemma", "--name", "logder", "--p", "5", "--n", "2", "--a", "3"],
            ["fe-k", "--P", "5,7", "--k", "2", "--N", "20"],
            ["eisenstein", "--k", "6", "--trunc", "8"],
            ["fe0", "--P", "x"],
            ["psi", "--p", "7", "--N", "12"],
        ]

        sequence = jobs + jobs[::-1]
        interleaved = [(main(argv), capsys.readouterr().out) for argv in sequence]
        fresh = []
        for argv in sequence:
            cli._parser.cache_clear()
            fresh.append((main(argv), capsys.readouterr().out))
        assert interleaved == fresh
        assert interleaved[: len(jobs)] == interleaved[len(jobs) :][::-1]

    def test_cached_parser_follows_rebound_handler(self, capsys, monkeypatch):
        assert main(["ap", "--p", "5"]) == 0
        capsys.readouterr()
        seen = []

        def wrapped(args):
            seen.append(args.p)
            return {"wrapped": True}, True

        monkeypatch.setattr(cli, "cmd_ap", wrapped)
        code, js = run(capsys, "ap", "--p", "7")
        assert code == 0 and js == {"wrapped": True} and seen == [7]

    def test_parser_built_under_a_wrapper_finds_the_handler(self, capsys, monkeypatch):
        # a tracer may wrap cmd_* before the parser is first built; the wrapper's
        # own __name__ must not end up as the stored handler name
        real = cli.cmd_check_commutator
        seen = []

        def traced(args):
            seen.append(args.value)
            return real(args)

        monkeypatch.setattr(cli, "cmd_check_commutator", traced)
        cli._parser.cache_clear()
        code, js = run(capsys, "check-commutator", "--p1", "2", "--p2", "3", "--value", "6")
        assert code == 0 and js["pass"] is True and seen == [6]
        monkeypatch.undo()
        code, js = run(capsys, "check-commutator", "--p1", "2", "--p2", "3", "--value", "6")
        assert code == 0 and js["pass"] is True and seen == [6]

    def test_math_error_exit_1(self, capsys, tmp_path):
        # Hecke-inconsistent input: integrality violation surfaces as exit 1
        curve = tmp_path / "curve.json"
        curve.write_text(
            json.dumps(
                {
                    "curve": {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a6": 2},
                    "bad_primes": {"2": 0, "3": 0},
                }
            )
        )
        code, js = run(
            capsys,
            "fsharp",
            "--curve",
            str(curve),
            "--p",
            "13",
            "--window",
            "10",
            "--M",
            "4",
        )
        assert code in (0, 1)  # integrality depends on the curve at p


def _build_expansions():
    """The module ``scripts/build_expansions.py``."""
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "build_expansions.py")
    spec = importlib.util.spec_from_file_location("build_expansions", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build_expansions_jobs():
    """``JOBS`` of ``scripts/build_expansions.py``, with the ``--out`` it puts before each."""
    return [["--out", os.path.join("out", fname), *argv] for fname, argv in _build_expansions().JOBS]


# The odd value tokens: negative numbers, which argparse reads as values
# (-3, -1.5) or as an option (-1/3), the empty string, a lone dash, the
# separator, options where a value belongs, a bad choice.
ODD_VALUES = ["-3", "-1.5", "-1/3", "", "-", "--", "x", "-x", "-h", "5,7", "sideways"]


def flag_values(spec, odd):
    """A value of the flag's own kind, or with ``odd`` sometimes an odd one."""
    if spec.get("type") is int:
        good = st.integers(-3, 40).map(str)
    elif "choices" in spec:
        good = st.sampled_from(spec["choices"])
    else:
        good = st.sampled_from(["5,7", "a.json", "symbolic", "-3"])
    return st.one_of(good, good, good, st.sampled_from(ODD_VALUES)) if odd else good


@st.composite
def dispatch_argv(draw):
    """Global option pairs, a known or unknown subcommand, then its flags in
    a drawn order, some left out and some repeated.  A clean argv types each
    as ``--flag value`` (nargs "+" one to three values); a noisy one also
    cuts a flag short, writes --flag=value, puts an unknown flag, -h or a
    global option in its place, and gives zero to three values, odd ones
    among them."""
    argv = []
    for _ in range(draw(st.integers(0, 2))):
        argv += [draw(st.sampled_from(["--out", "--golden"])), draw(st.sampled_from(["o.json", "-x"]))]
    name = draw(st.sampled_from([*cli.COMMANDS, "frobnicate"]))
    flags = cli.COMMANDS.get(name, cli.COMMANDS["fe0"])[1]
    noisy = draw(st.booleans())
    order = [f for f in draw(st.permutations(sorted(flags))) if draw(st.integers(0, 5))]
    argv.append(name)
    for flag in order + draw(st.lists(st.sampled_from(sorted(flags)), max_size=2)):
        many = flags[flag].get("nargs") == "+"
        count = draw(st.sampled_from([1] * 6 + [0, 2, 3]) if noisy else st.integers(1, 3 if many else 1))
        values = [draw(flag_values(flags[flag], noisy)) for _ in range(count)]
        shape = draw(st.sampled_from(["pair"] * 6 + ["abbreviated", "equals", "unknown", "help", "global"])) if noisy else "pair"
        if shape == "equals":
            argv.append(f"--{flag}={values[0] if values else ''}")
            continue
        head = {"pair": f"--{flag}", "abbreviated": f"--{flag[:-1]}", "unknown": "--bogus", "help": "-h"}
        argv += [head.get(shape, "--out"), *values]
    return argv


class TestDispatch:
    """``main`` reads a job's ``--flag value`` pairs straight from
    ``cli.COMMANDS`` and hands every other argv to the full parser; every
    outcome must be the full parser's, byte for byte."""

    @staticmethod
    def outcome(parse, argv, capsys):
        try:
            result = ("parsed", vars(parse(list(argv))))
        except SystemExit as e:
            result = ("exit", e.code)
        out, err = capsys.readouterr()
        return result, out, err

    @staticmethod
    def captured(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = ("parsed", vars(parse(list(argv))))
            except SystemExit as e:
                result = ("exit", e.code)
        return result, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["fe0", "-h"],
            ["frobnicate", "--P", "5,7"],
            ["--out=PATH", "fe0", "--P", "5,7"],
            ["--o", "PATH", "fe0", "--P", "5,7"],
            ["--gold", "PATH", "fe0", "--P", "5,7"],
            ["fe0", "--P", "5,7", "--out", "PATH"],
            ["--out", "PATH"],
            ["--out", "-x", "fe0", "--P", "5,7"],
            ["--golden", "A", "--out", "B", "--out", "C", "fe0", "--P", "5,7"],
            ["psi", "--p", "5", "--side", "fourier", "--win", "30"],
            ["fe0", "--P", "5,7", "--N=30"],
            ["fe0", "--P"],
            ["fe0", "--P", "5,7", "--bogus", "1"],
            ["fe0", "--P", "5,7", "extra"],
            ["fe0", "--P", "5,7", "--N", "x"],
            ["psi", "--p", "5", "--side", "sideways"],
            ["check-lemma", "--name", "logder", "--p", "5", "--", "--n", "2"],
            ["check-continuation", "--inputs", "a.json", "b.json", "--height", "3"],
            ["check-continuation", "--inputs"],
            ["psi", "--side", "fourier"],
            ["fe0", "--P", "-x"],
            ["fe0", "--P", "-"],
            ["fe0", "--P", ""],
            ["fe0", "--P", "5,7", "--N", "-1"],
            ["fe0", "--P", "5,7", "--P", "7,11", "--N", "20", "--N", "30"],
            ["fe0", "--P", "5,7", "--N", "30", "40"],
            ["check-lemma", "--name", "xlaphi", "--p", "7", "--varphi", "-3"],
            ["check-lemma", "--name", "xlaphi", "--p", "7", "--varphi", "-1.5"],
            ["check-lemma", "--name", "xlaphi", "--p", "7", "--varphi", "-1/3"],
            ["check-lemma", "--name", "bogus", "--p", "7"],
            ["check-lemma", "--p", "7", "--n", "2"],
            ["check-continuation", "--inputs", "a", "b", "c", "--inputs", "d"],
            ["psi", "--p", "5", "--side", "fourier", "--side", "serretate"],
        ],
    )
    def test_outcome_is_the_full_parsers(self, capsys, argv):
        want = self.outcome(cli._parser().parse_args, argv, capsys)
        assert self.outcome(cli._parse, argv, capsys) == want

    @given(argv=dispatch_argv())
    @example(argv=["check-continuation", "--inputs", "a", "-3", "--height", "2"])
    @settings(max_examples=300, deadline=None)
    def test_drawn_argv_gives_the_full_parsers_outcome(self, argv):
        assert self.captured(cli._parse, argv) == self.captured(cli._parser().parse_args, argv)

    @pytest.mark.parametrize(
        "argv, code",
        [
            ([], 2),
            (["-h"], 0),
            (["fe0", "-h"], 0),
            (["fe0", "--P", "5,7", "--bogus", "1"], 2),
            (["fe0", "--P", "5,7", "--N", "x"], 2),
            (["--out=x", "fe0"], 2),
        ],
    )
    def test_refusals_keep_their_exit_code_and_streams(self, capsys, argv, code):
        (_, status), out, err = self.outcome(cli._parser().parse_args, argv, capsys)
        assert status == code and (main(argv), *capsys.readouterr()) == (code, out, err)

    def test_jobs_take_the_table_reader_alone(self, monkeypatch):
        # every golden and build_expansions job, a negative value and three
        # inputs parse to the full parser's Namespace, with no parser built
        jobs = [argv for _, argv in GOLDEN_JOBS] + _build_expansions_jobs()
        jobs += [["--golden", "g.json", *argv] for argv in jobs[:3]]
        jobs += [
            ["check-lemma", "--name", "xlaphi", "--p", "7", "--n", "1", "--varphi", "-3"],
            ["check-continuation", "--inputs", "a.json", "b.json", "c.json"],
        ]
        want = [cli._parser().parse_args(argv) for argv in jobs]

        def refused():
            raise AssertionError("the full parser was built")

        monkeypatch.setattr(cli, "_parser", refused)
        assert [cli._parse(argv) for argv in jobs] == want

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["pjet", "check-commutator", "--p1", "2", "--p2", "3", "--value", "6"])
        assert main() == 0 and json.loads(capsys.readouterr().out)["pass"] is True

"""CLI surface: every subcommand, exit codes, determinism, golden files."""

import json

import pytest

from pjet import cli
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


GOLDEN_JOBS = [
    ("psi_serretate_p5_N20.json", ["psi", "--p", "5", "--side", "serretate", "--N", "20"]),
    ("psi_fourier_p7_w12.json", ["psi", "--p", "7", "--side", "fourier", "--M", "8", "--window", "12"]),
    ("fe0_P5_7_N30.json", ["fe0", "--P", "5,7", "--N", "30"]),
    ("commutator_6_2_3.json", ["check-commutator", "--p1", "2", "--p2", "3", "--value", "6"]),
    ("basis_P5_7_r22_N50.json", ["check-basis", "--P", "5,7", "--r", "2,2", "--N", "50"]),
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
    ("eisenstein_k4_t12.json", ["eisenstein", "--k", "4", "--trunc", "12"]),
    (
        "delta0_E4_t12_p5_M4.json",
        ["delta0", "--input", "tests/golden/eisenstein_k4_t12.json", "--p", "5", "--M", "4"],
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

    def test_roundtrip_own_output(self, capsys, tmp_path):
        path = tmp_path / "psi.json"
        main(["--out", str(path), "psi", "--p", "5", "--N", "20"])
        capsys.readouterr()
        code, js = run(
            capsys, "check-covariance", "--input", str(path), "--gamma", "2", "--nu", "1"
        )
        assert code == 0 and js["pass"] is True

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
        ],
    )
    def test_bad_prime_list_or_bound_exit_2(self, capsys, argv):
        code, js = run(capsys, *argv)
        assert code == 2 and js["error"]["code"] == "domain"

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

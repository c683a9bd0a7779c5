"""Refusals of malformed input: each check below names its message, and each
test fails when its check is deleted."""

import json
from fractions import Fraction

import pytest

from pjet.arith import PadicTrunc, rational_reconstruct
from pjet.cli import main
from pjet.deltajet import JetSeries, delta, delta_n, psi_serretate
from pjet.errors import DomainError, PrecisionExhausted
from pjet.forms import build_f2e0, build_f2e_k, covariance_check
from pjet.modular import CURVE_11A1, newform_coefficients
from pjet.multiprime import (
    MultiJetSeries,
    build_fe0,
    build_fe_k,
    continuation_check,
    from_jet_series,
    reduce_to_padic,
)
from pjet.qseries import Series1


def refused(capsys, *argv):
    """The message of a usage error (exit 2) of the CLI run on ``argv``."""
    code = main(list(argv))
    js = json.loads(capsys.readouterr().out)
    assert code == 2 and js["error"]["code"] == "domain", js
    return js["error"]["message"]


def write(tmp_path, name, f):
    path = tmp_path / name
    path.write_text(json.dumps(f.to_json()))
    return str(path)


class TestCliRefusals:
    def test_continuation_members_must_share_P_and_N(self, capsys, tmp_path):
        a = write(tmp_path, "a.json", build_fe_k((5, 7), 0, 20))
        for name, other in [("n.json", build_fe_k((5, 7), 1, 18)), ("p.json", build_fe_k((5, 11), 1, 20))]:
            b = write(tmp_path, name, other)
            assert refused(capsys, "check-continuation", "--inputs", a, b) == "family members must share P and N"

    def test_continuation_refuses_an_exact_member_beside_a_padic_one(self, capsys, tmp_path):
        f0 = build_fe0((5, 7), 12)
        a, b = write(tmp_path, "a.json", f0), write(tmp_path, "b.json", reduce_to_padic(f0, 1, 6))
        message = "cannot mix exact and p-adic family members"
        assert refused(capsys, "check-continuation", "--inputs", a, b) == message
        assert refused(capsys, "check-continuation", "--inputs", b, a) == message

    def test_padic_family_needs_one_member_per_prime_in_prime_order(self, capsys, tmp_path):
        f0 = build_fe0((5, 7, 11), 12)
        m = [write(tmp_path, f"m{k}.json", reduce_to_padic(f0, k, 6)) for k in range(3)]
        message = "p-adic continuation needs one member per prime"
        assert refused(capsys, "check-continuation", "--inputs", m[0], m[1]) == message
        message = "p-adic family members must be ordered by prime"
        assert refused(capsys, "check-continuation", "--inputs", m[1], m[0], m[2]) == message
        assert refused(capsys, "check-continuation", "--inputs", m[0], m[0], m[2]) == message

    @pytest.mark.parametrize("extra", [[], ["--form", "E8"]])
    def test_delta_expand_needs_an_input_or_a_known_form(self, capsys, extra):
        message = refused(capsys, "delta-expand", "--p", "5", "--trunc", "8", *extra)
        assert message == "supply --input FILE or --form E4|E6|delta"

    def test_fsharp_refuses_p_below_5(self, capsys):
        assert refused(capsys, "fsharp", "--p", "3", "--window", "10") == "the modular layer requires p >= 5"

    def test_f2e_k_refuses_a_prime_index_past_the_primes(self, capsys):
        assert refused(capsys, "f2e-k", "--P", "5,7", "--k", "3", "--N", "10") == "prime index out of range"


class TestMultiJetSeriesRefusals:
    def test_ring_tag_out_of_range(self):
        f = build_fe0((5, 7), 8)
        for ring in (-1, 3):
            with pytest.raises(DomainError, match="ring tag out of range"):
                MultiJetSeries(f.P, f._store, f.N, ring)
        assert MultiJetSeries(f.P, f._store, f.N, 2).ring == 2

    def test_ring_operations_need_exact_coefficients(self):
        m = reduce_to_padic(build_fe0((5, 7), 8), 0, 6)
        for op in (lambda: m + m, lambda: m * m, lambda: -m):
            with pytest.raises(DomainError, match="ring operations need exact rational coefficients"):
                op()

    def test_mismatched_prime_sets(self):
        a, b = build_fe0((5, 7), 8), build_fe0((5, 11), 8)
        for op in (lambda: a + b, lambda: a * b):
            with pytest.raises(DomainError, match="mismatched prime sets"):
                op()

    def test_join_ring(self):
        one = {ring: MultiJetSeries.make((5, 7), {(): 1}, 8, ring=ring) for ring in range(3)}
        # the common ring with ring k lands in ring k, in either order
        assert (one[0] + one[2]).ring == (one[2] * one[0]).ring == 2
        assert (one[1] * one[0]).ring == 1
        for op in (lambda: one[1] + one[2], lambda: one[2] * one[1]):
            with pytest.raises(DomainError, match="cannot mix two different per-prime rings"):
                op()

    def test_continuation_of_no_member(self):
        with pytest.raises(DomainError, match="empty family"):
            continuation_check([])


class TestFormsRefusals:
    AN = newform_coefficients(CURVE_11A1, 10, {11: 1})

    @pytest.mark.parametrize("ap", [[1], [1, 0, 2]])
    def test_one_a_p_per_prime(self, ap):
        with pytest.raises(DomainError, match="one a_p per prime required"):
            build_f2e0(self.AN, (5, 7), ap, 10)
        with pytest.raises(DomainError, match="one a_p per prime required"):
            build_f2e_k(self.AN, (5, 7), 0, ap, 10)

    def test_padic_gamma_in_the_wrong_ring(self):
        message = "p-adic gamma checks run in the matching d=1 ring"
        with pytest.raises(DomainError, match=message):
            covariance_check(build_fe0((5, 7), 10), PadicTrunc(5, 6, 7, 6), 1)
        with pytest.raises(DomainError, match=message):
            covariance_check(from_jet_series(psi_serretate(5, 10)), PadicTrunc(7, 6, 3, 6), 1)

    @pytest.mark.parametrize("residue", [5, 25, 1, 6])
    def test_padic_gamma_congruent_to_0_or_1(self, residue):
        F = from_jet_series(psi_serretate(5, 10))
        with pytest.raises(DomainError, match="gamma must avoid 0 and 1 modulo p$"):
            covariance_check(F, PadicTrunc(5, 6, residue, 6), 1)


class TestDeltaRefusals:
    def test_delta_n_refuses_a_negative_count(self):
        f = JetSeries.make(5, {(1, ()): Fraction(1)})
        with pytest.raises(DomainError, match="n must be nonnegative"):
            delta_n(f, -1)

    def test_delta_runs_out_of_digits(self):
        # no digits of its own, but a negative base exponent reads it at M 1
        f = JetSeries.make(5, {(-1, ()): Fraction(1)}, M=1)
        with pytest.raises(PrecisionExhausted, match="guaranteed digits exhausted"):
            delta(f)


class TestArithRefusals:
    @pytest.mark.parametrize("M", [0, -1])
    def test_padic_modulus_exponent(self, M):
        with pytest.raises(DomainError, match="modulus exponent must be positive"):
            PadicTrunc(5, M, 1, 0)

    @pytest.mark.parametrize("digits", [-1, 4])
    def test_padic_digits_within_M(self, digits):
        with pytest.raises(DomainError, match=r"digits must lie in \[0, M\]"):
            PadicTrunc(5, 3, 1, digits)

    def test_reconstruction_needs_a_residue(self):
        with pytest.raises(DomainError, match="at least one residue required"):
            rational_reconstruct([])

    def test_reconstruction_refuses_a_repeated_prime(self):
        with pytest.raises(DomainError, match="duplicate primes in residue list"):
            rational_reconstruct([(5, 3, 1), (7, 2, 1), (5, 2, 1)])


class TestSeries1Refusals:
    def test_unknown_variable(self):
        with pytest.raises(DomainError, match="unknown base variable 'x'"):
            Series1.make("x", {0: Fraction(1)})

    def test_mismatched_variables(self):
        q, t = Series1.make("q", {1: Fraction(1)}, 4), Series1.make("t", {1: Fraction(1)}, 4)
        for op in (lambda: q + t, lambda: q * t, lambda: t - q):
            with pytest.raises(DomainError, match="mismatched base variables"):
                op()

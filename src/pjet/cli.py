"""Command-line interface: every builder and checker behind JSON I/O.

All payloads are UTF-8 JSON with sorted keys and no timestamps, so identical
invocations produce identical bytes.  Exit codes: 0 success or passing
check, 1 mathematical check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import deltajet, forms, modular, multiprime
from .arith import cross_prime_commutator, fermat_delta, format_rational
from .errors import (
    DomainError,
    IntegralityViolation,
    MissingPrimeValue,
    OrderBudgetExceeded,
    PjetError,
    PrecisionExhausted,
    ReconstructionFailure,
)

USAGE_ERRORS = (DomainError, OrderBudgetExceeded, MissingPrimeValue)
MATH_ERRORS = (IntegralityViolation, ReconstructionFailure, PrecisionExhausted)


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _ints(text: str, flag: str) -> list[int]:
    """Parse a comma-separated list of integers given to ``flag``."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise DomainError(f"{flag} wants comma-separated integers, got {text!r}") from None


def _primes(text: str) -> list[int]:
    """Parse ``--P``: distinct integers, comma separated, in the order typed."""
    P = _ints(text, "--P")
    if len(set(P)) != len(P):
        raise DomainError(f"--P repeats a prime: {text!r}")
    return P


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise DomainError(f"cannot read JSON from {path}: {e}") from None


def _decode(path: str, from_json):
    """Load ``path`` and decode it; a payload of the wrong shape is a usage error."""
    obj = _load_json(path)
    try:
        return from_json(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise DomainError(f"{path} is not a valid payload: {e!r}") from None


def _load_series(path: str):
    def from_json(obj):
        if "P" in obj:
            return multiprime.MultiJetSeries.from_json(obj)
        return deltajet.JetSeries.from_json(obj)

    return _decode(path, from_json)


def _curve_and_an(args, n_max: int):
    curve, bad = modular.load_curve_fixture(getattr(args, "curve", None))
    return curve, modular.newform_coefficients(curve, n_max, bad)


def _q_expansion(args) -> modular.QExpansion:
    if getattr(args, "input", None):
        return _decode(args.input, modular.QExpansion.from_json)
    name = (args.form or "").upper()
    trunc = args.trunc
    if name == "E4":
        return modular.eisenstein(4, trunc)
    if name == "E6":
        return modular.eisenstein(6, trunc)
    if name == "DELTA":
        return modular.discriminant_delta(trunc)
    raise DomainError("supply --input FILE or --form E4|E6|delta")


# -- subcommand handlers; each returns (payload, passed) --------------------


def cmd_psi(args):
    if args.side == "fourier":
        return deltajet.psi_fourier(args.p, args.M, args.window).to_json(), True
    return deltajet.psi_serretate(args.p, args.N).to_json(), True


def cmd_fe0(args):
    return multiprime.build_fe0(_primes(args.P), args.N).to_json(), True


def cmd_fe_k(args):
    P = _primes(args.P)
    return multiprime.build_fe_k(P, args.k - 1, args.N).to_json(), True


def _an_and_ap(args, P):
    # a_p is read even when the inner sum stops below the largest prime
    n_max = args.nmax or args.N
    _, an = _curve_and_an(args, max([n_max, *P]))
    return an[:n_max], [an[p - 1] for p in P]


def cmd_f2e0(args):
    P = _primes(args.P)
    an, ap = _an_and_ap(args, P)
    return forms.build_f2e0(an, P, ap, args.N).to_json(), True


def cmd_f2e_k(args):
    P = _primes(args.P)
    an, ap = _an_and_ap(args, P)
    return forms.build_f2e_k(an, P, args.k - 1, ap, args.N).to_json(), True


def cmd_fsharp(args):
    curve, an = _curve_and_an(args, max(args.window, args.p))
    a_p = an[args.p - 1]
    an = an[: args.window]
    out = forms.fsharp_expansion(an, a_p, args.p, args.M, args.window)
    return out.to_json(), True


def cmd_eisenstein(args):
    return modular.eisenstein(args.k, args.trunc).to_json(), True


def cmd_delta_expand(args):
    f = _q_expansion(args)
    return forms.delta_fourier_expand(f, args.n, args.p, args.M).to_json(), True


def cmd_delta0(args):
    from .qseries import Series1, delta0

    series = _decode(args.input, Series1.from_json)
    return delta0(series, args.p, args.M).to_json(), True


def cmd_check_covariance(args):
    F = _load_series(args.input)
    rep = forms.covariance_check(F, args.gamma, args.nu)
    return rep.to_json(), rep.passed is True


def cmd_check_continuation(args):
    family = [_decode(p, multiprime.MultiJetSeries.from_json) for p in args.inputs]
    res = multiprime.continuation_check(family, height=args.height)
    return res.to_json(), res.ok


def cmd_check_commutator(args):
    a, p1, p2 = args.value, args.p1, args.p2
    d1, d2 = fermat_delta(a, p1), fermat_delta(a, p2)
    lhs = fermat_delta(d2, p1) - fermat_delta(d1, p2)
    rhs = cross_prime_commutator(a, d1, d2, p1, p2)
    payload = {
        "value": a,
        "p1": p1,
        "p2": p2,
        "lhs": format_rational(Fraction(lhs)),
        "rhs": format_rational(Fraction(rhs)),
        "pass": lhs == rhs,
    }
    return payload, lhs == rhs


def cmd_check_lemma(args):
    if args.name == "xlaphi":
        varphi = args.varphi
        if varphi != "symbolic":
            try:
                varphi = Fraction(varphi)
            except (ValueError, ZeroDivisionError):
                raise DomainError(
                    f"--varphi wants a rational number or 'symbolic', got {varphi!r}"
                ) from None
        rep = deltajet.lemma_xlaphi_check(args.p, args.n, varphi)
    else:
        rep = deltajet.lemma_logder_check(args.p, args.n, args.a)
    return rep.to_json(), rep.passed


def cmd_check_basis(args):
    rep = multiprime.basis_independence_check(
        _primes(args.P), _ints(args.r, "--r"), args.N
    )
    return rep.to_json(), rep.ok


def cmd_ap(args):
    curve, bad = modular.load_curve_fixture(args.curve)
    if args.p in bad:
        payload = {"p": args.p, "ap": bad[args.p], "source": "fixture"}
    else:
        payload = {"p": args.p, "ap": modular.ap_point_count(curve, args.p), "source": "count"}
    return payload, True


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pjet", description=__doc__)
    top.add_argument("--out", help="write the JSON payload to this file")
    top.add_argument("--golden", help="compare the payload against this file")
    sub = top.add_subparsers(dest="command", required=True)

    # Handlers are stored by name and looked up when ``main`` runs, so the
    # cached parser follows any later rebinding of a ``cmd_*`` function.
    def add(name, handler, /, **flags):
        sp = sub.add_parser(name)
        for flag, spec in flags.items():
            sp.add_argument(f"--{flag}", **spec)
        sp.set_defaults(handler=handler.__name__)
        return sp

    add(
        "psi",
        cmd_psi,
        p={"type": int, "required": True},
        side={"choices": ["fourier", "serretate"], "default": "serretate"},
        N={"type": int, "default": 30},
        M={"type": int, "default": 8},
        window={"type": int, "default": 30},
    )
    add("fe0", cmd_fe0, P={"required": True}, N={"type": int, "default": 30})
    add(
        "fe-k",
        cmd_fe_k,
        P={"required": True},
        k={"type": int, "required": True, "help": "prime index, 1-based"},
        N={"type": int, "default": 30},
    )
    add(
        "f2e0",
        cmd_f2e0,
        P={"required": True},
        N={"type": int, "default": 40},
        nmax={"type": int},
        curve={"default": None},
    )
    add(
        "f2e-k",
        cmd_f2e_k,
        P={"required": True},
        k={"type": int, "required": True},
        N={"type": int, "default": 40},
        nmax={"type": int},
        curve={"default": None},
    )
    add(
        "fsharp",
        cmd_fsharp,
        curve={"default": None},
        p={"type": int, "required": True},
        window={"type": int, "default": 30},
        M={"type": int, "default": 6},
    )
    add(
        "eisenstein",
        cmd_eisenstein,
        k={"type": int, "required": True},
        trunc={"type": int, "default": 20},
    )
    add(
        "delta-expand",
        cmd_delta_expand,
        input={"default": None},
        form={"default": None},
        trunc={"type": int, "default": 20},
        n={"type": int, "default": 1},
        p={"type": int, "required": True},
        M={"type": int, "default": 8},
    )
    add(
        "delta0",
        cmd_delta0,
        input={"required": True},
        p={"type": int, "required": True},
        M={"type": int, "default": 8},
    )
    add(
        "check-covariance",
        cmd_check_covariance,
        input={"required": True},
        gamma={"type": int, "required": True},
        nu={"type": int, "required": True},
    )
    sp = sub.add_parser("check-continuation")
    sp.add_argument("--inputs", nargs="+", required=True)
    sp.add_argument("--height", type=int, default=None)
    sp.set_defaults(handler=cmd_check_continuation.__name__)
    add(
        "check-commutator",
        cmd_check_commutator,
        p1={"type": int, "required": True},
        p2={"type": int, "required": True},
        value={"type": int, "required": True},
    )
    add(
        "check-lemma",
        cmd_check_lemma,
        name={"choices": ["xlaphi", "logder"], "required": True},
        p={"type": int, "required": True},
        n={"type": int, "default": 1},
        varphi={"default": "0"},
        a={"type": int, "default": 1},
    )
    add(
        "check-basis",
        cmd_check_basis,
        P={"required": True},
        r={"required": True},
        N={"type": int, "default": 50},
    )
    add(
        "ap",
        cmd_ap,
        curve={"default": None},
        p={"type": int, "required": True},
    )
    return top


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        if getattr(args, "N", 0) < 0:
            raise DomainError(f"--N must be nonnegative, got {args.N}")
        payload, passed = globals()[args.handler](args)
    except USAGE_ERRORS as e:
        sys.stdout.write(_dump({"error": {"code": e.code, "message": str(e)}}))
        return 2
    except MATH_ERRORS as e:
        sys.stdout.write(_dump({"error": {"code": e.code, "message": str(e)}}))
        return 1
    except PjetError as e:
        sys.stdout.write(_dump({"error": {"code": e.code, "message": str(e)}}))
        return 2
    text = _dump(payload)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.golden:
        with open(args.golden, "r", encoding="utf-8") as fh:
            golden = fh.read()
        if golden != text:
            return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

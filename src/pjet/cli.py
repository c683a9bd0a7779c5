"""Command-line interface: every builder and checker behind JSON I/O.

All payloads are UTF-8 JSON with sorted keys and no timestamps, so identical
invocations produce identical bytes.  Exit codes: 0 success or passing
check, 1 mathematical check failure, 2 usage error.

Every subcommand's flags live in one table, COMMANDS.  A job typed as
--flag value pairs is read straight from it; help, errors and any other
argv shape go to the argparse parser built from the same table.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import deltajet, forms, modular, multiprime
from .arith import cross_prime_commutator, fermat_delta, format_rational
from .errors import (
    DomainError,
    IntegralityViolation,
    PjetError,
    PrecisionExhausted,
    ReconstructionFailure,
)

MATH_ERRORS = (IntegralityViolation, ReconstructionFailure, PrecisionExhausted)
# The smallest value of each numeric flag, in every subcommand that has it.
FLAG_MINIMUMS = {"N": 0, "trunc": 0, "n": 0, "M": 1, "window": 1, "nmax": 1, "height": 1}


def _dump(payload) -> str:
    """The payload's text: a dict through ``json.dumps``, anything else (a
    series or a report that holds one) by its own ``to_text`` writer."""
    if isinstance(payload, dict):
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"
    return payload.to_text() + "\n"


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


def _read(path: str, parse=str, what: str = ""):
    """The file at ``path``, passed through ``parse``; any failure is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError) as e:
        raise DomainError(f"cannot read {what}{path}: {e}") from None


def _first_difference(want: str, got: str) -> str:
    """Line, column and excerpts at the first character where ``got`` leaves ``want``."""
    k = next((j for j, (a, b) in enumerate(zip(want, got)) if a != b), min(len(want), len(got)))
    line, col = got.count("\n", 0, k) + 1, k - got.rfind("\n", 0, k)
    cut = slice(max(k - 20, 0), k + 40)
    return f"line {line}, column {col}: golden {want[cut]!r}, payload {got[cut]!r}"


def _decode(path: str, from_json):
    """Load ``path`` and decode it; a payload of the wrong shape is a usage error."""
    obj = _read(path, json.loads, "JSON from ")
    try:
        return from_json(obj)
    except DomainError as e:
        raise DomainError(f"{path}: {e}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise DomainError(f"{path} is not a valid payload: {e!r}") from None


def _load_series(path: str):
    def from_json(obj):
        if "P" in obj:
            return multiprime.MultiJetSeries.from_json(obj)
        return deltajet.JetSeries.from_json(obj)

    return _decode(path, from_json)


def _newform_an(args, n_max: int) -> list[int]:
    curve, bad = modular.load_curve_fixture(getattr(args, "curve", None))
    return modular.newform_coefficients(curve, n_max, bad)


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


# -- subcommand handlers; each returns (payload, passed) for ``_dump`` --------


def cmd_psi(args):
    if args.side == "fourier":
        return deltajet.psi_fourier(args.p, args.M, args.window), True
    return deltajet.psi_serretate(args.p, args.N), True


def cmd_fe0(args):
    return multiprime.build_fe0(_primes(args.P), args.N), True


def cmd_fe_k(args):
    P = _primes(args.P)
    return multiprime.build_fe_k(P, args.k - 1, args.N), True


def _an_and_ap(args, P):
    # a_p is read even when the inner sum stops below the largest prime
    n_max = args.N if args.nmax is None else args.nmax
    an = _newform_an(args, max([n_max, *P]))
    return an[:n_max], [an[p - 1] for p in P]


def cmd_f2e0(args):
    P = _primes(args.P)
    an, ap = _an_and_ap(args, P)
    return forms.build_f2e0(an, P, ap, args.N), True


def cmd_f2e_k(args):
    P = _primes(args.P)
    an, ap = _an_and_ap(args, P)
    return forms.build_f2e_k(an, P, args.k - 1, ap, args.N), True


def cmd_fsharp(args):
    an = _newform_an(args, max(args.window, args.p))
    out = forms.fsharp_expansion(an[: args.window], an[args.p - 1], args.p, args.M, args.window)
    return out, True


def cmd_eisenstein(args):
    return modular.eisenstein(args.k, args.trunc).to_json(), True


def cmd_delta_expand(args):
    f = _q_expansion(args)
    return forms.delta_fourier_expand(f, args.n, args.p, args.M), True


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
    return res, res.ok


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


# Each subcommand's handler name and flags, in the order ``--help`` lists
# them, with the ``add_argument`` spec of each.  Handlers are stored by their
# ``cmd_*`` name and looked up when ``main`` runs, so a parsed job follows any
# later rebinding of a handler, a wrapper with a name of its own included.
COMMANDS = {
    name: ("cmd_" + name.replace("-", "_"), flags)
    for name, flags in {
        "psi": {
            "p": {"type": int, "required": True},
            "side": {"choices": ["fourier", "serretate"], "default": "serretate"},
            "N": {"type": int, "default": 30},
            "M": {"type": int, "default": 8},
            "window": {"type": int, "default": 30},
        },
        "fe0": {"P": {"required": True}, "N": {"type": int, "default": 30}},
        "fe-k": {
            "P": {"required": True},
            "k": {"type": int, "required": True, "help": "prime index, 1-based"},
            "N": {"type": int, "default": 30},
        },
        "f2e0": {
            "P": {"required": True},
            "N": {"type": int, "default": 40},
            "nmax": {"type": int},
            "curve": {"default": None},
        },
        "f2e-k": {
            "P": {"required": True},
            "k": {"type": int, "required": True},
            "N": {"type": int, "default": 40},
            "nmax": {"type": int},
            "curve": {"default": None},
        },
        "fsharp": {
            "curve": {"default": None},
            "p": {"type": int, "required": True},
            "window": {"type": int, "default": 30},
            "M": {"type": int, "default": 6},
        },
        "eisenstein": {"k": {"type": int, "required": True}, "trunc": {"type": int, "default": 20}},
        "delta-expand": {
            "input": {"default": None},
            "form": {"default": None},
            "trunc": {"type": int, "default": 20},
            "n": {"type": int, "default": 1},
            "p": {"type": int, "required": True},
            "M": {"type": int, "default": 8},
        },
        "delta0": {
            "input": {"required": True},
            "p": {"type": int, "required": True},
            "M": {"type": int, "default": 8},
        },
        "check-covariance": {
            "input": {"required": True},
            "gamma": {"type": int, "required": True},
            "nu": {"type": int, "required": True},
        },
        "check-continuation": {"inputs": {"nargs": "+", "required": True}, "height": {"type": int, "default": None}},
        "check-commutator": {
            "p1": {"type": int, "required": True},
            "p2": {"type": int, "required": True},
            "value": {"type": int, "required": True},
        },
        "check-lemma": {
            "name": {"choices": ["xlaphi", "logder"], "required": True},
            "p": {"type": int, "required": True},
            "n": {"type": int, "default": 1},
            "varphi": {"default": "0"},
            "a": {"type": int, "default": 1},
        },
        "check-basis": {"P": {"required": True}, "r": {"required": True}, "N": {"type": int, "default": 50}},
        "ap": {"curve": {"default": None}, "p": {"type": int, "required": True}},
    }.items()
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser of ``COMMANDS``, for help, usage errors and any argv
    the table reader in ``_parse`` does not take."""
    top = argparse.ArgumentParser(prog="pjet", description=__doc__)
    top.add_argument("--out", help="write the JSON payload to this file")
    top.add_argument("--golden", help="compare the payload against this file")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in COMMANDS.items():
        sp = sub.add_parser(name)
        for flag, spec in flags.items():
            sp.add_argument(f"--{flag}", **spec)
        sp.set_defaults(handler=handler)
    return top


_parser = functools.cache(build_parser)
_NEGATIVE = re.compile(r"-[0-9]+")  # a negative integer, the one value token that starts with "-"


def _from_table(name: str, tokens: list[str], glob: dict) -> argparse.Namespace | None:
    """The Namespace the full parser makes of subcommand ``name`` with
    ``tokens`` after it, read straight from ``COMMANDS``, or None when the
    tokens are not ``--flag value`` runs of its exact flag names.

    A value token does not start with "-", or is a negative integer, which
    argparse also reads as a value since pjet has no option that looks like
    one.  A flag takes one value, ``nargs="+"`` one or more; each goes
    through ``type`` and then ``choices``, and the last of a repeated flag
    stands.  A missing required flag is refused, an unset one takes its
    default (a ``str`` default through ``type``, as argparse does)."""
    handler, flags = COMMANDS[name]
    seen, j, end = {}, 0, len(tokens)
    while j < end:
        flag = tokens[j][2:] if tokens[j].startswith("--") else None
        spec = flags.get(flag)
        if spec is None:
            return None
        k = j + 1
        while k < end and (not tokens[k].startswith("-") or _NEGATIVE.fullmatch(tokens[k])):
            k += 1
        many = spec.get("nargs") == "+"
        if k == j + 1 or k > j + 2 and not many:
            return None
        convert, choices = spec.get("type"), spec.get("choices")
        try:
            values = [convert(t) for t in tokens[j + 1 : k]] if convert else tokens[j + 1 : k]
        except (TypeError, ValueError):
            return None
        if choices is not None and any(v not in choices for v in values):
            return None
        seen[flag] = values if many else values[0]
        j = k
    for flag, spec in flags.items():
        if flag not in seen:
            if spec.get("required"):
                return None
            default = spec.get("default")
            seen[flag] = spec["type"](default) if isinstance(default, str) and "type" in spec else default
    return argparse.Namespace(**glob, command=name, **seen, handler=handler)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as the full parser parses it.  The leading
    ``--out``/``--golden`` pairs are read here and the rest, when argv names
    a subcommand exactly, by ``_from_table``.  Anything it does not take (no
    subcommand, help, ``--out=PATH``, ``--``, an abbreviated or unknown flag,
    ``--flag=value``, a value such as ``-1.5``, a bad or missing value) goes
    to the full parser, for its messages and exit codes."""
    i, glob = 0, {"out": None, "golden": None}
    while i + 1 < len(argv) and argv[i] in ("--out", "--golden") and not argv[i + 1].startswith("-"):
        glob[argv[i][2:]] = argv[i + 1]
        i += 2
    if i < len(argv) and argv[i] in COMMANDS:
        args = _from_table(argv[i], argv[i + 1 :], glob)
        if args is not None:
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        for flag, low in FLAG_MINIMUMS.items():
            value = getattr(args, flag, None)
            if value is not None and value < low:
                raise DomainError(f"--{flag} must be at least {low}, got {value}")
        golden = _read(args.golden, what="--golden ") if args.golden else None
        payload, passed = globals()[args.handler](args)
    except PjetError as e:
        sys.stdout.write(_dump({"error": {"code": e.code, "message": str(e)}}))
        return 1 if isinstance(e, MATH_ERRORS) else 2
    text = _dump(payload)
    sys.stdout.write(text)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"pjet: cannot write --out {args.out}: {e}", file=sys.stderr)
            return 2
    if golden is not None and golden != text:
        print(f"pjet: golden mismatch at {_first_difference(golden, text)}", file=sys.stderr)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""The one sparse kernel behind every series ring.

An element is a dict from monomials to nonzero coefficients.  The kernel
does not look inside either: each ring supplies its own monomial product
(``multiprime.mono_mul``, ``deltajet.m_mul`` or integer ``+`` for one
variable) and its own truncation as a monomial predicate ``keep``, which
``mul`` applies before it forms the coefficient product.  Conditions that
depend on a summed coefficient, such as a p-adic digit bound, belong to the
caller, after the product.
"""

from __future__ import annotations

from typing import Callable, Mapping, TypeVar

X = TypeVar("X")


def add(*ts: Mapping) -> dict:
    """Termwise sum; a coefficient that cancels to zero is dropped."""
    out: dict = {}
    for t in ts:
        for m, c in t.items():
            s = out[m] + c if m in out else c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


def scale(t: Mapping, c) -> dict:
    return {m: v * c for m, v in t.items()} if c else {}


def mul(t1: Mapping, t2: Mapping, mono_mul: Callable, keep: Callable) -> dict:
    """Product of two sparse elements, forming only the pairs ``keep`` admits."""
    out: dict = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = mono_mul(m1, m2)
            if not keep(m):
                continue
            c = c1 * c2
            s = out[m] + c if m in out else c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


def power(x: X, n: int, one: X, mul: Callable[[X, X], X]) -> X:
    """x**n by square-and-multiply, for n >= 0.

    The product starts from the ring's ``one`` and multiplies ``x`` in, so
    the ring's truncation applies to the terms of ``x`` itself as well.
    """
    out, base = one, x
    while n:
        if n & 1:
            out = mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return out

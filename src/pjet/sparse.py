"""The one sparse kernel behind every series ring.

An element is a dict from monomials to nonzero coefficients.  Every ring
writes its monomials as ints whose product is integer ``+``: one exponent
for ``Series1``, packed exponent vectors for ``multiprime`` and
``deltajet``.  Each truncation is then a threshold on the key, so ``mul``
takes it as ``limit`` and forms only the products below it: it walks the
second operand in key order, each row stops at its first product at or past
the limit, and a square (``t1 is t2``) forms each unordered pair once.
Each pair probes the output dict once, and a sum that cancels to 0 is
popped.  Conditions that depend on a summed coefficient, such as a p-adic
digit bound, belong to the caller, after the product.

Every series ring stores the same value: a ``Packed``, integer numerators by
key over one denominator, in the form ``canon`` gives (after Monagan and
Pearce's packed exponent vectors).  Nothing reads the order of its keys.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Mapping, TypeVar

X = TypeVar("X")


class Packed(dict):
    """Integer numerators by packed key, over the positive denominator ``den``."""

    __slots__ = ("den",)


def canon(t: Mapping[int, int], den: int) -> Packed:
    """t / den in canonical form: no zero term, and a positive denominator
    that shares no factor with all of the numerators."""
    g = math.gcd(den, *t.values()) * (1 if den > 0 else -1)
    nonzero = filter(operator.itemgetter(1), t.items())
    out = Packed(nonzero if g == 1 else ((m, x // g) for m, x in nonzero))
    out.den = den // g
    return out


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


def mul(t1: Mapping, t2: Mapping, limit: int | None = None) -> dict:
    """Product of two sparse elements with int monomials, keeping only the
    monomials below ``limit`` (all for None).

    No pair at or past the limit forms its coefficient product; with no
    limit, nothing is sorted.  A square forms c_i * c_j once for i <= j and
    doubles it off the diagonal.  Each pair adds its product with one
    ``out.get`` and pops a key whose sum is 0, so no zero term is kept; both
    loops spell this out, since a call per pair costs more.
    """
    out: dict = {}
    get, pop = out.get, out.pop
    if t1 is t2:
        terms = list(t1.items()) if limit is None else sorted(t1.items())
        for i, (m1, c1) in enumerate(terms):
            m = m1 + m1
            if limit is not None and m >= limit:
                break
            if s := get(m, 0) + c1 * c1:
                out[m] = s
            else:
                pop(m, None)
            d1 = c1 + c1
            for m2, c2 in terms[i + 1 :]:
                m = m1 + m2
                if limit is not None and m >= limit:
                    break
                if s := get(m, 0) + d1 * c2:
                    out[m] = s
                else:
                    pop(m, None)
    else:
        terms = t2.items() if limit is None or len(t2) < 2 else sorted(t2.items())
        for m1, c1 in t1.items():
            for m2, c2 in terms:
                m = m1 + m2
                if limit is not None and m >= limit:
                    break
                if s := get(m, 0) + c1 * c2:
                    out[m] = s
                else:
                    pop(m, None)
    return out


def power(x: X, n: int, one: X, mul: Callable[[X, X], X]) -> X:
    """x**n by square-and-multiply, for n >= 0.

    The product starts from the ring's ``one`` and multiplies ``x`` in, so
    the ring's truncation applies to the terms of ``x`` itself as well.
    Each square is ``mul(base, base)``, one object twice.
    """
    out, base = one, x
    while n:
        if n & 1:
            out = mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return out

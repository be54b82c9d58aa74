"""Reference rational group ring of roots of unity, for the tests only.

Lambda_n stands for the divisor of t**n - 1: the multiset of all n-th roots
of unity, each once.  RingDivisor holds rational linear combinations of the
Lambda_n, multiplied with the group-ring product of C* which on basis
elements reduces to

    Lambda_a * Lambda_b = gcd(a, b) * Lambda_lcm(a, b)

The ring unit <1> is stored as Lambda_1 (Lambda_1 = div(t - 1) = <1>), and
integers/rationals entering arithmetic are promoted to multiples of it,
which agrees with scaling because Lambda_1 is the identity.

Coefficients are exact rationals, stored as int when integral and as
Fraction only otherwise.  The tests build the Milnor-Orlik product
prod(Lambda_u / v - 1) here, factor by factor, as the independent reference
for singlink.monodromy.milnor_orlik_terms, whose integer kernel never
forms a fractional coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


class RingDivisor:
    """Immutable rational combination of Lambda_n basis elements."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Scalar] = {}
        for n, c in items:
            n = int(n)
            if n < 1:
                raise ValueError(f"divisor index {n} is not positive")
            c = c if type(c) is int else Fraction(c)
            if c:
                acc[n] = acc.get(n, 0) + c
        kept = {n: c.numerator if c.denominator == 1 else c for n, c in acc.items() if c}
        object.__setattr__(self, "_terms", kept)

    # -- access ---------------------------------------------------------

    @property
    def terms(self) -> dict[int, Scalar]:
        """Index -> coefficient mapping (a copy; zero coefficients pruned)."""
        return dict(self._terms)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self._terms.values())

    # -- ring structure ---------------------------------------------------

    def __add__(self, other: RingDivisor | Scalar) -> RingDivisor:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for n, c in other._terms.items():
            acc[n] = acc.get(n, 0) + c
        return RingDivisor(acc)

    __radd__ = __add__

    def __neg__(self) -> RingDivisor:
        return RingDivisor({n: -c for n, c in self._terms.items()})

    def __sub__(self, other: RingDivisor | Scalar) -> RingDivisor:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> RingDivisor:
        return _promote(other) + (-self)

    def __mul__(self, other: RingDivisor | Scalar) -> RingDivisor:
        if isinstance(other, (int, Fraction)):
            return RingDivisor({n: c * other for n, c in self._terms.items()})
        if not isinstance(other, RingDivisor):
            return NotImplemented
        acc: dict[int, Scalar] = {}
        for a, ca in self._terms.items():
            for b, cb in other._terms.items():
                n = math.lcm(a, b)
                acc[n] = acc.get(n, 0) + ca * cb * math.gcd(a, b)
        return RingDivisor(acc)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> RingDivisor:
        return self * (Fraction(1) / Fraction(scalar))

    # -- derived quantities ----------------------------------------------

    def degree(self) -> Scalar:
        """Total root count: sum c_n * n.

        This is the augmentation of the group ring, hence multiplicative:
        degree(x*y) = degree(x)*degree(y).
        """
        return sum(c * n for n, c in self._terms.items())

    # -- comparison -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _promote(other)
        if not isinstance(other, RingDivisor):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {c}" for n, c in sorted(self._terms.items()))
        return f"RingDivisor({{{inner}}})"



def _promote(value: RingDivisor | Scalar) -> RingDivisor:
    if isinstance(value, RingDivisor):
        return value
    if isinstance(value, (int, Fraction)):
        return RingDivisor({1: value})
    return NotImplemented


def lambda_of(n: int) -> RingDivisor:
    """The basis divisor of t**n - 1 (all n-th roots of unity, once each)."""
    if n < 1:
        raise ValueError(f"Lambda index {n} is not positive")
    return RingDivisor({n: 1})

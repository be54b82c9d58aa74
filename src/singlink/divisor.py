"""The characteristic divisor as an integer combination of the Lambda_n.

Lambda_n stands for the divisor of t**n - 1: the multiset of all n-th roots
of unity, each once.  The monodromy characteristic polynomial of a
weighted-homogeneous isolated singularity has divisor sum_n c_n * Lambda_n
with integer c_n (Milnor-Orlik), so c_n is the exponent of (t^n - 1) in
Delta(t).  monodromy.milnor_orlik_terms builds that product in int and
refuses a fractional result before a Divisor exists; this class only holds
and renders the integer map, and refuses any coefficient that is not an
integer.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import NonIntegralCoefficientError, NonPositiveIndexError
from .weights import require_ints


class Divisor:
    """Immutable integer combination of Lambda_n basis elements."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for n, c in items:
            require_ints((n,), "divisor indices")
            if n < 1:
                raise NonPositiveIndexError(f"divisor index {n} is not positive")
            if type(c) is not int:
                if getattr(c, "denominator", None) != 1:
                    raise NonIntegralCoefficientError(
                        f"divisor coefficient {c} at index {n} is not an integer"
                    )
                c = int(c.numerator)
            acc[n] = acc.get(n, 0) + c
        object.__setattr__(self, "_terms", {n: c for n, c in acc.items() if c})

    @property
    def terms(self) -> dict[int, int]:
        """Index -> coefficient mapping (a copy; zero coefficients pruned)."""
        return dict(self._terms)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def coefficient(self, n: int) -> int:
        return self._terms.get(n, 0)

    def degree(self) -> int:
        """Total root count: sum c_n * n."""
        return sum(c * n for n, c in self._terms.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Divisor):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {c}" for n, c in sorted(self._terms.items()))
        return f"Divisor({{{inner}}})"

    def pretty(self) -> str:
        """Human form with the unit split out, largest index first.

        Example: "Λ60 + Λ20 + Λ12 - Λ4 - Λ3 + 1".
        """
        if not self._terms:
            return "0"
        parts: list[str] = []
        for n in sorted(self._terms, reverse=True):
            c = self._terms[n]
            sign = "-" if c < 0 else "+"
            c = abs(c)
            if n == 1:
                body = str(c)
            elif c == 1:
                body = f"Λ{n}"
            else:
                body = f"{c}·Λ{n}"
            parts.append((sign, body))
        sign, body = parts[0]
        out = body if sign == "+" else f"-{body}"
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

"""The characteristic divisor as its ascending (j, a_j) pairs.

Lambda_j stands for the divisor of t**j - 1: the multiset of all j-th roots
of unity, each once.  The monodromy characteristic polynomial of a
weighted-homogeneous isolated singularity has divisor sum_j a_j * Lambda_j
with integer a_j (Milnor-Orlik), so a_j is the exponent of (t^j - 1) in
Delta(t) and the pairs are Delta's factored form.  The one builder,
monodromy.characteristic_divisor, refuses a fractional product before a
Divisor exists and hands over the pairs with strictly ascending j and
nonzero int a_j.
"""

from __future__ import annotations


class Divisor(tuple):
    """The ascending (j, a_j) pairs of div Delta(t) = sum a_j Lambda_j, a_j != 0."""

    __slots__ = ()

    @property
    def terms(self) -> dict[int, int]:
        """j -> a_j."""
        return dict(self)

    @property
    def support(self) -> tuple[int, ...]:
        """The indices j, ascending."""
        return tuple(j for j, _ in self)

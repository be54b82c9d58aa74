"""Dense integer polynomial helpers for the exact pipelines.

Polynomials are lists of int coefficients, constant term first.  Only the
two operations the pipelines need are provided:

- multiplication by a binomial power (t**j - 1)**e, expanded by the
  binomial theorem: one C-level slice update per term, e + 1 passes over
  the input instead of e passes over a growing list;
- exact division by one binomial t**j - 1, a single linear pass.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul

from .errors import InexactDivisionError


def mul_binomial_power(coeffs: list[int], j: int, e: int) -> list[int]:
    """Multiply by (t**j - 1)**e = sum_k C(e, k) (-1)**(e - k) t**(j k)."""
    if j < 1:
        raise ValueError(f"binomial exponent {j} is not positive")
    if e < 0:
        raise ValueError(f"binomial power {e} is negative")
    n = len(coeffs)
    out = [0] * (n + j * e)
    c = -1 if e % 2 else 1
    for k in range(e + 1):
        lo = j * k
        out[lo:lo + n] = map(add, out[lo:lo + n], map(mul, coeffs, repeat(c)))
        c = -c * (e - k) // (k + 1)
    return out


def div_binomial(coeffs: list[int], j: int) -> list[int]:
    """Divide exactly by t**j - 1; remainder must vanish."""
    if j < 1:
        raise ValueError(f"binomial exponent {j} is not positive")
    n = len(coeffs)
    if n <= j:
        raise InexactDivisionError(f"degree {n - 1} polynomial is not divisible by t^{j} - 1")
    qlen = n - j
    q = [0] * qlen
    for k in range(n - 1, j - 1, -1):
        q[k - j] = coeffs[k] + (q[k] if k < qlen else 0)
    for k in range(j):
        if coeffs[k] != -(q[k] if k < qlen else 0):
            raise InexactDivisionError(f"division by t^{j} - 1 leaves a remainder")
    return q

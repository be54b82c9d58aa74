"""Independent routes for the benchmark's correctness checks, and digests.

Nothing here imports singlink.  The characteristic divisor is rebuilt
from the spectrum: a monomial basis element of weighted degree k of the
Milnor algebra contributes the monodromy eigenvalue exp(2 pi i (k + |w|)/d)
(Steenbrink), so counting graded dimensions by the order of that root and
converting cyclotomic factors to the Lambda basis by Moebius inversion
gives the divisor without the Milnor-Orlik product the program uses.
"""

from __future__ import annotations

import hashlib
import json
import math


def graded_dims(weights, degree: int) -> list[int]:
    """Coefficients of prod (1 - t^(d - w)) / (1 - t^w), by series division.

    Raises ValueError when the quotient is not a polynomial.
    """
    numerator = {0: 1}
    for w in weights:
        step = degree - w
        nxt = dict(numerator)
        for k, c in numerator.items():
            nxt[k + step] = nxt.get(k + step, 0) - c
        numerator = {k: c for k, c in nxt.items() if c}
    top = sum(degree - w for w in weights)
    series = [numerator.get(k, 0) for k in range(top + 1)]
    for w in weights:
        for k in range(w, top + 1):
            series[k] += series[k - w]
    socle = sum(degree - 2 * w for w in weights)
    if socle < 0 or any(series[socle + 1 :]):
        raise ValueError(f"closed product for {weights}, {degree} is not a polynomial")
    return series[: socle + 1]


def _moebius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def spectrum_divisor(weights, degree: int) -> dict[int, int]:
    """Lambda-basis coefficients of the characteristic divisor, from the spectrum."""
    total = sum(weights)
    by_order: dict[int, int] = {}
    for k, dim in enumerate(graded_dims(weights, degree)):
        if dim:
            order = degree // math.gcd(k + total, degree)
            by_order[order] = by_order.get(order, 0) + dim
    cyclotomic: dict[int, int] = {}
    for order, count in by_order.items():
        q, r = divmod(count, _totient(order))
        if r:
            raise ValueError(f"roots of order {order} do not fill Galois orbits")
        cyclotomic[order] = q
    # Phi_n = prod_{j | n} (t^j - 1)^moebius(n / j)
    lam: dict[int, int] = {}
    for n, c in cyclotomic.items():
        for j in range(1, n + 1):
            if n % j == 0:
                mu = _moebius(n // j)
                if mu:
                    lam[j] = lam.get(j, 0) + c * mu
    return {j: c for j, c in lam.items() if c}


def value_at_two(coefficients) -> int:
    acc = 0
    for c in reversed(coefficients):
        acc = acc * 2 + c
    return acc


def factored_value_at_two(divisor: dict[int, int]) -> tuple[int, int]:
    """prod (2^j - 1)^a_j as numerator and denominator."""
    num = den = 1
    for j, a in divisor.items():
        if a > 0:
            num *= ((1 << j) - 1) ** a
        else:
            den *= ((1 << j) - 1) ** -a
    return num, den


def digest(items) -> str:
    """Order-independent digest of JSON-able invariant tuples."""
    h = hashlib.sha256()
    for line in sorted(json.dumps(item, separators=(",", ":")) for item in items):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]

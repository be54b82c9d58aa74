"""What analyze reads off the Milnor algebra's Poincare series, never expanded.

The Milnor algebra (the coordinate ring modulo the partials) of a quasi-homogeneous
isolated singularity has the Poincare series P(t) = prod_i (t^{d - w_i} - 1) / (t^{w_i} - 1),
of top degree T = sum_i (d - 2 w_i); the tests expand it, as a reference route.  Below
every partial degree d - w_i, where the Jacobian ideal is empty, its coefficient is a
monomial count: p_g = h^{2,0} at d - |w| (Steenbrink), and the genus of a branch curve.
"""

from __future__ import annotations

import math

from .divisor import Divisor
from .errors import ConsistencyError, DegenerateDegreeError, InexactDivisionError
from .errors import WrongDimensionError
from .monodromy import ratio
from .weights import WeightSystem, count_monomials


def _character_orders(w: WeightSystem) -> list[int]:
    """Every L_S = lcm(u_i : i in S) over the subsets S of the weights, where
    u_i = d / gcd(d, w_i), ascending: at most 2^n values, closed under lcm."""
    orders = {1}
    for wi in w.weights:
        u = w.degree // math.gcd(w.degree, wi)
        orders |= {math.lcm(n, u) for n in orders}
    return sorted(orders)


def _scaled_character(w: WeightSystem, n: int) -> int:
    """prod w_i times the Milnor-Orlik character at n: the product over i of
    d - w_i where u_i divides n (d divides n w_i), and of -w_i otherwise."""
    return math.prod(w.degree - wi if n * wi % w.degree == 0 else -wi for wi in w.weights)


def check_divisor_character(w: WeightSystem, divisor: Divisor) -> None:
    """Raise ConsistencyError unless divisor = sum a_j Lambda_j is Milnor-Orlik's: for
    each n, Lambda_j -> (j if j | n else 0) is a ring homomorphism, taking prod_i
    (Lambda_{u_i} / v_i - 1) to prod_i (d / w_i - 1 if u_i | n else -1), t^{|w|} P(t)
    at a root of unity of order d / n.  Every index j must be some L_S; on that
    lcm-closed set these values determine every a_j, so the check is complete."""
    orders = _character_orders(w)
    if stray := [j for j, _ in divisor if j not in orders]:
        raise ConsistencyError(f"divisor index {stray[0]} is no lcm of the d / gcd(d, w_i)")
    scale = math.prod(w.weights)
    for n in orders:
        got = sum(j * a for j, a in divisor if n % j == 0)
        if got * scale != (want := _scaled_character(w, n)):
            raise ConsistencyError(
                f"divisor character {got} at order {n} differs from the weights' "
                f"{ratio(want, scale)}"
            )


def require_polynomial_series(w: WeightSystem) -> None:
    """Refuse weights whose closed product P(t) is no polynomial; no isolated
    singularity has them.  Phi_n divides t^k - 1 iff n | k, so P(t) is a
    polynomial iff every n >= 2 divides at least as many d - w_i as w_i, and
    the gcd of the weights n divides is an n that fails whenever n does."""
    ws, d = w.weights, w.degree
    if d <= max(ws):
        raise DegenerateDegreeError(f"degree {d} does not exceed every weight in {ws}")
    gcds: set[int] = set()
    for wi in ws:
        gcds |= {math.gcd(g, wi) for g in gcds} | {wi}
    for g in sorted(gcds - {1}):
        num, den = sum((d - wi) % g == 0 for wi in ws), sum(wi % g == 0 for wi in ws)
        if num < den:
            raise InexactDivisionError(
                f"the Poincare series is not a polynomial: {g} divides {den} of the "
                f"weights but only {num} of the degrees d - w_i"
            )


def genus_branch_curve(w3: WeightSystem) -> int:
    """Genus of the curve a surface branches over in a z3-power split: the monomial
    count at d - |w'| for the other three weights w', checked on every call against
    the closed form 2g = d^2/(w0 w1 w2) - d sum_{i<j} gcd(w_i, w_j)/(w_i w_j)
    + sum_i gcd(d, w_i)/w_i - 1 (Orlik-Wagreich)."""
    if w3.nvars != 3:
        raise WrongDimensionError(f"branch-curve genus needs exactly 3 weights, got {w3.nvars}")
    require_polynomial_series(w3)
    d, (a, b, c), gcd = w3.degree, w3.weights, math.gcd
    twice = d * d - d * (gcd(a, b) * c + gcd(a, c) * b + gcd(b, c) * a) - a * b * c  # 2g w0 w1 w2
    twice += gcd(d, a) * b * c + gcd(d, b) * a * c + gcd(d, c) * a * b
    g = count_monomials(w3.weights, k := d - w3.total)
    if twice != 2 * g * a * b * c:
        raise ConsistencyError(
            f"closed-form genus {ratio(twice, 2 * a * b * c)} differs from the "
            f"monomial count {g} at degree {k}"
        )
    return g

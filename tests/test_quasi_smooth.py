"""Two independent checks of the quasi-smoothness kernel.

Reid's list: the weighted projective 3-spaces carrying a quasi-smooth K3
hypersurface of degree d = |w| are exactly 95 (Reid 1980; Iano-Fletcher,
LMS LN 281, §13), found here among scan's index-0 rows with no outside data.

Gröbner oracle: with random coefficients over GF(32003) the partials of f
cut out only the origin exactly when the support passes the criterion.
Euler's relation d*f = sum w_i z_i df/dz_i puts f in that ideal (p does not
divide d), so the partials alone decide whether the singularity is isolated.
sympy is a test dependency only; it is imported here unconditionally so a
missing sympy fails these tests instead of skipping them.
"""

import math
import random

from sympy import GF
from sympy.polys.groebnertools import groebner
from sympy.polys.orderings import grevlex
from sympy.polys.rings import ring

from singlink import WeightedPolynomial, WeightSystem, quasi_smooth_failure
from singlink.cli import scan_rows


def full_support(weights, degree):
    """Every exponent vector of weighted degree `degree`."""
    if len(weights) == 1:
        return [(degree // weights[0],)] if degree % weights[0] == 0 else []
    first, rest = weights[0], weights[1:]
    return [
        (a,) + tail
        for a in range(degree // first + 1)
        for tail in full_support(rest, degree - a * first)
    ]


def _failure_of_full_support(ws, d):
    f = WeightedPolynomial(frozenset(full_support(ws, d)), WeightSystem(ws, d))
    return quasi_smooth_failure(f)


def test_reid_95_quasi_smooth_k3_weights():
    # The prefilter is the kernel's I = {i} case on the full support: some
    # monomial z_i^m * z_e (e = i being the pure power), i.e. w_i | d - w_e.
    kept, dropped = [], []
    for row in scan_rows(66, index=0):
        ws, d = tuple(row["weights"]), row["degree"]
        ok = all(any((d - we) % wi == 0 for we in ws) for wi in ws)
        (kept if ok else dropped).append((ws, d))
    passing = [ws for ws, d in kept if _failure_of_full_support(ws, d) is None]
    assert len(passing) == 95
    assert max(max(ws) for ws in passing) == 33
    assert (1, 1, 1, 1) in passing and (5, 6, 22, 33) in passing
    # the prefilter drops only rows the kernel refuses at a single variable
    for ws, d in dropped[::4000]:
        failure = _failure_of_full_support(ws, d)
        assert failure is not None and len(failure) == 1


P = 32003
RING, *Z = ring("z0:4", GF(P), grevlex)


def _draw_supports(rng, per_side=25):
    """Seeded small supports over weights <= 5, d <= 12: per_side passing the
    criterion and per_side failing it.  d exceeds every weight, so no
    monomial is linear and the partials never generate the unit ideal."""
    want = {True: per_side, False: per_side}
    drawn = []
    while want[True] or want[False]:
        ws = tuple(rng.randint(1, 5) for _ in range(4))
        if math.gcd(*ws) != 1:
            continue
        d = rng.randint(max(ws) + 1, 12)
        pool = full_support(ws, d)
        if len(pool) < 4:
            continue
        support = rng.sample(pool, rng.randint(4, min(7, len(pool))))
        f = WeightedPolynomial(frozenset(support), WeightSystem(ws, d))
        passes = quasi_smooth_failure(f) is None
        if want[passes]:
            want[passes] -= 1
            drawn.append((support, passes))
    return drawn


def _zero_dimensional(basis) -> bool:
    """Every variable has a pure power among the leading monomials."""
    pure = set()
    for g in basis:
        used = [i for i, a in enumerate(g.LM) if a]
        if len(used) == 1:
            pure.add(used[0])
    return len(pure) == len(Z)


def test_groebner_oracle_agrees_with_the_kernel():
    rng = random.Random(2024)
    cases = _draw_supports(rng)
    assert sum(passes for _, passes in cases) == 25 and len(cases) == 50
    for support, passes in cases:
        f = RING({m: rng.randrange(1, P) for m in support})
        partials = [p for p in (f.diff(z) for z in Z) if p]
        assert _zero_dimensional(groebner(partials, RING)) == passes, support

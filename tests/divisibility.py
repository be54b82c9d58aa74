"""Reference divisibility condition of a weight system, for the tests only.

The gcd of every delete-two subset of the weights must divide the degree.  For
four weights those subsets are the edges {z_i, z_j}, so analyze reads the
condition off its strata instead (divisibility_ok: every edge stratum's isotropy
order divides the degree), and scan decides it inline; the definition here is the
independent route both are compared with.
"""

from __future__ import annotations

import math
from itertools import combinations

from singlink.weights import WeightSystem


def divisibility_condition(w: WeightSystem) -> bool:
    """True iff the gcd of every delete-two weight subset divides the degree."""
    ws = w.weights
    if len(ws) < 3:
        return True
    for i, j in combinations(range(len(ws)), 2):
        rest = [ws[k] for k in range(len(ws)) if k not in (i, j)]
        if w.degree % math.gcd(*rest) != 0:
            return False
    return True

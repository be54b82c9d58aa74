"""Graded dimensions of the Milnor algebra and what they buy downstream.

For a quasi-homogeneous isolated singularity the Milnor algebra (the
coordinate ring modulo the partials) is a graded complete intersection cut
out in degrees d - w_i, so its Poincare series is the closed product

    P(t) = prod_i (t^{d - w_i} - 1) / (t^{w_i} - 1)

a symmetric polynomial with top degree T = sum_i (d - 2 w_i) and P(1) equal
to the Milnor number, expanded by monodromy.expand as the characteristic
polynomial is, into the same ExpandedPoly.  Every consumer here is a
coefficient lookup: primitive Hodge numbers h^{i, n-i-1} at (i+1)d - |w|
and the genus of the branch curve of a z3-power split.
classify._weight_facts reads the Hodge numbers once per weight system and
derives b2 and the surface signature from them; poincare_series itself is
uncached.
"""

from __future__ import annotations

from .errors import (
    ConsistencyError,
    DegenerateDegreeError,
    WrongDimensionError,
)
from .monodromy import ExpandedPoly, expand, milnor_product
from .weights import WeightSystem, count_monomials


def poincare_series(w: WeightSystem) -> ExpandedPoly:
    """Exact Poincare series of the Milnor algebra, expanded and checked:
    non-negative, symmetric about T/2 and summing to the Milnor number.

    Requires d > w_i for every i (each partial derivative nonconstant).  May
    raise InexactDivision for degree data that is quasi-homogeneous on paper
    but belongs to no isolated singularity (the closed product is then not a
    polynomial).
    """
    if any(w.degree <= wi for wi in w.weights):
        raise DegenerateDegreeError(
            f"degree {w.degree} does not exceed every weight in {w.weights}"
        )
    factors = [(w.degree - wi, 1) for wi in w.weights] + [(wi, -1) for wi in w.weights]
    series = expand(factors)
    coeffs = series.coefficients
    if min(coeffs) < 0:
        raise ConsistencyError("graded dimensions cannot be negative")
    if coeffs != coeffs[::-1]:
        raise ConsistencyError("graded dimensions are not symmetric about T/2")
    num, den = milnor_product(w)
    if (total := sum(coeffs)) * den != num:
        raise ConsistencyError(f"series total {total} differs from the Milnor product")
    return series


def _dim(series: ExpandedPoly, k: int) -> int:
    """The graded dimension in degree k: 0 outside 0 .. T."""
    return series.coefficients[k] if 0 <= k <= series.degree else 0


def hodge_numbers(w: WeightSystem) -> dict[tuple[int, int], int]:
    """Primitive Hodge numbers of the middle fiber cohomology: h^{i, n-i-1} is
    the graded dimension at (i+1)d - |w|, for i = 0 .. n-1 and n+1 variables."""
    n = w.nvars - 1
    if n < 1:
        raise WrongDimensionError("at least two variables are required")
    series = poincare_series(w)
    return {(i, n - i - 1): _dim(series, (i + 1) * w.degree - w.total) for i in range(n)}


def genus_branch_curve(w3: WeightSystem) -> int:
    """Genus of the curve a surface branches over in a z3-power split.

    g = dim M_{d - |w'|} for the three remaining weights w'.  That degree
    lies below the least partial degree d - max w_i, where the Jacobian ideal
    is empty, so the dimension must agree with the raw monomial count, a
    cross-check run on every call.
    """
    if w3.nvars != 3:
        raise WrongDimensionError(
            f"branch-curve genus needs exactly 3 weights, got {w3.nvars}"
        )
    k = w3.degree - w3.total
    g = _dim(poincare_series(w3), k)
    raw = count_monomials(w3.weights, k)
    if g != raw:
        raise ConsistencyError(
            f"graded dimension {g} at degree {k} differs from the "
            f"monomial count {raw} below the least partial degree"
        )
    return g

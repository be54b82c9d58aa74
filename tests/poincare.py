"""Reference Poincare series of the Milnor algebra, for the tests only.

For a quasi-homogeneous isolated singularity the Milnor algebra (the
coordinate ring modulo the partials) is a graded complete intersection cut
out in degrees d - w_i, so its Poincare series is the closed product

    P(t) = prod_i (t^{d - w_i} - 1) / (t^{w_i} - 1)

a symmetric polynomial with top degree T = sum_i (d - 2 w_i) and P(1) equal
to the Milnor number, expanded here by singlink.monodromy.expand as the
characteristic polynomial is.  singlink never expands it: analyze reads the
Hodge numbers, the branch-curve genus and whether P(t) is a polynomial off
the weights (singlink.milnor_algebra).  The coefficients here are the
independent route those readings are compared with: the primitive Hodge
numbers h^{i, n-i-1} sit at (i+1)d - |w|, and the branch curve's genus at
d - |w'| of its three weights.
"""

from __future__ import annotations

from singlink.errors import ConsistencyError, DegenerateDegreeError, WrongDimensionError
from singlink.monodromy import ExpandedPoly, expand, milnor_product
from singlink.weights import WeightSystem


def poincare_series(w: WeightSystem) -> ExpandedPoly:
    """Exact Poincare series of the Milnor algebra, expanded and checked:
    non-negative, symmetric about T/2 and summing to the Milnor number.

    Requires d > w_i for every i (each partial derivative nonconstant).  Raises
    InexactDivisionError for degree data that is quasi-homogeneous on paper but
    belongs to no isolated singularity (the closed product is then not a
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


def graded_dim(series: ExpandedPoly, k: int) -> int:
    """The graded dimension in degree k: 0 outside 0 .. T."""
    return series.coefficients[k] if 0 <= k <= series.degree else 0


def hodge_numbers(w: WeightSystem) -> dict[tuple[int, int], int]:
    """Primitive Hodge numbers of the middle fiber cohomology: h^{i, n-i-1} is
    the graded dimension at (i+1)d - |w|, for i = 0 .. n-1 and n+1 variables."""
    n = w.nvars - 1
    if n < 1:
        raise WrongDimensionError("at least two variables are required")
    series = poincare_series(w)
    return {(i, n - i - 1): graded_dim(series, (i + 1) * w.degree - w.total) for i in range(n)}


def series_genus(w3: WeightSystem) -> int:
    """The branch curve's genus as the graded dimension of its three weights at d - |w'|."""
    return graded_dim(poincare_series(w3), w3.degree - w3.total)

"""Graded dimensions of the Milnor algebra and what they buy downstream.

For a quasi-homogeneous isolated singularity the Milnor algebra (the
coordinate ring modulo the partials) is a graded complete intersection cut
out in degrees d - w_i, so its Poincare series is the closed product

    P(t) = prod_i (t^{d - w_i} - 1) / (t^{w_i} - 1)

a symmetric polynomial with top degree T = sum_i (d - 2 w_i) and P(1) equal
to the Milnor number, expanded by monodromy.expand as the characteristic
polynomial is.  Every consumer here is a coefficient lookup:
primitive Hodge numbers h^{i, n-i-1} at (i+1)d - |w|, the surface signature,
and the genus of the branch curve of a z3-power split.  The series carries
its weight system, and the rules read a series already built, so one series
serves a whole report; classify._weight_facts builds it once per weight
system, and poincare_series itself is uncached.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ConsistencyError,
    DegenerateDegreeError,
    WrongDimensionError,
)
from .monodromy import expand, milnor_product
from .weights import WeightSystem, count_monomials, require_ints


@dataclass(frozen=True)
class PoincareSeries:
    """Dense graded dimensions p_0 ... p_T of the algebra of `system`,
    validated symmetric."""

    system: WeightSystem
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = require_ints(self.coefficients, "graded dimensions")
        if not coeffs:
            raise ValueError("a Poincare series has at least the degree-0 entry")
        if any(c < 0 for c in coeffs):
            raise ValueError("graded dimensions cannot be negative")
        if coeffs != coeffs[::-1]:
            raise ValueError("graded dimensions are not symmetric about T/2")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def top(self) -> int:
        """Socle degree T."""
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k <= self.top:
            return self.coefficients[k]
        return 0

    def total(self) -> int:
        """P(1), the dimension of the whole algebra."""
        return sum(self.coefficients)


def poincare_series(w: WeightSystem) -> PoincareSeries:
    """Exact Poincare series of the Milnor algebra, expanded and checked.

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
    series = PoincareSeries(w, expand(factors).coefficients)
    num, den = milnor_product(w)
    if series.total() * den != num:
        raise ConsistencyError(
            f"series total {series.total()} differs from the Milnor product"
        )
    return series


def hodge_numbers(series: PoincareSeries) -> dict[tuple[int, int], int]:
    """Primitive Hodge numbers of the middle fiber cohomology: h^{i, n-i-1} is
    the graded dimension at (i+1)d - |w|, for i = 0 .. n-1 and n+1 variables."""
    w = series.system
    n = w.nvars - 1
    if n < 1:
        raise WrongDimensionError("at least two variables are required")
    return {(i, n - i - 1): series.coefficient((i + 1) * w.degree - w.total) for i in range(n)}


def middle_betti_hodge(hodge: dict[tuple[int, int], int]) -> int:
    """Middle Betti number of the link: the sum of hodge_numbers' values."""
    return sum(hodge.values())


def signature(series: PoincareSeries) -> int:
    """Milnor fiber signature of a surface: 1 + 2 dim M_{d-|w|} - dim M_{2d-|w|}."""
    w = series.system
    if w.nvars != 4:
        raise WrongDimensionError(f"signature needs exactly 4 variables, got {w.nvars}")
    k = w.degree - w.total
    return 1 + 2 * series.coefficient(k) - series.coefficient(k + w.degree)


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
    g = poincare_series(w3).coefficient(k)
    raw = count_monomials(w3.weights, k)
    if g != raw:
        raise ConsistencyError(
            f"graded dimension {g} at degree {k} differs from the "
            f"monomial count {raw} below the least partial degree"
        )
    return g

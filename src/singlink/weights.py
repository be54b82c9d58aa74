"""Weight systems and weighted-homogeneous polynomial supports.

A weight system assigns a positive integer weight w_i to each coordinate
z_i and fixes a degree d.  A polynomial f is quasi-homogeneous for the
system when every monomial z^a satisfies sum_i a_i*w_i = d, equivalently
f(l^w0 z0, ..., l^wn zn) = l^d f(z).  Weights are kept normalized,
gcd(w_0, ..., w_n) = 1; inputs violating this are rejected, never rescaled,
since rescaling changes the degree and would mask user errors.

Polynomials are carried as bare monomial supports (sets of exponent
vectors).  No invariant computed anywhere in this package depends on
coefficient values, only on the support, provided the coefficients are
generic; reports state that assumption explicitly.  Whether the singularity
is isolated is decided from the support too (quasi_smooth_failure).

The package's value classes are named tuples whose constructors validate;
tuple.__new__(cls, fields) builds one unchecked, for fields that pass the
checks by construction, and so does _replace.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain, combinations, repeat
from operator import mul

from .errors import (
    BoundExceededError,
    DegenerateDegreeError,
    EmptySubsetError,
    LengthMismatchError,
    NonPositiveWeightError,
    NotNormalizedError,
    NotQuasiHomogeneousError,
)

Exponents = tuple[int, ...]

# quasi_smooth_failure's variable ceiling: it walks 2^n - 1 subsets; 16 variables take 0.12 s
# and 29 MB peak RSS (CPython 3.11, x86-64), and every two more cost four times as much
MAX_QUASI_SMOOTH_VARS = 16

# count_monomials' ceiling on its walk, prod(k // c + 1) remainders over the weights c but the
# two least: 10^6 take about 0.1 s, and analyze's counts stay under 4 * mu (count_monomials)
MAX_WALK = 1_000_000


def require_ints(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as a tuple; a value whose type is not int (a float, a bool)
    is refused, never truncated."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{what} must be of type int; {v!r} is a {type(v).__name__}")
    return values


def validate_weights(weights: Iterable[int]) -> tuple[int, ...]:
    """Check positivity and normalization; return the weights as a tuple."""
    ws = require_ints(weights, "weights")
    if not ws:
        raise NonPositiveWeightError("empty weight sequence")
    for w in ws:
        if w < 1:
            raise NonPositiveWeightError(f"weight {w} is not positive")
    g = math.gcd(*ws)
    if g != 1:
        raise NotNormalizedError(g)
    return ws


class WeightSystem(namedtuple("WeightSystem", "weights degree")):
    """Normalized positive weights together with a positive degree."""

    __slots__ = ()

    def __new__(cls, weights: Iterable[int], degree: int) -> WeightSystem:
        weights = validate_weights(weights)
        require_ints((degree,), "the degree")
        if degree < 1:
            raise DegenerateDegreeError(f"degree {degree} is not positive")
        return tuple.__new__(cls, (weights, degree))

    @property
    def nvars(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        """|w| = sum of the weights."""
        return sum(self.weights)


def weighted_degree(exponents: Sequence[int], w: WeightSystem | Sequence[int]) -> int:
    """Weighted degree sum a_i * w_i of an exponent vector."""
    ws = w.weights if isinstance(w, WeightSystem) else tuple(w)
    if len(exponents) != len(ws):
        raise LengthMismatchError(
            f"exponent vector has length {len(exponents)}, weights have length {len(ws)}"
        )
    return sum(a * wi for a, wi in zip(exponents, ws))


class WeightedPolynomial(namedtuple("WeightedPolynomial", "support system")):
    """A monomial support set that is quasi-homogeneous for its weight system.

    The support may be empty: that is the zero polynomial, whose degree
    only the weight system can fix (quasi_degree, which infers the degree
    from the monomials, refuses it).  Instances keep a __dict__ for masks.
    """

    def __new__(cls, support: Iterable[Sequence[int]], system: WeightSystem) -> WeightedPolynomial:
        support = frozenset(map(require_ints, support, repeat("exponents")))
        ws = system.weights
        for m in support:
            if len(m) != len(ws):
                raise LengthMismatchError(
                    f"monomial {m} has {len(m)} exponents, expected {len(ws)}"
                )
            if min(m) < 0:
                raise ValueError(f"monomial {m} has a negative exponent")
        degrees = {sum(map(mul, m, ws)) for m in support}
        if degrees and degrees != {system.degree}:
            raise NotQuasiHomogeneousError(degrees, system.degree)
        return tuple.__new__(cls, (support, system))

    @property
    def nvars(self) -> int:
        return self.system.nvars

    @property
    def sorted_support(self) -> tuple[Exponents, ...]:
        """Support in canonical (lexicographic) order."""
        return tuple(sorted(self.support))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """One bitmask per monomial of the variables it uses, in support order;
        built once per instance."""
        return tuple(sum(1 << i for i, a in enumerate(m) if a) for m in self.support)


def quasi_degree(monomials: Iterable[Sequence[int]], weights: Sequence[int]) -> WeightedPolynomial:
    """Build a WeightedPolynomial, inferring the degree from the monomials; the
    weights are validated once, and the polynomial's constructor checks the rest."""
    support = frozenset(require_ints(m, "exponents") for m in monomials)
    if not support:
        raise EmptySubsetError("a polynomial needs at least one monomial")
    ws = validate_weights(weights)
    degrees = {weighted_degree(m, ws) for m in support}
    if len(degrees) != 1:
        raise NotQuasiHomogeneousError(degrees)
    (degree,) = degrees
    if degree < 1:  # as WeightSystem refuses it; its other checks ran on ws above
        raise DegenerateDegreeError(f"degree {degree} is not positive")
    return WeightedPolynomial(support, tuple.__new__(WeightSystem, (ws, degree)))


def is_well_formed_space(w: WeightSystem) -> bool:
    """True iff deleting any single weight leaves gcd 1."""
    ws = w.weights
    return all(
        math.gcd(*(ws[j] for j in range(len(ws)) if j != i)) == 1
        for i in range(len(ws))
    )


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


def count_monomials(weights: Sequence[int], k: int) -> int:
    """Number of exponent vectors of weighted degree exactly k: a walk over the exponents
    of all weights but the two least, a <= b (a pad k + 1 for n < 2), then a*x + b*y = r in
    closed form, x stepping by b/g from (r/g)*(a/g)^-1 mod b/g, g = gcd(a, b), up to r/a.
    The work is the number of walked vectors of degree at most k (one for n <= 2), not k; a
    box of more than MAX_WALK is refused first.  For analyze's p_g over sorted weights (a, b, c,
    e), k = d - |w| >= 0, the box is <= (d/c)^2 <= 4 (d - a)/a (d - b)/b < 4 mu, as d >= 2c and
    (d - c)/c (d - e)/e >= (a + b + c)/c > 1; a genus count's, over (a, b, c), is below mu/2 + 1."""
    ws = require_ints(weights, "weights")
    if any(w < 1 for w in ws):
        raise NonPositiveWeightError("weights must be positive")
    if k < 0:
        return 0
    a, b, *rest = sorted(ws + (k + 1,) * (2 - len(ws)))
    if math.prod(k // c + 1 for c in rest) > MAX_WALK:
        raise BoundExceededError(f"the monomial count would walk more than {MAX_WALK} remainders")
    g = math.gcd(a, b)
    step, inverse = b // g, pow(a // g, -1, b // g)
    remainders = (k,)
    for c in reversed(rest):  # lazily, in flat memory: r, r - c, ..., down to 0 for each r
        remainders = chain.from_iterable(map(range, remainders, repeat(-1), repeat(-c)))
    solutions = ((r // a, r // g * inverse % step) for r in remainders if not r % g)
    return sum((top - x) // step + 1 for top, x in solutions if x <= top)


def _subset_table(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Nonempty subsets of range(n), by size then in combinations order, with
    the bitmask of the variables outside each."""
    sizes = range(1, n + 1)
    return tuple((~sum(1 << i for i in s), s) for k in sizes for s in combinations(range(n), k))


# Only n = 4's table, the one analyze, singular_strata and the registry read, is kept
# across calls; any other is built per call (16 variables: 65,535 rows).
_SUBSETS_4 = _subset_table(4)


def _subsets(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    return _SUBSETS_4 if n == 4 else _subset_table(n)


def quasi_smooth_failure(f: WeightedPolynomial) -> tuple[int, ...] | None:
    """First variable subset at which the support fails quasi-smoothness, or None.

    For generic coefficients the singularity is isolated exactly when, for
    every nonempty variable subset I, either some monomial uses only variables
    in I, or at least |I| distinct variables e not in I each carry a monomial
    z_I^m * z_e (Iano-Fletcher, Working with weighted complete intersections,
    LMS LN 281, Thm 8.1; Kreuzer-Skarke, CMP 150, 1992).  A linear monomial
    z_e (d = w_e, m = 0) passes every I without e: that germ is not singular
    at all, and analyze refuses it at the Milnor-number stage since mu = 0.
    """
    if f.nvars > MAX_QUASI_SMOOTH_VARS:
        raise BoundExceededError(
            f"{f.nvars} variables exceed the quasi-smoothness ceiling {MAX_QUASI_SMOOTH_VARS}"
        )
    masks = f.masks  # in f.support's order: both read the one frozenset
    heads = [  # (the other variables of a monomial, a variable e it has to power 1)
        (mask ^ (1 << e), e) for mask, m in zip(masks, f.support) for e, a in enumerate(m) if a == 1
    ]
    for outside, subset in _subsets(f.nvars):
        for mask in masks:  # a plain loop: all() over a generator costs double
            if not mask & outside:
                break
        else:
            # each e is outside I: else its monomial would use only I
            carriers = {e for rest, e in heads if not rest & outside}
            if len(carriers) < len(subset):
                return subset
    return None

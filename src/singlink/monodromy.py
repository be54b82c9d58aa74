"""Monodromy of the Milnor fibration from weight data alone.

For a quasi-homogeneous polynomial with an isolated singularity, both the
Milnor number and the characteristic polynomial of the monodromy depend
only on the rational ratios d/w_i.  Writing each ratio as u_i/v_i in lowest
terms,

    mu = prod_i (d/w_i - 1)
    div Delta(t) = prod_i (Lambda_{u_i} / v_i - 1)

with the product taken in the group ring of roots of unity, Lambda_a * Lambda_b
= gcd(a, b) * Lambda_lcm(a, b), computed in int scaled by prod v_i
(milnor_orlik_terms, shared with scan), and mu as prod(d - w_i) / prod w_i
(milnor_product).  Both must come out integral, a divisibility test; the
coefficient a_j of Lambda_j is then the exponent of (t^j - 1) in Delta, so
characteristic_divisor returns the divisor as its ascending (j, a_j) pairs,
which are Delta's factored form.  expand, with its two kernels (a binomial-
theorem multiply, one slice update per entry of its shorter side, and a linear
exact division, largest j first), is the one expander of such binomial quotients,
each an ExpandedPoly: Delta here, and the Poincare series P(t) in the tests.

The divisor, hence Delta(t), depends only on the weight system, so
classify._weight_facts builds both once per system; the kernels here stay
uncached, so a sweep over many distinct systems keeps no expansion alive.
ExpandedPoly memoizes its residue Delta(R) mod P, a Horner walk over blocks of
coefficients; classify compares it with the pairs' factored_residue once per build
of a system's facts: an O(mu) identity test (Schwartz 1980, Zippel 1979).

bp_oracle is a deliberately independent second route for exponent sums
f = z_0^{a_0} + ... + z_n^{a_n}, by root enumeration, with its own
cyclotomic table, exact division and packed product (in machine words where
they hold a slot), so it shares no failure mode with the divisor pipeline.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from operator import add, mul, neg

from .divisor import Divisor
from .errors import (
    BoundExceededError,
    ConsistencyError,
    DegenerateDegreeError,
    InexactDivisionError,
    IntegralityViolationError,
    NonIntegralMilnorNumberError,
)
from .weights import WeightSystem, require_ints

MAX_DEGREE = 500_000  # expand's own ceiling on the product's degree; analyze's is classify.MAX_MU


def brief(x) -> str:
    """A non-negative int or Fraction x in full, or its power of ten past the int -> str
    digit limit."""
    try:
        return str(x)
    except ValueError:  # over sys.get_int_max_str_digits()
        return f"~10^{math.log10(x.numerator) - math.log10(x.denominator):.0f}"


def ratio(num: int, den: int):
    """num / den as a Fraction, for a refusal's text: fractions is imported only here,
    so a run that refuses nothing never loads it."""
    from fractions import Fraction
    return Fraction(num, den)


def milnor_product(w: WeightSystem) -> tuple[int, int]:
    """prod(d/w_i - 1) as the integer pair (prod(d - w_i), prod(w_i))."""
    if w.degree < max(w.weights):
        raise DegenerateDegreeError(
            f"degree {w.degree} is below the largest weight {max(w.weights)}"
        )
    return math.prod(w.degree - wi for wi in w.weights), math.prod(w.weights)


def milnor_number(w: WeightSystem) -> int:
    """The exact product prod(d/w_i - 1), asserted a positive integer."""
    num, den = milnor_product(w)
    mu, rest = divmod(num, den)
    if rest or mu <= 0:
        raise NonIntegralMilnorNumberError(
            f"Milnor product {brief(ratio(num, den))} is not a positive integer; "
            "the weight data is inconsistent with an isolated singularity link"
        )
    return mu


def milnor_orlik_terms(weights: tuple[int, ...], degree: int) -> tuple[dict[int, int], int]:
    """Milnor-Orlik product prod(Lambda_u / v - 1) in int, as (terms, scale).

    The divisor is sum terms[n] / scale * Lambda_n; scale = prod(v_i) absorbs every 1/v.
    """
    terms, scale = {1: 1}, 1
    for wi in weights:
        g = math.gcd(degree, wi)
        u, v = degree // g, wi // g
        scale *= v
        nxt: dict[int, int] = {}
        for n, c in terms.items():
            k = math.gcd(n, u)
            m = n * u // k
            nxt[m] = nxt.get(m, 0) + c * k
            nxt[n] = nxt.get(n, 0) - c * v
        terms = {n: c for n, c in nxt.items() if c}
    return terms, scale


def characteristic_divisor(w: WeightSystem) -> Divisor:
    """Divisor of the monodromy characteristic polynomial."""
    num, den = milnor_product(w)
    terms, scale = milnor_orlik_terms(w.weights, w.degree)
    if any(c % scale for c in terms.values()):
        bad = {n: ratio(c, scale) for n, c in terms.items() if c % scale}
        raise IntegralityViolationError(
            f"characteristic divisor has fractional coefficients {bad}; "
            "the weight data is inconsistent with an isolated singularity link"
        )
    divisor = Divisor(sorted((n, c // scale) for n, c in terms.items()))
    degree = sum(j * a for j, a in divisor)
    if degree * den != num:
        raise ConsistencyError(
            f"divisor degree {degree} differs from Milnor product {ratio(num, den)}"
        )
    return divisor


# The point and prime of the residue check: 3 has order about 2.6 * 10^17 mod P.
P = (1 << 61) - 1
R = 3
_BLOCK = 512  # coefficients per step of the residue's Horner walk
*_R_POWERS, _R_BLOCK = accumulate(repeat(R, _BLOCK), lambda a, r: a * r % P, initial=1)


class ExpandedPoly(namedtuple("ExpandedPoly", "coefficients")):
    """Dense exact integer coefficients, constant term first: Delta(t), or the
    Poincare series P(t), whose degree is the socle degree T.  Instances keep a
    __dict__ for residue."""

    def __new__(cls, coefficients: Iterable[int]) -> ExpandedPoly:
        coeffs = require_ints(coefficients, "coefficients")
        if not coeffs or coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        return tuple.__new__(cls, (coeffs,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @cached_property
    def residue(self) -> int:
        """The value at R mod P, once per instance: Horner in R^_BLOCK over blocks
        of _BLOCK coefficients, top first, each one C-level sum of c_{s+i} R^i."""
        acc = 0
        for s in range(self.degree // _BLOCK * _BLOCK, -1, -_BLOCK):
            acc = (acc * _R_BLOCK + sum(map(mul, self.coefficients[s:s + _BLOCK], _R_POWERS))) % P
        return acc


def factored_residue(factors: Iterable[tuple[int, int]]) -> int:
    """prod (R^j - 1)^{a_j} mod P over (j, a_j) pairs; pow inverts a negative a_j."""
    value = 1
    for j, a in factors:
        if not (base := pow(R, j, P) - 1):
            raise ConsistencyError(f"R^{j} = 1 mod P: the factor (t^{j} - 1) vanishes at R = {R}")
        value = value * pow(base, a, P) % P
    return value


def to_factored(divisor: Divisor) -> tuple[tuple[int, int], ...]:
    """The divisor's (j, a_j) pairs as a plain tuple: the factored form
    prod (t^j - 1)^{a_j}."""
    return tuple(divisor)


def expand(factors: Iterable[tuple[int, int]]) -> ExpandedPoly:
    """prod (t^j - 1)^e over (j, e) pairs: multiply the numerator binomials,
    then divide the denominators exactly, largest j first.

    Exponents of a repeated j add up; a j whose exponents cancel is dropped, any
    other j must be positive (numerators first), and a degree over MAX_DEGREE is
    refused before the loops.  Each numerator factor is one _mul_binomial_power
    call, and each unit of a denominator exponent one _div_binomial call; each
    division shortens the list by j, so the largest j first keeps every pass short.
    """
    exponents: dict[int, int] = {}
    for pair in factors:
        j, e = require_ints(pair, "factor indices and exponents")
        exponents[j] = exponents.get(j, 0) + e
    ascending = sorted(exponents.items())
    if bad := min(((e < 0, j) for j, e in ascending if e and j < 1), default=None):
        raise ValueError(f"binomial exponent {bad[1]} is not positive")
    if (degree := sum(j * e for j, e in ascending)) > MAX_DEGREE:
        raise BoundExceededError(f"degree {brief(degree)} exceeds the expand ceiling {MAX_DEGREE}")
    coeffs = [1]
    for j, e in ascending:
        if e > 0:
            coeffs = _mul_binomial_power(coeffs, j, e)
    for j, e in reversed(ascending):
        for _ in range(max(-e, 0)):
            coeffs = _div_binomial(coeffs, j)
    return ExpandedPoly(tuple(coeffs))


def _mul_binomial_power(coeffs: list[int], j: int, e: int) -> list[int]:
    """Multiply by (t^j - 1)^e = sum_k C(e, k) (-1)^(e - k) t^(j k), e > 0: one C-level
    slice update per entry of the shorter side, a coefficient times the row strided by j
    while len(coeffs) <= e, else a row entry times the input."""
    n = len(coeffs)
    out = [0] * (n + j * e)
    row = [(-1) ** e]
    for k in range(e // 2):
        row.append(-row[-1] * (e - k) // (k + 1))
    row += map(neg, row[::-1]) if e % 2 else row[(e - 1) // 2::-1]  # C(e, k) = C(e, e - k)
    if n <= e:
        for i, a in enumerate(coeffs):
            out[i:i + j * e + 1:j] = map(add, out[i:i + j * e + 1:j], map(mul, row, repeat(a)))
    else:
        for k, c in enumerate(row):
            out[j * k:j * k + n] = map(add, out[j * k:j * k + n], map(mul, coeffs, repeat(c)))
    return out


def _div_binomial(coeffs: list[int], j: int) -> list[int]:
    """Divide exactly by t^j - 1 in one linear pass; the remainder must vanish."""
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


def middle_betti(divisor: Divisor) -> int:
    """Multiplicity of the eigenvalue 1: the divisor's coefficient sum."""
    b = sum(a for _, a in divisor)
    if b < 0:
        raise IntegralityViolationError(f"root 1 has negative multiplicity {b}")
    return b


# -- independent Brieskorn-Pham oracle (self-contained on purpose) -------

def bp_oracle(a: Sequence[int], bound: int = 5000) -> ExpandedPoly:
    """Characteristic polynomial for f = sum z_i^{a_i}, by root enumeration.

    Each eigenvalue is a product of nontrivial a_i-th roots of unity,
    tracked as an exact rotation number k/L with L = lcm(a); grouping by
    exact order gives the multiset of cyclotomic factors.
    """
    exps = require_ints(a, "exponents")
    require_ints((bound,), "the oracle bound")
    if not exps or any(x < 2 for x in exps):
        raise ValueError("all exponents must be >= 2")
    total = math.prod(x - 1 for x in exps)
    if total > bound:
        raise BoundExceededError(f"degree {total} exceeds the oracle bound {bound}")
    big_l = math.lcm(*exps)
    counts: dict[int, int] = {0: 1}
    for x in exps:
        step = big_l // x
        nxt: dict[int, int] = {}
        for r, c in counts.items():
            for k in range(1, x):
                key = (r + k * step) % big_l
                nxt[key] = nxt.get(key, 0) + c
        counts = nxt
    by_order: dict[int, dict[int, int]] = {}
    for r, c in counts.items():
        g = math.gcd(r, big_l)
        by_order.setdefault(big_l // g, {})[r // g] = c
    factors: list[tuple[list[int], int]] = []
    for order, residues in sorted(by_order.items()):
        # the keys r // g are distinct units mod order: all of them iff deg Phi_order many
        cyclotomic = _cyclotomic(order)
        if len(residues) != len(cyclotomic) - 1 or len(set(residues.values())) != 1:
            raise ConsistencyError(
                f"roots of order {order} do not fill Galois orbits evenly: {residues}"
            )
        factors.append((cyclotomic, next(iter(residues.values()))))
    return ExpandedPoly(tuple(_packed_product(factors, total + 1)))


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> list[int]:
    """Coefficients of Phi_n, constant first.  With p the largest prime factor of
    n and m = n / p: Phi_n(t) = Phi_m(t^p) if p | m, else Phi_m(t^p) / Phi_m(t)."""
    if n == 1:
        return [-1, 1]
    p, k = n, 2  # divide out the smallest factors: the largest prime is left
    while k * k <= p:
        if p % k:
            k += 1
        else:
            p //= k
    inner = _cyclotomic(n // p)
    spread = [0] * (p * (len(inner) - 1) + 1)
    spread[::p] = inner
    return spread if n // p % p == 0 else _exact_div(spread, inner)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    """Schoolbook exact division for the oracle's own use."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(num[k + len(den) - 1], den[-1])
        if r:
            raise ConsistencyError("cyclotomic division is not exact")
        out[k] = q
        for i, c in enumerate(den):
            num[k + i] -= q * c
    if any(num):
        raise ConsistencyError("cyclotomic division leaves a remainder")
    return out


_WORDS = sorted({array(code).itemsize: code for code in "bhilq"}.items())  # signed, by width


def _packed_product(factors: list[tuple[list[int], int]], length: int) -> list[int]:
    """The `length` coefficients of prod p^e over (p, e) pairs, by Kronecker
    substitution: each p is evaluated once at 2^(8 * width), the values are
    raised and multiplied as ints, and the product is decoded once.

    The 1-norm is submultiplicative and bounds the largest coefficient, so
    prod ||p||_1^e bounds every coefficient of the product.  The slot is
    whole bytes with half a slot above that bound, widened to a machine word
    where one fits.  Adding half to every slot turns the balanced digits into
    plain bytes; on a digit in two's complement that is XOR with half, so a p
    packs as it is, in words as one array, and the product decodes by one XOR
    and, in words, one memoryview cast.  Slots are in native byte order: on a
    big-endian machine every int holds its polynomial reversed, the product too.
    """
    limit = math.prod(sum(map(abs, p)) ** e for p, e in factors)
    width = limit.bit_length() // 8 + 1
    width, code = next(((k, c) for k, c in _WORDS if k >= width), (width, None))
    endian = sys.byteorder
    pad = (1 << 8 * width - 1).to_bytes(width, endian)
    product = 1
    for p, e in factors:
        packed = array(code, p) if code else b"".join(c.to_bytes(width, endian, signed=True) for c in p)
        offset = int.from_bytes(pad * len(p), endian)
        product *= ((int.from_bytes(packed, endian) ^ offset) - offset) ** e
    offset = int.from_bytes(pad * length, endian)
    try:
        out = ((product + offset) ^ offset).to_bytes(length * width, endian)
    except OverflowError:
        raise ConsistencyError("packed product decoding did not terminate") from None
    if code:
        return memoryview(out).cast(code).tolist()
    return [int.from_bytes(out[i:i + width], endian, signed=True) for i in range(0, len(out), width)]

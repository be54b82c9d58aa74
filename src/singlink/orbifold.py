"""Singular strata of the ambient weighted projective space and the link.

A coordinate subset S with m_S = gcd(w_i : i in S) > 1 marks a singular
stratum of the weighted projective space.  What the quotient singularities
do to the hypersurface depends on whether the open stratum is disjoint
from it, meets it, or lies inside it; for vertices and coordinate edges
this is decided exactly from the monomial support:

  vertex {i}: the point lies on the hypersurface iff no monomial is a pure
    power of z_i;
  edge {i, j}: the restriction to the two variables either vanishes
    identically (contained), is a single monomial, never zero when both
    coordinates are (disjoint), or has two or more monomials and then has
    zeros in the two-torus for any nonzero coefficients (meets).  Factoring
    a shared monomial out of the restriction does not change its number of
    terms, so the two-term rule needs no preliminary stripping.

The orbifold order of the link is the lcm of m_S over strata the
hypersurface touches.  Higher-dimensional strata (subsets of three or more
variables, which only a non-well-formed ambient space produces, or five or
more variables total) would need torus point counts beyond these rules and
are refused.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import UnsupportedDimensionError, WrongDimensionError
from .weights import WeightedPolynomial, WeightSystem, _subsets, require_ints

DISJOINT = "disjoint"
MEETS = "meets"
CONTAINED = "contained"

TORSION_FREE = "torsion_free"
TORSION_UNKNOWN = "unknown"


class Fano(namedtuple("Fano", "is_fano index")):
    """Sign and value of |w| - d; positive means anticanonically positive."""

    __slots__ = ()


class Stratum(namedtuple("Stratum", "indices isotropy_order incidence")):
    __slots__ = ()

    def __new__(cls, indices: tuple[int, ...], isotropy_order: int, incidence: str) -> Stratum:
        indices = tuple(sorted(require_ints(indices, "stratum indices")))
        require_ints((isotropy_order,), "the isotropy order")
        if isotropy_order < 2:
            raise ValueError("strata are listed only for isotropy order > 1")
        if incidence not in (DISJOINT, MEETS, CONTAINED):
            raise ValueError(f"unknown incidence {incidence!r}")
        return tuple.__new__(cls, (indices, isotropy_order, incidence))


def fano(w: WeightSystem) -> Fano:
    index = w.total - w.degree
    return Fano(is_fano=index > 0, index=index)


def singular_strata(f: WeightedPolynomial) -> tuple[Stratum, ...]:
    """All strata with isotropy order > 1, with exact incidence, for up to four
    variables.  Incidence rules exist for vertices and edges only, so a larger
    subset with nontrivial gcd (only in a space that is not well formed) is
    refused.  Each call builds its strata from the shared subset table, uncached
    and unchecked (every field comes from the table); an incidence counts the
    monomials whose mask in f.masks lies inside the subset.
    """
    ws = f.system.weights
    if len(ws) > 4:
        raise UnsupportedDimensionError(f"incidence rules cover at most 4 variables, got {len(ws)}")
    out, masks = [], f.masks
    for outside, subset in _subsets(len(ws)):
        m = math.gcd(ws[subset[0]], ws[subset[-1]])  # its ends: all of a vertex or an edge
        if m > 1 and len(subset) > 2:
            m = math.gcd(m, *map(ws.__getitem__, subset[1:-1]))
        if m == 1:  # always so for the full set: the weights are normalized
            continue
        if len(subset) > 2:
            raise UnsupportedDimensionError(
                f"subset {subset} of {len(subset)} variables has gcd {m} > 1; "
                "incidence rules cover vertices and edges only "
                "(the ambient space is not well formed)"
            )
        inside = 0
        for mask in masks:  # a plain loop: sum() over a generator costs more
            inside += not mask & outside
        incidence = (CONTAINED, DISJOINT, MEETS)[min(inside, 2)]
        out.append(tuple.__new__(Stratum, (subset, m, incidence)))
    return tuple(out)


def orbifold_order(strata: tuple[Stratum, ...]) -> int:
    """lcm of isotropy orders over strata the hypersurface touches (the rules
    here read the tuple one singular_strata call gives)."""
    return math.lcm(*(s.isotropy_order for s in strata if s.incidence in (MEETS, CONTAINED)))


def pair_well_formed(strata: tuple[Stratum, ...], nvars: int) -> bool:
    """No singular stratum of complex codimension 2 (nvars - 2 indices: edges
    for four variables) lies inside the hypersurface."""
    return not any(s.incidence == CONTAINED and len(s.indices) == nvars - 2 for s in strata)


def torsion_status(pair_well_formed: bool, nvars: int) -> str:
    """Randell's criterion, four variables only: well-formedness forces
    torsion-free H2, else the status is unknown, never a torsion claim.  The
    strata's pair flag settles it: singular_strata refuses a space that is not
    well formed, and an edge whose gcd does not divide d is contained."""
    if nvars != 4:
        raise WrongDimensionError(f"torsion status needs exactly 4 variables, got {nvars}")
    return TORSION_FREE if pair_well_formed else TORSION_UNKNOWN

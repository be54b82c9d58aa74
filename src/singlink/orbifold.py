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
from dataclasses import dataclass
from functools import lru_cache

from .errors import UnsupportedDimensionError, WrongDimensionError
from .weights import WeightedPolynomial, WeightSystem, _subsets, require_ints

DISJOINT = "disjoint"
MEETS = "meets"
CONTAINED = "contained"

TORSION_FREE = "torsion_free"
TORSION_UNKNOWN = "unknown"


@dataclass(frozen=True)
class Fano:
    """Sign and value of |w| - d; positive means anticanonically positive."""

    is_fano: bool
    index: int


@dataclass(frozen=True)
class Stratum:
    indices: tuple[int, ...]
    isotropy_order: int
    incidence: str

    def __post_init__(self) -> None:
        indices = require_ints(self.indices, "stratum indices")
        object.__setattr__(self, "indices", tuple(sorted(indices)))
        require_ints((self.isotropy_order,), "the isotropy order")
        if self.isotropy_order < 2:
            raise ValueError("strata are listed only for isotropy order > 1")
        if self.incidence not in (DISJOINT, MEETS, CONTAINED):
            raise ValueError(f"unknown incidence {self.incidence!r}")


def fano(w: WeightSystem) -> Fano:
    index = w.total - w.degree
    return Fano(is_fano=index > 0, index=index)


@lru_cache(maxsize=None)
def _skeleton(ws: tuple[int, ...]) -> tuple[tuple[int, tuple[Stratum, ...]], ...]:
    """Per subset with gcd m > 1, in weights._subsets order: the bitmask of the
    variables outside it and its Stratum for each incidence, indexed by
    min(monomials inside, 2)."""
    if len(ws) > 4:
        raise UnsupportedDimensionError(f"incidence rules cover at most 4 variables, got {len(ws)}")
    out = []
    for outside, subset in _subsets(len(ws)):
        m = math.gcd(*(ws[i] for i in subset))
        if m == 1:  # always so for the full set: the weights are normalized
            continue
        if len(subset) > 2:
            raise UnsupportedDimensionError(
                f"subset {subset} of {len(subset)} variables has gcd {m} > 1; "
                "incidence rules cover vertices and edges only "
                "(the ambient space is not well formed)"
            )
        strata = tuple(Stratum(subset, m, c) for c in (CONTAINED, DISJOINT, MEETS))
        out.append((outside, strata))
    return tuple(out)


def singular_strata(f: WeightedPolynomial) -> tuple[Stratum, ...]:
    """All strata with isotropy order > 1, with exact incidence.

    Supports up to four variables; incidence rules exist for vertices and
    edges only, so a larger subset with nontrivial gcd (possible only when
    the ambient space is not well formed) is refused too.  The subsets and
    their orders depend only on the weights and are built once per weight
    tuple; a vertex or edge's incidence counts the monomials whose mask in
    f.masks lies inside it (a vertex carries at most one, the pure power).
    """
    return tuple(
        by_count[min(sum(not mask & outside for mask in f.masks), 2)]
        for outside, by_count in _skeleton(f.system.weights)
    )


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

"""Pipeline orchestration: one polynomial in, one invariant report out.

analyze() runs every computation this package provides on a four-variable
weighted-homogeneous support, cross-checks the quantities that can be
computed two ways, consults a registry of published Kähler-Einstein /
Sasakian-Einstein existence results, and applies the connected-sum
classification of simply connected spin 5-manifolds: with torsion-free
second homology the link is S⁵ when b₂ = 0 and a connected sum of b₂
copies of S²×S³ otherwise.

Only generic coefficients are assumed: isolatedness is decided from the
support (weights.quasi_smooth_failure), and a support that fails keeps its
weight-derived invariants but gets no diffeomorphism type or SE status.

Reports are canonical: variables are relabeled so the weights are sorted,
and the permutation is recorded.  Every invariant is unchanged by that, and
the registry is matched on the same canonical form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from operator import itemgetter
from types import MappingProxyType

from .divisor import Divisor
from .errors import BoundExceededError, ConsistencyError, SinglinkError, WrongDimensionError
from .milnor_algebra import check_divisor_character, genus_branch_curve, require_polynomial_series
from .monodromy import (
    ExpandedPoly,
    brief,
    characteristic_divisor,
    expand,
    factored_residue,
    middle_betti,
    milnor_number,
)
from .orbifold import (
    CONTAINED,
    TORSION_FREE,
    Fano,
    Stratum,
    fano,
    orbifold_order,
    pair_well_formed,
    singular_strata,
    torsion_status,
)
from .weights import (
    Exponents,
    WeightedPolynomial,
    WeightSystem,
    _unchecked,
    count_monomials,
    quasi_smooth_failure,
    require_ints,
    validate_weights,
)

KNOWN_SE = "known_SE"
CANDIDATE = "candidate"
OBSTRUCTED = "obstructed"
NOT_FANO = "not_fano"
NOT_WELL_FORMED = "not_well_formed"
NOT_QUASI_SMOOTH = "not_quasi_smooth"

# analyze's one work ceiling, checked before Delta(t) (mu + 1 coefficients) is built: Fermat
# d = 15 (mu = 38,416) passes, d = 16 not.  Every later stage's work follows mu, not the degree.
MAX_MU = 50_000

# The per-system memos of weight-only data (_weight_facts, cli's fragments) keep at most
# MEMO_ENTRIES systems, none with mu above MEMO_MAX_MU (every catalog system is under it): at
# most ~63 MB of facts and ~45 MB of fragments (CPython 3.11, largest entries at mu <= 1,500).
MEMO_ENTRIES = 1024
MEMO_MAX_MU = 1_500


def _canonicalize(f: WeightedPolynomial) -> tuple[WeightedPolynomial, tuple[int, ...]]:
    """f relabeled by the stable sort of its weights, and that permutation (f if sorted);
    the copy skips the checks f passed."""
    w = f.system.weights
    perm = tuple(sorted(range(len(w)), key=w.__getitem__))  # stable: tied weights keep their order
    if perm == tuple(range(len(w))):
        return f, perm
    relabel = itemgetter(*perm)  # a tuple, as an unsorted perm has at least two entries
    system = _unchecked(WeightSystem, weights=relabel(w), degree=f.system.degree)
    support = frozenset(map(relabel, f.support))
    return _unchecked(WeightedPolynomial, support=support, system=system), perm


def _tie_relabelings(f: WeightedPolynomial) -> frozenset:
    """(weights, degree, sorted support) of every relabeling of a canonical f
    that keeps its weights sorted: the ones that permute only tied weights."""
    w = f.system.weights
    return frozenset(
        (w, f.system.degree, tuple(sorted(tuple(m[i] for i in p) for m in f.support)))
        for p in permutations(range(len(w))) if tuple(w[i] for i in p) == w
    )


def _subset_label(indices: tuple[int, ...]) -> str:
    return "{" + ", ".join(f"z{i}" for i in indices) + "}"


@dataclass(frozen=True)
class RegistryEntry:
    """One published existence result, keyed by the tie relabelings of its canonical form."""

    weights: tuple[int, ...]
    degree: int
    support: tuple[Exponents, ...]
    tag: str
    citation: str
    obstructed: bool = False
    reference_order: int | None = None
    key: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.weights) != 4:  # analyze matches no other; refused before any enumeration
            raise WrongDimensionError(f"a registry entry has 4 variables, not {len(self.weights)}")
        for name, kind in (("tag", str), ("citation", str), ("obstructed", bool)):
            if type(getattr(self, name)) is not kind:
                raise TypeError(f"{name} must be a {kind.__name__}, not {getattr(self, name)!r}")
        object.__setattr__(self, "weights", validate_weights(self.weights))
        support = tuple(sorted(require_ints(m, "exponents") for m in self.support))
        object.__setattr__(self, "support", support)
        if self.reference_order is not None:
            require_ints((self.reference_order,), "the reference orbifold order")
            if self.reference_order < 1:
                raise ValueError(
                    f"the reference orbifold order {self.reference_order} is not positive"
                )
        f = self.polynomial()  # validates the degree and quasi-homogeneity
        failure = quasi_smooth_failure(f)
        if failure is not None:
            raise SinglinkError(
                f"registry entry {self.tag} is not quasi-smooth at {_subset_label(failure)}"
            )
        if not self.obstructed and not (
            fano(f.system).is_fano and pair_well_formed(singular_strata(f), f.nvars)
        ):
            raise SinglinkError(
                f"registry entry {self.tag} claims an SE metric but is not a "
                "well-formed Fano pair"
            )
        object.__setattr__(self, "key", _tie_relabelings(_canonicalize(f)[0]))

    def polynomial(self) -> WeightedPolynomial:
        return WeightedPolynomial(
            frozenset(self.support), WeightSystem(self.weights, self.degree)
        )


_DK_CITATION = (
    "Demailly-Kollár, Semi-continuity of complex singularity exponents and "
    "Kähler-Einstein metrics on Fano orbifolds: Kähler-Einstein orbifold "
    "metric on the base, hence a compatible Sasakian-Einstein metric on the link"
)

BUILTIN_REGISTRY: tuple[RegistryEntry, ...] = (
    RegistryEntry(
        weights=(9, 15, 17, 20),
        degree=60,
        support=((5, 1, 0, 0), (1, 0, 3, 0), (0, 4, 0, 0), (0, 0, 0, 3)),
        tag="DK-1",
        citation=_DK_CITATION,
    ),
    RegistryEntry(
        weights=(11, 49, 69, 128),
        degree=256,
        support=((17, 0, 1, 0), (1, 5, 0, 0), (0, 1, 3, 0), (0, 0, 0, 2)),
        tag="DK-2",
        citation=_DK_CITATION,
        reference_order=37191,
    ),
    RegistryEntry(
        weights=(13, 35, 81, 128),
        degree=256,
        support=((17, 1, 0, 0), (1, 0, 3, 0), (0, 5, 1, 0), (0, 0, 0, 2)),
        tag="DK-3",
        citation=_DK_CITATION,
        reference_order=36855,
    ),
)


def registry_dump(entries: tuple[RegistryEntry, ...] = BUILTIN_REGISTRY) -> str:
    """Line-delimited JSON, one entry per line, keys in fixed order."""
    lines = []
    for e in entries:
        record: dict = {
            "weights": list(e.weights),
            "degree": e.degree,
            "support": [list(m) for m in e.support],
            "tag": e.tag,
            "citation": e.citation,
        }
        if e.obstructed:
            record["obstructed"] = True
        if e.reference_order is not None:
            record["invariants"] = {"orbifold_order": e.reference_order}
        lines.append(json.dumps(record, ensure_ascii=False))
    return "".join(line + "\n" for line in lines)


def load_registry(text: str) -> tuple[RegistryEntry, ...]:
    """Parse a line-delimited registry file; entries are re-validated, unique up to relabeling."""
    entries = []
    seen: dict[frozenset, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            invariants = dict(record.get("invariants", {}).items())
            if invariants.get("orbifold_order", 1) is None:
                raise ValueError("the reference orbifold order is null; omit it for no reference")
            reference_order = invariants.pop("orbifold_order", None)
            if invariants:
                raise ValueError(f"unknown reference invariants {sorted(invariants)}")
            entry = RegistryEntry(
                weights=tuple(record["weights"]),
                degree=record["degree"],
                support=tuple(tuple(m) for m in record["support"]),
                tag=record["tag"],
                citation=record["citation"],
                obstructed=record.get("obstructed", False),
                reference_order=reference_order,
            )
        except (AttributeError, KeyError, TypeError, ValueError, SinglinkError) as exc:
            raise SinglinkError(f"registry line {lineno}: {exc}") from exc
        if entry.key in seen:
            raise SinglinkError(f"registry line {lineno}: {entry.tag} duplicates {seen[entry.key]}")
        seen[entry.key] = f"{entry.tag} from line {lineno}"
        entries.append(entry)
    return tuple(entries)


def registry_lookup(
    f: WeightedPolynomial, registry: tuple[RegistryEntry, ...] = BUILTIN_REGISTRY
) -> RegistryEntry | None:
    """Match weights, degree and support, all up to one shared relabeling: the
    canonical form of f against each entry's tie relabelings (entry.key)."""
    f, _ = _canonicalize(f)
    key = (f.system.weights, f.system.degree, f.sorted_support)
    return next((entry for entry in registry if key in entry.key), None)


def smale_type(b2: int, torsion_free: bool) -> int | None:
    """Connected-sum rank for a simply connected spin 5-manifold link."""
    if b2 < 0:
        raise ValueError("a Betti number cannot be negative")
    return b2 if torsion_free else None


def smale_name(k: int) -> str:
    if k < 0:
        raise ValueError("a connected-sum rank cannot be negative")
    if k == 0:
        return "S⁵"
    if k == 1:
        return "S²×S³"
    return f"#{k}(S²×S³)"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class InvariantReport:
    """Only what is rendered or checked for one link, in canonical variable order."""

    weights: tuple[int, ...]
    degree: int
    support: tuple[Exponents, ...]
    permutation: tuple[int, ...]
    quasi_smooth: bool
    space_well_formed: bool
    divisibility_ok: bool
    pair_well_formed: bool
    fano: Fano
    milnor_number: int
    divisor: Divisor
    expanded: ExpandedPoly
    b2_divisor: int
    b2_hodge: int
    hodge: tuple[tuple[tuple[int, int], int], ...]
    signature: int
    genus: int | None
    strata: tuple[Stratum, ...]
    orbifold_order: int
    orbifold_order_source: str
    registry_reference_order: int | None
    torsion: str
    smale_k: int | None
    diffeomorphism_type: str | None
    se_status: str
    registry_tag: str | None
    registry_citation: str | None
    assumptions: tuple[str, ...]
    notes: tuple[str, ...]


def _weight_rows(r) -> list:
    """(name, got, want) of each row that reads only weight-derived fields, from r by
    InvariantReport names: a report's fields, or _weight_facts' as it builds them."""
    d, b2 = r["divisor"], r["b2_divisor"]
    rows = [
        ("b2 routes", (middle_betti(d), b2), (r["b2_hodge"],) * 2),
        ("divisor degree vs milnor number", sum(j * a for j, a in d), r["milnor_number"]),
        ("expanded vs factored Delta(t) mod P", r["expanded"].residue, factored_residue(d)),
    ]
    if r["fano"].is_fano:
        rows.append(("signature vs 1 - b2 (Fano)", r["signature"], 1 - b2))
    return rows


def _reference_rows(order: int, ref: int | None) -> list:
    return [] if ref is None else [("orbifold order vs registry reference", order, ref)]


def _results(rows: list) -> tuple[CheckResult, ...]:
    return tuple(CheckResult(name, got == want, f"got {got}, expected {want}") for name, got, want in rows)


def _require(checks: tuple[CheckResult, ...]) -> None:
    if failures := [c for c in checks if not c.passed]:
        raise ConsistencyError("; ".join(f"{c.name}: {c.detail}" for c in failures))


def cross_checks(report: InvariantReport) -> tuple[CheckResult, ...]:
    """Recompute every two-route quantity from the report's own fields.  analyze runs
    the weight-only rows once per facts build and the registry row per record."""
    rows = _weight_rows(vars(report))
    return _results(rows + _reference_rows(report.orbifold_order, report.registry_reference_order))


def require_consistent(report: InvariantReport) -> None:
    _require(cross_checks(report))


def _split_variable(f: WeightedPolynomial) -> int | None:
    """Index of the unique variable occurring once, as a pure power."""
    candidates = [i for i in range(f.nvars) if [m for m in f.masks if m >> i & 1] == [1 << i]]
    return candidates[0] if len(candidates) == 1 else None


@lru_cache(maxsize=MEMO_ENTRIES)
def _weight_facts(w: WeightSystem) -> MappingProxyType:
    """The report fields that read only the weights (Milnor-Orlik), by their
    InvariantReport names, once per canonical system: mu, Delta(t) as divisor, checked
    by its character, and expansion, the Fano record and the Hodge data (p_g, b2 -
    2 p_g, p_g) with the signature 1 + 2 h^{0,2} - h^{1,1}, all checked by _weight_rows.
    No P(t) is built, so an entry grows with mu, not with T.  The mapping is read-only,
    and a refused system is not cached (analyze refuses an ill-formed space first)."""
    stage = "characteristic divisor"
    try:
        divisor = characteristic_divisor(w)
        check_divisor_character(w, divisor)
        b2, mu = middle_betti(divisor), milnor_number(w)
        facts = dict(milnor_number=mu, divisor=divisor, expanded=expand(divisor), b2_divisor=b2)
        stage = "hodge numbers"
        require_polynomial_series(w)
        pg = count_monomials(w.weights, w.degree - w.total)
        h11 = b2 - 2 * pg
        facts.update(
            fano=fano(w), hodge=(((0, 2), pg), ((1, 1), h11), ((2, 0), pg)),
            b2_hodge=pg + h11 + pg, signature=1 + 2 * pg - h11,
        )
        stage = "cross checks"
        _require(_results(_weight_rows(facts)))
    except SinglinkError as exc:
        exc.args = (f"[stage: {stage}] {exc}",) + exc.args[1:]
        raise
    return MappingProxyType(facts)


def analyze(
    f: WeightedPolynomial,
    *,
    registry: tuple[RegistryEntry, ...] = BUILTIN_REGISTRY,
) -> InvariantReport:
    """Full invariant report for a four-variable support."""
    if f.nvars != 4:
        raise WrongDimensionError(
            f"analyze covers links of surface singularities (4 variables), got {f.nvars}"
        )
    f, permutation = _canonicalize(f)
    w, support = f.system, f.sorted_support

    assumptions = (
        "coefficients are assumed generic: incidence decisions use only the support",
    )

    stage = "flags"
    try:
        failure = quasi_smooth_failure(f)
        stage = "milnor number"
        mu = milnor_number(w)
        if mu > MAX_MU:
            raise BoundExceededError(f"Milnor number {brief(mu)} exceeds the analyze ceiling {MAX_MU}")
        stage = "strata"
        strata = singular_strata(f)
        pwf = pair_well_formed(strata, f.nvars)
        order = orbifold_order(strata)
        torsion = torsion_status(pwf, f.nvars)
        stage = None  # the memo labels its own refusals
        facts = (_weight_facts if mu <= MEMO_MAX_MU else _weight_facts.__wrapped__)(w)
        stage = "branch curve genus"
        genus = None
        split = _split_variable(f)
        if split is not None:
            rest = tuple(ww for i, ww in enumerate(w.weights) if i != split)
            genus = genus_branch_curve(WeightSystem(rest, w.degree))
        stage = "registry"
        entry = next((e for e in registry if (w.weights, w.degree, support) in e.key), None)
        reference_order = entry.reference_order if entry else None
        stage = "cross checks"  # the weight-only rows ran when the facts were built
        _require(_results(_reference_rows(order, reference_order)))
    except SinglinkError as exc:
        if stage is not None:
            exc.args = (f"[stage: {stage}] {exc}",) + exc.args[1:]
        raise

    notes = []
    if any(s.incidence == CONTAINED for s in strata):
        notes.append(
            "a stratum inside the hypersurface contributes its generic isotropy order; the "
            "orbifold order at special points of such a stratum is not certified"
        )
    order_source = "reference" if reference_order is not None else "derived"
    notes.append(
        "orbifold order matches the tabulated reference value" if reference_order is not None
        else "orbifold order computed from the stratum data; no tabulated reference value"
    )
    k = None if failure else smale_type(facts["b2_divisor"], torsion == TORSION_FREE)
    name = smale_name(k) if k is not None else None
    if failure:
        notes.append(
            f"the support is not quasi-smooth at {_subset_label(failure)}: the generic member is "
            "singular off the origin, so the diffeomorphism type and SE status are withheld"
        )
    elif k is None:
        notes.append(
            "torsion status unknown: any torsion in H2 occurs in pairs "
            "Z_q + Z_q, but the classification is withheld"
        )
    else:
        notes.append(
            "links of isolated hypersurface singularities are simply connected and stably "
            "parallelizable, hence spin; the connected-sum classification applies"
        )
    if k == 1:
        notes.append(
            "S²×S³ is the real Stiefel manifold V(4,2), the unit tangent "
            "bundle of the 3-sphere"
        )
    if facts["fano"].is_fano and facts["fano"].index == 1:
        notes.append("Fano index 1: a smooth join with the 3-sphere exists")
    if failure:
        status = NOT_QUASI_SMOOTH
    elif entry is not None and entry.obstructed:
        status = OBSTRUCTED
    elif entry is not None:
        status = KNOWN_SE
        notes.append("diffeomorphism type and SE metric certified by the registry entry")
    elif not facts["fano"].is_fano:
        status = NOT_FANO
    elif pwf:
        status = CANDIDATE
    else:
        status = NOT_WELL_FORMED

    return _unchecked(
        InvariantReport,
        weights=w.weights,
        degree=w.degree,
        support=support,
        permutation=permutation,
        quasi_smooth=failure is None,
        space_well_formed=True,  # the strata stage refuses any other space
        divisibility_ok=all(w.degree % s.isotropy_order == 0 for s in strata if len(s.indices) == 2),
        pair_well_formed=pwf,
        genus=genus,
        strata=strata,
        orbifold_order=order,
        orbifold_order_source=order_source,
        registry_reference_order=reference_order,
        torsion=torsion,
        smale_k=k,
        diffeomorphism_type=name,
        se_status=status,
        registry_tag=entry.tag if entry else None,
        registry_citation=entry.citation if entry else None,
        assumptions=assumptions,
        notes=tuple(notes),
        **facts,
    )

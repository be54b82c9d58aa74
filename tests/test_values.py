"""The value classes' contract: field names in their order, repr, equality and
hashing, read-only fields, and every constructor refusal with its class and text."""

import pytest

from singlink import (
    BUILTIN_REGISTRY,
    CheckResult,
    DegenerateDegreeError,
    ExpandedPoly,
    Fano,
    InvariantReport,
    NonPositiveWeightError,
    NotNormalizedError,
    NotQuasiHomogeneousError,
    RegistryEntry,
    SinglinkError,
    Stratum,
    WeightedPolynomial,
    WeightSystem,
    WrongDimensionError,
    analyze,
    load_registry,
    quasi_degree,
    registry_dump,
)
from conftest import F60_SUPPORT, F60_WEIGHTS, clear_memos, pure_powers

FIELDS = {
    WeightSystem: ("weights", "degree"),
    WeightedPolynomial: ("support", "system"),
    ExpandedPoly: ("coefficients",),
    Fano: ("is_fano", "index"),
    Stratum: ("indices", "isotropy_order", "incidence"),
    RegistryEntry: (
        "weights", "degree", "support", "tag", "citation", "obstructed", "reference_order",
    ),
    CheckResult: ("name", "passed", "detail"),
    InvariantReport: (
        "weights", "degree", "support", "permutation", "quasi_smooth", "space_well_formed",
        "divisibility_ok", "pair_well_formed", "fano", "milnor_number", "divisor", "expanded",
        "b2_divisor", "b2_hodge", "hodge", "signature", "genus", "strata", "orbifold_order",
        "orbifold_order_source", "registry_reference_order", "torsion", "smale_k",
        "diffeomorphism_type", "se_status", "registry_tag", "registry_citation", "assumptions",
        "notes",
    ),
}


def test_each_value_class_keeps_its_field_names_in_order():
    assert {cls: cls._fields for cls in FIELDS} == FIELDS
    assert len(InvariantReport._fields) == 29


def test_reprs_are_unchanged():
    assert repr(WeightSystem([9, 15, 17, 20], 60)) == "WeightSystem(weights=(9, 15, 17, 20), degree=60)"
    assert repr(Fano(True, 1)) == "Fano(is_fano=True, index=1)"
    assert repr(Stratum([3, 1], 2, "meets")) == (
        "Stratum(indices=(1, 3), isotropy_order=2, incidence='meets')"
    )
    assert repr(BUILTIN_REGISTRY[0]).startswith(
        "RegistryEntry(weights=(9, 15, 17, 20), degree=60, support=((0, 0, 0, 3), (0, 4, 0, 0), "
        "(1, 0, 3, 0), (5, 1, 0, 0)), tag='DK-1', citation='Demailly-Koll"
    )
    assert repr(BUILTIN_REGISTRY[0]).endswith(", obstructed=False, reference_order=None)")


def _equal_pairs():
    """Two equal instances of each class, built apart."""
    clear_memos()
    first = analyze(quasi_degree(F60_SUPPORT, F60_WEIGHTS))
    clear_memos()
    second = analyze(quasi_degree(F60_SUPPORT, F60_WEIGHTS))
    return [
        (WeightSystem((9, 15, 17, 20), 60), WeightSystem([9, 15, 17, 20], 60)),
        (quasi_degree(F60_SUPPORT, F60_WEIGHTS),
         WeightedPolynomial(list(F60_SUPPORT), WeightSystem(F60_WEIGHTS, 60))),
        (ExpandedPoly((-1, 0, 1)), ExpandedPoly([-1, 0, 1])),
        (Fano(True, 1), Fano(is_fano=True, index=1)),
        (Stratum((1, 3), 5, "meets"), Stratum([3, 1], 5, "meets")),
        (BUILTIN_REGISTRY[0], load_registry(registry_dump())[0]),
        (CheckResult("b2 routes", True, "got 2, expected 2"),
         CheckResult("b2 routes", True, "got 2, expected 2")),
        (first, second),
    ]


def test_equal_values_have_equal_hashes():
    pairs = _equal_pairs()
    assert [type(a) for a, _ in pairs] == list(FIELDS)
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b), type(a).__name__
    assert pairs[-1][0].expanded is not pairs[-1][1].expanded


def test_assigning_to_a_field_raises_attribute_error():
    for value, _ in _equal_pairs():
        for name in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))


_DK1 = dict(
    weights=(9, 15, 17, 20), degree=60, support=F60_SUPPORT, tag="DK-1", citation="a citation"
)
_QUINTIC = dict(
    _DK1, weights=(1, 1, 1, 1), degree=5, tag="quintic",
    support=tuple(pure_powers((5,) * 4)),
)

REFUSALS = [
    (WeightSystem, ((9.0, 15), 60), TypeError, "weights must be of type int; 9.0 is a float"),
    (WeightSystem, ((True, 1), 2), TypeError, "weights must be of type int; True is a bool"),
    (WeightSystem, ((), 3), NonPositiveWeightError, "empty weight sequence"),
    (WeightSystem, ((0, 1), 3), NonPositiveWeightError, "weight 0 is not positive"),
    (WeightSystem, ((2, 4), 3), NotNormalizedError, "weights are not normalized: gcd = 2"),
    (WeightSystem, ((2, 4), 0.5), NotNormalizedError, "weights are not normalized: gcd = 2"),
    (WeightSystem, ((1, 1), 2.0), TypeError, "the degree must be of type int; 2.0 is a float"),
    (WeightSystem, ((1, 1), 0), DegenerateDegreeError, "degree 0 is not positive"),
    (WeightSystem, ((1, 1), -3), DegenerateDegreeError, "degree -3 is not positive"),
    (ExpandedPoly, ((),), ValueError, "leading coefficient must be nonzero"),
    (ExpandedPoly, ((1, 0),), ValueError, "leading coefficient must be nonzero"),
    (ExpandedPoly, ((1.0, 1),), TypeError, "coefficients must be of type int; 1.0 is a float"),
    (ExpandedPoly, ((True,),), TypeError, "coefficients must be of type int; True is a bool"),
    (Stratum, ((1.0,), 2, "meets"), TypeError, "stratum indices must be of type int; 1.0 is a float"),
    (Stratum, ((0,), 2.0, "meets"), TypeError,
     "the isotropy order must be of type int; 2.0 is a float"),
    (Stratum, ((0, 1), True, "meets"), TypeError,
     "the isotropy order must be of type int; True is a bool"),
    (Stratum, ((0,), 1, "meets"), ValueError, "strata are listed only for isotropy order > 1"),
    (Stratum, ((0,), 2, "inside"), ValueError, "unknown incidence 'inside'"),
]

# (fields replaced in DK-1, error, text), in the order the checks run
REGISTRY_REFUSALS = [
    (dict(weights=(9, 15, 17, 20, 1), tag=5), WrongDimensionError,
     "a registry entry has 4 variables, not 5"),
    (dict(tag=5, weights=(9.0, 15, 17, 20)), TypeError, "tag must be a str, not 5"),
    (dict(citation=None), TypeError, "citation must be a str, not None"),
    (dict(obstructed=0), TypeError, "obstructed must be a bool, not 0"),
    (dict(obstructed="false"), TypeError, "obstructed must be a bool, not 'false'"),
    (dict(weights=(9.0, 15, 17, 20)), TypeError, "weights must be of type int; 9.0 is a float"),
    (dict(weights=(0, 15, 17, 20)), NonPositiveWeightError, "weight 0 is not positive"),
    (dict(weights=(18, 30, 34, 40)), NotNormalizedError, "weights are not normalized: gcd = 2"),
    (dict(reference_order=-1, support=((5.0, 1, 0, 0),)), TypeError,
     "exponents must be of type int; 5.0 is a float"),
    (dict(reference_order=765.0), TypeError,
     "the reference orbifold order must be of type int; 765.0 is a float"),
    (dict(reference_order=0), ValueError, "the reference orbifold order 0 is not positive"),
    (dict(degree=60.0), TypeError, "the degree must be of type int; 60.0 is a float"),
    (dict(degree=0), DegenerateDegreeError, "degree 0 is not positive"),
    (dict(degree=61), NotQuasiHomogeneousError,
     "monomials have weighted degrees 60; the stated degree is 61"),
    (dict(support=F60_SUPPORT[:3], obstructed=True), SinglinkError,
     "registry entry DK-1 is not quasi-smooth at {z3}"),
]


@pytest.mark.parametrize("cls, args, error, text", REFUSALS)
def test_constructor_refusals_keep_their_class_and_text(cls, args, error, text):
    with pytest.raises(error) as err:
        cls(*args)
    assert type(err.value) is error and str(err.value) == text


@pytest.mark.parametrize("fields, error, text", REGISTRY_REFUSALS)
def test_registry_entry_refusals_keep_their_class_and_text(fields, error, text):
    with pytest.raises(error) as err:
        RegistryEntry(**{**_DK1, **fields})
    assert type(err.value) is error and str(err.value) == text


def test_a_registry_entry_claiming_se_must_be_a_well_formed_fano_pair():
    with pytest.raises(SinglinkError) as err:
        RegistryEntry(**_QUINTIC)
    assert str(err.value) == (
        "registry entry quintic claims an SE metric but is not a well-formed Fano pair"
    )
    entry = RegistryEntry(**_QUINTIC, obstructed=True)
    assert entry.support == tuple(sorted(_QUINTIC["support"])) and entry.reference_order is None


def test_replace_skips_the_checks_that_the_constructor_runs():
    entry = RegistryEntry(**_QUINTIC, obstructed=True)
    claimed = entry._replace(obstructed=False)  # unchecked: a library caller's responsibility
    assert claimed.obstructed is False and claimed.key == entry.key
    with pytest.raises(SinglinkError) as err:
        RegistryEntry(**{**entry._asdict(), "obstructed": False})
    assert str(err.value) == (
        "registry entry quintic claims an SE metric but is not a well-formed Fano pair"
    )


def test_constructors_normalize_their_fields():
    assert WeightSystem([1, 2], 3).weights == (1, 2)
    assert ExpandedPoly([0, -1]).coefficients == (0, -1)
    assert Stratum([3, 1], 2, "meets").indices == (1, 3)
    entry = RegistryEntry(**{**_DK1, "support": [list(m) for m in F60_SUPPORT]})
    assert entry.support == tuple(sorted(F60_SUPPORT))
    assert entry == RegistryEntry(**{**_DK1, "support": F60_SUPPORT[::-1]})

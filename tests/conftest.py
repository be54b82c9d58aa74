from functools import cached_property

import pytest

from singlink import ExpandedPoly, WeightedPolynomial, analyze, quasi_degree
from singlink import classify

# The three links carried in the built-in registry, by their defining data.
F60_SUPPORT = ((5, 1, 0, 0), (1, 0, 3, 0), (0, 4, 0, 0), (0, 0, 0, 3))
F60_WEIGHTS = (9, 15, 17, 20)

F256_1_SUPPORT = ((17, 0, 1, 0), (1, 5, 0, 0), (0, 1, 3, 0), (0, 0, 0, 2))
F256_1_WEIGHTS = (11, 49, 69, 128)

F256_2_SUPPORT = ((17, 1, 0, 0), (1, 0, 3, 0), (0, 5, 1, 0), (0, 0, 0, 2))
F256_2_WEIGHTS = (13, 35, 81, 128)


def clear_memos():
    """Empty the one per-process memo analyze reads, so the next call builds each
    weight-only fact again."""
    classify._weight_facts.cache_clear()


def one_above_mu(product):
    """Wrap milnor_product so that the product it returns is mu + 1, still an
    integer: every check against mu must then fail."""

    def shifted(w):
        num, den = product(w)
        return num + den, den

    return shifted


def count_builds(monkeypatch, cls, name, record):
    """Record record(instance) for each instance whose cached property
    cls.name is computed (not read back from its memo)."""
    built = []
    compute = cls.__dict__[name].func

    def counted(self):
        built.append(record(self))
        return compute(self)

    memo = cached_property(counted)
    memo.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, memo)
    return built


def count_residue_passes(monkeypatch):
    """Record the degree of each ExpandedPoly whose residue is computed."""
    return count_builds(monkeypatch, ExpandedPoly, "residue", lambda p: p.degree)


def count_mask_builds(monkeypatch):
    """Record each WeightedPolynomial whose variable masks are computed."""
    return count_builds(monkeypatch, WeightedPolynomial, "masks", lambda f: f)


@pytest.fixture(scope="session")
def f60():
    return quasi_degree(F60_SUPPORT, F60_WEIGHTS)


@pytest.fixture(scope="session")
def f256_1():
    return quasi_degree(F256_1_SUPPORT, F256_1_WEIGHTS)


@pytest.fixture(scope="session")
def f256_2():
    return quasi_degree(F256_2_SUPPORT, F256_2_WEIGHTS)


@pytest.fixture(scope="session")
def report60(f60):
    return analyze(f60)


@pytest.fixture(scope="session")
def report256_1(f256_1):
    return analyze(f256_1)


@pytest.fixture(scope="session")
def report256_2(f256_2):
    return analyze(f256_2)


@pytest.fixture(scope="session")
def all_reports(report60, report256_1, report256_2):
    return (report60, report256_1, report256_2)

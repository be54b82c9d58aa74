"""The fixtures and builders the test modules share, each defined once: the three
registry links and their grouped Delta(t), pure-power, Fermat, Brieskorn-Pham and full
supports, relabelings, schoolbook products and call counters.  A test module imports
what it needs from here."""

import math
from functools import cached_property, reduce

import pytest

from singlink import ExpandedPoly, WeightedPolynomial, WeightSystem, analyze, quasi_degree
from singlink import classify, cli, milnor_algebra, monodromy, orbifold

# The three links carried in the built-in registry, by their defining data.
F60_SUPPORT = ((5, 1, 0, 0), (1, 0, 3, 0), (0, 4, 0, 0), (0, 0, 0, 3))
F60_WEIGHTS = (9, 15, 17, 20)

F256_1_SUPPORT = ((17, 0, 1, 0), (1, 5, 0, 0), (0, 1, 3, 0), (0, 0, 0, 2))
F256_1_WEIGHTS = (11, 49, 69, 128)

F256_2_SUPPORT = ((17, 1, 0, 0), (1, 0, 3, 0), (0, 5, 1, 0), (0, 0, 0, 2))
F256_2_WEIGHTS = (13, 35, 81, 128)


def clear_memos():
    """Empty both per-process memos, the weight facts analyze reads and the invariants
    fragments the JSON renderers splice, so the next call builds each again."""
    classify._weight_facts.cache_clear()
    cli._invariants_fragment.cache_clear()


def naive_mul(p, q):
    """The schoolbook product of two coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def naive_product(polys):
    """The schoolbook product of a list of coefficient lists."""
    return reduce(naive_mul, polys, [1])


def geometric(n):
    """1 + t + ... + t^(n-1)."""
    return [1] * n


def plus_one(n):
    """t^n + 1."""
    return [1] + [0] * (n - 1) + [1]


# Delta(t) of DK-1, and of DK-2 and DK-3, multiplied out from factors grouped by hand
GROUPED_60 = naive_product(
    [
        [-1, 1], [-1, 1],
        geometric(15), plus_one(15), plus_one(30),
        geometric(5), plus_one(5), plus_one(10),
        [1, 0, -1, 0, 1],
        [1, -1, 1],
    ]
)
GROUPED_256 = naive_product([[-1, 1]] + [plus_one(2 ** k) for k in range(1, 8)])


def full_support(weights, degree):
    """Every exponent vector of weighted degree `degree`, in lexicographic order; the
    work follows the output."""
    if len(weights) == 1:
        return [(degree // weights[0],)] if degree % weights[0] == 0 else []
    first, rest = weights[0], weights[1:]
    return [
        (a,) + tail
        for a in range(degree // first + 1)
        for tail in full_support(rest, degree - a * first)
    ]


def pure_powers(exponents):
    """The support of z0^a0 + ... + z(n-1)^a(n-1), one pure power per variable, in order."""
    n = len(exponents)
    return [tuple(a * (i == k) for i in range(n)) for k, a in enumerate(exponents)]


def fermat(d, n=4):
    """z0^d + ... + z(n-1)^d on n unit weights."""
    return quasi_degree(pure_powers((d,) * n), (1,) * n)


def brieskorn_pham_quadruples(bound, prefix=()):
    """Nondecreasing exponent quadruples, each at least 2, with prod(a_i - 1) <= bound,
    in lexicographic order."""
    if len(prefix) == 4:
        return [prefix]
    return [
        q for a in range(prefix[-1] if prefix else 2, bound + 2)
        for q in brieskorn_pham_quadruples(bound // (a - 1), prefix + (a,))
    ]


def brieskorn_pham_system(exps):
    """The weights L / a_i and the degree L = lcm(a) of z0^a0 + z1^a1 + ..."""
    big_l = math.lcm(*exps)
    return WeightSystem(tuple(big_l // a for a in exps), big_l)


def relabeled(support, weights, perm):
    """The polynomial with variable i renamed to the position of i in perm."""
    return quasi_degree(
        [tuple(m[i] for i in perm) for m in support], tuple(weights[i] for i in perm)
    )


def count_calls(monkeypatch, holder, *names, record=None):
    """Record the name of each call of holder.<name>, patched in holder and wherever
    classify, milnor_algebra, monodromy or orbifold binds the same function.  With record,
    record(name, args, result) takes the name's place once the call returns; a call that
    raises keeps its name."""
    calls = []
    for name in names:
        original = getattr(holder, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            at = len(calls)
            calls.append(_name)
            result = _original(*args, **kwargs)
            if record is not None:
                calls[at] = record(_name, args, result)
            return result

        for module in (holder, classify, milnor_algebra, monodromy, orbifold):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


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

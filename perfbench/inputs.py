"""Seeded inputs for the four workloads.

The same seed always gives the same inputs.  The seed picks the catalog's
labelings and their order; the Fermat ladder, the scan and the oracle
quadruples do not depend on it.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from pathlib import Path

from singlink import weights as sl_weights

COPIES = 3  # labelings per class in the catalog
EXPONENTS = range(2, 7)
FERMAT_DEGREES = (6, 8, 10, 11)
# (max weight, number of variables): the 4-variable integer fast path, then
# the generic Fraction-based enumerator.
SCAN_PARTS = ((96, 4), (24, 5))
ORACLE_DEGREE_BOUND = 300

# Block shapes of an invertible polynomial in 4 variables: one kind per
# block, a Fermat block having one variable and a chain or loop at least two.
SHAPES = (
    (("fermat", 1),) * 4,
    (("chain", 2), ("fermat", 1), ("fermat", 1)),
    (("loop", 2), ("fermat", 1), ("fermat", 1)),
    (("chain", 2), ("chain", 2)),
    (("chain", 2), ("loop", 2)),
    (("loop", 2), ("loop", 2)),
    (("chain", 3), ("fermat", 1)),
    (("loop", 3), ("fermat", 1)),
    (("chain", 4),),
    (("loop", 4),),
)


def exponent_rows(shape, exponents) -> list[tuple[int, ...]]:
    """One monomial per variable: z_i^a_i, times z_{i+1} inside chains and loops."""
    rows = []
    start = 0
    it = iter(exponents)
    for kind, size in shape:
        block = list(range(start, start + size))
        start += size
        for pos, var in enumerate(block):
            row = [0] * 4
            row[var] = next(it)
            if kind == "chain" and pos < size - 1:
                row[block[pos + 1]] = 1
            elif kind == "loop":
                row[block[(pos + 1) % size]] = 1
            rows.append(tuple(row))
    return rows


def solve_weights(rows) -> tuple[tuple[int, ...], int] | None:
    """Exact q with rows . q = 1, returned as integer weights and degree.

    None when the weights share a factor, so no normalized system exists.
    """
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(1)] for row in rows]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col] / m[col][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    q = [m[i][n] / m[i][i] for i in range(n)]
    degree = math.lcm(*(x.denominator for x in q))
    weights = tuple(int(x * degree) for x in q)
    if math.gcd(*weights) != 1:
        return None
    return weights, degree


def poly_text(support, rng: random.Random) -> str:
    monomials = list(support)
    rng.shuffle(monomials)
    terms = []
    for m in monomials:
        factors = [f"z{i}^{a}" if a > 1 else f"z{i}" for i, a in enumerate(m) if a]
        terms.append("*".join(factors))
    return " + ".join(terms)


def golden_records(root: Path) -> list[tuple[str, dict, frozenset]]:
    """The DK-1..DK-3 inputs, read from the golden reports they must reproduce.

    Each item is the golden text, the batch record and its monomial support.
    """
    out = []
    for name in ("report_dk1.json", "report_dk2.json", "report_dk3.json"):
        text = (root / "tests" / "golden" / name).read_text(encoding="utf-8")
        data = json.loads(text)["input"]
        record = {
            "weights": data["weights"],
            "degree": data["degree"],
            "poly": data["polynomial"],
        }
        out.append((text, record, frozenset(tuple(m) for m in data["support"])))
    return out


def _relabel(weights, degree, rows, perm) -> tuple:
    new_weights = [0] * 4
    for old, new in enumerate(perm):
        new_weights[new] = weights[old]
    support = []
    for row in rows:
        mono = [0] * 4
        for old, new in enumerate(perm):
            mono[new] = row[old]
        support.append(tuple(mono))
    return tuple(new_weights), degree, tuple(sorted(support))


@lru_cache(maxsize=None)
def invertible_classes() -> tuple[tuple[tuple, ...], ...]:
    """Every invertible polynomial in 4 variables with exponents in EXPONENTS
    whose weights are normalized and whose weighted projective space is well
    formed (the pipeline's input precondition, not an outcome filter).

    One entry per class up to relabeling, listing its distinct labelings
    (weights, degree, sorted support) in sorted order.
    """
    classes: dict[tuple, set] = {}
    for shape in SHAPES:
        for exponents in product(EXPONENTS, repeat=4):
            rows = exponent_rows(shape, exponents)
            solved = solve_weights(rows)
            if solved is None:
                continue
            weights, degree = solved
            if not sl_weights.is_well_formed_space(sl_weights.WeightSystem(weights, degree)):
                continue
            labelings = {_relabel(weights, degree, rows, p) for p in permutations(range(4))}
            classes[min(labelings)] = labelings
    return tuple(tuple(sorted(labelings)) for _, labelings in sorted(classes.items()))


def catalog_records(seed: int, root: Path) -> list[dict]:
    """DK-1..DK-3, then COPIES seeded labelings of every invertible class.

    Every class is in every catalog, as often for each seed (fewer times only
    when it has fewer labelings), so which weight systems repeat and how
    heavy the slowest records are does not depend on the seed; the seed
    draws the labelings, the order of the records and of their monomials.
    """
    rng = random.Random(seed)
    golden = golden_records(root)
    taken = {
        (tuple(r["weights"]), r["degree"], tuple(sorted(support))) for _, r, support in golden
    }
    drawn = []
    for labelings in invertible_classes():
        free = [x for x in labelings if x not in taken]
        drawn += rng.sample(free, min(COPIES, len(free)))
    rng.shuffle(drawn)
    return [record for _, record, _ in golden] + [
        {"weights": list(w), "degree": d, "poly": poly_text(support, rng)}
        for w, d, support in drawn
    ]


def write_catalog(records: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def distinct_weight_systems(records: list[dict]) -> int:
    return len({(tuple(sorted(r["weights"])), r["degree"]) for r in records})


def bp_tuples(bound: int = ORACLE_DEGREE_BOUND) -> list[tuple[int, ...]]:
    """Nondecreasing exponent quadruples a_i >= 2 with prod(a_i - 1) <= bound.

    The order is fixed: bp_oracle caches cyclotomic polynomials, so the
    first quadruple that needs one pays for it, and the order of the
    exponents sets the order of the divisor products.
    """
    out = []

    def extend(prefix, low, prod):
        if len(prefix) == 4:
            out.append(tuple(prefix))
            return
        a = low
        while prod * (a - 1) <= bound:
            extend(prefix + [a], a, prod * (a - 1))
            a += 1

    extend([], 2, 1)
    return out

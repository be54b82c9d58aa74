"""Command line interface and report rendering.

Subcommands:

  analyze   one polynomial, full report (text or JSON)
  batch     line-delimited JSON records in, one JSON report per line out
  scan      enumerate normalized well-formed Fano weight systems
  registry  print the active result registry as line-delimited JSON

Exit codes: 0 success, 1 invalid input, 2 consistency failure (two routes
to the same quantity disagreed), 3 I/O failure.

JSON reports keep a fixed key order so that loading and re-dumping an
emitted report is byte-identical.  Integers that can outgrow 53 bits
(the Milnor number, expanded characteristic-polynomial coefficients) are
always duplicated as decimal strings under a ``_str`` key; the plain
numeric key is present only while every value fits in 53 bits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import warnings
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .classify import (
    BUILTIN_REGISTRY,
    MEMO_ENTRIES,
    MEMO_MAX_MU,
    InvariantReport,
    RegistryEntry,
    analyze,
    load_registry,
    registry_dump,
)
from .divisor import Divisor
from .errors import (
    BoundExceededError,
    CancelledMonomialError,
    ConsistencyError,
    DuplicateMonomialWarning,
    PolynomialSyntaxError,
    SinglinkError,
)
from .monodromy import milnor_orlik_terms
from .weights import (
    Exponents,
    WeightedPolynomial,
    WeightSystem,
    quasi_degree,
    require_ints,
)

SCAN_MAX_WEIGHT_CEILING = 512
SCAN_MAX_VARS = 100

_JSON_SAFE = 1 << 53

# the report fields the invariants block reads, all but the genus
_weight_only_fields = attrgetter(
    "milnor_number", "divisor", "expanded", "b2_divisor", "b2_hodge", "hodge", "signature"
)


# -- polynomial expressions ----------------------------------------------

# Every non-space character matches, so finditer skips exactly the
# whitespace; the last group catches what the grammar cannot use.
_TOKEN = re.compile(r"(\d+)|z(\d+)|([-+*^])|(\S)")


def _tokenize(text: str) -> Iterator[tuple[str, object, int]]:
    for match in _TOKEN.finditer(text):
        number, index, op, other = match.groups()
        pos = match.start()
        if op:
            yield op, op, pos
        elif other == "z":
            raise PolynomialSyntaxError("variable needs an index, like z0", pos)
        elif other:
            raise PolynomialSyntaxError(f"unexpected character {other!r}", pos)
        else:
            try:
                value = int(number or index)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise PolynomialSyntaxError("integer has too many digits", pos) from None
            yield ("int" if number else "var"), value, pos


def parse_polynomial(text: str, nvars: int | None = None) -> frozenset[Exponents]:
    """Parse a sum of monomials over variables z0..zN into a support set.

    Coefficients are accepted and only their signs and cancellations
    matter: duplicate monomials merge with a warning, and a monomial whose
    merged coefficient is zero is an error, since supports are assumed
    generic.  Without ``nvars`` the width is one past the largest index,
    at most ``SCAN_MAX_VARS``; a wider ``nvars`` is refused.
    """
    if nvars is not None and nvars > SCAN_MAX_VARS:  # each term would get a vector that wide
        raise BoundExceededError(f"{nvars} variables exceed the ceiling {SCAN_MAX_VARS}")
    tokens = list(_tokenize(text))
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial", 0)
    tokens.append(("end", None, tokens[-1][2]))

    terms: list[tuple[dict[int, int], int, int]] = []
    pos = 0
    while tokens[pos][0] != "end":
        coefficient = 1
        while tokens[pos][0] in ("+", "-"):
            coefficient *= -1 if tokens[pos][0] == "-" else 1
            pos += 1
        kind, _, term_pos = tokens[pos]
        if kind == "end":
            raise PolynomialSyntaxError("dangling sign at the end of the expression", term_pos)
        if kind == "^":
            raise PolynomialSyntaxError("expected a term", term_pos)
        exponents: dict[int, int] = {}
        while True:
            kind, value, _ = tokens[pos]
            if kind == "int":
                coefficient *= value
            elif kind == "var":
                power = 1
                if tokens[pos + 1][0] == "^":
                    kind, power, where = tokens[pos + 2]
                    if kind != "int":
                        raise PolynomialSyntaxError("'^' needs an integer exponent", where)
                    pos += 2
                exponents[value] = exponents.get(value, 0) + power
            elif kind != "*":
                break
            elif tokens[pos + 1][0] not in ("int", "var"):
                raise PolynomialSyntaxError("'*' needs a following factor", tokens[pos + 1][2])
            pos += 1
        terms.append((exponents, coefficient, term_pos))

    width = nvars
    if width is None:
        width = min(1 + max((i for e, _, _ in terms for i in e), default=-1), SCAN_MAX_VARS)
    merged: dict[Exponents, int] = {}
    duplicated = False
    for exponents, coefficient, term_pos in terms:
        for index in exponents:
            if index >= width:
                raise PolynomialSyntaxError(
                    f"variable z{index} is out of range for {width} variables", term_pos
                )
        vector = tuple(exponents.get(i, 0) for i in range(width))
        if vector in merged:
            duplicated = True
        merged[vector] = merged.get(vector, 0) + coefficient
    cancelled = sorted(v for v, c in merged.items() if c == 0)
    if cancelled:
        raise CancelledMonomialError(
            f"coefficients cancel the monomials {cancelled}; supports must be generic"
        )
    if duplicated:
        warnings.warn("duplicate monomials were merged", DuplicateMonomialWarning)
    return frozenset(merged)


def render_polynomial(support: Iterable[Sequence[int]]) -> str:
    """Canonical text form: monomials in descending lexicographic order."""
    vectors = sorted({require_ints(m, "exponents") for m in support}, reverse=True)
    if not vectors:
        return "0"
    parts = []
    for m in vectors:
        if min(m, default=0) < 0:
            raise ValueError(f"monomial {m} has a negative exponent")
        factors = [
            f"z{i}^{a}" if a > 1 else f"z{i}" for i, a in enumerate(m) if a > 0
        ]
        parts.append("*".join(factors) if factors else "1")
    return " + ".join(parts)


# -- report rendering ------------------------------------------------------

def _decimals(key: str, values: Sequence[int]) -> list[str]:
    try:
        return [str(v) for v in values]
    except ValueError:  # past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise BoundExceededError(f"{key} exceeds the int -> str limit of {limit} digits") from None


def _big_int(out: dict, key: str, value: int) -> None:
    if abs(value) < _JSON_SAFE:
        out[key] = value
    out[key + "_str"] = _decimals(key, [value])[0]


def _big_int_list(out: dict, key: str, values: Sequence[int]) -> None:
    if all(abs(v) < _JSON_SAFE for v in values):
        out[key] = list(values)
    out[key + "_str"] = _decimals(key, values)


def _divisor_terms(divisor: Divisor) -> list[list[int]]:
    return [[j, a] for j, a in reversed(divisor)]


def _divisor_pretty(divisor: Divisor) -> str:
    """sum a_j Lambda_j with the unit split out, largest j first.

    Example: "Λ60 + Λ20 + Λ12 - Λ4 - Λ3 + 1".
    """
    out = ""
    for j, a in reversed(divisor):
        if j == 1:
            body = str(abs(a))
        elif abs(a) == 1:
            body = f"Λ{j}"
        else:
            body = f"{abs(a)}·Λ{j}"
        out += f" {'-' if a < 0 else '+'} {body}"
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else f"-{out[3:]}"


def _factored_pretty(divisor: Divisor) -> str:
    """Delta(t) = prod (t^j - 1)^{a_j} as numerator over denominator, largest j first."""

    def fmt(j: int, e: int) -> str:
        base = "(t-1)" if j == 1 else f"(t^{j}-1)"
        return base if e == 1 else f"{base}^{e}"

    terms = _divisor_terms(divisor)
    top = "".join(fmt(j, e) for j, e in terms if e > 0) or "1"
    den = "".join(fmt(j, -e) for j, e in terms if e < 0)
    return f"{top} / {den}" if den else top


def _weight_only_invariants(mu, divisor, expanded, b2_divisor, b2_hodge, hodge, signature) -> dict:
    invariants: dict = {}
    _big_int(invariants, "milnor_number", mu)
    invariants["characteristic_divisor"] = _divisor_pretty(divisor)
    invariants["divisor_terms"] = _divisor_terms(divisor)
    invariants["factored"] = [list(pair) for pair in divisor]
    invariants["factored_pretty"] = _factored_pretty(divisor)
    invariants["expanded_degree"] = expanded.degree
    _big_int_list(invariants, "expanded_coefficients", expanded.coefficients)
    invariants["b2_divisor"] = b2_divisor
    invariants["b2_hodge"] = b2_hodge
    invariants["hodge_numbers"] = {f"h^{{{i},{j}}}": value for (i, j), value in hodge}
    invariants["signature"] = signature
    return invariants


@lru_cache(maxsize=MEMO_ENTRIES, typed=True)
def _invariants_fragment(*fields) -> str:
    """_weight_only_invariants(*fields) in line form, without its braces."""
    return json.dumps(_weight_only_invariants(*fields), ensure_ascii=False)[1:-1]


def report_to_json_dict(report: InvariantReport) -> dict:
    invariants = {**_weight_only_invariants(*_weight_only_fields(report)), "genus": report.genus}
    return _report_dict(report, invariants)


def _report_dict(report: InvariantReport, invariants: dict) -> dict:
    return {
        "input": {
            "weights": list(report.weights),
            "degree": report.degree,
            "polynomial": render_polynomial(report.support),
            "support": [list(m) for m in report.support],
            "permutation": list(report.permutation),
        },
        "flags": {
            "quasi_smooth": report.quasi_smooth,
            "space_well_formed": report.space_well_formed,
            "divisibility_ok": report.divisibility_ok,
            "pair_well_formed": report.pair_well_formed,
            "fano": report.fano.is_fano,
            "fano_index": report.fano.index,
        },
        "invariants": invariants,
        "strata": [
            {
                "indices": list(s.indices),
                "isotropy_order": s.isotropy_order,
                "incidence": s.incidence,
            }
            for s in report.strata
        ],
        "classification": {
            "orbifold_order": report.orbifold_order,
            "torsion": report.torsion,
            "smale_k": report.smale_k,
            "diffeomorphism_type": report.diffeomorphism_type,
            "se_status": report.se_status,
            "registry_tag": report.registry_tag,
            "registry_citation": report.registry_citation,
        },
        "provenance": {
            "orbifold_order_source": report.orbifold_order_source,
            "assumptions": list(report.assumptions),
            "notes": list(report.notes),
        },
    }


def render_json(report: InvariantReport) -> str:
    return json.dumps(report_to_json_dict(report), indent=2, ensure_ascii=False) + "\n"


def render_json_line(report: InvariantReport) -> str:
    """json.dumps(report_to_json_dict(report), ensure_ascii=False), with the weight-only
    invariants serialized once per distinct value and spliced in before the genus (no
    string before the "invariants" key can hold a quote, so its first match is the key)."""
    fragment = (
        _invariants_fragment if report.milnor_number <= MEMO_MAX_MU
        else _invariants_fragment.__wrapped__
    )(*_weight_only_fields(report))
    line = json.dumps(_report_dict(report, {"genus": report.genus}), ensure_ascii=False)
    return line.replace('"invariants": {', f'"invariants": {{{fragment}, ', 1)


def render_text(report: InvariantReport) -> str:
    flags = ["quasi-smooth" if report.quasi_smooth else "not quasi-smooth"]
    flags += [
        name
        for name, value in (
            ("space well formed", report.space_well_formed),
            ("divisibility ok", report.divisibility_ok),
            ("pair well formed", report.pair_well_formed),
        )
        if value
    ]
    flags.append(
        f"fano (index {report.fano.index})" if report.fano.is_fano else "not fano"
    )
    lines = [
        f"weights: ({', '.join(str(w) for w in report.weights)})  degree: {report.degree}",
        f"polynomial: {render_polynomial(report.support)}",
        f"flags: {', '.join(flags)}",
        f"Milnor number: {report.milnor_number}",
        f"characteristic divisor: {_divisor_pretty(report.divisor)}",
        f"factored: {_factored_pretty(report.divisor)}",
        f"b2: {report.b2_divisor} (divisor route), {report.b2_hodge} (Hodge route)",
        "hodge numbers: "
        + "  ".join(f"h^{{{i},{j}}} = {value}" for (i, j), value in report.hodge),
        f"signature: {report.signature}",
    ]
    if report.genus is not None:
        lines.append(f"branch curve genus: {report.genus}")
    if report.strata:
        lines.append("strata:")
        for s in report.strata:
            inside = ", ".join(f"z{i}" for i in s.indices)
            lines.append(
                f"  {{{inside}}}  order {s.isotropy_order}  {s.incidence}"
            )
    else:
        lines.append("strata: none")
    lines.append(
        f"orbifold order: {report.orbifold_order} ({report.orbifold_order_source})"
    )
    lines.append(f"torsion in H2: {report.torsion}")
    status = report.se_status
    if report.registry_tag:
        status += f" ({report.registry_tag})"
    lines.append(f"SE status: {status}")
    for note in report.assumptions + report.notes:
        lines.append(f"note: {note}")
    if report.diffeomorphism_type is not None:
        lines.append(f"diffeomorphism type: {report.diffeomorphism_type}")
    else:
        reason = "torsion status unknown" if report.quasi_smooth else "not quasi-smooth"
        lines.append(f"diffeomorphism type: undetermined ({reason})")
    return "\n".join(lines) + "\n"


# -- subcommands -----------------------------------------------------------

def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"weights must be comma-separated integers, got {text!r}"
        ) from None


def _load_registry_arg(path: str | None) -> tuple[RegistryEntry, ...]:
    if path is None:
        return BUILTIN_REGISTRY
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return load_registry(handle.read())
    except UnicodeDecodeError as exc:  # replacing the bytes could pass a corrupted tag
        raise SinglinkError(f"registry {path} is not valid UTF-8 ({exc})") from None


def _build_polynomial(
    weights: tuple[int, ...], poly: str, degree: int | None
) -> WeightedPolynomial:
    support = parse_polynomial(poly, nvars=len(weights))
    if degree is None:
        return quasi_degree(support, weights)
    return WeightedPolynomial(support, WeightSystem(weights, degree))


def _output(path: str | None):
    """The --out file, or stdout, which leaving the with block keeps open."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def run_analyze(args: argparse.Namespace) -> int:
    registry = _load_registry_arg(args.registry)
    f = _build_polynomial(args.weights, args.poly, args.degree)
    report = analyze(f, registry=registry)
    sys.stdout.write((render_json if args.format == "json" else render_text)(report))
    return 0


def run_batch(args: argparse.Namespace) -> int:
    """Analyze records as they arrive: the input is read line by line, never whole.  A byte
    that is not UTF-8 reads as U+FFFD, so only its own line is skipped or failed."""
    registry = _load_registry_arg(args.registry)
    if args.out and os.path.isfile(args.out) and os.path.samefile(args.path, args.out):
        raise SinglinkError(f"--out {args.out} is the input file; writing would truncate it")
    ok = skipped = failed = 0
    with open(args.path, encoding="utf-8", errors="replace") as lines, _output(args.out) as out:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                numbers = (*record["weights"], record["degree"])
                *weights, degree = require_ints(numbers, "weights and degree")
                poly = record["poly"]
                if not isinstance(poly, str):
                    raise TypeError(f"poly must be a string, got {poly!r}")
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                skipped += 1
                print(f"line {lineno}: skipped ({exc})", file=sys.stderr)
                continue
            try:
                f = _build_polynomial(weights, poly, degree)
                rendered = render_json_line(analyze(f, registry=registry))
            except SinglinkError as exc:
                failed += 1
                print(f"line {lineno}: failed ({exc})", file=sys.stderr)
                continue
            out.write(rendered + "\n")
            ok += 1
    print(f"ok={ok} skipped={skipped} failed={failed}", file=sys.stderr)
    return 0


def _row_mu_b2(ws: tuple[int, ...], degree: int) -> tuple[int | None, int | None]:
    """Milnor number and divisor-route b2, null when not integral.

    Integer-only fast path of the main pipeline: the Milnor product is an inline
    divmod, since monodromy.milnor_product and the WeightSystem it takes, per
    row, more than double scan's time; the divisor is milnor_orlik_terms's.
    Scan calls it only where the last weight l divides K = (d - l) * prod(d - l - w)
    over the other weights w, since K = prod(d - w) mod l and l | prod(w).
    """
    mu, rest = divmod(math.prod(degree - w for w in ws), math.prod(ws))
    if degree <= max(ws) or rest:
        return None, None
    terms, scale = milnor_orlik_terms(ws, degree)
    if any(c % scale for c in terms.values()):
        return mu, None
    return mu, sum(terms.values()) // scale


def _prefixes(max_weight: int, length: int, prefix: tuple, g: int, big_l: int, big_m: int):
    """Nondecreasing tuples P of `length` weights with gcd 1, lexicographic, with
    L and M: the lcm of the gcds left by deleting one, and two, weights of P
    (for P = (): gcd() = 0, lcm() = 1).  A deletion keeps or drops an appended
    w, so L becomes lcm(gcd(L, w), g) and M becomes lcm(gcd(M, w), L)."""
    gcd, lcm = math.gcd, math.lcm
    for w in range(prefix[-1] if prefix else 1, max_weight + 1):
        grown = (prefix + (w,), gcd(g, w), lcm(gcd(big_l, w), g), lcm(gcd(big_m, w), big_l))
        if len(prefix) + 1 < length:
            yield from _prefixes(max_weight, length, *grown)
        elif grown[1] == 1:
            yield grown[0], grown[2], grown[3]


def _scan_walk(max_weight: int, index: int, nvars: int) -> Iterator[dict]:
    for prefix, big_l, big_m in _prefixes(max_weight, nvars - 1, (), 0, 1, 1):
        base = sum(prefix) - index
        lo = max(prefix[-1], 1 - base)
        if big_l:
            if math.gcd(big_l, base) != 1:
                continue
            lasts = range(lo + (-base - lo) % big_l, max_weight + 1, big_l)
        else:  # two variables: deleting the first weight leaves the last alone
            lasts = range(lo, 2)
        residue = base * math.prod(base - w for w in prefix)  # = prod(d - w) mod last
        for last in lasts:
            if base % math.gcd(big_m, last) == 0:
                mu = b2 = None
                if residue % last == 0:
                    mu, b2 = _row_mu_b2(prefix + (last,), base + last)
                yield {"weights": [*prefix, last], "degree": base + last, "milnor_number": mu, "b2_divisor": b2}


def scan_rows(
    max_weight: int, index: int = 1, nvars: int = 4
) -> Iterator[dict]:
    """Normalized, space-well-formed weight systems with d = |w| - index.

    Weights are enumerated in nondecreasing order (one representative per
    relabeling class), rows sorted lexicographically.  Rows whose Milnor
    product is not a positive integer, or whose divisor is not integral,
    carry null in those fields.

    Every prefix P of nvars - 1 weights with gcd 1 (deleting the last weight
    w) is tested once through L and M, the lcm of the gcds left by deleting
    one, and two, weights of P; the pruning is exact because gcd(lcm(a, b), w)
    = lcm(gcd(a, w), gcd(b, w)).  So the delete-one gcds that keep w are all 1
    iff gcd(L, w) = 1, and the delete-two gcds without w all divide d iff L | d,
    which fixes w modulo L and turns gcd(L, w) into gcd(L, |P| - index).  A
    delete-two gcd that keeps w divides w, hence divides d iff it divides
    |P| - index: for all of them iff gcd(M, w) does.

    One residue per prefix decides most Milnor numbers: d = base + w with base
    = |P| - index, so prod(d - w_i) = K_P = base * prod(base - p), p in P,
    modulo the last weight w, which divides prod(w_i).  Only rows with w | K_P
    reach _row_mu_b2; the others have no integral mu.

    A non-null mu and b2 do not certify an isolated singularity: at max weight
    128, 25 of the 78 rows with a b2, e.g. (2, 3, 13, 35) at d = 52, have a
    Poincare product that is not a polynomial, so no support is quasi-smooth.

    No scan walks more nondecreasing tuples than the largest 4-variable one.
    """
    if max_weight > SCAN_MAX_WEIGHT_CEILING:
        raise BoundExceededError(
            f"max weight {max_weight} exceeds the scan ceiling {SCAN_MAX_WEIGHT_CEILING}"
        )
    if max_weight < 1:
        raise BoundExceededError("max weight must be at least 1")
    if nvars < 2:
        raise BoundExceededError("scan needs at least 2 variables")
    if nvars > SCAN_MAX_VARS:
        raise BoundExceededError(f"{nvars} variables exceed the scan ceiling {SCAN_MAX_VARS}")
    tuples = math.comb(max_weight + nvars - 1, nvars)
    ceiling = math.comb(SCAN_MAX_WEIGHT_CEILING + 3, 4)
    if tuples > ceiling:
        raise BoundExceededError(
            f"{nvars} weights up to {max_weight} give {tuples} nondecreasing tuples, "
            f"over the scan ceiling {ceiling}"
        )
    return _scan_walk(max_weight, index, nvars)


def run_scan(args: argparse.Namespace) -> int:
    with _output(args.out) as out:
        for row in scan_rows(args.max_weight, index=args.index, nvars=args.vars):
            if args.format == "text":
                mu = "-" if row["milnor_number"] is None else row["milnor_number"]
                b2 = "-" if row["b2_divisor"] is None else row["b2_divisor"]
                weights = ",".join(str(w) for w in row["weights"])
                out.write(f"w=({weights}) d={row['degree']} mu={mu} b2={b2}\n")
            else:
                out.write(json.dumps(row, ensure_ascii=False) + "\n")
    return 0


def run_registry(args: argparse.Namespace) -> int:
    registry = _load_registry_arg(args.registry)
    text = registry_dump(registry)
    with _output(args.out) as out:
        out.write(text)
    return 0


# -- entry point -----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the validation exit code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="singlink",
        description=(
            "Exact invariants of links of isolated weighted-homogeneous "
            "hypersurface singularities"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for one polynomial")
    p.add_argument("--weights", type=_parse_weights, required=True,
                   help="comma-separated positive integers, e.g. 9,15,17,20")
    p.add_argument("--poly", required=True,
                   help="polynomial over z0..zN, e.g. 'z0^5*z1 + z0*z2^3 + z1^4 + z3^3'")
    p.add_argument("--degree", type=int, default=None,
                   help="weighted degree; inferred from the monomials when omitted")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--registry", default=None, metavar="PATH",
                   help="line-delimited JSON registry replacing the built-in one")
    p.set_defaults(func=run_analyze)

    p = sub.add_parser("batch", help="analyze line-delimited JSON records")
    p.add_argument("path", help="input file, one {weights, degree, poly} record per line")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write reports here instead of stdout")
    p.add_argument("--registry", default=None, metavar="PATH")
    p.set_defaults(func=run_batch)

    p = sub.add_parser("scan", help="enumerate candidate Fano weight systems", description=(
        "Enumerate well-formed weight systems with d = |w| - index. mu and b2 come from the "
        "weights alone: a non-null row does not certify an isolated singularity."))
    p.add_argument("--max-weight", type=int, required=True,
                   help=f"largest weight to try (ceiling {SCAN_MAX_WEIGHT_CEILING})")
    p.add_argument("--index", type=int, default=1, help="Fano index |w| - d")
    p.add_argument("--vars", type=int, default=4,
                   help=f"number of variables (ceiling {SCAN_MAX_VARS})")
    p.add_argument("--format", choices=("jsonl", "text"), default="jsonl")
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=run_scan)

    p = sub.add_parser("registry", help="print the active result registry")
    p.add_argument("--registry", default=None, metavar="PATH")
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=run_registry)

    return parser


def entry(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2
    except SinglinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(entry())

"""Outside-in tracer: times calls into singlink's public functions.

Each target function is replaced, in every loaded ``singlink.*`` namespace
that binds it, by a wrapper that records a span (name, start, end, parent
span, operation id).  Methods are replaced on their class, under every
attribute that holds the same function (``Divisor.__rmul__`` is
``__mul__``).  Nothing under ``src/`` changes, and ``restore`` puts every
original object back.  A target the package no longer defines is skipped
and reads 0 calls.

Self time is a span's duration minus the durations of the wrapped calls
made directly inside it.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from types import GeneratorType

# Layer (package module) -> wrapped functions.  "Cls.meth" is a method;
# METHOD_ATTRS names the attribute of a method reached through an operator.
TARGETS = {
    "weights": ("is_well_formed_space", "divisibility_condition", "restrict", "quasi_degree"),
    "divisor": ("Divisor.mul",),
    "monodromy": (
        "milnor_number",
        "characteristic_divisor",
        "to_factored",
        "expand",
        "middle_betti",
        "ExpandedPoly.multiplicity_at_one",
        "bp_oracle",
    ),
    "milnor_algebra": (
        "poincare_series",
        "hodge_numbers",
        "middle_betti_hodge",
        "signature",
        "genus_branch_curve",
    ),
    "orbifold": ("singular_strata", "pair_well_formed", "orbifold_order", "torsion_status"),
    "classify": ("analyze", "registry_lookup", "cross_checks"),
    "cli": ("parse_polynomial", "render_json_line", "render_json", "scan_rows"),
}

METHOD_ATTRS = {"Divisor.mul": "Divisor.__mul__"}

# Size counts, folded over the results of the wrapped functions (OBSERVERS).
SIZES = (
    "monodromy.mu_max",
    "monodromy.divisor_terms",
    "monodromy.coeff_digits_max",
    "milnor_algebra.socle_T_max",
    "cli.json_bytes",
    "cli.scan.rows",
    "cli.scan.rows_with_b2",
)


def span_names() -> list[str]:
    return [f"{m}.{t}" for m, targets in TARGETS.items() for t in targets]


def _digits(n: int) -> int:
    return len(str(abs(n)))


def _observe_mu(sizes, mu):
    sizes["monodromy.mu_max"] = max(sizes["monodromy.mu_max"], mu)


def _observe_divisor(sizes, divisor):
    sizes["monodromy.divisor_terms"] += len(divisor.support)


def _observe_expanded(sizes, expanded):
    coeffs = expanded.coefficients
    digits = _digits(max(max(coeffs), -min(coeffs)))
    sizes["monodromy.coeff_digits_max"] = max(sizes["monodromy.coeff_digits_max"], digits)


def _observe_series(sizes, series):
    top = len(series.coefficients) - 1
    sizes["milnor_algebra.socle_T_max"] = max(sizes["milnor_algebra.socle_T_max"], top)


def _observe_json(sizes, text):
    sizes["cli.json_bytes"] += len(text.encode("utf-8"))


def _observe_rows(sizes, rows):
    sizes["cli.scan.rows"] += len(rows)
    sizes["cli.scan.rows_with_b2"] += sum(1 for r in rows if r["b2_divisor"] is not None)


OBSERVERS = {
    "monodromy.milnor_number": _observe_mu,
    "monodromy.characteristic_divisor": _observe_divisor,
    "monodromy.expand": _observe_expanded,
    "milnor_algebra.poincare_series": _observe_series,
    "cli.render_json": _observe_json,
    "cli.render_json_line": _observe_json,
    "cli.scan_rows": _observe_rows,
}


class Tracer:
    """Patch on ``install``, record while active, unpatch on ``restore``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stats = {name: [0, 0.0] for name in span_names()}
        self.sizes = dict.fromkeys(SIZES, 0)
        self.op = -1
        self._active = False
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and name.split(".")[0] == "singlink"]
        for module, targets in TARGETS.items():
            home = sys.modules.get(f"singlink.{module}")
            for target in targets:
                name = f"{module}.{target}"
                if "." in target:
                    cls_name, attr = METHOD_ATTRS.get(target, target).split(".")
                    cls = getattr(home, cls_name, None)
                    original = vars(cls).get(attr) if cls is not None else None
                    holders = [cls]
                else:
                    original = getattr(home, target, None)
                    holders = namespaces
                if original is None:
                    continue
                wrapper = self._wrap(name, original, OBSERVERS.get(name))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self._patched.append((holder, key, original))
        self._active = True

    def restore(self) -> None:
        self._active = False
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        was, self._active = self._active, False
        try:
            yield
        finally:
            self._active = was

    def _wrap(self, name, fn, observe):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        stat = self.stats[name]
        sizes = self.sizes

        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            frame = [0.0, len(spans) + len(stack)]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = clock()
            lazy = False
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, GeneratorType):
                    # consume inside the span, so the span covers the work
                    result, lazy = list(result), True
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration - frame[0]
                spans.append((frame[1], name, start, end, parent, self.op))
            if observe is not None:
                observe(sizes, result)
            return iter(result) if lazy else result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, op in sorted(self.spans):
                out.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")

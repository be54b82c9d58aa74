"""The public API and the README that documents it: singlink.__all__ by name, every
value that README's Library example quotes in a comment, what its command-line
examples print, and the report keys its JSON schema section names."""

import ast
import io
import json
import re
import shlex
import tokenize
from pathlib import Path

import singlink
from singlink.cli import entry

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"

PUBLIC_API = [
    "BUILTIN_REGISTRY", "BoundExceededError", "CANDIDATE", "CONTAINED",
    "CancelledMonomialError", "CheckResult", "ConsistencyError", "DISJOINT",
    "DegenerateDegreeError", "Divisor", "DuplicateMonomialWarning", "EmptySubsetError",
    "ExpandedPoly", "Fano", "InexactDivisionError", "IntegralityViolationError",
    "InvariantReport", "KNOWN_SE", "LengthMismatchError", "MEETS", "NOT_FANO",
    "NOT_QUASI_SMOOTH", "NOT_WELL_FORMED", "NonIntegralMilnorNumberError",
    "NonPositiveWeightError", "NotNormalizedError", "NotQuasiHomogeneousError", "OBSTRUCTED",
    "PolynomialSyntaxError", "RegistryEntry", "SinglinkError", "Stratum", "TORSION_FREE",
    "TORSION_UNKNOWN", "UnsupportedDimensionError", "WeightSystem", "WeightedPolynomial",
    "WrongDimensionError", "analyze", "bp_oracle", "characteristic_divisor",
    "count_monomials", "cross_checks", "expand", "fano", "genus_branch_curve",
    "is_well_formed_space", "load_registry", "middle_betti", "milnor_number",
    "orbifold_order", "pair_well_formed", "quasi_degree", "quasi_smooth_failure",
    "registry_dump", "singular_strata", "to_factored", "validate_weights",
]


def test_the_public_api_is_its_explicit_list():
    """Adding a name to singlink or retiring one is a decision: it edits this list, and
    README states the count and names each retired name, which must stay out."""
    assert len(PUBLIC_API) == 58
    assert sorted(singlink.__all__) == PUBLIC_API
    text = README.read_text(encoding="utf-8")
    assert int(re.search(r"`singlink\.__all__`, (\d+) names", text)[1]) == len(singlink.__all__)
    block = text.split("have left it, each with what replaces it:\n\n", 1)[1].split("\n\n", 1)[0]
    retired = re.findall(r"^- `(\w+)`", block, re.M)
    assert len(retired) == 7
    assert set(retired).isdisjoint(singlink.__all__)


def library_block(text: str) -> str:
    """The first python code block under README's "## Library" heading."""
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def quoted_values(block: str) -> list[tuple[str, object, object]]:
    """(expression, value, quoted value) of each bare expression in block, run in order.

    An expression's value comment sits on its last line, or alone on the line after
    it, and is a Python literal, optionally followed by ": " and prose.  Every bare
    expression must carry one."""
    trailing, alone = {}, {}
    for tok in tokenize.generate_tokens(io.StringIO(block).readline):
        if tok.type == tokenize.COMMENT:
            where = alone if tok.line.lstrip().startswith("#") else trailing
            where[tok.start[0]] = tok.string[1:].strip()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        comment = trailing.get(stmt.end_lineno, alone.get(stmt.end_lineno + 1))
        assert comment is not None, f"line {stmt.end_lineno} of the block quotes no value"
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        checked.append((ast.unparse(stmt.value), got, ast.literal_eval(comment.split(": ", 1)[0])))
    return checked


def test_the_readme_library_example_quotes_its_values():
    """86, the DK-1 divisor, '#2(S²×S³)', the Hodge pairs, the DK-2 divisor, the genus 0
    and the orbifold order 765, each against what its expression returns."""
    checked = quoted_values(library_block(README.read_text(encoding="utf-8")))
    assert [(expr, got, want) for expr, got, want in checked if got != want] == []
    assert len(checked) == 7


def readme_commands(text: str) -> list[list[str]]:
    """The arguments of each line of README's sh blocks that runs singlink."""
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("singlink ")]


def test_the_readme_command_line_examples_print_what_it_quotes(tmp_path, monkeypatch, capsys):
    """Each singlink example exits 0 in a fresh directory whose inputs.jsonl holds DK-1:
    analyze ends with the quoted classification line, scan prints the quoted line count
    and row, and registry prints the golden table."""
    text = README.read_text(encoding="utf-8")
    ending = re.search(r"ending with the classification line\s+`([^`]+)`", text)[1]
    count, row = re.search(r"The example prints ([\d,]+) lines, among them\s+`([^`]+)`", text).groups()
    monkeypatch.chdir(tmp_path)
    dk1 = {"weights": [9, 15, 17, 20], "degree": 60, "poly": "z0^5*z1 + z0*z2^3 + z1^4 + z3^3"}
    Path("inputs.jsonl").write_text(json.dumps(dk1) + "\n", encoding="utf-8")
    printed = {}
    for argv in readme_commands(text):
        assert entry(argv) == 0, argv
        printed[argv[0]] = capsys.readouterr().out
    assert sorted(printed) == ["analyze", "batch", "registry", "scan"]
    assert printed["analyze"].endswith(f"\n{ending}\n")
    scanned = printed["scan"].splitlines()
    assert (len(scanned), scanned.count(row)) == (int(count.replace(",", "")), 1)
    assert printed["registry"] == (GOLDEN / "registry.jsonl").read_text(encoding="utf-8")
    (report,) = Path("reports.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(report)["input"]["weights"] == dk1["weights"]


def test_the_readme_json_schema_names_every_key_of_the_dk1_golden():
    """README's "JSON report schema" lists the top-level keys in order, and each section's
    bullet names that section's keys in order, the `_str` twins aside; a stratum's keys are
    the `{...}` the strata bullet quotes."""
    section = README.read_text(encoding="utf-8").split("\n## JSON report schema\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    golden = json.loads((GOLDEN / "report_dk1.json").read_text(encoding="utf-8"))
    top = re.search(r"Top-level keys, in order: (.*?)\.\n", section, re.S)[1]
    assert re.findall(r"`(\w+)`", top) == list(golden)
    bullets = dict(re.findall(r"^- `(\w+)`: (.*?)(?=^- |^\n)", section, re.M | re.S))
    assert list(bullets) == list(golden)
    for key, value in golden.items():
        named = re.findall(r"`([^`]+)`", bullets[key])
        if key == "strata":
            (fields,) = [name for name in named if name.startswith("{")]
            assert all(list(item) == fields.strip("{}").split(", ") for item in value), fields
        else:
            keys = [name for name in value if not name.endswith("_str")]
            assert [name for name in named if name in value] == keys, key

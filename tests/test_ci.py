"""CI runs Tier-1 and the checks in ci/checks.py, and nothing else in Python: the workflow
holds no inline script, and it names every check the script defines in exactly one step.
The test modules share their builders through conftest.py instead of copying them."""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_the_workflow_runs_every_check_and_no_inline_python():
    text = WORKFLOW.read_text(encoding="utf-8")
    assert "<<" not in text, "a heredoc"
    assert not re.search(r"\bpython3? +-c?\s", text), "a python -c or a script on stdin"
    spec = importlib.util.spec_from_file_location("checks", ROOT / "ci" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    steps = [line for line in text.replace("\\\n", " ").splitlines() if not line.lstrip().startswith("#")]
    calls = [found.split() for line in steps for found in re.findall(r"ci/checks\.py((?: +\w+)*)", line)]
    assert calls and all(calls), "a step runs ci/checks.py without naming its checks"
    assert sorted(name for call in calls for name in call) == sorted(checks.CHECKS)


def test_each_shared_test_builder_is_defined_in_one_file():
    """A module-level helper that two test files need lives in conftest.py, once."""
    files = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("test_"):
                files.setdefault(node.name, []).append(path.name)
    assert {name: where for name, where in files.items() if len(where) > 1} == {}

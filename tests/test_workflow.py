"""The CI workflow runs every property module in its deep step.

Read as plain text: the `ci-deep` step is the one line of the workflow that
selects that hypothesis profile, and it names each module it runs.
"""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_that_imports_hypothesis_runs_in_the_deep_step():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    deep = [line for line in workflow.splitlines() if "--hypothesis-profile ci-deep" in line]
    assert len(deep) == 1
    listed = set(re.findall(r"tests/(test_\w+\.py)", deep[0]))
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in (ROOT / "tests").glob("test_*.py")}
    properties = {name for name, text in modules.items()
                  if re.search(r"^(from|import) hypothesis\b", text, re.MULTILINE)}
    assert properties - listed == set()
    assert listed <= set(modules)

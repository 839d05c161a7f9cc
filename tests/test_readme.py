"""The README's library sketch runs as written against the installed API, and its
suite table matches the suites' honoured flags."""

import re
from pathlib import Path

from qboson_kit.suites import SUITE_FLAGS, SUITES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    section = text.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under '## Library sketch'"
    namespace = {}
    exec(compile(block.group(1), "README.md:Library sketch", "exec"), namespace)
    assert namespace["rtt"] < 1e-12


def _cell(flag, default):
    if flag == "q_squared":
        return f"`--q` (q² = {default})"
    name = "--tol" if flag == "tolerance" else f"--{flag}"
    value = ",".join(map(str, default)) if isinstance(default, tuple) else default
    return f"`{name} {value}`"


def test_suite_table_matches_code():
    section = README.read_text().split("### Suites and their flags", 1)[1]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    cells = {suite: ", ".join(_cell(f, d) for f, d in SUITE_FLAGS[suite].items())
             for suite in SUITES}
    assert rows == [f"| `{suite}` | {cells[suite]} |" for suite in SUITES]

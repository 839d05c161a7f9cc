"""The README's library sketch runs as written against the installed API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    section = text.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under '## Library sketch'"
    namespace = {}
    exec(compile(block.group(1), "README.md:Library sketch", "exec"), namespace)
    assert max(namespace["qk"].rtt_residuals(namespace["fam"]).values()) < 1e-12

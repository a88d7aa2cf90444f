"""The README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    # the first python block under the heading; its asserts carry the checks
    section = README.read_text().split("## Library sketch\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md (Library sketch)", "exec"), {})

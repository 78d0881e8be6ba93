"""The README's ```python blocks run as written, in order, in one namespace,
so the quick start cannot drift from the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run(capsys):
    assert len(BLOCKS) >= 2
    namespace = {"__name__": "readme"}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.split("\n")
    assert printed[0] == "2"  # the quick start's rho.rank

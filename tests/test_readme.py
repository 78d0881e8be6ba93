"""The README's ```python blocks run as written, in order, in one namespace,
so the quick start cannot drift from the API, and its `--config` field list
cannot drift from `CampaignConfig`."""

import re
from dataclasses import fields
from pathlib import Path

from conclab.factorization import CampaignConfig

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


def test_readme_config_fields_are_the_campaign_config_fields():
    """The `--config` example object names every `CampaignConfig` field, in
    order, and nothing else."""
    text = README.read_text(encoding="utf-8")
    start = text.index("Campaigns also accept a JSON config via `--config`")
    example = re.search(r"`(\{.*?\})`", text[start:], re.DOTALL).group(1)
    assert re.findall(r'"(\w+)":', example) == [f.name for f in fields(CampaignConfig)]

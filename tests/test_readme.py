"""The README's API session and config example work as written."""

import pathlib
import re

from holosim.cli import parse_config_file, resolve_config

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_api_session_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "CutoffTooSmall" in capsys.readouterr().out


def test_readme_config_example_parses(tmp_path):
    blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"example{i}.ini"
        path.write_text(block, encoding="utf-8")
        sections = re.findall(r"^\[(.+)\]$", block, flags=re.MULTILINE)
        assert sections
        for mode in sections:
            resolve_config(mode, parse_config_file(str(path), mode), {})

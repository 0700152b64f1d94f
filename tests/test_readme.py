"""The README's examples still run: the documented config loads and the
library example executes."""

import contextlib
import io
import json
import re
from pathlib import Path

from leostream.harness import config_from_dict

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_readme_exp_json_loads():
    config = re.search(r"cat > exp\.json <<'EOF'\n(.*?)\nEOF\n", _section("CLI"), re.S)
    exp = config_from_dict(json.loads(config.group(1)))
    assert exp.controllers == (
        "separate:mvt", "separate:mrss", "separate:mb", "joint:dual", "offline-optimal"
    )
    assert exp.repetitions == 20


def test_readme_library_example_runs():
    code = re.search(r"```python\n(.*?)```", _section("Library example"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = re.fullmatch(r"online (-?\d+\.\d+)  offline reference (-?\d+\.\d+)\n", out.getvalue())
    assert float(printed.group(1)) <= float(printed.group(2))

"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    text = README.read_text()
    section = text[text.index("## Library quickstart") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(code, str(README), "exec"), names)
    assert names["res"].decisions.shape == (4,)
    assert len(names["records"]) == 6

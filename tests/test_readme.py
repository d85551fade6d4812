"""The README's library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_python_example_runs(capsys):
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.DOTALL)
    assert blocks
    for code in blocks:
        exec(compile(code, README, "exec"), {})
    assert capsys.readouterr().out

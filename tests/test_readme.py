"""The README's Python examples run, in order, and print what they show.

Each ```python block runs in one shared namespace, as a reader pasting
them into a session would.  A line followed by a ``# <repr>`` comment is
evaluated, and its repr must equal the comment.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    text = README.read_text()
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_examples_show_their_results():
    namespace = {}
    checked = 0
    for block in python_blocks():
        lines = block.splitlines()
        pending = []
        for line, following in zip(lines, lines[1:] + [""]):
            if line.startswith("# "):
                continue
            if not following.startswith("# "):
                pending.append(line)
                continue
            exec("\n".join(pending), namespace)
            pending = []
            assert repr(eval(line, namespace)) == following[2:], line
            checked += 1
        exec("\n".join(pending), namespace)
    assert checked == sum(
        line.startswith("# ")
        for block in python_blocks()
        for line in block.splitlines()
    ) > 0

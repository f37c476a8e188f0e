"""The library example of README.md runs and prints what its comments state."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def library_example() -> str:
    """The python block under the `## Library example` heading."""
    section = README.read_text().split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_what_its_comments_state():
    code = library_example()
    # each print line states its output in a comment
    stated = [line.split("#", 1)[1].strip() for line in code.splitlines()
              if line.startswith("print(")]
    assert stated == ["A1,1 A1,3 A3,1 D6,3 U(1) 88", "168", "['A5,1 E7,3']"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == stated

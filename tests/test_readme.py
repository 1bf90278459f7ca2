"""The README's "Library in five lines" example runs and prints, line by
line, what the comment after each ``print`` says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_what_its_comments_say():
    section = README.read_text(encoding="utf-8").split("## Library in five lines", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # "print(...)  # <output>  <note>": the output ends at the first double space
    expected = [line.split("# ", 1)[1].split("  ")[0]
                for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert len(expected) == 4
    assert out.getvalue().splitlines() == expected

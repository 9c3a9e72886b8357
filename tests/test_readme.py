"""The README's "Quick taste" example runs and prints what its comments
say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_taste() -> str:
    """The python block that follows "Quick taste:" in the README."""
    after = README.read_text(encoding="utf-8").split("Quick taste:", 1)[1]
    return re.search(r"```python\n(.*?)```", after, re.S).group(1)


def test_quick_taste_prints_what_its_comments_say():
    code = quick_taste()
    # each print's comment, up to its first colon, is the line it prints
    expected = [line.split("#", 1)[1].split(":", 1)[0].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["5/6", "20", "4", "Below case=b2 m=6 p=5/6"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected

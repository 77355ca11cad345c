"""README's Library use example runs, and its comments say what it does."""

import contextlib
import inspect
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_matches_its_comments():
    """Each print line's comment is the line it prints; a comment on any
    other line names the leading parameters of the call on it."""
    code = _library_example()
    namespace: dict = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), namespace)
    expected, named = [], 0
    for line in code.splitlines():
        if "#" not in line:
            continue
        statement, comment = (part.strip() for part in line.split("#", 1))
        if statement.startswith("print("):
            expected.append(comment)
            continue
        callee = namespace[re.search(r"(\w+)\(", statement).group(1)]
        names = [name.strip() for name in comment.split(",")]
        assert list(inspect.signature(callee).parameters)[:len(names)] == names, line
        named += 1
    assert expected and named
    assert printed.getvalue().splitlines() == expected

"""The README's Library section runs as written.

Every ```python block of that section runs in one namespace, in order.  A
statement whose line ends in a comment `# <int>` must evaluate to that int,
and a statement commented `# ValueError` must raise it, so an API change
cannot leave the documented results stale.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list:
    """The source of each python block in the README's Library section."""
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def comments(source: str) -> dict:
    """Each line's comment, without its '#', by line number."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}


class _Checks(ast.NodeTransformer):
    """Turns each commented expression statement into its check."""

    def __init__(self, notes: dict):
        self.notes = notes
        self.ints = self.raises = 0

    def visit_Expr(self, node):
        note = self.notes.get(node.end_lineno, "")
        number = re.match(r"-?\d+\b", note)
        if number:
            self.ints += 1
            test = ast.Compare(node.value, [ast.Eq()], [ast.Constant(int(number[0]))])
            return ast.copy_location(ast.Assert(test, ast.Constant(note)), node)
        if note.startswith("ValueError"):
            self.raises += 1
            thunk = ast.Lambda(ast.arguments([], [], None, [], [], None, []), node.value)
            call = ast.Call(ast.Name("_raises_value_error", ast.Load()), [thunk], [])
            return ast.copy_location(ast.Expr(call), node)
        return node


def _raises_value_error(thunk):
    try:
        thunk()
    except ValueError:
        return
    raise AssertionError("no ValueError")


def test_library_examples_run_as_documented(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # an example writes report.json
    namespace = {"_raises_value_error": _raises_value_error}
    ints = raises = 0
    blocks = library_blocks()
    assert len(blocks) == 3
    for source in blocks:
        checks = _Checks(comments(source))
        tree = ast.fix_missing_locations(checks.visit(ast.parse(source)))
        exec(compile(tree, str(README), "exec"), namespace)
        ints, raises = ints + checks.ints, raises + checks.raises
    # the section's four int results and one ValueError, all checked
    assert (ints, raises) == (4, 1)

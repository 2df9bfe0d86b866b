"""Count the code lines of each module of a package, and its public names.

A code line is a source line that holds part of a token other than a
comment: blank lines, comment-only lines and docstrings (the first string
statement of a module, class or function body) are not counted, and a
statement spread over several lines counts each of them.

Usage: python tools/code_lines.py [PACKAGE_DIR]   (default: src/cbquant)

Prints one ``lines  module`` row per module, then the total and
``len(__all__)`` of the package's ``__init__.py``.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source file ``path``."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def public_names(init: Path) -> int:
    """``len(__all__)`` as assigned in ``init``."""
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return len(ast.literal_eval(node.value))
    raise SystemExit(f"{init}: no __all__")


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/cbquant")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    print(f"{public_names(package / '__init__.py'):6d}  public names")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

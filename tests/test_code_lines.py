"""``tools/code_lines.py``, the code-line counter quoted for ``src/``."""

import importlib.util
from pathlib import Path

import cbquant

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_counts_code_but_no_blanks_comments_or_docstrings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('''"""Module docstring,
over two lines."""

# A comment.
import math  # counted


class A:
    """Class docstring."""

    x = (1,
         2)

    def f(self):
        """Function docstring."""
        return """a string
that is not a docstring"""
''')
    # import, class, two lines of x, def, two lines of the returned string.
    assert code_lines.code_lines(source) == 7


def test_public_names_are_the_package_exports(capsys):
    assert code_lines.main(["code_lines.py", str(ROOT / "src" / "cbquant")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split() == [str(len(cbquant.__all__)), "public", "names"]
    rows = [line.split() for line in out[:-2]]
    assert int(out[-2].split()[0]) == sum(int(count) for count, _ in rows)
    assert {name for _, name in rows} == {p.name for p in (ROOT / "src" / "cbquant").glob("*.py")}

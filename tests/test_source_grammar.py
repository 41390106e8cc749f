"""Every Python file of the project parses under the Python 3.10 grammar.

The package supports Python 3.10, but the test interpreter may be newer;
``ast.parse`` with ``feature_version`` rejects newer syntax such as
``except*`` or ``type X = int`` without needing a 3.10 interpreter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_sources_found():
    assert any(path.name == "classify.py" for path in SOURCES)
    assert any(path.parent.name == "perfbench" for path in SOURCES)


@pytest.mark.parametrize("source", ["try:\n    pass\nexcept* ValueError:\n    pass\n",
                                    "type X = int\n"])
def test_newer_grammar_is_rejected(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def test_sources_parse_under_python_3_10():
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_no_assert_statements_in_src():
    """``python -O`` strips ``assert``, so a runtime check under ``src/`` must
    raise or report instead."""
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in SOURCES if path.is_relative_to(ROOT / "src")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []

"""The README's "Library surface" section is the one written list of public names; it must stay importable."""

import ast
import inspect
import re
from pathlib import Path

import adasfleet
from adasfleet.vpic import batch_decode

README = Path(__file__).resolve().parent.parent / "README.md"


def surface_blocks() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_every_listed_name_imports_from_the_package():
    tree = ast.parse(surface_blocks()[0])
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "adasfleet"
             for alias in node.names]
    assert len(names) > 20
    assert [name for name in names if not hasattr(adasfleet, name)] == []


def test_batch_decode_line_matches_the_signature():
    """Each parameter the README's `batch_decode(...)` line names exists, and is keyword-only exactly after `*`."""
    line = next(line for block in surface_blocks() for line in block.splitlines() if line.startswith("batch_decode("))
    documented = ast.parse(f"def {line.split('#')[0].strip()}: pass").body[0].args
    params = inspect.signature(batch_decode).parameters
    keyword_only = [a.arg for a in documented.kwonlyargs]
    positional = [a.arg for a in documented.args]
    assert positional + keyword_only == list(params)
    assert [name for name in keyword_only if params[name].kind is not inspect.Parameter.KEYWORD_ONLY] == []
    assert [name for name in positional if params[name].kind is inspect.Parameter.KEYWORD_ONLY] == []

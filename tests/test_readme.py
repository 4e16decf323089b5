"""The README's "Library surface" section is the one written list of public names; it must stay importable,
and every module constant the README names or states a value for must exist with that value."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import adasfleet
from adasfleet import vpic
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


def test_every_module_qualified_constant_exists():
    """Each capitalized name the README qualifies by module, such as `estimator.SMALL_OVERLAP_THRESHOLD` or
    `datasets.CrashRecords`."""
    text = README.read_text("utf-8")
    named = set(re.findall(r"\b(catalog|datasets|estimator|vin|vpic|cli)\.([A-Z]\w*)", text))
    assert ("datasets", "CrashRecords") in named and len(named) >= 5
    assert sorted(f"{module}.{name}" for module, name in named
                  if not hasattr(importlib.import_module(f"adasfleet.{module}"), name)) == []


def test_stated_vpic_constants_equal_the_module_values():
    """Each `NAME = value` in the paragraph on `adasfleet.vpic` constants, against the assignment in its source.

    The source, not the attribute: the suite sets `RETRY_DELAY_S` to 0 so that retries do not sleep."""
    paragraph = next(p for p in README.read_text("utf-8").split("\n\n") if "constants in `adasfleet.vpic`" in p)
    stated = {name: ast.literal_eval(value) for name, value in re.findall(r"`([A-Z][A-Z0-9_]*) = ([^`]+)`", paragraph)}
    assigned = {node.targets[0].id: ast.literal_eval(node.value) for node in ast.parse(inspect.getsource(vpic)).body
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in stated}
    assert len(stated) == 5
    assert stated == assigned

"""Every function the benchmark tracer wraps must exist in hiershare.

``perfbench/tracing.py`` looks each traced name up with ``getattr`` when a
traced run starts, so a name dropped from the package would only show up
there. This test reads its ``TRACED`` table without importing the tracer.
"""

import ast
import importlib
import inspect
import typing
from pathlib import Path

from hiershare import curve

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_table() -> dict:
    for stmt in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    raise AssertionError("no TRACED table in perfbench/tracing.py")


def test_every_traced_name_resolves():
    table = traced_table()
    assert table
    missing = []
    for span, (module_name, path) in sorted(table.items()):
        owner = importlib.import_module(module_name)
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(span)
            continue
        if not callable(owner):
            missing.append(span)
    assert missing == []


def test_scalar_mul_takes_the_point_second():
    """The tracer's ``_base_is_g`` flag reads the point as ``args[1]`` of
    ``curve.scalar_mul``."""
    params = list(inspect.signature(curve.scalar_mul).parameters.values())
    point = params[1]
    assert point.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert typing.get_type_hints(curve.scalar_mul)[point.name] is curve.CurvePoint

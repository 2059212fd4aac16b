"""The traced benchmark run wraps engine callables by name
(``benchmarks/suite/tracer.py`` ``TARGETS``). A renamed method, or one
moved into a base class, breaks only that run; this resolves every
target the way ``Tracer.installed`` does, so tier-1 catches it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).parents[2] / "benchmarks" / "suite" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("suite_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("name, module_name, path", TARGETS, ids=[t[0] for t in TARGETS])
def test_target_resolves_as_the_tracer_resolves_it(name, module_name, path):
    owner = importlib.import_module(module_name)
    *holders, attribute = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    # A method must be defined on the class named, not inherited: the
    # tracer reads the class's own __dict__.
    original = owner.__dict__[attribute] if holders else getattr(owner, attribute)
    assert inspect.isfunction(original), f"{name}: {module_name}.{path} is not a function"

"""Every annotation in the package resolves: the modules use postponed
evaluation, so a name missing from a module's imports only shows when
something (a dataclass tool, a type checker, ``typing.get_type_hints``)
evaluates the annotation."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import f3sum

MODULES = ["f3sum"] + sorted(
    info.name for info in pkgutil.iter_modules(f3sum.__path__, "f3sum.")
)


def _annotated(module):
    """The module, then every class, method and function it defines."""
    yield module
    for obj in vars(module).values():
        obj = inspect.unwrap(obj) if callable(obj) else obj
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                if isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield member
        elif inspect.isfunction(obj):
            yield obj


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    for obj in _annotated(importlib.import_module(name)):
        typing.get_type_hints(obj)

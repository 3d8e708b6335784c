"""The benchmark's tracer patches package functions by name: every name it
traces must still resolve, so that a refactor which drops one fails here in
seconds rather than only in the slow benchmark suite."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    """perfbench/tracer.py loaded as a module; nothing in it is installed."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module_name,qualname", tracer.TARGETS,
                         ids=[f"{m}.{q}" for m, q in tracer.TARGETS])
def test_traced_target_resolves(module_name, qualname):
    # as tracer._patch looks it up: a module attribute, or an attribute in
    # the class __dict__ (an inherited method would be patched on the base)
    module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        assert inspect.isclass(cls)
        assert attr in cls.__dict__, f"{qualname} is not defined on {cls_name} itself"
    else:
        assert callable(getattr(module, qualname))


@pytest.mark.parametrize("module_name,cls_name,metric", tracer.StateProbe.CLASSES,
                         ids=[c for _, c, _ in tracer.StateProbe.CLASSES])
def test_probed_class_exists(module_name, cls_name, metric):
    module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    assert inspect.isclass(getattr(module, cls_name))
    assert "__init__" in vars(getattr(module, cls_name))

"""Every name the benchmark tracer wraps must exist in the package, so a
rename or removal fails here instead of in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced_names():
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer.SPANNED + tracer.COUNTED


TRACED = _traced_names()


@pytest.mark.parametrize("module,attr", [(m, a) for _, m, a in TRACED],
                         ids=[prefix for prefix, _, _ in TRACED])
def test_traced_name_resolves(module, attr):
    mod = importlib.import_module(f"symcone.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer rebinds methods through the class __dict__
        assert meth in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, attr, None))

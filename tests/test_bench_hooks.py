"""The benchmark's layer tracer names program functions by module and
attribute; every name it wraps must still exist, or a traced run crashes."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()


@pytest.mark.parametrize("name, target",
                         sorted({**_spans.LAYERS, **_spans.KERNELS}.items()))
def test_traced_target_exists(name, target):
    module_name, cls_name, attr = target
    module = importlib.import_module(module_name)
    if cls_name is None:
        assert callable(getattr(module, attr, None)), name
    else:
        # the tracer reads the method from the class __dict__, not by lookup
        assert attr in vars(getattr(module, cls_name)), name

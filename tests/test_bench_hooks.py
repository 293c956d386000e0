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


def test_a_traced_run_prints_what_an_untraced_run_prints(capsys):
    # the tracer's after-hooks also read program attributes (the enveloping
    # algebra's right_mult, the resolution's syzygies, the samples of the
    # axiom suite's result): a traced period and verify must exit and print
    # as untraced ones do
    from nangulator.cli import run_cli

    path = str(SPANS.parent.parent / "fixtures" / "nakayama_2_2.json")
    commands = [["period", path],
                ["verify", path, "--samples", "1", "--seed", "7"]]

    def run_all():
        out = []
        for argv in commands:
            code = run_cli(argv)
            out.append((code, capsys.readouterr().out))
        return out

    plain = run_all()
    tracer = _spans.Tracer()
    tracer.install()
    try:
        traced = run_all()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["algebra.enveloping"] and tracer.calls["periodicity.scan"]
    assert tracer.counters["syzygy_dim_max"] and tracer.counters["samples"]

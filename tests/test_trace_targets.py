"""The benchmark's tracer patches snapens functions by (module, attribute) name.

A rename or a moved call would otherwise make `perfbench/run.py --trace 1`
fail at install time; this test names the target that went missing.
"""
import importlib
import importlib.util
import pathlib

INPROC = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "inproc.py"


def load_inproc():
    spec = importlib.util.spec_from_file_location("perfbench_inproc", INPROC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    inproc = load_inproc()
    targets = [(m, attr) for m, attr, *_ in inproc.SPANS] + [(m, attr) for m, attr, _ in inproc.COUNTS]
    assert targets
    missing = [
        f"snapens.{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"snapens.{module}"), attr, None))
    ]
    assert missing == []

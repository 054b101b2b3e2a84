"""The benchmark's tracer wraps package functions by (module, attribute)
name; every name it lists must resolve, or a traced run fails."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_attributes_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.TRACED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert spans.TRACED and missing == []

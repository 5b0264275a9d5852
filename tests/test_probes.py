"""perfbench's probe table names functions protflow still has.

perfbench/tracer.py wraps each PROBES target to time it; a target that was
deleted or renamed would read as a missing probe, so each must resolve.
"""

import importlib
import importlib.util
import os

import pytest

_TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


def _probe_targets():
    """(module, attribute, span name) of each PROBES entry of perfbench/tracer.py."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [probe[:3] for probe in tracer.PROBES]


_TARGETS = _probe_targets()


@pytest.mark.parametrize("module_name, attr, span_name", _TARGETS, ids=[t[2] for t in _TARGETS])
def test_probe_target_is_a_protflow_callable(module_name, attr, span_name):
    target = importlib.import_module(f"protflow.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part, None)
    assert callable(target), f"{span_name}: protflow.{module_name}.{attr} is not a callable"

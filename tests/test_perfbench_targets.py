"""The benchmark's traced run wraps program functions by name.

``perfbench/tracing.py`` replaces each ``(owner, attribute)`` of its
``targets()`` with a timing wrapper, so renaming or deleting one of
them breaks the traced benchmark run; this keeps that break in tier 1.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _tracing().targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_rest in targets
               if attr not in vars(owner)]
    assert missing == []

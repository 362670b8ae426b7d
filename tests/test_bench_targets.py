"""The names that the traced benchmark wraps still resolve.

``bench/spans.py`` wraps each entry of ``TARGETS`` when it installs its
recorder: a class attribute is read as ``owner.__dict__[attr]`` and any
other name as ``getattr(module, attr)``.  A wrapped name that the package
drops would crash the traced run, so this fails first.  The file is read
and executed here; nothing is written under ``bench/``.
"""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return namespace["TARGETS"]


def test_traced_bench_targets_resolve():
    targets = _targets()
    assert ("spectral.StepFn.combine", "waveset.spectral", "StepFn", "combine") in targets
    for name, module, cls, attr in targets:
        owner = importlib.import_module(module)
        if cls is not None:
            assert callable(getattr(owner, cls).__dict__.get(attr)), name
        else:
            assert callable(getattr(owner, attr, None)), name

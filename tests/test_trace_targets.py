"""Every name the benchmark's tracer wraps still exists in the package.

``perfbench/tracing.py`` replaces each ``TARGETS`` entry when a traced run
starts, so a deleted or renamed function would otherwise show only there.
The file is loaded by path and read, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for span, (module_name, attr) in tracing.TARGETS.items():
        owner = importlib.import_module(f"agenda_algebra.{module_name}")
        *cls_name, name = attr.split(".")
        if cls_name:
            owner = vars(owner).get(cls_name[0], object)
        if not callable(vars(owner).get(name)):
            missing.append(span)
    assert missing == []

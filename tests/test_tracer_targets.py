"""The benchmark's tracer still finds every library name it wraps.

``perfbench/spans.py`` patches library functions and methods by name,
reading class attributes through ``cls.__dict__``, so a rename or a move in
the library breaks the traced benchmark run (``perfbench/run.py --trace
1``). This test installs and uninstalls the tracer in well under a second.
It loads ``spans.py`` by path and does not edit it; a benchmark change that
rewrites ``spans.py`` updates this test or drops it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from stratkit import FiniteSpace, SpaceMap

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls():
    spans = load_spans()
    checks = ("is_continuous", "is_open", "is_closed")
    originals = {attr: SpaceMap.__dict__[attr] for attr in checks}
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert SpaceMap.identity(FiniteSpace.discrete("ab")).is_open()
        assert "topology.map_check" in tracer.names and len(tracer) >= 1
    finally:
        tracer.uninstall()
    assert {attr: SpaceMap.__dict__[attr] for attr in checks} == originals

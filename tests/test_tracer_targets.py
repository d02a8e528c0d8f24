"""The benchmark's tracer still finds every library name it wraps.

``perfbench/spans.py`` patches library functions and methods by name,
reading class attributes through ``cls.__dict__``, so a rename or a move in
the library breaks the traced benchmark run (``perfbench/run.py --trace
1``). These tests install and uninstall the tracer in well under a second.
It loads ``spans.py`` by path and does not edit it; a benchmark change that
rewrites ``spans.py`` updates this test or drops it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import stratkit
from stratkit import Decomposition, FiniteSpace, SpaceMap, alexandrov_space, fixture

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


def test_document_path_records_its_spans():
    # generate -> save -> load, as documents-bulk runs it; each name here is
    # one the traced benchmark reports per layer
    spans = load_spans()
    originals = {name: getattr(stratkit, name) for name in ("generate", "save", "load")}
    tracer = spans.Tracer()
    try:
        tracer.install()
        space = alexandrov_space(stratkit.generate("preorder", 12, {"density": 0.2}, 5).value)
        doc = stratkit.generate("partition", 12, {"space": space, "blocks": 3}, 6)
        text = stratkit.save(doc)
        assert stratkit.save(stratkit.load(text)) == text
    finally:
        tracer.uninstall()
    recorded = {name for name, entry in tracer.totals().items() if entry["calls"]}
    assert {"generate.preorder", "generate.partition", "documents.save", "documents.load",
            "topology.space_build"} <= recorded
    assert {name: getattr(stratkit, name) for name in originals} == originals


def test_memoised_fields_are_wrapped_and_restored():
    # the tracer finds ``topology.cached_property`` fields through its
    # ``functools.cached_property`` isinstance test, and puts them back
    spans = load_spans()
    original = Decomposition.__dict__["quotient_space"]
    tracer = spans.Tracer()
    try:
        tracer.install()
        dec = fixture("line_3").document.value
        assert Decomposition(dec.space, dec.strata).quotient_space.points == ("S0", "S1")
    finally:
        tracer.uninstall()
    assert tracer.totals()["decomposition.quotient_space"]["calls"] == 1
    assert Decomposition.__dict__["quotient_space"] is original

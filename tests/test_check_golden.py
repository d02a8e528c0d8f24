"""`stratkit check` stdout, in both formats, pinned byte for byte.

The golden digests of ``--format json`` in ``data/check_json_golden.json``
were captured from the subset-filter implementation of ``classify``; the
stratum-level kernel must reproduce its reports exactly. The digests of
the default text format (``text_stdout_sha256``) were captured later, from
the text renderer that walked the report's fields; the renderer that
reads the JSON dict must reproduce them. The documents are every fixture,
a few face-poset models and a fixed list of seeded generated
decompositions, the first twenty with at most 20 strata.

The wide documents, each past 64 points, were captured later, from the
implementation that built each stratum's open hull and closure by two
separate walks, before one kernel pass built both: seeded generated
decompositions of 65, 130 and 300 points into 3 strata (whose masks take
``preimage_of``'s C pass) and into 64 strata, and both
decompositions of the boundary of the 6-simplex (126 faces).

This module needs only the standard library (pytest parametrizes the
per-document test through ``pytest_generate_tests``), so the digests can be
checked under any interpreter:

    PYTHONPATH=src python tests/test_check_golden.py --check

Re-capture (a deliberate output change) with

    PYTHONPATH=src python tests/test_check_golden.py --capture
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import combinations
from pathlib import Path

from helpers import FACE_DECOMPOSITIONS, face_decomposition, run_main
from stratkit import Decomposition, face_poset_model, fixture, fixture_names, generate, save
from stratkit.documents import Document
from stratkit.order import alexandrov_space

GOLDEN_PATH = Path(__file__).parent / "data" / "check_json_golden.json"

# (points, preorder density, blocks, seed); dense small spaces give proper
# preorders and cycles among strata, sparse larger ones give wide k
GENERATED = (
    (6, 0.3, 3, 1), (7, 0.25, 4, 2), (8, 0.2, 5, 3), (8, 0.35, 6, 4),
    (9, 0.15, 9, 5), (10, 0.3, 4, 6), (10, 0.1, 7, 7), (12, 0.2, 12, 8),
    (12, 0.08, 10, 9), (14, 0.1, 8, 10), (16, 0.05, 11, 11), (20, 0.06, 12, 12),
    (24, 0.04, 13, 13), (30, 0.03, 14, 14), (40, 0.025, 15, 15), (40, 0.05, 16, 16),
    (60, 0.02, 17, 17), (50, 0.01, 18, 18), (80, 0.0125, 19, 19), (60, 0.015, 20, 20),
    # past 64 points: a few large strata, then 64 small ones
    (65, 0.005, 3, 21), (65, 0.005, 64, 24), (130, 0.0025, 3, 21), (130, 0.005, 64, 21),
    (300, 0.0005, 3, 22), (300, 0.002, 64, 21),
)
# the boundary of the 6-simplex: 126 faces, so 126 strata pointwise
BOUNDARY = tuple(combinations("abcdefg", 6))


def document_text(doc_id: str) -> str:
    kind, _, name = doc_id.partition(":")
    if kind == "fixture":
        return save(fixture(name).document)
    if kind == "face":
        return save(Document("decomposition", face_decomposition(name)))
    if kind == "boundary":
        model = face_poset_model(BOUNDARY)
        dec = Decomposition.pointwise(model.space) if name == "pointwise" else model.skeleton()
        return save(Document("decomposition", dec))
    n, density, blocks, seed = GENERATED[int(name)]
    space = alexandrov_space(generate("preorder", n, {"density": density}, seed).value)
    return save(generate("partition", n, {"space": space, "blocks": blocks}, seed + 1000))


def doc_ids() -> list[str]:
    ids = [f"fixture:{name}" for name in fixture_names()]
    ids += [f"face:{name}" for name in FACE_DECOMPOSITIONS]
    ids += [f"generated:{i}" for i in range(len(GENERATED))]
    ids += ["boundary:pointwise", "boundary:skeleton"]
    return ids


JSON = ("--format", "json")


def run_check(text: str, *options: str) -> tuple[int, bytes]:
    """Exit code and stdout of ``stratkit check -`` with the options; with
    none, the default text format."""
    code, out, _ = run_main(["check", "-", *options], text)
    return code, out.encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def capture() -> dict:
    golden = {}
    for doc_id in doc_ids():
        text = document_text(doc_id)
        code, out = run_check(text, *JSON)
        text_code, text_out = run_check(text)
        assert text_code == code, doc_id
        golden[doc_id] = {"document_sha256": sha256(text.encode()), "exit": code,
                          "stdout_sha256": sha256(out),
                          "text_stdout_sha256": sha256(text_out)}
    return golden


GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}


def mismatch(doc_id: str) -> str | None:
    """What differs from the golden entry of one document, or None."""
    text = document_text(doc_id)
    entry = GOLDEN[doc_id]
    if sha256(text.encode()) != entry["document_sha256"]:
        return "input document drifted"
    for options, key in ((JSON, "stdout_sha256"), ((), "text_stdout_sha256")):
        code, out = run_check(text, *options)
        if (code, sha256(out)) != (entry["exit"], entry[key]):
            shown = " ".join(options) or "(default text)"
            return f"check {shown}: exit {code}, stdout sha256 {sha256(out)}"
    return None


def pytest_generate_tests(metafunc):
    if "doc_id" in metafunc.fixturenames:
        metafunc.parametrize("doc_id", doc_ids())


def test_golden_covers_every_document():
    assert sorted(GOLDEN) == sorted(doc_ids())


def test_check_stdout_is_byte_identical(doc_id):
    assert mismatch(doc_id) is None


if __name__ == "__main__":
    if sys.argv[1:] == ["--capture"]:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(capture(), indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    elif sys.argv[1:] == ["--check"]:
        test_golden_covers_every_document()
        bad = [(doc_id, problem) for doc_id in doc_ids() if (problem := mismatch(doc_id))]
        print(f"{len(doc_ids()) - len(bad)}/{len(doc_ids())} check json and text digests match")
        for doc_id, problem in bad:
            print(f"mismatch: {doc_id}: {problem}")
        raise SystemExit(1 if bad else 0)
    else:
        raise SystemExit(__doc__)

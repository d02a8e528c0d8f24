"""`stratkit check --format json` stdout, pinned byte for byte.

The golden digests in ``data/check_json_golden.json`` were captured from
the subset-filter implementation of ``classify``; the stratum-level kernel
must reproduce its reports exactly. The documents are every fixture, a
few face-poset models and a fixed list of seeded generated decompositions
with at most 20 strata.

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
from pathlib import Path

from helpers import FACE_DECOMPOSITIONS, face_decomposition, run_main
from stratkit import fixture, fixture_names, generate, save
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
)


def document_text(doc_id: str) -> str:
    kind, _, name = doc_id.partition(":")
    if kind == "fixture":
        return save(fixture(name).document)
    if kind == "face":
        return save(Document("decomposition", face_decomposition(name)))
    n, density, blocks, seed = GENERATED[int(name)]
    space = alexandrov_space(generate("preorder", n, {"density": density}, seed).value)
    return save(generate("partition", n, {"space": space, "blocks": blocks}, seed + 1000))


def doc_ids() -> list[str]:
    ids = [f"fixture:{name}" for name in fixture_names()]
    ids += [f"face:{name}" for name in FACE_DECOMPOSITIONS]
    ids += [f"generated:{i}" for i in range(len(GENERATED))]
    return ids


def run_check(text: str) -> tuple[int, bytes]:
    code, out, _ = run_main(["check", "-", "--format", "json"], text)
    return code, out.encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def capture() -> dict:
    golden = {}
    for doc_id in doc_ids():
        text = document_text(doc_id)
        code, out = run_check(text)
        golden[doc_id] = {"document_sha256": sha256(text.encode()), "exit": code,
                          "stdout_sha256": sha256(out)}
    return golden


GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}


def mismatch(doc_id: str) -> str | None:
    """What differs from the golden entry of one document, or None."""
    text = document_text(doc_id)
    entry = GOLDEN[doc_id]
    if sha256(text.encode()) != entry["document_sha256"]:
        return "input document drifted"
    code, out = run_check(text)
    if (code, sha256(out)) != (entry["exit"], entry["stdout_sha256"]):
        return f"exit {code}, stdout sha256 {sha256(out)}"
    return None


def pytest_generate_tests(metafunc):
    if "doc_id" in metafunc.fixturenames:
        metafunc.parametrize("doc_id", doc_ids())


def test_golden_covers_every_document():
    assert sorted(GOLDEN) == sorted(doc_ids())


def test_check_json_is_byte_identical(doc_id):
    assert mismatch(doc_id) is None


if __name__ == "__main__":
    if sys.argv[1:] == ["--capture"]:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(capture(), indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    elif sys.argv[1:] == ["--check"]:
        test_golden_covers_every_document()
        bad = [(doc_id, problem) for doc_id in doc_ids() if (problem := mismatch(doc_id))]
        print(f"{len(doc_ids()) - len(bad)}/{len(doc_ids())} check --format json digests match")
        for doc_id, problem in bad:
            print(f"mismatch: {doc_id}: {problem}")
        raise SystemExit(1 if bad else 0)
    else:
        raise SystemExit(__doc__)

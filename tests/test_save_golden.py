"""`save` output, pinned byte for byte for every document kind.

The digests in ``data/save_golden.json`` were captured while ``save`` still
serialized through ``json.dumps(payload, sort_keys=True, indent=2)``; the
canonical writer must reproduce that layout exactly. The documents are
every fixture (symbolic families included), the face-poset decompositions
of ``test_check_golden``, one map, proset, poset and order-on-strata
document, the empty space and the empty decomposition, names that need
JSON escaping, seeded 300-point sparse and dense decompositions shaped like
the documents-bulk benchmark's and its two 1000-point documents.

This module needs only the standard library, so the digests can be checked
under any interpreter:

    PYTHONPATH=src python tests/test_save_golden.py --check

Re-capture (a deliberate output change) with

    PYTHONPATH=src python tests/test_save_golden.py --capture
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from helpers import FACE_DECOMPOSITIONS, face_decomposition
from stratkit import (
    Decomposition,
    FiniteSpace,
    Poset,
    Proset,
    SpaceMap,
    as_poset_stratified,
    fixture,
    fixture_names,
    generate,
    save,
)
from stratkit.documents import Document
from stratkit.order import alexandrov_space

GOLDEN_PATH = Path(__file__).parent / "data" / "save_golden.json"

# names that JSON must escape: quotes, backslashes, control characters,
# non-ASCII text inside and outside the Basic Multilingual Plane
ESCAPED = ("plain", "é", "日本", '"q"', "back\\slash", "nl\n", "\x00", "\x1f", "tab\t",
           "\u2028", "\U0001f600", "\x7f", "/", "Z")

# (points, average out-degree of the drawn relation, blocks, seed): the
# documents-bulk mix at 300 points, then its two fixed 1000-point documents
GENERATED = {
    "300-sparse-a": (300, 0.5, 6, 11), "300-sparse-b": (300, 0.5, 6, 12),
    "300-dense-a": (300, 2.0, 6, 21), "300-dense-b": (300, 2.0, 6, 22),
    "1000-sparse": (1000, 0.5, 8, 1000), "1000-dense": (1000, 2.0, 8, 1001),
}


def _escaped_space() -> FiniteSpace:
    # a chain: each point's minimal open holds it and every later point
    n = len(ESCAPED)
    return FiniteSpace(ESCAPED, tuple(((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)))


def _escaped_proset() -> Proset:
    pairs = [(a, b) for a, b in zip(ESCAPED, ESCAPED[1:])] + [(ESCAPED[-1], ESCAPED[-2])]
    return Proset.from_pairs(ESCAPED, pairs)


def _documents() -> dict:
    """id -> a function building the document, so each test builds only its own."""
    sierpinski = fixture("sierpinski").document.value
    line_3 = fixture("line_3").document.value
    escaped = _escaped_space()
    docs = {f"fixture:{name}": (lambda name=name: fixture(name).document)
            for name in fixture_names()}
    docs.update({f"face:{name}": (lambda name=name: Document("decomposition",
                                                            face_decomposition(name)))
                 for name in FACE_DECOMPOSITIONS})
    docs.update({
        "map:line_3-to-sierpinski": lambda: Document("map", SpaceMap.from_names(
            line_3.space, sierpinski, {"m": "o", "z": "c", "p": "o"})),
        "proset:cycle": lambda: Document("proset", Proset.from_pairs(
            ("x", "w", "v"), [("x", "w"), ("w", "x"), ("v", "x")])),
        "poset:diamond": lambda: Document("poset", Poset.from_pairs(
            ("top", "b", "a", "bot"), [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])),
        "order-on-strata:quadrant_4": lambda: Document(
            "order-on-strata", as_poset_stratified(fixture("quadrant_4").document.value).order),
        "space:empty": lambda: Document("space", FiniteSpace.empty()),
        "decomposition:empty": lambda: Document("decomposition",
                                                Decomposition(FiniteSpace.empty(), ())),
        "space:escaped": lambda: Document("space", escaped),
        "decomposition:escaped": lambda: Document("decomposition", Decomposition.from_strata(
            escaped, {"sé\n": ESCAPED[:5], '"\\': ESCAPED[5:9], "\x01": ESCAPED[9:]})),
        "proset:escaped": lambda: Document("proset", _escaped_proset()),
        "map:escaped": lambda: Document("map", SpaceMap.from_names(
            escaped, sierpinski, {p: "co"[i % 2] for i, p in enumerate(ESCAPED)})),
    })
    for name, (n, degree, blocks, seed) in GENERATED.items():
        def build(n=n, degree=degree, blocks=blocks, seed=seed):
            space = alexandrov_space(generate("preorder", n, {"density": degree / n}, seed).value)
            return generate("partition", n, {"space": space, "blocks": blocks}, seed + 1)

        docs[f"generated:{name}"] = build
    return docs


DOCUMENTS = _documents()


def digest(doc_id: str) -> str:
    return hashlib.sha256(save(DOCUMENTS[doc_id]()).encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def mismatches() -> list[str]:
    return [doc_id for doc_id, expected in load_golden().items() if digest(doc_id) != expected]


def test_golden_covers_every_document():
    assert sorted(load_golden()) == sorted(DOCUMENTS)


def test_golden_covers_every_kind():
    kinds = {DOCUMENTS[doc_id]().kind for doc_id in DOCUMENTS if "generated" not in doc_id}
    assert kinds == {"space", "proset", "poset", "decomposition", "map", "order-on-strata",
                     "symbolic-family"}


def test_save_is_byte_identical():
    assert mismatches() == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--capture"]:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps({doc_id: digest(doc_id) for doc_id in DOCUMENTS}, indent=2) + "\n",
            encoding="utf-8")
    elif sys.argv[1:] == ["--check"]:
        bad = mismatches()
        print(f"{len(DOCUMENTS) - len(bad)}/{len(DOCUMENTS)} digests match")
        for doc_id in bad:
            print(f"mismatch: {doc_id}")
        raise SystemExit(1 if bad else 0)
    else:
        raise SystemExit(__doc__)

"""`save(generate(...))`, pinned byte for byte for both kinds.

The digests in ``data/generate_golden.json`` were captured from the scalar
generator (one ``SplitMix64.next_float()`` per ordered pair, closure by
fixpoint re-scan). Any faster draw or closure must reproduce them exactly:
the splitmix64 streams and the documents built from them never change.
The cases cover empty and tiny relations, densities 0 and 1, a density
below the smallest positive draw, sparse and dense relations, and seeds at
both ends of the 64-bit range and above it.

The digests in ``data/generate_partition_golden.json`` pin the partition
stream the same way: they were captured from the scalar draws (one
``next_below`` per Fisher-Yates swap and per free point, strata named
through ``Decomposition.from_strata``) on the discrete space of each size,
with the block count drawn and with 1, half of n and n blocks.

This module needs only the standard library, so the digests can be checked
under any interpreter:

    PYTHONPATH=src python tests/test_generate_golden.py --check

Re-capture (a deliberate output change) with

    PYTHONPATH=src python tests/test_generate_golden.py --capture
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from stratkit import generate, save
from stratkit.errors import ValidationError

GOLDEN_PATH = Path(__file__).parent / "data" / "generate_golden.json"
PARTITION_GOLDEN_PATH = Path(__file__).parent / "data" / "generate_partition_golden.json"

SIZES = (0, 1, 2, 7, 50, 300)
SEEDS = (0, 2**64 - 1, 3**41)


def densities(n: int) -> list:
    relative = [2 / n, 0.5 / n] if n else []
    return [0, 1, 0.5, *relative, 1e-300]


def cases() -> list[tuple[int, float, int]]:
    return [(n, d, seed) for n in SIZES for d in densities(n) for seed in SEEDS]


def block_counts(n: int) -> list:
    """None (drawn), 1, half of n and n, each once."""
    return list(dict.fromkeys([None, 1, max(n // 2, 1), n]))


def partition_cases() -> list[tuple[int, int | None, int]]:
    return [(n, b, seed) for n in SIZES for b in block_counts(n) for seed in SEEDS]


def _digest(kind: str, n: int, params: dict, seed: int) -> str:
    """sha256 of the saved document, or the error invalid params raise."""
    try:
        doc = generate(kind, n, params, seed)
    except ValidationError as exc:
        return f"ValidationError: {exc}"
    return hashlib.sha256(save(doc).encode()).hexdigest()


def outcome(n: int, density: float, seed: int) -> str:
    return _digest("preorder", n, {"density": density}, seed)


def partition_outcome(n: int, blocks: int | None, seed: int) -> str:
    return _digest("partition", n, {} if blocks is None else {"blocks": blocks}, seed)


def capture() -> list[dict]:
    return [{"n": n, "density": d, "seed": seed, "outcome": outcome(n, d, seed)}
            for n, d, seed in cases()]


def capture_partitions() -> list[dict]:
    return [{"n": n, "blocks": b, "seed": seed, "outcome": partition_outcome(n, b, seed)}
            for n, b, seed in partition_cases()]


def load_golden(path: Path = GOLDEN_PATH) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def mismatches() -> list[str]:
    return [f"n={e['n']} density={e['density']!r} seed={e['seed']}"
            for e in load_golden() if outcome(e["n"], e["density"], e["seed"]) != e["outcome"]]


def partition_mismatches() -> list[str]:
    return [f"partition n={e['n']} blocks={e['blocks']!r} seed={e['seed']}"
            for e in load_golden(PARTITION_GOLDEN_PATH)
            if partition_outcome(e["n"], e["blocks"], e["seed"]) != e["outcome"]]


def test_golden_covers_every_case():
    assert [(e["n"], e["density"], e["seed"]) for e in load_golden()] == cases()


def test_partition_golden_covers_every_case():
    golden = load_golden(PARTITION_GOLDEN_PATH)
    assert [(e["n"], e["blocks"], e["seed"]) for e in golden] == partition_cases()


def test_generated_preorders_are_byte_identical():
    assert mismatches() == []


def test_generated_partitions_are_byte_identical():
    assert partition_mismatches() == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--capture"]:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(capture(), indent=2) + "\n", encoding="utf-8")
        PARTITION_GOLDEN_PATH.write_text(
            json.dumps(capture_partitions(), indent=2) + "\n", encoding="utf-8"
        )
    elif sys.argv[1:] == ["--check"]:
        test_golden_covers_every_case()
        test_partition_golden_covers_every_case()
        bad, bad_partitions = mismatches(), partition_mismatches()
        print(f"{len(cases()) - len(bad)}/{len(cases())} generator digests match")
        print(f"{len(partition_cases()) - len(bad_partitions)}/{len(partition_cases())}"
              " partition digests match")
        for line in bad + bad_partitions:
            print(f"mismatch: {line}")
        raise SystemExit(1 if bad else 0)
    else:
        raise SystemExit(__doc__)

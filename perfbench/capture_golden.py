"""Capture the golden references in ``golden.json`` from the current code.

Run from the repository root, on the commit whose outputs are the
reference (the benchmark's goldens were captured on the commit that
introduced it):

    python3 perfbench/capture_golden.py

It records the sweep reports for n = 3 and n = 4, and, for every cli-check
document (the fixtures and the generated pool), the document digest and
the exit code and stdout digest of each benchmarked command, each run as a
``python -m stratkit`` subprocess. Recapturing is a deliberate change of
reference: review the diff of ``golden.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
GOLDEN = Path(__file__).resolve().parent / "golden.json"
if not GOLDEN.exists():  # workloads reads it at import
    GOLDEN.write_text("{}", encoding="utf-8")

from stratkit import exhaustive_verify, load  # noqa: E402

import workloads  # noqa: E402
from reference import verdict_of  # noqa: E402


def main() -> int:
    golden = {"sweep": {}, "cli": {}}
    for n in (2, 3, 4):
        report = exhaustive_verify(n)
        if report.failures:
            raise SystemExit(f"sweep n={n} reports failures; refusing to capture")
        golden["sweep"][str(n)] = {
            "instances": report.instances,
            "order_pairs": report.order_pairs,
            "sha256": workloads.sha256(report.to_json().encode()),
        }

    workdir = ROOT / ".perfbench" / "capture"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        documents = {f"fixture:{name}": workloads.fixture_document(name)
                     for name in workloads.FIXTURE_DOCS}
        documents.update({f"pool:{i}": workloads.pool_document(i)
                          for i in range(workloads.POOL_SIZE)})
        for doc_id, text in documents.items():
            path = workdir / f"{doc_id.replace(':', '_')}.json"
            path.write_text(text, encoding="utf-8")
            verdict = verdict_of(load(text).value)
            entry = {"document_sha256": workloads.sha256(text.encode()), "verdict": verdict}
            for command in workloads.CLI_COMMANDS:
                argv = workloads.cli_argv(command, str(path), verdict)
                code, out, err = workloads._subprocess_call(ROOT, argv)()
                if code not in (0, 1):
                    raise SystemExit(f"{doc_id} {command}: exit {code}: {err.decode()}")
                entry[command] = {"exit": code, "sha256": workloads.sha256(out)}
            golden["cli"][doc_id] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

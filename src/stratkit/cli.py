"""Command-line interface.

Exit codes: 0 success or verdict as expected; 1 verdict mismatch or a
theorem precondition failure; 2 input or parse error; 3 internal
equivalence disagreement (a library defect, never bad input). Document
arguments are file paths, with ``-`` meaning stdin. Output carries no
timestamps, so identical invocations are byte-identical.

The environment variable STRATKIT_MAX_POINTS raises the bound on
``verify --points``; it never reaches the library guard
``topology.MAX_POINTS``.

Imports are per command: this module loads only the classification core
(topology, order, decomposition, documents), and the oracle, generator,
fixture catalog and DOT writer are imported inside the commands that run
them (``verify``, ``gen``, ``fixture``, ``preorder --dot`` and
``export-dot``). The package's own exports are lazy (PEP 562), so
``import stratkit`` loads nothing by itself.
"""

from __future__ import annotations

import argparse
import os
import sys

from .decomposition import (
    Decomposition,
    PosetStratification,
    as_poset_stratified,
    classify,
    stratification_from_open_map,
)
from .documents import Document, canonical_json, load, payload_of, save
from .errors import InternalInvariantError, ParseError, PreconditionError, ValidationError
from .order import Poset, Proset

LADDER = ("decomposition", "alexandrov", "poset-stratified", "stratification")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratkit",
        description="Classify decompositions of finite spaces and verify the "
        "order-theoretic characterizations behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="full classification report for a decomposition")
    p.set_defaults(run=_cmd_check)
    p.add_argument("document")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("classify", help="ladder verdict for a decomposition")
    p.set_defaults(run=_cmd_classify)
    p.add_argument("document")
    p.add_argument("--expect", choices=LADDER)

    p = sub.add_parser("quotient", help="decomposition space as a space document")
    p.set_defaults(run=_cmd_quotient)
    p.add_argument("document")

    p = sub.add_parser("preorder", help="decomposition preorder as a proset document")
    p.set_defaults(run=_cmd_preorder)
    p.add_argument("document")
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("coarsen", help="merge strata along preorder equivalence classes")
    p.set_defaults(run=_cmd_coarsen)
    p.add_argument("document")

    p = sub.add_parser(
        "theorem-a", help="frontier partial order of a stratification (errors if not one)"
    )
    p.set_defaults(run=_cmd_theorem_a)
    p.add_argument("document")

    p = sub.add_parser(
        "theorem-b",
        help="confirm a stratification from an open quotient map over a given order",
    )
    p.set_defaults(run=_cmd_theorem_b)
    p.add_argument("document")
    p.add_argument("order")

    p = sub.add_parser("verify", help="exhaustive sweep over all small instances")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--exhaustive", action="store_true", required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("gen", help="seeded random preorder or partition document")
    p.set_defaults(run=_cmd_gen)
    p.add_argument("--kind", choices=("preorder", "partition"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--density", type=float)
    p.add_argument("--blocks", type=int)
    p.add_argument("--space")

    p = sub.add_parser("fixture", help="list the catalog or show one entry")
    p.set_defaults(run=_cmd_fixture)
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")

    p = sub.add_parser("export-dot", help="DOT rendering of an order or decomposition")
    p.set_defaults(run=_cmd_export_dot)
    p.add_argument("document")

    return parser


def _read_document(path: str) -> Document:
    try:
        if path == "-":
            # stdin is decoded as strictly as a file, whatever its locale encoding
            raw = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"parse error: {path!r} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    return load(text)


def _as_decomposition(doc: Document) -> Decomposition:
    if not isinstance(doc.value, Decomposition):
        raise ValidationError(f"expected a decomposition document, got kind {doc.kind!r}")
    return doc.value


def _as_order(doc: Document) -> Poset:
    if not isinstance(doc.value, Poset):
        raise ValidationError(
            f"expected a poset or order-on-strata document, got kind {doc.kind!r}"
        )
    return doc.value


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _words(value) -> str:
    """A value of the report's JSON dict as text: a bool as true or false,
    a dict as its key=value pairs in order."""
    if isinstance(value, dict):
        return " ".join(f"{key}={_words(item)}" for key, item in value.items())
    return str(value).lower() if isinstance(value, bool) else value


def _report_text(report) -> str:
    """The text rendering of the report's JSON dict: the verdict, one line
    per group, the stratification's reasons and the witnesses."""
    data = report.to_json_dict()
    lines = [f"verdict: {data['verdict']}"]
    for key in ("alexandrov", "frontier", "poset_stratified", "locally_finite", "locally_closed"):
        lines.append(f"{key}: {_words(data[key])}")
    strat = data["stratification"]
    lines.append(f"stratification: {_words(strat['holds'])}")
    lines += [f"  - {reason}" for reason in strat["reasons"]]
    lines.append(f"semicontinuity: {_words(data['semicontinuity'])}")
    if data["witnesses"]:
        lines.append("witnesses:")
        lines += [f"  {label}: {text}" for label, text in data["witnesses"].items()]
    return "\n".join(lines) + "\n"


def _cmd_check(args) -> int:
    report = classify(_as_decomposition(_read_document(args.document)))
    if args.format == "json":
        _emit(canonical_json(report.to_json_dict()))
    else:
        _emit(_report_text(report))
    return 0


def _cmd_classify(args) -> int:
    dec = _as_decomposition(_read_document(args.document))
    report = classify(dec)
    verdict = report.verdict()
    _emit(f"verdict: {verdict}\n")
    if args.expect is None or args.expect == verdict:
        return 0
    _emit(f"expected: {args.expect}\n")
    if args.expect == "stratification":
        for reason in report.stratification.reasons:
            _emit(f"reason: {reason}\n")
    elif args.expect == "poset-stratified" and not report.poset_stratified.value:
        _emit("reason: no partial order on the strata makes the quotient map continuous\n")
    return 1


def _cmd_quotient(args) -> int:
    dec = _as_decomposition(_read_document(args.document))
    _emit(save(Document("space", dec.quotient_space)))
    return 0


def _cmd_preorder(args) -> int:
    dec = _as_decomposition(_read_document(args.document))
    if args.dot:
        from .dot import export_dot

        _emit(export_dot(dec.preorder))
    else:
        _emit(save(Document("proset", dec.preorder)))
    return 0


def _cmd_coarsen(args) -> int:
    dec = _as_decomposition(_read_document(args.document))
    merged, ps = dec.coarsen()
    _emit(
        canonical_json(
            {
                "decomposition": payload_of(merged),
                "order": payload_of(ps.order, kind="order-on-strata"),
            }
        )
    )
    return 0


def _cmd_theorem_a(args) -> int:
    dec = _as_decomposition(_read_document(args.document))
    ps = as_poset_stratified(dec)
    _emit(save(Document("order-on-strata", ps.order)))
    return 0


def _cmd_theorem_b(args) -> int:
    dec = _as_decomposition(_read_document(args.document))
    order = _as_order(_read_document(args.order))
    check = dec.check_against_order(order)
    if not check.continuous:
        _emit(
            "precondition failed: decomposition map is not continuous for the "
            f"supplied order (open set {sorted(check.continuity_witness)} has a "
            "non-open preimage)\n"
        )
        return 1
    stratification_from_open_map(PosetStratification(dec, order))
    _emit(
        "stratification confirmed\n"
        "order space locally finite: true\n"
        "quotient map open: true\n"
        "supplied order refines the decomposition preorder: true\n"
    )
    return 0


def _cmd_verify(args) -> int:
    from .oracle import MAX_SWEEP_POINTS, exhaustive_verify

    max_n = max(MAX_SWEEP_POINTS, args.max_points or 0)
    report = exhaustive_verify(args.points, max_n=max_n)
    if args.format == "json":
        _emit(report.to_json())
    else:
        for name, tally in report.tallies:
            _emit(f"{name}: {tally.passed} passed, {tally.failed} failed\n")
        _emit(report.summary() + "\n")
    return 0 if report.failures == 0 else 3


def _cmd_gen(args) -> int:
    from .generate import generate

    params = {}
    if args.density is not None:
        params["density"] = args.density
    if args.blocks is not None:
        params["blocks"] = args.blocks
    if args.space is not None:
        params["space"] = args.space
    doc = generate(args.kind, args.n, params, args.seed)
    _emit(save(doc))
    return 0


def _cmd_fixture(args) -> int:
    from .fixtures import fixture, fixture_names

    if args.action == "list":
        for name in fixture_names():
            _emit(name + "\n")
        return 0
    if not args.name:
        raise ValidationError("fixture show needs a name")
    _emit(save(fixture(args.name).document))
    return 0


def _cmd_export_dot(args) -> int:
    from .dot import export_dot

    doc = _read_document(args.document)
    if not isinstance(doc.value, (Decomposition, Proset)):
        raise ValidationError(f"cannot render document kind {doc.kind!r} as DOT")
    _emit(export_dot(doc.value))
    return 0


def _max_points_override() -> int | None:
    raw = os.environ.get("STRATKIT_MAX_POINTS")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError("STRATKIT_MAX_POINTS must be an integer") from None
    if value < 0:
        raise ValidationError("STRATKIT_MAX_POINTS must be nonnegative")
    return value


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # read for every command, so a bad value is exit 2 everywhere
        args.max_points = _max_points_override()
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        for reason in exc.reasons:
            print(f"reason: {reason}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

"""JSON document format for spaces, orders, decompositions, and maps.

One document per value, dispatched on a "kind" key:

    space            {"kind": "space", "points": [...],
                      "min_open": {pt: [pts]}}        or "subbasis": [[pts]]
    proset / poset   {"kind": ..., "elements": [...],
                      "leq_pairs": [[a, b], ...], "close": bool}
    order-on-strata  poset payload whose elements name strata
    decomposition    {"kind": "decomposition", "space": <space|{"fixture": name}>,
                      "strata": {id: [pts]}}
    map              {"kind": "map", "source": <space>, "target": <space>,
                      "assignment": {pt: pt}}
    symbolic-family  {"kind": "symbolic-family", "tag": ...} plus the
                      catalog answers

Loading is strict about types: point, element and stratum lists must be
JSON lists of strings, and names and tags must be strings, so a malformed
value is a ValidationError rather than a TypeError or a silently split
string.

Saving is canonical: keys sorted, point and element lists sorted, the
subbasis form normalized to min_open, relations written as their
non-reflexive pairs with close=true. Structurally equal values therefore
serialize identically, and load(save(x)) returns x for loaded documents.

The text is the layout of ``json.dumps(payload, sort_keys=True, indent=2)``
plus a newline, written directly by ``canonical_json`` (CPython serves any
``indent`` with its pure-Python encoder): strings go through the C string
encoder, and the text of a list shared by several keys, such as the
minimal open of a strongly connected class, is built once per depth. The
output is byte-identical to ``json.dumps``; tests/test_save_golden.py pins
``save`` for every document kind and tests/test_documents.py checks the
writer against ``json.dumps`` on arbitrary JSON trees. The CLI's JSON
reports and the oracle's sweep report use the same writer.
"""

from __future__ import annotations

import json
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .decomposition import Decomposition
from .errors import ParseError, ValidationError
from .order import Poset, Proset, SymbolicFamily, symbolic_local_finiteness
from .topology import FiniteSpace, SpaceMap, iter_bits, names_at

KINDS = (
    "space",
    "proset",
    "poset",
    "decomposition",
    "map",
    "order-on-strata",
    "symbolic-family",
)


class Document(NamedTuple):
    kind: str
    value: object


def load(text: str) -> Document:
    """Parse and validate one document."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from None
    except (ValueError, RecursionError) as exc:
        # an integer literal longer than int() converts, or nesting deeper
        # than the recursion limit
        raise ParseError(f"parse error: {exc}") from None
    return from_payload(payload)


def save(doc: Document) -> str:
    """Serialize one document canonically."""
    return canonical_json(payload_of(doc.value, kind=doc.kind))


def canonical_json(value: object) -> str:
    """``json.dumps(value, sort_keys=True, indent=2) + "\\n"``, written directly.

    ``value`` is a JSON tree of dicts with string keys, lists, tuples,
    strings, numbers, booleans and None (a list may be referenced more
    than once, but not contain itself); anything else is a TypeError.
    """
    out: list[str] = []
    _write(value, 0, out, {})
    out.append("\n")
    return "".join(out)


def _write(value: object, depth: int, out: list, lists: dict) -> None:
    """Append the text of ``value`` at ``depth`` to ``out``."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)):
        # a list's text depends only on its depth: build each one once
        key = (id(value), depth)
        text = lists.get(key)
        if text is None:
            text = lists[key] = _list_text(value, depth, lists)
        out.append(text)
    elif isinstance(value, dict):
        _write_dict(value, depth, out, lists)
    else:
        out.append(json.dumps(value))  # None, booleans, numbers; TypeError for the rest


def _list_text(items: list | tuple, depth: int, lists: dict) -> str:
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    if all(map(isinstance, items, repeat(str))):
        return ("[" + inner + ("," + inner).join(map(encode_basestring_ascii, items))
                + "\n" + "  " * depth + "]")
    out: list[str] = []
    sep = "[" + inner
    for item in items:
        out.append(sep)
        _write(item, depth + 1, out, lists)
        sep = "," + inner
    out.append("\n" + "  " * depth + "]")
    return "".join(out)


def _write_dict(table: dict, depth: int, out: list, lists: dict) -> None:
    if not table:
        out.append("{}")
        return
    inner = "\n" + "  " * (depth + 1)
    sep = "{" + inner
    for key in sorted(table):
        out += (sep, encode_basestring_ascii(key), ": ")
        _write(table[key], depth + 1, out, lists)
        sep = "," + inner
    out.append("\n" + "  " * depth + "}")


def from_payload(payload: object) -> Document:
    if not isinstance(payload, dict):
        raise ValidationError("document must be a JSON object")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"unknown document kind: {kind!r}")
    if kind == "space":
        return Document(kind, space_from_payload(payload, "space"))
    if kind in ("proset", "poset", "order-on-strata"):
        return Document(kind, _relation_from(payload, kind))
    if kind == "decomposition":
        return Document(kind, _decomposition_from(payload))
    if kind == "map":
        return Document(kind, _map_from(payload))
    return Document(kind, _symbolic_from(payload))


def payload_of(value: object, kind: str | None = None) -> dict:
    """Canonical JSON payload for a supported value."""
    if isinstance(value, FiniteSpace):
        return _space_payload(value)
    if isinstance(value, Decomposition):
        return _decomposition_payload(value)
    if isinstance(value, Poset):
        return _relation_payload(value, kind or "poset")
    if isinstance(value, Proset):
        return _relation_payload(value, kind or "proset")
    if isinstance(value, SpaceMap):
        return _map_payload(value)
    if isinstance(value, SymbolicFamily):
        return _symbolic_payload(value)
    raise ValidationError(f"cannot serialize value of type {type(value).__name__}")


# -- spaces -------------------------------------------------------------------


def _space_payload(space: FiniteSpace) -> dict:
    pts = sorted(space.points)
    # points sharing a minimal open (a strongly connected class) share one
    # sorted name list
    names = {row: sorted(names_at(space.points, row)) for row in set(space.min_open)}
    return {
        "kind": "space",
        "points": pts,
        "min_open": {p: names[space.min_open[space.point_index(p)]] for p in pts},
    }


def space_from_payload(payload: dict, what: str) -> FiniteSpace:
    """The space a payload describes: a space document, or a space nested
    in another document, where "kind" may be left out. Any other kind is
    refused, naming the payload ``what``."""
    if payload.get("kind", "space") != "space":
        raise ValidationError(f"{what} must be a space document")
    points = _string_list(payload, "points")
    has_min_open = "min_open" in payload
    has_subbasis = "subbasis" in payload
    if has_min_open == has_subbasis:
        raise ValidationError("space needs exactly one of min_open or subbasis")
    if has_min_open:
        table = payload["min_open"]
        if not isinstance(table, dict):
            raise ValidationError("min_open must be an object mapping points to point lists")
        return FiniteSpace.from_min_open(
            points, {k: _strings(v, f"min_open entry for {k!r}") for k, v in table.items()}
        )
    gens = payload["subbasis"]
    if not isinstance(gens, list):
        raise ValidationError("subbasis must be a list of point lists")
    return FiniteSpace.from_subbasis(points, [_strings(g, "subbasis entry") for g in gens])


# -- relations ------------------------------------------------------------------


def _relation_payload(p: Proset, kind: str) -> dict:
    els = sorted(p.elements)
    pairs = sorted(
        [a, p.elements[j]]
        for i, a in enumerate(p.elements)
        for j in iter_bits(p.up[i])
        if p.elements[j] != a
    )
    return {"kind": kind, "elements": els, "leq_pairs": pairs, "close": True}


def _relation_from(payload: dict, kind: str) -> Proset:
    elements = _string_list(payload, "elements")
    raw = payload.get("leq_pairs", [])
    if not isinstance(raw, list):
        raise ValidationError("leq_pairs must be a list of element pairs")
    pairs = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise ValidationError(f"leq_pairs entries must be pairs, got {item!r}")
        a, b = _strings(item, "leq_pairs entry")
        pairs.append((a, b))
    close = payload.get("close", True)
    if not isinstance(close, bool):
        raise ValidationError("close must be a boolean")
    cls = Poset if kind in ("poset", "order-on-strata") else Proset
    return cls.from_pairs(elements, pairs, close=close)


# -- decompositions ---------------------------------------------------------------


def _decomposition_payload(dec: Decomposition) -> dict:
    return {
        "kind": "decomposition",
        "space": _space_payload(dec.space),
        "strata": {
            sid: sorted(names_at(dec.space.points, mask)) for sid, mask in dec.strata
        },
    }


def _decomposition_from(payload: dict) -> Decomposition:
    ref = payload.get("space")
    if isinstance(ref, dict) and set(ref) == {"fixture"}:
        from .fixtures import fixture_space

        if not isinstance(ref["fixture"], str):
            raise ValidationError("fixture reference must be a fixture name")
        space = fixture_space(ref["fixture"])
    elif isinstance(ref, dict):
        space = space_from_payload(ref, "decomposition space")
    else:
        raise ValidationError("decomposition needs a space object or a fixture reference")
    strata = payload.get("strata")
    if not isinstance(strata, dict):
        raise ValidationError("strata must map stratum ids to point lists")
    return Decomposition.from_strata(
        space, {k: _strings(v, f"stratum {k!r}") for k, v in strata.items()}
    )


# -- maps --------------------------------------------------------------------------


def _map_payload(f: SpaceMap) -> dict:
    return {
        "kind": "map",
        "source": _space_payload(f.source),
        "target": _space_payload(f.target),
        "assignment": {
            p: f.target.points[t] for p, t in zip(f.source.points, f.assignment)
        },
    }


def _map_from(payload: dict) -> SpaceMap:
    source = space_from_payload(_subobject(payload, "source"), "source")
    target = space_from_payload(_subobject(payload, "target"), "target")
    assignment = payload.get("assignment")
    if not isinstance(assignment, dict) or not all(
        isinstance(v, str) for v in assignment.values()
    ):
        raise ValidationError("assignment must map source points to target points")
    return SpaceMap.from_names(source, target, assignment)


# -- symbolic families ---------------------------------------------------------------


def _symbolic_payload(fam: SymbolicFamily) -> dict:
    return {
        "kind": "symbolic-family",
        "tag": fam.tag,
        "locally_finite_space": fam.locally_finite_space,
        "locally_finite_poset": fam.locally_finite_poset,
        "space_reason": fam.space_reason,
        "poset_reason": fam.poset_reason,
    }


def _symbolic_from(payload: dict) -> SymbolicFamily:
    tag = payload.get("tag")
    if not isinstance(tag, str):
        raise ValidationError(f"symbolic family tag must be a string, got {tag!r}")
    fam = symbolic_local_finiteness(tag)
    for key in ("locally_finite_space", "locally_finite_poset"):
        if key in payload and not isinstance(payload[key], bool):
            raise ValidationError(f"{key} must be a boolean")
        if key in payload and payload[key] != getattr(fam, key):
            raise ValidationError(f"symbolic family {tag!r} disagrees with the catalog on {key}")
    return fam


# -- shared helpers --------------------------------------------------------------------


def _strings(value: object, what: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; anything else is a ValidationError
    (a bare string is not read as a list of its characters)."""
    if isinstance(value, list):
        try:
            "".join(value)  # one C pass; a TypeError on any non-string item
        except TypeError:
            pass
        else:
            return tuple(value)
    raise ValidationError(f"{what} must be a list of strings, got {value!r}")


def _string_list(payload: dict, key: str) -> tuple[str, ...]:
    return _strings(payload.get(key), key)


def _subobject(payload: dict, key: str) -> dict:
    value = payload.get(key)
    if not isinstance(value, dict):
        raise ValidationError(f"{key} must be an object")
    return value

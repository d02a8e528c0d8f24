"""Graphviz DOT export for orders and decompositions.

Posets render as their Hasse diagram, drawn bottom-to-top. Preorders with
two-cycles render the Hasse diagram of their reflection between class
representatives, plus dashed undirected edges joining mutually comparable
elements. Decompositions render their strata as nodes labeled with the
classification flags, connected along the decomposition preorder.
"""

from __future__ import annotations

from .decomposition import Decomposition, classify
from .errors import ValidationError
from .order import Poset, Proset
from .topology import names_at


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _relation_lines(p: Proset) -> list[str]:
    lines = [f"  {_quote(e)};" for e in sorted(p.elements)]
    poset, q = p.reflection()
    for a, b in poset.hasse():
        lines.append(f"  {_quote(a)} -> {_quote(b)};")
    for fiber in q._fibers:  # the classes of mutual comparability
        members = sorted(names_at(p.elements, fiber))
        for a, b in zip(members, members[1:]):
            lines.append(f"  {_quote(a)} -> {_quote(b)} [dir=none, style=dashed];")
    return lines


def export_dot(value) -> str:
    """Render a poset, preorder, or decomposition as DOT text."""
    lines = ["digraph {", '  rankdir="BT";']
    if isinstance(value, (Poset, Proset)):
        lines.extend(_relation_lines(value))
    elif isinstance(value, Decomposition):
        report = classify(value)
        locally_closed = dict(report.locally_closed)
        lines.append(f'  label="verdict: {report.verdict()}";')
        for sid, mask in value.strata:
            size = mask.bit_count()
            flag = "locally closed" if locally_closed[sid] else "not locally closed"
            label = f"{sid}\\n{size} pt{'s' if size != 1 else ''}, {flag}"
            lines.append(f'  {_quote(sid)} [label="{label}"];')
        lines.extend(
            line
            for line in _relation_lines(value.preorder)
            if "->" in line  # nodes already emitted with labels
        )
    else:
        raise ValidationError(f"cannot export value of type {type(value).__name__}")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Import contract: each CLI command imports only the modules it runs, the
classification core only for a document that passes its shape checks, and
the package's lazy exports (PEP 562) behave as eager ones did.

Every check runs in a fresh interpreter, since this process has imported
the whole package long before these tests run.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stratkit
from stratkit import ValidationError, fixture, load, save
from test_documents import (
    FIRST_ERROR_PAYLOADS, MALFORMED_TEXTS, RELATION_VALUE_PAYLOADS, STRING_LIST_PAYLOADS,
)

SRC = str(Path(stratkit.__file__).resolve().parents[1])
# the modules that no command of the check family runs
OPTIONAL = ("stratkit.dot", "stratkit.fixtures", "stratkit.generate", "stratkit.oracle")
EXPORTS = [
    "AgreementReport", "ClassificationReport", "Decomposition", "Document", "FaceModel",
    "FiniteSpace", "Fixture", "InternalInvariantError", "MonotoneMap", "OrderCheck",
    "ParseError", "Poset", "PosetStratification", "PreconditionError", "Proset",
    "SemicontinuityReport", "SpaceMap", "SplitMix64", "StratificationVerdict", "SweepReport",
    "SymbolicFamily", "ValidationError", "Verdict", "adjunction_roundtrips", "alexandrov_space",
    "as_poset_stratified", "classify", "compatible_orders", "enumerate_partitions",
    "enumerate_posets", "enumerate_prosets", "exhaustive_verify", "export_dot",
    "face_poset_model", "final_topology", "fixture", "fixture_names", "generate", "load", "save",
    "singleton_local_closure_check", "specialization_preorder", "strict_refinements_never_open",
    "stratification_from_open_map", "symbolic_local_finiteness",
]

# ``python -m stratkit ARGS`` with its stdout swallowed; prints the exit
# code, the OPTIONAL modules the run left loaded, and whether it loaded
# ``dataclasses`` (judged against the modules loaded at interpreter start,
# which ``site`` may have filled)
RUN_CLI = f"""
import sys
start = set(sys.modules)
import contextlib, io, json, runpy
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("stratkit", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
added = set(sys.modules) - start
print(json.dumps([code, sorted(m for m in added if m in {OPTIONAL!r}), "dataclasses" in added]))
"""


def fresh_python(code: str, *args: str, stdin: str | None = None):
    """Run ``code`` in a new interpreter, ``stdin`` on its standard input;
    the JSON value it prints last."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, input=stdin, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def quadrant_doc(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("imports") / "quadrant_4.json"
    path.write_text(save(fixture("quadrant_4").document), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["check", "{doc}"], []),
        (["check", "{doc}", "--format", "json"], []),
        (["classify", "{doc}", "--expect", "stratification"], []),
        (["quotient", "{doc}"], []),
        (["preorder", "{doc}"], []),
        (["coarsen", "{doc}"], []),
        (["preorder", "{doc}", "--dot"], ["stratkit.dot"]),
        (["export-dot", "{doc}"], ["stratkit.dot"]),
        (["verify", "--exhaustive", "--points", "2"], ["stratkit.oracle"]),
        (["fixture", "show", "line_3"], ["stratkit.fixtures"]),
        (["gen", "--kind", "partition", "--n", "5", "--seed", "11", "--blocks", "2"],
         ["stratkit.generate"]),
    ],
    ids=["check", "check-json", "classify-expect", "quotient", "preorder", "coarsen",
         "preorder-dot", "export-dot", "verify", "fixture-show", "gen"],
)
def test_commands_import_only_what_they_run(quadrant_doc, argv, loaded):
    """Each command loads only the optional modules it runs, and none loads
    ``dataclasses``, which imports ``inspect``."""
    args = [a.format(doc=quadrant_doc) for a in argv]
    assert fresh_python(RUN_CLI, *args) == [0, loaded, False]


# the stratkit modules every command of the check family loads
CHECK_FAMILY = ["stratkit", "stratkit.cli", "stratkit.decomposition", "stratkit.documents",
                "stratkit.errors", "stratkit.kernel", "stratkit.order", "stratkit.topology"]
# RUN_CLI, printing every stratkit module the run loaded
RUN_CLI_STRATKIT = RUN_CLI.replace(f"m in {OPTIONAL!r}", "m.partition('.')[0] == 'stratkit'")


@pytest.mark.parametrize("argv", [["check", "{doc}"], ["classify", "{doc}"], ["coarsen", "{doc}"]],
                         ids=["check", "classify", "coarsen"])
def test_check_family_loads_the_kernel_and_nothing_more(quadrant_doc, argv):
    args = [a.format(doc=quadrant_doc) for a in argv]
    assert fresh_python(RUN_CLI_STRATKIT, *args) == [0, CHECK_FAMILY, False]


# the stratkit modules a command loads before it reads its document
CLI_ONLY = ["stratkit", "stratkit.cli", "stratkit.documents", "stratkit.errors"]
# the malformed documents of the cli-check benchmark -> the stratkit modules
# ``check`` loads on them before it exits 2: the core only for a document
# that names a known fixture, whose entry is built from the core; an
# unknown fixture name is refused by the catalog's name table alone
MALFORMED_DOCUMENTS = {
    "truncated-json": ('{"kind": "space", "points": ["a"]', CLI_ONLY),
    "unknown-kind": ('{"kind": "manifold"}', CLI_ONLY),
    "subbasis-non-string": ('{"kind":"space","points":["a"],"subbasis":["a",3]}', CLI_ONLY),
    "symbolic-tag-list": ('{"kind":"symbolic-family","tag":[]}', CLI_ONLY),
    "strata-not-covering": (
        '{"kind": "decomposition", "space": {"fixture": "line_3"},'
        ' "strata": {"S0": ["m"], "S1": ["p"]}}',
        sorted([*CHECK_FAMILY, "stratkit.fixtures"]),
    ),
    "unknown-fixture": (
        '{"kind": "decomposition", "space": {"fixture": "torus"}, "strata": {}}',
        sorted([*CLI_ONLY, "stratkit.fixtures"]),
    ),
}


@pytest.mark.parametrize("via", ["file", "stdin"])
@pytest.mark.parametrize("text, loaded", MALFORMED_DOCUMENTS.values(), ids=MALFORMED_DOCUMENTS)
def test_a_malformed_document_loads_the_core_only_to_build_a_value(tmp_path, via, text, loaded):
    if via == "file":
        path = tmp_path / "malformed.json"
        path.write_text(text, encoding="utf-8")
        argv, stdin = ["check", str(path), "--format", "json"], None
    else:
        argv, stdin = ["check", "-", "--format", "json"], text
    assert fresh_python(RUN_CLI_STRATKIT, *argv, stdin=stdin) == [2, loaded, False]


def test_load_of_a_truncated_text_loads_no_core_module():
    code = """
import json, sys
import stratkit
try:
    stratkit.load('{"kind": "space", "points": ["a"]')
except stratkit.ParseError:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "stratkit")))
"""
    assert fresh_python(code) == ["stratkit", "stratkit.documents", "stratkit.errors"]


# ``load`` of the text on stdin (a JSON object: the text, and whether to pass
# it as bytes) in a fresh interpreter; prints the stratkit modules loaded
# before the call and the error it raised
LOAD_FRESH = """
import json, sys
from stratkit.documents import load
spec = json.loads(sys.stdin.read())
text = spec["text"].encode("utf-8") if spec["bytes"] else spec["text"]
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "stratkit")
try:
    load(text)
    error = None
except Exception as exc:
    error = [type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "column", None)]
print(json.dumps([loaded, error]))
"""
PARITY_TEXTS = {
    **{f"text-{key}": text for key, text in MALFORMED_TEXTS.items()},
    **{f"payload-{key}": json.dumps(payload)
       for table in (STRING_LIST_PAYLOADS, FIRST_ERROR_PAYLOADS, RELATION_VALUE_PAYLOADS)
       for key, (payload, _) in table.items()},
}


@pytest.mark.parametrize("text", PARITY_TEXTS.values(), ids=PARITY_TEXTS)
def test_load_errors_do_not_depend_on_the_modules_loaded(text):
    """Each malformed text gives the same error, message, line and column
    when loaded before the core is imported as when loaded here, where
    the whole package is."""
    with pytest.raises(ValidationError) as exc:
        load(text)
    here = [type(exc.value).__name__, str(exc.value), getattr(exc.value, "line", None),
            getattr(exc.value, "column", None)]
    is_bytes = isinstance(text, bytes)
    spec = json.dumps({"text": text.decode("utf-8") if is_bytes else text, "bytes": is_bytes})
    assert fresh_python(LOAD_FRESH, stdin=spec) == [
        ["stratkit", "stratkit.documents", "stratkit.errors"], here,
    ]


def test_kernel_imports_no_other_stratkit_module():
    code = """
import json, sys
import stratkit.kernel
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "stratkit")))
"""
    assert fresh_python(code) == ["stratkit", "stratkit.kernel"]


def test_core_modules_use_the_kernel_objects():
    # each kernel routine a module binds is the one ``stratkit.kernel`` defines
    code = """
import importlib, inspect, json
from stratkit import kernel
routines = [name for name, value in vars(kernel).items()
            if inspect.isfunction(value) and value.__module__ == "stratkit.kernel"]
used, foreign = {}, []
for module in ("topology", "order", "decomposition", "documents", "dot", "generate", "oracle"):
    namespace = vars(importlib.import_module(f"stratkit.{module}"))
    used[module] = sorted(name for name in routines if name in namespace)
    foreign += [f"{module}.{name}" for name in used[module]
                if namespace[name] is not vars(kernel)[name]]
print(json.dumps([foreign, used]))
"""
    foreign, used = fresh_python(code)
    assert foreign == []
    assert used["topology"] == [
        "first_intransitive", "iter_bits", "min_open_rows", "names_at", "preimage_of",
        "preimages_of", "transpose",
    ]
    assert {"preimages_of", "reflexive_transitive_closure"} <= set(used["decomposition"])


def test_all_is_unchanged():
    assert stratkit.__all__ == EXPORTS


def test_import_loads_no_submodule():
    code = """
import json, sys, stratkit
print(json.dumps([m for m in sys.modules if m.startswith("stratkit.")]))
"""
    assert fresh_python(code) == []


def test_exports_are_the_defining_modules_objects():
    code = """
import importlib, json, stratkit
print(json.dumps([
    name for name, module in stratkit._EXPORTS.items()
    if getattr(stratkit, name) is not getattr(importlib.import_module(f"stratkit.{module}"), name)
]))
"""
    assert fresh_python(code) == []


def test_generate_stays_the_function_after_its_submodule_is_imported():
    code = """
import json, sys
import stratkit.generate
import stratkit
print(json.dumps(stratkit.generate is sys.modules["stratkit.generate"].generate))
"""
    assert fresh_python(code) is True


def test_dir_lists_every_export_before_first_use():
    code = "import json, stratkit; print(json.dumps(dir(stratkit)))"
    assert set(EXPORTS) <= set(fresh_python(code))


def test_star_import_binds_every_export():
    code = """
import json
namespace = {}
exec("from stratkit import *", namespace)
print(json.dumps(sorted(set(namespace) - {"__builtins__"})))
"""
    assert fresh_python(code) == sorted(EXPORTS)


def test_no_export_is_an_alias_of_another():
    # each exported object has one public name
    names_by_object: dict[int, list[str]] = {}
    for name in stratkit.__all__:
        names_by_object.setdefault(id(getattr(stratkit, name)), []).append(name)
    aliases = sorted(name for names in names_by_object.values() if len(names) > 1 for name in names)
    assert aliases == []


def test_submodules_import_and_resolve_as_attributes():
    code = """
import json
import stratkit.oracle
import stratkit
print(json.dumps([
    stratkit.oracle.exhaustive_verify is stratkit.exhaustive_verify,
    stratkit.topology.MAX_POINTS,
]))
"""
    assert fresh_python(code) == [True, 20]


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'stratkit' has no attribute 'nope'$"):
        stratkit.nope  # noqa: B018
    with pytest.raises(ImportError):
        from stratkit import nope  # noqa: F401


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of ``source`` bind and the
    module never reads, ``from __future__`` imports aside. A name counts as
    read where the module loads it as a variable (``topology`` in
    ``topology.MAX_POINTS`` too)."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_import_guard_sees_an_unused_name():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(e)\n") == ["os", "c"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_every_module_level_import_is_used():
    package = Path(stratkit.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def stdlib_memo_uses(source: str) -> list[int]:
    """The lines of ``source`` that name ``functools.cached_property``: an
    import of it from ``functools``, or the attribute on that module."""
    tree = ast.parse(source)
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        and any(alias.name == "cached_property" for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "cached_property"
        and isinstance(node.value, ast.Name) and node.value.id == "functools"
    )


def test_stdlib_memo_guard_sees_both_spellings():
    source = "import functools\nfrom functools import cached_property\nfunctools.cached_property\n"
    assert stdlib_memo_uses(source) == [2, 3]


def test_the_stdlib_memo_is_named_only_by_the_one_descriptor():
    # every memoised field uses ``topology.cached_property``, which takes no
    # lock; the stdlib descriptor appears once, as the base it subclasses
    package = Path(stratkit.__file__).parent
    uses = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := stdlib_memo_uses(path.read_text(encoding="utf-8")))
    }
    assert list(uses) == ["topology.py"] and len(uses["topology.py"]) == 1
    definition = next(
        node for node in ast.parse((package / "topology.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and node.name == "cached_property"
    )
    assert uses["topology.py"] == [definition.bases[0].lineno]


def unbounded_memos(source: str) -> list[int]:
    """The lines of ``source`` that name ``functools.cache`` (imported from
    ``functools`` or read on it) or an ``lru_cache`` that is not called with
    an integer ``maxsize``: a memo that keeps every result it is given."""
    tree = ast.parse(source)
    bounded = set()  # the lru_cache nodes called with an integer maxsize
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int):
                bounded.add(node.func)
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        and any(alias.name == "cache" for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "cache"
        and isinstance(node.value, ast.Name) and node.value.id == "functools"
        or (isinstance(node, ast.Name) and node.id == "lru_cache"
            or isinstance(node, ast.Attribute) and node.attr == "lru_cache")
        and node not in bounded
    )


def test_unbounded_memo_guard_sees_each_spelling():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.cache\ndef a(): pass\n"
        "@lru_cache(maxsize=None)\ndef b(): pass\n"
        "@lru_cache\ndef c(): pass\n"
        "@functools.lru_cache(maxsize=4)\ndef d(): pass\n"
        "@lru_cache(8)\ndef e(): pass\n"
        "@lru_cache(maxsize=True)\ndef f(): pass\n"
    )
    assert unbounded_memos(source) == [2, 3, 5, 7, 13]


def test_the_library_holds_no_unbounded_memo():
    # a process-wide memo with no bound keeps what one call computed for the
    # life of the process: the oracle's labeled enumerations are built by
    # the call that reads them instead
    package = Path(stratkit.__file__).parent
    unbounded = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := unbounded_memos(path.read_text(encoding="utf-8")))
    }
    assert unbounded == {}

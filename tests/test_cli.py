from __future__ import annotations

import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_main
from stratkit import Decomposition, face_poset_model, fixture, fixture_names, load, save, topology
from stratkit.cli import main
from stratkit.documents import KINDS, Document


def run(capsys, argv, stdin: str | None = None, monkeypatch=None) -> tuple[int, str, str]:
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fixture(tmp_path, name: str) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(save(fixture(name).document), encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_classify_expect_mismatch_is_exit_1(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "line_3")
        code, out, _ = run(capsys, ["classify", path, "--expect", "stratification"])
        assert code == 1
        assert "frontier condition fails" in out

    def test_classify_expect_match_is_exit_0(self, capsys, monkeypatch):
        text = save(fixture("quadrant_4").document)
        code, out, _ = run(
            capsys,
            ["classify", "-", "--expect", "stratification"],
            stdin=text,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.startswith("verdict: stratification")

    def test_verify_three_points(self, capsys):
        code, out, _ = run(capsys, ["verify", "--exhaustive", "--points", "3"])
        assert code == 0
        assert "145 instances, 0 failures" in out

    def test_parse_error_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops", encoding="utf-8")
        code, _, err = run(capsys, ["classify", str(path)])
        assert code == 2
        assert "parse error" in err

    def test_unknown_fixture_is_exit_2(self, capsys):
        code, _, err = run(capsys, ["fixture", "show", "nope"])
        assert code == 2
        assert "unknown fixture" in err

    def test_unknown_flag_is_exit_2(self, capsys):
        code, _, _ = run(capsys, ["classify", "x.json", "--frobnicate"])
        assert code == 2

    def test_missing_file_is_exit_2(self, capsys):
        code, _, err = run(capsys, ["classify", "/does/not/exist.json"])
        assert code == 2
        assert "cannot read" in err

    def test_wrong_document_kind_is_exit_2(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "sierpinski")
        code, _, err = run(capsys, ["classify", path])
        assert code == 2
        assert "expected a decomposition" in err

    def test_theorem_a_rejection_is_exit_1(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "line_3")
        code, _, err = run(capsys, ["theorem-a", path])
        assert code == 1
        assert "frontier condition fails" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind":"space","points":["a"],"subbasis":["a",3]}',
            '{"kind":"symbolic-family","tag":[]}',
            '{"kind":"space","points":["a"],"min_open":{"a":"a"}}',
            '{"kind":"poset","elements":["a","b"],"leq_pairs":[["a",["b"]]]}',
            '{"kind":"decomposition","space":{"fixture":[]},"strata":{}}',
            '{"kind":"decomposition","space":{"fixture":"line_3"},'
            '"strata":{"S":[["m"]],"T":["z","p"]}}',
            '{"kind":"map","source":{"points":["a"],"min_open":{"a":["a"]}},'
            '"target":{"points":["b"],"min_open":{"b":["b"]}},"assignment":{"a":["b"]}}',
        ],
        ids=[
            "subbasis-non-list-entry",
            "symbolic-tag-list",
            "min-open-bare-string",
            "leq-pair-nested-list",
            "fixture-reference-list",
            "stratum-nested-list",
            "map-assignment-list",
        ],
    )
    def test_mistyped_document_values_are_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "mistyped.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["check", str(path), "--format", "json"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert "expected a decomposition" not in err  # refused while loading

    def test_env_override_ends_with_the_invocation(self, capsys, monkeypatch, quadrant_4):
        default = topology.MAX_POINTS
        monkeypatch.setattr(topology, "MAX_POINTS", default)  # undone even if this fails
        monkeypatch.setenv("STRATKIT_MAX_POINTS", "2")
        assert run(capsys, ["fixture", "list"])[0] == 0
        monkeypatch.delenv("STRATKIT_MAX_POINTS")
        assert topology.MAX_POINTS == default
        assert len(quadrant_4.quotient_open_family()) > 0  # k = 4 is within the guard again

    def test_env_override_lifts_only_the_verify_bound(self, capsys, monkeypatch):
        monkeypatch.delenv("STRATKIT_MAX_POINTS", raising=False)
        argv = ["verify", "--exhaustive", "--points", "3"]
        code, plain, _ = run(capsys, argv)
        assert code == 0
        monkeypatch.setenv("STRATKIT_MAX_POINTS", "2")  # below the sweep's own bound of 4
        assert run(capsys, argv) == (0, plain, "")

    def test_bad_env_override_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("STRATKIT_MAX_POINTS", "many")
        code, _, err = run(capsys, ["fixture", "list"])
        assert code == 2
        assert "STRATKIT_MAX_POINTS" in err


class TestSubcommands:
    def test_check_text(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "pseudo_circle_4")
        code, out, _ = run(capsys, ["check", path])
        assert code == 0
        assert "verdict: alexandrov" in out
        assert "label=neither" in out

    def test_check_json_is_loadable(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "line_3")
        code, out, _ = run(capsys, ["check", path, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "poset-stratified"
        assert payload["semicontinuity"]["label"] == "upper-semicontinuous"

    def test_quotient_round_trips(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "line_3")
        code, out, _ = run(capsys, ["quotient", path])
        assert code == 0
        space = load(out).value
        assert space.minimal_open("S0") == {"S0", "S1"}
        assert space.minimal_open("S1") == {"S1"}

    def test_preorder_document(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "line_3")
        code, out, _ = run(capsys, ["preorder", path])
        assert code == 0
        assert load(out).value.leq("S0", "S1")

    def test_preorder_dot(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "quadrant_4")
        code, out, _ = run(capsys, ["preorder", path, "--dot"])
        assert code == 0
        assert out.startswith("digraph {") and '"0" -> "1";' in out

    def test_coarsen(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "pseudo_circle_4")
        code, out, _ = run(capsys, ["coarsen", path])
        assert code == 0
        payload = json.loads(out)
        assert list(payload["decomposition"]["strata"]) == ["S1"]
        assert payload["order"]["elements"] == ["S1"]

    def test_theorem_a_emits_the_order(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "quadrant_4")
        code, out, _ = run(capsys, ["theorem-a", path])
        assert code == 0
        order = load(out).value
        assert order.leq("0", "3") and not order.leq("1", "2")

    def test_theorem_b_accepts_the_diamond(self, capsys, tmp_path):
        dec_path = write_fixture(tmp_path, "quadrant_4")
        order = {
            "kind": "order-on-strata",
            "elements": ["0", "1", "2", "3"],
            "leq_pairs": [["0", "1"], ["0", "2"], ["1", "3"], ["2", "3"]],
            "close": True,
        }
        order_path = tmp_path / "diamond.json"
        order_path.write_text(json.dumps(order), encoding="utf-8")
        code, out, _ = run(capsys, ["theorem-b", dec_path, str(order_path)])
        assert code == 0
        assert "stratification confirmed" in out

    def test_theorem_b_rejects_the_chain(self, capsys, tmp_path):
        dec_path = write_fixture(tmp_path, "quadrant_4")
        order = {
            "kind": "order-on-strata",
            "elements": ["0", "1", "2", "3"],
            "leq_pairs": [["0", "1"], ["1", "2"], ["2", "3"]],
            "close": True,
        }
        order_path = tmp_path / "chain.json"
        order_path.write_text(json.dumps(order), encoding="utf-8")
        code, _, err = run(capsys, ["theorem-b", dec_path, str(order_path)])
        assert code == 1
        assert "not an open map" in err

    def test_theorem_b_rejects_non_continuous_orders(self, capsys, tmp_path):
        dec_path = write_fixture(tmp_path, "line_3")
        order = {
            "kind": "order-on-strata",
            "elements": ["S0", "S1"],
            "leq_pairs": [["S1", "S0"]],
            "close": True,
        }
        order_path = tmp_path / "inverted.json"
        order_path.write_text(json.dumps(order), encoding="utf-8")
        code, out, _ = run(capsys, ["theorem-b", dec_path, str(order_path)])
        assert code == 1
        assert "not continuous" in out

    def test_fixture_list(self, capsys):
        code, out, _ = run(capsys, ["fixture", "list"])
        assert code == 0
        assert out.splitlines() == sorted(out.splitlines())
        assert "quadrant_4" in out

    def test_fixture_show_symbolic(self, capsys):
        code, out, _ = run(capsys, ["fixture", "show", "nat_usual"])
        assert code == 0
        payload = json.loads(out)
        assert payload["locally_finite_poset"] is True
        assert payload["locally_finite_space"] is False

    def test_gen_preorder(self, capsys):
        code, out, _ = run(
            capsys,
            ["gen", "--kind", "preorder", "--n", "3", "--seed", "7", "--density", "0.5"],
        )
        assert code == 0
        assert load(out).kind == "proset"

    def test_export_dot(self, capsys, tmp_path):
        order = {
            "kind": "poset",
            "elements": ["0", "1", "2"],
            "leq_pairs": [["0", "1"], ["1", "2"]],
            "close": True,
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(order), encoding="utf-8")
        code, out, _ = run(capsys, ["export-dot", str(path)])
        assert code == 0
        assert '"0" -> "1";' in out and '"0" -> "2";' not in out

    def test_export_dot_octahedron_pointwise(self, capsys, tmp_path):
        # 26 strata: beyond any 2**k enumeration guard
        from stratkit import Decomposition, face_poset_model

        # one vertex from each antipodal pair {a, f}, {b, c}, {d, e}
        octahedron = face_poset_model(
            [(a, b, c) for a in "af" for b in "bc" for c in "de"]
        )
        doc = Document("decomposition", Decomposition.pointwise(octahedron.space))
        path = tmp_path / "octahedron.json"
        path.write_text(save(doc), encoding="utf-8")
        code, out, _ = run(capsys, ["export-dot", str(path)])
        assert code == 0
        assert 'label="verdict: stratification";' in out

    def test_verify_json(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--exhaustive", "--points", "2", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == 0 and payload["instances"] == 8


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, capsys, tmp_path):
        path = write_fixture(tmp_path, "quadrant_4")
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, ["check", path, "--format", "json"])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_gen_is_deterministic(self, capsys):
        argv = ["gen", "--kind", "partition", "--n", "5", "--seed", "11", "--blocks", "2"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_stdin_pipeline_matches_file_input(self, capsys, tmp_path, monkeypatch):
        text = save(fixture("line_3").document)
        path = write_fixture(tmp_path, "line_3")
        code_a, out_a, _ = run(capsys, ["preorder", path])
        code_b, out_b, _ = run(capsys, ["preorder", "-"], stdin=text, monkeypatch=monkeypatch)
        assert (code_a, out_a) == (code_b, out_b)


# -- exit-code contract under arbitrary input ---------------------------------------

FUZZ_COMMANDS = (
    ["check", "-"], ["check", "-", "--format", "json"], ["classify", "-"], ["quotient", "-"],
    ["preorder", "-", "--dot"], ["coarsen", "-"], ["export-dot", "-"], ["theorem-a", "-"],
)
DOCUMENT_KEYS = ("kind", "points", "min_open", "subbasis", "elements", "leq_pairs", "close",
                 "space", "strata", "fixture", "source", "target", "assignment", "tag",
                 "locally_finite_space", "locally_finite_poset")

_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.sampled_from(("a", "b", "m", "0", "S0", "")) | st.text(max_size=3))
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(DOCUMENT_KEYS) | st.text(max_size=3), kids,
                                    max_size=4)),
    max_leaves=12,
)
# an object that names a document kind reaches the per-kind loaders
DOCUMENT_LIKE = st.builds(lambda kind, rest: {**rest, "kind": kind}, st.sampled_from(KINDS),
                          st.dictionaries(st.sampled_from(DOCUMENT_KEYS), JSON_VALUES, max_size=4))


def _seed_payloads() -> list:
    docs = [fixture(name).document for name in fixture_names()]
    docs.append(Document("decomposition", face_poset_model((("a", "b"), ("b", "c"))).skeleton()))
    docs.append(Document("decomposition", Decomposition.pointwise(
        fixture("sierpinski").document.value)))
    payloads = [json.loads(save(doc)) for doc in docs]
    payloads.append({"kind": "decomposition", "space": {"fixture": "quadrant_4"},
                     "strata": {"A": ["0", "1"], "B": ["2", "3"]}})
    return payloads


SEED_PAYLOADS = _seed_payloads()


def _mutated(data, payload: dict) -> dict:
    """payload with one to three values replaced, dropped, copied or added,
    mostly deep inside (its kind is left alone: arbitrary values cover that)."""
    payload = copy.deepcopy(payload)
    for _ in range(data.draw(st.integers(1, 3))):
        node = payload
        while True:
            keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
            if node is payload:
                keys.remove("kind")
            if not keys:
                break
            key = data.draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and data.draw(st.integers(0, 3)):
                node = child
                continue
            action = data.draw(st.sampled_from(("replace", "drop", "copy", "add")))
            if action == "replace":
                node[key] = data.draw(JSON_VALUES)
            elif action == "drop":
                del node[key]
            elif action == "copy":
                node[key] = copy.deepcopy(node[data.draw(st.sampled_from(keys))])
            elif isinstance(node, dict):
                node[data.draw(st.sampled_from(DOCUMENT_KEYS) | st.text(max_size=3))] = \
                    copy.deepcopy(child)
            else:
                node.insert(key, copy.deepcopy(child))
            break
    return payload


def assert_contract(argv: list[str], text: str) -> None:
    # an exception escaping main fails the test with its traceback
    code, _, err = run_main(argv, text)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err


class TestExitCodeFuzz:
    @given(st.sampled_from(FUZZ_COMMANDS), JSON_VALUES | DOCUMENT_LIKE)
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_json_values(self, argv, value):
        assert_contract(argv, json.dumps(value))

    @given(st.sampled_from(FUZZ_COMMANDS), st.sampled_from(SEED_PAYLOADS), st.data())
    @settings(max_examples=250, deadline=None)
    def test_mutated_documents(self, argv, payload, data):
        assert_contract(argv, json.dumps(_mutated(data, payload)))

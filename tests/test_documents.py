from __future__ import annotations

import json
import math
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import test_save_golden
from stratkit import (
    Decomposition,
    FiniteSpace,
    ParseError,
    Poset,
    Proset,
    SpaceMap,
    SplitMix64,
    ValidationError,
    alexandrov_space,
    classify,
    export_dot,
    face_poset_model,
    fixture,
    fixture_names,
    generate,
    load,
    save,
    specialization_preorder,
)
from stratkit import documents, topology
from stratkit.documents import Document, canonical_json, from_payload
from stratkit.generate import _block_masks


class TestRoundTrips:
    def test_save_load_save_is_identity(self):
        text = save(fixture("line_3").document)
        doc = load(text)
        assert save(doc) == text
        assert isinstance(doc.value, Decomposition)
        assert len(doc.value.ids) == 2

    def test_subbasis_input_is_normalized(self):
        text = json.dumps(
            {"kind": "space", "points": ["c", "o"], "subbasis": [["o"]]}
        )
        doc = load(text)
        assert doc.value.minimal_open("c") == {"c", "o"}
        assert "min_open" in save(doc) and "subbasis" not in save(doc)

    @pytest.mark.parametrize("payload", [
        {"kind": "space", "points": ["a", "b"], "min_open": {"a": ["a"], "b": ["a", "b"]}},
        {"kind": "space", "points": ["c", "o"], "subbasis": [["o"]]},
        {"kind": "proset", "elements": ["a", "b"], "leq_pairs": [["a", "b"], ["b", "a"]]},
        {"kind": "poset", "elements": ["a", "b"], "leq_pairs": [["a", "b"]]},
    ], ids=["min-open", "subbasis", "proset", "poset"])
    def test_one_load_checks_the_names_once(self, monkeypatch, payload):
        calls = []
        checked_names = topology.checked_names

        def counted(*args):
            calls.append(args)
            return checked_names(*args)

        for module in ("stratkit.topology", "stratkit.order"):
            monkeypatch.setattr(f"{module}.checked_names", counted)
        load(json.dumps(payload))
        assert len(calls) == 1

    def test_canonical_output_is_sorted(self):
        a = save(Document("space", FiniteSpace.discrete(("b", "a"))))
        b = save(Document("space", FiniteSpace.discrete(("a", "b"))))
        assert a == b

    def test_all_fixtures_round_trip(self):
        for name in fixture_names():
            text = save(fixture(name).document)
            assert save(load(text)) == text

    def test_map_document_round_trip(self, sierpinski):
        f = SpaceMap.from_names(sierpinski, sierpinski, {"c": "c", "o": "o"})
        text = save(Document("map", f))
        doc = load(text)
        assert isinstance(doc.value, SpaceMap)
        assert save(doc) == text

    def test_proset_document_with_cycle(self):
        p = Proset.from_pairs(("i", "j"), [("i", "j"), ("j", "i")])
        doc = load(save(Document("proset", p)))
        assert doc.value.leq("i", "j") and doc.value.leq("j", "i")

    def test_order_on_strata_is_a_poset(self):
        text = json.dumps(
            {
                "kind": "order-on-strata",
                "elements": ["S0", "S1"],
                "leq_pairs": [["S0", "S1"]],
                "close": True,
            }
        )
        assert isinstance(load(text).value, Poset)

    def test_fixture_space_reference(self):
        text = json.dumps(
            {
                "kind": "decomposition",
                "space": {"fixture": "line_3"},
                "strata": {"A": ["m", "z", "p"]},
            }
        )
        dec = load(text).value
        assert dec.stratum("A") == {"m", "z", "p"}


# the document message tables: id -> (payload, the ValidationError message
# load gives for its JSON text)
STRING_LIST_PAYLOADS = {
    "bare-string": ({"kind": "space", "points": "ab", "min_open": {}},
                    "points must be a list of strings, got 'ab'"),
    "object": ({"kind": "space", "points": ["a"], "min_open": {"a": {"a": 1}}},
               "min_open entry for 'a' must be a list of strings, got {'a': 1}"),
    "number": ({"kind": "space", "points": ["a"], "subbasis": [7]},
               "subbasis entry must be a list of strings, got 7"),
    "null": ({"kind": "poset", "elements": [None]},
             "elements must be a list of strings, got [None]"),
    "bool": ({"kind": "space", "points": ["a"], "min_open": {"a": ["a", True]}},
             "min_open entry for 'a' must be a list of strings, got ['a', True]"),
    "int": ({"kind": "decomposition", "space": {"points": ["a"], "min_open": {"a": ["a"]}},
             "strata": {"S": [3]}},
            "stratum 'S' must be a list of strings, got [3]"),
    "nested-list": ({"kind": "space", "points": ["a"], "subbasis": [[["a"]]]},
                    "subbasis entry must be a list of strings, got [['a']]"),
    "float": ({"kind": "space", "points": ["a", 3.5], "min_open": {}},
              "points must be a list of strings, got ['a', 3.5]"),
    "unhashable": ({"kind": "space", "points": ["a"], "min_open": {"a": ["a", ["a"]]}},
                   "min_open entry for 'a' must be a list of strings, got ['a', ['a']]"),
}


def _abc_space(min_open: dict) -> dict:
    return {"kind": "space", "points": ["a", "b", "c"], "min_open": min_open}


FIRST_ERROR_PAYLOADS = {
    # every entry is type-checked before any name is looked up
    "non-string-after-unknown": (
        _abc_space({"a": ["a", "q"], "b": ["b", 3]}),
        "min_open entry for 'b' must be a list of strings, got ['b', 3]"),
    "unknown-in-second-list": (_abc_space({"a": ["a"], "b": ["b", "q", "r"], "c": ["a"]}),
                               "min_open mentions unknown point: 'q'"),
    # an unknown name in an earlier point's list, before a missing entry
    "unknown-before-missing": (_abc_space({"a": ["a"], "b": ["b", "q"]}),
                               "min_open mentions unknown point: 'q'"),
    "unknown-key": (_abc_space({"a": ["a"], "b": ["b"], "c": ["c"], "z": ["q"]}),
                    "min_open mentions unknown point: 'z'"),
    "missing-entry": (_abc_space({"a": ["a"], "c": ["c"]}),
                      "min_open missing entry for point 'b'"),
}
RELATION_VALUE_PAYLOADS = {
    "subbasis-not-a-list": ({"kind": "space", "points": ["a"], "subbasis": "a"},
                            "subbasis must be a list of point lists"),
    "leq-pairs-not-a-list": ({"kind": "proset", "elements": ["a"], "leq_pairs": {"a": "a"}},
                             "leq_pairs must be a list of element pairs"),
    "leq-pair-of-three": (
        {"kind": "proset", "elements": ["a", "b"], "leq_pairs": [["a", "b", "a"]]},
        "leq_pairs entries must be pairs, got ['a', 'b', 'a']"),
    "close-int": ({"kind": "proset", "elements": ["a"], "close": 1}, "close must be a boolean"),
}


class TestErrors:
    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            load("{not json")
        assert exc.value.line == 1 and exc.value.column is not None

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown document kind"):
            load(json.dumps({"kind": "homology"}))

    def test_overlapping_strata(self):
        text = json.dumps(
            {
                "kind": "decomposition",
                "space": {"fixture": "sierpinski"},
                "strata": {"A": ["c", "o"], "B": ["o"]},
            }
        )
        with pytest.raises(ValidationError, match="strata not disjoint"):
            load(text)

    def test_fixture_without_a_space_is_refused(self):
        # a symbolic-family fixture carries no finite space, whether a
        # decomposition document or the generator names it
        text = json.dumps(
            {"kind": "decomposition", "space": {"fixture": "nat_usual"}, "strata": {}}
        )
        with pytest.raises(ValidationError, match="fixture 'nat_usual' does not carry a space"):
            load(text)
        with pytest.raises(ValidationError, match="fixture 'nat_usual' does not carry a space"):
            generate("partition", 3, {"space": "nat_usual"}, seed=0)

    def test_a_nested_space_of_another_kind_is_refused(self, sierpinski):
        # a decomposition's space, either end of a map and the generator's
        # inline space share one reader: it takes a missing kind as "space"
        # and refuses any other, whatever the rest of the payload holds
        proset = {"kind": "proset", "elements": ["a", "b"]}
        space = json.loads(save(Document("space", sierpinski)))
        for spec in (proset, {**space, "kind": "proset"}):
            with pytest.raises(ValidationError, match="^space must be a space document$"):
                generate("partition", 2, {"space": spec}, seed=1)
        f = SpaceMap.identity(sierpinski)
        payload = json.loads(save(Document("map", f)))
        for end in ("source", "target"):
            with pytest.raises(ValidationError, match=f"^{end} must be a space document$"):
                load(json.dumps({**payload, end: {**payload[end], "kind": "proset"}}))
            kindless = {key: value for key, value in payload[end].items() if key != "kind"}
            assert load(json.dumps({**payload, end: kindless})).value == f
        text = json.dumps({"kind": "decomposition", "space": proset, "strata": {}})
        with pytest.raises(ValidationError, match="^decomposition space must be a space"):
            load(text)

    def test_space_needs_exactly_one_table(self):
        with pytest.raises(ValidationError, match="exactly one"):
            load(json.dumps({"kind": "space", "points": ["a"]}))

    def test_symbolic_family_must_match_catalog(self):
        with pytest.raises(ValidationError, match="disagrees with the catalog"):
            load(
                json.dumps(
                    {
                        "kind": "symbolic-family",
                        "tag": "NatUsual",
                        "locally_finite_space": True,
                    }
                )
            )

    def test_unknown_symbolic_tag_is_the_catalog_lookup_message(self):
        payload = {"kind": "symbolic-family", "tag": "NatReals"}
        with pytest.raises(ValidationError) as exc:
            load(json.dumps(payload))
        assert str(exc.value) == "unknown symbolic family tag: 'NatReals'"

    @pytest.mark.parametrize("key", ["locally_finite_space", "locally_finite_poset"])
    @pytest.mark.parametrize("convert", [int, float, str, lambda b: None, lambda b: [b]],
                             ids=["int", "float", "str", "null", "list"])
    def test_symbolic_family_answers_must_be_booleans(self, key, convert):
        # NatUsual: locally_finite_space false, locally_finite_poset true;
        # 0 and 1 compare equal to the catalog's answers but are not booleans
        payload = {"kind": "symbolic-family", "tag": "NatUsual"}
        catalog = load(json.dumps(payload)).value
        payload[key] = convert(getattr(catalog, key))
        with pytest.raises(ValidationError, match=f"^{key} must be a boolean$"):
            load(json.dumps(payload))
        payload[key] = getattr(catalog, key)
        assert load(json.dumps(payload)).value is catalog

    @pytest.mark.parametrize("payload, message", STRING_LIST_PAYLOADS.values(),
                             ids=STRING_LIST_PAYLOADS)
    def test_string_lists_reject_other_values(self, payload, message):
        # the messages are the ones the element-by-element check gave
        with pytest.raises(ValidationError) as exc:
            load(json.dumps(payload))
        assert str(exc.value) == message

    @pytest.mark.parametrize("payload, message", FIRST_ERROR_PAYLOADS.values(),
                             ids=FIRST_ERROR_PAYLOADS)
    def test_the_first_load_error_wins(self, payload, message):
        # the messages and their order are the ones the name-by-name lookup gave
        with pytest.raises(ValidationError) as exc:
            load(json.dumps(payload))
        assert str(exc.value) == message

    def test_string_subclass_names_are_accepted(self):
        # JSON text cannot carry a str subclass; a payload built in Python can
        class Name(str):
            pass

        a, b = Name("a"), Name("b")
        payload = {"kind": "space", "points": [a, b], "min_open": {a: [a], b: [b, a]}}
        space = from_payload(payload).value
        assert space == FiniteSpace.from_min_open("ab", {"a": "a", "b": "ba"})

    @pytest.mark.parametrize(
        "text",
        ['{"kind": 1' + "0" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
        ids=["integer-too-long", "nesting-too-deep"],
    )
    def test_texts_json_cannot_decode_are_parse_errors(self, text):
        with pytest.raises(ParseError, match="^parse error: "):
            load(text)

    @pytest.mark.parametrize("payload, message", RELATION_VALUE_PAYLOADS.values(),
                             ids=RELATION_VALUE_PAYLOADS)
    def test_malformed_subbasis_and_relation_values(self, payload, message):
        with pytest.raises(ValidationError) as exc:
            load(json.dumps(payload))
        assert str(exc.value) == message

    def test_only_text_is_loaded(self):
        with pytest.raises(ValidationError, match="^document must be JSON text, got int$"):
            load(3)


def _generated(n: int, degree: float, blocks: int, seed: int) -> Document:
    """A decomposition document shaped like the documents-bulk benchmark's."""
    space = alexandrov_space(generate("preorder", n, {"density": degree / n}, seed).value)
    return generate("partition", n, {"space": space, "blocks": blocks}, seed + 1)


# texts json cannot decode: each gives the same ParseError on both decoders
MALFORMED_TEXTS = {
    "empty": "",
    "blank": " \n ",
    "bare-word": "nope",
    "not-json": "{not json",
    "truncated-object": '{"kind": "space", "points": ["a"]',
    "truncated-array": '{"points": ["a", "b"',
    "unterminated-string": '{"points": ["a',
    "missing-colon": '{"kind" "space"}',
    "missing-comma-in-object": '{"kind": "space" "points": []}',
    "missing-comma-in-array": '{"points": ["a" "b"]}',
    "trailing-comma-in-object": '{"kind": "space",}',
    "trailing-comma-in-array": '{"points": ["a",]}',
    "single-quotes": "{'kind': 'space'}",
    "bad-escape": '{"points": ["\\q"]}',
    "control-character": '{"points": ["a\x01"]}',
    "extra-data": '{"kind": "space"} {}',
    "byte-order-mark": '﻿{"kind": "space"}',
    "value-missing-in-array": '{"points": [, "a"]}',
    "error-in-nested-array": '{"strata": {"S": [["a"], ["b" "c"]]}}',
    "bytes": b'{"kind": "space", "points": ["a"',
    "integer-too-long": '{"kind": 1' + "0" * 5000 + "}",
    "nesting-too-deep": "[" * 100_000 + "]" * 100_000,
}


class TestSharedStrings:
    """``load`` decodes a text of at least ``SHARED_STRINGS_CHARS``
    characters with one string object per distinct name; both decoders
    give the same documents and the same errors."""

    @staticmethod
    def both_ways(monkeypatch, text):
        """``load(text)`` with the shared-strings decoder forced off, then on:
        each result, or the text of each ParseError or ValidationError."""
        out = []
        for chars in (math.inf, 0):
            monkeypatch.setattr(documents, "SHARED_STRINGS_CHARS", chars)
            try:
                out.append(load(text))
            except (ParseError, ValidationError) as exc:
                out.append((type(exc).__name__, str(exc), getattr(exc, "line", None),
                            getattr(exc, "column", None)))
        return out

    @pytest.mark.parametrize("doc_id", sorted(test_save_golden.DOCUMENTS))
    def test_golden_documents_load_alike(self, monkeypatch, doc_id):
        text = save(test_save_golden.DOCUMENTS[doc_id]())
        plain, shared = self.both_ways(monkeypatch, text)
        assert plain == shared
        assert save(plain) == save(shared) == text

    @pytest.mark.parametrize("args", [(40, 0.5, 4, 3), (60, 2.0, 5, 4), (120, 3.0, 7, 5),
                                      (200, 2.0, 12, 6)])
    def test_generated_documents_load_alike(self, monkeypatch, args):
        doc = _generated(*args)
        for text in (save(doc), save(Document("space", doc.value.space)),
                     save(Document("proset", specialization_preorder(doc.value.space)))):
            plain, shared = self.both_ways(monkeypatch, text)
            assert plain == shared
            assert save(plain) == save(shared) == text

    @pytest.mark.parametrize("payload", [
        {"kind": "space", "points": ["a", "b"], "subbasis": [["a"], ["a", "b"], []]},
        {"kind": "space", "points": ["a"], "min_open": {"a": ["a", True, 1, 1.0, None]}},
        {"kind": "space", "points": ["a", "a"], "min_open": {"a": ["a"]}},
        {"kind": "proset", "elements": ["a", "b"], "leq_pairs": [["a", "b"], ["b", 1]]},
        {"kind": "map", "source": {"points": ["a"], "min_open": {"a": ["a"]}},
         "target": {"points": ["b"], "min_open": {"b": ["b"]}}, "assignment": {"a": "b"}},
    ], ids=["subbasis", "mixed-list", "duplicate-names", "bad-pair", "map"])
    def test_payloads_json_decodes_load_alike(self, monkeypatch, payload):
        plain, shared = self.both_ways(monkeypatch, json.dumps(payload))
        assert plain == shared

    @pytest.mark.parametrize("text", MALFORMED_TEXTS.values(), ids=MALFORMED_TEXTS)
    def test_malformed_texts_give_the_same_parse_error(self, monkeypatch, text):
        plain, shared = self.both_ways(monkeypatch, text)
        assert plain[0] == "ParseError"
        assert plain == shared

    def test_names_are_shared_objects(self, monkeypatch):
        monkeypatch.setattr(documents, "SHARED_STRINGS_CHARS", 0)
        payload = json.loads(save(_generated(60, 2.0, 5, 4)), cls=documents._SharedStrings)
        names = [name for row in payload["space"]["min_open"].values() for name in row]
        assert len(set(map(id, names))) == len(set(names)) < len(names)

    def test_a_dense_document_loads_in_little_more_than_its_text(self, monkeypatch):
        # json.loads builds one str per name occurrence, about 4 times the
        # text; the shared path measured 1.19 times on this document
        text = save(_generated(600, 2.0, 8, 7))
        assert len(text) > 3_000_000
        monkeypatch.setattr(documents, "SHARED_STRINGS_CHARS", 0)
        tracemalloc.start()
        try:
            load(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(text)


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=8))
_TREES = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=4)),
    max_leaves=24,
)


def _json_dumps_layout(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


class TestCanonicalWriter:
    @given(_TREES)
    @settings(max_examples=200, deadline=None)
    @example([])
    @example({})
    @example(())
    @example({"é": ["日本", "\U0001f600", '"', "\\", "\x00\n\x7f\u2028"], "a": [1.5, -0.0, 1e300]})
    @example({"nan": [float("nan"), float("inf"), -float("inf")], "t": (1, ("x",), [])})
    def test_matches_json_dumps(self, tree):
        assert canonical_json(tree) == _json_dumps_layout(tree)

    @given(st.lists(st.text(max_size=4), max_size=5) | st.lists(_TREES, max_size=3), _TREES)
    @settings(max_examples=100, deadline=None)
    def test_shared_list_at_two_depths_and_keys(self, shared, other):
        # one list object under two keys, at depths 1 and 3, next to a
        # list with the same items that is a different object
        tree = {"a": shared, "b": shared, "c": [{"d": shared, "e": other}], "f": list(shared)}
        assert canonical_json(tree) == _json_dumps_layout(tree)

    @pytest.mark.parametrize("tree", [{"a": [object()]}, {"a": {1: "x"}}, [{None: 0}]],
                             ids=["object", "int-key", "null-key"])
    def test_other_values_raise_type_error(self, tree):
        with pytest.raises(TypeError):
            canonical_json(tree)


class TestFixtureCatalog:
    def test_known_names(self):
        assert fixture_names() == (
            "chain_3",
            "line_3",
            "nat_discrete",
            "nat_opposite",
            "nat_usual",
            "pseudo_circle_4",
            "quadrant_4",
            "sierpinski",
            "two_point_discrete",
        )

    def test_unknown_fixture(self):
        with pytest.raises(ValidationError, match="unknown fixture"):
            fixture("nope")

    def test_pseudo_circle_shape(self):
        dec = fixture("pseudo_circle_4").document.value
        assert len(dec.space.points) == 4 and len(dec.ids) == 2

    def test_quadrant_shape(self):
        dec = fixture("quadrant_4").document.value
        assert len(dec.space.points) == 4 and len(dec.ids) == 4

    def test_notes_present(self):
        for name in fixture_names():
            assert fixture(name).notes

    def test_record_reprs(self):
        assert repr(fixture("sierpinski")) == (
            "Fixture(name='sierpinski', document=Document(kind='space', "
            "value=FiniteSpace(c:{c,o}, o:{o})), notes='Two points, one of them open and dense; "
            "the smallest non-discrete space.')"
        )
        assert repr(fixture("line_3").document) == (
            "Document(kind='decomposition', value=Decomposition(S0={m,z}, S1={p}))"
        )


class TestFacePosets:
    def test_single_edge(self):
        model = face_poset_model([("v0", "v1")])
        assert len(model.poset.elements) == 3
        assert model.poset.leq("v0", "v0,v1")
        assert model.poset.leq("v1", "v0,v1")

    def test_triangle_boundary_skeleton_is_a_stratification(self):
        model = face_poset_model([("A", "B"), ("B", "C"), ("A", "C")])
        assert len(model.poset.elements) == 6
        skeleton = model.skeleton()
        assert skeleton.ids == ("d0", "d1")
        assert skeleton.is_stratification()

    def test_single_vertex(self):
        model = face_poset_model([("v",)])
        assert model.space.points == ("v",)

    def test_empty_facet_rejected(self):
        with pytest.raises(ValidationError, match="empty facet"):
            face_poset_model([()])

    def test_facets_must_be_a_collection(self):
        with pytest.raises(ValidationError, match="^facets must be a collection of facets, got 3$"):
            face_poset_model(3)

    @pytest.mark.parametrize("facets", [
        [(1, 2)],  # not a string
        [("a,b", "c")],  # "," joins vertex names into face names
        [("a", "b"), ("a,b",)],  # a vertex named like the edge a,b
        [("", "a")],
        ["abc"],  # a string facet, not the triangle on a, b and c
    ])
    def test_malformed_vertex_names_rejected(self, facets):
        with pytest.raises(ValidationError, match="vertex names must be nonempty strings"):
            face_poset_model(facets)

    @pytest.mark.parametrize("facets", [
        # the boundaries of the simplices of dimension 1 to 6
        *(tuple(combinations([f"v{i}" for i in range(d + 1)], d)) for d in range(1, 7)),
        helpers.FACE_MODELS["octahedron"],
        helpers.FACE_MODELS["circle"],
    ])
    def test_covers_close_to_the_pair_filter_model(self, facets):
        poset = helpers.face_poset_by_pair_filter(facets)
        assert face_poset_model(facets) == (poset, alexandrov_space(poset))

    @given(st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "B", "a1"]), min_size=1),
        min_size=1, max_size=6,
    ))
    @settings(max_examples=80, deadline=None)
    def test_random_complexes_match_the_pair_filter_model(self, facets):
        poset = helpers.face_poset_by_pair_filter(facets)
        assert face_poset_model(facets) == (poset, alexandrov_space(poset))


class TestGenerate:
    def test_density_zero_is_discrete(self):
        doc = generate("preorder", 3, {"density": 0.0}, seed=99)
        p = doc.value
        assert all(not p.leq(a, b) for a in p.elements for b in p.elements if a != b)

    def test_density_one_is_indiscrete(self):
        doc = generate("preorder", 3, {"density": 1.0}, seed=99)
        p = doc.value
        assert all(p.leq(a, b) for a in p.elements for b in p.elements)

    def test_determinism(self):
        args = ("preorder", 4, {"density": 0.4}, 123456789)
        assert save(generate(*args)) == save(generate(*args))
        args = ("partition", 4, {"blocks": 2}, 42)
        assert save(generate(*args)) == save(generate(*args))

    def test_different_seeds_differ(self):
        texts = {save(generate("preorder", 4, {"density": 0.5}, s)) for s in range(20)}
        assert len(texts) > 1

    def test_partition_block_count_and_relabeling(self):
        dec = generate("partition", 6, {"blocks": 3}, seed=7).value
        assert len(dec.ids) == 3
        assert dec.ids == ("0", "1", "2")
        # canonical relabeling: block "0" owns the first point
        assert dec.pi(dec.space.points[0]) == "0"

    def test_partition_over_fixture_space(self):
        dec = generate("partition", 4, {"space": "quadrant_4", "blocks": 2}, seed=3).value
        assert set(dec.space.points) == {"0", "1", "2", "3"}
        assert len(dec.ids) == 2

    def test_invalid_params(self):
        with pytest.raises(ValidationError, match="density"):
            generate("preorder", 3, {"density": 1.5}, seed=0)
        with pytest.raises(ValidationError, match="blocks"):
            generate("partition", 3, {"blocks": 9}, seed=0)
        with pytest.raises(ValidationError, match="kind"):
            generate("lattice", 3, {}, seed=0)
        with pytest.raises(ValidationError, match="points but n="):
            generate("partition", 5, {"space": "quadrant_4"}, seed=0)
        with pytest.raises(ValidationError, match="^space must be a fixture name or a space payload$"):
            generate("partition", 2, {"space": 3}, seed=0)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("preorder", None, "params must be a Mapping, got NoneType"),
            ("partition", [("blocks", 2)], "params must be a Mapping, got list"),
            ("preorder", {"density": 0.5, "blocks": 2},
             "preorder generation reads only density, got 'blocks'"),
            ("preorder", {"space": "nope"}, "preorder generation reads only density, got 'space'"),
            ("partition", {"density": 0.5},
             "partition generation reads only space, blocks, got 'density'"),
        ],
    )
    def test_params_the_kind_does_not_read_are_refused(self, kind, params, message):
        with pytest.raises(ValidationError) as exc:
            generate(kind, 3, params, seed=1)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "kind, n, params, message",
        [
            ("preorder", True, {}, "n must"),
            ("partition", True, {}, "n must"),
            ("preorder", 3, {"density": True}, "density"),
            ("preorder", 3, {"density": False}, "density"),
            ("partition", 3, {"blocks": True}, "blocks"),
        ],
    )
    def test_bools_are_refused(self, kind, n, params, message):
        # bool is an int subclass: True would read as 1 point, density 1.0, 1 block
        with pytest.raises(ValidationError, match=message):
            generate(kind, n, params, seed=1)

    @pytest.mark.parametrize("seed", [None, 1.5, True, "1"], ids=["none", "float", "bool", "str"])
    def test_a_seed_that_is_not_a_plain_int_is_refused(self, seed):
        with pytest.raises(ValidationError) as exc:
            generate("preorder", 3, {}, seed)
        assert str(exc.value) == f"seed must be an integer, got {seed!r}"

    def test_generated_documents_validate(self):
        for seed in range(30):
            doc = generate("preorder", 4, {"density": 0.5}, seed)
            assert isinstance(doc.value, Proset)
            doc = generate("partition", 5, {}, seed)
            assert isinstance(doc.value, Decomposition)

    @pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025])
    @pytest.mark.parametrize("density", [0, 1, 0.5, 0.3, 2 / 1024, 1e-300, 5e-324])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 3**41])
    # the kernel works on blocks of eight rows: beside 0, 1 and 3 rows, a
    # block less a row, one block, a block and a row, two, two and a row
    @pytest.mark.parametrize("rows", [0, 1, 3, 7, 8, 9, 16, 17])
    def test_batched_flags_match_scalar_draws(self, rows, count, density, seed):
        batched, scalar = SplitMix64(seed), SplitMix64(seed)
        numerals = batched.next_flag_rows(rows, count, density)
        assert len(numerals) == rows
        for numeral in numerals:
            # digit j from the right is draw j of the row
            digits = bytes(b"01"[scalar.next_float() < density] for _ in range(count))
            assert numeral == digits[::-1]
        assert batched._state == scalar._state
        assert batched.next_u64() == scalar.next_u64()

    # one lane pass draws up to _CHUNK = 128 values
    @pytest.mark.parametrize("count", [0, 1, 2, 127, 128, 129, 256, 300])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 3**41])
    def test_batched_u64s_match_scalar_draws(self, count, seed):
        batched, scalar = SplitMix64(seed), SplitMix64(seed)
        assert batched.next_u64s(count) == [scalar.next_u64() for _ in range(count)]
        assert batched._state == scalar._state

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 129, 300])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 3**41])
    def test_batched_block_draws_match_shuffle_and_next_below(self, n, seed):
        for blocks in sorted({1, (n + 1) // 2, n}):
            batched, scalar = SplitMix64(seed), SplitMix64(seed)
            order = list(range(n))
            scalar.shuffle(order)
            masks = [1 << i for i in order[:blocks]]
            for i in order[blocks:]:
                masks[scalar.next_below(blocks)] |= 1 << i
            assert _block_masks(batched, n, blocks) == masks
            assert batched._state == scalar._state
            assert batched.next_u64() == scalar.next_u64()

    def test_partition_strata_are_built_as_masks(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generated strata were looked up by name")

        # the masks the draws give are the strata: no point is named and
        # looked up again
        monkeypatch.setattr(FiniteSpace, "mask_of", refuse)
        monkeypatch.setattr(Decomposition, "from_strata", refuse)
        dec = generate("partition", 300, {"blocks": 7}, 5).value
        monkeypatch.undo()
        assert dec == Decomposition.from_strata(
            dec.space, {sid: dec.space.names_of(mask) for sid, mask in dec.strata}
        )

    def test_generation_does_not_validate_again(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generated rows were checked again")

        # the one validator of names and rows lives in topology
        monkeypatch.setattr("stratkit.topology.first_intransitive", refuse)
        for module in ("stratkit.topology", "stratkit.order"):
            monkeypatch.setattr(f"{module}.checked_names", refuse)
        # the names "0".."n-1" and the closed rows already meet the invariants
        p = generate("preorder", 50, {"density": 0.05}, 11).value
        # and so do the default space of a partition and its names
        space = generate("partition", 50, {}, 11).value.space
        monkeypatch.undo()
        assert type(p) is Proset and p.up != tuple(1 << i for i in range(50))
        validated = Proset(p.elements, p.up)
        assert p == validated and hash(p) == hash(validated)
        assert space == FiniteSpace.discrete(map(str, range(50)))

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_generate_round_trips_through_documents(self, seed, n):
        doc = generate("preorder", n, {"density": 0.3}, seed)
        assert save(load(save(doc))) == save(doc)


class TestDotExport:
    def test_chain(self):
        p = Poset.from_pairs("012", [("0", "1"), ("1", "2")])
        text = export_dot(p)
        assert '"0" -> "1";' in text and '"1" -> "2";' in text
        assert '"0" -> "2";' not in text

    def test_quadrant_decomposition(self, quadrant_4):
        text = export_dot(quadrant_4)
        assert text.count("->") == 4
        assert "verdict: stratification" in text
        assert "locally closed" in text

    def test_antichain_has_nodes_only(self):
        text = export_dot(Poset.from_pairs(("a", "b"), []))
        assert '"a";' in text and "->" not in text

    def test_preorder_cycles_render_dashed(self, pseudo_circle_4):
        text = export_dot(pseudo_circle_4.preorder)
        assert "style=dashed" in text

    def test_determinism(self, quadrant_4):
        assert export_dot(quadrant_4) == export_dot(quadrant_4)

    def test_stratum_ids_are_escaped_in_labels(self, line_3):
        # a quote or a backslash in an id is escaped inside the label as in
        # the node id, and an id holding "->" gets its labeled node line only
        dec = Decomposition.from_strata(line_3.space, {'x"y': ["m", "z"], "c\\": ["p"]})
        assert export_dot(dec).splitlines()[3:6] == [
            '  "c\\\\" [label="c\\\\\\n1 pt, locally closed"];',
            '  "x\\"y" [label="x\\"y\\n2 pts, locally closed"];',
            '  "x\\"y" -> "c\\\\";',
        ]
        dec = Decomposition.from_strata(line_3.space, {"a->b": ["m", "z"], "q": ["p"]})
        assert export_dot(dec).splitlines()[3:] == [
            '  "a->b" [label="a->b\\n2 pts, locally closed"];',
            '  "q" [label="q\\n1 pt, locally closed"];',
            '  "a->b" -> "q";',
            "}",
        ]

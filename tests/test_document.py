"""The JSON space document format: parsing, errors, round trips."""

import json

import pytest

from pmkit import Poset, catalog, format_space, is_pm_isomorphic, parse_space
from pmkit.document import MAX_ELEMENTS
from pmkit.errors import BadParams, InvolutionBroken, ParseError


TWO_CHAIN = json.dumps(
    {"elements": ["x", "zx"], "leq": [["x", "zx"]], "zeta": [["x", "zx"]]}
)


def test_parse_two_chain():
    named = parse_space(TWO_CHAIN)
    assert named.space.n == 2
    assert named.space.poset.leq(0, 1)
    assert named.space.zeta == (1, 0)
    assert named.names == ("x", "zx")


def test_parse_zeta_as_permutation_array():
    doc = json.dumps(
        {"elements": ["x", "zx"], "leq": [["x", "zx"]], "zeta": ["zx", "x"]}
    )
    assert parse_space(doc).space.zeta == (1, 0)


def test_parse_full_relation_accepted():
    doc = json.dumps(
        {
            "elements": ["a", "b", "c"],
            "leq": [["a", "a"], ["a", "b"], ["b", "c"], ["a", "c"]],
            "zeta": [["a", "c"], ["b", "b"]],
        }
    )
    named = parse_space(doc)
    assert named.space.poset.height() == 2


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError) as err:
        parse_space("{not json")
    assert "position" in str(err.value)


def test_parse_rejects_missing_fields():
    with pytest.raises(ParseError):
        parse_space(json.dumps({"elements": ["a"], "leq": []}))


def test_parse_rejects_duplicate_names():
    with pytest.raises(ParseError):
        parse_space(
            json.dumps({"elements": ["a", "a"], "leq": [], "zeta": [["a", "a"]]})
        )


def test_parse_rejects_unknown_names():
    with pytest.raises(ParseError):
        parse_space(
            json.dumps({"elements": ["a"], "leq": [["a", "b"]], "zeta": [["a", "a"]]})
        )


def test_parse_rejects_partial_involution():
    with pytest.raises(ParseError):
        parse_space(
            json.dumps({"elements": ["a", "b"], "leq": [], "zeta": [["a", "a"]]})
        )


@pytest.mark.parametrize(
    "doc,message",
    [
        ([], "document must be a JSON object"),
        ({"elements": "ab", "leq": [], "zeta": []}, "elements must be a list of strings"),
        ({"elements": ["a"], "leq": {}, "zeta": ["a"]}, "leq must be a list of name pairs"),
        (
            {"elements": ["a"], "leq": [["a"]], "zeta": ["a"]},
            "leq entries must be pairs, got ['a']",
        ),
        (
            {"elements": ["a", "b"], "leq": [], "zeta": ["a"]},
            "zeta permutation array must list every element",
        ),
        (
            {"elements": ["a", "b"], "leq": [], "zeta": [["a", "b"], "a"]},
            "zeta entries must be pairs, got 'a'",
        ),
        (
            {"elements": ["a", "b", "c"], "leq": [], "zeta": [["a", "b"], ["a", "c"]]},
            "zeta assigns 'a' twice",
        ),
        (
            {"elements": ["a"], "leq": [], "zeta": {"a": "a"}},
            "zeta must be a list of pairs or a permutation array",
        ),
    ],
    ids=["not-an-object", "elements", "leq", "leq-entry", "zeta-array", "zeta-entry"]
    + ["zeta-twice", "zeta"],
)
def test_parse_names_the_malformed_field(doc, message):
    with pytest.raises(ParseError) as err:
        parse_space(json.dumps(doc))
    assert str(err.value) == message


def test_parse_surfaces_involution_break():
    doc = json.dumps(
        {
            "elements": ["a", "b", "c"],
            "leq": [],
            "zeta": ["b", "c", "a"],
        }
    )
    with pytest.raises(InvolutionBroken):
        parse_space(doc)


def test_parse_admits_a_document_at_the_element_cap():
    """Two-element chains x <= zx, swapped by zeta, up to the cap."""
    names = [f"e{i}" for i in range(MAX_ELEMENTS)]
    pairs = [[names[i], names[i + 1]] for i in range(0, MAX_ELEMENTS, 2)]
    named = parse_space(json.dumps({"elements": names, "leq": pairs, "zeta": pairs}))
    assert named.space.n == MAX_ELEMENTS
    assert named.space.zeta[:4] == (1, 0, 3, 2)
    assert parse_space(format_space(named.space, names)) == named


def test_parse_refuses_more_elements_than_the_cap_before_closing_the_order(monkeypatch):
    def refuse(*args):
        raise AssertionError("the order was closed")

    monkeypatch.setattr(Poset, "from_pairs", refuse)
    names = [f"e{i}" for i in range(MAX_ELEMENTS + 1)]
    doc = json.dumps({"elements": names, "leq": [], "zeta": names})
    message = f"^a document may list at most {MAX_ELEMENTS} elements, got {MAX_ELEMENTS + 1}$"
    with pytest.raises(ParseError, match=message):
        parse_space(doc)


def test_hand_written_crown_matches_catalog():
    space, names = catalog.named_space("crown:2")
    doc = {
        "elements": list(names),
        "leq": [
            [names[a], names[b]]
            for a in range(space.n)
            for b in range(space.n)
            if a != b and space.poset.leq(a, b)
        ],
        "zeta": [names[space.zeta[i]] for i in range(space.n)],
    }
    parsed = parse_space(json.dumps(doc))
    assert is_pm_isomorphic(parsed.space, space)


def test_round_trip(catalog_spaces):
    for name, space in catalog_spaces:
        if space.n > 10:
            continue
        text = format_space(space)
        parsed = parse_space(text)
        assert parsed.space == space  # same indices: covers regenerate the order
        assert is_pm_isomorphic(parsed.space, space)


def test_round_trip_with_custom_names():
    space = catalog.q(4)
    parsed = parse_space(format_space(space, ["x", "y", "zx", "zy"]))
    assert parsed.names == ("x", "y", "zx", "zy")
    assert parsed.space == space


@pytest.mark.parametrize(
    "names",
    [["x", "y", "zx"], ["x", "y", "zx", "zy", "w"], ["x", "y", "zx", "x"], ["x", "y", "zx", 3]],
    ids=["short", "extra", "duplicate", "non-string"],
)
def test_format_rejects_bad_names(names):
    with pytest.raises(BadParams, match="names must be 4 distinct strings"):
        format_space(catalog.q(4), names)

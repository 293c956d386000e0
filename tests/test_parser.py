"""Input language: parsing, validation errors, golden dumps."""

import json
import pathlib

import pytest

from nangulator.quiver import ParseError, SemanticError, parse_algebra

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_single_vertex_no_arrows():
    desc = parse_algebra('{"field": 5, "vertices": ["v"], "arrows": [], '
                         '"relations": []}')
    assert desc.field.characteristic == 5
    assert len(desc.quiver.vertices) == 1
    assert desc.quiver.arrows == []


def test_loop_algebra_minimal_relation():
    desc = parse_algebra(FIXTURES.joinpath("loop_p3.json").read_text())
    assert len(desc.relations) == 1
    assert desc.relations[0].terms == [(1, (0, 0))]


def test_preprojective_relations_are_parallel():
    desc = parse_algebra(FIXTURES.joinpath("preproj_a2.json").read_text())
    assert len(desc.relations) == 2
    for rel in desc.relations:
        assert all(len(path) == 2 for _, path in rel.terms)


def canonical_dump(desc):
    """Normalized structure of a parsed description, as the golden parser
    dumps store it."""
    q = desc.quiver
    return {
        "schema": "1",
        "field": desc.field.characteristic,
        "vertices": list(q.vertices),
        "arrows": [{"name": a.name, "from": q.vertices[a.source],
                    "to": q.vertices[a.target]} for a in q.arrows],
        "relations": [[{"coeff": c, "path": [q.arrows[i].name for i in path]}
                       for c, path in rel.terms]
                      for rel in desc.relations],
    }


@pytest.mark.parametrize("name", ["loop_p3", "nakayama_2_2", "preproj_a2"])
def test_golden_parse_dumps(name):
    desc = parse_algebra(FIXTURES.joinpath(f"{name}.json").read_text())
    got = json.dumps(canonical_dump(desc), sort_keys=True, indent=1)
    want = GOLDEN.joinpath(f"{name}.parsed.json").read_text().rstrip("\n")
    assert got == want


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_algebra('{"field": 3,')
    assert e.value.line is not None


def test_dangling_arrow_rejected():
    with pytest.raises(SemanticError, match="unknown vertex"):
        parse_algebra('{"field": 3, "vertices": ["1"], '
                      '"arrows": [{"name": "a", "from": "1", "to": "2"}]}')


def test_non_parallel_relation_rejected():
    text = json.dumps({
        "field": 3,
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"},
                   {"name": "b", "from": "2", "to": "1"}],
        "relations": [[{"coeff": 1, "path": ["a", "b"]},
                       {"coeff": 1, "path": ["b", "a"]}]],
    })
    with pytest.raises(SemanticError, match="not parallel"):
        parse_algebra(text)


def test_short_relation_path_rejected():
    text = json.dumps({
        "field": 3,
        "vertices": ["1"],
        "arrows": [{"name": "x", "from": "1", "to": "1"}],
        "relations": [[{"coeff": 1, "path": ["x"]}]],
    })
    with pytest.raises(SemanticError, match="length >= 2"):
        parse_algebra(text)


def test_composite_characteristic_rejected():
    with pytest.raises(SemanticError, match="prime"):
        parse_algebra('{"field": 4, "vertices": ["1"]}')


def test_characteristic_above_int64_safe_bound_rejected():
    with pytest.raises(SemanticError, match="too large"):
        parse_algebra('{"field": 2147483647, "vertices": ["1"]}')
    desc = parse_algebra('{"field": 65521, "vertices": ["1"], "arrows": [], '
                         '"relations": []}')
    assert desc.field.characteristic == 65521


def test_duplicate_arrow_name_rejected():
    text = json.dumps({
        "field": 3,
        "vertices": ["1"],
        "arrows": [{"name": "x", "from": "1", "to": "1"},
                   {"name": "x", "from": "1", "to": "1"}],
    })
    with pytest.raises(SemanticError, match="duplicate arrow"):
        parse_algebra(text)


def test_non_composable_relation_rejected():
    text = json.dumps({
        "field": 3,
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
        "relations": [[{"coeff": 1, "path": ["a", "a"]}]],
    })
    with pytest.raises(SemanticError, match="not composable"):
        parse_algebra(text)


def test_coefficients_reduced_mod_p():
    text = json.dumps({
        "field": 5,
        "vertices": ["1"],
        "arrows": [{"name": "x", "from": "1", "to": "1"}],
        "relations": [[{"coeff": 7, "path": ["x", "x"]},
                       {"coeff": 5, "path": ["x", "x", "x"]}]],
    })
    desc = parse_algebra(text)
    assert desc.relations[0].terms == [(2, (0, 0))]

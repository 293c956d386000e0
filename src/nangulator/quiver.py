"""Quiver-with-relations input language: parsing and validation.

The algebra file format is JSON: {"field": p, "vertices": [...],
"arrows": [{"name", "from", "to"}], "relations": [[{"coeff", "path"}]]}.
Coefficients are integers, reduced mod p on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .fields import FieldSpec, LinearAlgebraError


class ParseError(ValueError):
    """Syntax error in an algebra file, with line/column when available."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class SemanticError(ValueError):
    """Structurally invalid algebra description, naming the offending entity."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass
class Quiver:
    vertices: list[str]
    arrows: list[Arrow]

    def arrows_from(self, v: int):
        return [i for i, a in enumerate(self.arrows) if a.source == v]


@dataclass
class RelationElement:
    """A linear combination of parallel paths, each a tuple of arrow indices."""

    terms: list[tuple[int, tuple[int, ...]]]  # (coefficient, path)


@dataclass
class AlgebraDescription:
    field: FieldSpec
    quiver: Quiver
    relations: list[RelationElement]
    name: str = ""


def _path_endpoints(quiver: Quiver, path: tuple[int, ...]):
    """Source and target of a composable arrow chain; None if not composable."""
    src = quiver.arrows[path[0]].source
    cur = src
    for i in path:
        if quiver.arrows[i].source != cur:
            return None
        cur = quiver.arrows[i].target
    return src, cur


def parse_algebra(text: str, name: str = "") -> AlgebraDescription:
    """Parse and validate an algebra description from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from None
    if not isinstance(raw, dict):
        raise SemanticError("top-level value must be an object")

    p = raw.get("field")
    if not isinstance(p, int) or p < 0:
        raise SemanticError(f"field must be a non-negative integer, got {p!r}")
    try:
        fspec = FieldSpec(p)
    except LinearAlgebraError as e:
        raise SemanticError(str(e)) from None

    vertices = raw.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise SemanticError("vertices must be a non-empty array of labels")
    vertices = [str(v) for v in vertices]
    if len(set(vertices)) != len(vertices):
        raise SemanticError("vertex labels must be distinct")
    v_index = {v: i for i, v in enumerate(vertices)}

    arrows = []
    names = set()
    for entry in raw.get("arrows", []):
        if not isinstance(entry, dict):
            raise SemanticError(f"arrow entry must be an object: {entry!r}")
        a_name = str(entry.get("name"))
        if a_name in names:
            raise SemanticError(f"duplicate arrow name {a_name!r}")
        names.add(a_name)
        for key in ("from", "to"):
            if entry.get(key) not in v_index:
                raise SemanticError(
                    f"arrow {a_name!r} references unknown vertex {entry.get(key)!r}"
                )
        arrows.append(Arrow(a_name, v_index[entry["from"]], v_index[entry["to"]]))
    quiver = Quiver(vertices, arrows)
    a_index = {a.name: i for i, a in enumerate(arrows)}

    relations = []
    for rel_no, rel in enumerate(raw.get("relations", [])):
        if not isinstance(rel, list) or not rel:
            raise SemanticError(f"relation #{rel_no} must be a non-empty array")
        terms = []
        endpoints = None
        for term in rel:
            coeff = term.get("coeff", 1)
            if not isinstance(coeff, int):
                raise SemanticError(f"relation #{rel_no}: coeff must be integer")
            path_names = term.get("path")
            if not isinstance(path_names, list) or len(path_names) < 2:
                raise SemanticError(
                    f"relation #{rel_no}: paths must have length >= 2 "
                    "(admissible ideal)"
                )
            try:
                path = tuple(a_index[n] for n in path_names)
            except KeyError as e:
                raise SemanticError(
                    f"relation #{rel_no} references unknown arrow {e.args[0]!r}"
                ) from None
            ends = _path_endpoints(quiver, path)
            if ends is None:
                raise SemanticError(
                    f"relation #{rel_no}: path {path_names} is not composable"
                )
            if endpoints is None:
                endpoints = ends
            elif ends != endpoints:
                raise SemanticError(
                    f"relation #{rel_no}: terms are not parallel "
                    f"({ends} vs {endpoints})"
                )
            coeff = fspec.canon(coeff)
            if coeff != 0:
                terms.append((int(coeff) if p else coeff, path))
        if terms:
            relations.append(RelationElement(terms))

    return AlgebraDescription(fspec, quiver, relations, name=name)


def load_algebra_file(path) -> AlgebraDescription:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    import os

    return parse_algebra(text, name=os.path.splitext(os.path.basename(path))[0])

"""file formats (JSON, UTF-8):
  shape          {"dimension": d, "vertex_count": N,
                  "facets": [[int, ...], ...],
                  "vertices": [[float, ...], ...],
                  "mode": "strict"|"weak", "name": optional, ignored}
  triangulation  {"simplices": [[int, ...], ...]}   (polytope vertex indices)
  matrix         {"rows": r, "cols": c, "data": [row-major floats]}
  embedding      {"ambient_dimension": D, "vertices": [[float, ...], ...],
                  "simplices": [[int, ...], ...], "stages": optional}
                  (each simplex lists base-dim + 1 vertex indices)
  sequence       JSON array of shape objects
An int field takes no true or false (fields are checked by exact type, and
``bool`` subclasses ``int``); schema errors raise MalformedInput naming the
offending file and field.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import MalformedInput
from .polytopes import CombinatorialPolytope, Shape, Triangulation, _build_polytope, triangulation

_MAX = sys.float_info.max


def _load_json(path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedInput(f"{path}: cannot read file ({exc})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path}: invalid JSON ({exc})") from exc


def _require(doc: dict, path, field: str, kind=None):
    if field not in doc:
        raise MalformedInput(f"{path}: missing field '{field}'")
    value = doc[field]
    if kind is not None and not (type(value) is int if kind is int else isinstance(value, kind)):
        raise MalformedInput(f"{path}: field '{field}' has the wrong type")
    return value


def _finite_numbers(row, length: int) -> bool:
    """Is ``row`` a list of ``length`` finite JSON numbers?"""
    # A bool is neither type; NaN fails every comparison; Infinity and huge ints exceed _MAX.
    return (isinstance(row, list) and len(row) == length
            and all((type(x) is float or type(x) is int or isinstance(x, float))
                    and -_MAX <= x <= _MAX for x in row))


def shape_from_dict(doc: dict, path="<shape>") -> Shape:
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: shape document must be a JSON object")
    d = _require(doc, path, "dimension", int)
    n = _require(doc, path, "vertex_count", int)
    facets = _require(doc, path, "facets", list)
    vertices = _require(doc, path, "vertices", list)
    mode = doc.get("mode", "strict")
    if mode not in ("strict", "weak"):
        raise MalformedInput(f"{path}: field 'mode' must be 'strict' or 'weak'")
    if d < 1 or n < 1:
        raise MalformedInput(f"{path}: 'dimension' and 'vertex_count' must be positive")
    if n < d + 1:
        raise MalformedInput(f"{path}: field 'vertex_count' must be at least dimension + 1")
    for i, f in enumerate(facets):
        if not (isinstance(f, list) and f and all(type(v) is int and 0 <= v < n for v in f)):
            raise MalformedInput(f"{path}: field 'facets[{i}]' must list vertex "
                                 f"indices in [0, {n})")
    if len(vertices) != n:
        raise MalformedInput(f"{path}: field 'vertices' must have {n} rows")
    for i, row in enumerate(vertices):
        if not _finite_numbers(row, d):
            raise MalformedInput(f"{path}: field 'vertices[{i}]' must be {d} finite numbers")
    polytope = _build_polytope(d, n, tuple(map(tuple, facets)))  # entries are exact ints
    return Shape(polytope, vertices, mode=mode)  # one conversion, in Shape


def load_shape(path) -> Shape:
    return shape_from_dict(_load_json(path), path)


def load_shapes(path) -> list[Shape]:
    """The shapes of a sequence file (a JSON array), or the one shape of a shape file."""
    doc = _load_json(path)
    if not isinstance(doc, list):
        return [shape_from_dict(doc, path)]
    return [shape_from_dict(item, f"{path}[{i}]") for i, item in enumerate(doc)]


def load_triangulation(path, polytope: CombinatorialPolytope) -> Triangulation:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: triangulation document must be a JSON object")
    simplices = _require(doc, path, "simplices", list)
    for i, s in enumerate(simplices):
        if not isinstance(s, list) or any(type(v) is not int for v in s):
            raise MalformedInput(f"{path}: field 'simplices[{i}]' must list integers")
        if any(v < 0 or v >= polytope.vertex_count for v in s):
            raise MalformedInput(
                f"{path}: field 'simplices[{i}]' has vertex indices outside "
                f"[0, {polytope.vertex_count})")
    return triangulation(polytope, simplices)


def load_matrix(path) -> np.ndarray:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: matrix document must be a JSON object")
    rows = _require(doc, path, "rows", int)
    cols = _require(doc, path, "cols", int)
    data = _require(doc, path, "data", list)
    if rows < 1 or cols < 1:
        raise MalformedInput(f"{path}: 'rows' and 'cols' must be positive")
    if not _finite_numbers(data, rows * cols):
        raise MalformedInput(f"{path}: field 'data' must hold {rows * cols} finite "
                             "numbers in row-major order")
    return np.array(data, dtype=float).reshape(rows, cols)


def load_embedding(path) -> tuple[int, np.ndarray, list[list[int]]]:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: embedding document must be a JSON object")
    big_d = _require(doc, path, "ambient_dimension", int)
    vertices = _require(doc, path, "vertices", list)
    simplices = doc.get("simplices")
    if not isinstance(simplices, list) or not simplices:
        raise MalformedInput(f"{path}: field 'simplices' must be a nonempty list "
                             "(needed to classify projection stages)")
    for i, row in enumerate(vertices):
        if not _finite_numbers(row, big_d):
            raise MalformedInput(f"{path}: field 'vertices[{i}]' must be "
                                 f"{big_d} finite numbers")
    n = len(vertices)
    for i, s in enumerate(simplices):
        if not (isinstance(s, list) and all(type(v) is int and 0 <= v < n for v in s)):
            raise MalformedInput(f"{path}: field 'simplices[{i}]' must list vertex "
                                 f"indices in [0, {n})")
    return big_d, np.array(vertices, dtype=float), [list(s) for s in simplices]

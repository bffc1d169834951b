"""JSON file formats: shapes, triangulations, matrices, embeddings, sequences.

Shape file:
    {"dimension": d, "vertex_count": N, "facets": [[int, ...], ...],
     "vertices": [[float, ...], ...], "mode": "strict"|"weak",
     "name": optional string}
Triangulation file:
    {"simplices": [[int, ...], ...]}
Matrix file:
    {"rows": r, "cols": c, "data": [row-major floats]}
Embedding file:
    {"ambient_dimension": D, "vertices": [[float, ...], ...],
     "simplices": [[int, ...], ...], "stages": optional list of embeddings}

Schema errors raise ``MalformedInput`` naming the offending file and field.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import MalformedInput
from .polytopes import CombinatorialPolytope, Shape, Triangulation, build_polytope, triangulation


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
    if kind is not None and not isinstance(value, kind):
        raise MalformedInput(f"{path}: field '{field}' has the wrong type")
    return value


def shape_from_dict(doc: dict, path="<shape>") -> Shape:
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: shape document must be a JSON object")
    d = _require(doc, path, "dimension", int)
    n = _require(doc, path, "vertex_count", int)
    facets = _require(doc, path, "facets", list)
    vertices = _require(doc, path, "vertices", list)
    mode = doc.get("mode", "strict")
    name = doc.get("name")
    if mode not in ("strict", "weak"):
        raise MalformedInput(f"{path}: field 'mode' must be 'strict' or 'weak'")
    if d < 1 or n < 1:
        raise MalformedInput(f"{path}: 'dimension' and 'vertex_count' must be positive")
    for i, f in enumerate(facets):
        if (not isinstance(f, list) or not f
                or any(not isinstance(v, int) or v < 0 or v >= n for v in f)):
            raise MalformedInput(f"{path}: field 'facets[{i}]' must list vertex "
                                 f"indices in [0, {n})")
    if len(vertices) != n:
        raise MalformedInput(f"{path}: field 'vertices' must have {n} rows")
    for i, row in enumerate(vertices):
        # NaN fails every comparison; Infinity and huge integers exceed the bound.
        if (not isinstance(row, list) or len(row) != d
                or any(not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max
                       for x in row)):
            raise MalformedInput(f"{path}: field 'vertices[{i}]' must be {d} finite numbers")
    polytope = build_polytope(d, n, facets)
    return Shape(polytope, np.array(vertices, dtype=float), mode=mode, name=name)


def load_shape(path) -> Shape:
    return shape_from_dict(_load_json(path), path)


def shape_to_dict(shape: Shape) -> dict:
    doc = {
        "dimension": shape.polytope.dimension,
        "vertex_count": shape.polytope.vertex_count,
        "facets": [list(f) for f in shape.polytope.facets],
        "vertices": shape.coords.tolist(),
        "mode": shape.mode,
    }
    if shape.name is not None:
        doc["name"] = shape.name
    return doc


def load_sequence(path) -> list[Shape]:
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise MalformedInput(f"{path}: sequence file must be a JSON array of shapes")
    return [shape_from_dict(item, f"{path}[{i}]") for i, item in enumerate(doc)]


def load_triangulation(path, polytope: CombinatorialPolytope) -> Triangulation:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: triangulation document must be a JSON object")
    simplices = _require(doc, path, "simplices", list)
    for i, s in enumerate(simplices):
        if not isinstance(s, list) or any(not isinstance(v, int) for v in s):
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
    if len(data) != rows * cols or any(not isinstance(x, (int, float)) for x in data):
        raise MalformedInput(f"{path}: field 'data' must hold {rows * cols} numbers "
                             "in row-major order")
    return np.array(data, dtype=float).reshape(rows, cols)


def embedding_to_dict(ambient_dimension: int, vertices: np.ndarray,
                      simplices, stages=None) -> dict:
    doc = {
        "ambient_dimension": int(ambient_dimension),
        "vertices": np.asarray(vertices, dtype=float).tolist(),
        "simplices": [list(map(int, s)) for s in simplices],
    }
    if stages is not None:
        doc["stages"] = stages
    return doc


def load_embedding(path) -> tuple[int, np.ndarray, list[list[int]]]:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: embedding document must be a JSON object")
    big_d = _require(doc, path, "ambient_dimension", int)
    vertices = _require(doc, path, "vertices", list)
    if "simplices" not in doc:
        raise MalformedInput(f"{path}: missing field 'simplices' "
                             "(needed to classify projection stages)")
    simplices = doc["simplices"]
    for i, row in enumerate(vertices):
        if not isinstance(row, list) or len(row) != big_d:
            raise MalformedInput(f"{path}: field 'vertices[{i}]' must be "
                                 f"{big_d} numbers")
    n = len(vertices)
    for i, s in enumerate(simplices):
        if (not isinstance(s, list)
                or any(not isinstance(v, int) or v < 0 or v >= n for v in s)):
            raise MalformedInput(f"{path}: field 'simplices[{i}]' must list vertex "
                                 f"indices in [0, {n})")
    return big_d, np.array(vertices, dtype=float), [list(s) for s in simplices]

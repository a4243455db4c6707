"""Interchange documents for ornaments and keyframed homotopies.

Both formats are JSON.  An ornament document is

    { "m": int,
      "components": [ { "name": str, "dim": int,
                        "vertices": [["p/q", ...], ...],
                        "facets": [[int, ...], ...] },  x3 ] }

with rational coordinates as canonical "p/q" / "p" strings (q > 0) and
facet orientation given by the listed vertex order.  A homotopy document is
an ornament document (the t=0 frame) extended with

    "keyframes": [ { "t": "p/q", "vertices": [[["p/q", ...], ...], x3] }, ... ]

Serialization is canonical (fixed key order, reduced rationals, two-space
indent, trailing newline), so emitting a parsed document reproduces the
original bytes.
"""

from __future__ import annotations

import json

from .geometry import format_rational, parse_rational
from .model import Ornament, PLMap, TriangulatedManifold
from .sweep import HomotopyTrack


class FormatError(ValueError):
    """Malformed interchange document; the message carries the location."""


def _fail(path, message):
    raise FormatError(f"{path}: {message}")


def _expect(condition, path, message):
    if not condition:
        _fail(path, message)


def _is_int(value):
    """JSON integers only: ``bool`` is a subclass of ``int`` in Python, but
    ``true`` and ``false`` are not integers in a document."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_coords(raw, path):
    _expect(isinstance(raw, list) and raw, path, "expected a coordinate list")
    coords = []
    for i, text in enumerate(raw):
        try:
            coords.append(parse_rational(text))
        except ValueError as exc:
            _fail(f"{path}[{i}]", str(exc))
    return coords


def _parse_component(raw, m, path):
    _expect(isinstance(raw, dict), path, "expected an object")
    for key in ("name", "dim", "vertices", "facets"):
        _expect(key in raw, path, f"missing field {key!r}")
    _expect(isinstance(raw["name"], str), f"{path}.name", "expected a string")
    dim = raw["dim"]
    _expect(_is_int(dim) and dim >= 1, f"{path}.dim", "bad dimension")
    vertices = raw["vertices"]
    _expect(isinstance(vertices, list) and vertices, f"{path}.vertices",
            "expected a vertex list")
    images = []
    for vi, coords in enumerate(vertices):
        parsed = _parse_coords(coords, f"{path}.vertices[{vi}]")
        _expect(len(parsed) == m, f"{path}.vertices[{vi}]",
                f"expected {m} coordinates")
        images.append(parsed)
    facets = raw["facets"]
    _expect(isinstance(facets, list) and facets, f"{path}.facets",
            "expected a facet list")
    for fi, facet in enumerate(facets):
        _expect(
            isinstance(facet, list)
            and all(_is_int(v) for v in facet),
            f"{path}.facets[{fi}]", "expected a list of vertex indices",
        )
        _expect(len(facet) == dim + 1, f"{path}.facets[{fi}]",
                f"expected {dim + 1} vertices")
        for v in facet:
            _expect(0 <= v < len(vertices), f"{path}.facets[{fi}]",
                    f"vertex index {v} out of range")
    domain = TriangulatedManifold(dim, len(vertices), facets)
    return PLMap(domain, m, images), raw["name"]


def ornament_from_doc(doc):
    """Parse an ornament document into an Ornament (names are dropped)."""
    _expect(isinstance(doc, dict), "$", "expected an object")
    _expect("m" in doc, "$", "missing field 'm'")
    m = doc["m"]
    _expect(_is_int(m) and m >= 1, "$.m", "bad ambient dimension")
    comps = doc.get("components")
    _expect(isinstance(comps, list) and len(comps) == 3, "$.components",
            "expected exactly three components")
    parsed = [
        _parse_component(comp, m, f"$.components[{i}]")
        for i, comp in enumerate(comps)
    ]
    return Ornament([p for p, _ in parsed])


def ornament_to_doc(o):
    return {
        "m": o.m,
        "components": [
            {
                "name": f"component{i}",
                "dim": f.domain.dim,
                "vertices": [
                    [format_rational(c) for c in img] for img in f.images
                ],
                "facets": [list(facet) for facet in f.domain.facets],
            }
            for i, f in enumerate(o.components, 1)
        ],
    }


def track_from_doc(doc):
    """Parse a homotopy document; the t=0 keyframe must match the base
    component vertices."""
    base = ornament_from_doc(doc)
    raw_frames = doc.get("keyframes")
    _expect(isinstance(raw_frames, list) and len(raw_frames) >= 2,
            "$.keyframes", "expected at least two keyframes")
    m = base.m
    times = []
    frames = []
    for ki, raw in enumerate(raw_frames):
        path = f"$.keyframes[{ki}]"
        _expect(isinstance(raw, dict), path, "expected an object")
        _expect("t" in raw and "vertices" in raw, path,
                "missing field 't' or 'vertices'")
        try:
            t = parse_rational(raw["t"])
        except ValueError as exc:
            _fail(f"{path}.t", str(exc))
        comps = raw["vertices"]
        _expect(isinstance(comps, list) and len(comps) == 3,
                f"{path}.vertices", "expected three component image lists")
        frame = []
        for ci, comp in enumerate(comps):
            dom = base.components[ci].domain
            _expect(isinstance(comp, list) and len(comp) == dom.vertex_count,
                    f"{path}.vertices[{ci}]",
                    f"expected {dom.vertex_count} vertex images")
            images = []
            for vi, coords in enumerate(comp):
                parsed = _parse_coords(coords, f"{path}.vertices[{ci}][{vi}]")
                _expect(len(parsed) == m, f"{path}.vertices[{ci}][{vi}]",
                        f"expected {m} coordinates")
                images.append(tuple(parsed))
            frame.append(tuple(images))
        times.append(t)
        frames.append(tuple(frame))
    _expect(times[0] == 0, "$.keyframes[0].t", "first keyframe must be t=0")
    for ci, f in enumerate(base.components):
        _expect(
            frames[0][ci] == tuple(tuple(img) for img in f.images),
            f"$.keyframes[0].vertices[{ci}]",
            "t=0 keyframe must match the component vertices",
        )
    domains = tuple(f.domain for f in base.components)
    try:
        return HomotopyTrack(domains, m, times, frames)
    except ValueError as exc:
        _fail("$.keyframes", str(exc))


def track_to_doc(track):
    doc = ornament_to_doc(track.endpoint(0))
    doc["keyframes"] = [
        {
            "t": format_rational(t),
            "vertices": [
                [[format_rational(c) for c in img] for img in comp]
                for comp in frame
            ],
        }
        for t, frame in zip(track.times, track.images)
    ]
    return doc


def dumps_doc(doc):
    """Canonical serialization: insertion-ordered keys, two-space indent,
    one trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def loads_doc(text):
    """Parse a JSON document; malformed or too deeply nested text raises
    FormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise FormatError("document is nested too deeply to parse")

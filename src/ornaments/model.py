"""Triangulated closed oriented manifolds, PL maps, and ornaments.

An ornament here is a triple of PL maps of closed oriented pseudomanifolds
into a common R^m whose three images share no point.  That no-common-point
condition is decided exactly, facet triple by facet triple, as a linear
feasibility question over the closed facets; a failure comes with an exact
witness (the facet triple and barycentric coordinates of a common image
point).  A triple is first tested on facet boxes rounded outward onto one
power-of-two grid, the prefilter layer of :mod:`ornaments.geometry` that
the degree route and the sweep share: each box is one integer of 2m
lanes, the upper ends and the negated lower ends, each biased by ``2 **
(W - 2)``, with W sized from the largest magnitude of the grid points, so
two boxes are intersected by one lane-wise minimum.  Each box-surviving
triple is then
decided by integer rank first (6k + 1 equations in 6k unknowns for three
(2k - 1)-manifolds in R^(3k - 1), nearly always inconsistent), on the
rows of :func:`common_point_system`: the one integer form, points cleared
of denominators as the rows are written, in which validation and both
routes' touching tests ask whether closed cells meet.

Manifolds are accepted at orientable-pseudomanifold strength: every
codimension-1 face in exactly two facets, with coherently opposite induced
orientations, and a connected facet-adjacency graph.  No link conditions
beyond that are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import (
    DimensionMismatch,
    Lanes,
    Rat,
    as_point,
    box_intersection,
    derive_seed,
    feasible_point,
    grid_magnitude,
    hull,
    integer_scaled,
    outward_grid,
    random_rational_perturbation,
)


def permutation_parity(seq):
    """+1 or -1: parity of the permutation sorting ``seq`` (distinct entries)."""
    inversions = 0
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validity check; ``witness`` is present iff invalid."""

    status: str
    witness: dict | None = None

    @property
    def ok(self):
        return self.status == "valid"


@dataclass(frozen=True, slots=True)
class TriangulatedManifold:
    """Pure d-dimensional simplicial complex with oriented facets.

    Orientation is the listed vertex order of each facet tuple; whether the
    facets actually form a connected closed oriented pseudomanifold is
    decided by :func:`validate_manifold`, not at construction.
    """

    dim: int
    vertex_count: int
    facets: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        facets = tuple(tuple(f) for f in self.facets)
        if not facets:
            raise ValueError("at least one facet required")
        for f in facets:
            if len(f) != self.dim + 1:
                raise ValueError(
                    f"facet {f} does not have {self.dim + 1} vertices")
            for v in f:
                if not (0 <= v < self.vertex_count):
                    raise ValueError(f"vertex index {v} out of range")
        object.__setattr__(self, "facets", facets)


def _signed_ridges(facet):
    """Boundary faces of an oriented facet, each with its induced sign
    relative to the sorted vertex order of the face."""
    out = []
    for pos in range(len(facet)):
        ridge = facet[:pos] + facet[pos + 1:]
        sign = (-1) ** pos * permutation_parity(ridge)
        out.append((tuple(sorted(ridge)), sign))
    return out


def validate_manifold(t):
    """Check the closed-oriented-pseudomanifold conditions.

    Valid iff: no facet repeats a vertex, every ridge (codimension-1 face)
    lies in exactly two facets, the two induced orientations on each shared
    ridge are opposite, and the facet adjacency graph is connected.  On
    failure the witness names the offending facet, ridge or component.
    """
    for fi, facet in enumerate(t.facets):
        if len(set(facet)) != len(facet):
            return ValidationReport("invalid", {
                "reason": "repeated vertex in facet", "facet": fi})
    ridges = {}
    for fi, facet in enumerate(t.facets):
        for key, sign in _signed_ridges(facet):
            ridges.setdefault(key, []).append((fi, sign))
    for key, occurrences in ridges.items():
        if len(occurrences) != 2:
            return ValidationReport("invalid", {
                "reason": "ridge not shared by exactly two facets",
                "ridge": list(key),
                "facets": [fi for fi, _ in occurrences],
            })
    for key, ((fa, sa), (fb, sb)) in ridges.items():
        if sa + sb != 0:
            return ValidationReport("invalid", {
                "reason": "incoherent orientation across ridge",
                "ridge": list(key),
                "facets": [fa, fb],
            })
    adjacency = {fi: set() for fi in range(len(t.facets))}
    for (fa, _), (fb, _) in (tuple(v) for v in ridges.values()):
        adjacency[fa].add(fb)
        adjacency[fb].add(fa)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(t.facets):
        missing = min(set(range(len(t.facets))) - seen)
        return ValidationReport("invalid", {
            "reason": "facet graph disconnected", "facet": missing})
    return ValidationReport("valid")


@dataclass(frozen=True, slots=True)
class PLMap:
    """A triangulated manifold together with rational vertex images in R^m;
    the map is affine on each facet.  Each image is a point
    (:func:`~ornaments.geometry.as_point`)."""

    domain: TriangulatedManifold
    ambient_dim: int
    images: tuple

    def __post_init__(self):
        images = tuple(as_point(img) for img in self.images)
        if len(images) != self.domain.vertex_count:
            raise DimensionMismatch(
                f"{self.domain.vertex_count} vertices but {len(images)} images"
            )
        for vi, img in enumerate(images):
            if len(img) != self.ambient_dim:
                raise DimensionMismatch(
                    f"image {vi} does not live in R^{self.ambient_dim}"
                )
        object.__setattr__(self, "images", images)

    def facet_points(self, i):
        return [self.images[v] for v in self.domain.facets[i]]


@dataclass(frozen=True, slots=True)
class Ornament:
    """Exactly three PL maps into one R^m.  The defining no-common-point
    condition is decided by :func:`validate_ornament`."""

    components: tuple

    def __post_init__(self):
        components = tuple(self.components)
        if len(components) != 3:
            raise ValueError("an ornament has exactly three components")
        dims = {f.ambient_dim for f in components}
        if len(dims) != 1:
            raise DimensionMismatch(f"ambient dimensions differ: {sorted(dims)}")
        object.__setattr__(self, "components", components)

    @property
    def m(self):
        return self.components[0].ambient_dim


def common_point_system(point_lists, extra=()):
    """Integer equality rows for "the simplices spanned by the point lists
    share a point", in stacked full barycentric coordinates: consecutive
    lists agree coordinate by coordinate, and each list's weights sum to 1.

    Each rational point is cleared of denominators as its entries are
    written (:func:`integer_scaled`), so the point becomes its scale times
    the vertex and the rows are written in the variables ``x / scale``,
    the scales taking the place of the 1s in the sum rows.  Each column of
    ``extra``, integers with one entry per coordinate row, is appended to
    those rows with scale 1 and is 0 on the sum rows; the degree route's
    ray is one.  Returns ``(eq_rows, scales, offsets)``: ``(coeffs,
    rhs)`` rows of ``int`` entries, the positive column scales that
    :func:`feasible_point` takes with them, and ``offsets[i]``, the column
    of the first barycentric coordinate of list ``i``.
    """
    width = len(point_lists[0][0])
    cleared = [[integer_scaled(p) for p in pts] for pts in point_lists]
    scales = [scale for pts in cleared for scale, _ in pts]
    offsets = [0]
    for pts in cleared[:-1]:
        offsets.append(offsets[-1] + len(pts))
    npoints = len(scales)
    scales += [1] * len(extra)
    nvars = len(scales)
    eq_rows = []
    for left in range(len(cleared) - 1):
        right = left + 1
        for c in range(width):
            row = [0] * nvars
            for a, (_, p) in enumerate(cleared[left]):
                row[offsets[left] + a] = p[c]
            for a, (_, p) in enumerate(cleared[right]):
                row[offsets[right] + a] = -p[c]
            row[npoints:] = [column[len(eq_rows)] for column in extra]
            eq_rows.append((row, 0))
    for offset, pts in zip(offsets, cleared):
        row = [0] * nvars
        row[offset:offset + len(pts)] = [scale for scale, _ in pts]
        eq_rows.append((row, 1))
    return eq_rows, scales, offsets


def facet_grid_boxes(o):
    """``(lanes, boxes)``: per component, the box of each facet on one
    outward grid, packed on the :class:`~ornaments.geometry.Lanes` of ``2
    m`` lanes returned with them.  Every vertex image of the ornament is
    rounded outward by :func:`outward_grid` (one shift for all), and a
    facet's box is the :func:`hull` of its vertices' packed brackets, the
    floors as lower and the ceils as upper ends, which contains ``2 **
    shift`` times the facet's exact box.  The lane width comes from the
    largest magnitude of a bracket, so it grows with the grid integers."""
    _, brackets = outward_grid(img for f in o.components for img in f.images)
    lanes = Lanes(o.m, grid_magnitude(brackets))
    grid = iter([lanes.pack(floors, ceils) for floors, ceils in brackets])
    boxes = []
    for f in o.components:
        points = [next(grid) for _ in f.images]
        boxes.append([hull([points[v] for v in facet], lanes)
                      for facet in f.domain.facets])
    return lanes, boxes


def validate_ornament(o):
    """Decide the no-common-point condition exactly, over closed facets.

    For every facet triple (one facet per component) the existence of points
    x, y, z in the closed facets with equal images is a linear feasibility
    problem; the ornament is valid iff every triple is infeasible.  The first
    feasible triple found is returned as a witness with exact barycentric
    coordinates of a common image point.

    The rows come from :func:`common_point_system`, on integers in the
    barycentric coordinates divided by the vertices' scales, and
    :func:`feasible_point` decides nearly every triple by rank alone, on
    small integers; its witness is in barycentric coordinates.  Only
    triples whose :func:`facet_grid_boxes` meet are decided; the boxes
    contain the exact ones, so a triple they let through by rounding alone
    is infeasible.
    """
    lanes, (boxes1, boxes2, boxes3) = facet_grid_boxes(o)
    for i1, b1 in enumerate(boxes1):
        for i2, b2 in enumerate(boxes2):
            b12 = box_intersection(b1, b2, lanes)
            if b12 is None:
                continue
            for i3, b3 in enumerate(boxes3):
                if box_intersection(b12, b3, lanes) is None:
                    continue
                eq_rows, scales, offsets = common_point_system([
                    f.facet_points(i)
                    for f, i in zip(o.components, (i1, i2, i3))
                ])
                point = feasible_point(eq_rows, scales)
                if point is not None:
                    splits = [point[offsets[0]:offsets[1]],
                              point[offsets[1]:offsets[2]],
                              point[offsets[2]:]]
                    return ValidationReport("invalid", {
                        "facets": [i1, i2, i3],
                        "barycentric": [[str(c) for c in s] for s in splits],
                    })
    return ValidationReport("valid")


def perturb_ornament(o, eps, seed):
    """Jitter every vertex image while provably staying in the same ornament
    class.

    The candidate is re-validated and the straight-line homotopy from the
    input to the candidate is certified free of triple points by the sweep
    detector; on any failure eps is halved and the attempt reseeded, which
    terminates because small enough perturbations of a valid ornament always
    pass both checks.
    """
    from . import sweep  # deferred: sweep imports this module

    eps = Rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    for attempt in range(64):
        e = eps / 2 ** attempt
        components = []
        for ci, f in enumerate(o.components):
            images = [
                random_rational_perturbation(
                    img, e, derive_seed(seed, attempt, ci, vi)
                )
                for vi, img in enumerate(f.images)
            ]
            components.append(PLMap(f.domain, f.ambient_dim, images))
        candidate = Ornament(components)
        if not validate_ornament(candidate).ok:
            continue
        track = sweep.linear_track(o, candidate)
        try:
            points = sweep.detect_triple_points(track)
        except sweep.NonGenericTrack:
            continue
        if points:
            continue
        return candidate
    raise RuntimeError("perturbation failed to settle; is the input valid?")

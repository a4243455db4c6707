"""Canonical ornament generators.

The sphere model is the boundary complex of the 2k-dimensional
cross-polytope (vertices on the coordinate axes, one facet per sign
pattern), optionally refined by stellar subdivision with the new vertices
pushed out radially to rational points near the unit sphere.

The Borromean ornament embeds three such spheres as the unit spheres of the
three coordinate 2k-planes of R^{3k} that pairwise share a k-plane, then
projects every vertex stereographically from a rational unit vector near
the all-positive diagonal onto a coordinate hyperplane.  Any center with
all coordinates positive misses all three spheres, so the projection is
defined on every vertex; validity of the resulting PL ornament is checked,
never assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import isqrt, lcm

from .geometry import Rat, derive_seed, random_grid_offset
from .model import Ornament, PLMap, TriangulatedManifold, validate_ornament
from .sweep import trivial_ornament


@dataclass(frozen=True)
class CrossPolytopeSphere:
    """Triangulated (2k-1)-sphere: boundary of the 2k-cross-polytope after
    ``r`` rounds of stellar subdivision.  ``positions`` realize the vertices
    in R^{2k}, on (r=0) or rationally near (r>0) the unit sphere."""

    k: int
    r: int
    manifold: TriangulatedManifold
    positions: tuple


def cross_polytope_sphere(k, r=0):
    """Boundary complex of the 2k-dimensional cross-polytope, coherently
    oriented, refined ``r`` times."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if r < 0:
        raise ValueError("subdivision level must be nonnegative")
    n = 2 * k
    positions = []
    for axis in range(n):
        plus = [Rat(0)] * n
        plus[axis] = Rat(1)
        minus = [Rat(0)] * n
        minus[axis] = Rat(-1)
        positions.append(tuple(plus))
        positions.append(tuple(minus))
    facets = []
    for signs in product((1, -1), repeat=n):
        verts = [2 * axis + (0 if s > 0 else 1) for axis, s in enumerate(signs)]
        prod_sign = 1
        for s in signs:
            prod_sign *= s
        if prod_sign < 0:
            verts[0], verts[1] = verts[1], verts[0]
        facets.append(tuple(verts))
    manifold = TriangulatedManifold(n - 1, 2 * n, facets)
    for _ in range(r):
        manifold, positions = _stellar_round(manifold, positions)
    return CrossPolytopeSphere(k, r, manifold, tuple(positions))


def _rational_inverse_sqrt(value):
    """Rational approximation of 1/sqrt(value) for a positive rational, on
    the grid of step 2 ** -16."""
    # 1/sqrt(num/den) = sqrt(den/num); floor-sqrt at 16 bits.
    approx = isqrt((value.denominator << 32) // value.numerator)
    return Rat(approx, 1 << 16)


def _stellar_round(manifold, positions):
    """Subdivide every facet at its barycenter, pushed out radially to a
    rational point near the unit sphere."""
    positions = list(positions)
    new_facets = []
    for facet in manifold.facets:
        arity = len(facet)
        bary = [sum(col) / arity
                for col in zip(*[positions[v] for v in facet])]
        factor = _rational_inverse_sqrt(sum(c * c for c in bary))
        center = tuple(factor * c for c in bary)
        center_index = len(positions)
        positions.append(center)
        for pos in range(arity):
            new_facets.append(
                facet[:pos] + (center_index,) + facet[pos + 1:]
            )
    return (
        TriangulatedManifold(manifold.dim, len(positions), new_facets),
        positions,
    )


def rational_unit_near_diagonal(n):
    """An exact rational unit vector in R^n with all coordinates positive,
    near the diagonal direction (1, ..., 1)/sqrt(n).

    Built from the quadratic parameterization of rational sphere points:
    q ~ t/(1+t) on each of the first n-1 coordinates for a rational
    t ~ 1/sqrt(n), 4 bits after the point, mapped to (2q, 1-|q|^2) /
    (1+|q|^2).  The q entries are spread apart slightly, entry i by the
    factor 1 + (i + 1) / (8n) (the skew-1 center): a center with a
    coordinate symmetry sits on exceptional spheres through several
    construction vertices, which projects distinct facets onto one line
    and wrecks validity, so asymmetric is the generic choice."""
    t = Rat(1 << 4, isqrt(n << 8))
    base = t / (1 + t)
    q = [base * (1 + Rat(i + 1, 8 * n)) for i in range(n - 1)]
    qq = sum((x * x for x in q), Rat(0))
    denom = 1 + qq
    coords = [2 * x / denom for x in q] + [(1 - qq) / denom]
    assert sum(c * c for c in coords) == 1
    assert all(c > 0 for c in coords)
    return tuple(coords)


def stereographic_image(center, point, drop):
    """Project ``point`` from the unit vector ``center`` onto the hyperplane
    through the origin orthogonal to ``center``, then drop coordinate
    ``drop`` to land in one dimension less.

    Composing with a linear isomorphism of the target never changes
    ornament validity or the invariant, so dropping a coordinate is as good
    as choosing an orthonormal frame and keeps everything rational."""
    denom = 1 - sum(c * p for c, p in zip(center, point))
    if denom == 0:
        raise ValueError("point coincides with the projection center")
    shifted = tuple(c + (p - c) / denom for c, p in zip(center, point))
    return shifted[:drop] + shifted[drop + 1:]


_PLANE_AXES = {
    # Which ambient coordinates of R^{3k} each component's 2k-plane spans.
    1: lambda k: tuple(range(2 * k)),
    2: lambda k: tuple(range(k)) + tuple(range(2 * k, 3 * k)),
    3: lambda k: tuple(range(k, 3 * k)),
}


def _embed(position, axes, ambient):
    coords = [Rat(0)] * ambient
    for value, axis in zip(position, axes):
        coords[axis] = value
    return tuple(coords)


def make_borromean(k, r=0, seed=0):
    """The pairwise-linked three-sphere ornament in R^{3k-1}.

    Three copies of the cross-polytope (2k-1)-sphere sit in the coordinate
    2k-planes of R^{3k}; every vertex is projected stereographically from
    the rational unit vector of :func:`rational_unit_near_diagonal`.
    The result is validated, and its vertex projection checked injective
    on distinct points.  On a coarse model the projection center can
    decide the ornament's class, so there is no fallback to another center
    or to a perturbation: an invalid result raises RuntimeError.  The
    construction is deterministic; ``seed`` is accepted for the common
    signature of the generators."""
    sphere = cross_polytope_sphere(k, r)
    ambient = 3 * k
    m = ambient - 1
    center = rational_unit_near_diagonal(ambient)
    drop = max(range(ambient), key=lambda i: center[i])
    # Scaling the whole target space by the center's common denominator
    # keeps the image coordinates' denominators small (positive scalings
    # change neither validity nor the invariant).
    scale = 1
    for c in center:
        scale = lcm(scale, c.denominator)
    components = []
    projected_by_position = {}
    for which in (1, 2, 3):
        axes = _PLANE_AXES[which](k)
        images = []
        for pos in sphere.positions:
            embedded = _embed(pos, axes, ambient)
            image = tuple(scale * c for c in
                          stereographic_image(center, embedded, drop))
            projected_by_position[embedded] = image
            images.append(image)
        components.append(PLMap(sphere.manifold, m, images))
    images_seen = {}
    for position, image in projected_by_position.items():
        other = images_seen.setdefault(image, position)
        if other != position:
            raise AssertionError("projection not injective on vertices")
    ornament = Ornament(components)
    if not validate_ornament(ornament).ok:
        raise RuntimeError("the Borromean projection is not a valid ornament")
    return ornament


def _default_targets(k):
    m = 3 * k - 1
    targets = []
    for i in range(3):
        coords = [Rat(0)] * m
        coords[0] = Rat(3 * i)
        targets.append(coords)
    return targets


def make_trivial(k, targets=None, r=0):
    """The ornament collapsing each sphere to its own fixed point."""
    if k < 1:
        raise ValueError("k must be at least 1")
    m = 3 * k - 1
    if targets is None:
        targets = _default_targets(k)
    elif any(len(t) != m for t in targets):
        raise ValueError(f"targets must live in R^{m}")
    sphere = cross_polytope_sphere(k, r)
    return trivial_ornament([sphere.manifold] * 3, m, targets)


def make_random_ornament(k, r=0, seed=0, spread=Rat(3)):
    """Seeded random ornament of three (2k-1)-spheres in R^{3k-1}.

    Component i's vertex images land in a box of half-width ``spread``
    centered at (2i-4)(1,...,1), so a small spread keeps the components
    disjoint while spread >= 1 lets their boxes overlap.  Resamples until
    the no-common-point condition holds (a measure-zero failure)."""
    spread = Rat(spread)
    if spread <= 0:
        raise ValueError("spread must be positive")
    if k < 1:
        raise ValueError("k must be at least 1")
    m = 3 * k - 1
    sphere = cross_polytope_sphere(k, r)
    for attempt in range(64):
        rng = random.Random(derive_seed(seed, "random-ornament", attempt))
        components = []
        for ci in range(3):
            center = Rat(2 * ci - 2)
            images = [[center + spread * random_grid_offset(rng)
                       for _ in range(m)]
                      for _ in range(sphere.manifold.vertex_count)]
            components.append(PLMap(sphere.manifold, m, images))
        candidate = Ornament(components)
        if validate_ornament(candidate).ok:
            return candidate
    raise RuntimeError("random sampling failed to produce a valid ornament")

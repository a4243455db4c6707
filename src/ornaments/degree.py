"""The invariant of an ornament as a mapping degree.

Sending (x, y, z) to (2x-y-z, 2y-x-z) maps the product of the three
components into R^{2m} minus the origin, hitting 0 exactly on would-be
common points; composing with radial projection gives a map to the
(2m-1)-sphere whose degree is the invariant.  Instead of projecting, we
count preimages of a rational ray: for each facet triple the map is jointly
affine in the stacked barycentric parameters, so one exact linear solve per
triple finds the unique candidate preimage, which is counted when it is
strictly interior with a positive ray scalar and signed by the determinant
of its system.  The system is solved as x - z = s*u and y - z = s*w, with
u = (2 v_top + v_bot) / 3 and w = (v_top + 2 v_bot) / 3: the sphere-map
rows are [[2, -1], [-1, 2]] (x) I times these rows, a factor of
determinant 3^m > 0, so the solutions and the sign are the same.  Its two
blocks are facet-pair equations sharing facet 3 and the ray column, so
each triple is solved by the sweep's pair-reduced kernel from
:mod:`ornaments.geometry`: the (facet 1, facet 3) and (facet 2, facet 3)
reductions are made once per pair, each an integer product with the row
operations that facet 1's or facet 2's frame records once, then one
2k x 2k integer solve, expanded over the k x k minors that each
reduction forms once, with each reduction's right-hand side lifted by
the other's ``rho``.  A degenerate facet 1 or 2 has no reduction: its
triples are singular, with no solve.

Before any solve, a triple must pass a prefilter: the ray has to meet an
interval hull of the map over the three facet boxes.  The prefilter runs
on integers alone, on the prefilter layer of :mod:`ornaments.geometry`
that validation and the sweep share.  The facet boxes are validation's
(:func:`~ornaments.model.facet_grid_boxes`): every vertex image is rounded
outward onto one power-of-two grid, and a facet's box is the hull of its
vertices' brackets (lower ends down, upper ends up), packed into one
integer, which the route unpacks once per call.  So each facet's share
of the hull is made of integers about 64 bits wide (wider only for
coordinates of magnitude 2**60 and more), and the ray is
cleared of denominators; "some s >= 0 puts s*v in the box" does not
change under positive scalings of the box or of v, and the rounded hull
contains the scaled exact one, so every triple whose exact hull meets the
ray reaches a solve.  A triple let through by the
rounding alone has closed cells that miss the ray, so its solve finds
nothing: a singular system fails the touching test, and a nonsingular one
has its solution outside some facet.  The answer, the witnesses and the retries are
therefore those of the exact hull.  Each share is normalised by the ray
once per direction (:func:`normalise_by_ray`: coordinate c scaled by
L / |v_c|, L the lcm of the nonzero |v_c|, and negated when v_c < 0), so
that the ray becomes the diagonal and meets a box exactly when the
greatest of 0 and its lower ends is at most its least upper end;
coordinates with v_c = 0 stay as they are and must hold 0.  Normalising
is linear, so the shares of a facet pair are added once for all third
facets, and the third facet's share is added inside the ray test,
coordinate by coordinate as it reads them: each of the per-triple tests
adds and compares integers, with no product, and no summed box is built
for a triple.  The normalised ends are wider than the shares, at most
17 (2m - 1) bits more for a seeded ray.  A facet's simplex frame is built
only when a triple containing it passes.  The kernel decides each
candidate on the signs of the integer solve: outside some facet or behind
the origin (dropped), on a facet's boundary or at a zero ray scalar
(degenerate), or strictly interior with a positive ray scalar (counted).
The solve itself drops a point outside closed facet 3 or behind the
origin, and :func:`~ornaments.geometry.triple_verdict` classifies the
rest; rationals are built only for the counted preimages, the witnesses.

Degeneracies (singular systems that still touch the closed cells, boundary
solutions, zero ray scalar) are detected exactly and reported as
NonGenericDirection; callers retry with a fresh seeded direction, which
succeeds for all but a measure-zero set of directions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import add

from .geometry import (
    DimensionMismatch,
    as_point,
    derive_seed,
    feasible_point,
    integer_scaled,
    normalise_by_ray,
    pair_reduction,
    ray_meets_box,
    simplex_frame,
    triple_verdict,
)
from .laplace import solve_integer
from .model import common_point_system, facet_grid_boxes


def degree_sign(k):
    """Orientation constant relating the raw determinant signs below to the
    normalized invariant: the ambient-dimension parity (-1)^(3k-1), i.e.
    (-1)^(k-1).

    Calibrated once so that the k=1 reference construction
    (constructions.make_borromean) has invariant +1, then frozen.  The k=2
    value +1, orientation antisymmetry, trivial ornaments giving 0 and
    agreement with the independent sweep count are all predictions of this
    single choice, exercised by the test suite.
    """
    return -1 if k % 2 == 0 else 1


class NonGenericDirection(Exception):
    """The chosen ray direction is not a regular value; retry with another."""


@dataclass(frozen=True)
class PreimageSolution:
    """One transverse ray preimage: facet triple, full barycentric
    coordinates per facet, ray scalar s > 0, and the calibrated sign."""

    facets: tuple
    barycentric: tuple
    s: object
    sign: int


def ray_direction(m, seed):
    """Seeded ray direction in R^{2m}: a nonzero tuple of integers."""
    rng = random.Random(seed)
    while True:
        coords = tuple(rng.getrandbits(17) - 2 ** 16 for _ in range(2 * m))
        if any(coords):
            return coords


def component_k(o):
    """The k with component dimension 2k-1 and ambient dimension 3k-1.

    Raises DimensionMismatch unless all components share one odd dimension d
    with 3d = 2m-1 (the equality that makes the degree an integer).
    """
    dims = {f.domain.dim for f in o.components}
    if len(dims) != 1:
        raise DimensionMismatch(f"component dimensions differ: {sorted(dims)}")
    d = dims.pop()
    if 3 * d != 2 * o.m - 1:
        raise DimensionMismatch(
            f"component dimension {d} and ambient dimension {o.m} do not"
            f" satisfy 3d = 2m-1"
        )
    return (d + 1) // 2


def _sphere_map_box_terms(o):
    """Per component and facet, the facet's integer share of an interval
    hull of (2x-y-z, 2y-x-z) over the boxes of a facet triple.

    The facet boxes are those of :func:`facet_grid_boxes`: lower ends
    rounded down, upper ends up, on one power-of-two grid, so each contains
    ``2 ** shift`` times the exact box; each packed box is unpacked once,
    here, into its lists of ends.  The hull of a triple is the sum of
    its three shares, each a pair ``(mins, maxs)`` of integer lists built
    from those rounded ends, and so contains ``2 ** shift`` times the exact
    rational hull, with integers about 64 bits wide.
    """
    lanes, boxes = facet_grid_boxes(o)
    terms = []
    for which, packed in enumerate(boxes):
        shares = []
        for lo, hi in map(lanes.unpack, packed):
            if which == 0:
                mins = [2 * a for a in lo] + [-b for b in hi]
                maxs = [2 * b for b in hi] + [-a for a in lo]
            elif which == 1:
                mins = [-b for b in hi] + [2 * a for a in lo]
                maxs = [-a for a in lo] + [2 * b for b in hi]
            else:
                mins = [-b for b in hi] * 2
                maxs = [-a for a in lo] * 2
            shares.append((mins, maxs))
        terms.append(shares)
    return terms


def _ray_touches_closed_cells(o, facet_indices, u, w):
    """Feasibility of "the closed facet triple maps onto a point of the
    closed ray", in the form x - z = s*u, y - z = s*w with s >= 0 (see
    :func:`mu_via_degree`): decides whether a singular system still
    matters.  With the facets listed as (1, 3, 2) the coordinate rows read
    x - z = 0 and then z - y = 0, and the ray column ``[-u..., w...]``
    turns them into x - z - s*u = 0 and z - y + s*w = 0."""
    pts1, pts2, pts3 = [
        f.facet_points(i) for f, i in zip(o.components, facet_indices)
    ]
    eq_rows, scales, _ = common_point_system([pts1, pts3, pts2],
                                             ([-c for c in u] + w,))
    return feasible_point(eq_rows, scales) is not None


def mu_via_degree(o, v):
    """Signed count of ray preimages: the invariant plus its witnesses.

    Requires a valid ornament with the dimensions checked by
    :func:`component_k`, and a nonzero direction ``v`` of length 2m (a
    sequence of rationals or integers) for the ray.  Returns ``(mu,
    solutions)``.  Raises
    NonGenericDirection when the direction fails to be a regular value
    (some system singular-but-touching, a boundary preimage, or a zero ray
    scalar); the caller retries with a fresh seeded direction.
    """
    k = component_k(o)
    global_sign = degree_sign(k)
    ray = as_point(v)
    if not any(ray):
        raise ValueError("ray direction must be nonzero")
    m = o.m
    if len(ray) != 2 * m:
        raise DimensionMismatch(f"ray must have length {2 * m}")
    # u and w as integer columns over 3 * ray_scale (see the module doc).
    ray_scale, ray_int = integer_scaled(ray)
    u = [2 * a + b for a, b in zip(ray_int[:m], ray_int[m:])]
    w = [a + 2 * b for a, b in zip(ray_int[:m], ray_int[m:])]
    ray_columns = (((u, 3 * ray_scale),), ((w, 3 * ray_scale),))
    frames = {}  # (component, facet) -> simplex_frame
    reductions = {}  # (component 1 or 2, facet, facet 3) -> pair_reduction

    def frame(ci, fi):
        if (ci, fi) not in frames:
            frames[ci, fi] = simplex_frame(o.components[ci].facet_points(fi))
        return frames[ci, fi]

    def reduction(ci, fi, i3):
        if (ci, fi, i3) not in reductions:
            reductions[ci, fi, i3] = pair_reduction(
                frame(ci, fi), frame(2, i3), ray_columns[ci]
            )
        return reductions[ci, fi, i3]

    terms1, terms2, terms3 = (
        [normalise_by_ray(ray_int, share) for share in shares]
        for shares in _sphere_map_box_terms(o)
    )
    scaled = len(ray_int) - ray_int.count(0)
    solutions = []
    total = 0
    for i1, (mins1, maxs1) in enumerate(terms1):
        for i2, (mins2, maxs2) in enumerate(terms2):
            hull12 = (list(map(add, mins1, mins2)),
                      list(map(add, maxs1, maxs2)))
            for i3, share3 in enumerate(terms3):
                if not ray_meets_box(hull12, share3, scaled):
                    continue
                reduction13 = reduction(0, i1, i3)
                reduction23 = reduction(1, i2, i3)
                sign = 0  # a degenerate facet 1 or 2 has no reduction
                if reduction13 is not None and reduction23 is not None:
                    sign, numerators, det = solve_integer(reduction13,
                                                          reduction23)
                if sign == 0:
                    if _ray_touches_closed_cells(o, (i1, i2, i3), u, w):
                        raise NonGenericDirection(
                            f"singular system touching facets {(i1, i2, i3)}"
                        )
                    continue
                if numerators is None:
                    continue  # outside facet 3, or behind the origin
                sign, verdict = triple_verdict(reduction13, reduction23,
                                               sign, numerators, det)
                if verdict is None:
                    continue  # outside facet 1 or 2
                if verdict == "closed":
                    raise NonGenericDirection(
                        f"boundary preimage on facets {(i1, i2, i3)}"
                    )
                # (facet 1, facet 3, facet 2, [s]) from the kernel.
                full1, full3, full2, (ray_s,) = verdict
                total += sign
                solutions.append(PreimageSolution(
                    facets=(i1, i2, i3),
                    barycentric=(full1, full2, full3),
                    s=ray_s,
                    sign=global_sign * sign,
                ))
    return global_sign * total, solutions


def mu_via_degree_auto(o, seed=0):
    """Retry mu_via_degree over 64 seeded directions until one is
    generic."""
    for attempt in range(64):
        v = ray_direction(o.m, derive_seed(seed, "ray", attempt))
        try:
            return mu_via_degree(o, v)
        except NonGenericDirection:
            continue
    raise RuntimeError("no generic direction found; is the ornament valid?")

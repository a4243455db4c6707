"""Keyframed PL homotopies and signed triple-point counting.

A homotopy of an ornament is stored as keyframed vertex images and viewed
as its track: the map (x, t) -> (h_t(x), t) into R^m x I.  Each prism
(facet x keyframe interval) is cut into simplices by the staircase
triangulation over the globally sorted vertex order, which makes the track
affine on every cell; a common point of three cells (one per component) is
then one exact square linear solve away.  That solve is reduced from both
ends by the pair-reduced kernel of :mod:`ornaments.geometry`, which the
degree route shares: the columns of cell 1 are eliminated once per
(cell 1, cell 2) pair and those of cell 3 once per (cell 2, cell 3) pair
in a keyframe interval, each pair by one integer product with row
operations that a cell's frame records once, so each candidate triple
costs one 2k x 2k integer solve in cell 2's coordinates, plus
back-substitution for a cell 3 and a cell 1 that the signs have not yet
ruled out.  The solve is a Laplace expansion over the k x k minors of the
two reductions' x-free rows, which each reduction forms once, the first
time a candidate reads them; the (cell 2, cell 3) reductions, and their
minors, are kept until the keyframe interval is done.  The solve returns
numerators only for a point in closed cell 2, its implied coordinate
included, and only those candidates reach the classifier, which decides
the rest of the verdict (outside, on a boundary, or strictly interior) on
integers and builds rationals only for a triple point's witness.  Each
row the reductions leave is divided by its content (the gcd of its
entries and right-hand side), which roughly halves the width of the
integers that reach the solve.  Before that, candidates are
prefiltered on three levels by their extents along the coordinates and
the directions e_i +- e_j, (m + 1) ** 2 in all, on the prefilter layer of
:mod:`ornaments.geometry` that validation and the degree route share: the
track is rounded outward onto one power-of-two grid, so the extents
contain the exact ones and no triple that can meet is cut.  Each extent
is one integer of 2 (m + 1) ** 2 lanes (:class:`~ornaments.geometry.Lanes`),
the upper ends and then the negated lower ends, each biased by ``2 ** (W
- 2)``, with the width W sized per sweep from the largest magnitude of a
grid point of any keyframe, doubled for the e_i +- e_j ends.  Every grid
vertex is packed once, a keyframe at a time, as one linear combination
of its floors and ceils, and the extents of a whole component over a
keyframe interval, of a prism or of a cell are the :func:`hull`, a
lane-wise maximum, of its vertices'.  The component level rules out a
keyframe interval whose components have separated before any prism
extent is built, and otherwise keeps, per component, the prisms that
meet the other two components' common extents, whose cells are the level
below.  Each cell of components 1 and 2 carries a bitmask of the kept
component-3 cells its extents meet, so a pair of meeting cells reads its
candidates off the two masks' common bits; a meet test is one addition
to the mirror (halves swapped) of the other extent, which the cells of
components 2 and 3 and the common extents compute once.  Rationals are read only at the set-up's edges: the interior
keyframes of a straight-line track, the grid points and the cells' integer
frames are all built from the coordinates' integer ratios.  A cell's
rational points and simplex frame are built only when it first enters a
pair reduction.

The sweep that :func:`mu_via_sweep` runs, and only that one, splits its
collapse track where that cuts candidates: a keyframe interval with more
than :data:`_SPLIT_CANDIDATES_PER_VERTEX` mask candidates per vertex
(common bits over its meeting cell pairs, counted before any solve) is
halved at its midpoint keyframe while the two halves hold fewer
candidates than it, at most :data:`_SPLIT_DEPTH` times.  The decision is
made interval by interval, from the halves' own prefilter, which the
halves kept then reuse.  The midpoints lie on the track's straight
lines, so the triple points, and the invariant, are those of the same
map; every other track, the ``sweep`` command's included, is swept on
the keyframes it was given.
Strictly interior transverse solutions are the signed triple points; their
algebraic count over a homotopy to the trivial ornament is the invariant,
and over an arbitrary homotopy it is the difference of the endpoint
invariants.

Degenerate configurations (singular systems that still touch the closed
cells, boundary solutions) raise NonGenericTrack; the retry protocol
inserts midpoint keyframes into the offending track, jiggles them and the
track's own interior keyframes with a seeded rational perturbation and
sweeps again.  Only the endpoints stay exact, and they fix the count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .geometry import (
    DimensionMismatch,
    Lanes,
    Rat,
    as_point,
    box_intersection,
    derive_seed,
    extents_meet,
    feasible_point,
    grid_brackets,
    grid_magnitude,
    hull,
    meet_mask,
    outward_grid,
    pair_reduction,
    random_rational_perturbation,
    simplex_frame,
    triple_verdict,
)
from .laplace import solve_integer
from .model import Ornament, PLMap, common_point_system, permutation_parity
# Not called here: perfbench/tracing.py times validation through this
# binding, as it does through cli's and constructions'.
from .model import validate_ornament  # noqa: F401

# Orientation constant relating raw block-determinant signs to the signed
# count, normalized so that a sweep from an ornament to the trivial one
# totals the ornament's invariant (equivalently: relative sweeps equal the
# difference of endpoint invariants).  Calibrated once on the k=1 reference
# construction and frozen; unlike the ray-counting side, the track
# conventions carry no ambient-parity factor (the k=2 reference value is a
# prediction checked by the acceptance suite).
GLOBAL_SWEEP_SIGN = 1


class NonGenericTrack(Exception):
    """The track has a degenerate cell-triple configuration; perturb and retry."""


@dataclass(frozen=True, slots=True, eq=False)
class HomotopyTrack:
    """Keyframed homotopy of three PL maps, shared domains, times 0..1.

    ``images[j][i]`` is the tuple of vertex images of component ``i`` at
    keyframe ``j``; between keyframes vertices move along straight lines.
    """

    domains: tuple
    m: int
    times: tuple
    images: tuple

    def __post_init__(self):
        domains = tuple(self.domains)
        times = tuple(Rat(t) for t in self.times)
        if len(domains) != 3:
            raise ValueError("a track has exactly three components")
        if len(times) < 2 or times[0] != 0 or times[-1] != 1:
            raise ValueError("keyframe times must run from 0 to 1")
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError("keyframe times must strictly increase")
        if len(self.images) != len(times):
            raise ValueError("one image set per keyframe required")
        frozen = []
        for frame in self.images:
            frame = tuple(tuple(as_point(img) for img in comp)
                          for comp in frame)
            if len(frame) != 3:
                raise ValueError("each keyframe needs all three components")
            for dom, comp in zip(domains, frame):
                if len(comp) != dom.vertex_count:
                    raise DimensionMismatch("keyframe image count mismatch")
                for img in comp:
                    if len(img) != self.m:
                        raise DimensionMismatch(
                            "keyframe image dimension mismatch")
            frozen.append(frame)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "images", tuple(frozen))

    def endpoint(self, which):
        """The ornament at t=0 (``which=0``) or t=1 (``which=1``)."""
        frame = self.images[0 if which == 0 else -1]
        return Ornament([
            PLMap(dom, self.m, comp) for dom, comp in zip(self.domains, frame)
        ])


@dataclass(frozen=True)
class PrismCell:
    """One simplex of the staircase triangulation of facet x interval.

    ``vertices`` are (vertex index, level) pairs, level 0 being the lower
    keyframe of the interval; ``sign`` orients the listed order relative to
    the product orientation (oriented facet first, then increasing time).
    """

    component: int
    facet: int
    interval: int
    vertices: tuple
    sign: int


@dataclass(frozen=True)
class SignedTriplePoint:
    """An isolated transverse common point of the three component tracks."""

    cells: tuple
    barycentric: tuple
    t: object
    sign: int


def staircase_cells(facet, component, facet_index, interval):
    """Staircase triangulation of ``facet x interval``.

    The staircase runs over the facet's vertices in globally sorted order,
    which makes the triangulations of adjacent prisms agree on shared faces:
    the faces of the cells of ``facet x I`` that lie in ``tau x I``, taken
    at full dimension, are exactly the staircase cells of ``tau``.  Each
    cell's sign combines the sort parity with the cell's position."""
    d = len(facet) - 1
    order = sorted(facet)
    parity = permutation_parity(facet)
    cells = []
    for i in range(d + 1):
        verts = tuple((order[a], 0) for a in range(i + 1)) + tuple(
            (order[a], 1) for a in range(i, d + 1)
        )
        sign = parity * (-1) ** (d - i)
        cells.append(PrismCell(component, facet_index, interval, verts, sign))
    return cells


def _between(x, y, p, q):
    """The rational at ``t = p / q`` on the way from ``x`` to ``y``, as an
    integer ratio ``(n, d)`` (not in lowest terms) formed with no rational
    arithmetic: between ``n_a / d_a`` and ``n_b / d_b`` it is ``((q - p)
    n_a d_b + p n_b d_a, q d_a d_b)``, which is ``x + t (y - x)``."""
    n_a, d_a = x.as_integer_ratio()
    n_b, d_b = y.as_integer_ratio()
    return (q - p) * n_a * d_b + p * n_b * d_a, q * d_a * d_b


def _frame_between(frame_a, frame_b, p, q):
    """The keyframe at ``t = p / q`` of the straight motion from keyframe
    ``frame_a`` to ``frame_b`` (indexed like one entry of
    :attr:`HomotopyTrack.images`), each coordinate one rational built from
    the :func:`_between` ratio of its ends."""
    return tuple(
        tuple(tuple(Rat(*_between(x, y, p, q)) for x, y in zip(a, b))
              for a, b in zip(comp_a, comp_b))
        for comp_a, comp_b in zip(frame_a, frame_b)
    )


def linear_track(start, end, cuts=()):
    """Track moving every vertex on a straight line from ``start`` to
    ``end``.

    ``cuts`` inserts keyframes at interior times on the same straight
    motion; the map is unchanged but the prisms get shorter, which makes the
    bounding-box prefilter effective on long-range collapses.  Each
    interior keyframe is :func:`_frame_between` of the end frames at its
    time, built from their integer ratios with no rational arithmetic.
    """
    if start.m != end.m:
        raise DimensionMismatch("endpoint ambient dimensions differ")
    domains = tuple(f.domain for f in start.components)
    if domains != tuple(f.domain for f in end.components):
        raise ValueError("endpoints must share their domain triangulations")
    times = [Rat(0)] + [Rat(t) for t in cuts] + [Rat(1)]
    first = tuple(f.images for f in start.components)
    last = tuple(f.images for f in end.components)
    frames = [first]
    frames += [_frame_between(first, last, t.numerator, t.denominator)
               for t in times[1:-1]]
    frames.append(last)
    return HomotopyTrack(domains, start.m, times, frames)


#: Interior keyframes of the default homotopy to the trivial ornament.  The
#: motion is the same straight-line collapse; the extra frames exist so the
#: intervals where the components have already separated prune away.
#: :func:`mu_via_sweep` splits its intervals further where that cuts
#: candidates, at most :data:`_SPLIT_DEPTH` times (see
#: :func:`detect_triple_points`); the ``sweep`` command sweeps a user's
#: keyframes as given.
_COLLAPSE_CUTS = (Rat(1, 8), Rat(1, 4), Rat(3, 8), Rat(1, 2), Rat(3, 4))

#: How many times a split sweep may halve one keyframe interval of its track.
_SPLIT_DEPTH = 4

#: A split sweep tries to halve only an interval that holds more mask
#: candidates than this many per vertex of the track's components.  A try
#: builds the midpoint keyframe of every vertex and prefilters both halves;
#: at k=1 that costs about as much as solving 8 candidates per vertex (some
#: 0.7 ms with 12 vertices and 6 ms with 96, against 5-8 us a candidate), so
#: a try that removes half of the candidates pays only above 16.
_SPLIT_CANDIDATES_PER_VERTEX = 16


def _integer_frames(track):
    """``(shift, lanes, frames)``: per keyframe, each vertex image with the
    time appended, rounded outward onto one power-of-two grid by
    :func:`outward_grid`, a bracket ``(floors, ceils)`` of integer tuples
    around ``2 ** shift`` times the point, indexed like ``track.images``
    (compare :meth:`_SweepCell.framed`), and the
    :class:`~ornaments.geometry.Lanes` that the sweep packs its extents
    on: ``(m + 1) ** 2`` directions, with a width from the largest
    magnitude of a grid point's end.  An end along ``e_i +- e_j`` is at
    most twice that, and a midpoint keyframe's grid point never exceeds
    its neighbours', so every extent of the sweep fits."""
    shift, brackets = outward_grid(
        img + (t,) for t, frame in zip(track.times, track.images)
        for comp in frame for img in comp
    )
    lanes = Lanes((track.m + 1) ** 2, 2 * grid_magnitude(brackets))
    grid = iter(brackets)
    return shift, lanes, [
        tuple(tuple(next(grid) for _ in comp) for comp in frame)
        for frame in track.images
    ]


@lru_cache(maxsize=16)  # the width varies with the data: keep a few
def _direction_lanes(dims, width):
    """``(ceil_lanes, floor_lanes)``: per coordinate of a grid point with
    ``dims`` coordinates, the integers that a ceil and a floor of it are
    multiplied by in :func:`_vertex_extents`, on lanes of ``width`` bits.
    The directions are the coordinates, then ``e_i + e_j`` and ``e_i -
    e_j`` for each pair ``i < j``; an upper end takes the ceils of the
    coordinates a direction adds and the floors of those it subtracts, and
    a lower end the other way round, so lane ``l`` of a direction ``v``
    gets ``v_c`` times the ceil (``v_c > 0``) or the floor (``v_c < 0``)
    of coordinate c, and lane ``count + l`` minus ``v_c`` times the
    other."""
    directions = [{c: 1} for c in range(dims)]
    # The directions e_i + e_j and e_i - e_j: with the plain coordinates
    # they separate thin simplices far better than boxes alone.
    for i, j in combinations(range(dims), 2):
        directions += [{i: 1, j: 1}, {i: 1, j: -1}]
    count = len(directions)
    ceil_lanes = [0] * dims
    floor_lanes = [0] * dims
    for l, direction in enumerate(directions):
        upper = 1 << (width * l)
        lower = 1 << (width * (count + l))
        for c, v in direction.items():
            if v > 0:
                ceil_lanes[c] += v * upper
                floor_lanes[c] -= v * lower
            else:
                floor_lanes[c] += v * upper
                ceil_lanes[c] -= v * lower
    return ceil_lanes, floor_lanes


def _vertex_extents(point, lanes):
    """The packed extent on ``lanes`` of one grid point given as a
    ``(floors, ceils)`` pair, along every coordinate and every direction
    ``e_i +- e_j``: lower ends come from floors, upper ends from ceils
    (``e_i - e_j`` pairs floor i with ceil j), so they bracket the exact
    point's values.  It is linear in the floors and ceils, ``bias + sum of
    ceil_c P_c + floor_c Q_c`` with the lane patterns of
    :func:`_direction_lanes`, so the point takes ``2 (m + 1)`` products
    and no lane is written on its own."""
    floors, ceils = point
    ceil_lanes, floor_lanes = _direction_lanes(len(floors), lanes.width)
    return sum(map(mul, ceils, ceil_lanes),
               sum(map(mul, floors, floor_lanes), lanes.bias))


def _expanded_frame(frame, lanes):
    """:func:`_vertex_extents` of every grid point of one keyframe of
    :func:`_integer_frames`, indexed like it."""
    return tuple(tuple(_vertex_extents(point, lanes) for point in comp)
                 for comp in frame)


class _Keyframe(NamedTuple):
    """One keyframe of a sweep: its time, its vertex images (indexed like
    one entry of :attr:`HomotopyTrack.images`) and their
    :func:`_expanded_frame`."""

    time: object
    images: tuple
    vertices: tuple


def _midpoint(lower, upper, shift, lanes):
    """The :class:`_Keyframe` halfway in time between two keyframes of a
    track, between which every vertex moves on a straight line, so the
    track's map is unchanged.  Its time and images are the
    :func:`_between` and :func:`_frame_between` of its neighbours' at
    ``t = 1 / 2``, built with no rational arithmetic; on a straight-line
    track it is the keyframe :func:`linear_track` builds at that time.  Its
    grid points are :func:`grid_brackets` of their integer ratios at the
    track's ``shift``, which are the ones :func:`_integer_frames` would
    give the keyframe inside the track: an average is no larger in
    magnitude than its ends, so it leaves the shift as it is, and its
    grid points, packed on the track's ``lanes``, fit their width."""
    time = Rat(*_between(lower.time, upper.time, 1, 2))
    images = _frame_between(lower.images, upper.images, 1, 2)
    grid = iter(grid_brackets(
        [[c.as_integer_ratio() for c in img + (time,)]
         for comp in images for img in comp], shift))
    frame = tuple(tuple(next(grid) for _ in comp) for comp in images)
    return _Keyframe(time, images, _expanded_frame(frame, lanes))


class _SweepCell:
    """A staircase cell of a kept prism with its packed grid extents; its
    rational points and simplex frame are built by :meth:`framed` when it
    first enters a pair reduction.  A cell of component 1 or 2 also holds
    its :func:`meet_mask` against the keyframe interval's kept cells of
    component 3, a cell of component 2 or 3 the
    :meth:`~ornaments.geometry.Lanes.mirror` of its extents, which the
    cells it is tested against read, and a cell of component 2 its (cell
    2, cell 3) reductions, made on first use, in a list indexed like those
    cells."""

    __slots__ = ("cell", "extents", "mirror", "points", "frame", "mask",
                 "reductions")

    def __init__(self, cell, extents):
        self.cell = cell
        self.extents = extents
        self.points = None
        self.frame = None

    def framed(self, keyframes):
        """The cell's :func:`simplex_frame`, built on first use together
        with :attr:`points`, the images in R^{m+1} of its vertices with the
        time appended, read from its interval's two ``keyframes``; the
        touching test and the witness read them."""
        if self.frame is None:
            self.points = [
                tuple(keyframes[level].images[self.cell.component][v])
                + (keyframes[level].time,)
                for v, level in self.cell.vertices
            ]
            self.frame = simplex_frame(self.points)
        return self.frame


_UNSEEN = object()


class _Candidates(NamedTuple):
    """The candidates of one keyframe interval: ``pairs`` lists the (cell
    1, cell 2, mask) of the cell pairs whose extents meet and whose masks
    share a bit, with the common bits as the mask; ``count`` is the number
    of those bits; ``cells2`` and ``cells3`` are the kept cells of
    components 2 and 3."""

    count: int
    pairs: list
    cells2: list
    cells3: list


def _interval_candidates(domains, lanes, keyframes, limit=None):
    """The :class:`_Candidates` of the keyframe interval between
    ``keyframes``, a (lower, upper) pair of :class:`_Keyframe` whose
    vertices are packed on ``lanes``, or ``None`` as soon as their count
    reaches ``limit``.  The cells carry no interval number, which
    :func:`_interval_points` gives the cells of each triple point.  See
    :func:`detect_triple_points`."""
    empty = _Candidates(0, [], [], [])
    vertices = (keyframes[0].vertices, keyframes[1].vertices)
    w1, w2, w3 = (hull(lower + upper, lanes)
                  for lower, upper in zip(*vertices))
    # Per component, the common part of the other two components' extents.
    others = (box_intersection(w2, w3, lanes),
              box_intersection(w1, w3, lanes),
              box_intersection(w1, w2, lanes))
    if any(common is None for common in others):
        return empty
    # Per component, the facets whose prisms meet the other two components'
    # common extents.
    kept = []
    for ci, (dom, common) in enumerate(zip(domains, others)):
        mirrored = lanes.mirror(common)
        kept.append([
            fi for fi, facet in enumerate(dom.facets)
            if extents_meet(hull([vertices[level][ci][v] for level in (0, 1)
                                  for v in facet], lanes), mirrored, lanes)
        ])
    if not all(kept):
        return empty
    # Per component, the cells of those prisms in prism then staircase
    # order: bit b of a mask stands for cells3[b].
    cells1, cells2, cells3 = (
        [_SweepCell(cell, hull(
            [vertices[level][ci][v] for v, level in cell.vertices], lanes
        ))
         for fi in facets
         for cell in staircase_cells(domains[ci].facets[fi], ci, fi, None)]
        for ci, facets in enumerate(kept)
    )
    for entry in cells2 + cells3:
        entry.mirror = lanes.mirror(entry.extents)
    mirrors3 = [entry.mirror for entry in cells3]
    for entry in cells1 + cells2:
        entry.mask = meet_mask(entry.extents, mirrors3, lanes)
    count = 0
    pairs = []
    for entry1 in cells1:
        for entry2 in cells2:
            mask = entry1.mask & entry2.mask
            if not mask or not extents_meet(entry1.extents, entry2.mirror,
                                            lanes):
                continue
            pairs.append((entry1, entry2, mask))
            count += mask.bit_count()
            if limit is not None and count >= limit:
                return None
    return _Candidates(count, pairs, cells2, cells3)


def _interval_points(j, keyframes, candidates):
    """The signed triple points of the keyframe interval between
    ``keyframes``, numbered ``j`` in the swept track, unsorted, from its
    :func:`_interval_candidates`.  The candidates run over the pairs in
    order, then the common bits of their masks.  See
    :func:`detect_triple_points`."""
    found = []
    cells3 = candidates.cells3
    for entry in candidates.cells2:
        entry.reductions = [_UNSEEN] * len(cells3)
    for entry1, entry2, mask in candidates.pairs:
        fr1 = entry1.framed(keyframes)
        fr2 = entry2.framed(keyframes)
        reduction12 = pair_reduction(fr1, fr2)
        reductions32 = entry2.reductions
        while mask:
            low = mask & -mask
            mask ^= low
            b = low.bit_length() - 1
            entry3 = cells3[b]
            reduction32 = reductions32[b]
            if reduction32 is _UNSEEN:
                reduction32 = reductions32[b] = pair_reduction(
                    entry3.framed(keyframes), fr2
                )
            sign = 0  # a degenerate cell 1 or 3: no reduction
            if reduction12 is not None and reduction32 is not None:
                sign, numerators, det = solve_integer(
                    reduction12, reduction32
                )
            if sign == 0:
                eq_rows, scales, _ = common_point_system(
                    (entry1.points, entry2.points, entry3.points)
                )
                if feasible_point(eq_rows, scales) is not None:
                    raise NonGenericTrack(
                        f"singular touching system at interval {j}"
                    )
                continue
            if numerators is None:
                continue  # outside cell 2
            sign, verdict = triple_verdict(reduction12, reduction32, sign,
                                           numerators, det)
            if verdict is None:
                continue  # outside cell 1 or cell 3
            if verdict == "closed":
                raise NonGenericTrack(f"boundary solution at interval {j}")
            full = verdict[:3]
            t = sum((lam * p[-1]
                     for lam, p in zip(full[0], entry1.points)), Rat(0))
            cell1, cell2, cell3 = (replace(entry.cell, interval=j)
                                   for entry in (entry1, entry2, entry3))
            sign = (GLOBAL_SWEEP_SIGN * cell1.sign
                    * cell2.sign * cell3.sign * sign)
            found.append(SignedTriplePoint(
                cells=(cell1, cell2, cell3),
                barycentric=full,
                t=t,
                sign=sign,
            ))
    return found


def detect_triple_points(track, split=False):
    """All transverse common points of the three component tracks, signed.

    Enumerates same-interval cell triples (a strictly interior common point
    has a strictly interior time, so cross-interval triples cannot
    contribute), prefiltered on three levels by extents along the
    coordinates and the directions e_i +- e_j: first those of the whole
    components over the keyframe interval, then those of the prisms, then
    those of their staircase cells.  Extents are intervals, coordinate by
    coordinate, so three of them share a point exactly when they meet
    pairwise.  An interval where two components' extents miss holds no
    candidate and builds no prism extent.  Otherwise a prism that misses
    the common part of the other two components' extents is dropped, and
    the cells of every prism kept are listed per component, in prism then
    staircase order.  Each cell of components 1 and 2 gets a
    :func:`meet_mask` over the cells of component 3, and a (cell 1, cell
    2) pair whose extents meet has the common bits of its masks, in
    ascending order, as its candidates.  A cell's extents lie in its
    prism's, so these are the triples of a prism-triple loop that then
    pairs the cells of meeting prisms; only their order differs, and the
    points are sorted.  The extents are
    computed on the grid points of :func:`_integer_frames`, each vertex
    rounded outward onto one power-of-two grid, so they contain
    ``2 ** shift`` times the exact extents: every triple whose exact
    extents overlap reaches a solve.  A triple let through by the rounding
    alone has closed cells that do not meet, so a singular system fails the
    touching test and a nonsingular one has its solution outside some
    cell; it can neither add a point nor raise, and the points found are
    those of the exact prefilter.

    With ``split`` (the sweep :func:`mu_via_sweep` runs), each keyframe
    interval is halved at its :func:`_midpoint` while its two halves hold
    fewer mask candidates, the common bits of all its candidate pairs,
    than it does, at most :data:`_SPLIT_DEPTH` times.  A split is tried
    only on an interval with more than
    :data:`_SPLIT_CANDIDATES_PER_VERTEX` candidates per vertex of the
    track's components, where the try can pay for itself.  The halves are
    prefiltered as intervals in their own right, their count stops as soon
    as it reaches the interval's, and the halves kept are split the same
    way from what their count built.  The midpoints lie on the track's
    straight lines, so the map and its triple points are unchanged, and
    the points found, with their cells numbered in the split track's
    intervals, and the systems solved are those of the unsplit sweep of
    the track with the midpoints as keyframes.  Without ``split`` (the
    ``sweep`` command, and every other track) the keyframes are swept as
    given.

    The set-up is lazy where the candidates are sparse.  The grid vertices
    of keyframes j and j + 1 are packed by :func:`_vertex_extents` for
    interval j, those of j + 1 kept for the next, and the extents of a
    component, prism or cell are the :func:`hull` of its vertices' (all of
    the component's at both keyframes, or the 2(d + 1) or d + 2 of the
    prism or cell), so a prism's equal the union of its cells', and a
    component's the union of its prisms'.  A cell's rational points and
    simplex frame (which carries its column scales, formed from the points'
    integer ratios) are built when it first enters a pair reduction: a cell
    1 or 2 with its first meeting cell pair, a cell 3 with the first (cell
    2, cell 3) reduction it is in.

    Each candidate is solved in two steps from the (cell 1, cell 2)
    reduction, made once per pair, and the (cell 3, cell 2) reduction, made
    on first use and kept by cell 2 at cell 3's bit for the rest of the
    keyframe interval.  :func:`solve_integer` lifts each one's right-hand
    side by the other's ``rho`` and returns numerators only for a point in
    closed cell 2: it stops at the first negative coordinate, and then
    screens the implied one.  Only then does :func:`triple_verdict`
    back-substitute cells 3 and 1 and classify the point.  A cell's edges
    are eliminated once, by its frame, however many reductions eliminate
    it; the x-free rows of the reductions are primitive, which keeps the
    joined 2k x 2k system narrow.  Each candidate is decided on integers:
    one outside some cell is dropped and one on a cell's boundary raises,
    both before any rational is built; a singular one (a degenerate cell 1
    or cell 3 included, which has no reduction and gets no solve) goes to
    the exact touching test, which raises when the closed cells meet.  The
    touching tests and the witnesses use the rational points.  Raises
    NonGenericTrack on any exactly-degenerate configuration.
    """
    shift, lanes, int_frames = _integer_frames(track)
    domains = track.domains
    vertex_count = sum(dom.vertex_count for dom in domains)

    def leaves(keyframes, candidates, depth):
        # The intervals swept in place of one, in time order, each with
        # its candidates.
        count = candidates.count
        if depth and count > _SPLIT_CANDIDATES_PER_VERTEX * vertex_count:
            lower, upper = keyframes
            middle = _midpoint(lower, upper, shift, lanes)
            left = _interval_candidates(domains, lanes, (lower, middle),
                                        count)
            if left is not None:
                right = _interval_candidates(domains, lanes,
                                             (middle, upper),
                                             count - left.count)
                if right is not None:
                    yield from leaves((lower, middle), left, depth - 1)
                    yield from leaves((middle, upper), right, depth - 1)
                    return
        yield keyframes, candidates

    found = []
    j = 0  # the number of the next interval swept
    upper = _Keyframe(track.times[0], track.images[0],
                      _expanded_frame(int_frames[0], lanes))
    for time, images, frame in zip(track.times[1:], track.images[1:],
                                   int_frames[1:]):
        lower, upper = upper, _Keyframe(time, images,
                                        _expanded_frame(frame, lanes))
        candidates = _interval_candidates(domains, lanes, (lower, upper))
        for keyframes, kept in leaves((lower, upper), candidates,
                                      _SPLIT_DEPTH if split else 0):
            found.extend(_interval_points(j, keyframes, kept))
            j += 1
    found.sort(key=lambda p: (p.t, tuple(
        (c.component, c.facet, c.interval, c.vertices) for c in p.cells
    )))
    return found


def _refined_track(track, seed, attempt):
    """Insert a midpoint keyframe into every interval of the original track
    and jiggle it and every interior keyframe; the endpoints stay exact.

    Each inserted vertex is the :func:`_frame_between` midpoint of its
    images at the two neighbouring keyframes of the input track, then,
    like each vertex of an interior keyframe of the input track, has every
    coordinate moved by less than ``eps / 2 ** (4 + attempt % 8)``, seeded
    by ``(seed, attempt)`` and its place (an interior keyframe's with a tag
    of its own); ``eps`` is the span of the track's image coordinates, or 1
    if that is smaller.  The scale thus falls from eps/16 to eps/2048 over
    attempts 0-7 and repeats every 8 attempts, with fresh seeds.  The map
    changes between the endpoints, which leaves the signed count, the
    difference of the endpoint invariants, as it is."""
    coords = [
        c for frame in track.images for comp in frame
        for img in comp for c in img
    ]
    eps = max(max(coords) - min(coords), Rat(1)) / 2 ** (4 + attempt % 8)

    def jiggled(frame, *tag):
        return tuple(
            tuple(random_rational_perturbation(
                      img, eps, derive_seed(seed, attempt, *tag, ci, vi))
                  for vi, img in enumerate(comp))
            for ci, comp in enumerate(frame)
        )

    last = len(track.times) - 1
    times = [track.times[0]]
    frames = [track.images[0]]
    for j in range(last):
        lower, upper = track.images[j], track.images[j + 1]
        times += [Rat(*_between(track.times[j], track.times[j + 1], 1, 2)),
                  track.times[j + 1]]
        frames += [jiggled(_frame_between(lower, upper, 1, 2), j),
                   upper if j + 1 == last
                   else jiggled(upper, "keyframe", j + 1)]
    return HomotopyTrack(track.domains, track.m, times, frames)


def sweep_with_retries(track, seed=0, split=False):
    """Detect triple points, refining the track on degeneracy, at most 32
    times.

    Returns ``(points, swept_track)`` where the track is either the input or
    a refinement with jiggled midpoint and interior keyframes and the same
    endpoints (see :func:`_refined_track`: every attempt refines the input
    track afresh, and the jiggle scale cycles through eps/16 ... eps/2048
    every 8 attempts).  Every attempt passes ``split`` on to
    :func:`detect_triple_points`; with it, the points' cells are numbered
    in the intervals of the swept track's split, which is not returned."""
    try:
        return detect_triple_points(track, split), track
    except NonGenericTrack:
        pass
    for attempt in range(32):
        candidate = _refined_track(track, seed, attempt)
        try:
            return detect_triple_points(candidate, split), candidate
        except NonGenericTrack:
            continue
    raise RuntimeError("sweep failed to become generic; are the endpoints valid?")


def trivial_ornament(domains, m, targets):
    """Collapse each domain to its own fixed target point."""
    targets = [as_point(t) for t in targets]
    if len(targets) != 3:
        raise ValueError("exactly three targets required")
    if len(set(targets)) != 3:
        raise ValueError("targets must be pairwise distinct")
    return Ornament([
        PLMap(dom, m, [t] * dom.vertex_count) for dom, t in zip(domains, targets)
    ])


def default_trivial_targets(o, seed=0):
    """Three seeded points far outside the bounding box of the ornament's
    images, pairwise far apart."""
    coords = [c for f in o.components for img in f.images for c in img]
    radius = max(max(abs(c) for c in coords), Rat(1))
    m = o.m
    bases = []
    for i in range(3):
        base = [Rat(0)] * m
        if i < 2:
            base[i % m] = 4 * radius
        else:
            base = [-4 * radius] * m
        bases.append(base)
    return [
        random_rational_perturbation(
            base, radius, derive_seed(seed, "target", i)
        )
        for i, base in enumerate(bases)
    ]


def _collapse_track(o, targets):
    """Straight-line track from ``o`` to the trivial ornament at
    ``targets``, keyframed at :data:`_COLLAPSE_CUTS`."""
    domains = tuple(f.domain for f in o.components)
    end = trivial_ornament(domains, o.m, targets)
    return linear_track(o, end, cuts=_COLLAPSE_CUTS)


def mu_via_sweep(o, seed=0):
    """The invariant as the algebraic triple-point count of a seeded
    homotopy to the trivial ornament, swept split (see
    :data:`_COLLAPSE_CUTS`)."""
    targets = default_trivial_targets(o, derive_seed(seed, "targets"))
    track = _collapse_track(o, targets)
    points, _ = sweep_with_retries(track, seed=derive_seed(seed, "sweep"),
                                   split=True)
    return sum(p.sign for p in points)


def pair_opposite_signs(points):
    """Greedy pairing of opposite-sign triple points in time order.

    Returns ``(pairs, remainder)``: each pair is (positive, negative), and
    everything left over has one common sign, with as many points as the
    absolute sign sum."""
    pairs = []
    unpaired = []
    for p in points:
        partner = None
        for i, q in enumerate(unpaired):
            if q.sign == -p.sign:
                partner = i
                break
        if partner is None:
            unpaired.append(p)
        else:
            q = unpaired.pop(partner)
            pairs.append((p, q) if p.sign > 0 else (q, p))
    return pairs, unpaired

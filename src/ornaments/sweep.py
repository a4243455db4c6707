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
the directions e_i +- e_j, computed on integers about 64 bits wide on the
prefilter layer of :mod:`ornaments.geometry` that validation and the
degree route share: the track is rounded outward onto one power-of-two
grid, so the extents contain the exact ones and no triple that can meet is
cut.  Every grid vertex is expanded into its ends along those directions
once, a keyframe at a time, and the extents of a whole component over a
keyframe interval, of a prism or of a cell are the :func:`hull` of its
vertices' ends.  The component level rules out a keyframe interval whose
components have separated before any prism extent is built, and otherwise
keeps, per component, the prisms that meet the other two components'
common extents, whose cells are the level below.  Each cell of components
1 and 2 carries a bitmask of the kept component-3 cells its extents meet,
so a pair of meeting cells reads its candidates off the two masks' common
bits.  Rationals are read only at the set-up's edges: the interior
keyframes of a straight-line track, the grid points and the cells' integer
frames are all built from the coordinates' integer ratios.  A cell's
rational points and simplex frame are built only when it first enters a
pair reduction.
Strictly interior transverse solutions are the signed triple points; their
algebraic count over a homotopy to the trivial ornament is the invariant,
and over an arbitrary homotopy it is the difference of the endpoint
invariants.

Degenerate configurations (singular systems that still touch the closed
cells, boundary solutions) raise NonGenericTrack; the retry protocol
inserts midpoint keyframes into the offending track, jiggles them with a
seeded rational perturbation and sweeps again, leaving the endpoints
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .geometry import (
    DimensionMismatch,
    Rat,
    as_point,
    box_intersection,
    derive_seed,
    extents_meet,
    feasible_point,
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


class HomotopyTrack:
    """Keyframed homotopy of three PL maps, shared domains, times 0..1.

    ``images[j][i]`` is the tuple of vertex images of component ``i`` at
    keyframe ``j``; between keyframes vertices move along straight lines.
    """

    __slots__ = ("domains", "m", "times", "images")

    def __init__(self, domains, m, times, images):
        domains = tuple(domains)
        times = tuple(Rat(t) for t in times)
        if len(domains) != 3:
            raise ValueError("a track has exactly three components")
        if len(times) < 2 or times[0] != 0 or times[-1] != 1:
            raise ValueError("keyframe times must run from 0 to 1")
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError("keyframe times must strictly increase")
        if len(images) != len(times):
            raise ValueError("one image set per keyframe required")
        frozen = []
        for frame in images:
            frame = tuple(tuple(as_point(img) for img in comp)
                          for comp in frame)
            if len(frame) != 3:
                raise ValueError("each keyframe needs all three components")
            for dom, comp in zip(domains, frame):
                if len(comp) != dom.vertex_count:
                    raise DimensionMismatch("keyframe image count mismatch")
                for img in comp:
                    if len(img) != m:
                        raise DimensionMismatch("keyframe image dimension mismatch")
            frozen.append(frame)
        self.domains = domains
        self.m = m
        self.times = times
        self.images = tuple(frozen)

    def endpoint(self, which):
        """The ornament at t=0 (``which=0``) or t=1 (``which=1``)."""
        frame = self.images[0 if which == 0 else -1]
        return Ornament([
            PLMap(dom, self.m, comp) for dom, comp in zip(self.domains, frame)
        ])

    def __repr__(self):
        return f"HomotopyTrack(m={self.m}, keyframes={len(self.times)})"


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


def cell_points(track, cell):
    """Images of a cell's vertices in R^{m+1} (time appended)."""
    j = cell.interval
    pts = []
    for v, level in cell.vertices:
        img = track.images[j + level][cell.component][v]
        pts.append(tuple(img) + (track.times[j + level],))
    return pts


def linear_track(start, end, cuts=()):
    """Track moving every vertex on a straight line from ``start`` to
    ``end``.

    ``cuts`` inserts keyframes at interior times on the same straight
    motion; the map is unchanged but the prisms get shorter, which makes the
    bounding-box prefilter effective on long-range collapses.  Each
    coordinate of an interior keyframe is built as one rational from the
    integer ratios of its ends, with no rational arithmetic: at ``t = p /
    q`` the coordinate between ``n_a / d_a`` and ``n_b / d_b`` is ``((q -
    p) n_a d_b + p n_b d_a) / (q d_a d_b)``, which is ``a + t (b - a)``.
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
    if cuts:
        # Per component and vertex, the ratio pairs of its coordinates at
        # both ends, shared by every interior keyframe.
        ends = [
            [[(x.as_integer_ratio(), y.as_integer_ratio())
              for x, y in zip(a, b)] for a, b in zip(fs, fe)]
            for fs, fe in zip(first, last)
        ]
        for t in times[1:-1]:
            p, q = t.numerator, t.denominator
            r = q - p
            frames.append(tuple(
                tuple(tuple(Rat(r * n_a * d_b + p * n_b * d_a, q * d_a * d_b)
                            for (n_a, d_a), (n_b, d_b) in vertex)
                      for vertex in comp)
                for comp in ends
            ))
    frames.append(last)
    return HomotopyTrack(domains, start.m, times, frames)


#: Interior keyframes of the default homotopy to the trivial ornament.  The
#: motion is the same straight-line collapse; the extra frames exist so the
#: intervals where the components have already separated prune away.
_COLLAPSE_CUTS = (Rat(1, 8), Rat(1, 4), Rat(3, 8), Rat(1, 2), Rat(3, 4))


def _integer_frames(track):
    """Per keyframe, each vertex image with the time appended, rounded
    outward onto one power-of-two grid by :func:`outward_grid`: a bracket
    ``(floors, ceils)`` of integer tuples around ``2 ** shift`` times the
    point, indexed like ``track.images`` (compare :func:`cell_points`)."""
    _, brackets = outward_grid(
        img + (t,) for t, frame in zip(track.times, track.images)
        for comp in frame for img in comp
    )
    grid = iter(brackets)
    return [
        tuple(tuple(next(grid) for _ in comp) for comp in frame)
        for frame in track.images
    ]


def _vertex_extents(point, pairs):
    """Outward lower and upper ends along every coordinate and every paired
    direction of one grid point given as a ``(floors, ceils)`` pair: lower
    ends come from floors, upper ends from ceils (``e_i - e_j`` pairs floor
    i with ceil j), so they bracket the exact point's values."""
    lo, hi = point
    low = list(lo)
    high = list(hi)
    for i, j in pairs:
        low.append(lo[i] + lo[j])
        low.append(lo[i] - hi[j])
        high.append(hi[i] + hi[j])
        high.append(hi[i] - lo[j])
    return low, high


def _expanded_frame(frame, pairs):
    """:func:`_vertex_extents` of every grid point of one keyframe of
    :func:`_integer_frames`, indexed like it."""
    return tuple(tuple(_vertex_extents(point, pairs) for point in comp)
                 for comp in frame)


class _SweepCell:
    """A staircase cell of a kept prism with its grid extents; its rational
    points and simplex frame are built by :meth:`framed` when it first
    enters a pair reduction.  A cell of component 1 or 2 also holds its
    :func:`meet_mask` against the keyframe interval's kept cells of
    component 3, and a cell of component 2 its (cell 2, cell 3)
    reductions, made on first use, in a list indexed like those cells."""

    __slots__ = ("cell", "extents", "points", "frame", "mask", "reductions")

    def __init__(self, cell, extents):
        self.cell = cell
        self.extents = extents
        self.points = None
        self.frame = None

    def framed(self, track):
        """The cell's :func:`simplex_frame`, built on first use together
        with :attr:`points` (see :func:`cell_points`), which the touching
        test and the witness read."""
        if self.frame is None:
            self.points = cell_points(track, self.cell)
            self.frame = simplex_frame(self.points)
        return self.frame


_UNSEEN = object()


def _interval_triple_points(track, j, vertices):
    """The signed triple points of keyframe interval ``j``, unsorted;
    ``vertices`` holds the :func:`_expanded_frame` of keyframes j and j + 1.
    The candidates run over cell 1, then cell 2, then the common bits of
    their masks, each cell in its component's prism then staircase order.
    See :func:`detect_triple_points`."""
    found = []
    w1, w2, w3 = (hull(lower + upper) for lower, upper in zip(*vertices))
    # Per component, the common part of the other two components' extents.
    others = (box_intersection(w2, w3), box_intersection(w1, w3),
              box_intersection(w1, w2))
    if any(common is None for common in others):
        return found
    # Per component, the facets whose prisms meet the other two components'
    # common extents.
    kept = [
        [fi for fi, facet in enumerate(dom.facets)
         if extents_meet(hull([vertices[level][ci][v] for level in (0, 1)
                               for v in facet]), common)]
        for ci, (dom, common) in enumerate(zip(track.domains, others))
    ]
    if not all(kept):
        return found
    # Per component, the cells of those prisms in prism then staircase
    # order: bit b of a mask stands for cells3[b].
    cells1, cells2, cells3 = (
        [_SweepCell(cell, hull(
            [vertices[level][ci][v] for v, level in cell.vertices]
        ))
         for fi in facets
         for cell in staircase_cells(track.domains[ci].facets[fi], ci, fi, j)]
        for ci, facets in enumerate(kept)
    )
    extents3 = [entry.extents for entry in cells3]
    for entry in cells1 + cells2:
        entry.mask = meet_mask(entry.extents, extents3)
    for entry in cells2:
        entry.reductions = [_UNSEEN] * len(cells3)
    for entry1 in cells1:
        for entry2 in cells2:
            mask = entry1.mask & entry2.mask
            if not mask or not extents_meet(entry1.extents, entry2.extents):
                continue
            fr1 = entry1.framed(track)
            fr2 = entry2.framed(track)
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
                        entry3.framed(track), fr2
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
                cell1, cell2, cell3 = entry1.cell, entry2.cell, entry3.cell
                sign = (GLOBAL_SWEEP_SIGN * cell1.sign
                        * cell2.sign * cell3.sign * sign)
                found.append(SignedTriplePoint(
                    cells=(cell1, cell2, cell3),
                    barycentric=full,
                    t=t,
                    sign=sign,
                ))
    return found


def detect_triple_points(track):
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

    The set-up is lazy where the candidates are sparse.  The grid vertices
    of keyframes j and j + 1 are expanded by :func:`_vertex_extents` for
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
    found = []
    # The directions e_i + e_j and e_i - e_j: with the plain coordinates
    # they separate thin simplices far better than boxes alone.
    pairs = list(combinations(range(track.m + 1), 2))
    int_frames = _integer_frames(track)
    upper = _expanded_frame(int_frames[0], pairs)
    for j in range(len(track.times) - 1):
        lower, upper = upper, _expanded_frame(int_frames[j + 1], pairs)
        found.extend(_interval_triple_points(track, j, (lower, upper)))
    found.sort(key=lambda p: (p.t, tuple(
        (c.component, c.facet, c.interval, c.vertices) for c in p.cells
    )))
    return found


def _refined_track(track, seed, attempt):
    """Insert a midpoint keyframe into every interval of the original track
    and jiggle the inserted frames; endpoints are never touched.

    Each inserted vertex is the average of its images at the two
    neighbouring keyframes with every coordinate moved by less than
    ``eps / 2 ** (4 + attempt % 8)``, seeded by ``(seed, attempt)``;
    ``eps`` is the span of the track's image coordinates, or 1 if that is
    smaller.  The scale thus falls from eps/16 to eps/2048 over attempts
    0-7 and repeats every 8 attempts, with fresh seeds."""
    coords = [
        c for frame in track.images for comp in frame
        for img in comp for c in img
    ]
    eps = max(max(coords) - min(coords), Rat(1)) / 2 ** (4 + attempt % 8)
    times = []
    frames = []
    for j in range(len(track.times) - 1):
        times.append(track.times[j])
        frames.append(track.images[j])
        mid_t = (track.times[j] + track.times[j + 1]) / 2
        mid_frame = []
        for ci in range(3):
            comp = []
            for vi in range(track.domains[ci].vertex_count):
                avg = [(a + b) / 2 for a, b in zip(
                    track.images[j][ci][vi], track.images[j + 1][ci][vi]
                )]
                comp.append(random_rational_perturbation(
                    avg, eps, derive_seed(seed, attempt, j, ci, vi)
                ))
            mid_frame.append(tuple(comp))
        times.append(mid_t)
        frames.append(tuple(mid_frame))
    times.append(track.times[-1])
    frames.append(track.images[-1])
    return HomotopyTrack(track.domains, track.m, times, frames)


def sweep_with_retries(track, seed=0):
    """Detect triple points, refining the track on degeneracy, at most 32
    times.

    Returns ``(points, swept_track)`` where the track is either the input or
    a refinement with jiggled midpoint keyframes and the same endpoints (see
    :func:`_refined_track`: every attempt refines the input track afresh,
    and the jiggle scale cycles through eps/16 ... eps/2048 every 8
    attempts)."""
    try:
        return detect_triple_points(track), track
    except NonGenericTrack:
        pass
    for attempt in range(32):
        candidate = _refined_track(track, seed, attempt)
        try:
            return detect_triple_points(candidate), candidate
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
    homotopy to the trivial ornament."""
    targets = default_trivial_targets(o, derive_seed(seed, "targets"))
    track = _collapse_track(o, targets)
    points, _ = sweep_with_retries(track, seed=derive_seed(seed, "sweep"))
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

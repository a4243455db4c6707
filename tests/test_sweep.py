import random
from collections import Counter
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ornaments import constructions, sweep
from ornaments.constructions import (
    make_borromean,
    make_random_ornament,
    make_trivial,
)
from ornaments.degree import mu_via_degree_auto
from ornaments.geometry import (
    DimensionMismatch,
    Lanes,
    Rat,
    as_point,
    derive_seed,
    pair_reduction,
    simplex_frame,
)
from ornaments.laplace import solve_integer
from ornaments.model import (
    Ornament,
    PLMap,
    perturb_ornament,
    validate_ornament,
)
from ornaments.sweep import (
    HomotopyTrack,
    NonGenericTrack,
    default_trivial_targets,
    detect_triple_points,
    linear_track,
    mu_via_sweep,
    pair_opposite_signs,
    staircase_cells,
    sweep_with_retries,
    trivial_ornament,
)

from oracles import (
    cell_points,
    certify_ornament_homotopy,
    concat_tracks,
    decide_from_pairs,
    extents_exact,
    extents_union,
    integer_frames_exact,
    interior_barycentric,
    interior_frame_by_steps,
    joined_system,
    refined_track_by_fractions,
    relative_sweep,
    reverse_track,
    solve_bareiss,
    solve_triple,
    straight_line_homotopy_to_trivial,
    two_level_cell_triples,
    vertex_extents_lists,
)


# --- staircase triangulation ---------------------------------------------------

def test_staircase_cell_shapes():
    facet = (4, 1, 7)
    cells = staircase_cells(facet, component=0, facet_index=3, interval=2)
    assert len(cells) == 3
    for cell in cells:
        assert len(cell.vertices) == 4
        levels = [lvl for _, lvl in cell.vertices]
        assert levels == sorted(levels)
        assert levels[0] == 0 and levels[-1] == 1
        verts = [v for v, _ in cell.vertices]
        assert verts == sorted(verts)  # staircase runs over the sorted order


def test_staircase_signs_alternate():
    # sorted facet: parity +1, cell i carries (-1)^(d - i)
    cells = staircase_cells((0, 1), 0, 0, 0)
    assert [c.sign for c in cells] == [-1, 1]
    # swapping the listed order flips every cell
    cells = staircase_cells((1, 0), 0, 0, 0)
    assert [c.sign for c in cells] == [1, -1]


def test_staircase_restricts_to_shared_faces():
    """Adjacent prisms must induce one triangulation on a shared wall.

    Because the staircase runs over globally sorted vertices, the faces of
    the cells of facet x I that lie in tau x I, taken at full dimension
    (dim tau + 2 vertices), are exactly the staircase cells of tau: that is
    what makes the track a well-defined map across facets.
    """
    def supported_cells(facet, face):
        keep = set(face)
        out = set()
        for cell in staircase_cells(facet, 0, 0, 0):
            restricted = tuple(p for p in cell.vertices if p[0] in keep)
            if len(restricted) == len(face) + 1:
                out.add(restricted)
        return out

    for facet, face in [
        ((0, 1, 2), (0, 2)),
        ((2, 0, 1), (1, 2)),
        ((3, 1, 4, 0), (0, 1, 3)),
        ((5, 2, 9, 7), (2, 5)),
    ]:
        expected = {
            cell.vertices for cell in staircase_cells(face, 0, 0, 0)
        }
        assert supported_cells(facet, face) == expected


def test_pair_reduction_matches_direct_solver():
    """The two-sided kernel's verdict agrees with the direct block solve,
    classified by the reference classifier: the same determinant sign, and
    ``None``, ``"closed"`` or the full coordinates exactly when
    ``interior_barycentric`` of the direct solution gives them.

    Random cells rarely meet, so part of the corpus is built around a
    shared point (strictly inside the cells built around it): all three
    cells, cells 2 and 3 with cell 1 random (reaching "a outside"), and
    cells 1 and 2 with cell 3 random (reaching "b outside").  Putting the
    shared point on a face of one cell (one weight 0) reaches "closed".
    k = 3 checks the (-1)^k of the reduction for an odd k > 1, and cells
    with a repeated vertex check the singular paths: a degenerate cell 1 or
    cell 3 has no reduction, a degenerate cell 2 a singular b system.  The
    solves reached include the three kinds of pairs of the reductions'
    ``rho``, whose product lifts the right-hand sides: equal, one of them
    1, and distinct with a common factor."""
    rng = random.Random(12)

    def rand_point(width):
        return tuple(Rat(rng.randint(-30, 30), rng.randint(1, 7))
                     for _ in range(width))

    def rand_cell(npts, width):
        return [rand_point(width) for _ in range(npts)]

    def cell_around(point, npts, zero=None):
        # the last vertex is placed so that the weights give point; they
        # are positive, but for a zero at index ``zero``
        weights = [rng.randint(1, 9) for _ in range(npts)]
        if zero is not None:
            weights[zero] = 0
        total = sum(weights)
        others = rand_cell(npts - 1, len(point))
        last = tuple(
            (x * total - sum(w * p[c] for w, p in zip(weights, others)))
            / weights[-1]
            for c, x in enumerate(point)
        )
        return others + [last]

    def outside(block, npts):
        return interior_barycentric(block, [npts]) is None

    # k None: drawn from (1, 2) per trial
    corpus = [(None, "random")] * 400 + [(None, "shared")] * 200
    corpus += [(3, "random")] * 60 + [(3, "shared")] * 60
    corpus += [(k, "cell 3 random") for k in (1, 2, 3) for _ in range(40)]
    corpus += [(k, "boundary") for k in (1, 2, 3) for _ in range(20)]
    corpus += [(k, f"repeated {i}") for k in (1, 2, 3) for i in range(3)
               for _ in range(3)]
    branches = dict.fromkeys(
        ("singular", "kept outside", "b outside", "a outside", "closed",
         "inside"), 0
    )
    # The pairs of rho the joined solve reaches, whose product is its
    # common scale: equal, one of them 1, or distinct with a common factor
    # > 1.  In the first and the last the product exceeds the pair's least
    # common multiple, so numerators and determinants are wider.
    scales = dict.fromkeys(("equal", "one is 1", "shared factor"), 0)
    for k, kind in corpus:
        if k is None:
            k = rng.choice((1, 2))
        width, npts = 3 * k, 2 * k + 1
        if kind == "random":
            cells = [rand_cell(npts, width) for _ in range(3)]
        else:
            shared = rand_point(width)
            cells = [cell_around(shared, npts) for _ in range(3)]
            if kind == "shared" and rng.random() < 0.5:
                cells[0] = rand_cell(npts, width)
            elif kind == "cell 3 random":
                cells[2] = rand_cell(npts, width)
            elif kind == "boundary":
                cells[rng.randrange(3)] = cell_around(
                    shared, npts, rng.randrange(npts - 1)
                )
            elif kind.startswith("repeated"):
                cell = cells[int(kind[-1])]
                a, b = rng.sample(range(npts), 2)
                cell[a] = cell[b]
        f1, f2, f3 = (simplex_frame(c) for c in cells)
        direct = solve_triple(f1, f2, f3)
        reduction12 = pair_reduction(f1, f2)
        reduction32 = pair_reduction(f3, f2)
        for frame in (f1, f3):
            elimination = frame.elimination()
            if elimination is not None:
                tri_x, ops, _ = elimination
                assert all(gcd(*op) == 1 for op in ops[len(tri_x):])
        if kind.startswith("repeated"):
            assert direct[0] == 0
        if kind == "repeated 0":
            assert reduction12 is None
        if kind == "repeated 2":
            assert reduction32 is None
        sign, verdict = decide_from_pairs(reduction12, reduction32,
                                          solve_integer)
        assert sign == direct[0]
        if sign:
            rho_a, rho_b = reduction12.rho, reduction32.rho
            if rho_a == rho_b:
                scales["equal"] += 1
            elif 1 in (rho_a, rho_b):
                scales["one is 1"] += 1
            elif gcd(rho_a, rho_b) > 1:
                scales["shared factor"] += 1
        if sign == 0:
            assert verdict is None
            branches["singular"] += 1
            continue
        full = interior_barycentric(direct[1], [npts] * 3)
        if full is None:
            assert verdict is None
            d = npts - 1
            if outside(direct[1][d:2 * d], npts):
                branches["kept outside"] += 1
            elif outside(direct[1][2 * d:], npts):
                branches["b outside"] += 1
            else:
                branches["a outside"] += 1
        elif full == "closed":
            assert kind == "boundary" and verdict == "closed"
            branches["closed"] += 1
        else:
            assert verdict == full + ([],)
            branches["inside"] += 1
    assert all(branches.values()), branches
    assert all(scales.values()), scales


@st.composite
def _cell_triples(draw):
    """Three cells of one k in (1, 2), each 2k + 1 rational points in
    R^{3k}; a point is repeated now and then (a degenerate cell)."""
    k = draw(st.integers(1, 2))
    width, npts = 3 * k, 2 * k + 1
    size = 3 * npts * width
    numerators = draw(st.lists(st.integers(-30, 30), min_size=size,
                               max_size=size))
    denominators = draw(st.lists(st.integers(1, 7), min_size=size,
                                 max_size=size))
    coords = iter(map(Rat, numerators, denominators))
    cells = [[tuple(next(coords) for _ in range(width)) for _ in range(npts)]
             for _ in range(3)]
    if draw(st.integers(0, 7)) == 0:
        cell = cells[draw(st.integers(0, 2))]
        cell[0] = cell[-1]
    return cells


@given(_cell_triples())
def test_pair_reduction_rows_are_primitive(cells):
    """Every x-free row of a pair reduction is primitive together with its
    right-hand side, and the joined b system has the direct solver's
    determinant sign and, when nonsingular, leaves its numerators out
    exactly when the direct solution is outside closed cell 2 (a negative
    coordinate, listed or implied), and otherwise gives that solution."""
    f1, f2, f3 = (simplex_frame(c) for c in cells)
    direct_sign, direct = solve_triple(f1, f2, f3)
    reduction12 = pair_reduction(f1, f2)
    reduction32 = pair_reduction(f3, f2)
    for reduction in (reduction12, reduction32):
        if reduction is not None:
            for row, r in zip(reduction.con_rows, reduction.con_rhs):
                assert gcd(*row, r) in (0, 1)  # 0: an all-zero row
    sign, _ = decide_from_pairs(reduction12, reduction32, solve_integer)
    assert sign == direct_sign
    if reduction12 is None or reduction32 is None:
        assert direct_sign == 0
        return
    rho = reduction12.rho * reduction32.rho
    sign_b, numerators, det = solve_integer(reduction12, reduction32)
    assert (sign_b == 0) == (direct_sign == 0)
    assert sign_b == solve_bareiss(*joined_system(reduction12,
                                                  reduction32))[0]
    if direct_sign:
        d = len(f2.columns)
        if interior_barycentric(direct[d:2 * d], [d + 1]) is None:
            assert numerators is None
        else:
            assert [Rat(s * n, rho * det)
                    for s, n in zip(f2.scales, numerators)] == direct[d:2 * d]


# --- tracks ---------------------------------------------------------------------

def test_linear_track_endpoints(borromean_k1):
    targets = default_trivial_targets(borromean_k1, 0)
    domains = tuple(f.domain for f in borromean_k1.components)
    end = trivial_ornament(domains, borromean_k1.m, targets)
    track = linear_track(borromean_k1, end, cuts=(Rat(1, 3), Rat(2, 3)))
    assert track.endpoint(0) == borromean_k1
    assert track.endpoint(1) == end
    assert len(track.times) == 4


@st.composite
def _straight_motions(draw):
    """``(start, end, cuts)``: two ornaments of three squares in R^2 with
    random rational images (integers, negatives, equal and mixed
    denominators, wide numerators, and vertices that stay put) and
    interior cut times with denominators 3, 7 and 8."""
    square = constructions.cross_polytope_sphere(1).manifold
    coordinate = st.one_of(
        st.builds(Rat, st.integers(-50, 50),
                  st.sampled_from([1, 2, 3, 7, 8, 2 ** 16])),
        st.builds(Rat, st.integers(-2 ** 80, 2 ** 80), st.just(3 * 2 ** 16)),
    )
    point = st.tuples(coordinate, coordinate)
    images = [draw(st.lists(point, min_size=4, max_size=4)) for _ in range(6)]
    for ci in range(3):
        if draw(st.booleans()):
            images[3 + ci][0] = images[ci][0]  # a vertex that stays put
    start, end = (Ornament([PLMap(square, 2, imgs)
                            for imgs in images[i:i + 3]]) for i in (0, 3))
    cuts = draw(st.lists(st.builds(
        lambda q, p: Rat(p % (q - 1) + 1, q),
        st.sampled_from([3, 7, 8]), st.integers(0, 6)), max_size=4))
    return start, end, tuple(sorted(set(cuts)))


@given(_straight_motions())
def test_linear_track_interior_frames_match_the_rational_steps(motion):
    """Each interior keyframe built from integer ratios is the rational
    ``a + t (b - a)`` of the reference, coordinate for coordinate, and the
    end frames are the endpoints' own images."""
    start, end, cuts = motion
    track = linear_track(start, end, cuts=cuts)
    first, last = track.images[0], track.images[-1]
    assert first == tuple(f.images for f in start.components)
    assert last == tuple(f.images for f in end.components)
    for t, frame in zip(cuts, track.images[1:-1]):
        assert frame == interior_frame_by_steps(first, last, t)


@pytest.mark.parametrize("cuts", [
    (),
    (Rat(1, 2),),
    (Rat(1, 3), Rat(2, 3)),
    (Rat(1, 1000), Rat(999, 1000)),
    sweep._COLLAPSE_CUTS,
])
def test_linear_track_keyframes_follow_the_straight_line(borromean_k1, cuts):
    """Every keyframe image is ``(1 - t) a + t b`` exactly, also when the
    endpoints share some or all of their images."""
    moved = perturb_ornament(borromean_k1, Rat(1, 64), seed=2)
    partly = Ornament([moved.components[0], *borromean_k1.components[1:]])
    domains = tuple(f.domain for f in borromean_k1.components)
    collapsed = trivial_ornament(domains, borromean_k1.m,
                                 default_trivial_targets(borromean_k1, 0))
    for start, end in [(borromean_k1, moved), (borromean_k1, partly),
                       (borromean_k1, collapsed), (collapsed, moved),
                       (moved, moved)]:
        track = linear_track(start, end, cuts=cuts)
        assert track.times == (0,) + tuple(cuts) + (1,)
        for t, frame in zip(track.times, track.images):
            assert frame == tuple(
                tuple(tuple((1 - t) * x + t * y for x, y in zip(a, b))
                      for a, b in zip(fs.images, fe.images))
                for fs, fe in zip(start.components, end.components)
            )


def test_track_time_validation(borromean_k1):
    """Each check of ``HomotopyTrack`` raises its own error and message."""
    domains = tuple(f.domain for f in borromean_k1.components)
    frame = tuple(f.images for f in borromean_k1.components)
    m = borromean_k1.m
    short = (frame[0][:-1],) + frame[1:]
    flat = tuple(tuple(img[:-1] for img in comp) for comp in frame)
    cases = [
        ((domains[:2], m, (0, 1), (frame, frame)), ValueError,
         "a track has exactly three components"),
        ((domains, m, (0, Rat(1, 2)), (frame, frame)), ValueError,
         "keyframe times must run from 0 to 1"),
        ((domains, m, (1,), (frame,)), ValueError,
         "keyframe times must run from 0 to 1"),
        ((domains, m, (0, Rat(1, 2), Rat(1, 2), 1), (frame,) * 4),
         ValueError, "keyframe times must strictly increase"),
        ((domains, m, (0, 1), (frame,)), ValueError,
         "one image set per keyframe required"),
        ((domains, m, (0, 1), (frame, frame[:2])), ValueError,
         "each keyframe needs all three components"),
        ((domains, m, (0, 1), (frame, short)), DimensionMismatch,
         "keyframe image count mismatch"),
        ((domains, m, (0, 1), (frame, flat)), DimensionMismatch,
         "keyframe image dimension mismatch"),
    ]
    for args, error, message in cases:
        with pytest.raises(error) as raised:
            HomotopyTrack(*args)
        assert type(raised.value) is error
        assert str(raised.value) == message


def test_tracks_are_frozen_and_equal_only_to_themselves(borromean_k1):
    """A track normalises its times to rationals and its frames to tuples
    of points; it cannot be assigned to, and two tracks built from the same
    arguments are two tracks, not equal."""
    frame = [f.images for f in borromean_k1.components]
    domains = [f.domain for f in borromean_k1.components]
    track = HomotopyTrack(domains, borromean_k1.m, [0, 1], [frame, frame])
    assert track.times == (Rat(0), Rat(1))
    assert all(type(t) is Rat for t in track.times)
    assert track.domains == tuple(domains)
    assert track.images == (tuple(frame), tuple(frame))
    again = HomotopyTrack(domains, borromean_k1.m, [0, 1], [frame, frame])
    assert track == track and track != again
    assert (again.times, again.images) == (track.times, track.images)
    with pytest.raises(AttributeError):
        track.times = (Rat(0), Rat(1))


def test_trivial_to_same_targets_has_no_triple_points():
    from ornaments.constructions import make_trivial

    targets = [as_point([0, 0]), as_point([3, 0]), as_point([0, 3])]
    o = make_trivial(1, targets=targets)
    track = straight_line_homotopy_to_trivial(o, targets, seed=0)
    assert detect_triple_points(track) == []
    assert linear_track(o, o) is not None  # constant track is well-formed too
    assert detect_triple_points(linear_track(o, o)) == []


def test_borromean_track_counts_one(borromean_k1):
    targets = default_trivial_targets(borromean_k1, 0)
    track = straight_line_homotopy_to_trivial(borromean_k1, targets, seed=0)
    assert validate_ornament(track.endpoint(0)).ok
    assert validate_ornament(track.endpoint(1)).ok
    points = detect_triple_points(track)
    assert sum(p.sign for p in points) == 1


def test_straight_line_rejects_coincident_targets(borromean_k1):
    t = as_point([10, 10])
    with pytest.raises(ValueError):
        straight_line_homotopy_to_trivial(borromean_k1,
                                          [t, t, as_point([0, 1])])


def test_time_reversal_negates(borromean_k1):
    targets = default_trivial_targets(borromean_k1, 0)
    track = straight_line_homotopy_to_trivial(borromean_k1, targets, seed=0)
    forward = relative_sweep(track, seed=1)
    backward = relative_sweep(reverse_track(track), seed=1)
    assert forward == 1
    assert backward == -1


def test_concatenation_adds(borromean_k1):
    targets = default_trivial_targets(borromean_k1, 0)
    track = straight_line_homotopy_to_trivial(borromean_k1, targets, seed=0)
    loop = concat_tracks(track, reverse_track(track))
    assert relative_sweep(loop, seed=2) == 0


def test_concatenation_adds_heterogeneous_legs(borromean_k1):
    # Borromean -> perturbation -> trivial: 0 plus 1
    middle = perturb_ornament(borromean_k1, Rat(1, 32), seed=11)
    first = linear_track(borromean_k1, middle)
    targets = default_trivial_targets(middle, 3)
    domains = tuple(f.domain for f in middle.components)
    second = linear_track(middle, trivial_ornament(domains, middle.m, targets),
                          cuts=(Rat(1, 4), Rat(1, 2)))
    assert relative_sweep(first, seed=0) == 0
    assert relative_sweep(second, seed=0) == 1
    assert relative_sweep(concat_tracks(first, second), seed=0) == 1


def test_mu_via_sweep_values(borromean_k1, trivial_k1):
    assert mu_via_sweep(trivial_k1, seed=0) == 0
    assert mu_via_sweep(borromean_k1, seed=0) == 1


def test_mu_via_sweep_seed_independent(borromean_k1):
    assert {mu_via_sweep(borromean_k1, seed=s) for s in range(10)} == {1}


def test_mu_via_sweep_deterministic(borromean_k1):
    assert mu_via_sweep(borromean_k1, seed=3) == mu_via_sweep(borromean_k1, seed=3)


def test_relative_sweep_of_perturbation_is_zero(borromean_k1):
    other = perturb_ornament(borromean_k1, Rat(1, 50), seed=8)
    track = linear_track(borromean_k1, other)
    assert relative_sweep(track, seed=0) == 0


def test_relative_sweep_matches_endpoint_difference():
    for seed in (0, 1, 2, 3):
        a = make_random_ornament(1, seed=seed, spread=Rat(8))
        b = make_random_ornament(1, seed=seed + 100, spread=Rat(8))
        track = linear_track(a, b)
        expected = (mu_via_degree_auto(a, seed=seed)[0]
                    - mu_via_degree_auto(b, seed=seed)[0])
        assert relative_sweep(track, seed=seed) == expected


def test_triple_points_substitute_exactly(borromean_k1):
    targets = default_trivial_targets(borromean_k1, 5)
    track = straight_line_homotopy_to_trivial(borromean_k1, targets, seed=5)
    for point in detect_triple_points(track):
        images = []
        for cell, bary in zip(point.cells, point.barycentric):
            pts = cell_points(track, cell)
            acc = [Rat(0)] * len(pts[0])
            for lam, p in zip(bary, pts):
                for c in range(len(p)):
                    acc[c] += lam * p[c]
            images.append(tuple(acc))
        assert images[0] == images[1] == images[2]
        assert images[0][-1] == point.t
        assert 0 < point.t < 1


def test_retry_resolves_engineered_degeneracy():
    # three collapsing components crossing the origin simultaneously at
    # t = 1/2: every system is degenerate, so detection must refuse and the
    # retry protocol must settle to the correct (zero) relative count
    start = make_trivial(1, targets=[
        as_point([-1, -1]), as_point([2, 0]), as_point([0, 2])
    ])
    end = make_trivial(1, targets=[
        as_point([1, 1]), as_point([-2, 0]), as_point([0, -2])
    ])
    track = linear_track(start, end)
    with pytest.raises(NonGenericTrack):
        detect_triple_points(track)
    points, refined = sweep_with_retries(track, seed=4)
    assert sum(p.sign for p in points) == 0
    assert refined.endpoint(0) == start
    assert refined.endpoint(1) == end


def test_a_triple_point_on_an_interior_keyframe_is_retried_away(
        borromean_k1, borromean_k1_triple_time, monkeypatch):
    """The seed-0 collapse of ``make_borromean(1)`` has one triple point,
    at ``borromean_k1_triple_time``.  Cut there, the track has a boundary
    solution on its interior keyframe, which a refinement that jiggled
    only its inserted midpoints would keep on every attempt; the retries
    jiggle the interior keyframe too, and ``mu_via_sweep`` on that cut
    collapse is 1."""
    targets = default_trivial_targets(borromean_k1, derive_seed(0, "targets"))
    uncut = linear_track(borromean_k1, sweep._collapse_track(
        borromean_k1, targets).endpoint(1))
    assert [p.t for p in detect_triple_points(uncut)] == [
        borromean_k1_triple_time]
    monkeypatch.setattr(sweep, "_COLLAPSE_CUTS", (borromean_k1_triple_time,))
    track = sweep._collapse_track(borromean_k1, targets)
    assert track.times == (0, borromean_k1_triple_time, 1)
    with pytest.raises(NonGenericTrack,
                       match="^boundary solution at interval 0$"):
        detect_triple_points(track)
    assert mu_via_sweep(borromean_k1, seed=0) == 1


def _collapse_cut_twice(o):
    """The seed-0 straight-line collapse of ``o``, keyframed at 1/4 and
    1/2."""
    end = trivial_ornament(tuple(f.domain for f in o.components), o.m,
                           default_trivial_targets(o, 0))
    return linear_track(o, end, cuts=(Rat(1, 4), Rat(1, 2)))


@pytest.mark.parametrize("attempt", [0, 9])
def test_a_refinement_without_interior_keyframes_is_the_rational_one(
        borromean_k1, attempt):
    """On a track of two keyframes there is nothing to jiggle but the
    midpoints: the refinement equals the one that averages them in
    rational arithmetic, with the same seeds and scale."""
    track = linear_track(borromean_k1,
                         _collapse_cut_twice(borromean_k1).endpoint(1))
    refined = sweep._refined_track(track, seed=5, attempt=attempt)
    reference = refined_track_by_fractions(track, 5, attempt)
    assert (refined.times, refined.images) == (reference.times,
                                               reference.images)


def test_a_refinement_jiggles_every_keyframe_but_the_endpoints(
        borromean_k1, monkeypatch):
    """Refining a track with interior keyframes at 1/4 and 1/2 halves each
    interval and moves every vertex of every keyframe but the two ends by
    less than a sixteenth of the track's span (attempt 0), each with its
    own seed.  Without the jiggle, the refinement is the straight-line
    track at the same times, and the only rational arithmetic it does is
    the subtraction and division of that scale."""
    track = _collapse_cut_twice(borromean_k1)
    refined = sweep._refined_track(track, seed=5, attempt=0)
    straight = linear_track(track.endpoint(0), track.endpoint(1),
                            cuts=refined.times[1:-1])
    assert refined.times == tuple(Rat(j, 8) for j in (0, 1, 2, 3, 4, 6, 8))
    coords = [c for frame in track.images for comp in frame
              for img in comp for c in img]
    eps = (max(coords) - min(coords)) / 16
    last = len(refined.times) - 1
    for j, (frame, line) in enumerate(zip(refined.images, straight.images)):
        moves = [abs(x - y) for comp, comp_line in zip(frame, line)
                 for img, img_line in zip(comp, comp_line)
                 for x, y in zip(img, img_line)]
        if j in (0, last):
            assert max(moves) == 0
        else:
            assert 0 < max(moves) < eps
    seeds = []

    def unmoved(v, eps, seed):
        seeds.append(seed)
        return tuple(v)

    calls = {}
    for name in _FRACTION_ARITHMETIC:
        def counted(*args, _live=getattr(Rat, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _live(*args)
        monkeypatch.setattr(Rat, name, counted)
    monkeypatch.setattr(sweep, "random_rational_perturbation", unmoved)
    flat = sweep._refined_track(track, seed=5, attempt=0)
    assert calls == {"__sub__": 1, "__truediv__": 1}
    assert (flat.times, flat.images) == (straight.times, straight.images)
    vertices = sum(dom.vertex_count for dom in track.domains)
    assert len(seeds) == len(set(seeds)) == (last - 1) * vertices


def test_pair_opposite_signs_cases(borromean_k1):
    assert pair_opposite_signs([]) == ([], [])

    class P:
        def __init__(self, t, sign):
            self.t = t
            self.sign = sign

    plus, minus = P(Rat(1, 4), 1), P(Rat(1, 2), -1)
    pairs, rest = pair_opposite_signs([plus, minus])
    assert pairs == [(plus, minus)] and rest == []

    a, b, c = P(Rat(1, 4), 1), P(Rat(1, 2), 1), P(Rat(3, 4), -1)
    pairs, rest = pair_opposite_signs([a, b, c])
    assert pairs == [(a, c)] and rest == [b]

    targets = default_trivial_targets(borromean_k1, 0)
    track = straight_line_homotopy_to_trivial(borromean_k1, targets, seed=0)
    points = detect_triple_points(track)
    pairs, rest = pair_opposite_signs(points)
    total = sum(p.sign for p in points)
    assert len(rest) == abs(total)
    assert all(p.sign == (1 if total > 0 else -1) for p in rest)


def test_certification(borromean_k1):
    other = perturb_ornament(borromean_k1, Rat(1, 64), seed=9)
    assert certify_ornament_homotopy(linear_track(borromean_k1, other))
    targets = default_trivial_targets(borromean_k1, 0)
    collapse = straight_line_homotopy_to_trivial(borromean_k1, targets, seed=0)
    assert not certify_ornament_homotopy(collapse)


def test_default_targets_outside_and_distinct(borromean_k1):
    targets = default_trivial_targets(borromean_k1, 7)
    assert len({tuple(t) for t in targets}) == 3
    radius = max(
        abs(c) for f in borromean_k1.components for img in f.images for c in img
    )
    for t in targets:
        assert max(abs(c) for c in t) > radius


#: The arithmetic methods of ``Fraction``, the rational type of the package.
_FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
    "__rpow__", "__neg__", "__pos__", "__abs__",
)


def test_the_collapse_track_does_rational_arithmetic_only_for_witnesses(
        monkeypatch):
    """Rationals stay at the sweep's edges.  On the seed-0 collapse track
    of ``make_borromean(1, r=3)``, with every arithmetic method of
    ``Fraction`` counted, ``linear_track`` builds its five interior frames
    with no rational arithmetic, and ``detect_triple_points`` does only
    what its one triple point's witness needs: the implied last coordinate
    of each of its three cells (two additions and a subtraction from 1
    each) and its time t, the sum of three products of a coordinate and a
    vertex time.  The set-up (grid, frames) and every other candidate run
    on integers.  The split sweep that ``mu_via_sweep`` runs on the same
    track builds its midpoint keyframes, their grid points and the frames
    of their cells from integer ratios too: it does exactly the same
    rational arithmetic."""
    o = make_borromean(1, r=3)
    targets = default_trivial_targets(o, derive_seed(0, "targets"))
    end = trivial_ornament(tuple(f.domain for f in o.components), o.m,
                           targets)
    calls = {}
    for name in _FRACTION_ARITHMETIC:
        def counted(*args, _live=getattr(Rat, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _live(*args)
        monkeypatch.setattr(Rat, name, counted)
    track = linear_track(o, end, cuts=sweep._COLLAPSE_CUTS)
    assert len(track.times) == 7
    assert calls == {}
    points = detect_triple_points(track)
    assert len(points) == 1
    assert calls == {"__add__": 2 * 3 + 3, "__rsub__": 3, "__mul__": 3}
    calls.clear()
    live_midpoint = sweep._midpoint
    midpoints = []

    def midpoint(*args):
        midpoints.append(live_midpoint(*args))
        return midpoints[-1]

    monkeypatch.setattr(sweep, "_midpoint", midpoint)
    points = detect_triple_points(track, split=True)
    assert len(points) == 1 and midpoints
    assert calls == {"__add__": 2 * 3 + 3, "__rsub__": 3, "__mul__": 3}


@pytest.fixture(scope="module")
def grid_tracks(borromean_k1):
    """Two short tracks of ``make_borromean(1)`` (exact common scales of 92
    and 112 bits), and the track that ``mu_via_sweep(make_borromean(1,
    r=3), seed=0)`` sweeps (generic on the first attempt, so never
    refined), whose exact common scale is a 3,725-bit integer."""
    moved = perturb_ornament(borromean_k1, Rat(1, 64), seed=2)
    o = make_borromean(1, r=3)
    targets = default_trivial_targets(o, derive_seed(0, "targets"))
    return [
        linear_track(borromean_k1, moved, cuts=(Rat(1, 3),)),
        sweep._refined_track(
            linear_track(borromean_k1, moved), seed=0, attempt=0
        ),
        sweep._collapse_track(o, targets),
    ]


def _solved_candidates(track, monkeypatch, split=False):
    """The integer systems reaching ``sweep.solve_integer``, in order, and
    the triple points, when sweeping ``track``."""
    live = sweep.solve_integer
    systems = []

    def recording(*args):
        systems.append(joined_system(*args))
        return live(*args)

    with monkeypatch.context() as patch:
        patch.setattr(sweep, "solve_integer", recording)
        points = detect_triple_points(track, split)
    return systems, points


def _split_sweep(track, monkeypatch):
    """``(systems, points, track_swept)`` of the split sweep of ``track``, a
    straight-line track: as :func:`_solved_candidates`, and the track with
    the keyframes of the intervals it solved, read off their keyframe
    times."""
    live = sweep._interval_points
    times = [track.times[0]]

    def interval(j, keyframes, candidates):
        assert j == len(times) - 1 and keyframes[0].time == times[-1]
        times.append(keyframes[1].time)
        return live(j, keyframes, candidates)

    with monkeypatch.context() as patch:
        patch.setattr(sweep, "_interval_points", interval)
        systems, points = _solved_candidates(track, monkeypatch, split=True)
    assert times[-1] == 1
    swept = linear_track(track.endpoint(0), track.endpoint(1),
                         cuts=times[1:-1])
    return systems, points, swept


def _located(track, points):
    """The multiset of ``(t, ambient point, sign)`` of triple points of
    ``track``, each point read off its first cell."""
    located = Counter()
    for point in points:
        pts = cell_points(track, point.cells[0])
        image = tuple(sum((lam * p[c] for lam, p in zip(point.barycentric[0],
                                                         pts)), Rat(0))
                      for c in range(track.m))
        located[point.t, image, point.sign] += 1
    return located


def _split_inputs(k2):
    """``(ornament, seed)`` pairs whose ``mu_via_sweep`` collapse tracks
    the split sweep is checked on: ``make_borromean(1, r=3)`` at seeds 0-4,
    ``make_borromean(2)`` at seed 0 if ``k2``, and 20 random k=1 ornaments
    whose components' boxes overlap."""
    k1_r3 = make_borromean(1, r=3)
    yield from ((k1_r3, seed) for seed in range(5))
    if k2:
        yield make_borromean(2), 0
    for seed in range(20):
        yield make_random_ornament(1, seed=seed,
                                   spread=Rat(4 if seed % 2 else 8)), seed


@pytest.mark.parametrize("per_vertex", [None, 0],
                         ids=["module-gate", "every-interval-tried"])
def test_split_sweep_is_the_sweep_of_its_keyframes(per_vertex, monkeypatch):
    """On each collapse track of :func:`_split_inputs`, the split sweep
    that ``mu_via_sweep`` runs finds the same multiset of (t, ambient
    point, sign) as the sweep of the track's own keyframes, and exactly
    the points and the solved systems, in order, of the unsplit sweep of
    the straight-line track keyframed where it swept; it solves no more
    candidates than the fixed keyframes.  With the try gate at 0 every
    interval that holds a candidate is tried, so the split rule itself
    meets the random k=1 tracks too; the k=2 track, whose first interval
    holds over 2,000 candidates per vertex, is tried under either gate and
    checked once."""
    if per_vertex is not None:
        monkeypatch.setattr(sweep, "_SPLIT_CANDIDATES_PER_VERTEX", per_vertex)
    split_tracks = 0
    for o, seed in _split_inputs(k2=per_vertex is None):
        track = sweep._collapse_track(
            o, default_trivial_targets(o, derive_seed(seed, "targets")))
        fixed_systems, fixed = _solved_candidates(track, monkeypatch)
        systems, points, swept = _split_sweep(track, monkeypatch)
        assert set(track.times) <= set(swept.times)
        split_tracks += len(swept.times) > len(track.times)
        assert _located(swept, points) == _located(track, fixed)
        if swept.times == track.times:  # nothing split: swept is track
            assert (fixed_systems, fixed) == (systems, points)
        else:
            assert _solved_candidates(swept, monkeypatch) == (systems, points)
        assert len(systems) <= len(fixed_systems)
    assert split_tracks >= (5 if per_vertex is None else 15)


def test_grid_prefilter_solves_the_exact_candidates(grid_tracks, monkeypatch):
    """The outward-rounded grid prefilter sends exactly the candidates the
    exact common-scale prefilter sends, in the same order, to the solver:
    on the tracks of ``grid_tracks`` and on the track that the split sweep
    of ``mu_via_sweep(make_borromean(1, r=3), seed=0)`` solves, keyframed
    where it swept."""
    _, _, swept = _split_sweep(grid_tracks[2], monkeypatch)
    assert len(swept.times) > len(grid_tracks[2].times)
    for track in grid_tracks + [swept]:
        grid, grid_points = _solved_candidates(track, monkeypatch)
        frames = integer_frames_exact(track)
        bound = max(abs(x) for frame in frames for comp in frame
                    for point in comp for x in point)
        lanes = Lanes((track.m + 1) ** 2, 2 * bound)
        pairs = list(combinations(range(track.m + 1), 2))
        with monkeypatch.context() as exact:
            exact.setattr(sweep, "_integer_frames",
                          lambda track: (None, lanes, frames))
            exact.setattr(sweep, "_vertex_extents",
                          lambda point, lanes: lanes.pack(
                              *extents_exact([point], pairs)))
            reference, reference_points = _solved_candidates(
                track, monkeypatch
            )
        assert grid == reference
        assert grid_points == reference_points
        assert grid


@pytest.fixture(scope="module")
def random_collapse_track():
    """The default collapse track of a seeded random k=1 ornament whose
    components' boxes overlap."""
    o = make_random_ornament(1, seed=5, spread=Rat(6))
    return sweep._collapse_track(o, default_trivial_targets(o, 0))


@pytest.fixture(scope="module")
def parting_k2_track(borromean_k2):
    """The stretch from time 3/64 to 1/16 of the seed-0 collapse track of
    ``make_borromean(2)``, as a track of one keyframe interval: the
    components are parting there, so a few hundred cell triples of prisms
    with 4 cells each pass the prefilter."""
    o = borromean_k2
    track = sweep._collapse_track(
        o, default_trivial_targets(o, derive_seed(0, "targets")))
    start, end = track.images[0], track.images[-1]

    def frame(t):
        return tuple(
            tuple(tuple(a + t * (b - a) for a, b in zip(p, q))
                  for p, q in zip(comp_start, comp_end))
            for comp_start, comp_end in zip(start, end))

    return HomotopyTrack(track.domains, track.m, (0, 1),
                         (frame(Rat(3, 64)), frame(Rat(1, 16))))


def test_sweep_solves_the_two_level_triples(grid_tracks,
                                            random_collapse_track,
                                            parting_k2_track,
                                            mixed_setup_track, monkeypatch):
    """The sweep sends the solver exactly the systems of the cell triples
    that the two-level rule (prism triples, then their cell triples) passes
    on exact extents, in the order of cell 1, then cell 2, then cell 3 in
    their components: its component level, which rules out whole keyframe
    intervals and prisms, cuts no candidate, its loop over all the cell
    pairs of kept prisms adds none, and its meet masks, read bit by bit,
    keep the order of the component-3 cells."""
    for track in grid_tracks + [random_collapse_track, parting_k2_track,
                                mixed_setup_track]:
        systems, _ = _solved_candidates(track, monkeypatch)
        expected = []

        def recording(*args):
            expected.append(joined_system(*args))
            return solve_integer(*args)

        frames = {}
        reductions = {}

        def reduction(cell_x, cell_kept):
            for cell in (cell_x, cell_kept):
                if cell not in frames:
                    frames[cell] = simplex_frame(cell_points(track, cell))
            if (cell_x, cell_kept) not in reductions:
                reductions[cell_x, cell_kept] = pair_reduction(
                    frames[cell_x], frames[cell_kept])
            return reductions[cell_x, cell_kept]

        for cell1, cell2, cell3 in two_level_cell_triples(track):
            decide_from_pairs(reduction(cell1, cell2),
                              reduction(cell3, cell2), recording)
        assert systems == expected
        assert systems


def _recorded_extents(track, monkeypatch):
    """Sweep ``track`` and return the grid shift, the per-vertex extents
    and every extent of a component, prism or cell the sweep computes.

    The per-vertex extents map ``(keyframe, component, vertex)`` to
    ``(pairs, extents)``, one :func:`sweep._vertex_extents` call each (a
    second call for one vertex fails); the cell and prism extents are the
    :func:`sweep.hull` calls as ``(pairs, vertices, extents)``, naming
    their vertices the same way (found by identity).  Every extent is
    unpacked into ``(mins, maxs)`` lists on the sweep's lanes, and
    ``pairs`` are the ``(i, j)`` of its directions ``e_i +- e_j``."""
    live_grid = sweep.outward_grid
    live_frames = sweep._integer_frames
    live_vertex = sweep._vertex_extents
    live_hull = sweep.hull
    shifts = []
    built = []
    expanded = []  # (point, lanes, result)
    hulls = []  # (vertex results, result)

    def grid(points):
        shift, brackets = live_grid(points)
        shifts.append(shift)
        return shift, brackets

    def frames(track):
        result = live_frames(track)
        built.append(result)
        return result

    def vertex(point, lanes):
        result = live_vertex(point, lanes)
        expanded.append((point, lanes, result))
        return result

    def hull(vertices, lanes):
        result = live_hull(vertices, lanes)
        hulls.append((list(vertices), lanes.unpack(result)))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(sweep, "outward_grid", grid)
        patch.setattr(sweep, "_integer_frames", frames)
        patch.setattr(sweep, "_vertex_extents", vertex)
        patch.setattr(sweep, "hull", hull)
        detect_triple_points(track)
    assert len(shifts) == 1 and len(built) == 1
    where = {
        id(point): (k, ci, v)
        for k, frame in enumerate(built[0][2])
        for ci, comp in enumerate(frame)
        for v, point in enumerate(comp)
    }
    vertices = {}
    named = {}
    for point, lanes, result in expanded:
        key = where[id(point)]
        assert key not in vertices
        pairs = list(combinations(range(len(point[0])), 2))
        vertices[key] = (pairs, lanes.unpack(result))
        named[id(result)] = key
    assert len(vertices) == len(where)
    calls = [
        (vertices[named[id(parts[0])]][0],
         [named[id(part)] for part in parts], result)
        for parts, result in hulls
    ]
    return shifts[0], vertices, calls


@given(st.integers(1, 3), st.sampled_from([1, 2 ** 8, 2 ** 61, 2 ** 97]),
       st.randoms(use_true_random=False))
def test_a_packed_vertex_is_its_list_extent_packed(k, bound, rng):
    """:func:`sweep._vertex_extents` packs a grid point as linear
    combinations of its floors and ceils, on the lanes that
    ``_integer_frames`` sizes from the largest end, twice the grid
    points': it equals the point's list extent, along the coordinates and
    every ``e_i +- e_j``, packed end by end, for points of both signs whose
    ends reach the bound."""
    dims = 3 * k
    lanes = Lanes(dims ** 2, 2 * bound)
    pairs = list(combinations(range(dims), 2))
    for _ in range(8):
        floors = [rng.choice([-bound, bound - 1,
                              rng.randint(-bound, bound - 1)])
                  for _ in range(dims)]
        ceils = [f + rng.randint(0, 1) for f in floors]
        point = (tuple(floors), tuple(ceils))
        assert sweep._vertex_extents(point, lanes) == lanes.pack(
            *vertex_extents_lists(point, pairs))


def test_grid_extents_contain_the_scaled_rational_extents(grid_tracks,
                                                          monkeypatch):
    """Every extent the sweep computes, of a whole component over a
    keyframe interval, of a prism or of a cell, contains ``2 ** shift``
    times the exact extent of the same rational points, at most 2 grid
    units wider per side; it is computed from the extents of its vertices,
    each expanded once per sweep."""
    for track in grid_tracks:
        shift, _, calls = _recorded_extents(track, monkeypatch)
        assert shift > 0
        unit = 2 ** shift
        for pairs, vertices, (mins, maxs) in calls:
            pts = [track.images[k][ci][v] + (track.times[k],)
                   for k, ci, v in vertices]
            exact_mins, exact_maxs = extents_exact(pts, pairs)
            for lo, x in zip(mins, exact_mins):
                assert 0 <= unit * x - lo <= 2
            for hi, x in zip(maxs, exact_maxs):
                assert 0 <= hi - unit * x <= 2
        # all three kinds are checked: the 2n vertices of a component with
        # n, the 2(d + 1) of a prism and the d + 2 of a cell
        sizes = {len(facet) for dom in track.domains for facet in dom.facets}
        assert {len(vertices) for _, vertices, _ in calls} == (
            {2 * dom.vertex_count for dom in track.domains}
            | {2 * n for n in sizes} | {n + 1 for n in sizes}
        )


def test_prism_extents_are_the_union_of_cell_extents(grid_tracks,
                                                     monkeypatch):
    """The sweep computes the extents of each component once per keyframe
    interval.  Only in an interval where those of the three components
    meet pairwise does it compute prism extents: then those of every
    prism, once each, and a component's extents are the union of its
    prisms'.  The extents of every prism computed equal the union of the
    extents of the prism's staircase cells, each the union of its
    vertices' extents."""
    def meet(a, b):
        return all(max(lo) <= min(hi) for lo, hi in zip(zip(a[0], b[0]),
                                                        zip(a[1], b[1])))

    outcomes = set()  # whether an interval computed prism extents
    for track in grid_tracks:
        _, vertices, calls = _recorded_extents(track, monkeypatch)
        components = {}
        prisms = {}
        for _, names, extent in calls:
            (ci,) = {c for _, c, _ in names}
            j = min(k for k, _, _ in names)
            facet = frozenset(v for _, _, v in names)
            if len(names) == 2 * track.domains[ci].vertex_count:
                key, built = (j, ci), components
            elif len(names) == 2 * len(facet):  # both levels of a facet
                key, built = (j, ci, facet), prisms
            else:
                continue
            assert key not in built
            built[key] = extent
        for j in range(len(track.times) - 1):
            whole = [components.pop((j, ci)) for ci in range(3)]
            meets = all(meet(whole[a], whole[b])
                        for a, b in ((0, 1), (0, 2), (1, 2)))
            outcomes.add(meets)
            if not meets:
                assert not any(key[0] == j for key in prisms)
                continue
            for ci, dom in enumerate(track.domains):
                extents = []
                for fi, facet in enumerate(dom.facets):
                    extent = prisms.pop((j, ci, frozenset(facet)))
                    cells = [
                        extents_union([vertices[(j + level, ci, v)][1]
                                       for v, level in cell.vertices])
                        for cell in staircase_cells(facet, ci, fi, j)
                    ]
                    assert extent == extents_union(cells)
                    extents.append(extent)
                assert whole[ci] == extents_union(extents)
        assert not prisms and not components
    assert outcomes == {True, False}

import random

import pytest

from ornaments import model, sweep
from ornaments.constructions import make_borromean
from ornaments.geometry import DimensionMismatch, Rat, as_point
from ornaments.model import (
    Ornament,
    PLMap,
    TriangulatedManifold,
    ValidationReport,
    common_point_system,
    perturb_ornament,
    validate_manifold,
    validate_ornament,
)
from ornaments.degree import mu_via_degree_auto

from oracles import brute_force_feasible, nonneg_rows, point_at


def triangle_boundary():
    return TriangulatedManifold(1, 3, [(0, 1), (1, 2), (2, 0)])


def digon():
    # two vertices joined by two oppositely oriented edges: a combinatorial
    # circle whose image can be a plain segment
    return TriangulatedManifold(1, 2, [(0, 1), (1, 0)])


def segment_component(a, b):
    return PLMap(digon(), 2, [as_point(a), as_point(b)])


# --- validate_manifold -------------------------------------------------------

def test_triangle_boundary_valid():
    assert validate_manifold(triangle_boundary()).ok


def test_digon_valid():
    assert validate_manifold(digon()).ok


def test_flipped_edge_is_incoherent():
    t = TriangulatedManifold(1, 3, [(0, 1), (2, 1), (2, 0)])
    report = validate_manifold(t)
    assert not report.ok
    assert report.witness["reason"] == "incoherent orientation across ridge"


def test_disconnected_complex():
    t = TriangulatedManifold(
        1, 6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    report = validate_manifold(t)
    assert not report.ok
    assert report.witness["reason"] == "facet graph disconnected"


def test_repeated_vertex_in_facet():
    t = TriangulatedManifold(1, 2, [(0, 0), (1, 0)])
    report = validate_manifold(t)
    assert not report.ok
    assert report.witness["reason"] == "repeated vertex in facet"


def test_ridge_in_three_facets():
    t = TriangulatedManifold(2, 5, [(0, 1, 2), (1, 0, 3), (0, 1, 4)])
    report = validate_manifold(t)
    assert not report.ok
    assert report.witness["reason"] == "ridge not shared by exactly two facets"


def _raises(error, message, build, *args):
    """``build(*args)`` raises exactly ``error`` with ``message``."""
    with pytest.raises(error) as raised:
        build(*args)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_manifold_constructor_rejects_bad_facets():
    _raises(ValueError, "dimension must be at least 1",
            TriangulatedManifold, 0, 1, [(0,)])
    _raises(ValueError, "facet (0, 1, 1) does not have 2 vertices",
            TriangulatedManifold, 1, 2, [(0, 1, 1)])
    _raises(ValueError, "vertex index 2 out of range",
            TriangulatedManifold, 1, 2, [(0, 2)])
    _raises(ValueError, "vertex index -1 out of range",
            TriangulatedManifold, 1, 2, [(-1, 0)])
    _raises(ValueError, "at least one facet required",
            TriangulatedManifold, 1, 2, [])


def test_plmap_shape_checks():
    t = digon()
    _raises(DimensionMismatch, "2 vertices but 1 images",
            PLMap, t, 2, [as_point([0, 0])])
    _raises(DimensionMismatch, "image 1 does not live in R^2",
            PLMap, t, 2, [as_point([0, 0]), as_point([0, 0, 0])])


def test_ornament_requires_three_equal_dim_components():
    seg = segment_component([0, 0], [1, 0])
    _raises(ValueError, "an ornament has exactly three components",
            Ornament, [seg, seg])
    other = PLMap(digon(), 3, [as_point([0, 0, 0]), as_point([1, 0, 0])])
    _raises(DimensionMismatch, "ambient dimensions differ: [2, 3]",
            Ornament, [seg, seg, other])


def test_value_types_are_frozen_and_equal_by_value():
    """Manifolds, maps and ornaments normalise their inputs to tuples of
    tuples and of points, so equal inputs in other containers give equal
    values with equal hashes; a changed facet order or image does not, and
    no attribute can be assigned."""
    t = TriangulatedManifold(1, 2, [[0, 1], [1, 0]])
    assert t.facets == ((0, 1), (1, 0))
    same = TriangulatedManifold(1, 2, ((0, 1), (1, 0)))
    f = PLMap(t, 2, [[0, 0], [1, Rat(1, 2)]])
    assert f.images == ((Rat(0), Rat(0)), (Rat(1), Rat(1, 2)))
    g = PLMap(same, 2, (as_point([0, 0]), as_point([1, Rat(1, 2)])))
    o = Ornament([f, g, f])
    assert o.components == (f, g, f) and o.m == 2
    for a, b in [(t, same), (f, g), (o, Ornament((g, f, g)))]:
        assert a == b and hash(a) == hash(b)
    assert t != TriangulatedManifold(1, 2, [(1, 0), (0, 1)])
    assert f != PLMap(t, 2, [[0, 0], [1, 1]])
    assert o != Ornament([f, f, PLMap(t, 2, [[0, 0], [1, 1]])])
    assert len({t, same, f, g, o}) == 3
    for value, field in [(t, "facets"), (f, "images"), (o, "components")]:
        with pytest.raises(AttributeError):
            setattr(value, field, ())


# --- validate_ornament -------------------------------------------------------

def concurrent_segments():
    # three straight segments through the origin
    return Ornament([
        segment_component([-1, 0], [1, 0]),
        segment_component([0, -1], [0, 1]),
        segment_component([-1, -1], [1, 1]),
    ])


def test_concurrent_segments_invalid_with_exact_witness():
    o = concurrent_segments()
    report = validate_ornament(o)
    assert not report.ok
    facets = report.witness["facets"]
    barys = report.witness["barycentric"]
    points = [
        point_at(f, i, [Rat(c) for c in bary])
        for f, i, bary in zip(o.components, facets, barys)
    ]
    assert points[0] == points[1] == points[2]
    assert points[0] == as_point([0, 0])


def test_disjoint_triangles_valid():
    def tri(cx):
        t = triangle_boundary()
        pts = [as_point([cx, 0]), as_point([cx + 1, 0]), as_point([cx, 1])]
        return PLMap(t, 2, pts)

    o = Ornament([tri(0), tri(5), tri(10)])
    assert validate_ornament(o).ok


def test_validate_invariant_under_relabeling(borromean_k1):
    o = borromean_k1
    f = o.components[0]
    n = f.domain.vertex_count
    perm = list(range(n))
    random.Random(3).shuffle(perm)
    relabeled_facets = [tuple(perm[v] for v in fac) for fac in f.domain.facets]
    relabeled_facets.reverse()
    images = [None] * n
    for old, new in enumerate(perm):
        images[new] = f.images[old]
    relabeled = PLMap(
        TriangulatedManifold(f.domain.dim, n, relabeled_facets),
        f.ambient_dim,
        images,
    )
    o2 = Ornament([relabeled, o.components[1], o.components[2]])
    assert validate_ornament(o2).ok == validate_ornament(o).ok


def test_borromean_k1_passes(borromean_k1):
    assert validate_ornament(borromean_k1).ok
    for f in borromean_k1.components:
        assert validate_manifold(f.domain).ok


def _image(coords, points):
    return [sum((lam * p[c] for lam, p in zip(coords, points)), Rat(0))
            for c in range(len(points[0]))]


def test_feasibility_matches_brute_force_on_facet_triples():
    """On facet triples, and on the ray systems of the degree route's
    touching test (facets listed (1, 3, 2), the ray column ``[-u..., w...]``
    given as ``extra``), the integer rows are decided as exhaustive vertex
    enumeration decides them, and a ray system's point satisfies x - z =
    s*u and y - z = s*w in the rational points."""
    from ornaments.constructions import make_random_ornament
    from ornaments.geometry import feasible_point, integer_scaled

    rng = random.Random(9)
    ray_outcomes = {True: 0, False: 0}
    for seed in (0, 1, 2):
        o = make_random_ornament(1, seed=seed, spread=Rat(6))
        for _ in range(6):
            idx = tuple(
                rng.randrange(len(f.domain.facets)) for f in o.components
            )
            pts1, pts2, pts3 = [
                f.facet_points(i) for f, i in zip(o.components, idx)
            ]
            eq_rows, scales, _ = common_point_system([pts1, pts2, pts3])
            nvars = len(scales)
            ours = feasible_point(eq_rows, scales) is not None
            theirs = brute_force_feasible(eq_rows, nonneg_rows(nvars), nvars)
            assert ours == theirs

            # a ray through the three centroids (s = 1 is feasible), or a
            # random one
            if rng.random() < 0.5:
                x, y, z = (_image([Rat(1, len(p))] * len(p), p)
                           for p in (pts1, pts2, pts3))
                u = [a - c for a, c in zip(x, z)]
                w = [b - c for b, c in zip(y, z)]
                _, column = integer_scaled(as_point([-c for c in u] + w))
            else:
                column = [rng.randint(-4, 4) for _ in range(4)]
            eq_rows, scales, offsets = common_point_system(
                [pts1, pts3, pts2], (column,))
            assert all(type(c) is int for row, rhs in eq_rows
                       for c in [*row, rhs])
            nvars = len(scales)
            point = feasible_point(eq_rows, scales)
            theirs = brute_force_feasible(eq_rows, nonneg_rows(nvars), nvars)
            assert (point is not None) == theirs
            ray_outcomes[theirs] += 1
            if point is not None:
                lam1 = point[offsets[0]:offsets[1]]
                lam3 = point[offsets[1]:offsets[2]]
                lam2, s = point[offsets[2]:-1], point[-1]
                x, y, z = (_image(lam, p) for lam, p in
                           ((lam1, pts1), (lam2, pts2), (lam3, pts3)))
                assert [a - c for a, c in zip(x, z)] == [-s * c
                                                         for c in column[:2]]
                assert [b - c for b, c in zip(y, z)] == [s * c
                                                         for c in column[2:]]
    assert min(ray_outcomes.values()) >= 3, ray_outcomes


# --- perturb_ornament ---------------------------------------------------------

def test_perturb_huge_eps_still_valid(borromean_k1):
    out = perturb_ornament(borromean_k1, Rat(1000), seed=4)
    assert validate_ornament(out).ok


def test_perturb_preserves_invariant(borromean_k1):
    out = perturb_ornament(borromean_k1, Rat(1, 10), seed=5)
    assert mu_via_degree_auto(out, seed=0)[0] == \
        mu_via_degree_auto(borromean_k1, seed=0)[0]


def test_perturb_trivial_keeps_zero(trivial_k1):
    out = perturb_ornament(trivial_k1, Rat(1, 4), seed=6)
    assert validate_ornament(out).ok
    assert mu_via_degree_auto(out, seed=0)[0] == 0


def test_perturb_deterministic(borromean_k1):
    a = perturb_ornament(borromean_k1, Rat(1, 16), seed=7)
    b = perturb_ornament(borromean_k1, Rat(1, 16), seed=7)
    assert a == b


def test_perturb_rejects_bad_eps(borromean_k1):
    with pytest.raises(ValueError):
        perturb_ornament(borromean_k1, 0, seed=1)


def test_perturb_halves_eps_when_the_certification_finds_a_triple_point(
        monkeypatch):
    """At eps = 40,000, against a largest coordinate of 34,745, the first
    candidate of ``make_borromean(1)`` is valid but its straight-line
    homotopy from the input crosses one triple point; the second, drawn at
    eps / 2 with fresh seeds, is certified and returned, with mu = 1 by
    both routes."""
    o = make_borromean(1)
    assert max(c for f in o.components for img in f.images
               for c in img) == 34745
    swept = []
    live = sweep.detect_triple_points

    def detect(track, split=False):
        swept.append(live(track, split))
        return swept[-1]

    monkeypatch.setattr(sweep, "detect_triple_points", detect)
    eps = Rat(40000)
    out = perturb_ornament(o, eps, seed=0)
    monkeypatch.undo()
    assert [len(points) for points in swept] == [1, 0]
    assert 0 < _largest_move(o, out) < eps / 2
    assert validate_ornament(out).ok
    assert mu_via_degree_auto(out, seed=0)[0] == 1
    assert sweep.mu_via_sweep(out, seed=0) == 1


def test_perturb_halves_eps_when_a_candidate_is_invalid(borromean_k1,
                                                        monkeypatch):
    """A candidate that validation rejects is never swept: the next one
    is drawn at eps / 2 with fresh seeds."""
    live = model.validate_ornament
    reports = []

    def first_invalid(o):
        reports.append(live(o) if reports
                       else ValidationReport("invalid", {}))
        return reports[-1]

    monkeypatch.setattr(model, "validate_ornament", first_invalid)
    eps = Rat(1, 16)
    out = perturb_ornament(borromean_k1, eps, seed=7)
    monkeypatch.undo()
    assert [report.ok for report in reports] == [False, True]
    assert 0 < _largest_move(borromean_k1, out) < eps / 2
    assert out != perturb_ornament(borromean_k1, eps, seed=7)
    assert validate_ornament(out).ok


def _largest_move(a, b):
    """The largest change of a vertex image coordinate from ``a`` to
    ``b``."""
    return max(abs(x - y) for fa, fb in zip(a.components, b.components)
               for p, q in zip(fa.images, fb.images) for x, y in zip(p, q))

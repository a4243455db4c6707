import random
from itertools import product

import pytest

from ornaments import degree, model, sweep
from ornaments.constructions import (
    make_borromean,
    make_random_ornament,
    make_trivial,
)
from ornaments.degree import (
    NonGenericDirection,
    component_k,
    mu_via_degree,
    mu_via_degree_auto,
    ray_direction,
)
from ornaments.geometry import (
    DimensionMismatch,
    Rat,
    as_point,
    derive_seed,
    integer_scaled,
    pair_reduction,
    simplex_frame,
)
from ornaments.laplace import solve_integer
from ornaments.model import (
    Ornament,
    PLMap,
    TriangulatedManifold,
    validate_ornament,
)

from oracles import (
    decide_from_pairs,
    facet_box,
    interior_barycentric,
    point_at,
    ray_meets_box_by_division,
    reverse_component_orientation,
    solve_ray_triple,
    sphere_map_box,
    sphere_map_box_terms,
    unnormalized_sphere_map,
)


def test_sphere_map_kills_diagonal():
    p = as_point([Rat(3, 7), Rat(-2)])
    assert not any(unnormalized_sphere_map(p, p, p))


def test_sphere_map_basis_case():
    e1 = as_point([1, 0])
    zero = as_point([0, 0])
    assert unnormalized_sphere_map(e1, zero, zero) == as_point([2, 0, -1, 0])


def test_sphere_map_zero_sum_identity():
    x = as_point([Rat(1), Rat(2)])
    y = as_point([Rat(-3), Rat(1, 2)])
    z = as_point([-(x[0] + y[0]), -(x[1] + y[1])])
    out = unnormalized_sphere_map(x, y, z)
    assert out == as_point([3 * x[0], 3 * x[1], 3 * y[0], 3 * y[1]])


def test_sphere_map_length_mismatch():
    with pytest.raises(DimensionMismatch):
        unnormalized_sphere_map(as_point([1]), as_point([1, 2]), as_point([1]))


def test_trivial_has_no_preimages(trivial_k1):
    mu, solutions = mu_via_degree_auto(trivial_k1, seed=0)
    assert mu == 0
    assert solutions == []


def test_borromean_value(borromean_k1):
    mu, solutions = mu_via_degree_auto(borromean_k1, seed=0)
    assert mu == 1
    assert sum(s.sign for s in solutions) == 1


def test_reversal_negates(borromean_k1):
    for which in (1, 2, 3):
        rev = reverse_component_orientation(borromean_k1, which)
        assert validate_ornament(rev).ok
        assert mu_via_degree_auto(rev, seed=0)[0] == -1


def test_double_reversal_restores(borromean_k1):
    twice = reverse_component_orientation(
        reverse_component_orientation(borromean_k1, 2), 2
    )
    assert mu_via_degree_auto(twice, seed=0)[0] == 1


def test_ray_independence(borromean_k1):
    values = set()
    for seed in range(10):
        v = ray_direction(borromean_k1.m, seed)
        try:
            mu, _ = mu_via_degree(borromean_k1, v)
        except NonGenericDirection:
            continue
        values.add(mu)
    assert values == {1}


def test_preimages_substitute_exactly(borromean_k1):
    for seed in (0, 3):
        v = ray_direction(borromean_k1.m, seed)
        try:
            _, solutions = mu_via_degree(borromean_k1, v)
        except NonGenericDirection:
            continue
        for sol in solutions:
            pts = [
                point_at(f, i, bary)
                for f, i, bary in zip(
                    borromean_k1.components, sol.facets, sol.barycentric
                )
            ]
            image = unnormalized_sphere_map(*pts)
            expected = tuple(sol.s * c for c in v)
            assert image == expected
            assert sol.s > 0


def test_dimension_checks():
    o = make_trivial(1)
    assert component_k(o) == 1
    with pytest.raises(DimensionMismatch):
        mu_via_degree(o, [1, 2, 3])  # wrong ray length


def test_a_zero_ray_is_rejected():
    with pytest.raises(ValueError, match="^ray direction must be nonzero$"):
        mu_via_degree(make_trivial(1), [0, Rat(0), 0, 0])


def test_non_generic_direction_detected(borromean_k1):
    # aim the ray exactly at the image of a vertex triple: the preimage then
    # sits on facet boundaries, which must be reported, not counted
    f1, f2, f3 = borromean_k1.components
    target = unnormalized_sphere_map(f1.images[0], f2.images[2], f3.images[2])
    with pytest.raises(NonGenericDirection):
        mu_via_degree(borromean_k1, target)


def square_ornament(third):
    """A k=1 ornament of three squares in the plane, each a 4-cycle.

    Components 1 and 2 are tilted squares crossing at X = (0, 0) (facet 1
    of component 1 and facet 0 of component 2) and at C = (-2, 0) (facets 0
    and 1); ``third`` lists the vertices of component 3, which misses both.
    """
    domain = TriangulatedManifold(1, 4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    return Ornament([
        PLMap(domain, 2, [(-3, 1), (-1, -1), (1, 1), (-1, 3)]),
        PLMap(domain, 2, [(1, -1), (-1, 1), (-3, -1), (-1, -3)]),
        PLMap(domain, 2, third),
    ])


#: The ray (p - q, p - q) sends x = y to z = x + s * (q - p): from X and C
#: along (2, 1), the direction of the squares' facets 0 and 2 of component 3.
_PARALLEL_RAY = (-2, -1, -2, -1)


def count_singular(monkeypatch):
    """Counts of the singular solves through ``degree.solve_integer`` and of
    the touching tests through ``degree.feasible_point``, as a dict."""
    counts = {"singular": 0, "lp": 0}
    live_solve = degree.solve_integer
    live_feasible = degree.feasible_point

    def solve(*args):
        result = live_solve(*args)
        counts["singular"] += result[0] == 0
        return result

    def feasible(*args):
        counts["lp"] += 1
        return live_feasible(*args)

    monkeypatch.setattr(degree, "solve_integer", solve)
    monkeypatch.setattr(degree, "feasible_point", feasible)
    return counts


def test_singular_touching_system_is_reported(monkeypatch):
    """Facet 0 of component 3, from p = (2, 1) to q = (4, 2), lies on the
    ray from X: the columns of facet 3 and of the ray are parallel, so the
    triple system is singular, and the closed facets still reach the ray
    (x = y = X, z on [p, q] at s in [1, 2]).  The regular preimages from C
    come first in the enumeration; the singular triple then raises."""
    o = square_ornament([(2, 1), (4, 2), (3, 4), (1, 3)])
    assert validate_ornament(o).ok
    counts = count_singular(monkeypatch)
    with pytest.raises(NonGenericDirection,
                       match=r"singular system touching facets \(1, 0, 0\)"):
        mu_via_degree(o, _PARALLEL_RAY)
    assert counts["singular"] == counts["lp"] > 0


def test_every_feasibility_system_is_integer(monkeypatch):
    """Validation, the degree route's touching test and the sweep's each
    pass their ``feasible_point`` binding ``int`` row entries and positive
    ``int`` column scales, on rational points: a ``Fraction`` entry would
    be floored silently by ``eliminate``'s ``//``.  Each binding is driven
    to an LP: validation of three rational segments through (0, 1/3), the
    singular touching triple of the parallel ray, and a sweep of three
    points that all pass the origin at t = 1/2."""
    calls = {}
    for module in (model, degree, sweep):
        live = module.feasible_point

        def feasible(eq_rows, scales, live=live, name=module.__name__):
            assert all(type(c) is int for row, rhs in eq_rows
                       for c in [*row, rhs])
            assert all(type(s) is int and s > 0 for s in scales)
            calls[name] = calls.get(name, 0) + 1
            return live(eq_rows, scales)

        monkeypatch.setattr(module, "feasible_point", feasible)

    digon = TriangulatedManifold(1, 2, [(0, 1), (1, 0)])
    segments = [[(Rat(-1, 2), Rat(1, 3)), (Rat(1, 2), Rat(1, 3))],
                [(0, Rat(-2, 3)), (0, Rat(4, 3))],
                [(Rat(-1, 3), 0), (Rat(1, 3), Rat(2, 3))]]
    invalid = Ornament([PLMap(digon, 2, ends) for ends in segments])
    assert not validate_ornament(invalid).ok

    o = square_ornament([(2, 1), (4, 2), (3, 4), (1, 3)])
    with pytest.raises(NonGenericDirection, match="singular system touching"):
        mu_via_degree(o, _PARALLEL_RAY)

    half = Rat(1, 2)
    start = make_trivial(1, targets=[(-half, -half), (2, 0), (0, 2)])
    end = make_trivial(1, targets=[(half, half), (-2, 0), (0, -2)])
    with pytest.raises(sweep.NonGenericTrack,
                       match="singular touching system"):
        sweep.detect_triple_points(sweep.linear_track(start, end))
    assert set(calls) == {"ornaments.model", "ornaments.degree",
                          "ornaments.sweep"}


def test_singular_system_that_misses_is_skipped(monkeypatch):
    """With component 3 moved off the lines of the ray through X and C, its
    facets 0 and 2 give singular systems whose closed facets miss the ray:
    each is skipped after its touching test, and the four transverse
    preimages (along (2, 1) from X and from C) count to the sweep's value."""
    o = square_ornament([(3, 1), (5, 2), (4, 4), (2, 3)])
    assert validate_ornament(o).ok
    counts = count_singular(monkeypatch)
    mu, solutions = mu_via_degree(o, _PARALLEL_RAY)
    assert counts["singular"] == counts["lp"] > 0
    assert len(solutions) == 4
    assert all(sol.s > 0 for sol in solutions)
    assert mu == sum(sol.sign for sol in solutions) == 0
    from ornaments.sweep import mu_via_sweep

    assert mu_via_sweep(o, seed=0) == 0


def test_kernel_matches_full_ray_system():
    """The pair-reduced kernel, used as the degree route uses it (the rows
    x - z = s*u and y - z = s*w, reduced per (facet 1, facet 3) and (facet
    2, facet 3) pair), agrees with the direct 2m x 2m solve of the sphere
    map rows classified by the reference classifier: the same determinant
    sign; ``None`` exactly when the direct solution is outside some facet
    or has a negative ray scalar; ``"closed"`` exactly when it is in every
    closed facet with a zero coordinate or a zero ray scalar; otherwise the
    same full coordinates and ray scalar.

    Random facets rarely meet a ray, so part of the corpus is built around
    points x, y, z with the ray through their image, scaled by s = +1 or
    -1, each facet holding its point inside or outside: every outcome is
    then reached at every k.  A facet holding its point on a face (one
    weight 0), or x = y = z (s = 0), reaches "closed".  Facets with a
    repeated vertex check the singular paths (a degenerate facet 1 or 2
    has no reduction), and so does a ray (e, e) along an edge e of facet
    3, whose columns then repeat one of facet 3's."""
    rng = random.Random(13)

    def rand_point(m):
        return [Rat(rng.randint(-30, 30), rng.randint(1, 7))
                for _ in range(m)]

    def facet_around(point, npts, inside, zero=None):
        # weights sum to at least 1; one negative weight puts point
        # outside, and a zero at index ``zero`` on a face
        weights = [rng.randint(2, 9) for _ in range(npts)]
        if not inside:
            weights[rng.randrange(npts - 1)] = -1
        if zero is not None:
            weights[zero] = 0
        total = sum(weights)
        others = [rand_point(len(point)) for _ in range(npts - 1)]
        last = [
            (x * total - sum(w * p[c] for w, p in zip(weights, others)))
            / weights[-1]
            for c, x in enumerate(point)
        ]
        return others + [last]

    def outside(block):
        return interior_barycentric(block, [len(block) + 1]) is None

    corpus = [(k, kind) for k in (1, 2, 3)
              for kind, count in (("random", 30), ("shared", 60),
                                  ("boundary", 10), ("zero s", 5),
                                  ("degenerate 0", 3), ("degenerate 1", 3),
                                  ("degenerate 2", 3), ("parallel", 5))
              for _ in range(count)]
    branches = dict.fromkeys(
        ("singular", "kept outside", "b outside", "a outside", "closed",
         "inside"), 0
    )
    for k, kind in corpus:
        m, npts = 3 * k - 1, 2 * k
        d = npts - 1
        if kind in ("shared", "boundary", "zero s"):
            x, y, z = (rand_point(m) for _ in range(3))
            if kind == "zero s":
                y = z = x
            facets = [facet_around(p, npts, kind != "shared"
                                   or rng.random() < 0.7)
                      for p in (x, y, z)]
            if kind == "boundary":
                which = rng.randrange(3)
                facets[which] = facet_around((x, y, z)[which], npts, True,
                                             rng.randrange(npts - 1))
            ray = list(unnormalized_sphere_map(as_point(x), as_point(y),
                                               as_point(z)))
            if kind == "zero s":
                ray = rand_point(2 * m)
            elif kind == "shared" and rng.random() < 0.2:
                ray = [-c for c in ray]
        else:
            facets = [[rand_point(m) for _ in range(npts)] for _ in range(3)]
            ray = rand_point(2 * m)
        if kind.startswith("degenerate"):
            facet = facets[int(kind[-1])]
            facet[0] = facet[-1]
        if kind == "parallel":
            j = rng.randrange(d)
            edge = [a - b for a, b in zip(facets[2][j], facets[2][-1])]
            ray = edge + edge
        f1, f2, f3 = (simplex_frame([as_point(p) for p in f]) for f in facets)
        ray_scale, ray_int = integer_scaled(ray)
        u = [2 * a + b for a, b in zip(ray_int[:m], ray_int[m:])]
        w = [a + 2 * b for a, b in zip(ray_int[:m], ray_int[m:])]
        reduction13 = pair_reduction(f1, f3, ((u, 3 * ray_scale),))
        reduction23 = pair_reduction(f2, f3, ((w, 3 * ray_scale),))
        if kind == "degenerate 0":
            assert reduction13 is None
        if kind == "degenerate 1":
            assert reduction23 is None
        sign, verdict = decide_from_pairs(reduction13, reduction23,
                                          solve_integer)
        direct_sign, direct = solve_ray_triple(f1, f2, f3, ray)
        assert sign == direct_sign
        if direct_sign == 0:
            assert kind not in ("shared", "boundary") and verdict is None
            branches["singular"] += 1
            continue
        assert not kind.startswith("degenerate") and kind != "parallel"
        b, c, s = direct[d:2 * d], direct[2 * d:3 * d], direct[-1]
        full = interior_barycentric(direct, [npts] * 3)
        if full is None or s < 0:
            assert verdict is None
            if outside(c) or s < 0:
                branches["kept outside"] += 1
            elif outside(b):
                branches["b outside"] += 1
            else:
                branches["a outside"] += 1
        elif full == "closed" or s == 0:
            assert kind in ("boundary", "zero s") and verdict == "closed"
            branches["closed"] += 1
        else:
            assert verdict == (full[0], full[2], full[1], [s])
            branches["inside"] += 1
    assert all(branches.values()), branches


def test_ray_direction_seeded_and_nonzero():
    a = ray_direction(2, 5)
    b = ray_direction(2, 5)
    assert a == b
    assert any(a)
    assert ray_direction(2, 6) != a


def test_agreement_on_random_corpus():
    from ornaments.sweep import mu_via_sweep

    for seed in range(12):
        o = make_random_ornament(1, seed=seed, spread=Rat(8))
        assert mu_via_degree_auto(o, seed=seed)[0] == mu_via_sweep(o, seed=seed)


@pytest.mark.parametrize("make", [
    lambda: make_borromean(1, r=1),
    lambda: make_random_ornament(1, 0, 1, 8),
    lambda: make_random_ornament(1, 0, 2, 8),
], ids=["borromean-r1", "random-seed1", "random-seed2"])
def test_integer_prefilter_passes_the_rational_triples(make, monkeypatch):
    """The live integer prefilter lets through exactly the facet triples
    whose rational sphere-map box meets the ray: for the first generic
    seeded direction, and for explicit directions with negative entries
    and a zero entry, whose coordinate the test reads apart, unscaled."""
    o = make()
    live = degree.ray_meets_box
    passed = []
    scaled_counts = set()

    def recording(box, share, scaled):
        ok = live(box, share, scaled)
        passed.append(ok)
        scaled_counts.add(scaled)
        return ok

    monkeypatch.setattr(degree, "ray_meets_box", recording)
    boxes = [
        [facet_box(f, i) for i in range(len(f.domain.facets))]
        for f in o.components
    ]
    triples = list(product(*(range(len(b)) for b in boxes)))

    def check(direction):
        assert len(passed) == len(triples)
        rational = {
            t for t in triples
            if ray_meets_box_by_division(
                direction,
                sphere_map_box(*(boxes[c][i] for c, i in enumerate(t))),
            )
        }
        assert {t for t, ok in zip(triples, passed) if ok} == rational
        assert 0 < len(rational) < len(triples)

    for attempt in range(64):
        v = ray_direction(o.m, derive_seed(0, "ray", attempt))
        passed.clear()
        try:
            mu_via_degree(o, v)
        except NonGenericDirection:
            continue
        break
    check(v)
    for direction in ([0, 3, -5, 2], [-7, 2, 0, 1]):
        passed.clear()
        scaled_counts.clear()
        mu_via_degree(o, direction)
        check(direction)
        assert scaled_counts == {3}


@pytest.mark.parametrize("make", [
    lambda: make_borromean(1, r=2),
    lambda: make_random_ornament(1, 0, 1, 8),
], ids=["borromean-r2", "random-seed1"])
def test_grid_hull_contains_the_scaled_rational_hull(make, monkeypatch):
    """The summed grid shares of every facet triple contain ``2 ** shift``
    times its rational sphere-map hull, at most 4 grid units wider per side
    (a doubled end and two single ends, each rounded by under one unit)."""
    o = make()
    live = model.outward_grid
    shifts = []

    def grid(points):
        shift, brackets = live(points)
        shifts.append(shift)
        return shift, brackets

    monkeypatch.setattr(model, "outward_grid", grid)
    terms = degree._sphere_map_box_terms(o)
    assert len(shifts) == 1 and shifts[0] > 0
    unit = 2 ** shifts[0]
    boxes = [
        [facet_box(f, i) for i in range(len(f.domain.facets))]
        for f in o.components
    ]
    for triple in product(*(range(len(b)) for b in boxes)):
        shares = [terms[c][i] for c, i in enumerate(triple)]
        mins = [sum(col) for col in zip(*(s[0] for s in shares))]
        maxs = [sum(col) for col in zip(*(s[1] for s in shares))]
        exact_mins, exact_maxs = sphere_map_box(
            *(boxes[c][i] for c, i in enumerate(triple))
        )
        for lo, x in zip(mins, exact_mins):
            assert 0 <= unit * x - lo <= 4
        for hi, x in zip(maxs, exact_maxs):
            assert 0 <= hi - unit * x <= 4


@pytest.mark.parametrize("make", [
    lambda: make_borromean(1, r=2),
    lambda: make_random_ornament(1, 0, 1, 8),
    lambda: make_random_ornament(1, 0, 2, 8),
], ids=["borromean-r2", "random-seed1", "random-seed2"])
def test_grid_shares_equal_the_rounded_facet_box_shares(make):
    """The shares built from the hulls of the vertices' grid brackets are
    those of the facet boxes rounded outward as a whole: floor and ceil are
    monotone, and every box end is a vertex coordinate, so the grid's shift
    is the same."""
    o = make()
    assert degree._sphere_map_box_terms(o) == sphere_map_box_terms(o)

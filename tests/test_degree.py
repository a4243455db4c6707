from itertools import product

import pytest

from ornaments import degree
from ornaments.constructions import (
    make_borromean,
    make_random_ornament,
    make_trivial,
)
from ornaments.degree import (
    NonGenericDirection,
    RayDirection,
    SignConvention,
    component_k,
    mu_via_degree,
    mu_via_degree_auto,
    ray_direction,
    reverse_component_orientation,
    unnormalized_sphere_map,
)
from ornaments.geometry import DimensionMismatch, Rat, Vector, derive_seed
from ornaments.model import validate_ornament

from oracles import point_at, ray_meets_box_by_division, sphere_map_box


def test_sphere_map_kills_diagonal():
    p = Vector([Rat(3, 7), Rat(-2)])
    assert unnormalized_sphere_map(p, p, p).is_zero()


def test_sphere_map_basis_case():
    e1 = Vector([1, 0])
    zero = Vector([0, 0])
    assert unnormalized_sphere_map(e1, zero, zero) == Vector([2, 0, -1, 0])


def test_sphere_map_zero_sum_identity():
    x = Vector([Rat(1), Rat(2)])
    y = Vector([Rat(-3), Rat(1, 2)])
    z = Vector([-(x[0] + y[0]), -(x[1] + y[1])])
    out = unnormalized_sphere_map(x, y, z)
    assert out == Vector([3 * x[0], 3 * x[1], 3 * y[0], 3 * y[1]])


def test_sphere_map_length_mismatch():
    with pytest.raises(DimensionMismatch):
        unnormalized_sphere_map(Vector([1]), Vector([1, 2]), Vector([1]))


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
            expected = Vector([sol.s * c for c in v.v])
            assert image == expected
            assert sol.s > 0


def test_dimension_checks():
    o = make_trivial(1)
    assert component_k(o) == 1
    with pytest.raises(DimensionMismatch):
        mu_via_degree(o, RayDirection(Vector([1, 2, 3])))  # wrong ray length


def test_non_generic_direction_detected(borromean_k1):
    # aim the ray exactly at the image of a vertex triple: the preimage then
    # sits on facet boundaries, which must be reported, not counted
    f1, f2, f3 = borromean_k1.components
    target = unnormalized_sphere_map(f1.images[0], f2.images[2], f3.images[2])
    with pytest.raises(NonGenericDirection):
        mu_via_degree(borromean_k1, RayDirection(target))


def test_sign_convention_override(borromean_k1):
    v = ray_direction(borromean_k1.m, 0)
    base, _ = mu_via_degree(borromean_k1, v)
    flipped, _ = mu_via_degree(
        borromean_k1, v, sign_convention=SignConvention(global_sign=-1)
    )
    assert flipped == -base


def test_ray_direction_seeded_and_nonzero():
    a = ray_direction(2, 5)
    b = ray_direction(2, 5)
    assert a.v == b.v and a.seed == 5
    assert not a.v.is_zero()
    assert ray_direction(2, 6).v != a.v


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
    whose rational sphere-map box meets the ray."""
    o = make()
    live = degree.ray_meets_box
    passed = []

    def recording(direction, box, share):
        ok = live(direction, box, share)
        passed.append(ok)
        return ok

    monkeypatch.setattr(degree, "ray_meets_box", recording)
    for attempt in range(64):
        v = ray_direction(o.m, derive_seed(0, "ray", attempt))
        passed.clear()
        try:
            mu_via_degree(o, v)
        except NonGenericDirection:
            continue
        break
    boxes = [
        [f.facet_box(i) for i in range(len(f.domain.facets))]
        for f in o.components
    ]
    triples = list(product(*(range(len(b)) for b in boxes)))
    assert len(passed) == len(triples)
    rational = {
        t for t in triples
        if ray_meets_box_by_division(
            v.v, sphere_map_box(*(boxes[c][i] for c, i in enumerate(t)))
        )
    }
    assert {t for t, ok in zip(triples, passed) if ok} == rational
    assert 0 < len(rational) < len(triples)


@pytest.mark.parametrize("make", [
    lambda: make_borromean(1, r=2),
    lambda: make_random_ornament(1, 0, 1, 8),
], ids=["borromean-r2", "random-seed1"])
def test_grid_hull_contains_the_scaled_rational_hull(make, monkeypatch):
    """The summed grid shares of every facet triple contain ``2 ** shift``
    times its rational sphere-map hull, at most 4 grid units wider per side
    (a doubled end and two single ends, each rounded by under one unit)."""
    o = make()
    live = degree.outward_grid
    shifts = []

    def grid(values):
        shift, floors, ceils = live(values)
        shifts.append(shift)
        return shift, floors, ceils

    monkeypatch.setattr(degree, "outward_grid", grid)
    terms = degree._sphere_map_box_terms(o)
    assert len(shifts) == 1 and shifts[0] > 0
    unit = 2 ** shifts[0]
    boxes = [
        [f.facet_box(i) for i in range(len(f.domain.facets))]
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

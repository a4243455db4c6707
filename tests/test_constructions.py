import pytest

from ornaments import constructions
from ornaments.constructions import (
    cross_polytope_sphere,
    make_borromean,
    make_random_ornament,
    make_trivial,
    rational_unit_near_diagonal,
    stereographic_image,
)
from ornaments.degree import mu_via_degree_auto
from ornaments.geometry import Rat, as_point
from ornaments.model import validate_manifold, validate_ornament
from ornaments.sweep import mu_via_sweep, trivial_ornament


def test_cross_polytope_counts_and_validity():
    for k in (1, 2, 3):
        sphere = cross_polytope_sphere(k)
        assert sphere.manifold.dim == 2 * k - 1
        assert sphere.manifold.vertex_count == 4 * k
        assert len(sphere.manifold.facets) == 2 ** (2 * k)
        assert validate_manifold(sphere.manifold).ok
        for pos in sphere.positions:
            assert sum(c * c for c in pos) == 1


@pytest.mark.parametrize("k,r", [(1, 1), (1, 2), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_subdivision_preserves_validity(k, r):
    sphere = cross_polytope_sphere(k, r)
    base = cross_polytope_sphere(k)
    expected_facets = len(base.manifold.facets) * (2 * k) ** r
    assert len(sphere.manifold.facets) == expected_facets
    assert validate_manifold(sphere.manifold).ok
    # pushed-out vertices sit near the unit sphere
    for pos in sphere.positions:
        q = sum(c * c for c in pos)
        assert abs(float(q.numerator) / float(q.denominator) - 1.0) < 0.1


def test_rational_unit_near_diagonal():
    for n in (3, 6, 9):
        c = rational_unit_near_diagonal(n)
        assert sum(x * x for x in c) == 1
        assert all(x > 0 for x in c)
        target = 1.0 / n ** 0.5
        for x in c:
            assert abs(float(x.numerator) / float(x.denominator) - target) < 0.12


def test_stereographic_rejects_center():
    c = rational_unit_near_diagonal(3)
    with pytest.raises(ValueError):
        stereographic_image(c, c, 0)


def test_borromean_k1(borromean_k1):
    assert validate_ornament(borromean_k1).ok
    assert borromean_k1.m == 2
    for f in borromean_k1.components:
        assert f.domain.dim == 1
        assert len(f.domain.facets) == 4
    assert mu_via_degree_auto(borromean_k1, seed=0)[0] == 1
    assert mu_via_sweep(borromean_k1, seed=0) == 1


def test_borromean_deterministic():
    assert make_borromean(1) == make_borromean(1)


@pytest.mark.parametrize("k, r", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0)])
def test_borromean_raises_on_an_invalid_projection(k, r, monkeypatch):
    """Every standard construction is valid at its one projection center,
    and when that center gives an invalid ornament ``make_borromean``
    raises after that one validation: no other center or perturbation
    stands in, since either could change the ornament's class."""
    calls = []
    live = constructions.validate_ornament

    def validate(ornament):
        calls.append(ornament)
        return live(ornament)

    monkeypatch.setattr(constructions, "validate_ornament", validate)
    if (k, r) != (2, 0):  # the k=2 fixture already shows it valid
        assert make_borromean(k, r).m == 3 * k - 1
        assert len(calls) == 1

    class Invalid:
        ok = False

    calls.clear()
    monkeypatch.setattr(constructions, "validate_ornament",
                        lambda ornament: calls.append(ornament) or Invalid())
    with pytest.raises(RuntimeError, match="not a valid ornament"):
        make_borromean(k, r)
    assert len(calls) == 1


def test_borromean_shares_projected_plane_vertices(borromean_k1):
    # the three coordinate planes pairwise share an axis, so each component
    # pair shares exactly two image points at matching vertices
    f1, f2, f3 = borromean_k1.components
    shared12 = {tuple(a) for a in f1.images} & {tuple(b) for b in f2.images}
    shared13 = {tuple(a) for a in f1.images} & {tuple(b) for b in f3.images}
    shared23 = {tuple(a) for a in f2.images} & {tuple(b) for b in f3.images}
    assert len(shared12) == len(shared13) == len(shared23) == 2


def test_borromean_k2(borromean_k2):
    assert validate_ornament(borromean_k2).ok
    assert borromean_k2.m == 5
    for f in borromean_k2.components:
        assert len(f.domain.facets) == 16


def test_subdivided_borromean_valid():
    o = make_borromean(1, r=1)
    assert validate_ornament(o).ok
    assert all(len(f.domain.facets) == 8 for f in o.components)


def test_trivial_properties(trivial_k1):
    assert validate_ornament(trivial_k1).ok
    assert mu_via_degree_auto(trivial_k1, seed=0)[0] == 0
    assert mu_via_sweep(trivial_k1, seed=0) == 0


def test_trivial_rejects_coincident_targets():
    t = as_point([0, 0])
    with pytest.raises(ValueError):
        make_trivial(1, targets=[t, t, as_point([1, 1])])


@pytest.mark.parametrize("count", [2, 4])
def test_trivial_rejects_a_wrong_number_of_targets(count):
    """Two targets, or four distinct ones, are a wrong count, reported in
    the CLI's words by ``make_trivial`` and by ``sweep.trivial_ornament``,
    not as coincident targets."""
    targets = [as_point([i, i]) for i in range(count)]
    with pytest.raises(ValueError, match="exactly three targets required"):
        make_trivial(1, targets=targets)
    sphere = cross_polytope_sphere(1)
    with pytest.raises(ValueError, match="exactly three targets required"):
        trivial_ornament([sphere.manifold] * 3, 2, targets)


def test_trivial_rejects_wrong_target_dimension():
    with pytest.raises(ValueError):
        make_trivial(1, targets=[as_point([0]), as_point([1]), as_point([2])])


def test_random_ornament_deterministic_and_valid():
    a = make_random_ornament(1, seed=21)
    b = make_random_ornament(1, seed=21)
    assert a == b
    assert validate_ornament(a).ok
    assert a != make_random_ornament(1, seed=22)


def test_random_ornament_small_spread_disjoint():
    o = make_random_ornament(1, seed=0, spread=Rat(1, 4))
    boxes = []
    for f in o.components:
        coords = list(zip(*(tuple(img) for img in f.images)))
        boxes.append([(min(c), max(c)) for c in coords])
    for i in range(3):
        for j in range(i + 1, 3):
            disjoint = any(
                boxes[i][c][1] < boxes[j][c][0] or boxes[j][c][1] < boxes[i][c][0]
                for c in range(o.m)
            )
            assert disjoint


def test_random_ornament_rejects_bad_spread():
    with pytest.raises(ValueError):
        make_random_ornament(1, seed=0, spread=0)

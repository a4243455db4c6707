import random

import pytest
from hypothesis import given, strategies as st

from ornaments.geometry import (
    DimensionMismatch,
    Matrix,
    Rat,
    Vector,
    bareiss_solve,
    barycentric_position,
    bounding_box,
    boxes_overlap,
    derive_seed,
    det_sign,
    feasible_point,
    format_rational,
    parse_rational,
    random_rational_perturbation,
    ray_meets_box,
    solve_affine,
    solve_integer,
)

from oracles import brute_force_feasible, ray_meets_box_by_division


def rand_matrix(rng, n, m=None):
    m = n if m is None else m
    return Matrix([[Rat(rng.randint(-9, 9), rng.randint(1, 7))
                    for _ in range(m)] for _ in range(n)])


# --- det_sign -------------------------------------------------------------

def test_det_sign_identity():
    assert det_sign(Matrix.identity(3)) == 1


def test_det_sign_row_swap():
    m = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert det_sign(m) == -1


def test_det_sign_repeated_row():
    m = Matrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    assert det_sign(m) == 0


def test_det_sign_requires_square():
    with pytest.raises(DimensionMismatch):
        det_sign(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_det_sign_transpose_invariant():
    rng = random.Random(1)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 5))
        assert det_sign(m) == det_sign(m.transpose())


def test_det_sign_multiplicative():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n)
        b = rand_matrix(rng, n)
        assert det_sign(a @ b) == det_sign(a) * det_sign(b)


# --- solve_affine ---------------------------------------------------------

def test_solve_identity():
    v = Vector([Rat(1, 3), Rat(-2), Rat(7, 5)])
    assert solve_affine(Matrix.identity(3), v) == v


def test_solve_zero_matrix_singular():
    assert solve_affine(Matrix([[0, 0], [0, 0]]), Vector([0, 0])) is None


def test_solve_recovers_constructed_solution():
    # oracle: build b := a @ x for a known random x, then ask for x back
    rng = random.Random(3)
    for _ in range(25):
        a = rand_matrix(rng, 4)
        if det_sign(a) == 0:
            continue
        x = Vector([Rat(rng.randint(-20, 20), rng.randint(1, 9))
                    for _ in range(4)])
        b = Vector([sum((c * xv for c, xv in zip(row, x)), Rat(0))
                    for row in a.rows])
        assert solve_affine(a, b) == x


def test_solution_substitutes_exactly():
    rng = random.Random(4)
    for _ in range(25):
        a = rand_matrix(rng, 3)
        b = Vector([Rat(rng.randint(-9, 9)) for _ in range(3)])
        x = solve_affine(a, b)
        if x is None:
            assert det_sign(a) == 0
            continue
        recovered = [sum((c * xv for c, xv in zip(row, x)), Rat(0))
                     for row in a.rows]
        assert Vector(recovered) == b


def test_solve_dimension_errors():
    with pytest.raises(DimensionMismatch):
        solve_affine(Matrix([[1, 2]]), Vector([1]))
    with pytest.raises(DimensionMismatch):
        solve_affine(Matrix.identity(2), Vector([1, 2, 3]))


def test_solve_integer_matches_rational_path():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        s1, x1 = solve_integer([r[:] for r in rows], rhs[:])
        s2, x2 = bareiss_solve([[Rat(c) for c in row] for row in rows],
                               [Rat(c) for c in rhs])
        assert s1 == s2
        assert x1 == x2


# --- barycentric_position ---------------------------------------------------

def test_barycentric_classification():
    third = Rat(1, 3)
    assert barycentric_position([third, third, third]) == "interior"
    assert barycentric_position([0, Rat(1, 2), Rat(1, 2)]) == "boundary"
    assert barycentric_position([Rat(-1, 4), Rat(1, 2), Rat(3, 4)]) == "outside"


def test_barycentric_requires_unit_sum():
    with pytest.raises(ValueError):
        barycentric_position([Rat(1, 2), Rat(1, 2), Rat(1, 2)])


# --- random_rational_perturbation -------------------------------------------

def test_perturbation_respects_bound_exactly():
    v = Vector([0, 0])
    eps = Rat(1, 10)
    out = random_rational_perturbation(v, eps, seed=11)
    assert max(abs(c) for c in out) < eps


def test_perturbation_deterministic():
    v = Vector([Rat(3, 7), Rat(-1, 2), Rat(5)])
    a = random_rational_perturbation(v, Rat(1, 100), seed=99)
    b = random_rational_perturbation(v, Rat(1, 100), seed=99)
    assert a == b
    c = random_rational_perturbation(v, Rat(1, 100), seed=100)
    assert a != c


def test_perturbation_denominator_bound():
    v = Vector([Rat(1, 3)])
    eps = Rat(1, 5)
    out = random_rational_perturbation(v, eps, seed=7, denominator_limit=64)
    delta = out[0] - v[0]
    # the grid step is eps / limit, so limit * den(eps) clears the delta
    assert (delta * 64 * 5).denominator == 1


def test_perturbation_rejects_bad_eps():
    with pytest.raises(ValueError):
        random_rational_perturbation(Vector([0]), 0, seed=1)
    with pytest.raises(ValueError):
        random_rational_perturbation(Vector([0]), Rat(-1, 2), seed=1)


def test_perturbation_bound_over_seeds():
    v = Vector([Rat(2, 3), Rat(-7, 4), Rat(0)])
    eps = Rat(1, 64)
    for seed in range(50):
        out = random_rational_perturbation(v, eps, seed=seed)
        assert max(abs(a - b) for a, b in zip(out, v)) < eps


# --- rational literals -------------------------------------------------------

def test_parse_rational_accepts_canonical_forms():
    assert parse_rational("3/4") == Rat(3, 4)
    assert parse_rational("-2") == Rat(-2)
    assert parse_rational("+5/10") == Rat(1, 2)


@pytest.mark.parametrize("bad", ["3/0", "1.5", "3/-2", "", "a/b", " 1", "1/2/3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_canonical():
    assert format_rational(Rat(4, 2)) == "2"
    assert format_rational(Rat(-1, 2)) == "-1/2"
    assert parse_rational(format_rational(Rat(22, -8))) == Rat(-11, 4)


# --- derive_seed -------------------------------------------------------------

def test_derive_seed_stable_and_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed("ray", 0) != derive_seed("ray", 1)


# --- feasibility --------------------------------------------------------------

def test_feasible_point_simple_cases():
    # x >= 0, x <= -1 is infeasible
    assert feasible_point([], [([-1], 0), ([1], -1)], 1) is None
    # x + y == 1, x,y >= 0 is feasible
    point = feasible_point([([1, 1], 1)], [([-1, 0], 0), ([0, -1], 0)], 2)
    assert point is not None
    x, y = point
    assert x + y == 1 and x >= 0 and y >= 0


def test_feasible_point_inconsistent_equalities():
    assert feasible_point([([1, 1], 1), ([2, 2], 3)], [], 2) is None


def test_feasible_point_satisfies_all_constraints():
    rng = random.Random(6)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        eq = [([rng.randint(-3, 3) for _ in range(nvars)], rng.randint(-3, 3))
              for _ in range(rng.randint(0, 2))]
        le = [([rng.randint(-3, 3) for _ in range(nvars)], rng.randint(-2, 4))
              for _ in range(rng.randint(1, 5))]
        point = feasible_point(eq, le, nvars)
        if point is None:
            continue
        for coeffs, rhs in eq:
            assert sum((c * v for c, v in zip(coeffs, point)), Rat(0)) == rhs
        for coeffs, rhs in le:
            assert sum((c * v for c, v in zip(coeffs, point)), Rat(0)) <= rhs


def test_feasible_point_agrees_with_vertex_enumeration():
    # bounded systems only (the oracle enumerates polytope vertices)
    rng = random.Random(7)
    box = lambda n: [
        tuple(([1 if j == i else 0 for j in range(n)], 2)) for i in range(n)
    ] + [
        tuple(([-1 if j == i else 0 for j in range(n)], 2)) for i in range(n)
    ]
    for _ in range(40):
        nvars = rng.randint(1, 3)
        eq = [([rng.randint(-2, 2) for _ in range(nvars)], rng.randint(-2, 2))
              for _ in range(rng.randint(0, 2))]
        le = box(nvars) + [
            ([rng.randint(-2, 2) for _ in range(nvars)], rng.randint(-2, 2))
            for _ in range(rng.randint(0, 3))
        ]
        ours = feasible_point(eq, le, nvars) is not None
        theirs = brute_force_feasible(eq, le, nvars)
        assert ours == theirs


# --- boxes --------------------------------------------------------------------

def test_bounding_box_and_overlap():
    box = bounding_box([(Rat(0), Rat(1)), (Rat(2), Rat(-1))])
    assert box == ((Rat(0), Rat(-1)), (Rat(2), Rat(1)))
    other = bounding_box([(Rat(2), Rat(0))])
    assert boxes_overlap(box, other)
    far = bounding_box([(Rat(3), Rat(0))])
    assert not boxes_overlap(box, far)


def test_ray_meets_box():
    box = ((Rat(1), Rat(1)), (Rat(2), Rat(3)))
    assert ray_meets_box(Vector([1, 1]), box)
    assert ray_meets_box(Vector([1, 2]), box)
    assert not ray_meets_box(Vector([-1, 1]), box)
    assert not ray_meets_box(Vector([1, 4]), box)
    # zero coordinate: box must straddle that axis
    assert not ray_meets_box(Vector([0, 1]), box)
    straddling = ((Rat(-1), Rat(1)), (Rat(2), Rat(3)))
    assert ray_meets_box(Vector([0, 1]), straddling)


# Ray-box test against the division-based reference: small and huge ints
# (beyond float precision), Fractions, and both mixed.
_SMALL_INTS = st.integers(-6, 6)
_HUGE_INTS = st.integers(-2 ** 70, 2 ** 70)
_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=9)
_NUMBERS = {
    "int": st.one_of(_SMALL_INTS, _HUGE_INTS),
    "fraction": _FRACTIONS,
    "mixed": st.one_of(_SMALL_INTS, _HUGE_INTS, _FRACTIONS),
}


@st.composite
def _ray_and_box(draw, kind):
    """A direction (zero components likely) and a box whose per-coordinate
    intervals are general, single points, or have an end at 0."""
    numbers = _NUMBERS[kind]
    n = draw(st.integers(1, 5))
    direction = draw(st.lists(st.one_of(st.just(0), numbers),
                              min_size=n, max_size=n))
    mins, maxs = [], []
    for _ in range(n):
        shape = draw(st.sampled_from(["interval", "point", "face at 0"]))
        a = draw(numbers)
        b = a if shape == "point" else draw(numbers)
        if shape == "face at 0":
            a = 0
        lo, hi = min(a, b), max(a, b)
        mins.append(lo)
        maxs.append(hi)
    return direction, (mins, maxs)


@pytest.mark.parametrize("kind", sorted(_NUMBERS))
def test_ray_meets_box_agrees_with_division(kind):
    @given(_ray_and_box(kind))
    def check(case):
        direction, box = case
        assert ray_meets_box(direction, box) == ray_meets_box_by_division(
            direction, box
        )

    check()

import random
from itertools import combinations, product
from operator import le, mul

import pytest
from hypothesis import assume, example, given, strategies as st

from ornaments.geometry import (
    Lanes,
    PairReduction,
    Rat,
    as_point,
    back_substitute,
    box_intersection,
    cramer_status,
    derive_seed,
    eliminate,
    extents_meet,
    feasible_point,
    format_rational,
    hull,
    integer_scaled,
    meet_mask,
    normalise_by_ray,
    outward_grid,
    pair_reduction,
    parse_rational,
    random_rational_perturbation,
    ray_meets_box,
    simplex_frame,
)
from ornaments import geometry, laplace
from ornaments.laplace import solve_integer

from oracles import (
    _solve_unique,
    back_substitute_full,
    binary_exponent_by_fractions,
    box_intersection_lists,
    brute_force_feasible,
    det_leibniz,
    eliminate_sliced,
    extents_meet_lists,
    extents_union,
    feasible_point_gauss_jordan,
    interior_barycentric,
    joined_system,
    meet_mask_lists,
    nonneg_rows,
    outward_grid_by_fractions,
    pair_reduction_direct,
    ray_meets_box_by_division,
    simplex_frame_by_differences,
    solve_bareiss,
)


def rand_rows(rng, n, m=None):
    m = n if m is None else m
    return [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]


def identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def det_sign(rows):
    """Determinant sign through the reference square solve, against a zero
    right-hand side."""
    return solve_bareiss(rows, [0] * len(rows))[0]


def solve(rows, rhs):
    """Solve integer rows against a rational right-hand side."""
    rho, rhs_int = integer_scaled(rhs)
    sign, numerators, det = solve_bareiss([row[:] for row in rows], rhs_int)
    if sign == 0:
        return None
    return [Rat(n, rho * det) for n in numerators]


# --- determinant sign ---------------------------------------------------------

def test_det_sign_identity():
    assert det_sign(identity_rows(3)) == 1


def test_det_sign_row_swap():
    assert det_sign([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1


def test_det_sign_repeated_row():
    assert det_sign([[1, 2, 3], [4, 5, 6], [1, 2, 3]]) == 0


def test_det_sign_transpose_invariant():
    rng = random.Random(1)
    for _ in range(40):
        rows = rand_rows(rng, rng.randint(1, 5))
        assert det_sign(rows) == det_sign([list(c) for c in zip(*rows)])


def test_det_sign_multiplicative():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_rows(rng, n)
        b = rand_rows(rng, n)
        assert det_sign(matmul(a, b)) == det_sign(a) * det_sign(b)


# --- the reference square solve -----------------------------------------------

def test_solve_identity():
    x = [Rat(1, 3), Rat(-2), Rat(7, 5)]
    assert solve(identity_rows(3), x) == x


def test_solve_zero_matrix_singular():
    assert solve_bareiss([[0, 0], [0, 0]], [0, 0]) == (0, None, None)


def test_solve_recovers_constructed_solution():
    # oracle: build b := a @ x for a known random x, then ask for x back
    rng = random.Random(3)
    for _ in range(25):
        a = rand_rows(rng, 4)
        if det_sign(a) == 0:
            continue
        x = [Rat(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(4)]
        b = [sum((c * xv for c, xv in zip(row, x)), Rat(0)) for row in a]
        assert solve(a, b) == x


def test_solution_substitutes_exactly():
    rng = random.Random(4)
    for _ in range(25):
        a = rand_rows(rng, 3)
        b = [Rat(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
        x = solve(a, b)
        if x is None:
            assert det_sign(a) == 0
            continue
        assert [sum((c * xv for c, xv in zip(row, x)), Rat(0))
                for row in a] == b


def test_solve_integer_matches_rational_path():
    # the oracle is an independent Gauss-Jordan elimination on Fractions
    rng = random.Random(5)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        sign, numerators, det = solve_bareiss([r[:] for r in rows], rhs[:])
        # the homogeneous system has a unique solution iff nonsingular
        nonsingular = _solve_unique([(r, 0) for r in rows], n) is not None
        assert (sign != 0) == nonsingular
        if sign == 0:
            singular += 1
            assert numerators is None and det is None
        else:
            assert all(type(v) is int for v in numerators)
            assert type(det) is int and det != 0
            assert [Rat(v, det) for v in numerators] == _solve_unique(
                list(zip(rows, rhs)), n
            )
    assert singular > 0  # the corpus exercises the singular branch


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=n + 2,
                      max_size=n + 2), min_size=n, max_size=n),
)))
@example((2, [[0, 3, 1, 5], [2, 0, -7, 1]]))  # a row swap
def test_back_substitute_matches_the_full_loop(case):
    """The numerators over the last pivot, its last one read off the
    right-hand side, equal the full loop's, on the eliminated system and
    its extra column (the right-hand side) alike."""
    n, rows = case
    _, pivots, _ = eliminate(rows, n)
    if len(pivots) < n:
        return
    det = pivots[-1]
    for col in (n, n + 1):
        rhs = [row[col] for row in rows]
        assert back_substitute(rows, rhs) == back_substitute_full(rows, rhs,
                                                                  det)


# --- eliminate and the pair reduction --------------------------------------

# Zeros and units often, so that pivotless columns, forced swaps and pivots
# equal to the previous one occur; otherwise entries up to ~400 bits.
_ENTRIES = st.one_of(st.sampled_from([0, 0, 0, 1, -1, 2]),
                     st.integers(-2 ** 400, 2 ** 400))


@st.composite
def _elimination_cases(draw):
    """``(rows, ncols)``: 1-8 integer rows of a width of 1-20, of which the
    first ``ncols`` columns are eliminated."""
    width = draw(st.integers(1, 20))
    nrows = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=width, max_size=width),
                         min_size=nrows, max_size=nrows))
    return rows, draw(st.integers(1, width))


@given(_elimination_cases())
@example(([[0, 1, 2], [0, 3, 4]], 2))  # a pivotless column, passed over
@example(([[0, 1, 5], [3, 0, 7]], 2))  # a forced swap
@example(([[1, 2, 3], [0, 4, 5]], 2))  # zero lead, pivot 1 = previous
@example(([[2, 0, 5], [0, 1, 7], [0, 0, 3]], 3))  # zero lead, 2 = 2
@example(([[3, 1, 4, 1], [6, 2, 8, 5]], 3))  # rank below the rows
@example(([[2 ** 400, -1], [2 ** 399 + 1, 2 ** 400]], 1))
def test_eliminate_matches_the_slicing_loop(case):
    """The entry-by-entry loop returns the slicing loop's ``(swap_sign,
    pivots, pivot_cols)`` and leaves the same rows."""
    rows, ncols = case
    fast = [row[:] for row in rows]
    sliced = [row[:] for row in rows]
    assert eliminate(fast, ncols) == eliminate_sliced(sliced, ncols)
    assert fast == sliced


@st.composite
def _frame_pairs(draw):
    """``(points_x, points_kept, extra)`` for :func:`pair_reduction`: two
    simplices of the sweep's shape (2k + 1 points in R^{3k}) or the degree
    route's (2k points in R^{3k - 1}), k in 1-3, and 0-2 extra integer
    columns with their positive scales.  The coordinates are rationals with mixed denominators, or
    integers (equal base scales); the kept base may be the eliminated one
    (rho = 1), and the eliminated edges may be dependent."""
    k = draw(st.integers(1, 3))
    width, npts = draw(st.sampled_from([(3 * k, 2 * k + 1),
                                        (3 * k - 1, 2 * k)]))
    integral = draw(st.booleans())
    denominators = st.just(1) if integral else st.integers(1, 12)

    def point():
        return tuple(Rat(n, q) for n, q in zip(
            draw(st.lists(st.integers(-40, 40), min_size=width,
                          max_size=width)),
            draw(st.lists(denominators, min_size=width, max_size=width)),
        ))

    points_x = [point() for _ in range(npts)]
    points_kept = [point() for _ in range(npts)]
    shape = draw(st.sampled_from(["general", "same base", "dependent"]))
    if shape == "same base":
        points_kept[-1] = points_x[-1]
    elif shape == "dependent":
        points_x[0] = points_x[-1 if npts == 2 else 1]
    extra = draw(st.lists(
        st.tuples(st.lists(st.integers(-2 ** 64, 2 ** 64), min_size=width,
                           max_size=width),
                  st.integers(1, 2 ** 20)),
        max_size=2,
    ))
    return points_x, points_kept, extra


def _reduction_tuple(reduction):
    """A :class:`PairReduction` in the direct reduction's tuple form, its
    triangular rows built."""
    if reduction is None:
        return None
    return (reduction.triangular(), reduction.con_rows, reduction.con_rhs,
            reduction.sign_fix, reduction.rho, reduction.scales_x,
            reduction.scales_kept)


@given(_frame_pairs())
def test_pair_reduction_matches_the_direct_reduction(case):
    """The integer product with the cached row operations gives the direct
    reduction's tuple, triangular rows included once built, both on first
    use of the eliminated frame and on reuse against a second kept frame;
    a second request returns the rows already built."""
    points_x, points_kept, extra = case
    frame_x = simplex_frame(points_x)
    reductions = []
    for points in (points_kept, points_kept[::-1]):
        frame_kept = simplex_frame(points)
        reductions.append(pair_reduction(frame_x, frame_kept, extra))
        assert _reduction_tuple(reductions[-1]) == pair_reduction_direct(
            frame_x, frame_kept, extra)
    if len(set(points_x)) < len(points_x):
        assert reductions == [None, None]
        return
    reduction = reductions[0]
    assert reduction.triangular() is reduction.triangular()
    if points_kept[-1] == points_x[-1]:
        assert reduction.rho == 1
    assert reduction.scales_x == frame_x.scales
    assert reduction.scales_kept == simplex_frame(points_kept).scales + [
        scale for _, scale in extra
    ]


# --- the joined solve ---------------------------------------------------------

def _block(rows, rho, weights=None):
    """A :class:`PairReduction` holding only the x-free block ``rows``
    (each row its 2k kept entries and then its right-hand side) over the
    scale ``rho``, with the kept columns' ``weights``, which is all the
    joined solve reads.  Zero weights, the default, make the implied
    coordinate ``rho_a * rho_b * det``, which the solve never screens out."""
    if weights is None:
        weights = [0] * (len(rows[0]) - 1)
    return PairReduction([row[:-1] for row in rows], [row[-1] for row in rows],
                         1, rho, [], [], weights, [], [], [])


@st.composite
def _joined_cases(draw):
    """``(k, rows, rho_a, rho_b)``: the 2k rows (2k + 1 entries each, the
    right-hand side last) of two blocks of k rows, k in 1-3, and the scales
    of their right-hand sides, each of which lifts the other block's.
    Besides random rows, a row of block b may repeat one of block a (a
    singular system whatever the scales), a kept
    column may be zero, or the entries may be 0 and +-1 only, mostly 0, so
    that many minors vanish, some of them in systems that are still
    regular."""
    k = draw(st.integers(1, 3))
    n = 2 * k
    kind = draw(st.sampled_from(["random", "repeated row", "zero column",
                                 "sparse"]))
    entries = (st.sampled_from([0, 0, 0, 1, -1]) if kind == "sparse"
               else _ENTRIES)
    rows = draw(st.lists(st.lists(entries, min_size=n + 1, max_size=n + 1),
                         min_size=n, max_size=n))
    if kind == "repeated row":
        repeated = rows[draw(st.integers(0, k - 1))]
        rows[draw(st.integers(k, n - 1))] = repeated[:]
    elif kind == "zero column":
        column = draw(st.integers(0, n - 1))
        for row in rows:
            row[column] = 0
    rho = st.one_of(st.just(1), st.integers(2, 2 ** 64))
    return k, rows, draw(rho), draw(rho)


@given(_joined_cases())
@example((1, [[2, 3, 5], [4, 6, 7]], 1, 1))  # proportional rows, zero det
@example((1, [[0, 3, 5], [0, 6, 7]], 3, 2))  # a zero column
@example((1, [[1, 0, 5], [0, 1, 7]], 2, 1))  # zero minors, regular
@example((2, [[1, 2, 3, 4, 5], [0, 1, 0, 1, 0],
              [1, 2, 3, 4, 6], [2, 0, 1, 0, 1]], 1, 4))  # a row repeated
@example((1, [[1, 0, -5], [0, 1, 7]], 1, 1))  # a negative coordinate
@example((2, [[1, 0, 0, 0, 1], [0, 1, 0, 0, 2],
              [0, 0, 1, 0, 3], [0, 0, 0, 1, 4]], 5, 3))  # the identity
@example((2, [[0, 1, 0, 0, 1], [1, 0, 0, 0, 2],
              [0, 0, 1, 0, 3], [0, 0, 0, 1, -4]], 2, 7))  # det < 0, x < 0
@example((3, [[1, 0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 2],
              [0, 0, 1, 0, 0, 0, 3], [0, 0, 0, 0, 1, 0, 4],
              [0, 0, 0, 1, 0, 0, 5], [0, 0, 0, 0, 0, 1, 6]],
          1, 2))  # det < 0, every coordinate positive
@example((3, [[1, 0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 2],
              [0, 0, 1, 0, 0, 0, 3], [0, 0, 0, 1, 0, 0, 4],
              [0, 0, 0, 0, 1, 0, 5], [0, 0, 0, 0, 0, 1, -6]],
          3, 1))  # the last coordinate alone negative
def test_joined_solve_matches_the_reference_solve(case):
    """The expansion over cached minors has the reference square solve's
    determinant sign on the joined, lifted system, is singular exactly when
    it is, leaves the numerators out exactly when the reference solution
    has a negative coordinate, and otherwise gives its Cramer solution,
    over a determinant of the same magnitude."""
    k, rows, rho_a, rho_b = case
    reduction_a, reduction_b = _block(rows[:k], rho_a), _block(rows[k:], rho_b)
    sign, numerators, det = solve_integer(reduction_a, reduction_b)
    ref_sign, ref_numerators, ref_det = solve_bareiss(
        *joined_system(reduction_a, reduction_b))
    assert sign == ref_sign
    if sign == 0:
        assert numerators is None and det is None and ref_det is None
        return
    assert abs(det) == abs(ref_det)
    if any(n * ref_det < 0 for n in ref_numerators):
        assert numerators is None
    else:
        assert [n * ref_det for n in numerators] == [
            n * det for n in ref_numerators]
    assert reduction_a.minors() is reduction_a.minors()
    assert reduction_b.minors() is reduction_b.minors()


def _posed_rows(rng, n, rho_a, rho_b, negative):
    """Random ``n`` x ``n`` rows with right-hand sides over ``rho_a`` on
    the first n / 2 rows and ``rho_b`` on the rest, whose joined system
    solves to positive coordinates, or to coordinates with one negative
    among them when ``negative``."""
    rows = rand_rows(rng, n)
    x = [rng.randint(1, 9) for _ in range(n)]
    if negative:
        x[rng.randrange(n)] *= -1
    return [row + [sum(map(mul, row, x)) * (rho_a if i < n // 2 else rho_b)]
            for i, row in enumerate(rows)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_term_tables_match_leibniz(seed):
    """On random blocks, each cached minor is the Leibniz determinant of
    its column set, its lifted copy is ``rho`` times those on kept columns
    alone, and the joined determinant is the Leibniz determinant
    of the joined system, sign included.  So is every Cramer numerator
    (the lifted right-hand side in the column's place) when none has the
    sign opposite to the determinant's; otherwise the numerators are left
    out.  Each k meets both cases, from blocks posed to solve to positive
    coordinates or to one negative coordinate.  The sizes interleave,
    k = 2, 1, 3, 2, from an empty cache: each k's kernel is compiled once,
    and the second round of k = 2 reuses the first's."""
    laplace.kernel.cache_clear()
    rng = random.Random(seed)
    solved = {}  # k -> whether each case gave the numerators
    for k in (2, 1, 3, 2):
        n = 2 * k
        for posed in (None, None, None, None, False, True):
            rho_a, rho_b = rng.randint(1, 9), rng.randint(1, 9)
            rows = (rand_rows(rng, n, n + 1) if posed is None
                    else _posed_rows(rng, n, rho_a, rho_b, posed))
            reduction_a = _block(rows[:k], rho_a)
            reduction_b = _block(rows[k:], rho_b)
            for reduction, block in ((reduction_a, rows[:k]),
                                     (reduction_b, rows[k:])):
                minors, lifted = reduction.minors()
                assert minors == [
                    det_leibniz([[row[c] for c in cols] for row in block])
                    for cols in combinations(range(n + 1), k)
                ]
                assert lifted == [
                    reduction.rho * minor for minor, cols in
                    zip(minors, combinations(range(n + 1), k)) if n not in cols
                ]
            joined, rhs = joined_system(reduction_a, reduction_b)
            cramer = [
                det_leibniz([row[:i] + [r] + row[i + 1:]
                             for row, r in zip(joined, rhs)])
                for i in range(n)
            ]
            det = det_leibniz(joined)
            result = solve_integer(reduction_a, reduction_b)
            if not det:
                assert result == (0, None, None)
                continue
            sign = (det > 0) - (det < 0)
            negative = any(c * det < 0 for c in cramer)
            assert result == (sign, None if negative else cramer, det)
            solved.setdefault(k, set()).add(not negative)
    assert solved == {1: {True, False}, 2: {True, False}, 3: {True, False}}
    assert laplace.kernel.cache_info().misses == 3


@st.composite
def _screened_cases(draw):
    """``(k, rows, rho_a, rho_b, weights, extras)`` for the screen of the
    joined solve, k in 1-3: 2k rows (2k + 1 entries each, the right-hand
    side last) and the weights of the 2k kept columns, positive but for
    the last ``extras`` (0 or 1) columns, extra ones of weight 0.  Random
    rows and right-hand sides mostly solve to some negative coordinate;
    posed ones solve to the kept coordinates ``w_i v_i`` with small
    integers ``v_i >= 0`` (the joined solution ``rho_a * rho_b * v``), so
    that the implied coordinate, ``1 - sum w_i v_i``, is positive, zero or
    negative."""
    k = draw(st.integers(1, 3))
    n = 2 * k
    extras = draw(st.integers(0, 1))
    weights = draw(st.lists(st.integers(1, 5), min_size=n - extras,
                            max_size=n - extras)) + [0] * extras
    rho_a, rho_b = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    posed = draw(st.booleans())
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=n + 1 - posed,
                                  max_size=n + 1 - posed),
                         min_size=n, max_size=n))
    if posed:
        v = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=n,
                          max_size=n))
        rows = [row + [(rho_a if i < k else rho_b) * sum(map(mul, row, v))]
                for i, row in enumerate(rows)]
    return k, rows, rho_a, rho_b, weights, extras


@given(_screened_cases())
@example((1, [[1, 0, 1], [0, 1, 5]], 1, 1, [2, 0], 1))  # implied < 0
@example((1, [[1, 0, 1], [0, 1, 0]], 1, 1, [1, 0], 1))  # implied = 0
@example((1, [[0, 1, 1], [1, 0, 0]], 3, 2, [1, 2], 0))  # det < 0, inside
@example((2, [[1, 0, 0, 0, 1], [0, 1, 0, 0, 1],
              [0, 0, 1, 0, 0], [0, 0, 0, 1, 3]],
          1, 1, [1, 1, 1, 0], 1))  # implied < 0, the extra positive
@example((3, [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0],
              [0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0],
              [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1, 2]],
          1, 1, [1, 1, 1, 1, 1, 1], 0))  # implied < 0
def test_joined_solve_screens_the_closed_kept_simplex(case):
    """The compiled solve returns numerators exactly when
    :func:`cramer_status` of the kept block is not ``None``: with the
    weights as the kept simplex's column scales and the zero-weight extra
    columns as coordinates that must not be negative, judged on the
    reference square solve of the joined system.  What it returns is that
    solve's Cramer solution."""
    k, rows, rho_a, rho_b, weights, extras = case
    reduction_a = _block(rows[:k], rho_a, weights)
    reduction_b = _block(rows[k:], rho_b, weights)
    sign, numerators, det = solve_integer(reduction_a, reduction_b)
    ref_sign, ref_numerators, ref_det = solve_bareiss(
        *joined_system(reduction_a, reduction_b))
    assert sign == ref_sign
    if sign == 0:
        return
    kept = cramer_status(ref_numerators, ref_det, weights, rho_a * rho_b,
                         2 * k - extras + 1)
    assert (numerators is None) == (kept is None)
    if numerators is not None:
        assert [n * ref_det for n in numerators] == [
            n * det for n in ref_numerators]


# --- the barycentric verdict --------------------------------------------------

def test_barycentric_classification():
    """The reference classifier of ``tests/oracles.py``."""
    third = Rat(1, 3)
    # two triangles' reduced coordinates, a trailing entry ignored
    assert interior_barycentric([third, third, Rat(1, 4), Rat(1, 2), -5],
                                [3, 3]) == (
        (third, third, third), (Rat(1, 4), Rat(1, 2), Rat(1, 4))
    )
    # a zero coordinate, given or implied, is "closed"
    assert interior_barycentric([0, Rat(1, 2)], [3]) == "closed"
    assert interior_barycentric([Rat(1, 2), Rat(1, 2)], [3]) == "closed"
    assert interior_barycentric([third, third, 1, 0], [3, 3]) == "closed"
    # a negative coordinate, given or implied, is outside, even after a zero
    assert interior_barycentric([Rat(-1, 4), Rat(1, 2)], [3]) is None
    assert interior_barycentric([Rat(3, 4), Rat(1, 2)], [3]) is None
    assert interior_barycentric([0, Rat(1, 2), third, -third], [3, 3]) is None


@st.composite
def cramer_block(draw):
    """Integer Cramer data ``(N, D, scales, rho, arity)`` of one simplex of
    arity 2-7, then zero to two extra entries (say, a ray scalar).  ``D``
    takes either sign; about half the blocks get an implied coordinate of
    exactly zero, and small entries make zero listed and extra entries
    common, negative ones too."""
    small = st.integers(-6, 6)
    positive = st.integers(1, 5)
    arity = draw(st.integers(2, 7))
    det = draw(small.filter(bool))
    rho = draw(positive)
    numerators = draw(st.lists(small, min_size=arity - 1,
                               max_size=arity - 1))
    scales = draw(st.lists(positive, min_size=arity - 1, max_size=arity - 1))
    if draw(st.booleans()):
        # rho * D - sum(s * N) == 0: the implied coordinate is zero
        scales[-1] = 1
        numerators[-1] = rho * det - sum(
            a * b for a, b in zip(scales[:-1], numerators[:-1])
        )
    extras = draw(st.integers(0, 2))
    numerators += draw(st.lists(small, min_size=extras, max_size=extras))
    scales += draw(st.lists(positive, min_size=extras, max_size=extras))
    return numerators, det, scales, rho, arity


@given(cramer_block())
# interior with a negative determinant: every N_i * D > 0
@example(([-1, -1], -4, [1, 1], 1, 3))
# a zero coordinate before a negative one
@example(([0, -2, 1], 2, [1, 1, 1], 1, 4))
# implied zero with D < 0 ("closed"); then the same with a negative extra
# (outside) and with a zero one ("closed")
@example(([-2, -1], -3, [1, 1], 1, 3))
@example(([-2, -1, 1], -3, [1, 1, 1], 1, 3))
@example(([-2, -1, 0], -3, [1, 1, 1], 1, 3))
# a zero extra on an interior block is "closed"; a negative one is outside
@example(([1, 1, 0], 5, [1, 1, 7], 2, 3))
@example(([1, 1, -1], 5, [1, 1, 7], 2, 3))
def test_cramer_status_matches_interior_barycentric(data):
    """The integer verdict equals the rational classifier's on the solution
    ``scales * N / (rho * D)``, with the extra entries as coordinates that
    must not be negative: ``None`` outside, ``False`` on the boundary,
    ``True`` interior."""
    numerators, det, scales, rho, arity = data
    solution = [Rat(s * n, rho * det) for s, n in zip(scales, numerators)]
    extras = solution[arity - 1:]
    full = interior_barycentric(solution, [arity])
    if full is None or any(x < 0 for x in extras):
        expected = None
    else:
        expected = full != "closed" and all(extras)
    assert cramer_status(numerators, det, scales, rho, arity) is expected


def test_cramer_status_stops_at_the_first_negative_entry():
    """A negative listed entry decides the verdict before the implied
    coordinate is formed, so the scales of the block are never read."""
    class Unread:
        def __getitem__(self, i):
            raise AssertionError("a scale was read")

    assert cramer_status([3, -1, 2], 5, Unread(), 1, 4) is None
    assert cramer_status([3, 1, 2], -5, Unread(), 1, 4) is None


# --- random_rational_perturbation -------------------------------------------

def test_perturbation_respects_bound_exactly():
    v = as_point([0, 0])
    eps = Rat(1, 10)
    out = random_rational_perturbation(v, eps, seed=11)
    assert max(abs(c) for c in out) < eps


def test_perturbation_deterministic():
    v = as_point([Rat(3, 7), Rat(-1, 2), Rat(5)])
    a = random_rational_perturbation(v, Rat(1, 100), seed=99)
    b = random_rational_perturbation(v, Rat(1, 100), seed=99)
    assert a == b
    c = random_rational_perturbation(v, Rat(1, 100), seed=100)
    assert a != c


def test_perturbation_denominator_bound():
    v = as_point([Rat(1, 3)])
    eps = Rat(1, 5)
    out = random_rational_perturbation(v, eps, seed=7)
    delta = out[0] - v[0]
    # the grid step is eps / 2 ** 16, so 2 ** 16 * den(eps) clears the delta
    assert (delta * 2 ** 16 * 5).denominator == 1


def test_perturbation_rejects_bad_eps():
    with pytest.raises(ValueError):
        random_rational_perturbation(as_point([0]), 0, seed=1)
    with pytest.raises(ValueError):
        random_rational_perturbation(as_point([0]), Rat(-1, 2), seed=1)


def test_perturbation_bound_over_seeds():
    v = as_point([Rat(2, 3), Rat(-7, 4), Rat(0)])
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
    # x + y == 1, x, y >= 0 is feasible
    point = feasible_point([([1, 1], 1)], [1, 1])
    assert point is not None
    x, y = point
    assert x + y == 1 and x >= 0 and y >= 0
    # x + y == -1 has no nonnegative solution
    assert feasible_point([([1, 1], -1)], [1, 1]) is None
    # x - y == -1 has one, with y >= 1
    x, y = feasible_point([([1, -1], -1)], [1, 1])
    assert x - y == -1 and x >= 0 and y >= 0
    # no equalities: the origin's orthant is never empty
    assert feasible_point([], [1, 1, 1]) is not None


def test_feasible_point_inconsistent_equalities():
    assert feasible_point([([1, 1], 1), ([2, 2], 3)], [1, 1]) is None


def test_feasible_point_satisfies_all_constraints():
    rng = random.Random(6)
    found = 0
    for _ in range(200):
        nvars = rng.randint(1, 5)
        eq = [([rng.randint(-3, 3) for _ in range(nvars)], rng.randint(-3, 3))
              for _ in range(rng.randint(0, 3))]
        point = feasible_point(eq, [1] * nvars)
        if point is None:
            continue
        found += 1
        for coeffs, rhs in eq:
            assert sum((c * v for c, v in zip(coeffs, point)), Rat(0)) == rhs
        assert all(v >= 0 for v in point)
    assert found >= 50


def test_feasible_point_agrees_with_vertex_enumeration():
    # the oracle enumerates polytope vertices, so a bounding equality
    # (the coordinates sum to at most 4, with a slack variable) keeps the
    # systems bounded
    rng = random.Random(7)
    outcomes = {True: 0, False: 0}
    for _ in range(80):
        nvars = rng.randint(1, 3)
        eq = [([rng.randint(-2, 2) for _ in range(nvars)] + [0],
               rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))]
        eq.append(([1] * (nvars + 1), 4))
        ours = feasible_point(eq, [1] * (nvars + 1)) is not None
        theirs = brute_force_feasible(eq, nonneg_rows(nvars + 1), nvars + 1)
        assert ours == theirs
        outcomes[ours] += 1
    assert min(outcomes.values()) >= 10, outcomes


def _random_entry(rng):
    """An int or a Fraction, sometimes with a large denominator."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Rat(rng.randint(-9, 9), rng.randint(1, 12))
    return Rat(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 2 ** 40))


def _random_system(rng, shape):
    """``(eq_rows, nvars)`` of one of the shapes the rank-first kernel must
    treat exactly like Gauss-Jordan elimination."""
    nvars = rng.randint(1, 5)
    point = [Rat(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(nvars)]

    def through_point(coeffs):
        return coeffs, sum((c * x for c, x in zip(coeffs, point)), Rat(0))

    if shape == "no-equalities":
        eq = []
    elif shape == "underdetermined":
        eq = [([_random_entry(rng) for _ in range(nvars)], _random_entry(rng))
              for _ in range(rng.randint(1, nvars))]
    else:
        # rank-deficient and overdetermined: more rows than unknowns, all
        # combinations of fewer base rows, consistent around ``point``
        base = [[_random_entry(rng) for _ in range(nvars)]
                for _ in range(rng.randint(1, max(1, nvars - 1)))]
        eq = []
        for _ in range(nvars + rng.randint(1, 3)):
            weights = [_random_entry(rng) for _ in base]
            eq.append(through_point(
                [sum((w * row[j] for w, row in zip(weights, base)), Rat(0))
                 for j in range(nvars)]
            ))
        if shape == "zero-and-duplicate-rows":
            eq.insert(rng.randrange(len(eq) + 1), ([0] * nvars, 0))
            eq.insert(rng.randrange(len(eq) + 1), eq[rng.randrange(len(eq))])
        elif shape == "inconsistent":
            coeffs, rhs = eq[rng.randrange(len(eq))]
            eq.insert(rng.randrange(len(eq) + 1),
                      (coeffs, rhs + Rat(1, rng.randint(1, 2 ** 30))))
        rng.shuffle(eq)
    return eq, nvars


_SYSTEM_SHAPES = ["rank-deficient", "zero-and-duplicate-rows",
                  "inconsistent", "underdetermined", "no-equalities"]


def test_feasible_point_matches_gauss_jordan_oracle():
    """The rank-first integer kernel, on the rational rows cleared of
    denominators row by row, returns the Gauss-Jordan routine's point on
    the rational "A x = b, x >= 0", entry by entry, and ``None`` exactly
    when it does; given column scales, it answers for the unscaled
    system."""
    rng = random.Random(20)
    branches = {"inconsistent": 0, "lp-infeasible": 0, "feasible": 0}
    for trial in range(600):
        eq, nvars = _random_system(rng, _SYSTEM_SHAPES[trial % 5])
        expected = feasible_point_gauss_jordan(eq, nonneg_rows(nvars), nvars)
        cleared = []
        for coeffs, rhs in eq:
            *ints, last = integer_scaled(as_point([*coeffs, rhs]))[1]
            cleared.append((ints, last))
        point = feasible_point(cleared, [1] * nvars)
        assert point == expected
        if point is not None:
            assert all(isinstance(c, Rat) for c in point)
        scales = [rng.randint(1, 2 ** rng.randint(1, 20)) for _ in range(nvars)]
        scaled = [([c * s for c, s in zip(coeffs, scales)], rhs)
                  for coeffs, rhs in cleared]
        assert feasible_point(scaled, scales) == expected
        if feasible_point_gauss_jordan(eq, [], nvars) is None:
            assert expected is None
            branches["inconsistent"] += 1
        elif expected is None:
            branches["lp-infeasible"] += 1
        else:
            branches["feasible"] += 1
    assert min(branches.values()) >= 50, branches


def _small_systems(nvars):
    """``(nvars, eq_rows, scales)``: small integer rows, at least ``nvars -
    6`` of them, so up to six columns are free when the rows are
    independent, and positive column scales."""
    row = st.tuples(st.lists(st.integers(-3, 3), min_size=nvars,
                             max_size=nvars), st.integers(-3, 3))
    return st.tuples(
        st.just(nvars),
        st.lists(row, min_size=max(0, nvars - 6), max_size=nvars + 1),
        st.lists(st.integers(1, 64), min_size=nvars, max_size=nvars))


def test_feasible_point_matches_oracle_up_to_six_free_columns(monkeypatch):
    """On random small systems with up to six free columns, with and
    without column scales, the simplex returns the Fourier-Motzkin
    oracle's point, and ``None`` exactly when it does.  The minima the
    simplex reports show that every branch is taken: rejected by rank,
    infeasible after the rank test, and a free column set to the midpoint
    of a bounded range, to its least value plus 1 on an unbounded one,
    and to the one value of a range of one point."""
    branches = dict.fromkeys(["rank-rejected", "lp-infeasible", "midpoint",
                              "unbounded", "pinned"], 0)
    minima = []
    live = geometry._minimum

    def minimum(rows, nvars, cost):
        minima.append(live(rows, nvars, cost))
        return minima[-1]

    monkeypatch.setattr(geometry, "_minimum", minimum)

    @example((3, [([1, 1, 0], 0)], [2, 3, 5]))  # x0 = x1 = 0 pinned
    @given(st.integers(1, 8).flatmap(_small_systems))
    def check(case):
        nvars, eq, scales = case
        expected = feasible_point_gauss_jordan(eq, nonneg_rows(nvars), nvars)
        del minima[:]
        assert feasible_point(eq, [1] * nvars) == expected
        if not minima:
            branches["rank-rejected"] += 1
        elif minima[0] is None:
            branches["lp-infeasible"] += 1
        # after the feasibility test, one (least, minus greatest) pair per
        # free column
        for lo, top in zip(minima[1::2], minima[2::2]):
            if top is False:
                branches["unbounded"] += 1
            elif lo == -top:
                branches["pinned"] += 1
            else:
                branches["midpoint"] += 1
        scaled = [([c * s for c, s in zip(coeffs, scales)], rhs)
                  for coeffs, rhs in eq]
        assert feasible_point(scaled, scales) == expected

    check()
    assert min(branches.values()) > 0, branches

# --- boxes --------------------------------------------------------------------

def _extents(n):
    """Small integer extents ``(mins, maxs)`` of ``n`` coordinates, with
    single points and every kind of overlap likely."""
    ends = st.tuples(st.integers(-3, 3), st.integers(0, 3))
    return st.lists(ends, min_size=n, max_size=n).map(
        lambda pairs: ([lo for lo, _ in pairs],
                       [lo + width for lo, width in pairs]))


def _lattice(extents):
    return set(product(*(range(lo, hi + 1) for lo, hi in zip(*extents))))


def _packed(extents, n):
    """Small integer extents of ``n`` directions packed on lanes wide
    enough for :func:`_extents`, and those lanes."""
    lanes = Lanes(n, 6)
    return lanes, [lanes.pack(*e) for e in extents]


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    _extents(n), _extents(n), _extents(n),
    st.lists(_extents(n), min_size=1, max_size=4))))
def test_extents_meet_intersect_and_hull(case):
    """On packed integer extents, the intersection is empty exactly when no
    lattice point is common and holds exactly the common ones; a third
    extent meets it exactly when all three share a lattice point; the hull
    contains every bracket and attains each of its ends."""
    a, b, c, brackets = case
    lanes, (pa, pb, pc) = _packed([a, b, c], len(a[0]))
    common = box_intersection(pa, pb, lanes)
    assert (common is None) == (not _lattice(a) & _lattice(b))
    assert extents_meet(pa, lanes.mirror(pb), lanes) == (common is not None)
    if common is not None:
        assert _lattice(lanes.unpack(common)) == _lattice(a) & _lattice(b)
        assert extents_meet(common, lanes.mirror(pc), lanes) == bool(
            _lattice(a) & _lattice(b) & _lattice(c))
    _, packed = _packed(brackets, len(a[0]))
    mins, maxs = lanes.unpack(hull(packed, lanes))
    for lows, highs in brackets:
        assert all(map(le, mins, lows)) and all(map(le, highs, maxs))
    for i, (lo, hi) in enumerate(zip(mins, maxs)):
        assert lo in [lows[i] for lows, _ in brackets]
        assert hi in [highs[i] for _, highs in brackets]


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    _extents(n), _extents(n), st.lists(_extents(n), max_size=6))))
@example((([0], [1]), ([-1], [0]), [([1], [2]), ([0], [0])]))  # touching
def test_pairwise_meets_are_a_common_meet(case):
    """On packed integer extents of one width, a third extent meets the
    common part of two exactly when the three meet pairwise, which lets the
    sweep replace the intersection by two meet masks; bit b of a mask is
    the meet with entry b of the list."""
    a, b, others = case
    lanes, (pa, pb, *packed) = _packed([a, b, *others], len(a[0]))
    mirrors = [lanes.mirror(c) for c in packed]

    def meet(x, y):
        return extents_meet(x, lanes.mirror(y), lanes)

    common = box_intersection(pa, pb, lanes)
    mask_a = meet_mask(pa, mirrors, lanes)
    mask_b = meet_mask(pb, mirrors, lanes)
    assert mask_a == sum(meet(pa, c) << i for i, c in enumerate(packed))
    for i, c in enumerate(packed):
        pairwise = meet(pa, pb) and meet(pa, c) and meet(pb, c)
        assert (common is not None and meet(common, c)) == pairwise
        assert pairwise == (meet(pa, pb) and bool((mask_a & mask_b) >> i & 1))


@st.composite
def _lane_cases(draw):
    """A lane layout and extents on it: ``2 m`` lanes of validation's facet
    boxes or ``(m + 1) ** 2`` directions of the sweep's extents, m = 3k - 1
    for k = 1 to 3, with a bound of one bit length, and extents whose ends
    reach it, touch or coincide, both signs included.  Hypothesis draws the
    layout and a seed; the seeded generator draws the ends, half of them
    from the bound, 0 and +-1."""
    m = 3 * draw(st.integers(1, 3)) - 1
    n = draw(st.sampled_from([m, (m + 1) ** 2]))
    bound = draw(st.sampled_from([0, 1, 2 ** 3 - 1, 2 ** 61, 2 ** 97 - 1]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    special = [-bound, -min(bound, 1), 0, min(bound, 1), bound]

    def value():
        if rng.random() < 0.5:
            return rng.choice(special)
        return rng.randint(-bound, bound)

    def extent():
        pairs = [sorted((value(), value())) for _ in range(n)]
        return [lo for lo, _ in pairs], [hi for _, hi in pairs]

    a = extent()
    # b shares a's ends in some directions, so that ends touch and bounds
    # are equal; in half the cases it meets a in every other direction.
    b = extent()
    overlap = rng.random() < 0.5
    for i in range(n):
        if overlap and (b[0][i] > a[1][i] or a[0][i] > b[1][i]):
            b[0][i], b[1][i] = sorted((a[rng.randint(0, 1)][i], b[1][i]))
        how = rng.choice(["lo", "hi", "touch", None])
        if how == "lo" and a[0][i] <= b[1][i]:
            b[0][i] = a[0][i]
        elif how == "hi" and b[0][i] <= a[1][i]:
            b[1][i] = a[1][i]
        elif how == "touch":
            b[0][i] = b[1][i] = a[1][i]
    others = [extent() for _ in range(rng.randint(1, 5))]
    return Lanes(n, bound), bound, a, b, others


@given(_lane_cases())
def test_packed_extents_agree_with_the_list_oracles(case):
    """The packed ``hull``, ``extents_meet``, ``box_intersection`` and
    ``meet_mask`` agree with their list forms in ``tests/oracles.py`` on
    validation's and the sweep's layouts for k = 1 to 3: touching ends,
    equal bounds, negative ends and ends at the width's limit, where 2 **
    (width - 2) is the least power of two above the bound."""
    lanes, bound, a, b, others = case
    assert 2 ** (lanes.width - 3) <= bound < 2 ** (lanes.width - 2) or (
        bound == 0 and lanes.width == 2)
    pa, pb = lanes.pack(*a), lanes.pack(*b)
    packed = [lanes.pack(*c) for c in others]
    assert pa >= 0 and lanes.unpack(pa) == a and lanes.unpack(pb) == b
    assert lanes.mirror(lanes.mirror(pa)) == pa
    for x, y in [(a, b), (b, a), (a, a)] + [(a, c) for c in others]:
        px, py = lanes.pack(*x), lanes.pack(*y)
        assert extents_meet(px, lanes.mirror(py), lanes) == (
            extents_meet_lists(x, y))
        common = box_intersection(px, py, lanes)
        expected = box_intersection_lists(x, y)
        assert (common if common is None else lanes.unpack(common)) == (
            expected)
    assert lanes.unpack(hull([pa, pb, *packed], lanes)) == extents_union(
        [a, b, *others])
    assert lanes.unpack(hull([pa], lanes)) == a
    mirrors = [lanes.mirror(c) for c in packed]
    assert meet_mask(pa, mirrors, lanes) == meet_mask_lists(a, others)
    assert meet_mask(pb, mirrors, lanes) == meet_mask_lists(b, others)


def _meets(direction, box, share):
    """The ray test as the degree route runs it: the direction cleared of
    denominators, each part normalised for it, the parts summed inside the
    test."""
    _, ints = integer_scaled([Rat(d) for d in direction])
    return ray_meets_box(normalise_by_ray(ints, box),
                         normalise_by_ray(ints, share),
                         len(ints) - ints.count(0))


def test_normalise_by_ray():
    """lcm(2, 3) = 6: the first coordinate is scaled by 3, the second by 2
    and negated with its ends swapped, and the zero one moves last, as it
    is."""
    box = ([1, 1, -1], [2, 4, 5])
    assert normalise_by_ray([2, -3, 0], box) == ([3, -8, -1], [6, -2, 5])
    assert normalise_by_ray([0, 4, 0], box) == ([1, 1, -1], [4, 2, 5])
    assert normalise_by_ray([-1], ([Rat(1, 2)], [Rat(3, 4)])) == (
        [Rat(-3, 4)], [Rat(-1, 2)])


def test_ray_meets_box():
    box = ((Rat(1), Rat(1)), (Rat(2), Rat(3)))
    zero = ((0, 0), (0, 0))
    assert _meets([1, 1], box, zero)
    assert _meets([1, 2], box, zero)
    assert not _meets([-1, 1], box, zero)
    assert not _meets([1, 4], box, zero)
    # zero coordinate: box must straddle that axis
    assert not _meets([0, 1], box, zero)
    straddling = ((Rat(-1), Rat(1)), (Rat(2), Rat(3)))
    assert _meets([0, 1], straddling, zero)
    assert _meets([1, 0], ((1, -1), (2, 1)), zero)
    assert not _meets([1, 0], ((1, -1), (2, -1)), zero)
    # the tested box is the sum of the two parts: here ``straddling``
    part = ((Rat(1), Rat(0)), (Rat(4), Rat(1)))
    share = ((Rat(-2), Rat(1)), (Rat(-2), Rat(2)))
    assert _meets([0, 1], part, share)
    assert not _meets([0, 1], part, zero)
    # the closed ray: its origin, and a box it only touches
    assert _meets([3, -5], ((0, 0), (1, 1)), zero)
    assert _meets([1, 1], ((2, -7), (9, 2)), zero)
    assert not _meets([1, 1], ((2, -7), (9, 1)), zero)
    assert _meets([1, 1], ((0, 3), (3, 5)), zero)
    assert not _meets([1, 1], ((0, 4), (3, 5)), zero)


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
    """A direction (zero and negative components likely) and a box whose
    per-coordinate intervals are general, single points, or have an end at
    0, with the box split into two parts that sum to it: on each coordinate
    one part is a single point, the other the rest."""
    numbers = _NUMBERS[kind]
    n = draw(st.integers(1, 5))
    direction = draw(st.lists(st.one_of(st.just(0), numbers),
                              min_size=n, max_size=n))
    mins, maxs = [], []
    part = ([], [])
    share = ([], [])
    for _ in range(n):
        shape = draw(st.sampled_from(["interval", "point", "face at 0"]))
        a = draw(numbers)
        b = a if shape == "point" else draw(numbers)
        if shape == "face at 0":
            a = 0
        lo, hi = min(a, b), max(a, b)
        mins.append(lo)
        maxs.append(hi)
        offset = draw(numbers)
        point, rest = (part, share) if draw(st.booleans()) else (share, part)
        point[0].append(offset)
        point[1].append(offset)
        rest[0].append(lo - offset)
        rest[1].append(hi - offset)
    return direction, (mins, maxs), part, share


@pytest.mark.parametrize("kind", sorted(_NUMBERS))
def test_ray_meets_box_agrees_with_division(kind):
    """On boxes normalised for the direction cleared of denominators, the
    two-part test answers for the summed box, whether the box comes whole
    (with a zero share) or split; the parts' normalised boxes sum to the
    box's, and a positive multiple of the direction gets the same
    answer."""
    @given(_ray_and_box(kind), st.integers(1, 2 ** 40))
    def check(case, factor):
        direction, box, part, share = case
        assume(any(direction))
        expected = ray_meets_box_by_division(direction, box)
        _, ints = integer_scaled([Rat(d) for d in direction])
        zero = ([0] * len(direction), [0] * len(direction))
        for d in (ints, [factor * c for c in ints]):
            scaled = len(d) - d.count(0)
            whole = normalise_by_ray(d, box)
            part_d = normalise_by_ray(d, part)
            share_d = normalise_by_ray(d, share)
            assert whole == tuple(
                [a + b for a, b in zip(p, q)] for p, q in zip(part_d, share_d)
            )
            assert ray_meets_box(whole, normalise_by_ray(d, zero),
                                 scaled) == expected
            assert ray_meets_box(part_d, share_d, scaled) == expected

    check()


_GRID_VALUES = st.builds(
    Rat,
    st.one_of(st.integers(-2 ** 16, 2 ** 16), st.integers(-2 ** 90, 2 ** 90)),
    st.one_of(st.integers(1, 2 ** 40), st.sampled_from([1, 2 ** 13, 2 ** 40])),
)


@given(st.lists(st.lists(_GRID_VALUES, min_size=1, max_size=3),
                min_size=1, max_size=4))
@example([[Rat(-3, 2), Rat(5, 4)], [Rat(-1, 3), Rat(0)]])
@example([[Rat(2 ** 70 + 1, 3)], [Rat(-1, 2 ** 40)]])
@example([[Rat(3, 2 ** 82), Rat(-1, 2 ** 81)], [Rat(0)]])  # all below 1/2
@example([[Rat(0)], [Rat(0), Rat(0)]])
def test_outward_grid_brackets_every_value(points):
    """The shift puts the largest magnitude in [2 ** 59, 2 ** 60) unless
    that would take a shift below 0; every value is bracketed by one grid
    step, exactly on a grid point."""
    shift, brackets = outward_grid(points)
    exponent = binary_exponent_by_fractions([x for p in points for x in p])
    assert shift == max(0, 60 - exponent)
    unit = 2 ** shift
    if shift and any(x for p in points for x in p):
        assert 2 ** 59 <= max(abs(x) for p in points for x in p) * unit
    assert len(brackets) == len(points)
    for p, (floors, ceils) in zip(points, brackets):
        assert type(floors) is tuple and type(ceils) is tuple
        assert len(floors) == len(ceils) == len(p)
        for x, lo, hi in zip(p, floors, ceils):
            assert isinstance(lo, int) and isinstance(hi, int)
            assert lo <= x * unit <= hi
            assert hi - lo <= 1
            if (x * unit).denominator == 1:
                assert lo == hi == x * unit
            if shift:
                assert max(abs(lo), abs(hi)) <= 2 ** 60


def test_outward_grid_keeps_integers_and_dyadics_exact():
    shift, brackets = outward_grid([(Rat(-7, 8), Rat(3)), (Rat(5, 2 ** 14),)])
    assert shift == 58
    exact = (-7 * 2 ** 55, 3 * 2 ** 58)
    assert brackets == [(exact, exact), ((5 * 2 ** 44,), (5 * 2 ** 44,))]
    assert outward_grid([(2 ** 64, -1)]) == (
        0, [((2 ** 64, -1), (2 ** 64, -1))])


#: Coordinates for the integer set-up's oracles: integers, small and wide
#: numerators over the denominators a cut time, a grid or a seeded
#: perturbation brings (3, 7, 8, 2 ** 16), signs of both kinds.
_SETUP_DENOMINATORS = st.sampled_from([1, 2, 3, 7, 8, 2 ** 16, 3 * 2 ** 16])
_SETUP_NUMERATORS = st.one_of(st.integers(-50, 50),
                              st.integers(-2 ** 80, 2 ** 80))


@given(st.lists(st.lists(st.one_of(
    st.builds(Rat, _SETUP_NUMERATORS, _SETUP_DENOMINATORS),
    st.builds(Rat, _SETUP_NUMERATORS, st.sampled_from([2 ** 10, 2 ** 58])),
    _SETUP_NUMERATORS,
), min_size=1, max_size=3), max_size=4))
@example([[Rat(-7, 8), 3, Rat(5, 2 ** 14)], [Rat(-1, 3), Rat(0)]])
@example([[2 ** 64, -1], [Rat(-2 ** 61 - 1, 7)]])
def test_outward_grid_matches_rational_floor_and_ceil(points):
    """One ``divmod`` per coordinate brackets it as the rational floor and
    ceil of ``x * 2 ** shift`` do, with the same shift: on integers, on
    exact grid points (dyadic coordinates, whose brackets close up), on
    negative coordinates and past the 2 ** 60 range."""
    assert outward_grid(points) == outward_grid_by_fractions(points)


@st.composite
def _frame_points(draw):
    """The vertices of a simplex, 2 to 5 points of width 1 to 4, for
    :func:`simplex_frame`: coordinates of mixed denominators, of one
    denominator throughout (equal ones in most edges) or integers, and now
    and then a vertex repeating the base (a zero edge)."""
    width = draw(st.integers(1, 4))
    npts = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["mixed", "one denominator", "integers"]))
    if kind == "mixed":
        denominators = _SETUP_DENOMINATORS
    elif kind == "one denominator":
        denominators = st.just(draw(st.sampled_from([3, 7, 2 ** 16 + 1])))
    else:
        denominators = st.just(1)
    coordinate = st.builds(Rat, _SETUP_NUMERATORS, denominators)
    points = [tuple(draw(coordinate) for _ in range(width))
              for _ in range(npts)]
    if draw(st.integers(0, 3)) == 0:
        points[draw(st.integers(0, npts - 2))] = points[-1]
    return points


@given(_frame_points())
@example([(Rat(1, 3), Rat(-2, 7)), (Rat(1, 3), Rat(-2, 7))])  # zero edge
@example([(Rat(1, 3), Rat(5)), (Rat(4, 3), Rat(-2, 3))])  # one denominator
@example([(Rat(-5, 8), Rat(1, 2)), (Rat(1, 8), Rat(3, 7))])
def test_simplex_frame_matches_the_rational_edges(points):
    """The edge columns formed from integer ratios, and their scales, are
    those of ``integer_scaled`` on the rational edges ``p - base``, and the
    base is cleared the same way."""
    frame = simplex_frame(points)
    assert (frame.base_int, frame.columns, frame.scales) == (
        simplex_frame_by_differences(points))

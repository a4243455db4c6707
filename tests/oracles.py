"""Independent brute-force oracles used to cross-check the library.

Deliberately self-contained: the feasibility oracle enumerates candidate
vertices of the constraint polyhedron with its own little Gaussian
elimination instead of calling anything from the package, so the two
routes share no code.  The rational ray-box test and sphere-map box, over
facet boxes built from the facets' points, are the references for the
integer prefilter of the degree route, and the shares rounded from whole
facet boxes for its shares built from each vertex's grid bracket.  The direct
triple solve is the reference for the pair-reduced kernel as the sweep
uses it, and the direct ray solve for the kernel as the degree route uses
it: each solves the whole block system (4k x 4k, and 2m x 2m) with the
Bareiss square solve, the package's former generic solver, which the
tests check separately against ``_solve_unique``.  That solve, on the
system :func:`joined_system` writes out, is also the reference for the
package's joined solve, which expands over cached minors, and the Leibniz
determinant is the reference for that expansion's term tables.  The
direct pair reduction, which writes out the whole pair block and clears a
rational right-hand side, is the reference for the package's, an integer
product with a frame's cached row operations;
the slicing elimination loop is the reference for the package's, which
updates entry by entry; the full back-substitution loop is the reference
for the package's, which takes its last step from the last pivot.  The
rational barycentric classifier is the reference for the kernel's integer
verdicts.  The Gauss-Jordan feasibility routine, with general
inequalities, is the reference for the package's rank-first
``feasible_point`` on "A x = b, x >= 0", a simplex method, and the exact
common-scale frames and extents are the references for the sweep's
outward-rounded grid prefilter; the rational forms of the interior
keyframe ``a + t (b - a)``, of the grid's floor and ceil and of a simplex
frame's edges are the references for the set-up built from integer
ratios, and the refinement that averages its midpoints in rational
arithmetic the reference for the retries' on a track with no interior
keyframe; the union of extents is the reference for
the sweep's cell and prism extents, and the two-level enumeration of cell
triples on exact extents the reference for the candidates of its
three-level prefilter.  The list forms of the prefilter, extents as
``(mins, maxs)`` lists with their hull, meet, intersection and meet masks
and a grid point's ends along the sweep's directions, are the references
for the package's extents packed into one integer each.  The helpers at the end (image of
a barycentric point, the unnormalised sphere map, reversed components,
reversed and concatenated tracks, the straight-line homotopy to a trivial
ornament, relative sweeps, certification of an ornament homotopy, a
scaled ornament) are used
only by tests, as is :func:`cell_points`, a cell's points read off a
track, as is :func:`decide_from_pairs`, the routes' two kernel
steps as one call.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations

from ornaments.geometry import (
    DimensionMismatch,
    back_substitute,
    derive_seed,
    eliminate,
    integer_scaled,
    outward_grid,
    random_rational_perturbation,
    triple_verdict,
)
from ornaments import sweep
from ornaments.model import (
    Ornament,
    PLMap,
    TriangulatedManifold,
    validate_ornament,
)
from ornaments.sweep import (
    HomotopyTrack,
    NonGenericTrack,
    detect_triple_points,
    staircase_cells,
    sweep_with_retries,
)


def cell_points(track, cell):
    """Images of a cell's vertices in R^{m+1} (time appended), read from
    ``track`` at the cell's interval."""
    j = cell.interval
    pts = []
    for v, level in cell.vertices:
        img = track.images[j + level][cell.component][v]
        pts.append(tuple(img) + (track.times[j + level],))
    return pts


def nonneg_rows(nvars):
    """The inequality rows ``-x_i <= 0`` of "x >= 0", in variable order."""
    rows = []
    for i in range(nvars):
        row = [0] * nvars
        row[i] = -1
        rows.append((row, 0))
    return rows


def frame_base(frame):
    """The rational base point of a ``SimplexFrame``, from its integer
    ``base_int = (scale, ints)``."""
    scale, ints = frame.base_int
    return [Fraction(c, scale) for c in ints]


def interior_barycentric(solution, arities):
    """Classify stacked reduced barycentric coordinates, one block of
    ``arity - 1`` per simplex (the last vertex's coordinate is implied;
    entries past the blocks are ignored).

    Returns the full coordinates, one tuple per simplex, when the point is
    strictly interior to every simplex; ``"closed"`` when it lies in every
    closed simplex but on some boundary; ``None`` when it is outside some
    closed simplex.  The package's former classifier, kept as the reference
    for ``ornaments.geometry.cramer_status`` and the kernel's verdicts.
    """
    full = []
    interior = True
    pos = 0
    for arity in arities:
        coords = list(solution[pos:pos + arity - 1])
        pos += arity - 1
        coords.append(1 - sum(coords, Fraction(0)))
        for c in coords:
            if c < 0:
                return None
            if c == 0:
                interior = False
        full.append(tuple(coords))
    return tuple(full) if interior else "closed"


def _solve_unique(rows, nvars):
    """Solve a (possibly overdetermined) exact linear system; returns the
    unique solution or None (no solution, or underdetermined)."""
    m = [[Fraction(c) for c in coeffs] + [Fraction(rhs)] for coeffs, rhs in rows]
    rank = 0
    pivots = []
    for col in range(nvars):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(m)):
        if m[r][nvars] != 0:
            return None
    if rank < nvars:
        return None
    x = [Fraction(0)] * nvars
    for r, col in enumerate(pivots):
        x[col] = m[r][nvars]
    return x


def feasible_point_gauss_jordan(eq_rows, le_rows, nvars):
    """Decide a system of linear equalities and inequalities exactly.

    ``eq_rows`` is a list of ``(coeffs, rhs)`` meaning ``coeffs . x == rhs``
    and ``le_rows`` the same with ``<=``.  Returns a satisfying point as a
    list of rationals, or ``None`` when the system is infeasible.

    Equalities are removed first by Gauss-Jordan elimination on
    Fractions; the projected inequality system is then decided by
    Fourier-Motzkin elimination, whose stages are replayed backwards to
    produce a concrete solution.  This is the package's former
    ``feasible_point`` and now its only Fourier-Motzkin code, kept as the
    reference for the rank test and the exact simplex method that
    replaced it: both must return the same point.  The replay's bounds of
    each free variable are its least and greatest values over the
    projection, which the simplex computes as two minima.
    """
    rows = [[Fraction(c) for c in coeffs] + [Fraction(rhs)]
            for coeffs, rhs in eq_rows]
    pivot_cols = []
    rank = 0
    for col in range(nvars):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivot_cols.append(col)
        rank += 1
        if rank == len(rows):
            break
    for i in range(rank, len(rows)):
        if rows[i][nvars] != 0:
            return None  # 0 == nonzero
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(nvars) if c not in pivot_set]
    nfree = len(free_cols)

    # Substitute x_pivot = rows[i][-1] - sum_f rows[i][f] * y_f into each
    # inequality, leaving a system purely over the free variables y.
    ineqs = []
    for coeffs, rhs in le_rows:
        coeffs = [Fraction(c) for c in coeffs]
        const = Fraction(rhs)
        acc = [Fraction(0)] * nfree
        for jf, f in enumerate(free_cols):
            acc[jf] = coeffs[f]
        for i, p in enumerate(pivot_cols):
            cp = coeffs[p]
            if cp != 0:
                const -= cp * rows[i][nvars]
                for jf, f in enumerate(free_cols):
                    acc[jf] -= cp * rows[i][f]
        ineqs.append((acc, const))

    stages = []
    system = ineqs
    for j in range(nfree):
        stages.append(system)
        uppers, lowers, passthrough = [], [], []
        for a, b in system:
            c = a[j]
            if c > 0:
                uppers.append(([x / c for x in a], b / c))
            elif c < 0:
                lowers.append(([x / -c for x in a], b / -c))
            else:
                passthrough.append((a, b))
        nxt = list(passthrough)
        for al, bl in lowers:
            for au, bu in uppers:
                nxt.append(([x + y for x, y in zip(al, au)], bl + bu))
        system = nxt
    for a, b in system:
        if b < 0:
            return None
    # Replay the stages backwards, fixing one free variable at a time.
    y = [Fraction(0)] * nfree
    for j in range(nfree - 1, -1, -1):
        lo = hi = None
        for a, b in stages[j]:
            c = a[j]
            if c == 0:
                continue
            val = (b - sum((a[jj] * y[jj] for jj in range(j + 1, nfree)), Fraction(0))) / c
            if c > 0:
                hi = val if hi is None else min(hi, val)
            else:
                lo = val if lo is None else max(lo, val)
        if lo is None and hi is None:
            y[j] = Fraction(0)
        elif lo is None:
            y[j] = hi - 1
        elif hi is None:
            y[j] = lo + 1
        else:
            y[j] = (lo + hi) / 2
    x = [Fraction(0)] * nvars
    for jf, f in enumerate(free_cols):
        x[f] = y[jf]
    for i, p in enumerate(pivot_cols):
        x[p] = rows[i][nvars] - sum(
            (rows[i][f] * y[jf] for jf, f in enumerate(free_cols)), Fraction(0)
        )
    return x


def brute_force_feasible(eq_rows, le_rows, nvars):
    """Decide feasibility of a BOUNDED system by vertex enumeration.

    A nonempty bounded polyhedron has a vertex, and every vertex is the
    unique solution of the equalities plus some subset of tight
    inequalities; try them all.
    """
    eq = [([Fraction(c) for c in coeffs], Fraction(rhs))
          for coeffs, rhs in eq_rows]
    le = [([Fraction(c) for c in coeffs], Fraction(rhs))
          for coeffs, rhs in le_rows]

    def satisfies(x):
        for coeffs, rhs in eq:
            if sum(c * v for c, v in zip(coeffs, x)) != rhs:
                return False
        for coeffs, rhs in le:
            if sum(c * v for c, v in zip(coeffs, x)) > rhs:
                return False
        return True

    for size in range(nvars + 1):
        for subset in combinations(range(len(le)), size):
            rows = list(eq) + [le[i] for i in subset]
            x = _solve_unique(rows, nvars)
            if x is not None and satisfies(x):
                return True
    return False


def solve_bareiss(rows, rhs):
    """Reference square solve for the package's joined ``solve_integer``:
    Bareiss elimination of ``[rows | rhs]`` and fraction-free
    back-substitution, the package's former generic solver.

    Returns ``(sign, numerators, det)``: the determinant sign in
    {-1, 0, +1}, and integer Cramer numerators ``N`` over the Bareiss
    determinant ``D`` (the determinant of the row-permuted matrix, nonzero
    but of either sign), so that the solution is ``x_i = N_i / D``.  Both
    are ``None`` when the system is singular.  The rows are left
    untouched."""
    n = len(rows)
    if n == 0:
        return 1, [], 1
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    swap_sign, pivots, _ = eliminate(aug, n)
    if len(pivots) < n:
        return 0, None, None
    # The last Bareiss pivot is the determinant of the row-permuted matrix.
    det = pivots[-1]
    sign = swap_sign if det > 0 else -swap_sign
    return sign, back_substitute(aug, [row[n] for row in aug]), det


def joined_system(reduction_a, reduction_b):
    """``(rows, rhs)``: the 2k x 2k integer system that the package's
    ``solve_integer(reduction_a, reduction_b)`` solves, the x-free rows of
    the two pair reductions, a's on top, with each right-hand side lifted
    by the other reduction's ``rho``."""
    rows = [list(row) for row in reduction_a.con_rows + reduction_b.con_rows]
    rhs = ([r * reduction_b.rho for r in reduction_a.con_rhs]
           + [r * reduction_a.rho for r in reduction_b.con_rhs])
    return rows, rhs


def decide_from_pairs(reduction_a, reduction_b, solve):
    """Both routes' two kernel steps as one call, ``(sign, verdict)`` with
    the triple's sign: ``(0, None)`` when singular (a ``None`` reduction
    included, with no call to ``solve``), ``(sign, None)`` when ``solve``,
    a binding of the package's ``solve_integer`` that a test may record,
    left the numerators out, and otherwise ``triple_verdict`` of its
    result."""
    if reduction_a is None or reduction_b is None:
        return 0, None
    sign, numerators, det = solve(reduction_a, reduction_b)
    if sign == 0:
        return 0, None
    if numerators is None:
        sign *= reduction_a.sign_fix * reduction_b.sign_fix
        return (-sign if len(reduction_a.con_rows) % 2 else sign), None
    return triple_verdict(reduction_a, reduction_b, sign, numerators, det)


def det_leibniz(rows):
    """Brute-force determinant of a square integer matrix: the Leibniz sum
    over all permutations, each signed by its inversions.  The reference
    for the signed term tables of the package's joined solve."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for row, col in zip(rows, perm):
            term *= row[col]
        total += term
    return total


def back_substitute_full(rows, rhs, det):
    """Reference for the package's ``back_substitute``: integer numerators
    ``N_i = det * x_i`` of the triangular system ``rows[i][i:n] . x[i:] =
    rhs[i]``, every one, the last included, found by the full
    multiply-and-divide step.  This is the package's former loop."""
    n = len(rhs)
    numerators = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = det * rhs[i]
        for j in range(i + 1, n):
            acc -= row[j] * numerators[j]
        numerators[i] = acc // row[i]
    return numerators


def ray_meets_box_by_division(direction, box):
    """Reference ray-box test: intersect the intervals ``[mn/d, mx/d]`` of
    admissible ray parameters by exact division.  Inputs are converted to
    Fractions first, so integer inputs are never divided as floats."""
    lo = Fraction(0)
    hi = None  # +infinity
    for d, mn, mx in zip(direction, box[0], box[1]):
        d, mn, mx = Fraction(d), Fraction(mn), Fraction(mx)
        if d == 0:
            if mn > 0 or mx < 0:
                return False
            continue
        a, b = mn / d, mx / d
        if a > b:
            a, b = b, a
        if a > lo:
            lo = a
        hi = b if hi is None else min(hi, b)
        if hi < lo:
            return False
    return True


def sphere_map_box(b1, b2, b3):
    """Interval hull of (2x-y-z, 2y-x-z) when x, y, z range over the boxes
    ``(mins, maxs)`` b1, b2, b3, built coordinate by coordinate."""
    mins, maxs = [], []
    for lo1, hi1, lo2, hi2, lo3, hi3 in zip(
        b1[0], b1[1], b2[0], b2[1], b3[0], b3[1]
    ):
        mins.append(2 * lo1 - hi2 - hi3)
        maxs.append(2 * hi1 - lo2 - lo3)
    for lo1, hi1, lo2, hi2, lo3, hi3 in zip(
        b1[0], b1[1], b2[0], b2[1], b3[0], b3[1]
    ):
        mins.append(2 * lo2 - hi1 - hi3)
        maxs.append(2 * hi2 - lo1 - lo3)
    return tuple(mins), tuple(maxs)


def facet_box(f, i):
    """Reference facet box of the PL map ``f``: the componentwise least
    and greatest coordinates of facet ``i``'s points, ``(mins, maxs)``."""
    coords = f.facet_points(i)
    return tuple(map(min, zip(*coords))), tuple(map(max, zip(*coords)))


def sphere_map_box_terms(o):
    """Reference for the degree route's integer shares: every
    :func:`facet_box` end rounded outward onto one grid as a point of its
    own (a box's mins down, its maxs up), then each facet's share of the
    sphere-map hull, ``(mins, maxs)``, from its rounded box."""
    boxes = [
        [facet_box(f, i) for i in range(len(f.domain.facets))]
        for f in o.components
    ]
    _, brackets = outward_grid(
        side for per_facet in boxes for box in per_facet for side in box
    )
    ends = iter(brackets)
    terms = []
    for which, per_facet in enumerate(boxes):
        shares = []
        for _ in per_facet:
            lo = list(next(ends)[0])
            hi = list(next(ends)[1])
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


def eliminate_sliced(aug, ncols):
    """Reference for ``ornaments.geometry.eliminate``: the same
    fraction-free forward elimination, which must give the same result and
    leave the same rows, written with slices and with every row below the
    pivot rewritten, a zero lead's included."""
    nrows = len(aug)
    swap_sign = 1
    pivots = []
    pivot_cols = []
    prev = 1
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = None
        for r in range(rank, nrows):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            aug[rank], aug[piv] = aug[piv], aug[rank]
            swap_sign = -swap_sign
        prow = aug[rank]
        pivot = prow[col]
        tail = prow[col + 1:]
        for r in range(rank + 1, nrows):
            row = aug[r]
            lead = row[col]
            if lead:
                if prev == 1:
                    row[col + 1:] = [
                        pivot * rc - lead * pc for rc, pc in zip(row[col + 1:], tail)
                    ]
                else:
                    row[col + 1:] = [
                        (pivot * rc - lead * pc) // prev
                        for rc, pc in zip(row[col + 1:], tail)
                    ]
            else:
                if prev == 1:
                    row[col + 1:] = [pivot * rc for rc in row[col + 1:]]
                else:
                    row[col + 1:] = [pivot * rc // prev for rc in row[col + 1:]]
            row[col] = 0
        pivots.append(pivot)
        pivot_cols.append(col)
        prev = pivot
        rank += 1
    return swap_sign, pivots, pivot_cols


def pair_reduction_direct(frame_x, frame_kept, extra=()):
    """Reference for ``ornaments.geometry.pair_reduction``: the whole pair
    block ``[E_x | -E_kept | -extra | r]`` written out, its right-hand side
    ``r = base_kept - base_x`` formed on rationals and cleared by
    ``integer_scaled``, and eliminated by :func:`eliminate_sliced`; the
    same tuple, or ``None`` for dependent edges.  ``extra`` holds
    ``(column, scale)`` pairs."""
    base_x = frame_base(frame_x)
    width = len(base_x)
    d = len(frame_x.columns)
    rho, r_int = integer_scaled(
        [k - x for k, x in zip(frame_base(frame_kept), base_x)]
    )
    aug = []
    for c in range(width):
        aug.append([u[c] for u in frame_x.columns]
                   + [-u[c] for u in frame_kept.columns]
                   + [-col[c] for col, _ in extra] + [r_int[c]])
    swap_sign, pivots, _ = eliminate_sliced(aug, d)
    if len(pivots) < d:
        return None
    sign_fix = swap_sign
    previous = 1
    for t, p in enumerate(pivots):
        if p < 0:
            sign_fix = -sign_fix
        if (p < 0) != (previous < 0) and (width - 1 - t) % 2 == 1:
            sign_fix = -sign_fix
        previous = p
    con_rows = []
    con_rhs = []
    for row in aug[d:]:
        tail = row[d:]
        content = math.gcd(*tail)
        if content > 1:
            tail = [c // content for c in tail]
        con_rows.append(tail[:-1])
        con_rhs.append(tail[-1])
    scales_kept = frame_kept.scales + [scale for _, scale in extra]
    return (aug[:d], con_rows, con_rhs, sign_fix, rho, frame_x.scales,
            scales_kept)


def solve_triple(frame1, frame2, frame3):
    """Solve "the three affine cells meet" in the reduced barycentric
    coordinates of the three cells (last vertex of each eliminated).

    Returns ``(det_sign, solution)`` for the block system
    ``[[E1, -E2, 0], [0, E2, -E3]]`` assembled in component order from
    frames built by ``ornaments.geometry.simplex_frame``.  The sweep's
    pair-reduction route must agree with it exactly.
    """
    base1, e1 = frame_base(frame1), frame1.columns
    base2, e2 = frame_base(frame2), frame2.columns
    base3, e3 = frame_base(frame3), frame3.columns
    width = len(base1)
    zeros1 = [0] * len(e1)
    zeros3 = [0] * len(e3)
    rows = []
    rhs = []
    for c in range(width):
        rows.append(
            [u[c] for u in e1] + [-u[c] for u in e2] + zeros3
        )
        rhs.append(base2[c] - base1[c])
    for c in range(width):
        rows.append(
            zeros1 + [u[c] for u in e2] + [-u[c] for u in e3]
        )
        rhs.append(base3[c] - base2[c])
    rho, rhs_int = integer_scaled(rhs)
    sign, numerators, det = solve_bareiss(rows, rhs_int)
    if sign == 0:
        return 0, None
    col_scales = frame1.scales + frame2.scales + frame3.scales
    return sign, [
        Fraction(s * n, rho * det) for s, n in zip(col_scales, numerators)
    ]


def solve_ray_triple(frame1, frame2, frame3, ray):
    """Solve "the facet triple maps onto the ray" directly, as the full
    2m x 2m system in the reduced barycentric coordinates of the three
    facets and the ray scalar s.

    Returns ``(det_sign, solution)`` for the rows
    ``[[2 E1, -E2, -E3, -v_top], [-E1, 2 E2, -E3, -v_bot]]`` with the
    right-hand side ``-(2 base1 - base2 - base3), -(2 base2 - base1 -
    base3)``, assembled from ``ornaments.geometry.simplex_frame`` frames
    and the rational ray ``v``; the solution lists the three blocks in
    facet order, then s.  The degree route's pair-reduced kernel must agree
    with it exactly.
    """
    base1, e1 = frame_base(frame1), frame1.columns
    base2, e2 = frame_base(frame2), frame2.columns
    base3, e3 = frame_base(frame3), frame3.columns
    m = len(base1)
    ray_scale, ray_int = integer_scaled(ray)
    rows = []
    rhs = []
    for c in range(m):
        rows.append([2 * u[c] for u in e1] + [-u[c] for u in e2]
                    + [-u[c] for u in e3] + [-ray_int[c]])
        rhs.append(-(2 * base1[c] - base2[c] - base3[c]))
    for c in range(m):
        rows.append([-u[c] for u in e1] + [2 * u[c] for u in e2]
                    + [-u[c] for u in e3] + [-ray_int[m + c]])
        rhs.append(-(2 * base2[c] - base1[c] - base3[c]))
    rho, rhs_int = integer_scaled(rhs)
    sign, numerators, det = solve_bareiss(rows, rhs_int)
    if sign == 0:
        return 0, None
    col_scales = frame1.scales + frame2.scales + frame3.scales + [ray_scale]
    return sign, [
        Fraction(s * n, rho * det) for s, n in zip(col_scales, numerators)
    ]


def interior_frame_by_steps(first, last, t):
    """Reference for the interior keyframes of the package's
    ``linear_track``: the images ``a + t (b - a)`` at time ``t`` of the
    straight-line motion from the frame ``first`` to ``last`` (per
    component, the tuples of vertex images), in rational arithmetic."""
    return tuple(
        tuple(tuple(x + t * (y - x) for x, y in zip(a, b))
              for a, b in zip(comp_first, comp_last))
        for comp_first, comp_last in zip(first, last)
    )


def refined_track_by_fractions(track, seed, attempt):
    """Reference for the package's ``_refined_track`` on a track with no
    interior keyframe: a midpoint keyframe, averaged in rational
    arithmetic and jiggled with the same seeds and scale, inserted into
    every interval, and every other keyframe kept as it is."""
    coords = [
        c for frame in track.images for comp in frame
        for img in comp for c in img
    ]
    eps = max(max(coords) - min(coords), Fraction(1)) / 2 ** (4 + attempt % 8)
    times = []
    frames = []
    for j in range(len(track.times) - 1):
        times.append(track.times[j])
        frames.append(track.images[j])
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
        times.append((track.times[j] + track.times[j + 1]) / 2)
        frames.append(tuple(mid_frame))
    times.append(track.times[-1])
    frames.append(track.images[-1])
    return HomotopyTrack(track.domains, track.m, times, frames)


def binary_exponent_by_fractions(values):
    """``floor(log2 max |x|) + 1`` over the rational ``values``, or 0 when
    every one is zero: the largest magnitude halved or doubled into [1/2,
    1), counting the steps."""
    biggest = max((abs(Fraction(x)) for x in values), default=Fraction(0))
    if not biggest:
        return 0
    e = 0
    while biggest >= 1:
        biggest /= 2
        e += 1
    while biggest < Fraction(1, 2):
        biggest *= 2
        e -= 1
    return e


def outward_grid_by_fractions(points):
    """Reference for the package's ``outward_grid``: the same shift, 60
    less the binary exponent of the largest magnitude of a coordinate (not
    below 0), and each coordinate's bracket by rational floor and ceil of
    ``x * 2 ** shift``."""
    points = [[Fraction(x) for x in p] for p in points]
    shift = max(0, 60 - binary_exponent_by_fractions(
        [x for p in points for x in p]))
    return shift, [
        (tuple(math.floor(x * 2 ** shift) for x in p),
         tuple(math.ceil(x * 2 ** shift) for x in p))
        for p in points
    ]


def simplex_frame_by_differences(points):
    """Reference for the package's ``simplex_frame``: ``(base_int,
    columns, scales)``, the base (the last vertex) and each rational edge
    ``p - base`` cleared of denominators by ``integer_scaled``."""
    base = points[-1]
    columns = []
    scales = []
    for p in points[:-1]:
        scale, ints = integer_scaled(tuple(x - b for x, b in zip(p, base)))
        columns.append(ints)
        scales.append(scale)
    return integer_scaled(base), columns, scales


def integer_frames_exact(track):
    """Reference for the sweep's grid frames: per keyframe, the images with
    the time appended, all multiplied by the least positive integer that
    clears every denominator of the track's images and times; integer
    tuples indexed like ``track.images``.  Exact, but on a long track the
    common scale grows to thousands of bits."""
    scale = 1
    for t, frame in zip(track.times, track.images):
        scale = math.lcm(scale, t.denominator)
        for comp in frame:
            for img in comp:
                for c in img:
                    scale = math.lcm(scale, c.denominator)
    return [
        tuple(
            tuple(tuple(int(c * scale) for c in img + (t,))
                  for img in comp)
            for comp in frame
        )
        for t, frame in zip(track.times, track.images)
    ]


def extents_exact(points, pairs):
    """Reference for the sweep's grid extents: exact min/max of plain
    points along every coordinate and every direction e_i + e_j and
    e_i - e_j for ``(i, j)`` in ``pairs``, in the sweep's order."""
    width = len(points[0])
    mins = []
    maxs = []
    for c in range(width):
        vals = [p[c] for p in points]
        mins.append(min(vals))
        maxs.append(max(vals))
    for i, j in pairs:
        vals = [p[i] + p[j] for p in points]
        mins.append(min(vals))
        maxs.append(max(vals))
        vals = [p[i] - p[j] for p in points]
        mins.append(min(vals))
        maxs.append(max(vals))
    return mins, maxs


def vertex_extents_lists(point, pairs):
    """Reference for the sweep's packed extent of one grid point, given as
    a ``(floors, ceils)`` pair: its lower and upper ends along every
    coordinate and, for each ``(i, j)`` in ``pairs``, along e_i + e_j and
    e_i - e_j, as ``(lows, highs)`` lists; lower ends come from floors and
    upper ends from ceils (``e_i - e_j`` pairs floor i with ceil j)."""
    lo, hi = point
    low = list(lo)
    high = list(hi)
    for i, j in pairs:
        low.append(lo[i] + lo[j])
        low.append(lo[i] - hi[j])
        high.append(hi[i] + hi[j])
        high.append(hi[i] - lo[j])
    return low, high


def extents_meet_lists(a, b):
    """Reference for the package's packed ``extents_meet``: whether the
    closed extents ``a`` and ``b``, each ``(mins, maxs)``, share a
    point."""
    return (all(x <= y for x, y in zip(a[0], b[1]))
            and all(x <= y for x, y in zip(b[0], a[1])))


def box_intersection_lists(a, b):
    """Reference for the package's packed ``box_intersection``: the common
    part of the closed extents ``a`` and ``b``, or ``None`` when they do
    not meet."""
    if not extents_meet_lists(a, b):
        return None
    return ([max(x, y) for x, y in zip(a[0], b[0])],
            [min(x, y) for x, y in zip(a[1], b[1])])


def meet_mask_lists(extents, others):
    """Reference for the package's packed ``meet_mask``: bit b is set when
    ``extents`` meets ``others[b]``."""
    return sum(extents_meet_lists(extents, other) << b
               for b, other in enumerate(others))


def extents_union(extent_list):
    """Reference for the sweep's cell and prism extents, and for the
    package's packed ``hull``: the union, entry by entry, of ``(mins,
    maxs)`` extents (of vertices or of cells)."""
    mins = list(extent_list[0][0])
    maxs = list(extent_list[0][1])
    for mn, mx in extent_list[1:]:
        for i in range(len(mins)):
            if mn[i] < mins[i]:
                mins[i] = mn[i]
            if mx[i] > maxs[i]:
                maxs[i] = mx[i]
    return mins, maxs


def two_level_cell_triples(track):
    """Reference for the cell triples the sweep's prefilter passes: those
    of a two-level rule on the exact extents of the rational points, in the
    order the sweep solves them, as ``(cell 1, cell 2, cell 3)``.

    Per keyframe interval, prism 1 runs over component 0's facets and
    prism 2, inside it, over component 1's; a pair whose extents meet keeps
    the component-2 prisms meeting their common part, and the staircase
    cells of those third prisms are the third cells.  Each cell 1 of prism
    1 then runs against each cell 2 of prism 2, and a pair whose extents
    meet yields one triple per third cell meeting their common part.  The
    triples of an interval are then sorted by each cell's place in its
    component's facet-then-staircase order, cell 1 first.  There is no
    component level, so the sweep solving exactly these triples shows that
    its component level cuts no candidate."""
    pairs = list(combinations(range(track.m + 1), 2))
    triples = []
    for j in range(len(track.times) - 1):
        prisms = []
        for ci, dom in enumerate(track.domains):
            entries = []
            for fi, facet in enumerate(dom.facets):
                points = [
                    track.images[j + level][ci][v] + (track.times[j + level],)
                    for level in (0, 1) for v in facet
                ]
                cells = [(place, cell,
                          extents_exact(cell_points(track, cell), pairs))
                         for place, cell in enumerate(
                             staircase_cells(facet, ci, fi, j),
                             start=len(facet) * fi)]
                entries.append((extents_exact(points, pairs), cells))
            prisms.append(entries)
        placed = []
        for x1, cells1 in prisms[0]:
            for x2, cells2 in prisms[1]:
                x12 = box_intersection_lists(x1, x2)
                if x12 is None:
                    continue
                cells3 = [entry for x3, cells3 in prisms[2]
                          if box_intersection_lists(x12, x3) is not None
                          for entry in cells3]
                for place1, cell1, cx1 in cells1:
                    for place2, cell2, cx2 in cells2:
                        cx12 = box_intersection_lists(cx1, cx2)
                        if cx12 is None:
                            continue
                        placed.extend(
                            ((place1, place2, place3), (cell1, cell2, cell3))
                            for place3, cell3, cx3 in cells3
                            if box_intersection_lists(cx12, cx3) is not None
                        )
        triples.extend(cells for _, cells in sorted(placed))
    return triples


def point_at(f, facet_index, barycentric):
    """Image under the PL map ``f`` of the point with the given (full)
    barycentric coordinates on the given facet."""
    facet = f.domain.facets[facet_index]
    if len(barycentric) != len(facet):
        raise DimensionMismatch("barycentric length does not match facet")
    acc = [Fraction(0)] * f.ambient_dim
    for lam, v in zip(barycentric, facet):
        img = f.images[v]
        for c in range(f.ambient_dim):
            acc[c] += Fraction(lam) * img[c]
    return tuple(acc)


def reverse_track(track):
    """The same homotopy run backwards in time."""
    n = len(track.times)
    times = tuple(1 - track.times[n - 1 - j] for j in range(n))
    frames = tuple(track.images[n - 1 - j] for j in range(n))
    return HomotopyTrack(track.domains, track.m, times, frames)


def concat_tracks(first, second):
    """Concatenation at a shared middle ornament, reparameterized to [0, 1]."""
    if first.domains != second.domains or first.m != second.m:
        raise ValueError("tracks are not composable")
    if first.images[-1] != second.images[0]:
        raise ValueError("tracks do not share their middle keyframe")
    times = [t / 2 for t in first.times]
    frames = list(first.images)
    for j in range(1, len(second.times)):
        times.append(Fraction(1, 2) + second.times[j] / 2)
        frames.append(second.images[j])
    return HomotopyTrack(first.domains, first.m, times, frames)


def certify_ornament_homotopy(track):
    """True when the track endpoints are valid and the sweep finds no triple
    points at all, i.e. every level of the homotopy is an ornament."""
    if not validate_ornament(track.endpoint(0)).ok:
        return False
    if not validate_ornament(track.endpoint(1)).ok:
        return False
    try:
        return detect_triple_points(track) == []
    except NonGenericTrack:
        return False


def unnormalized_sphere_map(x, y, z):
    """(x, y, z) -> (2x-y-z, 2y-x-z); zero exactly when x = y = z."""
    if not (len(x) == len(y) == len(z)):
        raise DimensionMismatch("points must share one ambient dimension")
    top = tuple(2 * a - b - c for a, b, c in zip(x, y, z))
    bottom = tuple(2 * b - a - c for a, b, c in zip(x, y, z))
    return top + bottom


def scaled_ornament(o, factor):
    """The ornament ``o`` with every vertex image multiplied by the
    rational ``factor``."""
    return Ornament([
        PLMap(f.domain, f.ambient_dim,
              [tuple(x * factor for x in img) for img in f.images])
        for f in o.components
    ])


def reverse_component_orientation(o, which):
    """Flip the orientation of one component (1, 2 or 3) by transposing the
    first two vertices of each of its facets; images are untouched."""
    if which not in (1, 2, 3):
        raise ValueError("component index must be 1, 2 or 3")
    components = list(o.components)
    f = components[which - 1]
    flipped = tuple((fac[1], fac[0]) + fac[2:] for fac in f.domain.facets)
    domain = TriangulatedManifold(f.domain.dim, f.domain.vertex_count, flipped)
    components[which - 1] = PLMap(domain, f.ambient_dim, f.images)
    return Ornament(components)


def straight_line_homotopy_to_trivial(o, targets, seed=0):
    """Track of the straight-line homotopy collapsing each component to its
    target point, keyframed as :func:`ornaments.sweep.mu_via_sweep` keys
    its collapse and refined (midpoint and interior keyframes jiggled by
    less than a sixteenth of the track's span) until the sweep is generic;
    endpoints are exact."""
    _, swept = sweep_with_retries(sweep._collapse_track(o, targets),
                                  seed=seed)
    return swept


def relative_sweep(track, seed=0):
    """Signed triple-point count of a track with valid ornament endpoints;
    equals invariant(start) - invariant(end)."""
    points, _ = sweep_with_retries(track, seed=seed)
    return sum(p.sign for p in points)

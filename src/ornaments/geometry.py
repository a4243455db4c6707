"""Exact rational linear algebra and geometric predicates.

Every scalar in this library is exact: an arbitrary-precision rational
(``fractions.Fraction``) or, inside the hot loops, an integer, so the
predicates built on top (determinant sign, simplex membership, linear
feasibility) are decided exactly rather than within a tolerance.  "Generic
position" questions downstream thereby become decidable: a configuration
is degenerate if and only if some matrix here is exactly singular or some
solution lands exactly on a face.

This module is the exact kernel of both invariant routes.  Linear systems
are reduced by fraction-free Bareiss elimination on integer matrices whose
columns were cleared of denominators by :func:`integer_scaled`; the one
elimination loop, :func:`eliminate`, serves every caller.  Both routes
decide their triples with one pair-reduced kernel built on that loop and
on back-substitution.  Rationals enter it only at its edges: a
:class:`SimplexFrame` holds a simplex's base point and edges as integers,
its edges formed from the vertices' integer ratios (:func:`simplex_frame`),
and records the elimination of its edges once, as row operations
(:func:`edge_elimination`), the first time it is the eliminated side of a
pair.  :func:`pair_reduction` then eliminates one simplex of a pair by one
integer product of those row operations with the other simplex's edges and
the difference of the two integer base points, and carries the column
scales of both blocks and the weights of the kept simplex's implied
coordinate; its k x k minors, read by every candidate it enters, and its
triangular rows, read only to back-substitute a candidate, are formed on
first use.  A triple is decided in two steps, both called by each route.
:func:`~ornaments.laplace.solve_integer` joins two reductions that share a
kept simplex into one 2k x 2k solve, each right-hand side lifted by the
other reduction's ``rho`` to the product of both, a Laplace expansion over
their minors (:mod:`ornaments.laplace` compiles the expansion of the
minors and of the solve once per k), and returns numerators only for a
point in the closed kept simplex: it screens each listed coordinate and
then the implied one.  :func:`triple_verdict` classifies what comes back:
outside, on a boundary, or strictly interior.  Every verdict is read off
integer Cramer numerators over the integer determinant by one classifier,
:func:`cramer_status`, so rationals are built only for interior points,
the witnesses.  Linear feasibility is asked in one form, "A x = b, x >=
0" on integer rows with positive column scales, and decided rank first:
the equalities go through the same elimination loop, and an inconsistent
system is rejected on integers alone.  Only a consistent one goes on to
an exact integer simplex method, whose memory is bounded by its tableau
and whose minima fix the witness.  The prefilter layer rounds points
outward onto one power-of-two grid (:func:`outward_grid`), from their
integer ratios, at a shift taken from the binary exponent of the largest
magnitude, and packs each extent over n directions into one nonnegative
integer of 2n lanes (:class:`Lanes`): lane l holds the upper end plus
``2 ** (W - 2)`` and lane n + l minus the lower end plus the same, W
bits each, with W sized from the data so that ``2 ** (W - 2)`` exceeds
every end packed.  Then :func:`hull` and :func:`box_intersection` are
lane-wise maxima and minima, and :func:`extents_meet` and
:func:`meet_mask` one addition and one mask per test, a handful of
big-integer operations whatever n is.
"""

from __future__ import annotations

import math
import random
import re

from fractions import Fraction as Rat
from operator import mul

from .laplace import kernel

class DimensionMismatch(ValueError):
    """Shapes of the operands are incompatible."""


_RATIONAL_FORMAT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")


def parse_rational(text):
    """Parse a rational literal "p" or "p/q" with q > 0.

    Anything else (floats, whitespace, zero denominators) raises ValueError.
    """
    if not isinstance(text, str) or _RATIONAL_FORMAT.match(text) is None:
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        p, q = text.split("/")
        if int(q) == 0:
            raise ValueError(f"zero denominator in rational literal: {text!r}")
        return Rat(int(p), int(q))
    return Rat(int(text))


def format_rational(value):
    """Canonical text form: reduced "p/q" with q > 1, else plain "p"."""
    return str(Rat(value))


def derive_seed(*parts):
    """Deterministically mix seed components (ints or short strings) into one
    64-bit seed.  Used everywhere a child generator is split off a parent
    seed, so the whole artifact's randomness is a pure function of the
    top-level seed."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        if isinstance(part, str):
            part = int.from_bytes(part.encode("utf8"), "big")
        h ^= part & 0xFFFFFFFFFFFFFFFF
        h = (h * 0x5851F42D4C957F2D + 0x14057B7EF767814F) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 29
    return h


def as_point(coords):
    """A point: the tuple of its coordinates as exact rationals."""
    return tuple(c if type(c) is Rat else Rat(c) for c in coords)


def eliminate(aug, ncols):
    """In-place fraction-free forward elimination of the first ``ncols``
    columns over all rows of the integer matrix ``aug``.

    Returns ``(swap_sign, pivots, pivot_cols)``: the sign of the row
    permutation applied, the successive Bareiss pivots and the columns they
    sit in.  Row ``r`` of the result has its pivot ``pivots[r]`` in column
    ``pivot_cols[r]`` and zeros to its left; every entry below a pivot is
    zeroed, and the rows past the last pivot are zero on the first
    ``ncols`` columns.  A column with no pivot is passed over, so the rank
    is ``len(pivots)``, and the leading columns are dependent exactly when
    it is below ``ncols``.  A row past the rank is a nonzero multiple of an
    original row minus a combination of the pivot rows, so a nonzero entry
    of it after the first ``ncols`` columns (say, a right-hand side) means
    the system those columns belong to is inconsistent.

    Each step is a linear map on the rows whose coefficients (pivot, lead,
    previous pivot) come from the eliminated columns alone, so the later
    columns only ride along: eliminating ``[A | -I]`` records, in the
    identity's place, the negated row operations that map any further
    column ``c`` to its image (see :func:`edge_elimination`).  The rows are
    updated entry by entry, and a row with a zero lead is left as it is
    when the pivot equals the previous one (its factor is 1).
    """
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
        rest = range(col + 1, len(prow))
        for r in range(rank + 1, nrows):
            row = aug[r]
            lead = row[col]
            if lead:
                row[col] = 0
                if prev == 1:
                    for c in rest:
                        row[c] = pivot * row[c] - lead * prow[c]
                else:
                    for c in rest:
                        row[c] = (pivot * row[c] - lead * prow[c]) // prev
            elif pivot != prev:
                if prev == 1:
                    for c in rest:
                        row[c] *= pivot
                else:
                    for c in rest:
                        row[c] = row[c] * pivot // prev
        pivots.append(pivot)
        pivot_cols.append(col)
        prev = pivot
        rank += 1
    return swap_sign, pivots, pivot_cols


def back_substitute(rows, rhs):
    """Integer numerators ``N_i = det * x_i`` of the solution of the
    triangular system ``rows[i][i:n] . x[i:] = rhs[i]``, ``n = len(rhs)``,
    left by :func:`eliminate`, over ``det = rows[n - 1][n - 1]``, its last
    pivot (any later columns of ``rows`` are ignored).  By Cramer's rule on
    the row-permuted leading block every ``N_i`` is an integer when ``rhs``
    is the elimination's image of an integer column, so each step divides
    exactly; the last one, ``det * rhs[n - 1] / det``, is ``rhs[n - 1]``
    itself.
    """
    n = len(rhs)
    det = rows[n - 1][n - 1]
    numerators = [0] * n
    numerators[n - 1] = rhs[n - 1]
    for i in range(n - 2, -1, -1):
        row = rows[i]
        acc = det * rhs[i]
        for j in range(i + 1, n):
            acc -= row[j] * numerators[j]
        numerators[i] = acc // row[i]
    return numerators


def integer_scaled(coords):
    """``(scale, ints)`` with ``scale`` the least positive integer such that
    ``scale * coords`` is integral; scaling a matrix column or a right-hand
    side this way preserves determinant signs and is undone on solutions."""
    ratios = [c.as_integer_ratio() for c in coords]
    scale = math.lcm(*[d for _, d in ratios])
    if scale == 1:
        return 1, [n for n, _ in ratios]
    return scale, [n * (scale // d) for n, d in ratios]


class SimplexFrame:
    """The reusable half of every linear system in which a simplex takes
    part, built by :func:`simplex_frame`: its base point (the last vertex)
    cleared of denominators, ``base_int = (scale, ints)``, and the edge
    vectors of the other vertices relative to it, in listed order, as
    integer ``columns`` with their column ``scales`` (``scales[j] * edge j
    = columns[j]``).

    :meth:`elimination` builds the :func:`edge_elimination` of the columns
    on first use and keeps it, so a simplex eliminated in many pair
    reductions is eliminated once."""

    __slots__ = ("base_int", "columns", "scales", "_elimination")

    def __init__(self, base_int, columns, scales):
        self.base_int = base_int
        self.columns = columns
        self.scales = scales
        self._elimination = _UNBUILT

    def elimination(self):
        """:func:`edge_elimination` of the columns, built once."""
        if self._elimination is _UNBUILT:
            self._elimination = edge_elimination(self.columns,
                                                 len(self.base_int[1]))
        return self._elimination


_UNBUILT = object()


def simplex_frame(points):
    """The :class:`SimplexFrame` of a simplex given by its vertices (tuples
    of rationals): the last one is the base, and each edge to another
    vertex is pre-scaled to an integer column, as :func:`integer_scaled`
    scales the rational edge.

    The edges are formed from the coordinates' integer ratios, with no
    rational arithmetic: coordinate ``n_p / d_p`` of a vertex less ``n_b /
    d_b`` of the base is ``n_p d_b - n_b d_p`` over ``d_p d_b``, or ``n_p -
    n_b`` over the common denominator when the two are equal, reduced by
    one gcd; the column's scale is the lcm of the reduced denominators."""
    base = [x.as_integer_ratio() for x in points[-1]]
    columns = []
    scales = []
    for p in points[:-1]:
        numerators = []
        denominators = []
        for x, (n_b, d_b) in zip(p, base):
            n_p, d_p = x.as_integer_ratio()
            if d_p == d_b:
                n, d = n_p - n_b, d_p
            else:
                n, d = n_p * d_b - n_b * d_p, d_p * d_b
            g = math.gcd(n, d)
            numerators.append(n // g)
            denominators.append(d // g)
        scale = math.lcm(*denominators)
        columns.append([n * (scale // d) for n, d in
                        zip(numerators, denominators)])
        scales.append(scale)
    return SimplexFrame(integer_scaled(points[-1]), columns, scales)


def cramer_status(numerators, det, scales, rho, arity):
    """Where the solution ``x_i = scales[i] * N_i / (rho * D)`` (positive
    ``scales`` and ``rho``, nonzero ``D``) lies relative to one simplex,
    decided on integer signs without building a rational: its first
    ``arity - 1`` entries are the simplex's reduced barycentric coordinates
    (the last vertex's is implied), and any entries past them are further
    coordinates that must not be negative (say, a ray scalar).

    Returns ``None`` when some coordinate is negative: a listed one, when
    ``N_i * D < 0``, or the implied one, when ``(rho * D - sum of scales *
    N over the block) * D < 0``; ``False`` when none is negative but some
    is zero (the point is on the closed simplex's boundary); ``True`` when
    every coordinate is positive.  Signs are compared with ``D``'s, so
    nothing is negated, and a negative listed entry returns at once,
    before the implied coordinate is formed.
    """
    interior = True
    if det > 0:
        for n in numerators:
            if n <= 0:
                if n:
                    return None
                interior = False
    else:
        for n in numerators:
            if n >= 0:
                if n:
                    return None
                interior = False
    implied = rho * det
    for i in range(arity - 1):
        implied -= scales[i] * numerators[i]
    if implied and (implied > 0) != (det > 0):
        return None
    return interior and implied != 0


# ---------------------------------------------------------------------------
# The pair-reduced triple kernel of both routes.
# ---------------------------------------------------------------------------

def edge_elimination(columns, width):
    """The fraction-free elimination of the integer columns ``E`` (each of
    length ``width``), recorded so that it can be applied to any further
    columns: :func:`eliminate` on ``[E | -I]``.

    Returns ``None`` when the columns are dependent.  Otherwise returns
    ``(tri_x, ops, sign_fix)``: ``tri_x`` the triangular rows of the
    eliminated ``E``, one per column (row ``i`` has ``i`` leading zeros
    and the pivot on the diagonal); ``ops`` the ``width`` rows that ``-I``
    became, the negated row operations, so that, since the steps read only
    ``E``, the elimination of ``[E | C]`` leaves ``-ops`` times ``C``
    beside ``E`` for any integer ``C``; and ``sign_fix`` in {-1, +1} such
    that, in any square system whose rows past these vanish on ``E``'s
    columns, det(with these rows on top) = sign_fix * det(with ``E``'s
    columns dropped and the rows past the pivots in their place), up to a
    positive factor.

    Each row of ``ops`` past the pivots is divided by its positive
    content, once per frame, which narrows the products of
    :func:`pair_reduction`.  Such a row makes one x-free row there, which
    the division only scales by a positive factor, and since gcd(c v) =
    c gcd(v), the x-free rows that function returns, each divided by its
    own content, are unchanged.  The triangular rows' operations are kept
    whole.
    """
    d = len(columns)
    aug = []
    for c in range(width):
        row = [u[c] for u in columns] + [0] * width
        row[d + c] = -1
        aug.append(row)
    swap_sign, pivots, _ = eliminate(aug, d)
    if len(pivots) < d:
        return None
    # Each fraction-free step multiplies the rows below the pivot by
    # (pivot / previous pivot); together with the swaps and the triangular
    # pivot block this fixes the determinant sign of the original system
    # relative to the reduced one.
    sign_fix = swap_sign
    previous = 1
    for t, p in enumerate(pivots):
        if p < 0:
            sign_fix = -sign_fix  # the pivot itself, from det of the block
        if (p < 0) != (previous < 0) and (width - 1 - t) % 2 == 1:
            sign_fix = -sign_fix  # parity of the row rescalings
        previous = p
    ops = [row[d:] for row in aug[:d]]
    for row in aug[d:]:
        op = row[d:]
        content = math.gcd(*op)
        ops.append([c // content for c in op] if content > 1 else op)
    return [row[:d] for row in aug[:d]], ops, sign_fix


class PairReduction:
    """One simplex of a pair eliminated from the pair's equations, built by
    :func:`pair_reduction`: the x-free integer rows ``con_rows`` on the
    kept columns with their right-hand sides ``con_rhs``, the least
    positive integer ``rho`` that scales the right-hand side to integers,
    ``sign_fix`` in {-1, +1} such that, in any square system whose other
    rows vanish on the x columns, det(with the pair block on top) =
    sign_fix * det(with the x columns dropped and the x-free rows in the
    block's place), up to a positive factor, and the column scales of the
    eliminated block, ``scales_x``, and of the kept one, ``scales_kept``,
    the extra columns' included, and the ``weights`` of the kept columns
    in the implied coordinate of the kept simplex: its column scales, and
    0 for each extra column.

    :meth:`minors`, read by every candidate the reduction enters, as
    either block of its joined solve (where the block's right-hand side is
    lifted by the other block's ``rho``), and
    :meth:`triangular`, read only when a candidate's kept block is not
    outside (most reductions never need them), are formed on first use
    and kept."""

    __slots__ = ("con_rows", "con_rhs", "sign_fix", "rho", "scales_x",
                 "scales_kept", "weights", "_tri_x", "_ops", "_columns",
                 "_triangular", "_minors")

    def __init__(self, con_rows, con_rhs, sign_fix, rho, scales_x,
                 scales_kept, weights, tri_x, ops, columns):
        self.con_rows = con_rows
        self.con_rhs = con_rhs
        self.sign_fix = sign_fix
        self.rho = rho
        self.scales_x = scales_x
        self.scales_kept = scales_kept
        self.weights = weights
        self._tri_x = tri_x
        self._ops = ops
        self._columns = columns
        self._triangular = None
        self._minors = None

    def minors(self):
        """``(minors, lifted)``: the k x k minors of the x-free block
        ``[con_rows | con_rhs]`` and ``rho`` times those on kept columns
        alone, expanded by the ``minors`` that
        :func:`~ornaments.laplace.kernel` compiles for k, built once."""
        if self._minors is None:
            minors, _ = kernel(len(self.con_rows))
            self._minors = minors(self.con_rows, self.con_rhs, self.rho)
        return self._minors

    def triangular(self):
        """The triangular integer rows [x cols | kept cols | rhs], one per
        eliminated column, built once."""
        if self._triangular is None:
            self._triangular = [
                x_row + [sum(map(mul, op, col)) for col in self._columns]
                for x_row, op in zip(self._tri_x, self._ops)
            ]
        return self._triangular


def pair_reduction(frame_x, frame_kept, extra=()):
    """Eliminate the first simplex's edge columns from the pair equations
    ``E_x x - E_kept b - U s = base_kept - base_x`` by fraction-free steps;
    the frames are :class:`SimplexFrame` objects, and ``extra`` holds
    ``(column, scale)`` pairs, integer columns ``U`` (say, a ray's) beside
    the kept simplex's edges with the positive scales that turn their
    solutions into ``s``.

    The steps read only ``E_x``, so they are ``frame_x``'s
    :meth:`~SimplexFrame.elimination`, made once per frame, and the
    reduction is one integer product: its negated row operations times
    ``[E_kept | U | base_x - base_kept]``, the last column the difference
    of the integer base points over their least common scale, divided by
    its content together with that scale.  Each x-free row is divided, with
    its right-hand side, by its positive gcd: that changes neither the
    solution nor any determinant sign, and it keeps the joined system of
    :func:`~ornaments.laplace.solve_integer` narrow.  The triangular rows
    are the same product on the first operations, formed by
    :meth:`PairReduction.triangular` when first asked for.

    Returns ``None`` when the columns of E_x are dependent, in which case
    every triple system containing the pair is singular, and otherwise the
    :class:`PairReduction`.
    """
    elimination = frame_x.elimination()
    if elimination is None:
        return None
    tri_x, ops, sign_fix = elimination
    scale_x, base_x = frame_x.base_int
    scale_k, base_k = frame_kept.base_int
    if scale_x == scale_k:
        rho = scale_x
        offset = [x - k for x, k in zip(base_x, base_k)]
    else:
        rho = math.lcm(scale_x, scale_k)
        lift_x = rho // scale_x
        lift_k = rho // scale_k
        offset = [x * lift_x - k * lift_k for x, k in zip(base_x, base_k)]
    content = math.gcd(rho, *offset)
    if content > 1:
        rho //= content
        offset = [c // content for c in offset]
    columns = frame_kept.columns + [column for column, _ in extra]
    columns.append(offset)
    con_rows = []
    con_rhs = []
    for op in ops[len(tri_x):]:
        tail = [sum(map(mul, op, col)) for col in columns]
        content = math.gcd(*tail)
        if content > 1:
            tail = [c // content for c in tail]
        con_rhs.append(tail.pop())
        con_rows.append(tail)
    scales_kept = weights = frame_kept.scales  # shared: nothing writes it
    if extra:
        scales_kept = scales_kept + [scale for _, scale in extra]
        weights = weights + [0] * len(extra)
    return PairReduction(con_rows, con_rhs, sign_fix, rho, frame_x.scales,
                         scales_kept, weights, tri_x, ops, columns)


def _eliminated_block(reduction, numerators_kept, det, lift):
    """Numerators of the block a pair reduction eliminated, given the kept
    block ``numerators_kept / det`` and the right-hand side lifted by
    ``lift``; they lie over ``det`` times the reduction's last pivot, which
    is returned with them."""
    tri_rows = reduction.triangular()
    d = len(tri_rows)
    top = det * lift
    rhs = []
    for row in tri_rows:
        acc = top * row[-1]
        for j, n in enumerate(numerators_kept):
            acc -= row[d + j] * n
        rhs.append(acc)
    return back_substitute(tri_rows, rhs), det * tri_rows[-1][d - 1]


def _full_coordinates(numerators, det, scales, rho, arity):
    """The rational coordinates of a block that :func:`cramer_status` found
    interior: the simplex's full barycentric tuple, the implied last
    coordinate included, and the list of the entries past it."""
    below = rho * det
    coords = [Rat(s * n, below) for s, n in zip(scales, numerators)]
    listed = coords[:arity - 1]
    listed.append(1 - sum(listed, Rat(0)))
    return tuple(listed), coords[arity - 1:]


def triple_verdict(reduction_a, reduction_b, sign, numerators, det):
    """Decide a triple from the :func:`pair_reduction` of its two row
    blocks, which share the kept columns and their scales, and the result
    ``(sign, numerators, det)`` of their joined
    :func:`~ornaments.laplace.solve_integer`, whose numerators came back:
    the system is regular and its point lies in the closed kept simplex.
    Each route calls its own binding of ``solve_integer`` and then this,
    so that whoever counts a route's solves sees every one.

    The kept block is classified by :func:`cramer_status`, with the kept
    simplex of the eliminated ones' arity and the extra columns as
    coordinates that must not be negative, to tell its interior from its
    boundary; b is back-substituted and classified, and a only for a b
    that is not outside.  Every verdict is reached on integers, and
    rationals are built only for a strictly interior point, the witness.

    Sign: det(triple) = fix_a * fix_b * (-1)^k * det(joined), up to a
    positive factor.  With pair blocks of n rows, moving the bottom block
    above a's k con rows costs (-1)^(n k), and swapping the two con blocks
    into joined order (-1)^(k^2) = (-1)^k.  The sweep (n = 3k, 2k edges
    per cell) solves [[E1, -E2, 0], [0, E2, -E3]]: its bottom block is the
    (3, 2) pair block negated, (-1)^(3k), with its two 2k-column blocks
    swapped, +1, and (-1)^(3k + 3k^2) = +1.  The degree route (n = 3k - 1,
    2k - 1 edges per facet) solves [[E1, 0, -E3, -u], [0, E2, -E3, -w]]:
    its blocks are the (1, 3) and (2, 3) pair blocks as they stand, with
    no negation or reordering, and (-1)^((3k - 1) k) = +1.

    Returns ``(sign, verdict)``, ``sign`` the triple's: ``(sign, None)``
    when the point is outside some closed simplex or an extra coordinate is
    negative; ``(sign, "closed")`` when it lies in every closed simplex but
    some coordinate, an extra one included, is zero; and ``(sign, (full_a,
    full_kept, full_b, extras))`` when it is strictly interior, with the
    full barycentric tuples of the three simplices and the list of the
    extra coordinates.
    """
    sign *= reduction_a.sign_fix * reduction_b.sign_fix
    if len(reduction_a.con_rows) % 2:
        sign = -sign
    scales_a = reduction_a.scales_x
    scales_b = reduction_b.scales_x
    scales_kept = reduction_a.scales_kept
    arity = len(scales_b) + 1
    rho_a = reduction_a.rho
    rho_b = reduction_b.rho
    rho = rho_a * rho_b
    # Never None: the solve returned numerators, so the point is in the
    # closed kept simplex, and this tells interior from boundary.
    interior = cramer_status(numerators, det, scales_kept, rho, arity)
    numerators_b, det_b = _eliminated_block(reduction_b, numerators, det,
                                            rho_a)
    interior_b = cramer_status(numerators_b, det_b, scales_b, rho, arity)
    if interior_b is None:
        return sign, None
    numerators_a, det_a = _eliminated_block(reduction_a, numerators, det,
                                            rho_b)
    interior_a = cramer_status(numerators_a, det_a, scales_a, rho, arity)
    if interior_a is None:
        return sign, None
    if not (interior and interior_b and interior_a):
        return sign, "closed"
    full_a, _ = _full_coordinates(numerators_a, det_a, scales_a, rho, arity)
    full_kept, extras = _full_coordinates(numerators, det, scales_kept, rho,
                                          arity)
    full_b, _ = _full_coordinates(numerators_b, det_b, scales_b, rho, arity)
    return sign, (full_a, full_kept, full_b, extras)


def random_grid_offset(rng):
    """One draw from the generator ``rng`` onto the open unit interval's
    grid of step ``2 ** -16``: ``j / 2 ** 16`` with an integer ``|j| < 2 **
    16``, taken from one ``rng.getrandbits(64)``."""
    return Rat(rng.getrandbits(64) % (2 ** 17 - 1) - (2 ** 16 - 1), 2 ** 16)


def random_rational_perturbation(v, eps, seed):
    """Deterministic rational jitter of every coordinate of the point ``v``.

    Each coordinate moves by ``eps`` times one :func:`random_grid_offset`
    of the seeded generator, so the sup-distance to ``v`` is strictly below
    ``eps`` and the denominator factor introduced beyond that of ``eps`` is
    at most ``2 ** 16``.  Identical arguments give identical output, a
    tuple of rationals.
    """
    eps = Rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    rng = random.Random(seed)
    return tuple(c + eps * random_grid_offset(rng) for c in v)


# ---------------------------------------------------------------------------
# Linear feasibility with exact witness extraction.
# ---------------------------------------------------------------------------

def feasible_point(eq_rows, scales):
    """Decide "A x = b, x >= 0" exactly, on integer rows.

    ``eq_rows`` is a list of ``(coeffs, rhs)`` of ``int`` entries, in the
    variables ``z[j] = x[j] / scales[j]``: column ``j`` holds ``scales[j]``
    times its coefficient in x, ``scales`` being positive integers, one
    per column (:func:`~ornaments.model.common_point_system` writes its
    rows this way).  Returns a point in x satisfying the equalities with
    every coordinate nonnegative, as a list of rationals, or ``None`` when
    there is none.

    The equalities are decided first, by rank: :func:`eliminate` reduces
    them fraction-free, and a nonzero right-hand side past the rank means
    they are inconsistent, so ``None`` is returned without building a
    rational.  Otherwise :func:`_minimum` decides the echelon rows, in
    z >= 0.  For the point, the columns without a pivot are fixed from the
    last to the first: each takes, in x, the midpoint of its least and
    greatest feasible value with the later ones held, or its least value
    plus 1 when it has no greatest; then the pivot columns are
    back-substituted.
    """
    nvars = len(scales)
    aug = [[*coeffs, rhs] for coeffs, rhs in eq_rows]
    _, pivots, pivot_cols = eliminate(aug, nvars)
    rank = len(pivots)
    for row in aug[rank:]:
        if row[nvars]:
            return None  # 0 == nonzero
    del aug[rank:]
    if _minimum(aug, nvars, [0] * nvars) is None:
        return None
    z = [Rat(0)] * nvars
    for f in reversed([c for c in range(nvars) if c not in pivot_cols]):
        unit = [int(c == f) for c in range(nvars)]
        lo = _minimum(aug, nvars, unit)
        top = _minimum(aug, nvars, [-u for u in unit])  # minus the greatest
        z[f] = lo + Rat(1, scales[f]) if top is False else (lo - top) / 2
        aug.append([z[f].denominator * u for u in unit] + [z[f].numerator])
    for i in reversed(range(rank)):
        row, p = aug[i], pivot_cols[i]
        z[p] = Rat(row[nvars] - sum(map(mul, row[p + 1:nvars], z[p + 1:])),
                   row[p])
    return [s * v for s, v in zip(scales, z)]


def _minimum(rows, nvars, cost):
    """The exact minimum of ``cost . z`` over "rows z = rhs, z >= 0", each
    row ``coeffs + [rhs]`` with ``nvars`` integer coefficients and the rows
    of full rank; ``None`` when there is no such z, ``False`` when the
    minimum is unbounded.

    Two simplex phases on an integer tableau, under Bland's rule (the
    first column with a negative reduced cost enters; the row of least
    ratio, then of least basic column, leaves), so nothing cycles.  The
    ratios are compared on integers, cross-multiplied by the two positive
    pivots.  Phase
    1 minimises the sum of one artificial per row, each row negated first
    if its right-hand side is negative; an artificial still basic after it
    is pivoted out on a nonzero original column, which full rank provides.
    The last row holds the reduced costs and minus the objective.  Each
    entry is ``denom``, the last pivot's magnitude, times its value, so
    each fraction-free step divides exactly.
    """
    m = len(rows)
    tableau = []
    for i, row in enumerate(rows):
        sign = -1 if row[nvars] < 0 else 1
        line = [sign * c for c in row]
        line[nvars:nvars] = [int(i == j) for j in range(m)]
        tableau.append(line)
    basis = list(range(nvars, nvars + m))
    denom = 1

    def price(costs):
        objective = [denom * c for c in costs]
        for line, b in zip(tableau, basis):
            if costs[b]:
                objective = [v - costs[b] * w for v, w in zip(objective, line)]
        tableau[m:] = [objective]

    def pivot(r, col):
        nonlocal denom
        line = tableau[r]
        p = line[col]
        for i, other in enumerate(tableau):
            if i != r:
                lead = other[col]
                tableau[i] = [(p * v - lead * w) // denom
                              for v, w in zip(other, line)]
        if p < 0:
            tableau[:] = [[-v for v in other] for other in tableau]
        denom = abs(p)
        basis[r] = col

    def run(ncols):
        while True:
            col = next((j for j in range(ncols) if tableau[m][j] < 0), None)
            if col is None:
                return True
            leave = None
            for i, line in enumerate(tableau[:m]):
                if line[col] <= 0:
                    continue
                if leave is not None:
                    best = tableau[leave]
                    # line[-1] / line[col] against best[-1] / best[col],
                    # cross-multiplied: both pivots are positive.
                    ahead = line[-1] * best[col] - best[-1] * line[col]
                    if ahead > 0 or (ahead == 0 and basis[i] > basis[leave]):
                        continue
                leave = i
            if leave is None:
                return False
            pivot(leave, col)

    price([0] * nvars + [1] * m + [0])
    run(nvars + m)
    if tableau[m][-1]:
        return None
    for i in range(m):
        if basis[i] >= nvars:
            pivot(i, next(j for j in range(nvars) if tableau[i][j]))
    price(cost + [0] * (m + 1))
    return run(nvars) and Rat(-tableau[m][-1], denom)


# ---------------------------------------------------------------------------
# The prefilter layer of validation and both routes: the outward grid, and
# extents packed into one integer each, with their hull, meet, meet masks
# and intersection.
# ---------------------------------------------------------------------------

def outward_grid(points):
    """``(shift, brackets)``: the points (tuples of rationals or integers)
    rounded outward onto the grid of step ``2 ** -shift``, one bracket
    ``(floors, ceils)`` of integer tuples per point, ``floor(x * 2 **
    shift)`` and ``ceil(x * 2 ** shift)`` for every coordinate x, both
    exact when ``x * 2 ** shift`` is an integer.

    One shift serves all points and puts the largest magnitude below
    2**60, at 2**59 or above: it is ``60 - e``, with ``e = floor(log2
    max |x|) + 1`` the binary exponent of the largest magnitude, and 0 when
    that exponent is 60 or more (a zero largest magnitude counts as ``e =
    0``).  So the integers stay about 64 bits wide whatever the
    denominators and however small the points, and grow past that only
    for points of magnitude 2**60 and above.  Floor and ceil are monotone,
    so the :func:`hull` of brackets contains ``2 ** shift`` times the
    exact box of the points, and is the box's own rounding: the grid
    serves prefilters that only have to be conservative.
    :func:`grid_brackets` does the rounding."""
    ratios = [[x.as_integer_ratio() for x in p] for p in points]
    shift = max(0, 60 - _binary_exponent(ratios))
    return shift, grid_brackets(ratios, shift)


def _binary_exponent(ratios):
    """``floor(log2 max |n / d|) + 1`` over the integer ratios ``(n, d)``
    (``d > 0``) of the points ``ratios``, or 0 when every one is zero; on
    integers alone.  When some magnitude is 1 or more it is the bit length
    of the largest integer part.  Otherwise ``|n|`` and ``d`` of bit
    lengths ``a`` and ``b`` give ``floor(log2 |n / d|)`` as ``a - b`` or
    ``a - b - 1``, so only the ratios of the greatest ``a - b`` are
    compared, ``|n|`` against ``d`` moved ``b - a`` places."""
    top = max((abs(n) // d for p in ratios for n, d in p), default=0)
    if top:
        return top.bit_length()
    rough = [(abs(n).bit_length() - d.bit_length(), abs(n), d)
             for p in ratios for n, d in p if n]
    if not rough:
        return 0
    top = max(e for e, _, _ in rough)
    reached = any(n << -top >= d for e, n, d in rough if e == top)
    return top + 1 if reached else top


def grid_brackets(ratios, shift):
    """The brackets of :func:`outward_grid` at a given ``shift``, of
    points given as tuples of integer ratios ``(n, d)`` with ``d > 0``,
    not necessarily in lowest terms.  Each coordinate takes one
    ``divmod``: the ceil is the floor, plus 1 for a nonzero remainder."""
    brackets = []
    for p in ratios:
        floors = []
        ceils = []
        for n, d in p:
            q, r = divmod(n << shift, d)
            floors.append(q)
            ceils.append(q + 1 if r else q)
        brackets.append((tuple(floors), tuple(ceils)))
    return brackets


def grid_magnitude(brackets):
    """The largest magnitude of an end of the ``(floors, ceils)``
    brackets, 0 for none: a floor is never above its ceil, so it is the
    greater of the largest ceil and minus the least floor."""
    return max((max(max(ceils), -min(floors))
                for floors, ceils in brackets if floors), default=0)


class Lanes:
    """The packing of an extent over ``count`` directions, its lower and
    upper ends ``lo_l <= hi_l`` integers of magnitude at most ``bound``,
    into one nonnegative integer of ``2 * count`` lanes of ``width`` bits:
    lane ``l`` holds ``hi_l + 2 ** (width - 2)`` and lane ``count + l``
    holds ``-lo_l + 2 ** (width - 2)``, so every lane lies in ``[0, 2 **
    (width - 1))`` and its top bit, the guard, is clear.

    The width comes from the data: it is the least with ``2 ** (width -
    2) > bound``.  Then two lanes, or a lane of ``top`` less one, add or
    subtract without a carry or a borrow leaving the lane, and the guard
    of the result tells their order.  :func:`hull` is the lane-wise
    maximum (the greatest upper end and the least lower end) and
    :func:`box_intersection` the lane-wise minimum, and ``a`` meets ``b``
    exactly when every guard of ``a + mirror(b)`` is set, ``mirror``
    swapping the two halves: lane ``l`` of the sum is ``hi_a - lo_b + 2 **
    (width - 1)`` (see :func:`extents_meet`).  The representation is exact
    and integer-only."""

    __slots__ = ("count", "width", "bias", "top", "half", "lower")

    def __init__(self, count, bound):
        width = bound.bit_length() + 2
        ones = ((1 << (2 * count * width)) - 1) // ((1 << width) - 1)
        self.count = count
        self.width = width
        #: ``2 ** (width - 2)`` in every lane: the packing of [0, 0].
        self.bias = ones << (width - 2)
        #: The guard bit of every lane.
        self.top = ones << (width - 1)
        #: The bits of one half, the upper or the lower ends.
        self.half = count * width
        self.lower = (1 << self.half) - 1

    def pack(self, lows, highs):
        """The packed extent of the lower ends ``lows`` and upper ends
        ``highs``, integer sequences of ``count`` entries each."""
        width = self.width
        packed = self.bias
        at = 0
        for hi in highs:
            packed += hi << at
            at += width
        for lo in lows:
            packed -= lo << at
            at += width
        return packed

    def unpack(self, extent):
        """``(lows, highs)``, the integer lists that :meth:`pack` packed
        into ``extent``."""
        width = self.width
        lane = (1 << width) - 1
        bias = 1 << (width - 2)
        ends = [(extent >> at & lane) - bias
                for at in range(0, 2 * self.half, width)]
        return [-e for e in ends[self.count:]], ends[:self.count]

    def mirror(self, extent):
        """``extent`` with its halves swapped: the form in which
        :func:`extents_meet` and :func:`meet_mask` take the extent they
        test against."""
        return (extent >> self.half) | (extent & self.lower) << self.half


def hull(extents, lanes):
    """The packed extent of a nonempty list of packed extents (a point's
    own extent included) on ``lanes``: the least lower and the greatest
    upper end of every direction, one lane-wise maximum at a time.  For
    each pair, the guards of ``(x | top) - y`` mark the lanes where ``x >=
    y``; less their own value moved down to each lane's lowest bit, they
    become masks of those lanes' value bits, which select ``x`` there and
    ``y`` elsewhere."""
    top = lanes.top
    shift = lanes.width - 1
    extents = iter(extents)
    x = next(extents)
    for y in extents:
        guards = ((x | top) - y) & top
        x = y ^ ((x ^ y) & (guards - (guards >> shift)))
    return x


def extents_meet(a, mirrored, lanes):
    """Whether the closed packed extents ``a`` and ``b`` on ``lanes``
    share a point, given ``mirrored``, the :meth:`Lanes.mirror` of ``b``:
    every lane of the sum, ``hi_a - lo_b`` or ``hi_b - lo_a`` plus ``2 **
    (width - 1)``, has its guard set exactly when that difference is not
    negative."""
    top = lanes.top
    return (a + mirrored) & top == top


def box_intersection(a, b, lanes):
    """The common part of the closed packed extents ``a`` and ``b`` on
    ``lanes``, their lane-wise minimum (the least upper and the greatest
    lower end), or ``None`` when they do not meet; a third extent meets
    both of them exactly when it meets (:func:`extents_meet`) their common
    part.  It is empty exactly when some direction's lower end passes its
    upper one, which the guards of its lower half plus its upper half
    tell, as in :func:`extents_meet`."""
    top = lanes.top
    guards = ((a | top) - b) & top
    common = a ^ ((a ^ b) & (guards - (guards >> (lanes.width - 1))))
    low = top & lanes.lower
    if (common + (common >> lanes.half)) & low != low:
        return None
    return common


def meet_mask(extent, mirrors, lanes):
    """The bitmask of the packed extents that ``extent`` meets, given as
    the list ``mirrors`` of their :meth:`Lanes.mirror`: bit b is set when
    it meets the extent of ``mirrors[b]``.  So ``mask_a & mask_b`` of two
    extents that meet lists, in order, the extents that share a point with
    both (see :func:`box_intersection`)."""
    top = lanes.top
    mask = 0
    bit = 1
    for other in mirrors:
        if (extent + other) & top == top:
            mask |= bit
        bit <<= 1
    return mask


def normalise_by_ray(direction, box):
    """The box ``(mins, maxs)`` in the coordinates :func:`ray_meets_box`
    reads for the ray spanned by the nonzero integer ``direction``.

    With L the least common multiple of the nonzero ``|d_c|``, coordinate
    c of a nonzero ``d_c`` is multiplied by ``L / |d_c|``, and negated with
    its ends swapped when ``d_c < 0``: then ``s * d_c`` lies in the
    coordinate's interval exactly when ``t = s * L`` lies in the new one.
    These coordinates come first, in their order, and those of a zero
    ``d_c`` follow as they are.  The map is exact, divides nothing and is
    linear, so the normalised sum of boxes is the sum of the normalised
    boxes: a box normalised once per direction serves every sum it enters.
    """
    scale = math.lcm(*[d for d in direction if d])
    mins = []
    maxs = []
    for d, mn, mx in zip(direction, box[0], box[1]):
        if d > 0:
            factor = scale // d
            mins.append(mn * factor)
            maxs.append(mx * factor)
        elif d < 0:
            factor = scale // d
            mins.append(mx * factor)
            maxs.append(mn * factor)
    for d, mn, mx in zip(direction, box[0], box[1]):
        if not d:
            mins.append(mn)
            maxs.append(mx)
    return mins, maxs


def ray_meets_box(box, share, scaled):
    """Exact test whether the closed ray meets the closed box that is the
    sum of two boxes, ``box`` and ``share`` (each ``min <= max``), both
    given by :func:`normalise_by_ray` for that ray, whose direction has
    ``scaled`` nonzero entries (at least one).  Used as a conservative
    prefilter, so the closed version of the ray is intentional.

    In normalised coordinates the ray is the diagonal ``t * (1, ..., 1)``,
    ``t >= 0``, on the first ``scaled`` coordinates and 0 on the rest, so
    it meets the box exactly when the greatest of 0 and the lower ends is
    at most the least upper end, and every other interval holds 0.  The
    ends are added coordinate by coordinate as the test reads them, so a
    box summed from parts is never built; a running low and high are kept
    with additions and comparisons alone, and the test stops at the first
    coordinate that rules the ray out.
    """
    mins, maxs = box
    mins2, maxs2 = share
    low = mins[0] + mins2[0]
    if low < 0:
        low = 0
    high = maxs[0] + maxs2[0]
    if high < low:
        return False
    for c in range(1, scaled):
        mn = mins[c] + mins2[c]
        if mn > low:
            if mn > high:
                return False
            low = mn
        mx = maxs[c] + maxs2[c]
        if mx < high:
            if mx < low:
                return False
            high = mx
    for c in range(scaled, len(mins)):
        if mins[c] + mins2[c] > 0 or maxs[c] + maxs2[c] < 0:
            return False
    return True

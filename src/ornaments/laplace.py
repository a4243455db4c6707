"""The joined solve of the pair-reduced triple kernel, by Laplace expansion.

A triple system of either route joins the x-free rows of two pair
reductions, k rows each on 2k kept columns, with their right-hand sides,
each lifted by the other reduction's ``rho`` to the common scale of both
(see :func:`solve_integer`).  Its determinant and Cramer numerators are
expanded along the first block's rows, the generalised Laplace expansion:
one product of a k x k minor of each block per term.  A block's minors are
expanded once, row by row, and kept by its reduction together with a copy
lifted by its ``rho``: a term holding one block's right-hand side takes
the other block's lifted minor, so no term is multiplied by a lift, and a
candidate's solve is 2 (2k + 1) C(2k - 1, k - 1) products of integers
already at hand and no elimination.  Which entries and minors multiply,
and with which sign, depends on k alone: the signed term tables of the
minors and of the joined solve are compiled once per k (:func:`kernel`)
into two straight-line functions.  The solve screens the kept simplex
whole: it stops at the first numerator that gives a negative coordinate,
and then forms the implied coordinate ``rho_a * rho_b * det - sum w_i
n_i``, the weights ``w`` being the kept simplex's column scales (0 for an
extra column such as a ray's), so that it returns numerators exactly for
a point in the closed kept simplex.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb


def _signed_terms(k):
    """``(expansion, det, numerators)``: the term tables of the minors and
    of the joined solve for blocks of k rows, whose columns are 2k kept
    ones and the right-hand side, column 2k.  Minors are listed by column
    set in ``combinations`` order, and every sum is a list of terms
    ``(sign, p, q)``, each standing for sign * left[p] * right[q].

    ``expansion[r - 2]``, r >= 2, expands the minors of a block's first r
    rows along row r, one sum per column set: the entry in the set's column
    t (from 0), ``left = row r``, has the sign (-1)^(r + t + 1) and the
    minor of the rows above on the rest, ``right``.

    In ``det`` and ``numerators`` the factors are ``minor_a[p]`` and
    ``minor_b[q]``.  ``det`` sums over the k-sets S of kept columns
    (-1)^(k (k + 3) / 2 + sum S) minor_a(S) minor_b(complement).  For
    numerator i the right-hand side stands in column i, so the block whose
    set holds i takes its minor with i swapped for column 2k, signed by the
    set's columns past i; ``numerators[i]`` is the pair of sums of its
    terms with a's right-hand side and with b's, whose other factors are
    lifted.
    """
    n = 2 * k
    sets = [list(combinations(range(n + 1), r)) for r in range(k + 1)]
    where = [{s: i for i, s in enumerate(level)} for level in sets]
    expansion = [
        [[((-1) ** (r + t + 1), s[t], where[r - 1][s[:t] + s[t + 1:]])
          for t in range(r)] for s in sets[r]]
        for r in range(2, k + 1)
    ]

    def term(sign, set_a, set_b):
        return sign, where[k][set_a], where[k][set_b]

    det = []
    numerators = [([], []) for _ in range(n)]
    for s in combinations(range(n), k):
        c = tuple(j for j in range(n) if j not in s)
        sign = (-1) ** (k * (k + 3) // 2 + sum(s))
        det.append(term(sign, s, c))
        for i in range(n):
            if i in s:
                past = sum(j > i for j in s)
                swapped = tuple(j for j in s if j != i) + (n,)
                numerators[i][0].append(term(sign * (-1) ** past, swapped, c))
            else:
                past = sum(j > i for j in c)
                swapped = tuple(j for j in c if j != i) + (n,)
                numerators[i][1].append(term(sign * (-1) ** past, s, swapped))
    return expansion, det, numerators


@cache
def kernel(k):
    """``(minors, solve)`` for blocks of k rows, compiled once per k from
    the term tables of :func:`_signed_terms` into two straight-line
    functions that write out every sum term by term with its sign.

    ``minors(rows, rhs, rho)`` is every k x k minor of the k integer
    ``rows`` (2k entries each) with the right-hand sides ``rhs`` as column
    2k, one per column set in ``combinations`` order (the first row's
    entries are the 1 x 1 minors, and each further row extends those of
    the rows above it), and beside them ``rho`` times each minor on kept
    columns alone, in the same order: the lifted copy, whose minors are
    the only ones a term multiplies with the other block's right-hand
    side.  ``solve(a, b, lifted_a, lifted_b, weights, rho_a, rho_b)`` of the
    two blocks' minors, their copies lifted by their own ``rho``, and the
    kept columns' weights returns what :func:`solve_integer` does: it
    forms ``det`` and then, in a branch per sign of ``det``, each numerator
    followed by a test of its sign against ``det``'s, the terms with a's
    right-hand side taking ``lifted_b`` and those with b's ``lifted_a``,
    and last the implied coordinate, tested the same way.  The source is
    formatted from the tables' integer indices alone (``%d``), never from
    the data it solves."""
    expansion, det, numerators = _signed_terms(k)

    def total(*sums):
        return " ".join("%s %s%d * %s%d"
                        % ("-" if sign < 0 else "+", left, p, right, q)
                        for terms, left, right in sums
                        for sign, p, q in terms).removeprefix("+ ")

    def names(prefix, indices):
        return ", ".join("%s%d" % (prefix, i) for i in indices)

    def screened(sign, opposite):
        lines = []
        for i, (on_a, on_b) in enumerate(numerators):
            lines += [
                "        n%d = %s" % (i, total((on_a, "a", "lb"),
                                               (on_b, "la", "b"))),
                "        if n%d %s 0:" % (i, opposite),
                "            return %d, None, det" % sign,
            ]
        return lines + [
            "        if rho_a * rho_b * det - %s %s 0:"
            % (" - ".join("w%d * n%d" % (i, i) for i in range(n)), opposite),
            "            return %d, None, det" % sign,
            "        return %d, [%s], det" % (sign, names("n", range(n))),
        ]

    n = 2 * k
    size = range(comb(n + 1, k))
    # The minors on kept columns alone, the only ones a lifted copy holds.
    kept = [j for j, s in enumerate(combinations(range(n + 1), k))
            if n not in s]
    # Row r's entries are e<r>_<c>, its right-hand side e<r>_<2k>; the
    # minors of the first r + 1 rows are m<r>_<j>, those of row 0 its
    # entries.
    levels = ["e0_"] + ["m%d_" % r for r in range(1, k)]
    source = "\n".join([
        "def minors(rows, rhs, rho):",
        *["    %s, = rows[%d]" % (names("e%d_" % r, range(n)), r)
          for r in range(k)],
        "    %s, = rhs" % ", ".join("e%d_%d" % (r, n) for r in range(k)),
        *["    %s%d = %s" % (levels[r], j, total((terms, "e%d_" % r,
                                                   levels[r - 1])))
          for r, level in enumerate(expansion, 1)
          for j, terms in enumerate(level)],
        "    return [%s], [%s]" % (
            names(levels[-1], size),
            ", ".join("rho * %s%d" % (levels[-1], j) for j in kept)),
        "def solve(a, b, lifted_a, lifted_b, weights, rho_a, rho_b):",
        "    %s, = a" % names("a", size),
        "    %s, = b" % names("b", size),
        "    det = %s" % total((det, "a", "b")),
        "    if not det:",
        "        return 0, None, None",
        "    %s, = lifted_a" % names("la", kept),
        "    %s, = lifted_b" % names("lb", kept),
        "    %s, = weights" % names("w", range(n)),
        "    if det > 0:",
        *screened(1, "<"),
        "    else:",
        *screened(-1, ">"),
    ])
    namespace = {}
    exec(compile(source, "<kernel, k=%d>" % k, "exec"), namespace)
    return namespace["minors"], namespace["solve"]


def solve_integer(reduction_a, reduction_b):
    """Exact solve of the 2k x 2k integer system joined from the x-free
    rows of two pair reductions, block a's on top, with their right-hand
    sides over the common scale ``rho_a * rho_b``: a's lifted by
    ``reduction_b.rho`` and b's by ``reduction_a.rho``.

    Returns ``(sign, numerators, det)``: the sign of the determinant
    ``det`` in {-1, 0, +1} and integer Cramer numerators over it, so that
    ``x_i = numerators[i] / det``; both are ``None`` when the system is
    singular, and the numerators alone when the point is outside the
    closed kept simplex: some ``x_i`` is negative (the first such
    numerator ends the expansion), or the implied coordinate ``rho_a *
    rho_b * det - sum w_i n_i`` has the sign opposite to ``det``'s, ``w``
    being the reductions' ``weights``.  The terms are products of the two
    blocks' cached ``minors()``, one factor lifted where a block's
    right-hand side stands, summed by the compiled solve of k.  ``det`` is
    the joined matrix's own, so it and the numerators have the magnitudes
    Bareiss elimination gives.
    """
    _, solve = kernel(len(reduction_a.con_rows))
    a, lifted_a = reduction_a.minors()
    b, lifted_b = reduction_b.minors()
    return solve(a, b, lifted_a, lifted_b, reduction_a.weights,
                 reduction_a.rho, reduction_b.rho)

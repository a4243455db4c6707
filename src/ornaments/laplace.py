"""The joined solve of the pair-reduced triple kernel, by Laplace expansion.

A triple system of either route joins the x-free rows of two pair
reductions, k rows each on 2k kept columns, with their right-hand sides
(see :func:`ornaments.geometry.solve_from_pairs`).  Its determinant and
Cramer numerators are expanded along the first block's rows, the
generalised Laplace expansion: one product of a k x k minor of each block
per term.  A block's minors are expanded once, row by row
(:func:`block_minors`), and kept by its reduction, so a candidate's solve
is 2 (2k + 1) C(2k - 1, k - 1) products of integers already at hand and
no elimination.  Which minors multiply, and with which sign, depends on k
alone: the signed term table of the joined solve is compiled once per k
into one straight-line function (:func:`_joined_solve`), which stops at
the first numerator that gives a negative coordinate.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import add, itemgetter, mul


def _signed_sums(left, right, terms):
    """The sums of products ``left[p] * right[q]`` that a term table
    ``(pick_left, pick_right, width)`` of :func:`_signed_terms` lists
    term-major: the pickers gather the factors of every term, and product
    ``t * width + j`` is term ``t`` of sum ``j``."""
    pick_left, pick_right, width = terms
    products = list(map(mul, pick_left(left), pick_right(right)))
    sums = products[:width]
    for start in range(width, len(products), width):
        sums = list(map(add, sums, products[start:start + width]))
    return sums


def _picks(terms):
    """The table :func:`_signed_sums` reads for ``terms[t][j] = (p, q)``,
    term ``t`` of sum ``j``; every sum has the same number of terms."""
    flat = [term for row in terms for term in row]
    return (itemgetter(*[p for p, _ in flat]),
            itemgetter(*[q for _, q in flat]), len(terms[0]))


def _signed_terms(k):
    """``(expansion, joined)``: the term tables of :func:`block_minors` and
    of the joined solve for blocks of k rows, whose columns are 2k kept
    ones and the right-hand side, column 2k.  Minors are listed by column
    set in ``combinations`` order.

    ``expansion[r - 2]``, r >= 2, expands the minors of a block's first r
    rows along row r: the entry in the set's column t (from 0) has the
    sign (-1)^(r + t + 1) and the minor of the rows above on the rest.  Its
    left factors are the row followed by its negatives, so that a term's
    sign is an index into the negated half.

    ``joined`` is ``(det, numerators)`` in terms ``(sign, p, q)``, each
    standing for sign * minor_a[p] * minor_b[q].  ``det`` sums over the
    k-sets S of kept columns (-1)^(k (k + 3) / 2 + sum S) minor_a(S)
    minor_b(complement).  For numerator i the right-hand side stands in
    column i, so the block whose set holds i takes its minor with i swapped
    for column 2k, signed by the set's columns past i; ``numerators[i]``
    is the pair of sums of its terms with a's right-hand side and with
    b's, which are lifted apart.
    """
    n = 2 * k
    sets = [list(combinations(range(n + 1), r)) for r in range(k + 1)]
    where = [{s: i for i, s in enumerate(level)} for level in sets]
    expansion = [
        _picks([[(s[t] + (n + 1) * ((r + t + 1) % 2),
                  where[r - 1][s[:t] + s[t + 1:]]) for s in sets[r]]
                for t in range(r)])
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
    return expansion, (det, numerators)


def _joined_solve(k, joined):
    """The joined solve for blocks of k rows, compiled from the term table
    ``joined`` of :func:`_signed_terms` into one straight-line function
    ``solve(a, b, lift_a, lift_b)`` of the two blocks' minors, which
    returns what :func:`solve_integer` does.  It writes out every sum term
    by term with its sign, ``det`` first and then, in a branch per sign of
    ``det``, each numerator followed by a test of its sign against
    ``det``'s.  The source is formatted from the table's integer indices
    alone (``%d``), never from the data it solves."""
    det, numerators = joined

    def total(terms):
        return " ".join("%s a%d * b%d" % ("-" if sign < 0 else "+", p, q)
                        for sign, p, q in terms).removeprefix("+ ")

    def screened(sign, opposite):
        lines = []
        for i, (on_a, on_b) in enumerate(numerators):
            lines += [
                "        n%d = lift_a * (%s) + lift_b * (%s)"
                % (i, total(on_a), total(on_b)),
                "        if n%d %s 0:" % (i, opposite),
                "            return %d, None, det" % sign,
            ]
        names = ", ".join("n%d" % i for i in range(len(numerators)))
        return lines + ["        return %d, [%s], det" % (sign, names)]

    size = comb(2 * k + 1, k)
    source = "\n".join([
        "def solve(a, b, lift_a, lift_b):",
        "    %s, = a" % ", ".join("a%d" % p for p in range(size)),
        "    %s, = b" % ", ".join("b%d" % q for q in range(size)),
        "    det = %s" % total(det),
        "    if det > 0:",
        *screened(1, "<"),
        "    if det < 0:",
        *screened(-1, ">"),
        "    return 0, None, None",
    ])
    namespace = {}
    exec(compile(source, "<joined solve, k=%d>" % k, "exec"), namespace)
    return namespace["solve"]


_KERNELS = {}  # k -> _kernel(k)


def _kernel(k):
    """``(expansion, solve)`` for blocks of k rows: the row expansion table
    of :func:`block_minors` and the compiled :func:`_joined_solve`, built
    once per k."""
    kernel = _KERNELS.get(k)
    if kernel is None:
        expansion, joined = _signed_terms(k)
        kernel = _KERNELS[k] = expansion, _joined_solve(k, joined)
    return kernel


def block_minors(rows, rhs):
    """Every k x k minor of the k integer ``rows`` (2k entries each) with
    the right-hand sides ``rhs`` as column 2k, one per column set in
    ``combinations`` order: the first row's entries are the 1 x 1 minors,
    and each further row extends those of the rows above it."""
    expansion, _ = _kernel(len(rows))
    level = rows[0] + [rhs[0]]
    for row, r, terms in zip(rows[1:], rhs[1:], expansion):
        signed = row + [r]
        signed += [-c for c in signed]
        level = _signed_sums(signed, level, terms)
    return level


def solve_integer(reduction_a, reduction_b, lift_a, lift_b):
    """Exact solve of the 2k x 2k integer system joined from the x-free
    rows of two pair reductions, block a's on top, with their right-hand
    sides lifted by the positive integers ``lift_a`` and ``lift_b``.

    Returns ``(sign, numerators, det)``: the sign of the determinant
    ``det`` in {-1, 0, +1} and integer Cramer numerators over it, so that
    ``x_i = numerators[i] / det``; both are ``None`` when the system is
    singular, and the numerators alone when some ``x_i`` is negative (the
    first such numerator ends the expansion).  The terms are products of
    the two blocks' cached ``minors()``, summed by the compiled solve of k;
    those in which a block's right-hand side stands are summed apart and
    multiplied by its lift once.  ``det`` is the joined matrix's own, so it
    and the numerators have the magnitudes Bareiss elimination gives.
    """
    _, solve = _kernel(len(reduction_a.con_rows))
    return solve(reduction_a.minors(), reduction_b.minors(), lift_a, lift_b)

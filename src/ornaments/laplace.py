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
alone: the signed term tables are built once per k.
"""

from __future__ import annotations

from itertools import combinations
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
    :func:`solve_integer` for blocks of k rows, whose columns are 2k kept
    ones and the right-hand side, column 2k.  Minors are listed by column
    set in ``combinations`` order.  The left factors, a signed row or
    block a's minors, are followed by their negatives, so that a term's
    sign is an index into the negated half.

    ``expansion[r - 2]``, r >= 2, expands the minors of a block's first r
    rows along row r: the entry in the set's column t (from 0) has the
    sign (-1)^(r + t + 1) and the minor of the rows above on the rest.

    ``joined`` sums over the k-sets S of kept columns (-1)^(k (k + 3) / 2
    + sum S) minor_a(S) minor_b(complement) for the determinant.  For
    numerator i the right-hand side stands in column i, so the block whose
    set holds i takes its minor with i swapped for column 2k, signed by
    the set's columns past i.  Its 2 (2k + 1) sums of C(2k - 1, k - 1)
    terms are the determinant in two halves (column 0 in S or not), then
    per column i the terms with a's right-hand side and those with b's,
    which are lifted apart.
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
    negated = len(sets[k])

    def term(sign, set_a, set_b):
        return where[k][set_a] + (negated if sign < 0 else 0), where[k][set_b]

    halves = ([], [])
    lifted = [([], []) for _ in range(n)]
    for s in combinations(range(n), k):
        c = tuple(j for j in range(n) if j not in s)
        sign = (-1) ** (k * (k + 3) // 2 + sum(s))
        halves[0 if 0 in s else 1].append(term(sign, s, c))
        for i in range(n):
            if i in s:
                past = sum(j > i for j in s)
                swapped = tuple(j for j in s if j != i) + (n,)
                lifted[i][0].append(term(sign * (-1) ** past, swapped, c))
            else:
                past = sum(j > i for j in c)
                swapped = tuple(j for j in c if j != i) + (n,)
                lifted[i][1].append(term(sign * (-1) ** past, s, swapped))
    sums = list(halves) + [side for sides in lifted for side in sides]
    return expansion, _picks(list(zip(*sums)))


_TERM_TABLES = {}  # k -> _signed_terms(k)


def _term_table(k):
    """:func:`_signed_terms` of ``k``, built once per k."""
    table = _TERM_TABLES.get(k)
    if table is None:
        table = _TERM_TABLES[k] = _signed_terms(k)
    return table


def block_minors(rows, rhs):
    """Every k x k minor of the k integer ``rows`` (2k entries each) with
    the right-hand sides ``rhs`` as column 2k, one per column set in
    ``combinations`` order: the first row's entries are the 1 x 1 minors,
    and each further row extends those of the rows above it."""
    expansion, _ = _term_table(len(rows))
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
    singular.  The terms are products of block a's cached
    ``signed_minors()`` and block b's ``minors()``; those in which a
    block's right-hand side stands are summed apart and multiplied by its
    lift once.  ``det`` is the joined matrix's own, so it and the
    numerators have the magnitudes Bareiss elimination gives.
    """
    _, joined = _term_table(len(reduction_a.con_rows))
    sums = _signed_sums(reduction_a.signed_minors(), reduction_b.minors(),
                        joined)
    det = sums[0] + sums[1]
    if not det:
        return 0, None, None
    numerators = list(map(add, map(lift_a.__mul__, sums[2::2]),
                          map(lift_b.__mul__, sums[3::2])))
    return (1 if det > 0 else -1), numerators, det

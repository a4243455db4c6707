"""Pins of the work counters the benchmark reports.

``perfbench/tracing.py`` measures each route by wrapping the modules' own
bindings (``sweep.solve_integer``, ``degree.ray_meets_box``,
``model.feasible_point``, ...).  These tests wrap the same bindings with
``monkeypatch`` and pin the counts on the benchmark's inputs, so a refactor
that drops, adds or moves a counted call site fails here instead of
silently moving a benchmark metric.
"""

import ast
from collections import Counter
from importlib import import_module
from math import gcd
from pathlib import Path
from statistics import median

import pytest

from ornaments import constructions, degree, geometry, laplace, model, sweep

from oracles import joined_system, scaled_ornament

#: The k=2 counts that ``perfbench/run.py`` records as
#: ``K2_REFERENCE_COUNTS`` and checks on every traced k=2 run; the k=2
#: tests below pin them, and a guard keeps the two copies equal.
K2_REFERENCE_COUNTS = {
    "model.lp_calls": 3332,
    "degree.box_tests": 4096,
    "degree.box_pass": 3700,
    "sweep.solves": 50090,
}

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN_SCRIPT = PERFBENCH / "run.py"
TRACE_SCRIPT = PERFBENCH / "tracing.py"


class Tally:
    """Counts the calls through one module binding and sums ``classify``
    over their results (a bool counts the results it accepts)."""

    def __init__(self, monkeypatch, module, name, classify):
        self.calls = 0
        self.hits = 0
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.calls += 1
            self.hits += classify(result)
            return result

        monkeypatch.setattr(module, name, wrapper)


def singular(result):
    return result[0] == 0


def found(result):
    return result is not None


@pytest.fixture(scope="module")
def borromean_k1_r3():
    return constructions.make_borromean(1, r=3)


def collapse_track(ornament):
    """The seed-0 collapse track of ``mu_via_sweep``, keyframed at
    ``sweep._COLLAPSE_CUTS`` alone.  The tests of the sweep's kernel and
    prefilter sweep it unsplit, so their pins do not depend on the
    intervals that ``mu_via_sweep`` splits."""
    targets = sweep.default_trivial_targets(
        ornament, geometry.derive_seed(0, "targets"))
    return sweep._collapse_track(ornament, targets)


def sweep_fixed_cuts(ornament):
    """mu by :func:`collapse_track` swept unsplit, through the module's
    ``detect_triple_points`` binding."""
    points = sweep.detect_triple_points(collapse_track(ornament))
    return sum(p.sign for p in points)


def test_sweep_counters_borromean_k1_r3(borromean_k1_r3, monkeypatch):
    """``mu_via_sweep`` splits the first keyframe interval of its collapse
    track twice, so 203 candidates reach a solve (4,906 on the fixed
    keyframes, as the tests below pin)."""
    solves = Tally(monkeypatch, sweep, "solve_integer", singular)
    points = Tally(monkeypatch, sweep, "detect_triple_points", len)
    assert sweep.mu_via_sweep(borromean_k1_r3, seed=0) == 1
    assert (solves.calls, solves.hits) == (203, 0)
    assert (points.calls, points.hits) == (1, 1)


def test_sweep_frames_borromean_k1_r3(borromean_k1_r3, monkeypatch):
    """The sweep builds the cells of 43 of the track's 576 prisms, and a
    simplex frame only for a cell that then enters a pair reduction, once
    per cell (85 of the track's 1,152 cells).  A frame's edge elimination
    is built at most once, and only for a frame that enters a reduction on
    the eliminated side (62 of the 85 frames, for 923 reductions); the
    work counters do not move."""
    live_frame = sweep.simplex_frame
    live_reduction = sweep.pair_reduction
    live_elimination = geometry.edge_elimination
    framed = []  # (points, frame) per simplex_frame call
    reduced = set()
    eliminated = set()  # the columns of every frame reduced as frame_x
    built = []  # the columns of each edge elimination built

    def frame(points):
        result = live_frame(points)
        framed.append((tuple(points), result))
        return result

    def reduction(frame_x, frame2):
        reduced.update((id(frame_x), id(frame2)))
        eliminated.add(id(frame_x.columns))
        return live_reduction(frame_x, frame2)

    def elimination(columns, width):
        built.append(id(columns))
        return live_elimination(columns, width)

    monkeypatch.setattr(sweep, "simplex_frame", frame)
    monkeypatch.setattr(sweep, "pair_reduction", reduction)
    monkeypatch.setattr(geometry, "edge_elimination", elimination)
    prisms = Tally(monkeypatch, sweep, "staircase_cells", len)
    solves = Tally(monkeypatch, sweep, "solve_integer", singular)
    points = Tally(monkeypatch, sweep, "detect_triple_points", len)
    assert sweep_fixed_cuts(borromean_k1_r3) == 1
    assert (prisms.calls, prisms.hits) == (43, 86)
    assert len(framed) == 85
    assert len({pts for pts, _ in framed}) == len(framed)
    assert all(id(result) in reduced for _, result in framed)
    assert len(built) == len(set(built)) == 62  # framed keeps ids unique
    assert set(built) == eliminated
    assert (solves.calls, solves.hits) == (4906, 0)
    assert (points.calls, points.hits) == (1, 1)


def test_sweep_system_width_borromean_k1_r3(borromean_k1_r3, monkeypatch):
    """The pair reductions leave every x-free row primitive together with
    its right-hand side, and the systems reaching ``sweep.solve_integer``
    are at most 240 bits wide in the median, a system's width being that
    of its widest coefficient (381 bits before the rows were reduced)."""
    live_solve = sweep.solve_integer
    live_reduction = sweep.pair_reduction
    widths = []
    rows_seen = []

    def solve(*args):
        rows, _ = joined_system(*args)
        widths.append(max(abs(c).bit_length() for row in rows for c in row))
        return live_solve(*args)

    def reduction(frame_x, frame2):
        result = live_reduction(frame_x, frame2)
        if result is not None:
            rows_seen.extend(row + [r] for row, r in zip(result.con_rows,
                                                          result.con_rhs))
        return result

    monkeypatch.setattr(sweep, "solve_integer", solve)
    monkeypatch.setattr(sweep, "pair_reduction", reduction)
    assert sweep_fixed_cuts(borromean_k1_r3) == 1
    assert len(widths) == 4906
    assert median(widths) <= 240
    assert rows_seen
    assert all(gcd(*row) == 1 for row in rows_seen)


@pytest.mark.parametrize("fixture, solves, prisms", [
    ("borromean_k1_r3", 4906, 96),
    ("borromean_k2", 50090, 48),
])
def test_sweep_component_level(fixture, solves, prisms, request,
                               monkeypatch):
    """The component level of the sweep's prefilter rules out keyframe
    intervals 1-5 of the six before any prism extent is built, so prism
    extents are built in interval 0 alone, one per facet of each component
    (96 = 3 x 32 at k=1 with r=3, 48 = 3 x 16 at k=2); the solves do not
    move."""
    ornament = request.getfixturevalue(fixture)
    live_candidates = sweep._interval_candidates
    live_hull = sweep.hull
    prism_size = 2 * len(ornament.components[0].domain.facets[0])
    built = Counter()  # interval -> prism extents built
    intervals = []

    def candidates(domains, lanes, keyframes, limit=None):
        intervals.append(len(intervals))
        return live_candidates(domains, lanes, keyframes, limit)

    def hull(parts, lanes):
        if len(parts) == prism_size:
            built[intervals[-1]] += 1
        return live_hull(parts, lanes)

    monkeypatch.setattr(sweep, "_interval_candidates", candidates)
    monkeypatch.setattr(sweep, "hull", hull)
    counted = Tally(monkeypatch, sweep, "solve_integer", singular)
    assert sweep_fixed_cuts(ornament) == 1
    assert intervals == [0, 1, 2, 3, 4, 5]
    assert built == {0: prisms}
    assert (counted.calls, counted.hits) == (solves, 0)


def test_sweep_builds_the_cells_of_every_kept_prism(mixed_setup_track,
                                                   monkeypatch):
    """The sweep builds the staircase cells of each prism that meets the
    other two components' common extents, once, whether or not it meets a
    prism of another component.  On the first set-up track of the
    benchmark's ``mixed-k1`` workload, interval 0 keeps 4, 2 and 4 prisms,
    and one of the 4 of component 1 meets neither of component 2's."""
    live_candidates = sweep._interval_candidates
    kept = []  # (interval, component, facet index) per kept prism
    intervals = []

    def candidates(domains, lanes, keyframes, limit=None):
        j = len(intervals)
        intervals.append(j)
        vertices = [keyframe.vertices for keyframe in keyframes]
        whole = [sweep.hull(lower + upper, lanes)
                 for lower, upper in zip(*vertices)]
        for ci, dom in enumerate(domains):
            a, b = (whole[c] for c in range(3) if c != ci)
            common = geometry.box_intersection(a, b, lanes)
            kept.extend(
                (j, ci, fi) for fi, facet in enumerate(dom.facets)
                if common is not None and geometry.extents_meet(sweep.hull(
                    [vertices[level][ci][v] for level in (0, 1)
                     for v in facet], lanes), lanes.mirror(common), lanes)
            )
        return live_candidates(domains, lanes, keyframes, limit)

    built = []
    live_staircase = sweep.staircase_cells

    def staircase(facet, component, facet_index, interval):
        built.append((intervals[-1], component, facet_index))
        return live_staircase(facet, component, facet_index, interval)

    monkeypatch.setattr(sweep, "_interval_candidates", candidates)
    monkeypatch.setattr(sweep, "staircase_cells", staircase)
    counted = Tally(monkeypatch, sweep, "solve_integer", singular)
    assert sweep.detect_triple_points(mixed_setup_track) == []
    assert Counter(ci for _, ci, _ in kept) == {0: 4, 1: 2, 2: 4}
    assert sorted(built) == sorted(kept)
    assert len(set(built)) == len(built)
    assert (counted.calls, counted.hits) == (8, 0)


@pytest.mark.parametrize("fixture, solves, masks, cells3, cell_pairs", [
    ("borromean_k1_r3", 4906, 58, 28, 782),
    ("borromean_k2", 50090, 128, 64, 2346),
])
def test_sweep_cell_extent_tests(fixture, solves, masks, cells3, cell_pairs,
                                 request, monkeypatch):
    """The pairwise cell-extent tests of the sweep's mask stage: each cell
    of component 1 or 2 in the prisms that the component level keeps is
    tested once against every kept cell of component 3 (58 x 28 = 1,624
    tests at k=1 with r=3, 128 x 64 = 8,192 at k=2), and a cell pair's own
    extents are tested only when their masks share a cell (782 and 2,346
    pairs), each a cell 1 against the mirror of a cell 2; the solves do
    not move."""
    ornament = request.getfixturevalue(fixture)
    live_mask = sweep.meet_mask
    live_meet = sweep.extents_meet
    masked = []  # (extents, number of others) per mask
    ids = set()
    mirrors = set()  # the mirrors of the masked extents
    pairs = []

    def meet_mask(extents, others, lanes):
        masked.append((extents, len(others)))
        ids.add(id(extents))
        mirrors.add(lanes.mirror(extents))
        return live_mask(extents, others, lanes)

    def meet(a, mirrored, lanes):
        if id(a) in ids:
            assert mirrored in mirrors
            pairs.append((a, mirrored))
        return live_meet(a, mirrored, lanes)

    monkeypatch.setattr(sweep, "meet_mask", meet_mask)
    monkeypatch.setattr(sweep, "extents_meet", meet)
    counted = Tally(monkeypatch, sweep, "solve_integer", singular)
    assert sweep_fixed_cuts(ornament) == 1
    assert len(masked) == len(ids) == masks
    assert {size for _, size in masked} == {cells3}
    assert len(pairs) == cell_pairs
    assert (counted.calls, counted.hits) == (solves, 0)


def test_degree_counters_borromean_k1_r3(borromean_k1_r3, monkeypatch):
    boxes = Tally(monkeypatch, degree, "ray_meets_box", lambda passed: passed)
    solves = Tally(monkeypatch, degree, "solve_integer", singular)
    value, _ = degree.mu_via_degree_auto(borromean_k1_r3, seed=0)
    assert value == 1
    assert (boxes.calls, boxes.hits) == (32768, 7)
    assert solves.calls == 7


def test_sweep_triangular_rows_borromean_k1_r3(borromean_k1_r3, monkeypatch):
    """Of the sweep's 923 pair reductions, only the 66 whose eliminated
    block is back-substituted form their triangular rows, once each; the
    work counters do not move."""
    live_reduction = sweep.pair_reduction
    live_triangular = geometry.PairReduction.triangular
    reductions = []
    built = {}  # id of a reduction -> ids of the rows each request returned

    def reduction(frame_x, frame2):
        result = live_reduction(frame_x, frame2)
        reductions.append(result)
        return result

    def triangular(self):
        rows = live_triangular(self)
        built.setdefault(id(self), set()).add(id(rows))
        return rows

    monkeypatch.setattr(sweep, "pair_reduction", reduction)
    monkeypatch.setattr(geometry.PairReduction, "triangular", triangular)
    solves = Tally(monkeypatch, sweep, "solve_integer", singular)
    assert sweep_fixed_cuts(borromean_k1_r3) == 1
    assert len(reductions) == 923 and None not in reductions
    assert len(built) == 66
    assert all(len(rows) == 1 for rows in built.values())
    assert (solves.calls, solves.hits) == (4906, 0)


def test_sweep_minors_borromean_k1_r3(borromean_k1_r3, monkeypatch):
    """Each of the sweep's 923 pair reductions expands its minors once,
    however many of the 4,906 joined solves read them, and the kernel of
    k=1, its term tables and the two functions compiled from them, is
    built once, from an empty cache.  The work counters do not move."""
    live_reduction = sweep.pair_reduction
    live_minors = geometry.PairReduction.minors
    reductions = []
    returned = {}  # id -> minors lists returned

    def reduction(frame_x, frame2):
        result = live_reduction(frame_x, frame2)
        reductions.append(result)
        return result

    def minors(self):
        values = live_minors(self)
        returned.setdefault(id(self), []).append(values)
        return values

    monkeypatch.setattr(sweep, "pair_reduction", reduction)
    monkeypatch.setattr(geometry.PairReduction, "minors", minors)
    laplace.kernel.cache_clear()
    solves = Tally(monkeypatch, sweep, "solve_integer", singular)
    assert sweep_fixed_cuts(borromean_k1_r3) == 1
    assert len(reductions) == 923 and None not in reductions
    assert len(returned) == 923
    assert all(values is seen[0] for seen in returned.values()
               for values in seen)
    cache = laplace.kernel.cache_info()
    assert (cache.misses, cache.currsize) == (1, 1)
    assert (solves.calls, solves.hits) == (4906, 0)


def normalised_shares(ornament, monkeypatch):
    """Runs the degree route on ``ornament`` with ``degree.normalise_by_ray``
    wrapped: the number of calls per direction, and the bit length of the
    widest normalised end."""
    live = degree.normalise_by_ray
    calls = Counter()
    widths = []

    def normalise(direction, box):
        result = live(direction, box)
        calls[tuple(direction)] += 1
        widths.append(max(abs(c).bit_length() for side in result
                          for c in side))
        return result

    monkeypatch.setattr(degree, "normalise_by_ray", normalise)
    value, _ = degree.mu_via_degree_auto(ornament, seed=0)
    assert value == 1
    return calls, max(widths)


@pytest.mark.parametrize("fixture, facets", [
    ("borromean_k1_r3", 96),
    ("borromean_k2", 48),
])
def test_degree_normalises_each_share_once(fixture, facets, request,
                                           monkeypatch):
    """The degree route normalises each facet's hull share once per ray
    direction, not once per triple (32,768 and 4,096 of those), and every
    normalised end is at most 61 + 17 (2m - 1) bits wide: a grid share of
    at most 61 bits times the other 2m - 1 entries of a 17-bit ray."""
    ornament = request.getfixturevalue(fixture)
    calls, widest = normalised_shares(ornament, monkeypatch)
    assert set(calls.values()) == {facets}
    assert widest <= 61 + 17 * (2 * ornament.m - 1)


def test_sweep_solves_borromean_k2(borromean_k2, monkeypatch):
    """The k=2 count ``perfbench/run.py`` pins as ``sweep.solves``."""
    solves = Tally(monkeypatch, sweep, "solve_integer", singular)
    assert sweep.mu_via_sweep(borromean_k2, seed=0) == 1
    assert (solves.calls, solves.hits) == (
        K2_REFERENCE_COUNTS["sweep.solves"], 0)


def test_degree_counters_borromean_k2(borromean_k2, monkeypatch):
    """The k=2 counts ``perfbench/run.py`` pins as ``degree.box_tests`` and
    ``degree.box_pass``, with the solves behind them."""
    boxes = Tally(monkeypatch, degree, "ray_meets_box", lambda passed: passed)
    solves = Tally(monkeypatch, degree, "solve_integer", singular)
    lps = Tally(monkeypatch, degree, "feasible_point", found)
    value, _ = degree.mu_via_degree_auto(borromean_k2, seed=0)
    assert value == 1
    assert (boxes.calls, boxes.hits) == (
        K2_REFERENCE_COUNTS["degree.box_tests"],
        K2_REFERENCE_COUNTS["degree.box_pass"])
    assert (solves.calls, solves.hits) == (3700, 0)
    assert lps.calls == 0


def test_degree_system_size_borromean_k2(borromean_k2, monkeypatch):
    """Each of the 3,700 systems reaching ``degree.solve_integer`` at k=2 is
    the 2k x 2k system joined from two facet-pair reductions, 4 x 4, not
    the whole 2m x 2m triple system (10 x 10), and none is singular."""
    live_solve = degree.solve_integer
    shapes = []

    def solve(*args):
        result = live_solve(*args)
        rows, rhs = joined_system(*args)
        shapes.append((len(rows), len(rows[0]), len(rhs), result[0] != 0))
        return result

    monkeypatch.setattr(degree, "solve_integer", solve)
    value, _ = degree.mu_via_degree_auto(borromean_k2, seed=0)
    assert value == 1
    assert len(shapes) == 3700
    assert set(shapes) == {(4, 4, 4, True)}


def test_validate_counters_borromean_k1_r3(borromean_k1_r3, monkeypatch):
    lps = Tally(monkeypatch, model, "feasible_point", found)
    boxes = Tally(monkeypatch, model, "box_intersection", found)
    assert model.validate_ornament(borromean_k1_r3).ok
    assert (lps.calls, lps.hits) == (0, 0)
    assert (boxes.calls, boxes.hits) == (1280, 8)


def test_validate_counters_borromean_k2(borromean_k2, monkeypatch):
    """The k=2 count ``perfbench/run.py`` pins as ``model.lp_calls``."""
    lps = Tally(monkeypatch, model, "feasible_point", found)
    boxes = Tally(monkeypatch, model, "box_intersection", found)
    assert model.validate_ornament(borromean_k2).ok
    assert (lps.calls, lps.hits) == (K2_REFERENCE_COUNTS["model.lp_calls"], 0)
    assert (boxes.calls, boxes.hits) == (4064, 3570)


def test_validate_and_degree_counters_do_not_depend_on_the_scale(
        borromean_k1_r3, monkeypatch):
    """Scaled by 2 ** -80, ``make_borromean(1, r=3)`` keeps validation's
    and the degree route's counters: 0 LPs, 1,280 box tests with 8 passing,
    32,768 ray tests with 7 passing.  The grid's shift follows the largest
    magnitude down, 80 places further, so the grid points are those at
    scale 1; a shift taken from the integer part alone stops at 60 and
    rounds every coordinate onto a few grid steps, where every box meets
    and every triple reaches an LP or a ray solve."""
    counts = []
    for factor in (geometry.Rat(1), geometry.Rat(1, 2 ** 80)):
        ornament = scaled_ornament(borromean_k1_r3, factor)
        with monkeypatch.context() as patch:
            lps = Tally(patch, model, "feasible_point", found)
            boxes = Tally(patch, model, "box_intersection", found)
            rays = Tally(patch, degree, "ray_meets_box", lambda hit: hit)
            assert model.validate_ornament(ornament).ok
            value, _ = degree.mu_via_degree_auto(ornament, seed=0)
            assert value == 1
        counts.append((lps.calls, boxes.calls, boxes.hits, rays.calls,
                       rays.hits))
    assert counts == [(0, 1280, 8, 32768, 7)] * 2


def assigned(script, name):
    """The values of the top-level assignments to ``name`` in ``script``,
    parsed without running or importing it."""
    tree = ast.parse(script.read_text(), filename=str(script))
    return [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == name
                for target in node.targets)
    ]


def test_benchmark_pins_the_tested_k2_counts():
    """``perfbench/run.py`` checks each traced k=2 run against its own
    ``K2_REFERENCE_COUNTS``; read without running or importing the script,
    they are the counts the k=2 tests here pin."""
    recorded = [ast.literal_eval(value)
                for value in assigned(RUN_SCRIPT, "K2_REFERENCE_COUNTS")]
    assert recorded == [K2_REFERENCE_COUNTS]


def test_every_traced_hook_names_a_callable():
    """Every ``(module, attribute)`` that ``perfbench/tracing.py`` hooks,
    read without importing the script, names a callable of
    ``ornaments.<module>``: a refactor that drops a traced binding, such as
    ``sweep.solve_integer``, fails here instead of leaving its metric
    absent from traced runs."""
    (hooks,) = assigned(TRACE_SCRIPT, "HOOKS")
    named = [tuple(map(ast.literal_eval, entry.elts[:2]))
             for entry in hooks.elts]
    assert {("sweep", "solve_integer"), ("degree", "solve_integer")} <= set(
        named)
    absent = [f"{module}.{attr}" for module, attr in named
              if not callable(getattr(import_module(f"ornaments.{module}"),
                                      attr, None))]
    assert absent == []

"""Acceptance suite.

One test per release criterion, each enforced at its exact tolerance
(integer equality / exact rational identity) and reporting one verdict
line; run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import json

import pytest

from ornaments import cli, formats
from ornaments.constructions import make_random_ornament
from ornaments.degree import (
    NonGenericDirection,
    mu_via_degree,
    mu_via_degree_auto,
    ray_direction,
)
from ornaments.geometry import Rat, derive_seed
from ornaments.model import perturb_ornament, validate_ornament
from ornaments.sweep import (
    default_trivial_targets,
    detect_triple_points,
    linear_track,
    mu_via_sweep,
    pair_opposite_signs,
    sweep_with_retries,
    trivial_ornament,
)

from oracles import (
    cell_points,
    point_at,
    reverse_component_orientation,
    straight_line_homotopy_to_trivial,
    unnormalized_sphere_map,
)


def verdict(number, description, ok):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def mu_cli(tmp_path, capsys, ornament, tag):
    path = tmp_path / f"{tag}.json"
    path.write_text(formats.dumps_doc(formats.ornament_to_doc(ornament)))
    code = cli.main(["mu", str(path), "--method", "both"])
    report = json.loads(capsys.readouterr().out)
    return code, report


@pytest.fixture(scope="module")
def random_corpus():
    return [make_random_ornament(1, seed=s, spread=Rat(8)) for s in range(6)]


def test_criterion_1_borromean_k1(tmp_path, capsys, borromean_k1):
    code, report = mu_cli(tmp_path, capsys, borromean_k1, "b1")
    ok = (code == 0 and report["mu"]["degree"] == 1
          and report["mu"]["sweep"] == 1 and report["agreement"] is True)
    verdict(1, "Borromean k=1 has invariant exactly 1 by both algorithms", ok)


def test_criterion_2_borromean_k2(tmp_path, capsys, borromean_k2):
    code, report = mu_cli(tmp_path, capsys, borromean_k2, "b2")
    ok = (code == 0 and report["mu"]["degree"] == 1
          and report["mu"]["sweep"] == 1 and report["agreement"] is True)
    verdict(2, "Borromean k=2 has invariant exactly 1 by both algorithms "
               "over the 16^3 facet-triple search", ok)


def test_criterion_3_trivial(trivial_k1, trivial_k2):
    ok = True
    for o in (trivial_k1, trivial_k2):
        ok = ok and mu_via_degree_auto(o, seed=0)[0] == 0
        ok = ok and mu_via_sweep(o, seed=0) == 0
    verdict(3, "trivial ornaments have invariant exactly 0 by both "
               "algorithms, k=1 and k=2", ok)


def test_criterion_4_cross_algorithm_oracle(borromean_k1):
    ok = True
    for seed in range(100):
        o = make_random_ornament(1, seed=seed,
                                 spread=Rat(8) if seed % 2 else Rat(4))
        if mu_via_degree_auto(o, seed=seed)[0] != mu_via_sweep(o, seed=seed):
            ok = False
            break
    if ok:
        for seed in range(100):
            p = perturb_ornament(borromean_k1, Rat(1, 8), seed=seed)
            a = mu_via_degree_auto(p, seed=seed)[0]
            b = mu_via_sweep(p, seed=seed)
            if not (a == b == 1):
                ok = False
                break
    verdict(4, "degree and sweep agree exactly on 100 random ornaments "
               "and 100 Borromean perturbations", ok)


def generic_degree_values(o, count, seed_base):
    values = []
    attempts = 0
    while len(values) < count and attempts < 20 * count:
        attempts += 1
        v = ray_direction(o.m, derive_seed(seed_base, attempts))
        try:
            mu, _ = mu_via_degree(o, v)
        except NonGenericDirection:
            continue
        values.append(mu)
    return values


def test_criterion_5_regular_value_independence(borromean_k1, trivial_k1,
                                                random_corpus):
    instances = [borromean_k1, trivial_k1,
                 reverse_component_orientation(borromean_k1, 1),
                 perturb_ornament(borromean_k1, Rat(1, 16), seed=1)]
    instances += random_corpus
    ok = len(instances) == 10
    for i, o in enumerate(instances):
        values = generic_degree_values(o, 10, seed_base=i)
        ok = ok and len(values) == 10 and len(set(values)) == 1
    verdict(5, "invariant via degree is constant over 10 seeded generic "
               "directions for each of 10 instances", ok)


def test_criterion_6_orientation_antisymmetry(borromean_k1, borromean_k2,
                                              trivial_k1, trivial_k2,
                                              random_corpus):
    corpus = [borromean_k1, borromean_k2, trivial_k1, trivial_k2]
    corpus += random_corpus[:4]
    ok = True
    for o in corpus:
        base = mu_via_degree_auto(o, seed=0)[0]
        for which in (1, 2, 3):
            rev = reverse_component_orientation(o, which)
            if mu_via_degree_auto(rev, seed=0)[0] != -base:
                ok = False
        if o.m == 2:  # cross-check the independent algorithm at k=1
            if mu_via_sweep(reverse_component_orientation(o, 1), seed=0) != -base:
                ok = False
    verdict(6, "reversing any single component orientation negates the "
               "invariant on every corpus instance", ok)


def test_criterion_7_homotopy_invariance(borromean_k1, random_corpus):
    bases = [borromean_k1] + random_corpus
    ok = True
    checked = 0
    for seed in range(25):
        base = bases[seed % len(bases)]
        moved = perturb_ornament(base, Rat(1, 16), seed=seed)
        track = linear_track(base, moved)
        if detect_triple_points(track) != []:
            ok = False
            break
        if (mu_via_degree_auto(base, seed=seed)[0]
                != mu_via_degree_auto(moved, seed=seed)[0]):
            ok = False
            break
        checked += 1
    ok = ok and checked == 25
    verdict(7, "25 certified triple-point-free homotopies preserve the "
               "invariant exactly", ok)


def test_criterion_8_relative_sweep_identity(borromean_k1):
    ok = True
    checked = 0
    for seed in range(25):
        if seed == 0:
            start = borromean_k1
            targets = default_trivial_targets(borromean_k1, 99)
            domains = tuple(f.domain for f in borromean_k1.components)
            end = trivial_ornament(domains, borromean_k1.m, targets)
        elif seed == 1:
            start = borromean_k1
            end = perturb_ornament(borromean_k1, Rat(1, 32), seed=7)
        else:
            start = make_random_ornament(1, seed=seed, spread=Rat(8))
            end = make_random_ornament(1, seed=seed + 500, spread=Rat(8))
        if not (validate_ornament(start).ok and validate_ornament(end).ok):
            ok = False
            break
        track = linear_track(start, end)
        points, _ = sweep_with_retries(track, seed=seed)
        total = sum(p.sign for p in points)
        expected = (mu_via_degree_auto(start, seed=seed)[0]
                    - mu_via_degree_auto(end, seed=seed)[0])
        pairs, rest = pair_opposite_signs(points)
        if total != expected or len(rest) != abs(total):
            ok = False
            break
        if rest and len({p.sign for p in rest}) != 1:
            ok = False
            break
        checked += 1
    ok = ok and checked == 25
    verdict(8, "relative sweep equals the endpoint invariant difference and "
               "pairing leaves exactly |sign sum| points, 25 tracks", ok)


def audit_degree(o, seed_base):
    """All reported preimages substitute back to s*v with zero residual."""
    seed = 0
    while True:
        v = ray_direction(o.m, derive_seed(seed_base, seed))
        try:
            _, solutions = mu_via_degree(o, v)
            break
        except NonGenericDirection:
            seed += 1
    for sol in solutions:
        pts = [
            point_at(f, i, bary)
            for f, i, bary in zip(o.components, sol.facets, sol.barycentric)
        ]
        if unnormalized_sphere_map(*pts) != tuple(sol.s * c for c in v):
            return False
        if not sol.s > 0:
            return False
    return True


def audit_sweep(o, seed):
    """All reported triple points are exact common image points."""
    targets = default_trivial_targets(o, seed)
    track = straight_line_homotopy_to_trivial(o, targets, seed=seed)
    for point in detect_triple_points(track):
        images = []
        for cell, bary in zip(point.cells, point.barycentric):
            pts = cell_points(track, cell)
            acc = [Rat(0)] * len(pts[0])
            for lam, p in zip(bary, pts):
                for c in range(len(p)):
                    acc[c] += lam * p[c]
            images.append(tuple(acc))
        if not (images[0] == images[1] == images[2]):
            return False
        if not 0 < point.t < 1:
            return False
    return True


def test_criterion_9_exactness_audit(borromean_k1, borromean_k2,
                                     random_corpus):
    ok = audit_degree(borromean_k2, seed_base=2)
    corpus_k1 = [borromean_k1,
                 perturb_ornament(borromean_k1, Rat(1, 16), seed=3)]
    corpus_k1 += random_corpus
    for i, o in enumerate(corpus_k1):
        ok = ok and audit_degree(o, seed_base=i)
        ok = ok and audit_sweep(o, seed=i)
    ok = ok and audit_sweep(borromean_k2, seed=0)
    verdict(9, "every reported preimage and triple point substitutes back "
               "to an exact rational identity across the corpus", ok)

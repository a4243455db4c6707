"""Command-line surface.

Machine-readable JSON reports go to standard output, one-line human
summaries to standard error.  Exit status: 0 for a successful run (even
when a validation report says "invalid"), 1 for unusable input (malformed
documents or rationals, dimension mismatches, invalid ornaments where
validity is a precondition), 2 for internal contract violations such as
the two invariant algorithms disagreeing or a route running out of
retries.  A usage error also exits 2, from argparse, with a usage line on
standard error and no JSON: an unknown command or choice, a missing
argument, or an option value that starts with "-", which argparse reads as
an option (write ``--targets=-1,0;1,1;2,2`` or ``--eps=-1/2``, not
``--targets -1,0;1,1;2,2``).  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import constructions, degree, formats, sweep
from .geometry import parse_rational
from .model import validate_manifold, validate_ornament


def _emit(doc):
    sys.stdout.write(formats.dumps_doc(doc))


def _note(message):
    print(message, file=sys.stderr)


def _fail(message, status=1):
    _emit({"error": message})
    _note(f"error: {message}")
    return status


def _load_doc(path):
    try:
        with open(path, "r", encoding="utf8") as handle:
            text = handle.read()
    except OSError as exc:
        raise formats.FormatError(str(exc))
    return formats.loads_doc(text)


def _parse_targets(text):
    """Three points "p/q,...;...;..."; their dimension is checked by
    :func:`~ornaments.constructions.make_trivial`."""
    targets = [[parse_rational(c.strip()) for c in chunk.split(",")]
               for chunk in text.split(";")]
    if len(targets) != 3:
        raise ValueError("exactly three targets required")
    return targets


def _manifold_error(doc, domains):
    """Message naming the first component whose domain is not a closed
    oriented pseudomanifold, and why; ``None`` when all three are."""
    for i, domain in enumerate(domains):
        report = validate_manifold(domain)
        if not report.ok:
            name = doc["components"][i]["name"]
            return (f"$.components[{i}]: component {name!r} is not a closed "
                    f"oriented pseudomanifold ({report.witness['reason']})")
    return None


def cmd_validate(args):
    doc = _load_doc(args.file)
    ornament = formats.ornament_from_doc(doc)
    component_reports = []
    for i, component in enumerate(ornament.components):
        report = validate_manifold(component.domain)
        component_reports.append({
            "name": doc["components"][i]["name"],
            "status": report.status,
            "witness": report.witness,
        })
    ornament_report = validate_ornament(ornament)
    _emit({
        "command": "validate",
        "components": component_reports,
        "ornament": {
            "status": ornament_report.status,
            "witness": ornament_report.witness,
        },
    })
    _note(f"ornament: {ornament_report.status}")
    return 0


def cmd_mu(args):
    doc = _load_doc(args.file)
    ornament = formats.ornament_from_doc(doc)
    error = _manifold_error(doc, [f.domain for f in ornament.components])
    if error is not None:
        return _fail(error)
    if not validate_ornament(ornament).ok:
        return _fail("input is not a valid ornament")
    degree.component_k(ornament)  # a DimensionMismatch is an input error
    values = {}
    try:
        if args.method in ("degree", "both"):
            values["degree"], solutions = degree.mu_via_degree_auto(
                ornament, seed=args.seed
            )
        if args.method in ("sweep", "both"):
            values["sweep"] = sweep.mu_via_sweep(ornament, seed=args.seed)
    except RuntimeError as exc:  # retries exhausted
        return _fail(str(exc), status=2)
    report = {"command": "mu", "method": args.method, "seed": args.seed}
    if "degree" in values:
        report["solutions"] = [
            {
                "facets": list(sol.facets),
                "barycentric": [[str(c) for c in comp]
                                for comp in sol.barycentric],
                "s": str(sol.s),
                "sign": sol.sign,
            }
            for sol in solutions
        ]
    report["mu"] = values
    if args.method == "both":
        report["agreement"] = values["degree"] == values["sweep"]
    _emit(report)
    _note("mu: " + ", ".join(f"{k}={v}" for k, v in values.items()))
    if args.method == "both" and not report["agreement"]:
        _note("error: the two algorithms disagree")
        return 2
    return 0


def cmd_gen(args):
    try:
        if args.kind == "borromean":
            ornament = constructions.make_borromean(args.k, args.r, args.seed)
        elif args.kind == "trivial":
            targets = None
            if args.targets:
                targets = _parse_targets(args.targets)
            ornament = constructions.make_trivial(args.k, targets, args.r)
        else:
            ornament = constructions.make_random_ornament(
                args.k, args.r, args.seed, parse_rational(args.spread)
            )
        if args.eps is not None:
            from .model import perturb_ornament

            ornament = perturb_ornament(
                ornament, parse_rational(args.eps), seed=args.seed
            )
    except RuntimeError as exc:  # retries exhausted
        return _fail(str(exc), status=2)
    text = formats.dumps_doc(formats.ornament_to_doc(ornament))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf8") as handle:
                handle.write(text)
        except OSError as exc:
            return _fail(str(exc))
        _emit({"command": "gen", "kind": args.kind, "out": args.out,
               "status": "written"})
        _note(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_sweep(args):
    doc = _load_doc(args.file)
    track = formats.track_from_doc(doc)
    error = _manifold_error(doc, track.domains)
    if error is not None:
        return _fail(error)
    start = track.endpoint(0)
    end = track.endpoint(1)
    if not validate_ornament(start).ok or not validate_ornament(end).ok:
        return _fail("track endpoints must be valid ornaments")
    degree.component_k(start)  # a DimensionMismatch is an input error
    try:
        points, _ = sweep.sweep_with_retries(track, seed=args.seed)
        mu_start, _ = degree.mu_via_degree_auto(start, seed=args.seed)
        mu_end, _ = degree.mu_via_degree_auto(end, seed=args.seed)
    except RuntimeError as exc:  # retries exhausted
        return _fail(str(exc), status=2)
    sign_sum = sum(p.sign for p in points)
    pairs, remainder = sweep.pair_opposite_signs(points)
    indexed = {id(p): i for i, p in enumerate(points)}
    report = {
        "command": "sweep",
        "triple_points": [
            {
                "cells": [
                    {
                        "component": c.component,
                        "facet": c.facet,
                        "interval": c.interval,
                        "vertices": [list(v) for v in c.vertices],
                    }
                    for c in p.cells
                ],
                "barycentric": [[str(x) for x in comp]
                                for comp in p.barycentric],
                "t": str(p.t),
                "sign": p.sign,
            }
            for p in points
        ],
        "sign_sum": sign_sum,
        "mu_start": mu_start,
        "mu_end": mu_end,
        "identity_check": sign_sum == mu_start - mu_end,
        "pairs": [[indexed[id(a)], indexed[id(b)]] for a, b in pairs],
        "unpaired": [indexed[id(p)] for p in remainder],
    }
    _emit(report)
    _note(f"sign sum {sign_sum}, mu(start) - mu(end) = {mu_start - mu_end}")
    if not report["identity_check"]:
        _note("error: sweep count does not match endpoint invariants")
        return 2
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ornaments",
        description="Exact ornaments of three manifolds and their "
                    "triple-point invariant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an ornament document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("mu", help="compute the invariant of an ornament")
    p.add_argument("file")
    p.add_argument("--method", choices=("degree", "sweep", "both"),
                   default="both")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("gen", help="generate an ornament document")
    p.add_argument("kind", choices=("borromean", "trivial", "random"))
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spread", default="3",
                   help="half-width of the random vertex box (rational)")
    p.add_argument("--eps",
                   help="perturb the generated ornament by this rational "
                        "amount (certified homotopic result)")
    p.add_argument("--targets",
                   help='trivial-ornament targets as "p/q,...;...;..."')
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="sweep a homotopy document for "
                                     "signed triple points")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser():
    """The :func:`build_parser` parser, built once per process: parsing
    reads it and changes nothing in it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:  # the one boundary for input errors: exit status 1
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())

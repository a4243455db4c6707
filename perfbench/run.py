#!/usr/bin/env python3
"""Benchmark of the ornaments command line, driven in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload borromean-k1-r3 --seed 0 --seconds 55 --trace 0

One client calls ``ornaments.cli.main`` in a closed loop: the next job
starts when the previous one has returned.  Every job's output is checked.
Inputs are generated from ``--seed``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it state every metric by name with its unit.

``--trace 0`` measures the end-to-end metrics with no hooks installed.
``--trace 1`` repeats one fixed pass of jobs, alternately untraced and
traced (see ``tracing.py``), and reports the per-layer split of the traced
passes; their counters must agree exactly.  ``--workload all`` runs every
workload listed in BENCHMARK.json in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import REFERENCE_SECONDS, Pace
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Counters of the traced job `mu --method both --seed 0` on make_borromean(2)
# recorded in ROADMAP.md; the borromean-k2 workload checks them at seed 0.
K2_REFERENCE_COUNTS = {
    "model.lp_calls": 3332,
    "degree.box_tests": 4096,
    "degree.box_pass": 3700,
    "sweep.solves": 50090,
}


class SourceMissing(Exception):
    pass


def load_package():
    """Import ornaments from this checkout's src/, never from elsewhere."""
    if not (SRC / "ornaments" / "cli.py").is_file():
        raise SourceMissing(f"no ornaments sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ornaments
    import ornaments.cli

    if Path(ornaments.__file__).resolve().parent != SRC / "ornaments":
        raise SourceMissing(f"imported ornaments from {ornaments.__file__}")


def stamp():
    """What a result depends on besides the code: interpreter, rational
    backend and cores; plus which code it is."""
    from ornaments.geometry import Rat

    digest = hashlib.sha256()
    for path in sorted((SRC / "ornaments").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if shutil.which("git") and (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "rat_backend": f"{Rat.__module__}.{Rat.__qualname__}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


class JobFailed(Exception):
    pass


def run_cli(argv):
    """One CLI job: ``(exit status, stdout, wall seconds)``."""
    from ornaments import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        status = cli.main(argv)
        seconds = time.perf_counter() - start
    return status, out.getvalue(), seconds


def _require(condition, message):
    if not condition:
        raise JobFailed(message)


def check_mu(expected):
    def check(status, stdout, job):
        _require(status == 0, f"exit status {status}")
        report = json.loads(stdout)
        _require(report["agreement"] is True, "degree and sweep disagree")
        if expected is not None:
            _require(report["mu"] == {"degree": expected, "sweep": expected},
                     f"mu {report['mu']} != {expected}")
    return check


def check_sweep(status, stdout, job):
    _require(status == 0, f"exit status {status}")
    report = json.loads(stdout)
    _require(report["identity_check"] is True, "identity check failed")
    _require(len(report["unpaired"]) == abs(report["sign_sum"]),
             "unpaired points do not match the sign sum")


def check_gen(status, stdout, job):
    from ornaments import formats, model

    _require(status == 0, f"exit status {status}")
    _require(json.loads(stdout)["status"] == "written", "gen wrote nothing")
    path = job["out"]
    with open(path, encoding="utf8") as handle:
        text = handle.read()
    ornament = formats.ornament_from_doc(formats.loads_doc(text))
    _require(model.validate_ornament(ornament).ok, "gen output is invalid")
    os.remove(path)


def job_seed(seed, index):
    return seed * 1000 + index


class BorromeanWorkload:
    """``mu --method both`` on one Borromean document; mu must be 1."""

    block_seconds = 0  # a reference slice after every job

    def __init__(self, name, k, r, setups, trace_rounds):
        self.name, self.k, self.r = name, k, r
        self.setups = setups
        self.trace_rounds = trace_rounds

    def setup(self, workdir, seed):
        from ornaments import constructions, formats

        ornament = constructions.make_borromean(self.k, self.r, seed)
        path = workdir / f"{self.name}.json"
        path.write_text(formats.dumps_doc(formats.ornament_to_doc(ornament)),
                        encoding="utf8")
        return path

    def round(self, inputs, seed, index):
        s = job_seed(seed, index)
        return [{"kind": "mu", "check": check_mu(1),
                 "argv": ["mu", str(inputs), "--method", "both", "--seed", str(s)]}]


class MixedWorkload:
    """Small k=1 inputs: gen with a certified perturbation, mu on the
    generated document, and sweep on a precomputed straight-line track."""

    name = "mixed-k1"
    setups = 3
    block_seconds = 5.0
    trace_rounds = 16
    tracks = 128

    def setup(self, workdir, seed):
        from ornaments import constructions, formats, sweep
        from ornaments.geometry import Rat

        paths = []
        for i in range(self.tracks):
            s = job_seed(seed, i)
            start = constructions.make_random_ornament(1, 0, s, Rat(8))
            end = constructions.make_random_ornament(1, 0, s + 500, Rat(8))
            track = sweep.linear_track(start, end)
            path = workdir / f"track-{i}.json"
            path.write_text(formats.dumps_doc(formats.track_to_doc(track)),
                            encoding="utf8")
            paths.append(path)
        return {"dir": workdir, "tracks": paths}

    def round(self, inputs, seed, index):
        s = job_seed(seed, index)
        out = str(inputs["dir"] / f"gen-{index}.json")
        spread = "4" if s % 2 == 0 else "8"
        return [
            {"kind": "gen", "check": check_gen, "out": out,
             "argv": ["gen", "random", "--k", "1", "--seed", str(s),
                      "--spread", spread, "--eps", "1/16", "--out", out]},
            {"kind": "mu", "check": check_mu(None),
             "argv": ["mu", out, "--method", "both", "--seed", str(s)]},
            {"kind": "sweep", "check": check_sweep,
             "argv": ["sweep", str(inputs["tracks"][index % self.tracks]),
                      "--seed", str(s)]},
        ]


WORKLOADS = {
    w.name: w for w in (
        BorromeanWorkload("borromean-k1-r3", 1, 3, setups=5, trace_rounds=1),
        MixedWorkload(),
        # One job takes about 80 s plus 25-30 s of set-up: too long for the
        # timed runs, kept to check the recorded k=2 counters (--trace 1).
        BorromeanWorkload("borromean-k2", 2, 0, setups=1, trace_rounds=1),
    )
}


class Runner:
    """Runs rounds of jobs, checks each one and keeps the samples."""

    def __init__(self, workload, inputs, seed):
        self.workload, self.inputs, self.seed = workload, inputs, seed
        self.samples = []  # (round index, job kind, seconds)
        self.rounds = []  # seconds per round
        self.attempted = 0
        self.failures = []
        self.pending = []  # (job, exit status, stdout) awaiting check

    def run_round(self, index):
        """Run one round of jobs; their checks wait for :meth:`check`."""
        elapsed = 0.0
        for job in self.workload.round(self.inputs, self.seed, index):
            self.attempted += 1
            try:
                status, stdout, seconds = run_cli(job["argv"])
            except Exception as exc:  # a failed job is counted, not fatal
                self.failures.append(f"{' '.join(job['argv'])}: {exc!r}")
                continue
            elapsed += seconds
            self.samples.append((index, job["kind"], seconds))
            self.pending.append((job, status, stdout))
        self.rounds.append(elapsed)
        return elapsed

    def check(self):
        """Check the outputs of the jobs run since the last call.  Kept
        apart from the jobs so that checks are neither timed nor traced."""
        for job, status, stdout in self.pending:
            try:
                job["check"](status, stdout, job)
            except Exception as exc:  # a wrong output is counted, not fatal
                self.failures.append(f"{' '.join(job['argv'])}: {exc!r}")
        self.pending.clear()


def percentiles(values):
    """Median, plus p90 only when at least ten samples lie beyond it."""
    out = {"p50": statistics.median(values)}
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def measure(workload, workdir, seed, seconds):
    """Set up ``workload.setups`` times, then run an untraced closed loop
    with fresh job seeds until ``seconds`` pass.

    A reference slice (see ``reference.py``) runs before the first set-up,
    after each set-up and after every block of at least
    ``workload.block_seconds`` of jobs; every time reported is normalised
    by the slices on either side of its block."""
    pace = Pace()
    pace.take()
    setups = []  # (wall seconds, block)
    for _ in range(workload.setups):
        block = pace.block
        start = time.perf_counter()
        inputs = workload.setup(workdir, seed)
        setups.append((time.perf_counter() - start, block))
        pace.take()
    setup_s = statistics.median(s * pace.factor(b) for s, b in setups)
    runner = Runner(workload, inputs, seed)
    blocks = []  # per round
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        first, elapsed = index, 0.0
        while elapsed <= workload.block_seconds and (
                index == first or time.perf_counter() < deadline):
            elapsed += runner.run_round(index)
            index += 1
        blocks += [pace.block] * (index - first)
        pace.take()
        runner.check()
    factors = [pace.factor(b) for b in blocks]
    kinds = sorted({kind for _, kind, _ in runner.samples})
    raw = {kind: [s for _, k, s in runner.samples if k == kind] for kind in kinds}
    normalised = {kind: [s * factors[i] for i, k, s in runner.samples if k == kind]
                  for kind in kinds}
    rounds = [s * f for s, f in zip(runner.rounds, factors)]
    metrics = {"setup_s": (setup_s, "s")}
    if normalised.get("mu"):
        metrics["mu_job_s.mean"] = (statistics.mean(normalised["mu"]), "s")
    metrics["round_s.mean"] = (statistics.mean(rounds), "s")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (peak, "MB")
    notes = [f"{len(runner.rounds)} rounds; {len(pace.slices)} reference slices, "
             f"median {statistics.median(pace.slices):.4f} s "
             f"(normalised to {REFERENCE_SECONDS} s)"]
    for kind, values in [*normalised.items(), ("round", rounds)]:
        shown = ", ".join(f"{p} {v:.4f} s" for p, v in percentiles(values).items())
        wall = raw.get(kind, runner.rounds)
        notes.append(f"{kind}_{'s' if kind == 'round' else 'job_s'} "
                     f"mean {statistics.mean(values):.4f} s, {shown} (n={len(values)}); "
                     f"wall mean {statistics.mean(wall):.4f} s")
    samples = dict(normalised, round=rounds, reference_slices=pace.slices)
    return runner, metrics, notes, [], samples


def measure_traced(workload, workdir, seed, seconds):
    """Alternate untraced and traced passes over the same fixed jobs,
    swapping which goes first in every other pair.

    The traced passes give the per-layer split and must repeat their
    counters exactly; their time over the untraced passes is the tracing
    overhead."""
    inputs = workload.setup(workdir, seed)
    runner = Runner(workload, inputs, seed)
    tracer = Tracer()
    plain, traced, layers = [], [], []

    def one_pass():
        return sum(runner.run_round(i) for i in range(workload.trace_rounds))

    def traced_pass():
        tracer.install()
        try:
            mark = tracer.mark()
            traced.append(one_pass())
            layers.append(tracer.layer_metrics(mark))
        finally:
            tracer.uninstall()

    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        traced_first = len(plain) % 2 == 1
        if traced_first:
            traced_pass()
            runner.check()
        plain.append(one_pass())
        runner.check()
        if not traced_first:
            traced_pass()
            runner.check()
    problems = []
    counts = [{k: v for k, (v, unit) in pass_.items() if unit == "count"}
              for pass_ in layers]
    if any(c != counts[0] for c in counts):
        problems.append("traced passes gave different counters")
    if workload.name == "borromean-k2" and seed == 0:
        for name, expected in K2_REFERENCE_COUNTS.items():
            if counts[0].get(name) != expected:
                problems.append(f"{name} = {counts[0].get(name)}, recorded {expected}")
    metrics = {
        name: (value if unit == "count" else statistics.median(p[name][0] for p in layers),
               unit)
        for name, (value, unit) in layers[0].items()
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    notes = [f"{len(traced)} traced and {len(plain)} untraced passes of "
             f"{workload.trace_rounds} round(s)"]
    absent = tracer.absent()
    if absent:
        notes.append("hooks absent: " + ", ".join(absent))
    spans_path = HERE / "out" / f"spans-{workload.name}.json"
    spans_path.write_text(json.dumps(tracer.dump_spans()), encoding="utf8")
    notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return runner, metrics, notes, problems, {}


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    (HERE / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / "out"))
    try:
        if trace:
            runner, metrics, notes, problems, samples = measure_traced(
                workload, workdir, seed, seconds)
        else:
            runner, metrics, notes, problems, samples = measure(
                workload, workdir, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.failures)
    notes.append(f"failed_ratio {failed / runner.attempted:.4f} "
                 f"({failed} of {runner.attempted} jobs)")
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "problems": problems + runner.failures[:10],
        "samples": samples,
    }


def report(result):
    print(f"# {result['workload']} seed {result['seed']} trace {result['trace']}")
    for note in result["notes"]:
        print(f"#   {note}")
    for problem in result["problems"]:
        print(f"#   PROBLEM {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every benchmarked one")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, stamped, as JSON")
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        load_package()
    except (SourceMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = stamp()
    print("# " + ", ".join(f"{k} {v}" for k, v in info.items()))
    if args.workload == "all":
        listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
        names = [w["name"] for w in listed["workloads"]]
    else:
        names = [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        result["stamp"] = info
        report(result)
        results.append(result)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf8")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {
            f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

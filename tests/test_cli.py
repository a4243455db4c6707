import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from ornaments import cli, constructions, degree, formats, model, sweep
from ornaments.constructions import make_borromean
from ornaments.geometry import Rat, as_point, derive_seed
from ornaments.model import Ornament, PLMap, TriangulatedManifold
from ornaments.sweep import (
    default_trivial_targets,
    linear_track,
    trivial_ornament,
)

from oracles import concat_tracks, point_at, reverse_track, scaled_ornament


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def assert_input_error(capsys, message, *argv):
    """Running ``argv`` exits with status 1, writes the JSON error
    ``message`` and nothing else to stdout, and its one-line summary to
    stderr."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"error": message}
    assert captured.err == f"error: {message}\n"


def write_ornament(tmp_path, ornament, name="ornament.json"):
    path = tmp_path / name
    path.write_text(formats.dumps_doc(formats.ornament_to_doc(ornament)))
    return str(path)


def _concurrent_segments():
    """Three segments of the plane through the origin: digons that are
    manifolds, in an ornament that is not valid."""
    digon = TriangulatedManifold(1, 2, [(0, 1), (1, 0)])

    def seg(a, b):
        return PLMap(digon, 2, [as_point(a), as_point(b)])

    return Ornament([seg([-1, 0], [1, 0]), seg([0, -1], [0, 1]),
                     seg([-1, -1], [1, 1])])


def test_wide_coordinates_validate_and_agree(tmp_path, capsys):
    """``make_borromean(1, r=3)`` scaled by 2 ** 80 has grid integers about
    97 bits wide (the grid's shift is 0), so the packed extents' lanes are
    sized from the data, past 66 bits: ``validate`` accepts the ornament
    and ``mu --method both`` gives 1 by both routes."""
    ornament = scaled_ornament(make_borromean(1, r=3), Rat(2 ** 80))
    lanes, _ = model.facet_grid_boxes(ornament)
    assert lanes.width > 96
    path = write_ornament(tmp_path, ornament)
    code, report = run(capsys, "validate", path)
    assert code == 0 and report["ornament"]["status"] == "valid"
    code, report = run(capsys, "mu", path, "--method", "both")
    assert code == 0
    assert report["mu"] == {"degree": 1, "sweep": 1}


def test_gen_validate_mu_pipeline(tmp_path, capsys):
    out = tmp_path / "b1.json"
    code, report = run(capsys, "gen", "borromean", "--k", "1", "--out", str(out))
    assert code == 0 and report["status"] == "written"

    code, report = run(capsys, "validate", str(out))
    assert code == 0
    assert report["ornament"]["status"] == "valid"
    assert all(c["status"] == "valid" for c in report["components"])

    code, report = run(capsys, "mu", str(out), "--method", "both")
    assert code == 0
    assert report["mu"] == {"degree": 1, "sweep": 1}
    assert report["agreement"] is True
    assert len(report["solutions"]) >= 1


def test_gen_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["gen", "random", "--k", "1", "--seed", "5",
                     "--out", str(a)]) == 0
    assert cli.main(["gen", "random", "--k", "1", "--seed", "5",
                     "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_gen_output_reemits_byte_identical(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["gen", "random", "--k", "1", "--seed", "3",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    doc = formats.loads_doc(text)
    again = formats.dumps_doc(
        formats.ornament_to_doc(formats.ornament_from_doc(doc))
    )
    assert again == text


@pytest.mark.parametrize("argv", [
    ["borromean", "--k", "1"],
    ["trivial", "--k", "1", "--targets", "0,0;1/2,0;0,3"],
    ["random", "--k", "1", "--seed", "3"],
    ["random", "--k", "1", "--seed", "3", "--eps", "1/16"],
], ids=["borromean", "trivial", "random", "random-eps"])
def test_gen_output_of_every_kind_validates(argv, tmp_path, capsys):
    """``gen`` writes what its construction returns without validating it
    again; every kind's output passes ``validate``."""
    out = tmp_path / "g.json"
    code, _ = run(capsys, "gen", *argv, "--out", str(out))
    assert code == 0
    code, report = run(capsys, "validate", str(out))
    assert code == 0
    assert report["ornament"]["status"] == "valid"


def test_gen_unwritable_out_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code, report = run(capsys, "gen", "borromean", "--k", "1",
                       "--out", str(out))
    assert code == 1
    assert "x.json" in report["error"]
    assert not out.exists()


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    """``main`` builds its parser on the first call only; a usage error in
    between leaves it as it was, and later calls parse as a fresh one."""
    built = []
    live = cli.build_parser

    def counting():
        built.append(None)
        return live()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        out = tmp_path / "b.json"
        code, report = run(capsys, "gen", "borromean", "--out", str(out))
        assert code == 0 and report["status"] == "written"
        with pytest.raises(SystemExit):
            cli.main(["mu", str(out), "--method", "neither"])
        code, report = run(capsys, "gen", "trivial", "--seed", "3",
                           "--out", str(out))
        assert code == 0 and report["kind"] == "trivial"
        assert len(built) == 1
        assert vars(cli._parser().parse_args(["sweep", "x"])) == vars(
            live().parse_args(["sweep", "x"])
        )
    finally:
        cli._parser.cache_clear()


def test_gen_trivial_with_targets_has_mu_zero(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _ = run(capsys, "gen", "trivial", "--k", "1",
                  "--targets", "0,0;1/2,0;0,3", "--out", str(out))
    assert code == 0
    code, report = run(capsys, "mu", str(out), "--method", "both")
    assert code == 0
    assert report["mu"] == {"degree": 0, "sweep": 0}


def test_gen_trivial_k2(tmp_path, capsys):
    out = tmp_path / "t2.json"
    code, _ = run(capsys, "gen", "trivial", "--k", "2", "--out", str(out))
    assert code == 0
    code, report = run(capsys, "mu", str(out), "--method", "both")
    assert code == 0
    assert report["mu"] == {"degree": 0, "sweep": 0}


def test_validate_reports_invalid_with_witness(tmp_path, capsys):
    path = write_ornament(tmp_path, _concurrent_segments())
    code, report = run(capsys, "validate", path)
    assert code == 0
    assert report["ornament"]["status"] == "invalid"
    witness = report["ornament"]["witness"]
    assert sorted(witness) == ["barycentric", "facets"]
    assert len(witness["barycentric"]) == 3


def test_malformed_rational_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = formats.ornament_to_doc(
        Ornament([
            PLMap(TriangulatedManifold(1, 2, [(0, 1), (1, 0)]), 2,
                  [as_point([0, 0]), as_point([1, 0])])
        ] * 3)
    )
    doc["components"][0]["vertices"][0][0] = "3/0"
    path.write_text(formats.dumps_doc(doc))
    assert_input_error(
        capsys, "$.components[0].vertices[0][0]: zero denominator in "
        "rational literal: '3/0'", "validate", str(path))



def test_mu_of_an_invalid_ornament_is_input_error(tmp_path, capsys):
    path = write_ornament(tmp_path, _concurrent_segments())
    assert_input_error(capsys, "input is not a valid ornament", "mu", path)


def test_gen_without_out_writes_the_document_to_stdout(capsys):
    """Without ``--out``, ``gen`` writes the ornament document itself to
    standard output, and nothing to standard error; it reads back as the
    construction and writes back to the same bytes."""
    assert cli.main(["gen", "borromean"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    ornament = formats.ornament_from_doc(formats.loads_doc(captured.out))
    assert ornament == make_borromean(1)
    assert formats.dumps_doc(formats.ornament_to_doc(ornament)) == (
        captured.out)


def _set_times(*times):
    def corrupt(doc):
        for keyframe, t in zip(doc["keyframes"], times):
            keyframe["t"] = t
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_set_times("0", "1/4.0"),
     "$.keyframes[1].t: not a rational literal: '1/4.0'"),
    (_set_times("0", "1/0"),
     "$.keyframes[1].t: zero denominator in rational literal: '1/0'"),
    (_set_times("0", 1),
     "$.keyframes[1].t: not a rational literal: 1"),
    (_set_times("0", "1/2", "1/4"),
     "$.keyframes: keyframe times must strictly increase"),
    (_set_times("0", "1/2", "1/2"),
     "$.keyframes: keyframe times must strictly increase"),
    (_set_times("0", "1/4", "1/2", "3/4"),
     "$.keyframes: keyframe times must run from 0 to 1"),
], ids=["float", "zero-denominator", "number", "decreasing", "repeated",
        "short-of-1"])
def test_a_bad_keyframe_time_is_input_error(corrupt, message, tmp_path,
                                            capsys):
    o = make_borromean(1)
    doc = formats.track_to_doc(
        linear_track(o, o, cuts=(Rat(1, 4), Rat(1, 2))))
    corrupt(doc)
    path = tmp_path / "track.json"
    path.write_text(formats.dumps_doc(doc))
    assert_input_error(capsys, message, "sweep", str(path))


@pytest.mark.parametrize("argv, message", [
    (["trivial", "--targets=0,0;1,1"], "exactly three targets required"),
    (["borromean", "--k", "0"], "k must be at least 1"),
    (["borromean", "--r=-1"], "subdivision level must be nonnegative"),
    (["random", "--k", "0"], "k must be at least 1"),
], ids=["two-targets", "borromean-k0", "borromean-r-1", "random-k0"])
def test_gen_bad_construction_argument_is_input_error(argv, message,
                                                      tmp_path, capsys):
    out = tmp_path / "g.json"
    assert_input_error(capsys, message, "gen", *argv, "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("spread, message", [
    ("1/0", "zero denominator in rational literal: '1/0'"),
    ("1.5", "not a rational literal: '1.5'"),
    (" 2", "not a rational literal: ' 2'"),
], ids=["zero-denominator", "float", "whitespace"])
def test_gen_random_bad_spread_is_input_error(spread, message, tmp_path,
                                              capsys):
    out = tmp_path / "random.json"
    assert_input_error(capsys, message, "gen", "random", "--spread", spread,
                       "--out", str(out))
    assert not out.exists()

def test_missing_file_is_input_error(tmp_path, capsys):
    path = str(tmp_path / "nope.json")
    assert_input_error(capsys,
                       f"[Errno 2] No such file or directory: {path!r}",
                       "mu", path)


@pytest.mark.parametrize("command", ["validate", "mu", "sweep"])
def test_deeply_nested_document_is_input_error(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, report = run(capsys, command, str(path))
    assert code == 1
    assert report == {"error": "document is nested too deeply to parse"}


def test_mu_dimension_mismatch_is_input_error(tmp_path, capsys):
    digon = TriangulatedManifold(1, 2, [(0, 1), (1, 0)])

    def seg(a, b):
        return PLMap(digon, 3, [as_point(a), as_point(b)])

    # valid ornament, but 1-dimensional components in R^3: no invariant
    o = Ornament([
        seg([0, 0, 0], [1, 0, 0]),
        seg([0, 2, 0], [0, 3, 0]),
        seg([0, 0, 5], [0, 0, 6]),
    ])
    path = write_ornament(tmp_path, o)
    assert_input_error(capsys, "component dimension 1 and ambient dimension"
                       " 3 do not satisfy 3d = 2m-1", "mu", path)


def test_mu_disagreement_exits_two(tmp_path, capsys, monkeypatch):
    out = tmp_path / "b1.json"
    assert cli.main(["gen", "borromean", "--k", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli.sweep, "mu_via_sweep", lambda o, seed=0: 17)
    code, report = run(capsys, "mu", str(out), "--method", "both")
    assert code == 2
    assert report["agreement"] is False


def test_sweep_command_and_reversal(tmp_path, capsys, borromean_k1):
    targets = default_trivial_targets(borromean_k1, 0)
    domains = tuple(f.domain for f in borromean_k1.components)
    end = trivial_ornament(domains, borromean_k1.m, targets)
    track = linear_track(borromean_k1, end, cuts=(Rat(1, 4), Rat(1, 2)))

    path = tmp_path / "collapse.json"
    path.write_text(formats.dumps_doc(formats.track_to_doc(track)))
    code, report = run(capsys, "sweep", str(path))
    assert code == 0
    assert report["sign_sum"] == 1
    assert report["mu_start"] == 1 and report["mu_end"] == 0
    assert report["identity_check"] is True
    assert len(report["unpaired"]) == 1

    back = tmp_path / "reversed.json"
    back.write_text(formats.dumps_doc(formats.track_to_doc(reverse_track(track))))
    code, report = run(capsys, "sweep", str(back))
    assert code == 0
    assert report["sign_sum"] == -1
    assert report["identity_check"] is True


def test_sweep_of_ornament_homotopy_lists_nothing(tmp_path, capsys,
                                                  borromean_k1):
    from ornaments.model import perturb_ornament

    moved = perturb_ornament(borromean_k1, Rat(1, 64), seed=2)
    track = linear_track(borromean_k1, moved)
    path = tmp_path / "wiggle.json"
    path.write_text(formats.dumps_doc(formats.track_to_doc(track)))
    code, report = run(capsys, "sweep", str(path))
    assert code == 0
    assert report["triple_points"] == []
    assert report["sign_sum"] == 0
    assert report["identity_check"] is True


def test_sweep_retries_away_a_triple_point_on_a_keyframe(
        tmp_path, capsys, borromean_k1, borromean_k1_triple_time):
    """The seed-0 collapse of ``make_borromean(1)``, keyframed at the time
    of its one triple point, has a boundary solution on that keyframe;
    the retries jiggle the keyframe away, and ``sweep`` counts the point
    with the sign that the endpoint invariants give."""
    domains = tuple(f.domain for f in borromean_k1.components)
    end = trivial_ornament(domains, borromean_k1.m, default_trivial_targets(
        borromean_k1, derive_seed(0, "targets")))
    track = linear_track(borromean_k1, end, cuts=(borromean_k1_triple_time,))
    path = tmp_path / "keyframed.json"
    path.write_text(formats.dumps_doc(formats.track_to_doc(track)))
    code, report = run(capsys, "sweep", str(path))
    assert code == 0
    assert report["sign_sum"] == 1
    assert report["mu_start"] - report["mu_end"] == 1
    assert report["identity_check"] is True


def test_sweep_rejects_invalid_endpoints(tmp_path, capsys):
    concurrent = _concurrent_segments()
    track = linear_track(concurrent, concurrent)
    path = tmp_path / "bad-track.json"
    path.write_text(formats.dumps_doc(formats.track_to_doc(track)))
    code, report = run(capsys, "sweep", str(path))
    assert code == 1


def test_sweep_dimension_mismatch_is_input_error(tmp_path, capsys):
    """A track in R^3 of 1-dimensional components (3d != 2m - 1) is
    rejected before the sweep, with a JSON error and no traceback."""
    o = make_borromean(1)

    def lifted(c):
        return Ornament([
            PLMap(f.domain, 3, [tuple(img) + (c,) for img in f.images])
            for f in o.components
        ])

    path = tmp_path / "lifted.json"
    path.write_text(formats.dumps_doc(
        formats.track_to_doc(linear_track(lifted(0), lifted(1)))
    ))
    assert_input_error(capsys, "component dimension 1 and ambient dimension"
                       " 3 do not satisfy 3d = 2m-1", "sweep", str(path))


def test_gen_with_eps_perturbs_but_keeps_invariant(tmp_path, capsys):
    out = tmp_path / "b1eps.json"
    code, _ = run(capsys, "gen", "borromean", "--k", "1", "--eps", "1/16",
                  "--seed", "4", "--out", str(out))
    assert code == 0
    plain = tmp_path / "b1.json"
    assert cli.main(["gen", "borromean", "--k", "1", "--out", str(plain)]) == 0
    capsys.readouterr()
    assert out.read_bytes() != plain.read_bytes()
    code, report = run(capsys, "mu", str(out), "--method", "both")
    assert code == 0
    assert report["mu"] == {"degree": 1, "sweep": 1}


def test_bad_targets_rejected(tmp_path, capsys):
    code, report = run(capsys, "gen", "trivial", "--k", "1",
                       "--targets", "0,0;0,0;1,1",
                       "--out", str(tmp_path / "x.json"))
    assert code == 1


@pytest.mark.parametrize("k, targets, message", [
    ("0", "0;1;2", "k must be at least 1"),
    ("1", "0;1;2", "targets must live in R^2"),
], ids=["k0", "wrong-dimension"])
def test_gen_trivial_checks_k_then_target_dimension(k, targets, message,
                                                     tmp_path, capsys):
    """k is checked before the targets are measured against R^(3k - 1),
    and either failure is an input error with a JSON report."""
    code = cli.main(["gen", "trivial", "--k", k, "--targets", targets,
                     "--out", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"error": message}
    assert "Traceback" not in captured.err


def _never_generic_direction(*args, **kwargs):
    raise degree.NonGenericDirection("every direction is degenerate")


def _never_generic_track(*args, **kwargs):
    raise sweep.NonGenericTrack("every track is degenerate")


class _NeverValid:
    ok = False


def _never_valid(*args, **kwargs):
    return _NeverValid()


@pytest.mark.parametrize("command, patch", [
    ("mu-degree", (degree, "mu_via_degree", _never_generic_direction)),
    ("mu-sweep", (sweep, "detect_triple_points", _never_generic_track)),
    ("sweep", (sweep, "detect_triple_points", _never_generic_track)),
    ("sweep", (degree, "mu_via_degree", _never_generic_direction)),
    ("gen-eps", (sweep, "detect_triple_points", _never_generic_track)),
    ("gen-random", (constructions, "validate_ornament", _never_valid)),
], ids=["mu-degree", "mu-sweep", "sweep-track", "sweep-endpoints", "gen-eps",
        "gen-random"])
def test_retry_exhaustion_exits_two_with_json_error(
        command, patch, tmp_path, capsys, monkeypatch, borromean_k1):
    if command == "gen-eps":
        argv = ["gen", "random", "--k", "1", "--seed", "3", "--eps", "1/16"]
    elif command == "gen-random":
        argv = ["gen", "random", "--k", "1", "--seed", "3"]
    elif command == "sweep":
        track = linear_track(borromean_k1, borromean_k1)
        path = tmp_path / "still.json"
        path.write_text(formats.dumps_doc(formats.track_to_doc(track)))
        argv = ["sweep", str(path)]
    else:
        path = write_ornament(tmp_path, borromean_k1)
        argv = ["mu", path, "--method", command.split("-")[1]]
    monkeypatch.setattr(*patch)
    code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert isinstance(report["error"], str) and report["error"]


def test_a_split_sub_interval_that_raises_is_retried_on_the_input_track(
        tmp_path, capsys, monkeypatch):
    """``mu --method sweep`` on ``make_borromean(1, r=3)`` splits the first
    keyframe interval of its collapse track.  A ``NonGenericTrack`` raised
    in a split sub-interval of the first attempt goes through
    ``sweep_with_retries`` as any other: the second attempt sweeps, split
    again, the refinement of the input collapse track, not of its split,
    and mu is still 1."""
    path = write_ornament(tmp_path, make_borromean(1, r=3))
    live_detect = sweep.detect_triple_points
    live_points = sweep._interval_points
    attempts = []  # (track, split) per call
    raised = []  # the swept interval numbers that raised

    def detect(track, split=False):
        attempts.append((track, split))
        return live_detect(track, split)

    def interval(j, keyframes, candidates):
        if (len(attempts) == 1 and not raised
                and keyframes[1].time not in attempts[0][0].times):
            raised.append(j)
            raise sweep.NonGenericTrack("a degenerate split sub-interval")
        return live_points(j, keyframes, candidates)

    monkeypatch.setattr(sweep, "detect_triple_points", detect)
    monkeypatch.setattr(sweep, "_interval_points", interval)
    code = cli.main(["mu", path, "--method", "sweep", "--seed", "0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["mu"] == {"sweep": 1}
    assert raised == [0]
    (first, split_first), (second, split_second) = attempts
    assert split_first and split_second
    refined = sweep._refined_track(first, derive_seed(0, "sweep"), 0)
    assert (second.times, second.images) == (refined.times, refined.images)
    assert len(second.times) == 2 * len(first.times) - 1


def test_gen_borromean_invalid_projection_exits_two(capsys, monkeypatch):
    """``make_borromean`` has no fallback center: when its one projection
    is invalid, ``gen borromean`` exits 2 with a JSON error after a single
    validation."""
    calls = []

    def never_valid(ornament):
        calls.append(ornament)
        return _NeverValid()

    monkeypatch.setattr(constructions, "validate_ornament", never_valid)
    code = cli.main(["gen", "borromean", "--k", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {
        "error": "the Borromean projection is not a valid ornament"}
    assert len(calls) == 1


#: sha256 of the stdout of ``ornaments mu <doc> --method both --seed 0`` on
#: make_borromean(1, r=3), recorded while the prefilters still ran on
#: rationals.  A change that moves a witness, a sign or a byte of the JSON
#: report fails here.
PINNED_MU_STDOUT_SHA256 = (
    "df267bafde3db7b22bba17ffb7747d552a4173fb8f50655174796c4b0a97ac43"
)


def test_mu_stdout_is_pinned(tmp_path, capsys):
    path = write_ornament(tmp_path, make_borromean(1, r=3))
    assert cli.main(["mu", path, "--method", "both", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf8")).hexdigest() == (
        PINNED_MU_STDOUT_SHA256
    )


#: sha256 of the stdout of ``ornaments sweep <track> --seed 0`` on the
#: track built by ``_pinned_sweep_track``, recorded before the triple solves
#: were screened on integer signs.  It holds two triple points of opposite
#: sign, paired, so witnesses, times, signs and the pairing are all pinned.
PINNED_SWEEP_STDOUT_SHA256 = (
    "7ab3e4a239734cab06523ed18e204722410080a2c99ed0f015791239691ca639"
)


def _pinned_sweep_track():
    """make_borromean(1) collapsed to three far targets, then spread out
    again onto a small perturbation of itself."""
    from ornaments.model import perturb_ornament

    start = make_borromean(1)
    domains = tuple(f.domain for f in start.components)
    end = trivial_ornament(domains, start.m,
                           default_trivial_targets(start, 0))
    moved = perturb_ornament(start, Rat(1, 64), seed=2)
    return concat_tracks(
        linear_track(start, end, cuts=(Rat(1, 4), Rat(1, 2))),
        linear_track(end, moved, cuts=(Rat(1, 2),)),
    )


def test_sweep_stdout_is_pinned(tmp_path, capsys):
    path = tmp_path / "track.json"
    path.write_text(formats.dumps_doc(formats.track_to_doc(_pinned_sweep_track())))
    assert cli.main(["sweep", str(path), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf8")).hexdigest() == (
        PINNED_SWEEP_STDOUT_SHA256
    )


#: sha256 of the stdout of ``ornaments validate <doc>`` on the ornament
#: built by ``_segment_meeting_ornament``, recorded while the equalities
#: were still reduced by Gauss-Jordan elimination on Fractions.  Its first
#: feasible facet triple meets in a segment, so the witness is not unique:
#: it depends on the order in which the free columns are fixed and on the
#: rule that fixes each (the midpoint of its range, or its least value
#: plus 1 when the range is unbounded).
PINNED_VALIDATE_STDOUT_SHA256 = (
    "25024c6484823b236ce73c1d398192337c7e5849e1df8fd72b23d72003f8cf26"
)


def _segment_meeting_ornament():
    """Three triangles in the plane whose first edges overlap along the
    segment from (1, 0) to (7/3, 0); the vertices have unlike
    denominators."""
    triangle = TriangulatedManifold(1, 3, [(0, 1), (1, 2), (2, 0)])

    def loop(*points):
        return PLMap(triangle, 2, [as_point(p) for p in points])

    return Ornament([
        loop([0, 0], [3, 0], [1, 2]),
        loop([1, 0], [5, 0], [2, -3]),
        loop([Rat(1, 2), 0], [Rat(7, 3), 0], [1, Rat(-5, 2)]),
    ])


def test_validate_stdout_is_pinned(tmp_path, capsys):
    path = write_ornament(tmp_path, _segment_meeting_ornament())
    assert cli.main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["ornament"]["witness"]["facets"] == [0, 0, 0]
    assert hashlib.sha256(out.encode("utf8")).hexdigest() == (
        PINNED_VALIDATE_STDOUT_SHA256
    )


def _flat_k3_ornament(r, seed):
    """Three copies of the k=3 cross-polytope sphere in R^8 whose vertex
    images are 0 past their first ``r`` coordinates and random rationals
    n/d, |n| <= 50, 1 <= d <= 7, in those, drawn component by component,
    then vertex by vertex: an invalid ornament whose facets' edges are
    dependent, so the equalities of its facet triples leave many columns
    free and their sign constraints decide them."""
    sphere = constructions.cross_polytope_sphere(3, 0)
    rng = random.Random(seed)
    components = []
    for _ in range(3):
        images = [tuple(Rat(rng.randint(-50, 50), rng.randint(1, 7))
                        if c < r else Rat(0) for c in range(8))
                  for _ in sphere.positions]
        components.append(PLMap(sphere.manifold, 8, images))
    return Ornament(components)


#: Runs the CLI on its arguments with at most 2 GB of address space and
#: 20 s of CPU time, so the caps act on the child process alone.
_CAPPED_CLI = """
import resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (2 * 1024 ** 3, 2 * 1024 ** 3))
resource.setrlimit(resource.RLIMIT_CPU, (20, 20))
sys.argv[0] = "ornaments"
runpy.run_module("ornaments.cli", run_name="__main__")
"""


@pytest.mark.parametrize("r", [2, 3])
def test_flat_k3_ornament_validates_under_a_cap(r, tmp_path):
    """On a flat k=3 input, whose triples reach the sign constraints,
    ``validate`` ends within the caps with exit 0, one JSON document, no
    traceback and an invalid verdict; its witness is checked here: three
    barycentric tuples, each nonnegative with sum 1, whose points have
    one image."""
    ornament = _flat_k3_ornament(r, seed=0)
    path = write_ornament(tmp_path, ornament)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _CAPPED_CLI, "validate",
                           path], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    assert report["ornament"]["status"] == "invalid"
    witness = report["ornament"]["witness"]
    images = set()
    for f, i, coords in zip(ornament.components, witness["facets"],
                            witness["barycentric"]):
        bary = [Rat(c) for c in coords]
        assert min(bary) >= 0 and sum(bary) == 1
        images.add(point_at(f, i, bary))
    assert len(images) == 1


def _drop_a_facet(component):
    del component["facets"][0]


def _repeat_a_vertex(component):
    facet = component["facets"][0]
    facet[1] = facet[0]


def _borromean_track_doc():
    start = make_borromean(1)
    domains = tuple(f.domain for f in start.components)
    end = trivial_ornament(domains, start.m, default_trivial_targets(start, 0))
    return formats.track_to_doc(linear_track(start, end))


@pytest.mark.parametrize("corrupt, reason", [
    pytest.param(_drop_a_facet, "ridge not shared by exactly two facets",
                 id="open-arc"),
    pytest.param(_repeat_a_vertex, "repeated vertex in facet",
                 id="repeated-vertex"),
])
@pytest.mark.parametrize("command", ["mu", "sweep"])
def test_non_manifold_component_is_input_error(command, corrupt, reason,
                                               tmp_path, capsys):
    if command == "mu":
        doc = formats.ornament_to_doc(make_borromean(1))
    else:
        doc = _borromean_track_doc()
    corrupt(doc["components"][1])
    path = tmp_path / "doc.json"
    path.write_text(formats.dumps_doc(doc))
    code, report = run(capsys, command, str(path))
    assert code == 1
    assert report["error"].startswith("$.components[1]: component 'component2'")
    assert reason in report["error"]

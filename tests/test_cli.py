"""Command-line surface: JSON output, exit codes, determinism, suites."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import affinehecke
from affinehecke import build_preset, datum_to_json
from affinehecke.cli import main
from affinehecke.principal import PrincipalSeries
from affinehecke.rootdata import MAX_ROOTS, PRESET_NAMES
from affinehecke.tracegen import TraceGen

Q4_A1 = '{"s1": 4, "s0": 4}'
Q4_A2 = '{"s1": 4, "s2": 4, "s0": 4}'


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_formal_box(capsys):
    code, out, _ = run(capsys, ["trace", "--datum", "A1-weight", "--box", "4"])
    assert code == 0
    assert out.endswith("\n")
    obj = json.loads(out)
    assert obj["all_equal"] is True
    assert obj["box"] == 4
    assert len(obj["records"]) == 9  # every lattice point of [-4, 4]
    by_x = {tuple(r["x"]): r for r in obj["records"]}
    for x, rec in by_x.items():
        assert rec["equal"] is True
        if not rec["in_negative_cone"]:
            assert rec["direct"]["terms"] == []
    # a known value: the trace at -2 is (q-1)^2/q = v^-2 - 2 + v^2
    rec = by_x[(-2,)]
    assert rec["direct"]["vars"] == ["v1"]
    assert rec["direct"]["terms"] == [
        {"den": 1, "exp": [-2], "num": 1},
        {"den": 1, "exp": [0], "num": -2},
        {"den": 1, "exp": [2], "num": 1},
    ]
    assert json.dumps(obj, sort_keys=True, indent=2) + "\n" == out


def test_trace_output_is_byte_identical_across_runs(capsys):
    argv = ["trace", "--datum", "A2", "--box", "2"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_trace_rank_three_oracle(capsys):
    code, out, _ = run(capsys, ["trace", "--datum", "BnCn(3)", "--box", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["all_equal"] is True
    assert len(obj["records"]) == 27


def test_series_rank_one_closed_form(capsys):
    code, out, _ = run(
        capsys,
        [
            "series",
            "--datum", "A1-weight",
            "--labels", Q4_A1,
            "--mode", "rational",
            "--box", "6",
        ],
    )
    assert code == 0
    obj = json.loads(out)
    got = [(tuple(r["x"]), r["trace"], r["height"]) for r in obj["records"]]
    assert got == [
        ((0,), "1", "0"),
        ((-2,), "9/4", "1"),
        ((-4,), "153/16", "2"),
        ((-6,), "2457/64", "3"),
    ]


def test_series_formal_emits_polynomials(capsys):
    code, out, _ = run(capsys, ["series", "--datum", "A1-weight", "--box", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "formal"
    assert [tuple(r["x"]) for r in obj["records"]] == [(0,), (-2,)]
    assert obj["records"][1]["trace"]["vars"] == ["v1"]


def test_spherical_rational_exact(capsys):
    code, out, _ = run(
        capsys,
        [
            "spherical",
            "--datum", "A2",
            "--labels", Q4_A2,
            "--t", "1/5",
            "--t", "2/7",
            "--box", "2",
        ],
    )
    assert code == 0
    obj = json.loads(out)
    recs = obj["records"]
    assert [tuple(r["x"]) for r in recs] == [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert all(r["skipped"] is False for r in recs)
    assert all(r["diff"] == "0" for r in recs)
    assert [r["macdonald"] for r in recs] == [
        "1",
        "63236/3675",
        "426049/5145",
        "232847/3675",
        "1843339/6125",
    ]
    assert [r["macdonald"] for r in recs] == [r["direct"] for r in recs]


def test_spherical_complex_mode_small_diff(capsys):
    code, out, _ = run(
        capsys,
        [
            "spherical",
            "--datum", "A1-weight",
            "--labels", Q4_A1,
            "--mode", "complex",
            "--t", "0.31,0.1",
            "--box", "2",
        ],
    )
    assert code == 0
    obj = json.loads(out)
    for rec in obj["records"]:
        assert rec["skipped"] is False
        assert rec["diff"] < 1e-8  # absolute gaps are emitted as plain reals
        assert set(rec["macdonald"]) == {"im", "re"}


def test_spherical_rank_three_exact(capsys):
    code, out, err = run(
        capsys,
        ["spherical", "--datum", "BnCn(3)", "--labels", '{"s1":4,"s3":9,"s0":16}',
         "--mode", "rational", "--box", "1"],
    )
    assert code == 0, err
    recs = json.loads(out)["records"]
    assert len(recs) == 4
    assert all(r["skipped"] is False and r["diff"] == "0" for r in recs)


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_spherical_non_finite_coordinate_exit_usage(capsys, value):
    code, out, err = run(
        capsys,
        ["spherical", "--datum", "B2", "--labels", '{"s1":4,"s2":9}', "--mode", "complex",
         "--t", value, "--t", "2", "--box", "1"],
    )
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: bad complex coordinate {value!r}: not finite"


def test_spherical_seeded_point_when_t_missing(capsys):
    argv = [
        "spherical",
        "--datum", "A2",
        "--labels", Q4_A2,
        "--seed", "9",
        "--box", "1",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


# The bench's one spherical workload (B2) has no doubled roots and integral
# labels: these pin the c-function and intertwiner paths of BnCn(2), exact and
# in floating point, and B2 at fractional labels, whose folds run on Fractions.
# A complex report sums floats in the insertion order of the expansion's term
# dicts, so the deeper B2 box-3 pin also guards the fold's order.
@pytest.mark.parametrize(
    "datum,labels,mode,digest,box",
    [
        ("BnCn(2)", '{"s1":4,"s2":9,"s0":16}', "rational",
         "ae894dded1049be0f93c007258e4f93026f9b7c481e50c2875f8f155649baf36", 2),
        ("B2", '{"s1":"9/4","s2":"1/4"}', "rational",
         "45f4b108726bcd39a3955300397b351ed0f026ae31c9339b2354314f6a3686af", 2),
        ("BnCn(2)", '{"s1":2,"s2":3,"s0":5}', "complex",
         "f0197fd821ee70bfe68ba4f0deca3e4025806ff4f6dc28b2f0403b928c531aee", 2),
        ("B2", '{"s1":2,"s2":3}', "complex",
         "f8e6dddc0dc07626ce279a08501b751d296a686c2256c984d9758c82563d0789", 2),
        ("B2", '{"s1":2,"s2":3}', "complex",
         "10ca5eaf1625b1227166ed98b5951610f48d8a9b9909f9cfe98f8c4761d3ced5", 3),
    ],
)
def test_spherical_report_digest(capsys, datum, labels, mode, digest, box):
    code, out, _ = run(
        capsys,
        ["spherical", "--datum", datum, "--labels", labels, "--mode", mode,
         "--box", str(box), "--seed", "0"],
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("mode,code", [("rational", 1), ("complex", 0)])
def test_spherical_exact_gap_exit_failure(capsys, monkeypatch, mode, code):
    # a nonzero exact diff is a failed check; a float diff claims nothing
    formula = PrincipalSeries.macdonald_value
    monkeypatch.setattr(
        PrincipalSeries, "macdonald_value", lambda self, t, x: formula(self, t, x) * 2
    )
    got, out, _ = run(
        capsys,
        ["spherical", "--datum", "A2", "--labels", Q4_A2, "--mode", mode,
         "--box", "1", "--seed", "0"],
    )
    assert got == code
    assert any(r["diff"] not in ("0", 0) for r in json.loads(out)["records"])


def test_trace_rank_three_report_digest(capsys):
    # the first rank-3 report pinned: 125 points through one targeted inverse
    code, out, _ = run(capsys, ["trace", "--datum", "BnCn(3)", "--box", "2"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "fb6392004f3eb215ad3d703bf2923eccb7ead74b423bcf9395faca12a8f7b7c3"
    )


# series reads the partition route; these reports were recorded when it
# read the direct sweep, so the two routes print the same bytes
@pytest.mark.parametrize(
    "labels,digest",
    [
        ([], "fd9fbf0bcc2791119454fbb8e3a515f7d3ecd704083e81295d392fe18f243762"),
        (["--labels", '{"s1":4,"s2":9,"s0":16}', "--mode", "rational"],
         "1c715dd8745af6c2ca038af43a7a3cb868cabcad73bfd430c104a9703a5f0ced"),
    ],
)
def test_series_report_digest(capsys, labels, digest):
    code, out, _ = run(capsys, ["series", "--datum", "BnCn(2)", *labels, "--box", "3"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_negative_seed_exit_usage(capsys):
    argv = ["spherical", "--datum", "A2", "--labels", Q4_A2, "--box", "1", "--seed"]
    code, out, err = run(capsys, argv + ["-1"])
    assert code == 2
    assert out == ""
    assert err.strip() == "error: --seed must be >= 0 (got -1)"
    code, _, _ = run(capsys, argv + ["0"])
    assert code == 0


@pytest.mark.parametrize("command", ["trace", "verify", "series"])
@pytest.mark.parametrize("flag", [["--seed", "1"], ["--t", "1/5"]])
def test_torus_point_flags_are_spherical_only(capsys, command, flag):
    # only spherical evaluates at a torus point; elsewhere the flags are
    # refused instead of accepted and ignored
    with pytest.raises(SystemExit) as exc:
        main([command, "--datum", "A1-weight", "--box", "1", *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


@pytest.mark.parametrize("flag", [["--mode", "rational"], ["--labels", Q4_A1]])
def test_verify_takes_no_mode_or_labels(capsys, flag):
    # the suites check exact identities, so there is nothing to evaluate
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--datum", "A1-weight", "--box", "1", *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


def test_spherical_refuses_formal_mode(capsys):
    code, _, err = run(
        capsys,
        ["spherical", "--datum", "A2", "--labels", Q4_A2, "--mode", "formal",
         "--box", "1"],
    )
    assert code == 2
    assert "refuses formal" in err
    # formal labels under the numeric default are equally unusable
    code, _, err = run(
        capsys,
        ["spherical", "--datum", "A2", "--labels", "formal", "--box", "1"],
    )
    assert code == 2
    assert "numeric" in err


def test_spherical_skips_singular_points(capsys):
    # t = 1 sits on every c-function pole: all records skip, exit is failure
    code, out, _ = run(
        capsys,
        [
            "spherical",
            "--datum", "A1-weight",
            "--labels", Q4_A1,
            "--t", "1",
            "--box", "2",
        ],
    )
    assert code == 1
    obj = json.loads(out)
    assert all(r["skipped"] for r in obj["records"])
    assert all("reason" in r for r in obj["records"])


def test_verify_battery_on_small_datum(capsys):
    code, out, _ = run(capsys, ["verify", "--datum", "A1-root", "--box", "2"])
    assert code == 0
    obj = json.loads(out)
    names = [s["suite"] for s in obj["suites"]]
    assert names == sorted(names) or len(names) >= 8
    assert all(s["pass"] for s in obj["suites"])
    assert all(s["cases"] > 0 for s in obj["suites"])


def test_verify_single_suite(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--datum", "BnCn(2)", "--suite", "quadratic", "--box", "2"],
    )
    assert code == 0
    obj = json.loads(out)
    assert [s["suite"] for s in obj["suites"]] == ["quadratic"]
    assert obj["suites"][0]["cases"] == 3
    assert obj["suites"][0]["failures"] == []


@pytest.mark.parametrize("datum, cases", [("G2", 18), ("BnCn(3)", 81)])
def test_verify_lusztig_on_long_words(capsys, datum, cases):
    code, out, err = run(capsys, ["verify", "--datum", datum, "--box", "1", "--suite", "lusztig"])
    assert code == 0, err
    (suite,) = json.loads(out)["suites"]
    assert suite["suite"] == "lusztig"
    assert suite["pass"] is True
    assert suite["cases"] == cases
    assert suite["failures"] == []


# no suite clips --box: on A1-weight the lusztig suite has one case per point
# of [-4, 4], support one per point off the cone {0, -2, -4}, and the trace
# oracle one per x in the cone with height(-x) <= 6
@pytest.mark.parametrize(
    "suite, box, cases", [("lusztig", "4", 9), ("support", "4", 6), ("trace-oracle", "6", 7)]
)
def test_verify_uses_box_as_given(capsys, suite, box, cases):
    code, out, err = run(capsys, ["verify", "--datum", "A1-weight", "--box", box, "--suite", suite])
    assert code == 0, err
    (record,) = json.loads(out)["suites"]
    assert record["pass"] is True
    assert record["cases"] == cases


# every suite, so the bernstein suite's star_theta_check among them
@pytest.mark.parametrize(
    "datum, box, digest",
    [
        ("BnCn(2)", "1", "7310363c58c3942ec43216b5961b19a132efa7a3f2744ed9c1f6431b9929f286"),
        ("A2", "2", "fc666af5d2b9eaeb976b1e4fe269010d9ef03aba9561e3353ae6885d34f353b2"),
    ],
)
def test_verify_report_digest(capsys, datum, box, digest):
    code, out, _ = run(capsys, ["verify", "--datum", datum, "--box", box])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_unknown_suite(capsys):
    code, _, err = run(
        capsys, ["verify", "--datum", "A2", "--suite", "nonsense"]
    )
    assert code == 2
    assert "error:" in err


def test_bad_labels_exit_usage(capsys):
    code, _, err = run(
        capsys,
        ["series", "--datum", "A1-weight", "--labels", '{"s1": "junk"}',
         "--mode", "rational", "--box", "2"],
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "command, labels, box",
    [pytest.param("series", f'{{"s1": {v}, "s0": 4}}', "1", id=v)
     for v in ("NaN", "Infinity", "-Infinity")]
    # complex mode computes in floats, so a label whose float is infinite or
    # 0 is refused, even an exact square such as 1e800
    + [pytest.param(c, f'{{"s1": "{v}"}}', b, id=f"{c}-{v}")
       for c, v, b in [("series", "2e400", "1"), ("series", "2e-400", "2"),
                       ("series", "1e800", "2"), ("spherical", "1e800", "2")]],
)
def test_non_finite_label_exit_usage(capsys, command, labels, box):
    code, out, err = run(
        capsys,
        [command, "--datum", "A1-weight", "--labels", labels, "--mode", "complex", "--box", box],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad labels:")
    assert len(err.strip().splitlines()) == 1


# finite labels whose powers leave the float range in complex mode
@pytest.mark.parametrize(
    "command, labels, box",
    [("series", '{"s1": "2e300"}', "6"), ("spherical", '{"s1": "1e300"}', "1")],
)
def test_float_range_overflow_exit_usage(capsys, command, labels, box):
    code, out, err = run(
        capsys,
        [command, "--datum", "A1-weight", "--labels", labels, "--mode", "complex", "--box", box],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: a value left the floating-point range of complex mode")
    assert "use --mode rational" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", ["true", "false"])
def test_boolean_label_exit_usage(capsys, value):
    # bool is an int subclass: true must not be read as the label 1
    code, out, err = run(
        capsys,
        ["series", "--datum", "A1-weight", "--labels", f'{{"s1": {value}}}',
         "--mode", "rational", "--box", "1"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad labels:") and "must be a number" in err
    assert len(err.strip().splitlines()) == 1


def test_float_label_is_its_decimal(capsys):
    # 1e-13 is 1/10^13, not rounded to 0: accepted in complex mode, and in
    # rational mode refused only because it is not a perfect square
    argv = ["series", "--datum", "A1-weight", "--labels", '{"s1": 1e-13, "s0": 1e-13}',
            "--box", "1"]
    code, _, err = run(capsys, argv + ["--mode", "complex"])
    assert code == 0, err
    code, _, err = run(capsys, argv + ["--mode", "rational"])
    assert code == 2
    assert "1/10000000000000 for class v1 is not a perfect square" in err
    assert len(err.strip().splitlines()) == 1
    # 1e-14 is the square of 1e-7, so rational mode takes it
    code, out, err = run(
        capsys,
        ["series", "--datum", "A1-weight", "--labels", '{"s1": 1e-14, "s0": 1e-14}',
         "--mode", "rational", "--box", "1"],
    )
    assert code == 0, err
    assert json.loads(out)["records"]


def test_numeric_mode_requires_numeric_labels(capsys):
    code, _, err = run(
        capsys,
        ["series", "--datum", "A1-weight", "--mode", "rational", "--box", "2"],
    )
    assert code == 2
    assert "numeric" in err


def test_unknown_datum_exit_usage(capsys):
    code, _, err = run(capsys, ["trace", "--datum", "E8", "--box", "2"])
    assert code == 2
    assert "error:" in err


def test_wrong_t_arity(capsys):
    code, _, err = run(
        capsys,
        ["spherical", "--datum", "A2", "--labels", Q4_A2, "--t", "1/5", "--box", "1"],
    )
    assert code == 2


def test_datum_from_file(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(datum_to_json(build_preset("A1-root")), encoding="utf-8")
    code, out, _ = run(capsys, ["trace", "--datum", str(path), "--box", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["datum"] == "A1-root"
    assert obj["all_equal"] is True


def test_datum_file_with_labels_exit_usage(tmp_path, capsys):
    obj = json.loads(datum_to_json(build_preset("A1-root")))
    obj["labels"] = {"s1": "bogus"}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, ["trace", "--datum", str(path), "--box", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--labels" in err
    assert len(err.strip().splitlines()) == 1


def test_out_writes_identical_bytes(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = ["series", "--datum", "A1-weight", "--box", "3", "--out", str(target)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == ""  # routed to the file instead
    text = target.read_text(encoding="utf-8")
    code2, out2, _ = run(capsys, ["series", "--datum", "A1-weight", "--box", "3"])
    assert code2 == 0
    assert text == out2


def test_labels_from_file(tmp_path, capsys):
    path = tmp_path / "labels.json"
    path.write_text(Q4_A1, encoding="utf-8")
    code, out, _ = run(
        capsys,
        ["series", "--datum", "A1-weight", "--labels", str(path),
         "--mode", "rational", "--box", "2"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["records"][1]["trace"] == "9/4"


def assert_one_line_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "missing"])
@pytest.mark.parametrize("flag", ["--datum", "--labels"])
def test_unreadable_config_file_exit_usage(tmp_path, capsys, flag, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, ["trace", flag, str(path), "--box", "1"])
    assert_one_line_usage_error(code, out, err)


A1_ROOT_JSON = {"rank": 1, "pairing": [[1]], "simple_roots": [[1]], "simple_coroots": [[2]]}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("rank", "x", "rank must be an integer, got 'x'"),
        ("rank", True, "rank must be an integer, got True"),
        ("pairing", [["a"]], "pairing entries must be integers, got 'a'"),
        ("simple_roots", [1], "simple_roots must be a list of lists of integers"),
        ("simple_roots", "ab", "simple_roots must be a list of lists of integers"),
        ("simple_coroots", [[2.5]], "simple_coroots entries must be integers, got 2.5"),
        ("simple_coroots", [[False]], "simple_coroots entries must be integers, got False"),
    ],
)
def test_malformed_datum_file_exit_usage(tmp_path, capsys, field, value, message):
    # entries are JSON ints and rows are lists: nothing is converted, so 2.5
    # is refused rather than read as 2
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({**A1_ROOT_JSON, field: value}), encoding="utf-8")
    code, out, err = run(capsys, ["trace", "--datum", str(path), "--box", "1"])
    assert_one_line_usage_error(code, out, err)
    assert err.strip() == f"error: {message}"


def test_datum_file_that_is_not_an_object_exit_usage(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps([A1_ROOT_JSON]), encoding="utf-8")
    code, out, err = run(capsys, ["trace", "--datum", str(path), "--box", "1"])
    assert_one_line_usage_error(code, out, err)
    assert err.strip() == "error: datum JSON must be an object"


def test_out_in_missing_directory_exit_usage(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, ["series", "--datum", "A1-weight", "--box", "1",
                                  "--out", str(target)])
    assert_one_line_usage_error(code, out, err)
    assert not target.exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unwritable_out_fails_before_computing(tmp_path, capsys, monkeypatch, kind):
    def no_sweep(self, xs):
        raise AssertionError("the trace ran before --out was checked")

    monkeypatch.setattr(TraceGen, "trace_sweep", no_sweep)
    target = tmp_path / "missing" / "r.json" if kind == "missing" else tmp_path
    code, out, err = run(capsys, ["trace", "--datum", "A1-weight", "--box", "1",
                                  "--out", str(target)])
    assert_one_line_usage_error(code, out, err)
    assert "cannot write --out" in err


def test_spherical_zero_coordinate_exit_usage(capsys):
    code, out, err = run(
        capsys,
        ["spherical", "--datum", "A1-weight", "--labels", Q4_A1, "--t", "0", "--box", "1"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nonzero" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--datum", "A2"],
        ["series", "--datum", "A1-weight"],
        ["verify", "--datum", "A1-weight", "--suite", "quadratic"],
        ["spherical", "--datum", "A1-weight", "--labels", Q4_A1],
    ],
)
def test_negative_box_exit_usage(capsys, argv):
    code, out, err = run(capsys, argv + ["--box", "-1"])
    assert code == 2
    assert out == ""
    assert err.strip() == "error: --box must be >= 0 (got -1)"


def test_bad_preset_reports_the_preset_error(capsys):
    code, _, err = run(capsys, ["trace", "--datum", "BnCn(0)", "--box", "1"])
    assert code == 2
    assert "BnCn(n) needs n >= 1" in err
    assert len(err.strip().splitlines()) == 1
    # an unknown name lists the one preset registry
    code, _, err = run(capsys, ["trace", "--datum", "E8", "--box", "1"])
    assert code == 2
    assert ", ".join(PRESET_NAMES) in err


@pytest.mark.parametrize("datum, roots", [("BnCn(60)", 7200), ("GLn(40)", 1560)])
def test_oversized_preset_is_refused_at_once(capsys, datum, roots):
    # the closed-form root count is checked before any closure is built
    start = time.perf_counter()
    code, out, err = run(capsys, ["series", "--datum", datum, "--box", "0"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        f"error: datum {datum!r}: {datum} has {roots} roots, "
        f"past the safety bound of {MAX_ROOTS} roots\n"
    )


def test_cli_import_skips_introspection_modules():
    # a fresh interpreter without site: what `import affinehecke.cli` loads itself
    heavy = ("dataclasses", "inspect", "ast", "dis")
    src = str(Path(affinehecke.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, affinehecke.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.strip() == "[]"


def test_dcoeff_needs_no_finite_weyl_group(capsys):
    # |W0| of BnCn(7) is 645,120, past weyl.MAX_W0: the rank-one series reads
    # roots only, so building the algebra tower must not enumerate W0
    code, out, _ = run(capsys, ["verify", "--datum", "BnCn(7)", "--suite", "dcoeff", "--box", "1"])
    assert code == 0
    assert json.loads(out)["pass"] is True

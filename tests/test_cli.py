import itertools
import json
import os
import subprocess
import sys
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchardlab import cli, constructions, groups, projgeom


def run(args):
    return cli.main([str(a) for a in args])


def test_example_build_and_verify(tmp_path):
    manifest = tmp_path / "m.json"
    prefix = tmp_path / "ex_"
    assert run(["example-build", "--p", 7, "--k", 2,
                "--out-prefix", prefix, "--out", manifest]) == 0
    doc = json.loads(manifest.read_text())
    assert doc["schema"] == 1
    assert doc["N"] == 2 and doc["d"] == 3
    assert doc["sizes"] == {"x1": 35, "x2": 35, "x3": 35}
    assert doc["family_count"] == 1225

    report = tmp_path / "r.json"
    assert run(["example-verify", "--p", 7, "--k", 2, "--out", report]) == 0
    doc = json.loads(report.read_text())
    assert doc["all_collinear"] is True
    assert doc["family_count"] == 1225
    assert doc["in_sets_count"] == 1029
    assert doc["triple_total"] == 1029
    assert doc["dichotomy_ok"] is True


def test_example_degenerate_exit_code(tmp_path, capsys):
    assert run(["example-verify", "--p", 5, "--k", 2]) == 1
    assert "error" in capsys.readouterr().err


def test_orchard_threeplanes(tmp_path, monkeypatch):
    from orchardlab import incidence

    def brute(*args):
        raise AssertionError("the brute kernel ran")

    # the default kernel is hash: the brute kernel is never reached
    monkeypatch.setattr(incidence, "_count_brute_int", brute)
    prefix = tmp_path / "ex_"
    assert run(["example-build", "--p", 7, "--k", 2, "--out-prefix", prefix,
                "--out", tmp_path / "m.json"]) == 0
    report = tmp_path / "t.json"
    args = [
        "orchard-threeplanes",
        "--x1", f"{prefix}x1.pts",
        "--x2", f"{prefix}x2.pts",
        "--x3", f"{prefix}x3.pts",
        "--report", report,
    ]
    assert run(args) == 0
    doc = json.loads(report.read_text())
    assert doc["total"] == 1029
    assert doc["max_line"] == {"x1": 7, "x2": 7, "x3": 7}
    assert doc["pencil_max"] == 7
    assert doc["census"]["nontrivial_pairs"] == 35
    assert sum(entry["count"] for entry in doc["by_line"]) == doc["total"]
    assert doc["witness"]["x1"].count("|") == 1
    with pytest.raises(AssertionError, match="brute kernel ran"):
        run(args + ["--kernel", "both"])


def test_threeplanes_report_with_no_line(tmp_path):
    """Sets with no collinear triple give the empty `by_line` list."""
    from orchardlab.field import FieldCtx
    from orchardlab.projgeom import ProjPoint, save_point_set

    ctx = FieldCtx(5)
    for name, x in (("x1", [1, 0, 0, 0]), ("x2", [0, 1, 0, 0]), ("x3", [0, 0, 1, 0])):
        save_point_set(tmp_path / f"{name}.pts", ctx, [ProjPoint(ctx, x)])
    report = tmp_path / "t.json"
    assert run(["orchard-threeplanes", "--x1", tmp_path / "x1.pts", "--x2", tmp_path / "x2.pts",
                "--x3", tmp_path / "x3.pts", "--report", report]) == 0
    assert '\n  "by_line": [],\n' in report.read_text()
    assert json.loads(report.read_text())["total"] == 0


def test_threeplanes_report_memory_per_line(tmp_path, monkeypatch):
    """The report step of orchard-threeplanes, the sort and then the write
    to a file, holds under 80 traced bytes a line on some 70,000 F_101
    lines, in the order of their texts: it keeps one sort key a line and
    makes each text as it is written, where a held text and a dict per
    line took some 325 bytes."""
    import random
    import tracemalloc

    from orchardlab import incidence
    from orchardlab.field import FieldCtx
    from orchardlab.projgeom import PointSet, ProjPoint, save_point_set

    ctx = FieldCtx(101)
    rng = random.Random(53)
    points = PointSet({ProjPoint(ctx, [1] + [rng.randrange(101) for _ in range(3)])
                       for _ in range(380)})
    key_of, [codes] = incidence._keyed(ctx, points)
    by_line = {key_of(a, b): rng.randint(1, 3) for a, b in itertools.combinations(codes, 2)}
    assert len(by_line) >= 50_000
    count = incidence.TripleCount(sum(by_line.values()), by_line)
    monkeypatch.setattr(incidence, "count_collinear_triples", lambda *args, **kwargs: count)
    for name in ("x1", "x2", "x3"):
        save_point_set(tmp_path / f"{name}.pts", ctx, [ProjPoint(ctx, [0, 1, 2, 3])])
    report = tmp_path / "t.json"
    args = ["orchard-threeplanes", "--x1", tmp_path / "x1.pts", "--x2", tmp_path / "x2.pts",
            "--x3", tmp_path / "x3.pts", "--report", report]
    tracemalloc.start()
    try:
        assert run(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * len(by_line), peak / len(by_line)
    want = sorted((incidence.line_text(ctx, key), n) for key, n in by_line.items())
    got = json.loads(report.read_text())["by_line"]
    assert [(entry["line"], entry["count"]) for entry in got] == want


@pytest.mark.parametrize("patch", ["total", "by_line"])
def test_orchard_threeplanes_kernel_disagreement_is_one_line(tmp_path, capsys, monkeypatch, patch):
    """--kernel both with a brute kernel that shifts the total, or moves
    one line's count onto another, exits 2 with the one line of the
    VerificationFailure and writes no report."""
    from orchardlab import incidence
    from orchardlab.field import FieldCtx
    from orchardlab.projgeom import ProjPoint, save_point_set

    ctx = FieldCtx(5)
    sets = {"x1": [[1, 0, 0, 0]], "x2": [[1, 1, 0, 0], [1, 0, 1, 0]],
            "x3": [[1, 2, 0, 0], [1, 0, 2, 0]]}
    for name, X in sets.items():
        save_point_set(tmp_path / f"{name}.pts", ctx, [ProjPoint(ctx, x) for x in X])
    brute = incidence._count_brute_int

    def wrong(*args):
        total, per_line = brute(*args)
        if patch == "total":
            return total + 1, per_line
        first, second = sorted(per_line)
        return total, {first: per_line[first] + per_line[second]}

    monkeypatch.setattr(incidence, "_count_brute_int", wrong)
    report = tmp_path / "t.json"
    assert run([
        "orchard-threeplanes", "--x1", tmp_path / "x1.pts", "--x2", tmp_path / "x2.pts",
        "--x3", tmp_path / "x3.pts", "--kernel", "both", "--report", report,
    ]) == 2
    assert capsys.readouterr().err == "verification failure: kernel disagreement" + (
        ": brute 3 vs hash 2\n" if patch == "total"
        else " on line 1:0:0:0|0:0:1:0: brute 2 vs hash 1\n")
    assert not report.exists()


def test_orchard_threeplanes_line_concentration_guard(tmp_path, capsys, monkeypatch):
    from orchardlab import incidence
    from orchardlab.field import FieldCtx
    from orchardlab.projgeom import ProjPoint, save_point_set

    # |X1| |X2| = 2 passes the triple count's guard, but X3 has 15 pairs
    monkeypatch.setattr(incidence, "PAIR_PRODUCT_CAP", 10)
    ctx = FieldCtx(5)
    line = [ProjPoint(ctx, [1, i, 0, 0]) for i in range(5)]
    X3 = line + [ProjPoint(ctx, [0, 0, 1, 0])]
    for name, X in (("x1", line[:1]), ("x2", line[1:3]), ("x3", X3)):
        save_point_set(tmp_path / f"{name}.pts", ctx, X)
    report = tmp_path / "t.json"
    assert run([
        "orchard-threeplanes", "--x1", tmp_path / "x1.pts", "--x2", tmp_path / "x2.pts",
        "--x3", tmp_path / "x3.pts", "--report", report,
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not report.exists()


def test_orchard_threeplanes_census_guard_runs_before_the_count(tmp_path, capsys, monkeypatch):
    from orchardlab import incidence
    from orchardlab.field import FieldCtx
    from orchardlab.projgeom import ProjPoint, save_point_set

    def count(*args):
        raise AssertionError("the triple count ran")

    # |X1|^2 = 16 trips the census guard; every other pass is within 9
    monkeypatch.setattr(incidence, "PAIR_PRODUCT_CAP", 9)
    monkeypatch.setattr(incidence, "_count_hash", count)
    ctx = FieldCtx(5)
    X1 = [ProjPoint(ctx, [0, 1, i, 0]) for i in range(4)]
    for name, X in (("x1", X1), ("x2", [ProjPoint(ctx, [1, 0, 0, 0])]),
                    ("x3", [ProjPoint(ctx, [1, 1, 1, 1])])):
        save_point_set(tmp_path / f"{name}.pts", ctx, X)
    report = tmp_path / "t.json"
    assert run([
        "orchard-threeplanes", "--x1", tmp_path / "x1.pts", "--x2", tmp_path / "x2.pts",
        "--x3", tmp_path / "x3.pts", "--report", report,
    ]) == 1
    err = capsys.readouterr().err
    assert err == "error: pair count exceeds the census guard\n"
    assert not report.exists()


@pytest.mark.parametrize("command, flags", [
    ("orchard-threeplanes", ("--x1", "--x2", "--x3")),
    ("orchard-quadric", ("--x", "--s")),
])
def test_point_sets_over_different_fields_are_a_usage_error(tmp_path, capsys, command, flags):
    from orchardlab.field import FieldCtx
    from orchardlab.projgeom import ProjPoint, save_point_set

    # the last file is over F_7, the others over F_5
    args = [command]
    for flag, p in zip(flags, [5] * (len(flags) - 1) + [7]):
        ctx = FieldCtx(p)
        path = tmp_path / f"{flag[2:]}.pts"
        save_point_set(path, ctx, [ProjPoint(ctx, [1, 1, 1, 1])])
        args += [flag, path]
    report = tmp_path / "r.json"
    assert run(args + ["--report", report]) == 1
    assert capsys.readouterr().err == "error: point sets live over different fields\n"
    assert not report.exists()


def test_orchard_threeplanes_field_mismatch(tmp_path, capsys):
    prefix = tmp_path / "ex_"
    run(["example-build", "--p", 7, "--k", 2, "--out-prefix", prefix,
         "--out", tmp_path / "m.json"])
    code = run([
        "orchard-threeplanes",
        "--x1", f"{prefix}x1.pts",
        "--x2", f"{prefix}x2.pts",
        "--x3", f"{prefix}x3.pts",
        "--field", "11",
    ])
    assert code == 1


def test_orchard_quadric(tmp_path):
    from orchardlab.field import FieldCtx
    from orchardlab.incidence import count_collinear_triples
    from oracles import segre_quadric_points
    from orchardlab.projgeom import (
        QuadricForm,
        enumerate_space,
        on_quadric,
        save_point_set,
    )

    # all 36 Segre points over F_5, so every image gamma_s(x) is in X
    ctx = FieldCtx(5)
    Q = QuadricForm.segre(ctx)
    X = sorted(set(segre_quadric_points(ctx)), key=lambda p: p.key)
    S = [p for p in enumerate_space(ctx, 3) if not on_quadric(p, Q)][:10]
    save_point_set(tmp_path / "x.pts", ctx, X)
    save_point_set(tmp_path / "s.pts", ctx, S)
    report = tmp_path / "q.json"
    assert run([
        "orchard-quadric", "--x", tmp_path / "x.pts", "--s", tmp_path / "s.pts",
        "--quadric", "segre", "--report", report,
    ]) == 0
    doc = json.loads(report.read_text())
    assert doc["involution_checks"] == len(X) * len(S)
    assert doc["total"] == count_collinear_triples(X, X, S, "brute").total > 0

    # an off-quadric point in the x file is a usage error
    save_point_set(tmp_path / "bad.pts", ctx, S[:3])
    assert run([
        "orchard-quadric", "--x", tmp_path / "bad.pts", "--s", tmp_path / "s.pts",
        "--quadric", "segre",
    ]) == 1


def test_orchard_quadric_char_two_is_usage_error(tmp_path, capsys):
    from orchardlab.field import FieldCtx
    from orchardlab.projgeom import ProjPoint, save_point_set

    # the identity quadric over F_2 has no involutions: CharTwo, exit 1
    ctx = FieldCtx(2)
    X = [ProjPoint(ctx, c) for c in ([1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0])]
    save_point_set(tmp_path / "x.pts", ctx, X)
    save_point_set(tmp_path / "s.pts", ctx, [ProjPoint(ctx, [1, 0, 0, 0])])
    assert run([
        "orchard-quadric", "--x", tmp_path / "x.pts", "--s", tmp_path / "s.pts",
        "--quadric", "identity", "--report", tmp_path / "q.json",
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_orchard_quadric_segre_char_two_names_characteristic(tmp_path, capsys):
    from orchardlab.field import FieldCtx
    from orchardlab.projgeom import ProjPoint, save_point_set

    # 2(x1 x4 - x2 x3) vanishes over F_4, so every point would count as
    # on the Segre quadric; [1:0:0:1] is off x1 x4 = x2 x3
    ctx = FieldCtx(2, 2)
    save_point_set(tmp_path / "x.pts", ctx, [ProjPoint(ctx, [1, 0, 0, 0])])
    save_point_set(tmp_path / "s.pts", ctx, [ProjPoint(ctx, [1, 0, 0, 1])])
    report = tmp_path / "q.json"
    assert run([
        "orchard-quadric", "--x", tmp_path / "x.pts", "--s", tmp_path / "s.pts",
        "--quadric", "segre", "--report", report,
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "characteristic" in err and "lies on the quadric" not in err
    assert not report.exists()


def test_orchard_quadric_s_point_on_quadric_fails_before_counting(tmp_path, capsys, monkeypatch):
    from orchardlab import groups
    from orchardlab.field import FieldCtx
    from orchardlab.projgeom import ProjPoint, save_point_set

    # [1:0:0:0] satisfies x1 x4 = x2 x3, so it cannot be a centre
    ctx = FieldCtx(5)
    X = [ProjPoint(ctx, c) for c in ([1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 1])]
    S = [ProjPoint(ctx, [1, 0, 0, 1]), ProjPoint(ctx, [1, 0, 0, 0])]
    save_point_set(tmp_path / "x.pts", ctx, X)
    save_point_set(tmp_path / "s.pts", ctx, S)
    report = tmp_path / "q.json"
    args = [
        "orchard-quadric", "--x", tmp_path / "x.pts", "--s", tmp_path / "s.pts",
        "--quadric", "segre", "--report", report,
    ]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "1:0:0:0" in err and "lies on the quadric" in err
    assert not report.exists()

    # 2 x 3 pairs over a cap of 5 are refused before the centre on Q is read
    monkeypatch.setattr(groups, "PAIR_PRODUCT_CAP", 5)
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "counting guard" in err
    assert not report.exists()


def test_flatten_csv_and_determinism(tmp_path):
    out1 = tmp_path / "f1.csv"
    out2 = tmp_path / "f2.csv"
    args = ["flatten", "--group", "affine", "--field", "11",
            "--gen-count", 2, "--m-max", 4, "--seed", 1]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert len(lines) == 6  # header + rows m = 0..4
    header = lines[0].split(",")
    ratio_col = header.index("ratio_sq_float")
    for line in lines[1:]:
        assert float(line.split(",")[ratio_col]) <= 1.0


def test_flatten_gen_count_bounded_by_group(tmp_path, capsys):
    # the affine group over F_2 has order 4: three non-identity elements
    out = tmp_path / "f.csv"
    args = ["flatten", "--field", "2", "--m-max", 1, "--out", out]
    for bad in (5, 4, 0):
        assert run(args + ["--gen-count", bad]) == 1
        assert "--gen-count" in capsys.readouterr().err
    assert not out.exists()
    assert run(args + ["--gen-count", 3]) == 0


def test_bsg_verify_cli(tmp_path):
    out = tmp_path / "b.json"
    assert run(["bsg-verify", "--field", "5", "--count", 25, "--K", "2",
                "--seed", 3, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["failures"] == []
    assert len(doc["instances"]) == 25
    names = {c["name"] for c in doc["instances"][0]["checks"]}
    assert {"hyp_lin", "hyp_sq", "nu1_l1", "nu2_l2_sq",
            "support_stat_upper"} <= names


def test_bsg_verify_deterministic(tmp_path):
    out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
    args = ["bsg-verify", "--field", "7", "--count", 5, "--K", "3/2", "--seed", 9]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bsg_verify_max_support_bounded_by_group(tmp_path, capsys):
    out = tmp_path / "b.json"
    args = ["bsg-verify", "--field", "2", "--count", 3, "--out", out]
    for bad in (50, 5, 0):
        assert run(args + ["--max-support", bad]) == 1
        assert "--max-support" in capsys.readouterr().err
    assert not out.exists()
    assert run(args + ["--max-support", 4]) == 0


def test_lemma_suite_subset(tmp_path):
    out = tmp_path / "ls.json"
    assert run(["lemma-suite", "--only", "segre-roundtrip",
                "commutator-formula", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["suites"]) == {"segre-roundtrip", "commutator-formula"}
    assert all(entry["pass"] for entry in doc["suites"].values())


def test_lemma_suite_runs_every_suite(tmp_path):
    out = tmp_path / "ls.json"
    assert run(["lemma-suite", "--out", out]) == 0
    assert json.loads(out.read_text())["suites"] == {
        name: {"pass": True, "detail": detail} for name, detail in {
            "projection-vs-algebra": "4212 exhaustive checks over F3",
            "commutator-formula": "162 exhaustive checks over F3",
            "centralizer-formula": "7500 exhaustive checks over F5",
            "quadric-reflection": "4320 exhaustive checks over F5, B = I",
            "segre-roundtrip": "16 exhaustive checks over F3",
            "fixed-point-classification": "outcomes {'FINITE': 100}",
        }.items()
    }


def _fail_second_gamma_x(monkeypatch):
    # gamma_x(x, y) stays right; the involution check's gamma_x(x, z) gets x
    real, calls = groups.gamma_x, itertools.count()
    monkeypatch.setattr(groups, "gamma_x",
                        lambda x, y, Q: real(x, y, Q) if next(calls) % 2 == 0 else x)


def _replace_classification(**fields):
    def patch(monkeypatch):
        real = constructions.classify_fixed_points
        monkeypatch.setattr(constructions, "classify_fixed_points",
                            lambda g, ctx: real(g, ctx)._replace(**fields))
    return patch


def _patch(target, name, value):
    return lambda monkeypatch: monkeypatch.setattr(target, name, value)


@pytest.mark.parametrize("suite, patch, detail", [
    ("projection-vs-algebra", _patch(groups, "eta_composed", lambda x, y, a: None),
     "disagreement at ([1:1:0:0], [1:1:0:0], [0:0:0:1])"),
    ("commutator-formula", _patch(groups, "aff_commutator", lambda g, h: None),
     "mismatch at ((0,0,1), (0,0,1))"),
    ("centralizer-formula", _patch(groups, "aff_centralizer_member", lambda h, g: None),
     "mismatch at ((0,0,1), (0,0,2))"),
    ("quadric-reflection", _patch(groups.PGLElem, "is_identity", lambda self: False),
     "lift at [0:0:0:1] is not an involution"),
    ("quadric-reflection",
     _patch(groups, "is_orthogonal_mod_scalar", lambda M, Q: (False, None)),
     "lift at [0:0:0:1] is not orthogonal"),
    ("quadric-reflection", _patch(groups, "gamma_x", lambda x, y, Q: x),
     "image off the quadric at ([0:0:0:1], [0:0:1:2])"),
    ("quadric-reflection", _patch(projgeom, "collinear", lambda p, q, r: False),
     "collinearity failed at ([0:0:0:1], [0:0:1:2])"),
    ("quadric-reflection", _fail_second_gamma_x,
     "involution failed at ([0:0:0:1], [0:0:1:2])"),
    ("quadric-reflection", _patch(groups.PGLElem, "act", lambda self, p: p),
     "lift disagrees with the involution at ([0:0:0:1], [0:0:1:2])"),
    ("segre-roundtrip", _patch(projgeom, "on_quadric", lambda p, Q: False),
     "image off the quadric at ([0:1], [0:1])"),
    ("segre-roundtrip", _patch(groups, "segre_inverse", lambda image: None),
     "roundtrip failed at ([0:1], [0:1])"),
    ("fixed-point-classification", _replace_classification(pso_verified=False),
     "reflection pair failed the determinant test"),
    ("fixed-point-classification", _replace_classification(kind="OTHER"),
     "OTHER outcome for PGL((1, 0, 1, 0), (1, 3, 1, 3), (4, 0, 1, 0), (4, 2, 1, 3))"),
])
def test_lemma_suite_failure_details(monkeypatch, suite, patch, detail):
    patch(monkeypatch)
    assert cli.LEMMA_SUITES[suite]() == (False, detail)


def test_failed_lemma_suite_from_the_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(groups, "segre_inverse", lambda image: None)
    out = tmp_path / "ls.json"
    assert run(["lemma-suite", "--only", "segre-roundtrip", "commutator-formula",
                "--out", out]) == 2
    assert capsys.readouterr().err == "verification failure: suites failed: segre-roundtrip\n"
    assert json.loads(out.read_text())["suites"] == {
        "commutator-formula": {"pass": True, "detail": "162 exhaustive checks over F3"},
        "segre-roundtrip": {"pass": False, "detail": "roundtrip failed at ([0:1], [0:1])"},
    }


def test_judge_fails_closed_and_stops_at_the_first_failure():
    @cli._judge
    def truthy():
        yield True
        yield 1
        raise AssertionError("resumed after a failure")

    @cli._judge
    def passing():
        yield True
        return "summary"

    assert truthy() == (False, 1)
    assert passing() == (True, "summary")


def test_failed_lemma_suite_writes_its_report_then_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "LEMMA_SUITES", {"broken": lambda: (False, "always fails")})
    out = tmp_path / "ls.json"
    assert run(["lemma-suite", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ") and err.count("\n") == 1, err
    assert "broken" in err
    assert json.loads(out.read_text())["suites"]["broken"]["pass"] is False


def test_failed_bsg_instance_writes_its_report_then_one_line(tmp_path, capsys, monkeypatch):
    from orchardlab import bsg

    monkeypatch.setattr(bsg, "all_pass", lambda checks: False)
    out = tmp_path / "bsg.json"
    assert run(["bsg-verify", "--field", 5, "--count", 3, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == "verification failure: 3 of 3 instances failed, the first at indices 0, 1, 2\n"
    assert json.loads(out.read_text())["failures"] == [0, 1, 2]


def test_verification_failure_exit_code(monkeypatch):
    from orchardlab.incidence import VerificationFailure

    def boom(args):
        raise VerificationFailure("forced")

    monkeypatch.setattr(cli, "cmd_lemma_suite", boom)
    assert cli.main(["lemma-suite"]) == 2


def test_write_json_streams_the_dumps_text(tmp_path, capsys):
    doc = {"by_line": [{"line": "1:0:0:0|0:1:0:0", "count": 3}] * 3, "total": 9,
           "frac": {"exact": "1/3", "float": 1 / 3}, "name": "caf\u00e9", "none": None}
    want = json.dumps({"schema": cli.SCHEMA_VERSION, **doc}, indent=2, sort_keys=True) + "\n"
    cli.write_json(str(tmp_path / "r.json"), doc)
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == want
    cli.write_json(None, doc)
    assert capsys.readouterr().out == want


class _Row(NamedTuple):
    name: str
    value: float


# JSON scalars, with the values whose text the encoder special-cases
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60)
            | st.floats() | st.sampled_from([-0.0, 1e16, 1e-7, 0.1, float("inf")])
            | st.text())
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.builds(_Row, st.text(max_size=3), st.floats())
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=25,
)


@st.composite
def _rows(draw):
    """Columns by field name for a `Rows` value, and the list depth it sits
    at.  Each column cycles through a few drawn scalars, of one type or of
    several, so that it can run past a piece of 512 rows."""
    names = draw(st.lists(st.text(max_size=4) | st.sampled_from(["%", "a%s", "%%d"]),
                          min_size=1, max_size=3, unique=True))
    count = draw(st.integers(0, 4) | st.integers(510, 1100))
    pools = [draw(st.lists(_SCALARS, min_size=1, max_size=3)) for _ in names]
    columns = {name: [pool[r % len(pool)] for r in range(count)]
               for name, pool in zip(names, pools)}
    return columns, draw(st.integers(0, 2))


@given(st.dictionaries(st.text(max_size=6), _DOCS, max_size=5), st.none() | _rows())
@settings(max_examples=200, deadline=None)
def test_write_json_is_the_stdlib_encoder(doc, rows):
    """The one-pass writer gives the bytes of the stdlib encoder, its
    oracle: nested empties, non-ASCII text, big ints, -0.0, 1e16, inf and
    NaN, bools, None, tuples and NamedTuples included.  A `Rows` value,
    given by lazy columns at some list depth, is written as the encoder
    writes its rows as dicts."""
    import tempfile

    want_doc, lazy_doc = dict(doc), dict(doc)
    if rows:
        columns, depth = rows
        want = [dict(zip(columns, row)) for row in zip(*columns.values())]
        lazy = cli.Rows({name: iter(values) for name, values in columns.items()})
        for _ in range(depth):
            want, lazy = [want], [lazy]
        want_doc["rows"], lazy_doc["rows"] = want, lazy
    want = json.JSONEncoder(indent=2, sort_keys=True).encode(
        {"schema": cli.SCHEMA_VERSION, **want_doc}) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.json")
        cli.write_json(path, lazy_doc)
        with open(path, "rb") as fh:
            assert fh.read() == want.encode("utf-8")


def test_write_json_writes_in_pieces(monkeypatch):
    """A report of many entries, as dicts or as `Rows`, reaches the file in
    several writes of bounded size, each part of the stdlib encoder's
    text; keys that are not strings are written as that encoder writes
    them."""
    import io

    counts, lines = range(5000), [f"{i}:0:0:0|0:1:0:0" for i in range(5000)]
    doc = {"by_line": [{"line": line, "count": n} for n, line in zip(counts, lines)],
           "keys": {2: "b", 10: "c", 1.5: None}, "flags": {True: 1}}
    want = json.dumps({"schema": cli.SCHEMA_VERSION, **doc}, indent=2, sort_keys=True) + "\n"
    rows = cli.Rows({"line": iter(lines), "count": iter(counts)})
    for by_line in (doc["by_line"], rows):
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return len(text)

        monkeypatch.setattr(cli.sys, "stdout", Recorder())
        cli.write_json(None, {**doc, "by_line": by_line})
        assert "".join(writes) == want
        assert len(writes) > 3 and max(map(len, writes)) < len(want) // 3
        assert all(piece in want for piece in writes)


def test_write_json_subclasses_and_refusals(tmp_path):
    """Subclasses of str, int and float are written by their base type's
    text, as the stdlib encoder writes them, and a value that is no JSON
    type raises the same TypeError."""
    import enum

    class Level(enum.IntEnum):
        HIGH = 3

    class Name(str):
        pass

    class Mass(float):
        pass

    doc = {"level": Level.HIGH, "name": Name("caf\u00e9"), "mass": Mass(0.25), "row": _Row("a", 1.0)}
    want = json.dumps({"schema": cli.SCHEMA_VERSION, **doc}, indent=2, sort_keys=True) + "\n"
    cli.write_json(str(tmp_path / "r.json"), doc)
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == want
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        json.dumps({"x": object()})
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        cli.write_json(str(tmp_path / "bad.json"), {"x": object()})


def test_missing_file_is_usage_error():
    assert run(["orchard-threeplanes", "--x1", "/nonexistent/a.pts",
                "--x2", "/nonexistent/b.pts", "--x3", "/nonexistent/c.pts"]) == 1


def test_bad_rational_flag():
    assert run(["bsg-verify", "--field", "5", "--count", 1, "--K", "zebra"]) == 1


def test_k_range_enforced():
    assert run(["bsg-verify", "--field", "5", "--count", 1, "--K", "1/2"]) == 1


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_affine_element_index_follows_key_order(p, n):
    from oracles import affine_element, affine_group_elements
    from orchardlab.field import FieldCtx
    from orchardlab.measures import AffineGroupOps

    ctx = FieldCtx(p, n)
    group = sorted(affine_group_elements(ctx), key=lambda g: g.key)
    assert [affine_element(ctx, i) for i in range(len(group))] == group
    ops = AffineGroupOps(ctx)
    assert [ops.index_key(i) for i in range(len(group))] == list(map(ops.key, group))


def test_index_sample_draws_the_sorted_group_sample():
    import random

    from oracles import affine_element, affine_group_elements
    from orchardlab.field import FieldCtx

    ctx = FieldCtx(5)
    group = sorted(affine_group_elements(ctx), key=lambda g: g.key)
    for seed in range(50):
        # of the 100 elements, k = 3 draws through a set of indices and
        # k = 40 through a shrinking pool
        for k in (3, 40):
            want = random.Random(seed).sample(group, k)
            got = random.Random(seed).sample(range(len(group)), k)
            assert [affine_element(ctx, i) for i in got] == want


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_keyed_draw_is_the_element_draw(p, n):
    """`bsg-verify` draws each measure as keys and int weights; the old
    draw of `AffElem`s and `Fraction` masses (`random_measure` on the
    key-sorted group) gives the same keys in the same order, the same
    numerators and the same denominator."""
    import random

    from oracles import affine_group_elements, random_measure
    from orchardlab.field import FieldCtx
    from orchardlab.measures import AffineGroupOps

    ctx = FieldCtx(p, n)
    group = AffineGroupOps(ctx)
    elements = sorted(affine_group_elements(ctx), key=lambda g: g.key)
    for seed in range(40):
        for max_support in (1, 5, 20):
            max_support = min(max_support, len(elements))
            got = cli._random_measure(group, random.Random(seed), max_support)
            want = random_measure(group, elements, random.Random(seed), max_support)
            assert list(got.nums.items()) == list(want.nums.items())
            assert got.den == want.den


def test_bsg_verify_never_builds_the_group(tmp_path):
    out = tmp_path / "bsg.json"
    assert run(["bsg-verify", "--field", 61, "--count", 1, "--max-support", 5,
                "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 1 and 1 <= doc["instances"][0]["support"] <= 5


def _one_line_error(capsys, args):
    """Runs a CLI call that must fail as a usage error: exit 1 and one
    stderr line, with no exception escaping `main`."""
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


GOOD_POINTS = "field 5\n1:0:0:0\n0:1:0:0\n0:0:1:0\n"


@pytest.mark.parametrize("command,bad", [
    ("orchard-threeplanes", "field 5\n1:0:0:0\n0:1:2\n"),
    ("orchard-quadric", "field 5\n1:0:0:0\n0:1:2\n"),
    ("orchard-threeplanes", "field 5\n1:0:0:0\n0:1:2:3:4\n"),
    ("orchard-threeplanes", "field 4/1,1\n1:0:0:0\n"),
], ids=["threeplanes-p2-point", "quadric-p2-point", "threeplanes-p4-point",
        "malformed-field-line"])
def test_bad_point_file_is_usage_error(tmp_path, capsys, command, bad):
    good, bad_path = tmp_path / "good.pts", tmp_path / "bad.pts"
    good.write_text(GOOD_POINTS)
    bad_path.write_text(bad)
    if command == "orchard-threeplanes":
        args = [command, "--x1", bad_path, "--x2", good, "--x3", good]
    else:
        args = [command, "--x", bad_path, "--s", good]
    err = _one_line_error(capsys, args + ["--report", tmp_path / "r.json"])
    lineno = 1 if bad.startswith("field 4") else 3
    assert f"bad.pts:{lineno}:" in err


@pytest.mark.parametrize("args", [
    ["orchard-threeplanes", "--x1", "a", "--x2", "b", "--x3", "c", "--kernel", "foo"],
    ["example-verify", "--p", "abc"],
    ["orchard-threeplanes", "--x1", "a", "--x2", "b"],
    ["orchard-quadric", "--x", "a", "--s", "b", "--kernel", "hash"],
    [],
], ids=["invalid-choice", "invalid-int", "missing-flag", "unknown-flag", "no-subcommand"])
def test_bad_arguments_are_usage_errors(capsys, args):
    _one_line_error(capsys, args)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["orchard-quadric", "--help"])
    assert exc.value.code == 0
    assert "--quadric" in capsys.readouterr().out


def test_malformed_field_flag_is_usage_error(tmp_path, capsys):
    err = _one_line_error(capsys, ["flatten", "--field", "4/1,1", "--out", tmp_path / "f.csv"])
    assert "4/1,1" in err


def test_flatten_refuses_a_squaring_past_the_terms_guard(tmp_path, capsys):
    """Over F_25 the supports are 132 and then 9,612: the second squaring
    would compute 9,612^2 terms, past the 10^7 guard (without the guard
    the job ran for minutes).  It exits 1 with one line and no CSV."""
    out = tmp_path / "f.csv"
    err = _one_line_error(capsys, ["flatten", "--field", "5^2", "--gen-count", 12,
                                   "--m-max", 2, "--seed", 1, "--out", out])
    assert "9612 x 9612 exceeds the terms guard" in err
    assert not out.exists()


@pytest.mark.parametrize("k", ["1000001/1000000", "3000001/3000000", "10000001/10000000"])
def test_example_k_with_large_parts_is_refused_at_once(tmp_path, capsys, k):
    """These once ran for seconds to minutes of big-int powers before the
    2N+1 check refused them; the k guard refuses them before any power."""
    import time

    t0 = time.perf_counter()
    err = _one_line_error(capsys, ["example-build", "--p", 7, "--k", k,
                                   "--out-prefix", tmp_path / "ex_"])
    assert time.perf_counter() - t0 < 1
    assert "above 10000" in err
    assert not list(tmp_path.iterdir())


def test_example_point_guard_is_usage_error(tmp_path, capsys):
    """p = 10007 and k = 2 would build 3p(2N+1) = 6,034,221 points:
    refused before the field is made, with one line."""
    err = _one_line_error(capsys, ["example-build", "--p", 10007, "--k", 2,
                                   "--out-prefix", tmp_path / "ex_"])
    assert "over the guard of 1000000" in err
    assert not list(tmp_path.iterdir())


def test_flatten_negative_m_max_is_usage_error(tmp_path, capsys):
    _one_line_error(capsys, ["flatten", "--field", 5, "--m-max", -1, "--out", tmp_path / "f.csv"])


def test_flatten_other_group_is_usage_error(tmp_path, capsys):
    out = tmp_path / "f.csv"
    err = _one_line_error(capsys, ["flatten", "--group", "pgl", "--field", 5, "--out", out])
    assert err == "error: only the affine group is wired to the runner\n"
    assert not out.exists()


def test_bsg_verify_negative_count_is_usage_error(tmp_path, capsys):
    out = tmp_path / "bsg.json"
    _one_line_error(capsys, ["bsg-verify", "--field", 5, "--count", -1, "--out", out])
    assert not out.exists()


def test_lemma_suite_unknown_name_is_usage_error(tmp_path, capsys):
    err = _one_line_error(capsys, ["lemma-suite", "--only", "bogus", "--out", tmp_path / "l.json"])
    assert "bogus" in err
    assert all(name in err for name in cli.LEMMA_SUITES)


# Prints the modules a fresh interpreter loaded for `import orchardlab.cli`
# and, given arguments, for one `cli.main` run on them.
LOADED_SCRIPT = """
import json, sys
before = set(sys.modules)
from orchardlab import cli
if sys.argv[1:] and cli.main(sys.argv[1:]) != 0:
    sys.exit("the job failed")
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def modules_loaded(args, cwd):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", LOADED_SCRIPT, *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_subcommands_load_only_their_modules(tmp_path):
    # a fresh interpreter, since this one has loaded every module already
    loaded = modules_loaded([], tmp_path)
    assert "orchardlab.cli" in loaded
    assert not loaded & {"dataclasses", "fractions", "orchardlab.incidence",
                         "orchardlab.constructions", "orchardlab.measures", "orchardlab.bsg"}

    for name, points in (("a", ["0:1:1:1", "0:1:2:3"]), ("b", ["1:0:1:1", "1:0:2:3"]),
                         ("c", ["1:1:1:1", "2:1:3:3"]), ("q", ["0:0:0:1", "1:0:0:0"]),
                         ("s", ["1:0:0:1"])):
        (tmp_path / f"{name}.pts").write_text("field 5\n" + "\n".join(points) + "\n")
    loaded = modules_loaded(["orchard-threeplanes", "--x1", "a.pts", "--x2", "b.pts",
                             "--x3", "c.pts", "--report", "t.json"], tmp_path)
    assert "orchardlab.incidence" in loaded
    assert not loaded & {"orchardlab.measures", "orchardlab.bsg", "orchardlab.constructions",
                         "orchardlab.groups", "fractions"}

    loaded = modules_loaded(["orchard-quadric", "--x", "q.pts", "--s", "s.pts",
                             "--quadric", "segre", "--report", "q.json"], tmp_path)
    assert "orchardlab.groups" in loaded
    assert "fractions" not in loaded

    loaded = modules_loaded(["example-build", "--p", 7, "--out-prefix", "ex_",
                             "--out", "m.json"], tmp_path)
    assert "orchardlab.constructions" in loaded
    assert not loaded & {"orchardlab.groups", "orchardlab.incidence"}

    loaded = modules_loaded(["lemma-suite", "--only", "fixed-point-classification",
                             "--out", "l.json"], tmp_path)
    assert "orchardlab.constructions" in loaded
    assert "orchardlab.incidence" not in loaded

    # the measure jobs draw and convolve group keys: no element code
    for args in (["flatten", "--field", 3, "--gen-count", 2, "--m-max", 1, "--out", "f.csv"],
                 ["bsg-verify", "--field", 3, "--count", 3, "--out", "b.json"]):
        loaded = modules_loaded(args, tmp_path)
        assert "orchardlab.measures" in loaded
        assert not loaded & {"orchardlab.incidence", "orchardlab.constructions",
                             "orchardlab.groups", "orchardlab.projgeom"}


# every subcommand's options and their defaults, so that an added or
# removed option or a changed default shows as a change to this table
OPTION_INVENTORY = {
    "example-build": {"--p": None, "--k": "2", "--out-prefix": "example_", "--out": None},
    "example-verify": {"--p": None, "--k": "2", "--out": None},
    "orchard-threeplanes": {
        "--x1": None, "--x2": None, "--x3": None, "--field": None,
        "--kernel": "hash", "--allow-dup": False, "--report": None,
    },
    "orchard-quadric": {
        "--x": None, "--s": None, "--quadric": "identity", "--allow-dup": False,
        "--report": None,
    },
    "flatten": {
        "--group": "affine", "--field": None, "--gen-count": 2, "--m-max": 4,
        "--seed": 0, "--out": None,
    },
    "bsg-verify": {
        "--field": None, "--count": 100, "--max-support": 12, "--K": "1",
        "--seed": 0, "--out": None,
    },
    "lemma-suite": {"--only": None, "--out": None},
}


def test_option_inventory():
    import argparse

    def options(parser):
        return {
            " ".join(a.option_strings): a.default
            for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        }

    parser = cli.build_parser()
    assert options(parser) == {}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: options(p) for name, p in sub.choices.items()} == OPTION_INVENTORY

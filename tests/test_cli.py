import json

import pytest

from orchardlab import cli


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


def test_orchard_threeplanes(tmp_path):
    prefix = tmp_path / "ex_"
    assert run(["example-build", "--p", 7, "--k", 2, "--out-prefix", prefix,
                "--out", tmp_path / "m.json"]) == 0
    report = tmp_path / "t.json"
    assert run([
        "orchard-threeplanes",
        "--x1", f"{prefix}x1.pts",
        "--x2", f"{prefix}x2.pts",
        "--x3", f"{prefix}x3.pts",
        "--report", report,
    ]) == 0
    doc = json.loads(report.read_text())
    assert doc["total"] == 1029
    assert doc["max_line"] == {"x1": 7, "x2": 7, "x3": 7}
    assert doc["pencil_max"] == 7
    assert doc["census"]["nontrivial_pairs"] == 35
    assert sum(entry["count"] for entry in doc["by_line"]) == doc["total"]
    assert doc["witness"]["x1"].count("|") == 1


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
    from orchardlab.groups import segre_quadric_points
    from orchardlab.projgeom import (
        QuadricForm,
        enumerate_space,
        on_quadric,
        save_point_set,
    )

    ctx = FieldCtx(5)
    Q = QuadricForm.segre(ctx)
    X = sorted(set(segre_quadric_points(ctx)), key=lambda p: p.key)[:12]
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
    assert doc["total"] >= 0

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
    assert "characteristic" in err and "s-points" not in err
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


def test_verification_failure_exit_code(monkeypatch):
    from orchardlab.incidence import VerificationFailure

    def boom(args):
        raise VerificationFailure("forced")

    monkeypatch.setattr(cli, "cmd_lemma_suite", boom)
    assert cli.main(["lemma-suite"]) == 2


def test_missing_file_is_usage_error():
    assert run(["orchard-threeplanes", "--x1", "/nonexistent/a.pts",
                "--x2", "/nonexistent/b.pts", "--x3", "/nonexistent/c.pts"]) == 1


def test_bad_rational_flag():
    assert run(["bsg-verify", "--field", "5", "--count", 1, "--K", "zebra"]) == 1


def test_k_range_enforced():
    assert run(["bsg-verify", "--field", "5", "--count", 1, "--K", "1/2"]) == 1


def test_experiment_params_validation():
    from fractions import Fraction

    with pytest.raises(cli.UsageError):
        cli.ExperimentParams(t=Fraction(3, 2))
    with pytest.raises(cli.UsageError):
        cli.ExperimentParams(K=Fraction(1, 2))
    with pytest.raises(cli.UsageError):
        cli.ExperimentParams(epsilon=Fraction(0))
    params = cli.ExperimentParams(
        epsilon=Fraction(1, 10), t=Fraction(1, 3), K=Fraction(2), m_max=3
    )
    assert params.t == Fraction(1, 3)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_affine_element_index_follows_key_order(p, n):
    from orchardlab.field import FieldCtx
    from orchardlab.incidence import affine_group_elements

    ctx = FieldCtx(p, n)
    group = sorted(affine_group_elements(ctx), key=lambda g: g.key)
    assert [cli._affine_element(ctx, i) for i in range(len(group))] == group


def test_index_sample_draws_the_sorted_group_sample():
    import random

    from orchardlab.field import FieldCtx
    from orchardlab.incidence import affine_group_elements

    ctx = FieldCtx(5)
    group = sorted(affine_group_elements(ctx), key=lambda g: g.key)
    for seed in range(50):
        # of the 100 elements, k = 3 draws through a set of indices and
        # k = 40 through a shrinking pool
        for k in (3, 40):
            want = random.Random(seed).sample(group, k)
            got = random.Random(seed).sample(range(len(group)), k)
            assert [cli._affine_element(ctx, i) for i in got] == want


def test_bsg_verify_never_builds_the_group(tmp_path, monkeypatch):
    from orchardlab import incidence

    def boom(ctx):
        raise AssertionError("the whole affine group was built")

    monkeypatch.setattr(incidence, "affine_group_elements", boom)
    monkeypatch.setattr(cli, "affine_group_elements", boom, raising=False)
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


def test_malformed_field_flag_is_usage_error(tmp_path, capsys):
    err = _one_line_error(capsys, ["flatten", "--field", "4/1,1", "--out", tmp_path / "f.csv"])
    assert "4/1,1" in err


def test_flatten_negative_m_max_is_usage_error(tmp_path, capsys):
    _one_line_error(capsys, ["flatten", "--field", 5, "--m-max", -1, "--out", tmp_path / "f.csv"])


def test_bsg_verify_negative_count_is_usage_error(tmp_path, capsys):
    out = tmp_path / "bsg.json"
    _one_line_error(capsys, ["bsg-verify", "--field", 5, "--count", -1, "--out", out])
    assert not out.exists()


def test_lemma_suite_unknown_name_is_usage_error(tmp_path, capsys):
    err = _one_line_error(capsys, ["lemma-suite", "--only", "bogus", "--out", tmp_path / "l.json"])
    assert "bogus" in err
    assert all(name in err for name in cli.LEMMA_SUITES)

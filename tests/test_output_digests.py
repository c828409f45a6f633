"""Byte identity of the measure, orchard-threeplanes, example-verify and
lemma-suite reports.

The measure digests were taken from the Fraction/AffElem implementation
of `measures.convolve` that the integer-keyed one replaced; the reports of
both must agree byte for byte at fixed flags and seed.  The threeplanes
digests were taken from the plane-by-plane pencil scan and the set-based
line buckets that the one-pass pencil count and the list buckets replaced.
The example-verify and fixed-point digests were taken from the
`ProjPoint` family check and the Segre-point enumeration of Fix(g) that
the int-coded check and the eigenspace fixed points replaced; the
fixed points from the Segre factors, which replaced the eigenspaces,
keep them.  The F_8
threeplanes and F_9 quadric digests were taken from the `FieldElem`
brute kernel and the `line_through` line keys that the log-code kernels
replaced.
"""

import hashlib
import random

import pytest

from oracles import line_points, segre_quadric_points
from orchardlab import cli
from orchardlab.field import FieldCtx
from orchardlab.projgeom import (
    GeometryError,
    ProjLine,
    ProjPoint,
    QuadricForm,
    enumerate_space,
    on_quadric,
    save_point_set,
)

CASES = [
    (["flatten", "--field", "7", "--gen-count", "16", "--m-max", "1",
      "--seed", "5"],
     "c43cb3e5aa5c135855a075774ace7b67972d7ded3142de5dd5977438e7617bcf"),
    (["flatten", "--field", "3^2", "--gen-count", "8", "--m-max", "1",
      "--seed", "5"],
     "df0172e87b246243fee0f81cad012cfc2641973a1352c825e4e656aaa391cda2"),
    (["bsg-verify", "--field", "7", "--count", "20", "--max-support", "20",
      "--K", "2", "--seed", "5"],
     "2d4e933a6d97391fc38a3fbceb6e615b29c953a4f28b9a76e0b81100b634dd61"),
]


@pytest.mark.parametrize("args,digest", CASES, ids=["flatten-f7", "flatten-f9", "bsg-f7"])
def test_measure_report_digest(tmp_path, args, digest):
    out = tmp_path / "report"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


IDENTITY_CASES = [
    (["example-verify", "--p", "13", "--k", "2"],
     "d901c15e90947c5e4c2f669b58ad074ef9d41a0c2b0fa61924495de2bb2adf18"),
    (["lemma-suite", "--only", "fixed-point-classification"],
     "a10b3b4461712de4acfaa3acbf51aa31cdf16f5afbaa8a4af1e4183bdb73d7cb"),
]


@pytest.mark.parametrize("args,digest", IDENTITY_CASES,
                         ids=["example-verify-p13", "lemma-fixed-points"])
def test_identity_report_digest(tmp_path, args, digest):
    out = tmp_path / "report"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _lines_and_scatter(ctx, seed, lines, per_line, scatter):
    """Deterministic distinct points: `per_line` points on each of a few
    random lines, then `scatter` random points, in a fixed order."""
    rng = random.Random(seed)
    q = ctx.order

    def vector():
        return [[rng.randrange(ctx.p) for _ in range(ctx.n)] for _ in range(4)]

    out, seen = [], set()

    def add(point):
        if point not in seen:
            seen.add(point)
            out.append(point)

    def point():
        while True:
            try:
                return ProjPoint(ctx, vector())
            except GeometryError:    # the zero vector
                pass

    while len(out) < lines * per_line:
        u, v = point(), point()
        if u != v:
            line = ProjLine(ctx, [u.coords, v.coords])
            for x in rng.sample(line_points(line), min(per_line, q + 1)):
                add(x)
    while len(out) < lines * per_line + scatter:
        add(point())
    return out


def _threeplanes(tmp_path, ctx, X1, X2, X3, kernel):
    for name, X in (("x1", X1), ("x2", X2), ("x3", X3)):
        save_point_set(tmp_path / f"{name}.pts", ctx, X)
    report = tmp_path / "report.json"
    args = ["orchard-threeplanes", "--kernel", kernel, "--report", str(report)]
    for name in ("x1", "x2", "x3"):
        args += [f"--{name}", str(tmp_path / f"{name}.pts")]
    assert cli.main(args) == 0
    return hashlib.sha256(report.read_bytes()).hexdigest()


def _pencil_points(ctx, pool):
    """Points of the pencil through {x0 = x1 = 0} missing from pool: three
    on the base line, two more on {x0 = 0}, five on {x1 = x0}."""
    coords = [[0, 0, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1], [0, 1, 1, 2], [0, 1, 2, 0]]
    coords += [[1, 1, a, b] for a, b in ((0, 0), (1, 2), (2, 1), (1, 1), (2, 2))]
    return [p for p in (ProjPoint(ctx, v) for v in coords) if p not in pool]


def _shared_f101():
    # X1, X2 and X3 overlap pairwise and all three share pool[20:30]
    pool = _lines_and_scatter(FieldCtx(101), 3, lines=6, per_line=8, scatter=30)
    extra = _pencil_points(FieldCtx(101), pool)
    return pool[0:40], pool[20:60] + extra[::3], pool[10:30] + pool[55:78] + extra


def _f9():
    pool = _lines_and_scatter(FieldCtx(3, 2), 4, lines=4, per_line=6, scatter=16)
    extra = _pencil_points(FieldCtx(3, 2), pool)
    return pool[0:24], pool[8:32], pool[16:40] + extra


def _f8():
    # over F_8 the coordinates 2 of _pencil_points read as 0, so dedupe
    ctx = FieldCtx(2, 3)
    pool = _lines_and_scatter(ctx, 8, lines=4, per_line=6, scatter=16)
    extra = list(dict.fromkeys(_pencil_points(ctx, pool)))
    return pool[0:24], pool[8:32] + extra[::2], pool[16:40] + extra


def _census_f5():
    # X1 on {x0 = 0}, so the report carries the stabilizer census
    ctx = FieldCtx(5)
    plane = [p for p in enumerate_space(ctx, 3) if p.coords[0].is_zero()]
    rest = _lines_and_scatter(ctx, 6, lines=3, per_line=5, scatter=10)
    return random.Random(5).sample(plane, 8), rest[:15], rest[10:]


THREEPLANES = [
    (_shared_f101, "both",
     "add256953db0a1de44b81bb122d06fc83aeedd55cf711b0452b2e04904f52afd"),
    (_shared_f101, "hash",
     "add256953db0a1de44b81bb122d06fc83aeedd55cf711b0452b2e04904f52afd"),
    (_f9, "both",
     "695fa94a01bb2b1152f5c0878817d312224a3159b30e20f17917b04a4c84e686"),
    (_census_f5, "both",
     "27e9274829e6cf036d8df515c634965925a2d71bb53979f83edf69db307ff798"),
    (_f8, "both",
     "b1335a800f0071ac103e544a45ff374a86c30b243264a1f065c8fa7447a1b7e8"),
]


@pytest.mark.parametrize("sets,kernel,digest", THREEPLANES,
                         ids=["f101-shared-both", "f101-shared-hash", "f9", "f5-census",
                              "f8-both"])
def test_threeplanes_report_digest(tmp_path, sets, kernel, digest):
    X1, X2, X3 = sets()
    ctx = X1[0].ctx
    assert _threeplanes(tmp_path, ctx, X1, X2, X3, kernel) == digest


def test_quadric_report_digest_f9(tmp_path):
    # 30 points of the Segre quadric and 25 off it, with the default kernel
    ctx = FieldCtx(3, 2)
    rng = random.Random(9)
    on = sorted(set(segre_quadric_points(ctx)), key=lambda p: p.key)
    Q = QuadricForm.segre(ctx)
    off = [p for p in enumerate_space(ctx, 3) if not on_quadric(p, Q)]
    save_point_set(tmp_path / "x.pts", ctx, rng.sample(on, 30))
    save_point_set(tmp_path / "s.pts", ctx, rng.sample(off, 25))
    report = tmp_path / "report.json"
    assert cli.main(["orchard-quadric", "--x", str(tmp_path / "x.pts"),
                     "--s", str(tmp_path / "s.pts"), "--quadric", "segre",
                     "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "391dd12fd09421314de3ae6611300741fc6b7d1905c5c678e84510fbb7f8869d"
    )

"""Batch experiment runner.

Subcommands: orchard-threeplanes, orchard-quadric, example-build,
example-verify, flatten, bsg-verify, lemma-suite.  Reports are JSON
(schema key 1) or CSV, deterministic for fixed flags and seed; exact
rationals are emitted as "num/den" strings beside float approximations.

Exit codes: 0 success, 1 usage or I/O error, 2 a checked identity or
inequality failed (this indicates a bug or a genuine counterexample).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from .bsg import all_pass, verify_decomposition
from .constructions import (
    DegenerateParameters,
    build_example,
    classify_fixed_points,
    verify_example,
)
from .field import FieldCtx, FieldElem, FieldError
from .groups import (
    AffElem,
    GroupError,
    StdThreePlaneFrame,
    aff_act,
    aff_centralizer_member,
    aff_commutator,
    aff_compose,
    eta_composed,
    gamma_x,
    gamma_xy,
    is_orthogonal_mod_scalar,
    reflection_lift,
    segre,
    segre_inverse,
)
from .incidence import (
    VerificationFailure,
    count_collinear_triples,
    line_concentration,
    pencil_plane_concentration,
    stabilizer_census_affine,
)
from .measures import (
    AffineGroupOps,
    GroupMeasure,
    MeasureError,
    flattening_report,
    uniform,
)
from .projgeom import (
    GeometryError,
    PointSetFormatError,
    QuadricForm,
    collinear,
    enumerate_space,
    load_point_set,
    on_quadric,
    save_point_set,
)

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


@dataclass
class ExperimentParams:
    """Validated experiment-level scalars shared across the flags."""

    epsilon: Optional[Fraction] = None
    epsilon1: Optional[Fraction] = None
    epsilon2: Optional[Fraction] = None
    epsilon3: Optional[Fraction] = None
    r: Fraction = Fraction(1)
    k: Fraction = Fraction(1)
    t: Optional[Fraction] = None
    m_max: int = 0
    K: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("epsilon", "epsilon1", "epsilon2", "epsilon3"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise UsageError(f"{name} must be positive")
        if self.r < 1:
            raise UsageError("r must be at least 1")
        if self.k < 1:
            raise UsageError("k must be at least 1")
        if self.t is not None and not (0 < self.t < 1):
            raise UsageError("t must lie strictly between 0 and 1")
        if self.m_max < 0:
            raise UsageError("m-max must be nonnegative")
        if self.K < 1:
            raise UsageError("K must be at least 1")


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}") from exc


def frac_fields(x: Fraction) -> Dict:
    return {"exact": f"{x.numerator}/{x.denominator}", "float": float(x)}


def write_json(path: Optional[str], doc: dict) -> None:
    doc = {"schema": SCHEMA_VERSION, **doc}
    payload = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


# -- subcommands -------------------------------------------------------------

def cmd_example_build(args) -> int:
    cfg = build_example(args.p, parse_fraction(args.k))
    prefix = args.out_prefix
    for name, X in (("x1", cfg.X1), ("x2", cfg.X2), ("x3", cfg.X3)):
        save_point_set(f"{prefix}{name}.pts", cfg.ctx, X)
    write_json(
        args.out,
        {
            "p": cfg.p,
            "k": frac_fields(cfg.k),
            "N": cfg.N,
            "d": cfg.d,
            "sizes": {"x1": len(cfg.X1), "x2": len(cfg.X2), "x3": len(cfg.X3)},
            "family_count": len(cfg.family),
            "files": [f"{prefix}x{i}.pts" for i in (1, 2, 3)],
        },
    )
    return 0


def cmd_example_verify(args) -> int:
    cfg = build_example(args.p, parse_fraction(args.k))
    report = verify_example(cfg)
    write_json(args.out, report.as_dict())
    return 0


def cmd_orchard_threeplanes(args) -> int:
    ctx1, X1 = load_point_set(args.x1, args.allow_dup)
    ctx2, X2 = load_point_set(args.x2, args.allow_dup)
    ctx3, X3 = load_point_set(args.x3, args.allow_dup)
    if not (ctx1 is ctx2 is ctx3):
        raise UsageError("point sets live over different fields")
    if args.field and FieldCtx.from_descriptor(args.field) is not ctx1:
        raise UsageError("field flag does not match the point files")
    count = count_collinear_triples(X1, X2, X3, kernel=args.kernel)
    frame = StdThreePlaneFrame(ctx1)
    max_line = {}
    witness = {}
    for name, X in (("x1", X1), ("x2", X2), ("x3", X3)):
        rep = line_concentration(X)
        max_line[name] = rep.max_count
        witness[name] = rep.as_dict()["witness"]
    pencil = pencil_plane_concentration(X3, frame.P1, frame.P2)
    census = None
    if all(frame.P1.contains(x) for x in X1):
        c = stabilizer_census_affine(X1)
        census = {
            "nontrivial_pairs": c.nontrivial_count,
            "closed_form_pairs": c.closed_form_count,
            "disagreements": len(c.disagreements),
        }
    write_json(
        args.report,
        {
            **count.as_dict(),
            "max_line": max_line,
            "witness": witness,
            "pencil_max": pencil.max_pencil_count,
            "census": census,
        },
    )
    return 0


def cmd_orchard_quadric(args) -> int:
    ctx_x, X = load_point_set(args.x, args.allow_dup)
    ctx_s, S = load_point_set(args.s, args.allow_dup)
    if ctx_x is not ctx_s:
        raise UsageError("point sets live over different fields")
    if ctx_x.p == 2:
        # the Segre matrix of 2(x1 x4 - x2 x3) is zero there, and gamma_x
        # needs odd characteristic
        raise UsageError("orchard-quadric needs odd characteristic, not 2")
    Q = (
        QuadricForm.identity(ctx_x)
        if args.quadric == "identity"
        else QuadricForm.segre(ctx_x)
    )
    outside = [p for p in X if not on_quadric(p, Q)]
    inside = [p for p in S if on_quadric(p, Q)]
    if outside:
        raise UsageError(f"{len(outside)} x-points are off the quadric")
    if inside:
        raise UsageError(f"{len(inside)} s-points lie on the quadric")
    count = count_collinear_triples(X, X, S, kernel=args.kernel)
    involution_checks = 0
    for s in S:
        for x in X:
            y = gamma_x(s, x, Q)
            if not (collinear(s, x, y) and gamma_x(s, y, Q) == x):
                raise VerificationFailure(
                    f"quadric involution failed at ({s}, {x})"
                )
            involution_checks += 1
    write_json(
        args.report,
        {
            "total": count.total,
            "max_line_x": line_concentration(X).max_count,
            "max_line_s": line_concentration(S).max_count,
            "involution_checks": involution_checks,
        },
    )
    return 0


def _affine_group_order(ctx) -> int:
    q = ctx.order
    return q * q * (q - 1)


def _affine_element(ctx, index: int) -> AffElem:
    """The index-th affine group element in `AffElem.key` order: a and b
    run over the element codes, c over the nonzero ones."""
    ab, c = divmod(index, ctx.order - 1)
    a, b = divmod(ab, ctx.order)
    return AffElem(ctx, FieldElem(ctx, a), FieldElem(ctx, b), FieldElem(ctx, c + 1))


def _random_affine_elements(ctx, rng, count):
    elems = set()
    nonzero = [e for e in ctx.elements_sorted() if not e.is_zero()]
    all_elems = ctx.elements_sorted()
    while len(elems) < count:
        g = AffElem(
            ctx, rng.choice(all_elems), rng.choice(all_elems), rng.choice(nonzero)
        )
        if not g.is_identity():
            elems.add(g)
    return sorted(elems, key=lambda g: g.key)


def cmd_flatten(args) -> int:
    if args.group != "affine":
        raise UsageError("only the affine group is wired to the runner")
    ExperimentParams(m_max=args.m_max)
    ctx = FieldCtx.from_descriptor(args.field)
    order = _affine_group_order(ctx)
    if not 1 <= args.gen_count <= order - 1:
        raise UsageError(
            f"--gen-count must be in 1..{order - 1}: the affine group over "
            f"{ctx} has {order - 1} non-identity elements"
        )
    rng = random.Random(args.seed)
    gens = _random_affine_elements(ctx, rng, args.gen_count)
    mu = uniform(AffineGroupOps(ctx), gens)
    rows = flattening_report(mu, args.m_max)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["m", "support", "l2_sq", "l2_sq_float", "linf", "linf_float",
             "ratio_sq", "ratio_sq_float"]
        )
        for row in rows:
            writer.writerow(
                [
                    row.m,
                    row.support,
                    f"{row.l2_sq.numerator}/{row.l2_sq.denominator}",
                    float(row.l2_sq),
                    f"{row.linf.numerator}/{row.linf.denominator}",
                    float(row.linf),
                    f"{row.ratio_sq.numerator}/{row.ratio_sq.denominator}",
                    float(row.ratio_sq),
                ]
            )
    return 0


def cmd_bsg_verify(args) -> int:
    if args.count < 0:
        raise UsageError("--count must be nonnegative")
    ctx = FieldCtx.from_descriptor(args.field)
    order = _affine_group_order(ctx)
    if not 1 <= args.max_support <= order:
        raise UsageError(
            f"--max-support must be in 1..{order}: the affine group over "
            f"{ctx} has {order} elements"
        )
    group = AffineGroupOps(ctx)
    rng = random.Random(args.seed)
    K = parse_fraction(args.K)
    ExperimentParams(K=K)
    failures = []
    instances = []
    for index in range(args.count):
        # sampling indices draws what sampling the key-sorted group would
        support = [
            _affine_element(ctx, i)
            for i in rng.sample(range(order), rng.randint(1, args.max_support))
        ]
        weights = [rng.randint(1, 20) for _ in support]
        total = sum(weights)
        nu = GroupMeasure(
            group,
            {g: Fraction(w, total) for g, w in zip(support, weights)},
        )
        checks = verify_decomposition(nu, K)
        ok = all_pass(checks)
        if not ok:
            failures.append(index)
        instances.append(
            {
                "index": index,
                "support": len(nu),
                "pass": ok,
                "checks": [c.as_dict() for c in checks],
            }
        )
    write_json(
        args.out,
        {
            "K": frac_fields(K),
            "count": args.count,
            "failures": failures,
            "instances": instances,
        },
    )
    return 2 if failures else 0


def _suite_projection_agreement():
    ctx = FieldCtx(3)
    frame = StdThreePlaneFrame(ctx)
    space = enumerate_space(ctx, 3)
    off = [p for p in space if frame.off_both(p)]
    plane_points = [p for p in space if frame.P1.contains(p)]
    checked = 0
    for x in off:
        for y in off:
            g = gamma_xy(x, y)
            for a in plane_points:
                if aff_act(g, a) != eta_composed(x, y, a):
                    return False, f"disagreement at ({x}, {y}, {a})"
                checked += 1
    return True, f"{checked} exhaustive checks over F3"


def _suite_commutator():
    ctx = FieldCtx(3)
    elems = list(ctx.elements())
    nonzero = [c for c in elems if not c.is_zero()]
    checked = 0
    for a in elems:
        for b in elems:
            g = AffElem(ctx, a, b, 1)
            for a2 in elems:
                for b2 in elems:
                    for c2 in nonzero:
                        h = AffElem(ctx, a2, b2, c2)
                        want = AffElem(ctx, g.a * (h.c - 1), g.b * (h.c - 1), 1)
                        if aff_commutator(g, h) != want:
                            return False, f"mismatch at ({g}, {h})"
                        checked += 1
    return True, f"{checked} exhaustive checks over F3"


def _suite_centralizer():
    ctx = FieldCtx(5)
    elems = list(ctx.elements())
    nonzero = [c for c in elems if not c.is_zero()]
    checked = 0
    for a in elems:
        for b in elems:
            for m in nonzero:
                if m.is_one():
                    continue
                g = AffElem(ctx, a, b, m)
                for x in elems:
                    for y in elems:
                        for z in nonzero:
                            h = AffElem(ctx, x, y, z)
                            formula = aff_centralizer_member(h, g)
                            commutes = aff_compose(h, g) == aff_compose(g, h)
                            if formula != commutes:
                                return False, f"mismatch at ({h}, {g})"
                            checked += 1
    return True, f"{checked} exhaustive checks over F5"


def _suite_reflection():
    ctx = FieldCtx(5)
    Q = QuadricForm.identity(ctx)
    space = enumerate_space(ctx, 3)
    on_q = [p for p in space if on_quadric(p, Q)]
    off_q = [p for p in space if not on_quadric(p, Q)]
    checked = 0
    for x in off_q:
        lift = reflection_lift(x, Q)
        if not (lift * lift).is_identity():
            return False, f"lift at {x} is not an involution"
        ok, lam = is_orthogonal_mod_scalar(lift, Q)
        if not ok:
            return False, f"lift at {x} is not orthogonal"
        for y in on_q:
            z = gamma_x(x, y, Q)
            if not on_quadric(z, Q):
                return False, f"image off the quadric at ({x}, {y})"
            if not collinear(x, y, z):
                return False, f"collinearity failed at ({x}, {y})"
            if gamma_x(x, z, Q) != y:
                return False, f"involution failed at ({x}, {y})"
            if lift.act(y) != z:
                return False, f"lift disagrees with the involution at ({x}, {y})"
            checked += 1
    return True, f"{checked} exhaustive checks over F5, B = I"


def _suite_segre():
    ctx = FieldCtx(3)
    line = enumerate_space(ctx, 1)
    seg_quadric = QuadricForm.segre(ctx)
    checked = 0
    for u in line:
        for w in line:
            image = segre(u, w)
            if not on_quadric(image, seg_quadric):
                return False, f"image off the quadric at ({u}, {w})"
            if segre_inverse(image) != (u, w):
                return False, f"roundtrip failed at ({u}, {w})"
            checked += 1
    return True, f"{checked} exhaustive checks over F3"


def _suite_fixed_points(seed=0, total=50):
    rng = random.Random(seed)
    outcomes = {}
    for ctx in (FieldCtx(5), FieldCtx(3, 2)):
        Q = QuadricForm.segre(ctx)
        space = enumerate_space(ctx, 3)
        off_q = [p for p in space if not on_quadric(p, Q)]
        produced = 0
        while produced < total:
            x1, x2 = rng.sample(off_q, 2)
            g = reflection_lift(x1, Q) * reflection_lift(x2, Q)
            if g.is_identity():
                continue
            produced += 1
            cls = classify_fixed_points(g, ctx)
            if not cls.pso_verified:
                return False, "reflection pair failed the determinant test"
            if cls.kind == "OTHER":
                return False, f"OTHER outcome for {g}"
            outcomes[cls.kind] = outcomes.get(cls.kind, 0) + 1
    return True, f"outcomes {outcomes}"


LEMMA_SUITES = {
    "projection-vs-algebra": _suite_projection_agreement,
    "commutator-formula": _suite_commutator,
    "centralizer-formula": _suite_centralizer,
    "quadric-reflection": _suite_reflection,
    "segre-roundtrip": _suite_segre,
    "fixed-point-classification": _suite_fixed_points,
}


def cmd_lemma_suite(args) -> int:
    unknown = sorted(set(args.only or ()) - set(LEMMA_SUITES))
    if unknown:
        raise UsageError(
            f"unknown suite {', '.join(unknown)}; choose from {', '.join(LEMMA_SUITES)}"
        )
    results = {}
    failed = False
    for name, fn in LEMMA_SUITES.items():
        if args.only and name not in args.only:
            continue
        ok, detail = fn()
        results[name] = {"pass": ok, "detail": detail}
        failed = failed or not ok
    write_json(args.out, {"suites": results})
    return 2 if failed else 0


# -- argument wiring ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orchardlab",
        description="exact collinearity-counting experiments in P^3",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example-build", help="emit the extremal three-plane sets")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", default="2")
    p.add_argument("--out-prefix", default="example_")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_example_build)

    p = sub.add_parser("example-verify", help="check the extremal configuration")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", default="2")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_example_verify)

    p = sub.add_parser("orchard-threeplanes", help="count triples across three sets")
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    p.add_argument("--x3", required=True)
    p.add_argument("--field", default=None)
    p.add_argument("--kernel", choices=["hash", "brute", "both"], default="both")
    p.add_argument("--allow-dup", action="store_true")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_orchard_threeplanes)

    p = sub.add_parser("orchard-quadric", help="count triples with two points on a quadric")
    p.add_argument("--x", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--quadric", choices=["identity", "segre"], default="identity")
    p.add_argument("--kernel", choices=["hash", "brute", "both"], default="both")
    p.add_argument("--allow-dup", action="store_true")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_orchard_quadric)

    p = sub.add_parser("flatten", help="symmetric convolution power diagnostics")
    p.add_argument("--group", default="affine")
    p.add_argument("--field", required=True)
    p.add_argument("--gen-count", type=int, default=2)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_flatten)

    p = sub.add_parser("bsg-verify", help="measure decomposition inequality suite")
    p.add_argument("--field", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-support", type=int, default=12)
    p.add_argument("--K", default="1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bsg_verify)

    p = sub.add_parser("lemma-suite", help="exhaustive identity suites")
    p.add_argument("--only", nargs="*", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_lemma_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, DegenerateParameters, PointSetFormatError, FieldError,
            GeometryError, GroupError, MeasureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

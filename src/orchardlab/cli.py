"""Batch experiment runner.

Subcommands: orchard-threeplanes, orchard-quadric, example-build,
example-verify, flatten, bsg-verify, lemma-suite.  Reports are JSON
(schema key 1) or CSV, deterministic for fixed flags and seed; exact
rationals are emitted as "num/den" strings beside float approximations.

Exit codes: 0 success, 1 usage or I/O error (any `OrchardError` or
`OSError`, bad arguments included), 2 a checked identity or inequality
failed (this indicates a bug or a genuine counterexample).  Either comes
with one stderr line and no traceback; a failed `bsg-verify` instance or
`lemma-suite` suite writes its report first, then the line.

A `lemma-suite` suite is a generator of checks, one case each: True, or
the failed case's detail.  `_judge` stops at the first case that is not
exactly True; a passing suite reports its summary, the tuples it walked.

Each job is one fresh process that compiles every module it imports, so
each subcommand imports the modules it runs inside its own function, and
the library does the same below it: a triple count never loads the
measure code or `groups`, a measure job never loads the point-counting
code, and `fractions` is loaded only where a fraction is parsed, built
or reported.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from typing import TYPE_CHECKING, NamedTuple

from .errors import OrchardError, VerificationFailure
from .field import FieldCtx

if TYPE_CHECKING:
    from fractions import Fraction

SCHEMA_VERSION = 1


class UsageError(OrchardError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are UsageErrors (exit 1 with one
    line from `main`), not argparse's usage text and exit 2; its
    subparsers are of this class too."""

    def error(self, message):
        raise UsageError(message)


def parse_fraction(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}") from exc


def frac_fields(x: Fraction) -> dict:
    return {"exact": f"{x.numerator}/{x.denominator}", "float": float(x)}


_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_SPECIALS.get(text, text)


# the JSON text of a scalar by its exact type; subclasses go by isinstance
_SCALAR_TEXT = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}

# a list of dicts by columns, field name -> iterable of JSON scalars, for `write_json`
Rows = NamedTuple("Rows", [("columns", dict)])


def _scalar_text(x):
    """The JSON text of a scalar, or None for a list, tuple or dict."""
    text = _SCALAR_TEXT.get(type(x))
    if text:
        return text(x)
    for kind in (str, int, float):
        if isinstance(x, kind):
            return _SCALAR_TEXT[kind](x)
    if isinstance(x, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def write_json(path: str | None, doc: dict) -> None:
    """Writes {"schema": SCHEMA_VERSION, **doc} and a newline to path, or
    to stdout for None: the bytes `json.JSONEncoder(indent=2,
    sort_keys=True)` gives, made in one recursive pass and written in
    pieces of about 512 lines (or `Rows` rows) each."""
    out = open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)
    with out as fh:
        parts = []
        append = parts.append
        escape = _SCALAR_TEXT[str]
        exact = _SCALAR_TEXT.get

        def emit(x, nl):
            # x, a list, tuple, dict or Rows, starts mid-line on a line
            # whose newline and indent are nl
            is_dict = isinstance(x, dict)
            brackets = "{}" if is_dict else "[]"
            inner = nl + "  "
            comma = "," + inner
            sep = start = brackets[0] + inner
            if type(x) is Rows:
                # one template for every row; one text function a column if its types agree
                names, columns = zip(*sorted(x.columns.items()))
                row = (comma + "  ").join(escape(f).replace("%", "%%") + ": %s" for f in names)
                row = "{" + inner + "  " + row + inner + "}"
                while (piece := [list(itertools.islice(c, 512)) for c in columns])[0]:
                    texts = [map(exact(type(c[0]), _scalar_text) if len(set(map(type, c))) == 1
                                 else _scalar_text, c) for c in piece]
                    fh.write("".join(parts) + sep + comma.join(map(row.__mod__, zip(*texts))))
                    parts.clear()
                    sep = comma
            else:
                for item in sorted(x.items()) if is_dict else x:
                    if is_dict:
                        key, item = item
                        sep += escape(key if isinstance(key, str) else _scalar_text(key)) + ": "
                    text = exact(type(item), _scalar_text)(item)
                    if text is None:
                        append(sep)
                        emit(item, inner)
                    else:
                        append(sep + text)
                    sep = comma
                    if len(parts) > 512:
                        # one write a piece: on an unbuffered stdout each is a
                        # syscall, and larger pieces raise the job's peak RSS
                        fh.write("".join(parts))
                        parts.clear()
            append(brackets if sep is start else nl + brackets[1])

        emit({"schema": SCHEMA_VERSION, **doc}, "\n")
        append("\n")
        fh.write("".join(parts))


# -- subcommands -------------------------------------------------------------

def cmd_example_build(args) -> int:
    from .constructions import build_example
    from .projgeom import save_point_set

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
    from .constructions import build_example, verify_example

    cfg = build_example(args.p, parse_fraction(args.k))
    report = verify_example(cfg)
    write_json(args.out, report.as_dict())
    return 0


def cmd_orchard_threeplanes(args) -> int:
    from .incidence import (
        count_collinear_triples,
        line_concentration,
        line_keys_by_text,
        line_text,
        pencil_plane_concentration,
        stabilizer_census_affine,
    )
    from .projgeom import StdThreePlaneFrame, load_point_set

    ctx1, X1 = load_point_set(args.x1, args.allow_dup)
    ctx2, X2 = load_point_set(args.x2, args.allow_dup)
    ctx3, X3 = load_point_set(args.x3, args.allow_dup)
    if not (ctx1 is ctx2 is ctx3):
        raise UsageError("point sets live over different fields")
    if args.field and FieldCtx.from_descriptor(args.field) is not ctx1:
        raise UsageError("field flag does not match the point files")
    frame = StdThreePlaneFrame(ctx1)
    census = None
    # the census first: its |X1|^2 guard is the tightest of the passes
    if all(frame.P1.contains(x) for x in X1):
        c = stabilizer_census_affine(X1)
        census = {
            "nontrivial_pairs": c.nontrivial_count,
            "closed_form_pairs": c.closed_form_count,
            "disagreements": c.closed_form_count - c.nontrivial_count,
        }
    count = count_collinear_triples(X1, X2, X3, kernel=args.kernel)
    max_line = {}
    witness = {}
    for name, X in (("x1", X1), ("x2", X2), ("x3", X3)):
        rep = line_concentration(X)
        max_line[name] = rep.max_count
        witness[name] = line_text(ctx1, rep.witness) if rep.witness else None
    pencil = pencil_plane_concentration(X3, frame.P1, frame.P2)
    keys = line_keys_by_text(ctx1, count.by_line)
    write_json(
        args.report,
        {
            "total": count.total,
            "by_line": Rows({"count": map(count.by_line.__getitem__, keys),
                             "line": map(line_text, itertools.repeat(ctx1), keys)}),
            "max_line": max_line,
            "witness": witness,
            "pencil_max": pencil.max_count,
            "census": census,
        },
    )
    return 0


def cmd_orchard_quadric(args) -> int:
    from .groups import check_quadric_involutions
    from .incidence import line_concentration
    from .projgeom import QuadricForm, load_point_set

    ctx_x, X = load_point_set(args.x, args.allow_dup)
    ctx_s, S = load_point_set(args.s, args.allow_dup)
    if ctx_x is not ctx_s:
        raise UsageError("point sets live over different fields")
    Q = (
        QuadricForm.identity(ctx_x)
        if args.quadric == "identity"
        else QuadricForm.segre(ctx_x)
    )
    # checks every x on Q and every s off it, and counts from the images
    count = check_quadric_involutions(Q, S, X)
    write_json(
        args.report,
        {
            "total": count.triples,
            "max_line_x": line_concentration(X).max_count,
            "max_line_s": line_concentration(S).max_count,
            "involution_checks": count.pairs,
        },
    )
    return 0


def _affine_group_order(ctx) -> int:
    q = ctx.order
    return q * q * (q - 1)


def _random_affine_keys(group, rng, count):
    """The keys of count distinct non-identity elements, drawn by a, b, c,
    in `AffElem.key` order."""
    ctx = group.ctx
    q = ctx.order
    identity = ctx.one().code - 1   # a = b = 0, c = 1
    indices = set()
    while len(indices) < count:
        index = (rng.randrange(q) * q + rng.randrange(q)) * (q - 1) + rng.randrange(q - 1)
        if index != identity:
            indices.add(index)
    return [group.index_key(i) for i in sorted(indices)]


def _random_measure(group, rng, max_support):
    """A probability measure on 1 to max_support distinct elements with
    weights 1 to 20, drawn by index: sampling indices draws what sampling
    the key-sorted group would."""
    from .measures import GroupMeasure

    support = rng.sample(range(_affine_group_order(group.ctx)), rng.randint(1, max_support))
    weights = [rng.randint(1, 20) for _ in support]
    return GroupMeasure.from_numerators(
        group, dict(zip(map(group.index_key, support), weights)), sum(weights))


def cmd_flatten(args) -> int:
    import csv
    import random

    from .measures import AffineGroupOps, GroupMeasure, flattening_report

    if args.group != "affine":
        raise UsageError("only the affine group is wired to the runner")
    if args.m_max < 0:
        raise UsageError("m-max must be nonnegative")
    ctx = FieldCtx.from_descriptor(args.field)
    order = _affine_group_order(ctx)
    if not 1 <= args.gen_count <= order - 1:
        raise UsageError(
            f"--gen-count must be in 1..{order - 1}: the affine group over "
            f"{ctx} has {order - 1} non-identity elements"
        )
    group = AffineGroupOps(ctx)
    gens = _random_affine_keys(group, random.Random(args.seed), args.gen_count)
    mu = GroupMeasure.from_numerators(group, dict.fromkeys(gens, 1), len(gens))
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
    import random

    from .bsg import all_pass, verify_decomposition
    from .measures import AffineGroupOps

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
    if K < 1:
        raise UsageError("K must be at least 1")
    failures = []
    instances = []
    for index in range(args.count):
        nu = _random_measure(group, rng, args.max_support)
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
    if failures:
        raise VerificationFailure(
            f"{len(failures)} of {args.count} instances failed, the first at "
            f"indices {', '.join(map(str, failures[:5]))}"
        )
    return 0


def _judge(suite):
    """The suite as LEMMA_SUITES calls it: (False, its first case not exactly
    True), resumed no further, or (True, the summary the generator returns)."""
    def run():
        cases = suite()
        try:
            case = next(cases)
            while case is True:
                case = next(cases)
        except StopIteration as done:
            return True, done.value
        return False, case
    return run


@_judge
def _suite_projection_agreement():
    from .groups import aff_act, eta_composed, gamma_xy
    from .projgeom import StdThreePlaneFrame, enumerate_space

    ctx = FieldCtx(3)
    frame = StdThreePlaneFrame(ctx)
    space = enumerate_space(ctx, 3)
    off = [p for p in space if frame.off_both(p)]
    plane_points = [p for p in space if frame.P1.contains(p)]
    for x, y in itertools.product(off, off):
        g = gamma_xy(x, y)
        for a in plane_points:
            yield aff_act(g, a) == eta_composed(x, y, a) or f"disagreement at ({x}, {y}, {a})"
    return f"{len(off) ** 2 * len(plane_points)} exhaustive checks over F3"


@_judge
def _suite_commutator():
    from .groups import AffElem, aff_commutator

    ctx = FieldCtx(3)
    elems = list(ctx.elements())
    nonzero = [c for c in elems if not c.is_zero()]
    for a, b in itertools.product(elems, elems):
        g = AffElem(ctx, a, b, 1)
        for a2, b2, c2 in itertools.product(elems, elems, nonzero):
            h = AffElem(ctx, a2, b2, c2)
            want = AffElem(ctx, g.a * (h.c - 1), g.b * (h.c - 1), 1)
            yield aff_commutator(g, h) == want or f"mismatch at ({g}, {h})"
    return f"{len(elems) ** 4 * len(nonzero)} exhaustive checks over F3"


@_judge
def _suite_centralizer():
    from .groups import AffElem, aff_centralizer_member, aff_compose

    ctx = FieldCtx(5)
    elems = list(ctx.elements())
    nonzero = [c for c in elems if not c.is_zero()]
    nonunit = [m for m in nonzero if not m.is_one()]
    for a, b, m in itertools.product(elems, elems, nonunit):
        g = AffElem(ctx, a, b, m)
        for x, y, z in itertools.product(elems, elems, nonzero):
            h = AffElem(ctx, x, y, z)
            commutes = aff_compose(h, g) == aff_compose(g, h)
            yield aff_centralizer_member(h, g) == commutes or f"mismatch at ({h}, {g})"
    return f"{len(elems) ** 4 * len(nonunit) * len(nonzero)} exhaustive checks over F5"


@_judge
def _suite_reflection():
    from .groups import gamma_x, is_orthogonal_mod_scalar, reflection_lift
    from .projgeom import QuadricForm, collinear, enumerate_space, on_quadric

    ctx = FieldCtx(5)
    Q = QuadricForm.identity(ctx)
    space = enumerate_space(ctx, 3)
    on_q = [p for p in space if on_quadric(p, Q)]
    off_q = [p for p in space if not on_quadric(p, Q)]
    for x in off_q:
        lift = reflection_lift(x, Q)
        yield (lift * lift).is_identity() or f"lift at {x} is not an involution"
        yield is_orthogonal_mod_scalar(lift, Q)[0] or f"lift at {x} is not orthogonal"
        for y in on_q:
            z = gamma_x(x, y, Q)
            yield on_quadric(z, Q) or f"image off the quadric at ({x}, {y})"
            yield collinear(x, y, z) or f"collinearity failed at ({x}, {y})"
            yield gamma_x(x, z, Q) == y or f"involution failed at ({x}, {y})"
            yield lift.act(y) == z or f"lift disagrees with the involution at ({x}, {y})"
    return f"{len(off_q) * len(on_q)} exhaustive checks over F5, B = I"


@_judge
def _suite_segre():
    from .groups import segre, segre_inverse
    from .projgeom import QuadricForm, enumerate_space, on_quadric

    ctx = FieldCtx(3)
    line = enumerate_space(ctx, 1)
    seg_quadric = QuadricForm.segre(ctx)
    for u, w in itertools.product(line, line):
        image = segre(u, w)
        yield on_quadric(image, seg_quadric) or f"image off the quadric at ({u}, {w})"
        yield segre_inverse(image) == (u, w) or f"roundtrip failed at ({u}, {w})"
    return f"{len(line) ** 2} exhaustive checks over F3"


@_judge
def _suite_fixed_points():
    import random

    from .constructions import classify_fixed_points
    from .groups import reflection_lift
    from .projgeom import QuadricForm, enumerate_space, on_quadric

    rng = random.Random(0)
    outcomes = {}
    for ctx in (FieldCtx(5), FieldCtx(3, 2)):
        Q = QuadricForm.segre(ctx)
        space = enumerate_space(ctx, 3)
        off_q = [p for p in space if not on_quadric(p, Q)]
        for _ in range(50):
            x1, x2 = rng.sample(off_q, 2)
            g = reflection_lift(x1, Q) * reflection_lift(x2, Q)
            cls = classify_fixed_points(g, ctx)
            yield cls.pso_verified or "reflection pair failed the determinant test"
            yield cls.kind != "OTHER" or f"OTHER outcome for {g}"
            outcomes[cls.kind] = outcomes.get(cls.kind, 0) + 1
    return f"outcomes {outcomes}"


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
    for name, fn in LEMMA_SUITES.items():
        if args.only and name not in args.only:
            continue
        ok, detail = fn()
        results[name] = {"pass": ok, "detail": detail}
    write_json(args.out, {"suites": results})
    failed = [name for name, result in results.items() if not result["pass"]]
    if failed:
        raise VerificationFailure(f"suites failed: {', '.join(failed)}")
    return 0


# -- argument wiring ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--kernel", choices=["hash", "brute", "both"], default="hash")
    p.add_argument("--allow-dup", action="store_true")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_orchard_threeplanes)

    p = sub.add_parser("orchard-quadric", help="count triples with two points on a quadric")
    p.add_argument("--x", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--quadric", choices=["identity", "segre"], default="identity")
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
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (OrchardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

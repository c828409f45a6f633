"""Acceptance suite: one test per numbered criterion, each printing a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Every comparison is exact; the stated per-criterion wall-clock budgets
are asserted too.  Criterion 1 is expected to fail in part: the
configuration's index pairs with exponent sum outside [-N, N] modulo
p - 1 put the middle point outside the second set, so neither "all
family triples in the right sets" nor "triple count >= family size" can
hold; the assertions are kept as stated and the failure is documented.
"""

import gc
import random
import time
from fractions import Fraction

from oracles import affine_group_elements, mulclose, random_measure, random_smooth_form
from orchardlab.bsg import all_pass, verify_decomposition
from orchardlab.constructions import (
    build_example,
    classify_fixed_points,
    diagonalize_quadric,
    normalize_to_segre,
    to_segre_form,
    verify_example,
)
from orchardlab.field import FieldCtx
from orchardlab.groups import (
    AffElem,
    PGLElem,
    StdThreePlaneFrame,
    aff_act,
    aff_centralizer_member,
    aff_commutator,
    aff_compose,
    eta_composed,
    gamma_x,
    gamma_xy,
    reflection_lift,
    reflection_matrix,
)
from orchardlab.incidence import (
    count_collinear_triples,
    free_tuples,
    omega_set,
)
from orchardlab.measures import (
    AffineGroupOps,
    convolve,
    flattening_report,
    l1_norm,
    l2_norm_sq,
)
from orchardlab.projgeom import (
    ProjPoint,
    QuadricForm,
    collinear,
    enumerate_space,
    on_quadric,
)

F3 = FieldCtx(3)
F5 = FieldCtx(5)
F7 = FieldCtx(7)
F9 = FieldCtx(3, 2)


def _finish(num, label, t0, limit, failures):
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < limit
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'} "
          f"{label} ({elapsed:.1f}s / {limit}s budget)")
    for msg in failures:
        print(f"              - {msg}")
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds {limit}s budget"
    assert not failures, "; ".join(failures)


def test_criterion_01_extremal_example():
    t0 = time.perf_counter()
    failures = []
    cfg = build_example(7, 2)
    for name, X in (("X1", cfg.X1), ("X2", cfg.X2), ("X3", cfg.X3)):
        if len(X) != 35:
            failures.append(f"|{name}| = {len(X)} != 35")
    report = verify_example(cfg)
    if not report.all_collinear:
        failures.append("a family triple is not collinear")
    if not report.all_pairwise_distinct:
        failures.append("a family triple has repeated members")
    if not report.in_sets_all:
        failures.append(
            f"family triples in the right sets: {report.in_sets_count}/1225 "
            f"(first outside at (i,j,t,z) = {report.first_outside}; its "
            f"exponent sum escapes [-N, N] mod p-1)"
        )
    if report.triple_total < 1225:
        failures.append(
            f"triple count {report.triple_total} < 1225 (the in-set family "
            f"triples are the only collinear triples of these sets)"
        )
    if not report.dichotomy_ok:
        failures.append("line concentration dichotomy violated")
    _finish(1, "extremal three-plane example, p=7, k=2", t0, 10, failures)


def test_criterion_02_projection_agreement():
    t0 = time.perf_counter()
    failures = []
    frame = StdThreePlaneFrame(F3)
    space = enumerate_space(F3, 3)
    off = [p for p in space if frame.off_both(p)]
    plane_pts = [p for p in space if frame.P1.contains(p)]
    checked = 0
    for x in off:
        for y in off:
            g = gamma_xy(x, y)
            for a in plane_pts:
                if aff_act(g, a) != eta_composed(x, y, a):
                    failures.append(f"F3 disagreement at ({x}, {y}, {a})")
                checked += 1
    rng = random.Random(2024)
    frame7 = StdThreePlaneFrame(F7)
    space7 = enumerate_space(F7, 3)
    off7 = [p for p in space7 if frame7.off_both(p)]
    plane7 = [p for p in space7 if frame7.P1.contains(p)]
    for _ in range(500):
        x, y, a = rng.choice(off7), rng.choice(off7), rng.choice(plane7)
        if aff_act(gamma_xy(x, y), a) != eta_composed(x, y, a):
            failures.append(f"F7 disagreement at ({x}, {y}, {a})")
    _finish(2, f"projection vs algebra ({checked} exhaustive + 500 sampled)",
            t0, 30, failures)


def test_criterion_03_commutator_and_centralizer():
    t0 = time.perf_counter()
    failures = []
    els3 = list(F3.elements())
    nonzero3 = [c for c in els3 if not c.is_zero()]
    for a in els3:
        for b in els3:
            g = AffElem(F3, a, b, 1)
            for a2 in els3:
                for b2 in els3:
                    for c2 in nonzero3:
                        h = AffElem(F3, a2, b2, c2)
                        want = AffElem(F3, g.a * (h.c - 1), g.b * (h.c - 1), 1)
                        if aff_commutator(g, h) != want:
                            failures.append(f"commutator mismatch at ({g}, {h})")
    els5 = list(F5.elements())
    nonzero5 = [c for c in els5 if not c.is_zero()]
    group5 = [
        AffElem(F5, a, b, c) for a in els5 for b in els5 for c in nonzero5
    ]
    for g in group5:
        if g.c.is_one():
            continue
        for h in group5:
            formula = aff_centralizer_member(h, g)
            commutes = aff_compose(h, g) == aff_compose(g, h)
            if formula != commutes:
                failures.append(f"centralizer mismatch at ({h}, {g})")
    _finish(3, "commutator formula (F3) and centralizer formula (F5)",
            t0, 30, failures)


def test_criterion_04_reflection_lift():
    t0 = time.perf_counter()
    failures = []
    Q = QuadricForm.identity(F5)
    B = Q.B
    space = enumerate_space(F5, 3)
    on_q = [p for p in space if on_quadric(p, Q)]
    off_q = [p for p in space if not on_quadric(p, Q)]
    for x in off_q:
        raw = reflection_matrix(x, Q)
        for i in range(4):
            for j in range(4):
                acc = F5.zero()
                for k in range(4):
                    for l in range(4):
                        acc = acc + raw[k][i] * B[k][l] * raw[l][j]
                if acc != B[i][j]:
                    failures.append(f"lift at {x} not orthogonal (lambda 1)")
        lift = reflection_lift(x, Q)
        if not (lift * lift).is_identity():
            failures.append(f"lift at {x} is not an involution")
        for y in on_q:
            z = gamma_x(x, y, Q)
            if not collinear(x, y, z):
                failures.append(f"collinearity failed at ({x}, {y})")
            if gamma_x(x, z, Q) != y:
                failures.append(f"involution failed at ({x}, {y})")
            if lift.act(y) != z:
                failures.append(f"lift action disagrees at ({x}, {y})")
        if failures:
            break
    _finish(4, "quadric reflection lift, exhaustive over F5 with B = I",
            t0, 60, failures)


def _special_elements(ctx, rng, count):
    """Verified-special elements: reflection pairs mixed with ruling maps."""
    Q = QuadricForm.segre(ctx)
    space = enumerate_space(ctx, 3)
    off_q = [p for p in space if not on_quadric(p, Q)]
    nonzero = [e for e in ctx.elements_sorted() if not e.is_zero()]
    out = []
    while len(out) < count:
        kind = len(out) % 4
        if kind in (0, 1):
            x1, x2 = rng.sample(off_q, 2)
            g = reflection_lift(x1, Q) * reflection_lift(x2, Q)
        elif kind == 2:
            c = rng.choice(nonzero)
            g = PGLElem(ctx, [[1, 0, 0, 0], [0, c, 0, 0],
                              [0, 0, 1, 0], [0, 0, 0, c]])
        else:
            a = rng.choice(list(ctx.elements_sorted()))
            g = PGLElem(ctx, [[1, a, 0, 0], [0, 1, 0, 0],
                              [0, 0, 1, a], [0, 0, 0, 1]])
        if not g.is_identity():
            out.append(g)
    return out


def test_criterion_05_fixed_point_classification():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(77)
    outcomes = {}
    for ctx in (F5, F9):
        for g in _special_elements(ctx, rng, 100):
            cls = classify_fixed_points(g, ctx)
            if not cls.pso_verified:
                failures.append(f"element over {ctx} failed the special test")
                continue
            outcomes[cls.kind] = outcomes.get(cls.kind, 0) + 1
            if cls.kind == "OTHER":
                failures.append(f"OTHER classification over {ctx}: {g}")
    _finish(5, f"fixed-point classification, 200 elements {outcomes}",
            t0, 120, failures)


def test_criterion_06_almost_invariance_bounds():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(4242)
    instances = 0
    for ctx in (F5, F7):
        frame = StdThreePlaneFrame(ctx)
        plane_pts = [
            p
            for p in enumerate_space(ctx, 3)
            if frame.P1.contains(p) and not p.coords[1].is_zero()
        ]
        while instances < (25 if ctx is F5 else 50):
            gens = [
                AffElem(
                    ctx,
                    rng.randrange(ctx.p),
                    rng.randrange(ctx.p),
                    rng.randrange(1, ctx.p),
                )
                for _ in range(2)
            ]
            G_set, truncated = mulclose(gens, aff_compose, AffElem.identity(ctx))
            if truncated:
                continue
            X = rng.sample(plane_pts, rng.randint(4, 7))
            k = rng.choice([1, 2])
            ft = free_tuples(X, G_set, k, aff_act)
            if not ft.tuples:
                continue
            t = rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                            Fraction(2, 3)])
            report = omega_set(ft, G_set, t, aff_act)
            n = report.tuple_count
            u, v = t.numerator, t.denominator
            if report.mass > n * n:
                failures.append(f"mass bound violated on instance {instances}")
            if len(report.elements) ** v > (2**v) * n ** (v + u):
                failures.append(f"size bound violated on instance {instances}")
            instances += 1
    _finish(6, f"almost-invariance bounds on {instances} free instances",
            t0, 60, failures)


def test_criterion_07_measure_suite():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(99)
    pools = []
    for ctx in (F5, F7):
        group = AffineGroupOps(ctx)
        elements = sorted(affine_group_elements(ctx), key=lambda g: g.key)
        pools.append((group, [
            random_measure(group, elements, rng) for _ in range(250)
        ]))
    for group, measures in pools:
        for i, mu in enumerate(measures):
            other = measures[(i + 1) % len(measures)]
            conv = convolve(mu, other)
            if conv.total_mass() != 1:
                failures.append(f"mass not preserved at measure {i}")
            if l2_norm_sq(conv) > l1_norm(mu) ** 2 * l2_norm_sq(other):
                failures.append(f"Young violated at measure {i}")
            # rows check the convolution-square (L-inf vs squared L2)
            # bound and monotone decay; violations raise inside
            rows = flattening_report(mu, 0)
            if rows[0].ratio_sq > 1:
                failures.append(f"squared L2 increased at measure {i}")
        for i in range(0, len(measures) - 2, 3):
            f, g, h = measures[i], measures[i + 1], measures[i + 2]
            if convolve(convolve(f, g), h) != convolve(f, convolve(g, h)):
                failures.append(f"associativity violated at triple {i}")
    # a deeper power series on a subsample
    for group, measures in pools:
        for mu in measures[:10]:
            flattening_report(mu, 2)
    _finish(7, "measure suite on 500 random measures over F5/F7",
            t0, 120, failures)


def test_criterion_08_decomposition_suite():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(314)
    hyp_instances = 0
    for ctx in (F5, F7):
        group = AffineGroupOps(ctx)
        elements = sorted(affine_group_elements(ctx), key=lambda g: g.key)
        for i in range(250):
            nu = random_measure(group, elements, rng, max_support=12)
            for K in (1, 2, 4):
                checks = verify_decomposition(nu, K)
                named = {c.name: c for c in checks}
                if not all_pass(checks):
                    bad = [c.name for c in checks
                           if not c.passed and c.hypothesis_met is not False]
                    failures.append(f"checks {bad} failed at measure {i}, K={K}")
                if named["hyp_lin"].passed:
                    hyp_instances += 1
                    for name in ("support_stat_lower", "str_conv_lower",
                                 "pointwise_upper"):
                        if name in named and not named[name].passed:
                            failures.append(
                                f"conditional {name} failed at measure {i}, K={K}"
                            )
    if hyp_instances == 0:
        failures.append("no instance satisfied the convolution hypothesis")
    _finish(8, f"decomposition suite, 500 measures x K in {{1,2,4}} "
               f"({hyp_instances} with the hypothesis)", t0, 120, failures)


def test_criterion_09_kernel_equivalence_and_speed():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(555)
    contexts = [F3, F5, F7, F9]
    for i in range(200):
        ctx = contexts[i % 4]
        pts = enumerate_space(ctx, 3)
        size = rng.randint(3, 40)
        X1 = rng.sample(pts, min(size, len(pts)))
        X2 = rng.sample(pts, min(size, len(pts)))
        X3 = rng.sample(pts, min(size, len(pts)))
        brute = count_collinear_triples(X1, X2, X3, "brute")
        hashed = count_collinear_triples(X1, X2, X3, "hash")
        if brute.total != hashed.total or brute.by_line != hashed.by_line:
            failures.append(f"kernel disagreement on instance {i} over {ctx}")
    ctx = FieldCtx(101)
    big = []
    seen = set()
    while len(big) < 3:
        batch = set()
        while len(batch) < 200:
            coords = [rng.randrange(101) for _ in range(4)]
            if any(coords):
                p = ProjPoint(ctx, coords)
                if p not in seen:
                    seen.add(p)
                    batch.add(p)
        big.append(sorted(batch, key=lambda p: p.key))
    X1, X2, X3 = big

    def timed(kernel):
        # wall-clock best of three, collected first so leftover garbage
        # from earlier instances cannot land in one kernel's timing
        best = None
        total = None
        for _ in range(3):
            gc.collect()
            start = time.perf_counter()
            total = count_collinear_triples(X1, X2, X3, kernel).total
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return total, best

    total_hash, t_hash = timed("hash")
    total_brute, t_brute = timed("brute")
    if total_hash != total_brute:
        failures.append("kernels disagree at |Xi| = 200 over F101")
    ratio = t_brute / t_hash
    # stated gate 5x, tolerance factor 1.5
    if ratio < 5 / 1.5:
        failures.append(f"line-hash only {ratio:.1f}x faster (gate 5x/1.5)")
    _finish(9, f"kernel equivalence (200 instances) and speed "
               f"({ratio:.1f}x at n=200)", t0, 300, failures)


def test_criterion_10_quadric_normalization():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(808)

    for trial in range(50):
        ctx = F5 if trial % 2 == 0 else F7
        form = random_smooth_form(ctx, rng)
        nz = diagonalize_quadric(form)   # re-verifies M^T B M = I inside
        if not nz.verified:
            failures.append(f"diagonalization unverified on trial {trial}")
        if len(nz.extensions) > 1:
            failures.append(f"more than one extension on trial {trial}")
        if trial % 5 == 0:
            ns = normalize_to_segre(form)
            if not ns.verified or len(ns.extensions) > 1:
                failures.append(f"composite normalization failed on {trial}")
    seg = to_segre_form(F5)
    T = seg.transform
    four = F5.elem(4)
    from itertools import product as iproduct

    for raw in iproduct(range(5), repeat=4):
        v = [F5.elem(c) for c in raw]
        image = [
            sum((T[i][j] * v[j] for j in range(4)), F5.zero()) for i in range(4)
        ]
        squares = sum((x * x for x in image), F5.zero())
        x, y, w, z = v
        if squares != four * (x * z - y * w):
            failures.append(f"substitution identity failed at {raw}")
            break
    _finish(10, "quadric normalization (50 forms) and exhaustive "
                "substitution identity", t0, 60, failures)

"""Brute-force oracles for the closed forms and int paths in `src/`.

Each is the scan or formula its fast path replaced, kept here to check
that path (see test_oracles.py):

- `pair_stabilizer_scan`: the q^3 scan of G_a^2 x| G_m for an element
  fixing two points of {x0 = 0}, for `incidence._pair_stabilizer_nontrivial`;
- `family_membership`: the `ProjPoint` check of every family triple
  through `cfg.family_triple`, for `constructions.verify_example`;
- `fixed_points_by_enumeration`: Fix(g) as the Segre points g fixes,
  for `constructions.classify_fixed_points`;
- `orthogonal_by_triple_sums`: M^T B M by 16 triple products an entry,
  for `groups.is_orthogonal_mod_scalar`;
- `det_laplace`: the recursive Laplace determinant, for `projgeom._det4`;
- `brute_triples_on_points`: the rank test on `FieldElem` lifts with
  `line_through` line keys, for the log-code kernels of F_{p^n};
- `line_concentration_by_lines`: the points of X on each `line_through`
  line, for `incidence.line_concentration`;
- `full_lines_by_scan`: every `line_through` line of a point set checked
  point by point, for `constructions._full_lines_within`;
- `dense_bilinear`: the 16-term sum of a quadric's bilinear form, for
  the sparse `QuadricForm.bilinear`.
"""

from typing import Dict

from orchardlab.field import FieldCtx
from orchardlab.groups import AffElem, PGLElem, aff_act, segre_quadric_points
from orchardlab.incidence import VerificationFailure
from orchardlab.projgeom import ProjPoint, QuadricForm, collinear, line_through


def pair_stabilizer_scan(ctx: FieldCtx, p: ProjPoint, q: ProjPoint) -> bool:
    """Scan all (a, b, c) != (0, 0, 1) for one fixing both points."""
    identity = AffElem.identity(ctx)
    for a in ctx.elements():
        for b in ctx.elements():
            for c in ctx.elements():
                if c.is_zero():
                    continue
                g = AffElem(ctx, a, b, c)
                if g == identity:
                    continue
                if aff_act(g, p) == p and aff_act(g, q) == q:
                    return True
    return False


def family_membership(cfg):
    """(in-set count, first index outside) of the family triples, built
    as `ProjPoint`s; a triple that is not collinear, or repeats a point,
    raises VerificationFailure."""
    sets = (set(cfg.X1), set(cfg.X2), set(cfg.X3))
    in_sets = 0
    first_outside = None
    for idx in cfg.family:
        x1, x2, x3 = cfg.family_triple(*idx)
        if not collinear(x1, x2, x3):
            raise VerificationFailure(f"family triple {idx} is not collinear")
        if x1 == x2 or x1 == x3 or x2 == x3:
            raise VerificationFailure(f"family triple {idx} has repeated points")
        if x1 in sets[0] and x2 in sets[1] and x3 in sets[2]:
            in_sets += 1
        elif first_outside is None:
            first_outside = idx
    return in_sets, first_outside


def fixed_points_by_enumeration(g: PGLElem, ctx: FieldCtx):
    """The points of x1*x4 = x2*x3 that g fixes, sorted by key."""
    fixed = [pt for pt in set(segre_quadric_points(ctx)) if g.act(pt) == pt]
    fixed.sort(key=lambda p: p.key)
    return fixed


def orthogonal_by_triple_sums(M: PGLElem, Q: QuadricForm):
    """(M^T B M = lambda * B, lambda), each entry of M^T B M summed over
    its 16 triple products; lambda is the ratio at the first nonzero
    entry of B."""
    ctx = M.ctx
    zero = ctx.zero()
    B = Q.B
    prod = [
        [
            sum(
                (M.rows[k][i] * B[k][l] * M.rows[l][j] for k in range(4) for l in range(4)),
                zero,
            )
            for j in range(4)
        ]
        for i in range(4)
    ]
    lam = None
    for i in range(4):
        for j in range(4):
            if not B[i][j].is_zero():
                cand = prod[i][j] / B[i][j]
                if lam is None:
                    lam = cand
                elif cand != lam:
                    return False, None
            elif not prod[i][j].is_zero():
                return False, None
    if lam is None or lam.is_zero():
        return False, None
    return True, lam


def det_laplace(ctx: FieldCtx, rows):
    """Determinant by recursive Laplace expansion along the first row."""
    def det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        acc = ctx.zero()
        sign = ctx.one()
        for j in range(n):
            if not mat[0][j].is_zero():
                minor = [
                    [mat[i][k] for k in range(n) if k != j] for i in range(1, n)
                ]
                acc = acc + sign * mat[0][j] * det(minor)
            sign = -sign
        return acc

    return det([list(r) for r in rows])


def brute_triples_on_points(X1, X2, X3):
    """(total, counts by line key) of the ordered, pairwise distinct,
    collinear triples: the four 3x3 minors of the stacked lifts per
    triple, the line of a hit pair from `line_through`."""
    per_line: Dict[tuple, int] = {}
    total = 0
    for p1 in X1:
        a = p1.coords
        for p2 in X2:
            if p1 == p2:
                continue
            b = p2.coords
            m01 = a[0] * b[1] - a[1] * b[0]
            m02 = a[0] * b[2] - a[2] * b[0]
            m03 = a[0] * b[3] - a[3] * b[0]
            m12 = a[1] * b[2] - a[2] * b[1]
            m13 = a[1] * b[3] - a[3] * b[1]
            m23 = a[2] * b[3] - a[3] * b[2]
            hits = 0
            for p3 in X3:
                c = p3.coords
                if (
                    (c[0] * m12 - c[1] * m02 + c[2] * m01).is_zero()
                    and (c[0] * m13 - c[1] * m03 + c[3] * m01).is_zero()
                    and (c[0] * m23 - c[2] * m03 + c[3] * m02).is_zero()
                    and (c[1] * m23 - c[2] * m13 + c[3] * m12).is_zero()
                    and p3 != p1
                    and p3 != p2
                ):
                    hits += 1
            if hits:
                total += hits
                key = line_through(p1, p2).key
                per_line[key] = per_line.get(key, 0) + hits
    return total, per_line


def line_concentration_by_lines(X):
    """(max |X ^ line|, the largest key of a line reaching it) over the
    lines `line_through` spans on pairs of X, which has two points or more."""
    members: Dict[tuple, set] = {}
    for i, p in enumerate(X):
        for q in X[i + 1:]:
            members.setdefault(line_through(p, q).key, set()).update((p, q))
    best = max(len(m) for m in members.values())
    return best, max(k for k, m in members.items() if len(m) == best)


def full_lines_by_scan(points):
    """The lines all of whose q+1 points lie in the set, from
    `line_through` on each pair of the points sorted by key, first seen
    first."""
    pts = set(points)
    found = []
    seen = set()
    ordered = sorted(pts, key=lambda p: p.key)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            line = line_through(a, b)
            if line.key in seen:
                continue
            seen.add(line.key)
            if all(x in pts for x in line.points()):
                found.append(line)
    return found


def dense_bilinear(Q: QuadricForm, u, v):
    """u^T B v summed over all 16 entries of B."""
    acc = Q.ctx.zero()
    for i in range(4):
        for j in range(4):
            acc = acc + u[i] * Q.B[i][j] * v[j]
    return acc

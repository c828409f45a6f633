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
- `det_laplace`: the recursive Laplace determinant, for `projgeom._det4`.
"""

from orchardlab.field import FieldCtx
from orchardlab.groups import AffElem, PGLElem, aff_act, segre_quadric_points
from orchardlab.incidence import VerificationFailure
from orchardlab.projgeom import ProjPoint, QuadricForm, collinear


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

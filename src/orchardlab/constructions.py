"""Builders for the explicit configurations: the extremal three-plane
point sets and their lazy index family, and the fixed-point classifier
for special orthogonal elements acting on the Segre quadric.

Each CLI job is one fresh process that compiles every module it imports,
so the names of `groups`, `incidence` and `fractions` are imported inside
the functions that use them: building the example loads neither `groups`
nor `incidence`, and the fixed-point classifier never loads `incidence`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from .errors import OrchardError, VerificationFailure
from .field import FieldCtx, FieldElem, least_primitive_root
from .projgeom import (
    PointSet,
    ProjLine,
    ProjPoint,
    QuadricForm,
    TooLarge,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .groups import PGLElem


class DegenerateParameters(OrchardError):
    pass


# -- the extremal three-plane configuration --------------------------------

class ExampleFamily:
    """The p^2 (2N+1)^2 index tuples (i, j, t, z), i and j in [-N, N] and t
    and z in [0, p), made on demand in lexicographic order."""

    def __init__(self, p: int, N: int):
        self.exps, self.ts = range(-N, N + 1), range(p)

    def __len__(self):
        return (len(self.exps) * len(self.ts)) ** 2

    def __iter__(self):
        return itertools.product(self.exps, self.exps, self.ts, self.ts)


class ExampleConfig(NamedTuple):
    p: int
    k: Fraction
    N: int
    d: int                      # least generator of the multiplicative group
    ctx: FieldCtx
    X1: PointSet
    X2: PointSet
    X3: PointSet
    family: ExampleFamily


# the largest numerator or denominator of k that build_example takes: the
# root search compares powers with these exponents
K_PART_CAP = 10**4
# the most points build_example makes, 3 p (2N+1) over the three sets
# (about 0.5 KB a point)
EXAMPLE_POINT_CAP = 10**6


def build_example(p: int, k) -> ExampleConfig:
    """The three point sets on the planes {x0=0}, {x1=0}, {x2=x3}:

        X1 = [0 : d^i : t : t-1],  X2 = [-d^i : 0 : t : t-1],
        X3 = [d^i : 1 : t : t],    i in [-N, N], t in F_p,

    with d the least generator of F_p^* and N = floor(p^(1/k)).  Raises
    DegenerateParameters for k <= 1, p < 3 or exponent collisions inside
    [-N, N] (that is 2N+1 > p-1), and TooLarge for a numerator or
    denominator of k above K_PART_CAP or more than EXAMPLE_POINT_CAP
    points; each before any point is built.
    """
    from fractions import Fraction

    k = Fraction(k)
    if k <= 1:
        raise DegenerateParameters("k must exceed 1")
    if p < 3:
        raise DegenerateParameters("p must be an odd prime")
    if max(k.numerator, k.denominator) > K_PART_CAP:
        raise TooLarge(f"k = {k} has a numerator or denominator above {K_PART_CAP}")
    # the largest N with 2N+1 <= p-1, and with 3p(2N+1) <= EXAMPLE_POINT_CAP
    collide, points = (p - 2) // 2, (EXAMPLE_POINT_CAP // (3 * p) - 1) // 2
    N = _floor_root(p, k, min(collide, points))
    if N > collide:
        raise DegenerateParameters(
            f"2N+1 >= {2 * N + 1} exceeds p-1 = {p - 1}: generator powers collide"
        )
    if N > points:
        raise TooLarge(
            f"the example would have at least {3 * p * (2 * N + 1)} points, "
            f"over the guard of {EXAMPLE_POINT_CAP}"
        )
    ctx = FieldCtx(p)
    d = least_primitive_root(p)
    powers = [ctx.elem(d) ** i for i in range(-N, N + 1)]
    grid = [(di, ctx.elem(t)) for di in powers for t in range(p)]
    X1 = PointSet(ProjPoint(ctx, [ctx.zero(), di, t, t - 1]) for di, t in grid)
    X2 = PointSet(ProjPoint(ctx, [-di, ctx.zero(), t, t - 1]) for di, t in grid)
    X3 = PointSet(ProjPoint(ctx, [di, ctx.one(), t, t]) for di, t in grid)
    return ExampleConfig(p, k, N, d, ctx, X1, X2, X3, ExampleFamily(p, N))


def _floor_root(p: int, k: Fraction, n_max: int) -> int:
    """floor(p^(1/k)) for rational k > 1, by integer comparison of the
    n up to n_max only: n_max + 1 when the root is larger (1 when
    n_max < 1)."""
    n = 1
    while n <= n_max and (n + 1) ** k.numerator <= p**k.denominator:
        n += 1
    return n


class ExampleReport(NamedTuple):
    family_count: int
    all_collinear: bool
    all_pairwise_distinct: bool
    in_sets_count: int
    in_sets_all: bool
    first_outside: Optional[Tuple[int, int, int, int]]
    triple_total: int
    triple_total_at_least_family: bool
    max_lines: Dict[str, int]
    dichotomy_ok: bool
    sizes: Dict[str, int]

    def as_dict(self) -> dict:
        out = self._asdict()
        out["first_outside"] = (
            list(self.first_outside) if self.first_outside else None
        )
        return out


def verify_example(cfg: ExampleConfig) -> ExampleReport:
    """Check the asserted properties of the configuration.

    Collinearity of every parametric triple, their pairwise distinctness
    and the per-line concentration dichotomy are hard assertions: a
    failure raises VerificationFailure.  Membership of the middle point
    in X2 can genuinely fail for index pairs whose exponent sum escapes
    [-N, N] modulo p-1, so membership is reported, not asserted; the
    triple count is reported against the family size the same way.

    The family triple of (i, j, t, z) is [0 : d^j : z : z-1],
    [-d^(i+j) : 0 : z - t d^j : z - 1 - t d^j], [d^i : 1 : t : t], checked
    in closed form on ints mod p, one exponent pair (i, j) at a time:

    - Collinearity is the vanishing of the four 3x3 minors.  Each has
      degree at most 2 in t and in z and p >= 5, so by the grid case of
      the Combinatorial Nullstellensatz a minor vanishing on the grid
      (t, z) in {0, 1, 2}^2 vanishes everywhere: the 9 grid triples are
      checked.
    - Distinctness holds for every (t, z) by construction: x0 = 0 only
      for the X1 point, and the X2 point has x1 = 0 while the X3 point
      does not.  It is asserted on the same 9 triples.
    - The X1 and X3 points are always in their sets, and the X2 point is
      exactly when (i+j) mod p-1 is some e in [-N, N] mod p-1: then all
      p^2 triples of the pair are in the sets, else none is.
    """
    from .incidence import count_collinear_triples, line_concentration

    p, span = cfg.p, range(-cfg.N, cfg.N + 1)
    power = [pow(cfg.d, e, p) for e in range(p - 1)]      # d^e at e mod p-1
    exponents = {e % (p - 1) for e in span}
    in_pairs = 0
    first_outside = None
    for i, j in itertools.product(span, span):
        di, dj, dij = power[i % (p - 1)], power[j % (p - 1)], power[(i + j) % (p - 1)]
        for t, z in itertools.product(range(3), range(3)):
            x1, x2, x3 = (0, dj, z, z - 1), (-dij, 0, z - t * dj, z - 1 - t * dj), (di, 1, t, t)
            if not _collinear_mod_p(p, x1, x2, x3):
                raise VerificationFailure(f"family triple {(i, j, t, z)} is not collinear")
            if any(_same_point_mod_p(p, a, b) for a, b in ((x1, x2), (x1, x3), (x2, x3))):
                raise VerificationFailure(f"family triple {(i, j, t, z)} has repeated points")
        if (i + j) % (p - 1) in exponents:
            in_pairs += 1
        elif first_outside is None:
            first_outside = (i, j, 0, 0)
    family = p * p * len(span) ** 2
    in_sets = p * p * in_pairs
    count = count_collinear_triples(cfg.X1, cfg.X2, cfg.X3, kernel="hash")
    sets = {"X1": cfg.X1, "X2": cfg.X2, "X3": cfg.X3}
    max_lines = {name: line_concentration(X).max_count for name, X in sets.items()}
    bound = max(2 * cfg.N + 1, p)
    if max(max_lines.values()) > bound:
        raise VerificationFailure(f"line concentration exceeds max(2N+1, p) = {bound}")
    return ExampleReport(
        family_count=family,
        all_collinear=True,
        all_pairwise_distinct=True,
        in_sets_count=in_sets,
        in_sets_all=in_sets == family,
        first_outside=first_outside,
        triple_total=count.total,
        triple_total_at_least_family=count.total >= family,
        max_lines=max_lines,
        dichotomy_ok=True,
        sizes={name: len(X) for name, X in sets.items()},
    )


def _same_point_mod_p(p: int, a, b) -> bool:
    """Whether two nonzero int 4-vectors are the same point mod p: each of
    their six 2x2 minors vanishes."""
    return not any((a[r] * b[s] - a[s] * b[r]) % p for r in range(4) for s in range(r + 1, 4))


def _collinear_mod_p(p: int, a, b, c) -> bool:
    """Whether three int 4-vectors span at most a plane mod p: each of the
    four 3x3 minors, expanded along a through the 2x2 minors of b, c,
    vanishes."""
    m01 = b[0] * c[1] - b[1] * c[0]
    m02 = b[0] * c[2] - b[2] * c[0]
    m03 = b[0] * c[3] - b[3] * c[0]
    m12 = b[1] * c[2] - b[2] * c[1]
    m13 = b[1] * c[3] - b[3] * c[1]
    m23 = b[2] * c[3] - b[3] * c[2]
    return not (
        (a[1] * m23 - a[2] * m13 + a[3] * m12) % p
        or (a[0] * m23 - a[2] * m03 + a[3] * m02) % p
        or (a[0] * m13 - a[1] * m03 + a[3] * m01) % p
        or (a[0] * m12 - a[1] * m02 + a[2] * m01) % p
    )


# -- fixed points on the Segre quadric ---------------------------------------

class FixClassification(NamedTuple):
    kind: str                  # FINITE | ONE_LINE | TWO_LINES | OTHER
    fixed_points: List[ProjPoint]
    lines: List[ProjLine]
    pso_verified: bool         # orthogonal mod scalar with det = lambda^2
    scalar: Optional[FieldElem]


def pso_membership(g: PGLElem, Q: QuadricForm) -> Tuple[bool, Optional[FieldElem], bool]:
    """(preserves Q mod scalar, witness, special part).

    Special means det(M) = lambda^2, which is invariant under rescaling
    M; det(M) = -lambda^2 is the non-special coset.  The test tells the
    two apart only in odd characteristic, so in characteristic 2 no
    element is reported special."""
    from .groups import is_orthogonal_mod_scalar

    ok, lam = is_orthogonal_mod_scalar(g, Q)
    if not ok:
        return False, None, False
    log, _, red, *_ = g.ctx.zech
    return True, lam, g.ctx.p > 2 and log[g.det().code] == red[2 * log[lam.code]]


def classify_fixed_points(g: PGLElem, ctx: FieldCtx) -> FixClassification:
    """Classify Fix(g) on the quadric x1*x4 = x2*x3, on log codes.

    The quadric is P^1 x P^1 under `groups.segre`, u (x) w, and its group
    is (PGL_2 x PGL_2) x| <sigma>, sigma the swap of x2 and x3: the matrix
    of g is c (A (x) B), fixing Fix(A) x Fix(B), or c (A (x) B) sigma,
    sending u (x) w to Aw (x) Bu, so fixing (u, Bu) for u in Fix(AB).  A
    full line is a ruling {u} x P^1 or P^1 x {w} of q + 1 fixed pairs.
    Points are sorted by key, lines by the keys of their two least points.
    pso_verified is the determinant test for the special part; an OTHER
    outcome for such an element raises.  NotOnQuadricGroup is raised when
    M^T B M = lambda B fails and, as over F_(2^n) that test sees only the
    polar form, when M factors neither way.
    """
    from .groups import GroupError, IdentityElement, NotOnQuadricGroup

    if g.ctx is not ctx:
        raise GroupError("mixed contexts")
    if g.is_identity():
        raise IdentityElement("fixed points of the identity are everything")
    preserves, lam, special = pso_membership(g, QuadricForm.segre(ctx))
    if not preserves:
        raise NotOnQuadricGroup("element does not preserve the quadric")
    _, exp, red, zech, Z, _ = t = ctx.zech

    def times(A, u):            # the 2x2 matrix A times the vector u
        return tuple(t.total((red[a0 + u[0]], red[a1 + u[1]])) for a0, a1 in A)

    def fix(A):                 # [1 : x] when (a + bx) x = c + dx, [0 : 1] when b = 0
        (a, b), (c, d) = A
        return [(0, x) for x in [*range(Z >> 1), Z] if red[red[a + zech[red[b + x] - a + Z]] + x]
                == red[c + zech[red[d + x] - c + Z]]] + [(Z, 0)] * (b == Z)

    def key(u, w):              # the key of u (x) w
        return tuple(exp[red[a + b]] for a in u for b in w)

    def elems(codes):
        return [FieldElem(ctx, c) for c in codes]

    factors = _segre_factors(t, g.logs)
    if factors is not None:
        pairs = [(u, w) for u in fix(factors[0]) for w in fix(factors[1])]
    else:
        factors = _segre_factors(t, [(a, c, b, d) for a, b, c, d in g.logs])
        if factors is None:
            raise NotOnQuadricGroup("element preserves the polar form but not the quadric")
        A, B = factors
        pairs = [(u, t.scaled(times(B, u))) for u in fix([times(tuple(zip(*B)), r) for r in A])]
    fixed = sorted((key(u, w), u, w) for u, w in pairs)
    rulings: Dict[tuple, list] = {}     # (0, u): the keys on {u} x P^1; (1, w): on P^1 x {w}
    for k, u, w in fixed:
        for ruling in ((0, u), (1, w)):
            rulings.setdefault(ruling, []).append(k)
    size = ctx.order + 1
    full = sorted((keys[:2], side, f) for (side, f), keys in rulings.items() if len(keys) == size)
    units = ((0, Z), (Z, 0))            # f (x) e and e (x) f over these are RREF bases
    lines = [ProjLine(ctx, [elems(key(f, e) if side == 0 else key(e, f)) for e in units])
             for _, side, f in full]
    if len(fixed) <= 4:
        kind, lines = "FINITE", []
    elif len(lines) == 1 and len(fixed) == size:
        kind = "ONE_LINE"
    elif len(lines) == 2 and len(fixed) == 2 * size - (full[0][1] != full[1][1]):
        kind = "TWO_LINES"              # lines of the two rulings meet once
    else:
        kind = "OTHER"
    if kind == "OTHER" and special:
        raise VerificationFailure("a verified special element fixed a set that is neither "
                                  "small nor a union of at most two lines")
    return FixClassification(
        kind, [ProjPoint(ctx, elems(k)) for k, _, _ in fixed], lines, special, lam)


def _segre_factors(t, M) -> Optional[Tuple[list, list]]:
    """(A, B) with M = c (A (x) B), all log codes over the field of t, or
    None.  (A (x) B)[2i + k][2j + l] is A[i][j] B[k][l]: with c at the first
    nonzero entry (2 i0 + k0, 2 j0 + l0), A is the slice M[2i + k0][2j + l0]
    and B the block M[2 i0 + k][2 j0 + l], checked on all 16 entries."""
    red, Z = t.red, t.Z
    r, s = next((r, s) for r in range(4) for s in range(4) if M[r][s] != Z)
    (i0, k0), (j0, l0), c = divmod(r, 2), divmod(s, 2), M[r][s]
    A = [[M[2 * i + k0][2 * j + l0] for j in (0, 1)] for i in (0, 1)]
    B = [M[2 * i0 + k][2 * j0:2 * j0 + 2] for k in (0, 1)]
    kron = [red[a + b] for row_a in A for row_b in B for a in row_a for b in row_b]
    return (A, B) if kron == [red[c + x] for row in M for x in row] else None

"""Exact counting kernels: collinear triples, line and pencil-plane
concentration, stabilizer censuses, free tuples and the almost-invariance
set Omega_t.

Two interchangeable triple kernels are provided: a brute-force rank test
over all ordered triples, and a line-hash kernel that buckets point pairs
by the canonical line they span.  They must agree exactly; the hash
kernel is the fast one.  Prime fields additionally get a raw-integer
fast path (identical algorithms, cheaper arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .field import FieldCtx
from .groups import AffElem, aff_act
from .projgeom import (
    EqualPoints,
    MixedContexts,
    ProjLine,
    ProjPlane,
    ProjPoint,
    TooLarge,
    line_through,
)

PAIR_PRODUCT_CAP = 10**8


class VerificationFailure(Exception):
    """A checked identity that should always hold was violated."""


def _common_ctx(sets: Sequence[Sequence[ProjPoint]]) -> FieldCtx:
    ctx = None
    for points in sets:
        for p in points:
            if ctx is None:
                ctx = p.ctx
            elif p.ctx is not ctx:
                raise MixedContexts("point sets over different fields")
    return ctx


# -- collinear triple counting -------------------------------------------

def line_text(line: ProjLine) -> str:
    """Text form of a line: the two basis rows, point-style, joined by |."""
    return "|".join(
        ":".join(e.text() for e in row) for row in line.basis
    )


@dataclass
class TripleCount:
    total: int
    by_line: Dict[ProjLine, int]
    kernel: str

    def check_consistency(self):
        if self.by_line and sum(self.by_line.values()) != self.total:
            raise VerificationFailure("per-line contributions do not sum to total")

    def as_dict(self) -> dict:
        entries = sorted(
            ((line_text(line), count) for line, count in self.by_line.items())
        )
        return {
            "total": self.total,
            "by_line": [{"line": text, "count": c} for text, c in entries],
        }


def _int_coords(points: Sequence[ProjPoint]):
    return [tuple(c.coeffs[0] for c in p.coords) for p in points]


def _inv_table(p: int):
    table = [0] * p
    for x in range(1, p):
        table[x] = pow(x, p - 2, p)
    return table


def _rref_key_slow(p: int, inv, v1, v2):
    rows = [list(v1), list(v2)]
    pivot_row = 0
    for col in range(4):
        hit = None
        for r in range(pivot_row, 2):
            if rows[r][col]:
                hit = r
                break
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        s = inv[rows[pivot_row][col]]
        rows[pivot_row] = [(x * s) % p for x in rows[pivot_row]]
        for r in range(2):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == 2:
            break
    return (*rows[0], *rows[1])


def _rref_key_int(p: int, inv, v1, v2):
    """Canonical RREF key of the 2x4 span of two independent reduced int
    vectors.  Unrolled when a row pivots in column 0 (canonical point
    vectors make that pivot 1); rows both starting with 0 take the
    general path."""
    if v1[0]:
        a0, a1, a2, a3 = v1
        b0, b1, b2, b3 = v2
    elif v2[0]:
        a0, a1, a2, a3 = v2
        b0, b1, b2, b3 = v1
    else:
        return _rref_key_slow(p, inv, v1, v2)
    if a0 != 1:
        s = inv[a0]
        a1, a2, a3 = a1 * s % p, a2 * s % p, a3 * s % p
    if b0:
        b1, b2, b3 = (b1 - b0 * a1) % p, (b2 - b0 * a2) % p, (b3 - b0 * a3) % p
    if b1:
        if b1 != 1:
            s = inv[b1]
            b2, b3 = b2 * s % p, b3 * s % p
        if a1:
            a2, a3 = (a2 - a1 * b2) % p, (a3 - a1 * b3) % p
        return (1, 0, a2, a3, 0, 1, b2, b3)
    if b2:
        if b2 != 1:
            b3 = b3 * inv[b2] % p
        if a2:
            a3 = (a3 - a2 * b3) % p
        return (1, a1, 0, a3, 0, 0, 1, b3)
    # b3 must be nonzero: the vectors are independent
    return (1, a1, a2, 0, 0, 0, 0, 1)


def _count_brute_int(p: int, X1, X2, X3):
    """All ordered triples, rank test expanded into 3x3 minors."""
    per_line: Dict[tuple, int] = {}
    total = 0
    inv = _inv_table(p)
    for v1 in X1:
        a0, a1, a2, a3 = v1
        for v2 in X2:
            if v1 == v2:
                continue
            b0, b1, b2, b3 = v2
            m01 = (a0 * b1 - a1 * b0) % p
            m02 = (a0 * b2 - a2 * b0) % p
            m03 = (a0 * b3 - a3 * b0) % p
            m12 = (a1 * b2 - a2 * b1) % p
            m13 = (a1 * b3 - a3 * b1) % p
            m23 = (a2 * b3 - a3 * b2) % p
            hits = 0
            key = None
            for v3 in X3:
                if v3 == v1 or v3 == v2:
                    continue
                c0, c1, c2, c3 = v3
                if (c0 * m12 - c1 * m02 + c2 * m01) % p:
                    continue
                if (c0 * m13 - c1 * m03 + c3 * m01) % p:
                    continue
                if (c0 * m23 - c2 * m03 + c3 * m02) % p:
                    continue
                if (c1 * m23 - c2 * m13 + c3 * m12) % p:
                    continue
                hits += 1
            if hits:
                total += hits
                key = _rref_key_int(p, inv, v1, v2)
                per_line[key] = per_line.get(key, 0) + hits
    return total, per_line


def _count_brute_generic(ctx, X1, X2, X3):
    """Rank test per triple, expanded into the four 3x3 minors of the
    stacked lifts (with the 2x2 minors of the first two rows shared)."""
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
                if p3 == p1 or p3 == p2:
                    continue
                c = p3.coords
                if not (c[0] * m12 - c[1] * m02 + c[2] * m01).is_zero():
                    continue
                if not (c[0] * m13 - c[1] * m03 + c[3] * m01).is_zero():
                    continue
                if not (c[0] * m23 - c[2] * m03 + c[3] * m02).is_zero():
                    continue
                if not (c[1] * m23 - c[2] * m13 + c[3] * m12).is_zero():
                    continue
                hits += 1
            if hits:
                total += hits
                key = line_through(p1, p2).key
                per_line[key] = per_line.get(key, 0) + hits
    return total, per_line


def _distinct_triple_count(s1: set, s2: set, s3: set) -> int:
    a, b, c = len(s1), len(s2), len(s3)
    e12 = len(s1 & s2)
    e13 = len(s1 & s3)
    e23 = len(s2 & s3)
    e123 = len(s1 & s2 & s3)
    return a * b * c - e12 * c - e13 * b - e23 * a + 2 * e123


def _count_hash_int(p: int, X1, X2, X3):
    s1: Dict[tuple, set] = {}
    s2: Dict[tuple, set] = {}
    s3: Dict[tuple, set] = {}
    inv = _inv_table(p)
    for v1 in X1:
        for v2 in X2:
            if v1 == v2:
                continue
            key = _rref_key_int(p, inv, v1, v2)
            s1.setdefault(key, set()).add(v1)
            s2.setdefault(key, set()).add(v2)
    for v1 in X1:
        for v3 in X3:
            if v1 == v3:
                continue
            key = _rref_key_int(p, inv, v1, v3)
            if key in s1:
                s3.setdefault(key, set()).add(v3)
    total = 0
    per_line: Dict[tuple, int] = {}
    for key, first in s1.items():
        d = _distinct_triple_count(first, s2.get(key, set()), s3.get(key, set()))
        if d:
            total += d
            per_line[key] = d
    return total, per_line


def _count_hash_generic(ctx, X1, X2, X3):
    s1: Dict[tuple, set] = {}
    s2: Dict[tuple, set] = {}
    s3: Dict[tuple, set] = {}
    for p1 in X1:
        for p2 in X2:
            if p1 == p2:
                continue
            key = line_through(p1, p2).key
            s1.setdefault(key, set()).add(p1)
            s2.setdefault(key, set()).add(p2)
    for p1 in X1:
        for p3 in X3:
            if p1 == p3:
                continue
            key = line_through(p1, p3).key
            if key in s1:
                s3.setdefault(key, set()).add(p3)
    total = 0
    per_line: Dict[tuple, int] = {}
    for key, first in s1.items():
        d = _distinct_triple_count(first, s2.get(key, set()), s3.get(key, set()))
        if d:
            total += d
            per_line[key] = d
    return total, per_line


def _line_from_int_key(ctx: FieldCtx, key) -> ProjLine:
    rows = [key[:4], key[4:]]
    return ProjLine(ctx, [[ctx.elem(x) for x in row] for row in rows])


def _line_from_elem_key(ctx: FieldCtx, key) -> ProjLine:
    return ProjLine(ctx, [[ctx.elem(list(x)) for x in row] for row in key])


def count_collinear_triples(
    X1: Sequence[ProjPoint],
    X2: Sequence[ProjPoint],
    X3: Sequence[ProjPoint],
    kernel: str = "hash",
    collect_by_line: bool = True,
) -> TripleCount:
    """Ordered, pairwise distinct, collinear triples of X1 x X2 x X3.

    kernel is "hash" (line bucketing), "brute" (rank test per triple) or
    "both" (run the two and insist on identical totals).  Raises
    EqualPoints when some Xi repeats a point.
    """
    if not X1 or not X2 or not X3:
        return TripleCount(0, {}, kernel)
    ctx = _common_ctx([X1, X2, X3])
    if len(X1) * len(X2) > PAIR_PRODUCT_CAP:
        raise TooLarge("pair product exceeds the counting guard")
    if any(len(set(X)) != len(X) for X in (X1, X2, X3)):
        raise EqualPoints("a point set repeats a point")
    if kernel == "both":
        brute = count_collinear_triples(X1, X2, X3, "brute", collect_by_line)
        hashed = count_collinear_triples(X1, X2, X3, "hash", collect_by_line)
        if brute.total != hashed.total or (
            collect_by_line and brute.by_line != hashed.by_line
        ):
            raise VerificationFailure(
                f"kernel disagreement: brute {brute.total} vs hash {hashed.total}"
            )
        return hashed
    if kernel not in ("hash", "brute"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if ctx.n == 1:
        p = ctx.p
        fn = _count_hash_int if kernel == "hash" else _count_brute_int
        total, per_raw = fn(p, _int_coords(X1), _int_coords(X2), _int_coords(X3))
        by_line = (
            {_line_from_int_key(ctx, k): v for k, v in per_raw.items()}
            if collect_by_line
            else {}
        )
    else:
        fn = _count_hash_generic if kernel == "hash" else _count_brute_generic
        total, per_raw = fn(ctx, list(X1), list(X2), list(X3))
        by_line = (
            {_line_from_elem_key(ctx, k): v for k, v in per_raw.items()}
            if collect_by_line
            else {}
        )
    return TripleCount(total, by_line, kernel)


# -- concentration statistics ----------------------------------------------

@dataclass
class ConcentrationReport:
    max_count: int
    witness_line: Optional[ProjLine] = None
    max_pencil_count: Optional[int] = None
    witness_plane: Optional[ProjPlane] = None

    def as_dict(self) -> dict:
        out: dict = {"max_line": self.max_count}
        out["witness"] = line_text(self.witness_line) if self.witness_line else None
        if self.max_pencil_count is not None:
            out["pencil_max"] = self.max_pencil_count
            out["witness_plane"] = (
                ":".join(e.text() for e in self.witness_plane.dual)
                if self.witness_plane
                else None
            )
        return out


def line_concentration(X: Sequence[ProjPoint]) -> ConcentrationReport:
    """Exact max of |X intersect line| over lines spanned by pairs of X.

    A line meeting X in at most one point never beats a spanned line once
    |X| >= 2, so the spanned lines suffice; singletons report 1.  Raises
    EqualPoints when X repeats a point.
    """
    if not X:
        return ConcentrationReport(0)
    if len(X) == 1:
        return ConcentrationReport(1)
    ctx = _common_ctx([X])
    if len(set(X)) != len(X):
        raise EqualPoints("point set repeats a point")
    counts: Dict[tuple, int] = {}
    rep: Dict[tuple, tuple] = {}
    if ctx.n == 1:
        raw = _int_coords(X)
        p = ctx.p
        inv = _inv_table(p)
        for i, v1 in enumerate(raw):
            for v2 in raw[i + 1:]:
                key = _rref_key_int(p, inv, v1, v2)
                counts[key] = counts.get(key, 0) + 1
        best_key = max(counts, key=lambda k: (counts[k], k))
        line = _line_from_int_key(ctx, best_key)
    else:
        for i, p1 in enumerate(X):
            for p2 in X[i + 1:]:
                key = line_through(p1, p2).key
                counts[key] = counts.get(key, 0) + 1
        best_key = max(counts, key=lambda k: (counts[k], k))
        line = _line_from_elem_key(ctx, best_key)
    # pairs = a*(a-1)/2 on a line holding a points of X
    pairs = counts[best_key]
    a = 1
    while a * (a - 1) // 2 < pairs:
        a += 1
    if a * (a - 1) // 2 != pairs:
        raise VerificationFailure("pair count is not triangular")
    return ConcentrationReport(a, line)


class EqualPlanes(Exception):
    pass


def pencil_planes(P1: ProjPlane, P2: ProjPlane) -> List[ProjPlane]:
    """All q + 1 planes containing the line P1 intersect P2."""
    if P1 == P2:
        raise EqualPlanes("pencil needs two distinct planes")
    ctx = P1.ctx
    d1, d2 = P1.dual, P2.dual
    planes = [P1]
    for t in ctx.elements():
        planes.append(ProjPlane(ctx, [a * t + b for a, b in zip(d1, d2)]))
    return planes


def pencil_plane_concentration(
    X3: Sequence[ProjPoint],
    P1: ProjPlane,
    P2: ProjPlane,
    include_base_planes: bool = True,
) -> ConcentrationReport:
    """Max of |X3 intersect P| over the pencil of planes through P1^P2."""
    planes = pencil_planes(P1, P2)
    if not include_base_planes:
        planes = [P for P in planes if P not in (P1, P2)]
    best = -1
    witness = None
    for plane in planes:
        hit = sum(1 for x in X3 if plane.contains(x))
        if hit > best:
            best, witness = hit, plane
    return ConcentrationReport(
        max_count=0,
        witness_line=None,
        max_pencil_count=best,
        witness_plane=witness,
    )


# -- stabilizer census on the standard plane -------------------------------

@dataclass
class CensusReport:
    nontrivial_count: int      # pairs whose exact stabilizer is nontrivial
    closed_form_count: int     # pairs flagged by the coordinate case split
    disagreements: List[Tuple[ProjPoint, ProjPoint]]


def _pair_stabilizer_nontrivial(ctx: FieldCtx, p: ProjPoint, q: ProjPoint) -> bool:
    """Brute oracle: scan all (a, b, c) != (0, 0, 1) for one fixing both."""
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


def _closed_form_pair(p: ProjPoint, q: ProjPoint) -> bool:
    """Coordinate case split: some coordinate vanishes, or the two
    slope ratios xi2/xi3 agree."""
    u = p.coords[1:]
    v = q.coords[1:]
    if any(c.is_zero() for c in u) or any(c.is_zero() for c in v):
        return True
    return u[1] * v[2] == v[1] * u[2]


def stabilizer_census_affine(X: Sequence[ProjPoint]) -> CensusReport:
    """Census of ordered pairs of X (on the plane {x0 = 0}) whose pointwise
    stabilizer in G_a^2 x| G_m is nontrivial.

    nontrivial_count is the exact census from the brute linear-solve
    oracle; closed_form_count applies the coordinate case split, which is
    a sound over-approximation (it may flag pairs whose stabilizer is in
    fact trivial, never the reverse).
    """
    if not X:
        return CensusReport(0, 0, [])
    ctx = _common_ctx([X])
    for x in X:
        if not x.coords[0].is_zero():
            raise MixedContexts(f"{x} is not on the plane x0 = 0")
    exact = 0
    closed = 0
    disagreements = []
    for p in X:
        for q in X:
            truth = _pair_stabilizer_nontrivial(ctx, p, q)
            flag = _closed_form_pair(p, q)
            exact += truth
            closed += flag
            if truth != flag:
                if truth and not flag:
                    raise VerificationFailure(
                        f"case split missed a stabilized pair ({p}, {q})"
                    )
                disagreements.append((p, q))
    return CensusReport(exact, closed, disagreements)


# -- free tuples and Omega_t ------------------------------------------------

@dataclass
class FreeTupleSet:
    k: int
    tuples: Set[tuple]
    complement_size: int
    closure_truncated: bool

    @property
    def size(self) -> int:
        return len(self.tuples)


def free_tuples(
    X: Sequence[ProjPoint],
    G_set: Iterable,
    k: int,
    action: Callable,
    closure_truncated: bool = False,
) -> FreeTupleSet:
    """Ordered k-tuples of X whose pointwise stabilizer within G_set is
    trivial.  With a truncated closure the result is only relative to
    G_set, and the flag says so."""
    from itertools import product

    X = list(X)
    elements = list(G_set)
    identity = [g for g in elements if _is_identity(g)]
    if not identity:
        raise ValueError("G_set must contain the identity")
    fix_sets = []
    for g in elements:
        if _is_identity(g):
            continue
        fixed = frozenset(x for x in X if action(g, x) == x)
        if len(fixed) > 0:
            fix_sets.append(fixed)
    tuples = set()
    skipped = 0
    for tup in product(X, repeat=k):
        members = set(tup)
        if any(members <= fixed for fixed in fix_sets):
            skipped += 1
        else:
            tuples.add(tup)
    return FreeTupleSet(k, tuples, skipped, closure_truncated)


def _is_identity(g) -> bool:
    if hasattr(g, "is_identity"):
        return g.is_identity()
    return g == g.__class__.identity(g.ctx)


@dataclass
class OmegaReport:
    elements: Set
    mass: int                  # sum over elements of |g Xt ^ Xt|
    tuple_count: int           # |Xt|
    t: Fraction
    mass_bound_ok: bool        # mass <= |Xt|^2
    size_bound_ok: bool        # |Omega| <= 2 |Xt|^(1+t), exact comparison

    def as_dict(self) -> dict:
        return {
            "omega_size": len(self.elements),
            "omega_mass": self.mass,
            "tuple_count": self.tuple_count,
            "t": f"{self.t.numerator}/{self.t.denominator}",
            "mass_bound_ok": self.mass_bound_ok,
            "size_bound_ok": self.size_bound_ok,
        }


def omega_set(
    ft: FreeTupleSet,
    candidates: Iterable,
    t: Fraction,
    action: Callable,
) -> OmegaReport:
    """Candidates g with |g Xt ^ Xt| > (1/2) |Xt|^(1-t).

    Thresholds are compared by cross-multiplied integer powers with
    t = u/v, so no acceptance decision ever touches floating point.
    When the free action is verified (closure not truncated), the mass
    bound mass <= |Xt|^2 and the size bound |Omega_t| <= 2 |Xt|^(1+t)
    are checked and a violation raises (it would mean a bug).
    """
    t = Fraction(t)
    if not (0 < t < 1):
        raise ValueError("t must lie strictly between 0 and 1")
    if not ft.tuples:
        raise ValueError("free tuple set is empty")
    u, v = t.numerator, t.denominator
    n = len(ft.tuples)
    accepted = set()
    mass = 0
    seen = set()
    for g in candidates:
        if g in seen:
            continue
        seen.add(g)
        overlap = 0
        for tup in ft.tuples:
            moved = tuple(action(g, x) for x in tup)
            if moved in ft.tuples:
                overlap += 1
        # |g Xt ^ Xt| > (1/2) n^(1-t)  <=>  (2*overlap)^v > n^(v-u)
        if (2 * overlap) ** v > n ** (v - u):
            accepted.add(g)
            mass += overlap
    mass_ok = mass <= n * n
    size_ok = len(accepted) ** v <= (2**v) * n ** (v + u)
    if not ft.closure_truncated and not (mass_ok and size_ok):
        raise VerificationFailure(
            "almost-invariance bounds violated on a verified free action"
        )
    return OmegaReport(accepted, mass, n, t, mass_ok, size_ok)


def affine_group_elements(ctx: FieldCtx) -> List[AffElem]:
    """The full group G_a^2 x| G_m over a small field."""
    out = []
    for a in ctx.elements():
        for b in ctx.elements():
            for c in ctx.elements():
                if not c.is_zero():
                    out.append(AffElem(ctx, a, b, c))
    return out

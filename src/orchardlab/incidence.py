"""Exact counting kernels: collinear triples, line and pencil-plane
concentration, stabilizer censuses, free tuples and the almost-invariance
set Omega_t.

Two interchangeable triple kernels are provided: a brute-force rank test
over all ordered triples, and a line-hash kernel that buckets point pairs
by the canonical line they span.  They must agree exactly; the hash
kernel is the fast one.  Neither builds a field element: prime fields
run both on the points' int code tuples, F_{p^n} on their tuples of
Zech log codes (products as one table lookup, sums through the Zech
table, see `FieldCtx._zech`).  Each field has its own brute kernel and
RREF line key, and both keys are the flat 8-tuple of int codes that
`ProjLine.key` is, so the hash kernel, `line_concentration` and the
reported lines are shared.

- The brute kernels run the four 3x3 minor tests before excluding a
  repeated point: the two points of the pair pass every minor, so they
  are dropped only after a hit.
- The hash kernel keeps each line key's X1 x X2 pairs in one list,
  collects X3 points only for keys already seen, and counts distinct
  triples only on the lines that got an X3 point.
- Reported lines are built once, from the kernels' keys, which are
  already in canonical RREF.
- The pencil statistic reads each point once: the point's values on the
  two base planes name the one plane of the pencil it lies on (or all of
  them, on the base line).  Planes are taken in `pencil_planes` order,
  and the first to reach the max is the witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .field import FieldCtx, FieldElem, inv
from .groups import AffElem
from .projgeom import (
    EqualPoints,
    MixedContexts,
    ProjLine,
    ProjPlane,
    ProjPoint,
    TooLarge,
    line_through,  # not called here; perfbench/tracing.py wraps it here by name
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
    # the kernel's own per-line counts, keyed by raw line keys: the flat
    # RREF 8-tuples of element codes that `ProjLine.key` also uses
    line_keys: Dict[tuple, int] = field(default_factory=dict, repr=False)

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
            for v3 in X3:
                c0, c1, c2, c3 = v3
                if (c0 * m12 - c1 * m02 + c2 * m01) % p:
                    continue
                if (c0 * m13 - c1 * m03 + c3 * m01) % p:
                    continue
                if (c0 * m23 - c2 * m03 + c3 * m02) % p:
                    continue
                if (c1 * m23 - c2 * m13 + c3 * m12) % p:
                    continue
                # v1 and v2 pass every minor; drop them only after a hit
                if v3 != v1 and v3 != v2:
                    hits += 1
            if hits:
                total += hits
                key = _rref_key_int(p, inv, v1, v2)
                per_line[key] = per_line.get(key, 0) + hits
    return total, per_line


def _log_tables(ctx: FieldCtx):
    """(exp, red, zech, Z, l(-1)) of ctx's Zech-log arrays (see
    `FieldCtx._zech`), the tables the log-code kernels read."""
    _, exp, red, zech = ctx._zech()
    return exp, red, zech, ctx._log_zero, ctx._log_minus_one


def _rref_key_log_slow(t, v1, v2):
    exp, red, zech, Z, m1 = t
    q1 = Z >> 1                     # q - 1: x * y^-1 has log red[x + q1 - y]
    rows = [list(v1), list(v2)]
    pivot_row = 0
    for col in range(4):
        hit = None
        for r in range(pivot_row, 2):
            if rows[r][col] != Z:
                hit = r
                break
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        s = q1 - rows[pivot_row][col]
        rows[pivot_row] = [red[x + s] for x in rows[pivot_row]]
        for r in range(2):
            if r != pivot_row and rows[r][col] != Z:
                f = red[rows[r][col] + m1]
                rows[r] = [
                    red[x + zech[red[f + y] - x + Z]]
                    for x, y in zip(rows[r], rows[pivot_row])
                ]
        pivot_row += 1
        if pivot_row == 2:
            break
    return tuple(exp[x] for x in rows[0] + rows[1])


def _rref_key_log(t, v1, v2):
    """`_rref_key_int` on log codes: the canonical RREF key, as the flat
    8-tuple of int codes, of the span of two independent vectors of log
    codes over F_{p^n}.  t is `_log_tables(ctx)`: x * y has log
    red[x + y], -x has log red[x + l(-1)], and x + y has log
    red[x + zech[y - x + Z]].  Unrolled when a row pivots in column 0;
    rows both starting with 0 take the general path."""
    exp, red, zech, Z, m1 = t
    if v1[0] != Z:
        a0, a1, a2, a3 = v1
        b0, b1, b2, b3 = v2
    elif v2[0] != Z:
        a0, a1, a2, a3 = v2
        b0, b1, b2, b3 = v1
    else:
        return _rref_key_log_slow(t, v1, v2)
    q1 = Z >> 1
    if a0:                          # log 0 is 1, the pivot of a canonical point
        s = q1 - a0
        a1, a2, a3 = red[a1 + s], red[a2 + s], red[a3 + s]
    if b0 != Z:
        f = red[b0 + m1]
        b1 = red[b1 + zech[red[f + a1] - b1 + Z]]
        b2 = red[b2 + zech[red[f + a2] - b2 + Z]]
        b3 = red[b3 + zech[red[f + a3] - b3 + Z]]
    one = exp[0]
    if b1 != Z:
        if b1:
            s = q1 - b1
            b2, b3 = red[b2 + s], red[b3 + s]
        if a1 != Z:
            f = red[a1 + m1]
            a2 = red[a2 + zech[red[f + b2] - a2 + Z]]
            a3 = red[a3 + zech[red[f + b3] - a3 + Z]]
        return (one, 0, exp[a2], exp[a3], 0, one, exp[b2], exp[b3])
    if b2 != Z:
        if b2:
            b3 = red[b3 + q1 - b2]
        if a2 != Z:
            a3 = red[a3 + zech[red[red[a2 + m1] + b3] - a3 + Z]]
        return (one, exp[a1], 0, exp[a3], 0, 0, one, exp[b3])
    # b3 must be nonzero: the vectors are independent
    return (one, exp[a1], exp[a2], 0, 0, 0, 0, one)


def _count_brute_generic(ctx, X1, X2, X3):
    """`_count_brute_int` over F_{p^n}, on log codes (see `_keyed`).  Each
    minor test c_i m_jk - c_j m_ik + c_k m_ij = 0 compares the logs of
    c_i m_jk + c_k m_ij and c_j m_ik, so it needs no negation."""
    t = _log_tables(ctx)
    _, red, zech, Z, m1 = t
    per_line: Dict[tuple, int] = {}
    total = 0

    def minor(x, y):
        # log of x - y from the logs of the products x and y
        return red[x + zech[red[y + m1] - x + Z]]

    for v1 in X1:
        a0, a1, a2, a3 = v1
        for v2 in X2:
            if v1 == v2:
                continue
            b0, b1, b2, b3 = v2
            m01 = minor(red[a0 + b1], red[a1 + b0])
            m02 = minor(red[a0 + b2], red[a2 + b0])
            m03 = minor(red[a0 + b3], red[a3 + b0])
            m12 = minor(red[a1 + b2], red[a2 + b1])
            m13 = minor(red[a1 + b3], red[a3 + b1])
            m23 = minor(red[a2 + b3], red[a3 + b2])
            hits = 0
            for v3 in X3:
                c0, c1, c2, c3 = v3
                x = red[c0 + m12]
                if red[x + zech[red[c2 + m01] - x + Z]] != red[c1 + m02]:
                    continue
                x = red[c0 + m13]
                if red[x + zech[red[c3 + m01] - x + Z]] != red[c1 + m03]:
                    continue
                x = red[c0 + m23]
                if red[x + zech[red[c3 + m02] - x + Z]] != red[c2 + m03]:
                    continue
                x = red[c1 + m23]
                if red[x + zech[red[c3 + m12] - x + Z]] != red[c2 + m13]:
                    continue
                # v1 and v2 pass every minor; drop them only after a hit
                if v3 != v1 and v3 != v2:
                    hits += 1
            if hits:
                total += hits
                key = _rref_key_log(t, v1, v2)
                per_line[key] = per_line.get(key, 0) + hits
    return total, per_line


def _distinct_triple_count(s1: set, s2: set, s3: set) -> int:
    a, b, c = len(s1), len(s2), len(s3)
    e12 = len(s1 & s2)
    e13 = len(s1 & s3)
    e23 = len(s2 & s3)
    e123 = len(s1 & s2 & s3)
    return a * b * c - e12 * c - e13 * b - e23 * a + 2 * e123


def _bucket_counts(pairs: Dict[tuple, list], thirds: Dict[tuple, list]):
    """Distinct triples per line key.  pairs[key] holds the key's X1 x X2
    pairs flattened (x1, x2, x1, x2, ...), thirds[key] its X3 points; a
    key without an X3 point contributes nothing and is never visited."""
    total = 0
    per_line: Dict[tuple, int] = {}
    for key, third in thirds.items():
        pair = pairs[key]
        d = _distinct_triple_count(set(pair[0::2]), set(pair[1::2]), set(third))
        if d:
            total += d
            per_line[key] = d
    return total, per_line


def _count_hash(key_of, X1, X2, X3):
    """Line-hash kernel over points in the form `key_of` takes (see
    `_keyed`): every X1 x X2 pair is bucketed by its line key, and an X1 x
    X3 pair only adds its X3 point to a line already bucketed."""
    pairs: Dict[tuple, list] = {}
    for v1 in X1:
        for v2 in X2:
            if v1 == v2:
                continue
            key = key_of(v1, v2)
            bucket = pairs.get(key)
            if bucket is None:
                pairs[key] = [v1, v2]
            else:
                bucket += (v1, v2)
    thirds: Dict[tuple, list] = {}
    for v1 in X1:
        for v3 in X3:
            if v1 == v3:
                continue
            key = key_of(v1, v3)
            if key in pairs:
                thirds.setdefault(key, []).append(v3)
    return _bucket_counts(pairs, thirds)


def _keyed(ctx: FieldCtx, *sets):
    """The point sets in the form the kernels take, and the line-key
    function on that form: the points' code tuples and their int RREF key
    on prime fields, the points' log-code tuples (see `FieldCtx._zech`)
    and their log-domain RREF key otherwise.  Both keys are the flat
    8-tuple of int codes that `ProjLine.key` is."""
    if ctx.n == 1:
        p = ctx.p
        return partial(_rref_key_int, p, _inv_table(p)), [[x.key for x in X] for X in sets]
    log = ctx._zech()[0]
    return (
        partial(_rref_key_log, _log_tables(ctx)),
        [[tuple(log[c] for c in x.key) for x in X] for X in sets],
    )


def _line_from_key(ctx: FieldCtx, key) -> ProjLine:
    """The line of a kernel's line key, which is already its canonical
    RREF as a flat 8-tuple of codes."""
    rows = [[FieldElem(ctx, c) for c in key[:4]], [FieldElem(ctx, c) for c in key[4:]]]
    return ProjLine.from_rref(ctx, rows)


def count_collinear_triples(
    X1: Sequence[ProjPoint],
    X2: Sequence[ProjPoint],
    X3: Sequence[ProjPoint],
    kernel: str = "hash",
    collect_by_line: bool = True,
) -> TripleCount:
    """Ordered, pairwise distinct, collinear triples of X1 x X2 x X3.

    kernel is "hash" (line bucketing), "brute" (rank test per triple) or
    "both" (run the two and insist on identical totals and per-line
    counts, compared on raw line keys before any line is built).  Raises
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
        brute = count_collinear_triples(X1, X2, X3, "brute", False)
        hashed = count_collinear_triples(X1, X2, X3, "hash", False)
        if brute.total != hashed.total or (
            collect_by_line and brute.line_keys != hashed.line_keys
        ):
            raise VerificationFailure(
                f"kernel disagreement: brute {brute.total} vs hash {hashed.total}"
            )
        total, per_raw, kernel = hashed.total, hashed.line_keys, "hash"
    elif kernel not in ("hash", "brute"):
        raise ValueError(f"unknown kernel {kernel!r}")
    else:
        key_of, sets = _keyed(ctx, X1, X2, X3)
        if kernel == "hash":
            total, per_raw = _count_hash(key_of, *sets)
        elif ctx.n == 1:
            total, per_raw = _count_brute_int(ctx.p, *sets)
        else:
            total, per_raw = _count_brute_generic(ctx, *sets)
    if not collect_by_line:
        return TripleCount(total, {}, kernel, per_raw)
    by_line = {_line_from_key(ctx, k): v for k, v in per_raw.items()}
    return TripleCount(total, by_line, kernel, per_raw)


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


def _line_pair_counts(ctx: FieldCtx, X: Sequence[ProjPoint]) -> Dict[tuple, int]:
    """The unordered pairs of the distinct points X by line key (see
    `_keyed`), keys in the order their first pair comes in X: a line
    holding a points of X gets a*(a-1)/2 pairs."""
    counts: Dict[tuple, int] = {}
    key_of, [pts] = _keyed(ctx, X)
    for i, v1 in enumerate(pts):
        for v2 in pts[i + 1:]:
            key = key_of(v1, v2)
            counts[key] = counts.get(key, 0) + 1
    return counts


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
    counts = _line_pair_counts(ctx, X)
    # the largest key among the lines with the most pairs
    pairs = max(counts.values())
    best_key = max(k for k, v in counts.items() if v == pairs)
    # pairs = a*(a-1)/2 on a line holding a points of X
    a = 1
    while a * (a - 1) // 2 < pairs:
        a += 1
    if a * (a - 1) // 2 != pairs:
        raise VerificationFailure("pair count is not triangular")
    return ConcentrationReport(a, _line_from_key(ctx, best_key))


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
    """Max of |X3 intersect P| over the pencil of planes through P1^P2.

    The planes are taken in `pencil_planes` order: P1, then the plane
    t*P1 + P2 for each t of ctx.elements() (t = 0 gives P2).  The witness
    is the first plane in that order to reach the max.  Without the base
    planes, P1 and P2 are left out.  An empty X3 reports 0 and the first
    plane.  One pass over X3: with s = P1.x and r = P2.x, a point lies on
    every plane when s = r = 0, on P1 alone when s = 0 != r, and otherwise
    on the plane t = -r/s alone.  Raises EqualPlanes when P1 == P2 and
    MixedContexts when a plane or a point is over another field.
    """
    if P1 == P2:
        raise EqualPlanes("pencil needs two distinct planes")
    ctx = P1.ctx
    if P2.ctx is not ctx:
        raise MixedContexts("planes from different fields")
    d1, d2 = P1.dual, P2.dual
    on_all = on_p1 = 0
    on_t: Dict[int, int] = {}
    for x in X3:
        if x.ctx is not ctx:
            raise MixedContexts("point from a different field")
        s = r = ctx.zero()
        for a, b, c in zip(d1, d2, x.coords):
            s = s + a * c
            r = r + b * c
        if not s.is_zero():
            t = (-r * inv(s)).code
            on_t[t] = on_t.get(t, 0) + 1
        elif r.is_zero():
            on_all += 1
        else:
            on_p1 += 1
    best = on_all + on_p1 if include_base_planes else -1
    witness_t = None
    for t in ctx.elements():
        if include_base_planes or not t.is_zero():
            hit = on_all + on_t.get(t.code, 0)
            if hit > best:
                best, witness_t = hit, t
    witness = P1 if witness_t is None else ProjPlane(
        ctx, [a * witness_t + b for a, b in zip(d1, d2)]
    )
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
    """Whether some (a, b, c) != (0, 0, 1) fixes both points of {x0 = 0}.

    The stabilizer of [0 : 0 : u2 : u3] is the whole group; that of
    [0 : 1 : u2 : u3] is the family ((c-1)u2, (c-1)u3, c), c != 0, which
    is trivial over F_2.  Two such families meet only at the identity
    unless the two points are equal.
    """
    fixes_p = p.coords[1].is_zero()
    fixes_q = q.coords[1].is_zero()
    if fixes_p and fixes_q:
        return True
    if ctx.order == 2:
        return False
    return fixes_p or fixes_q or p == q


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

    nontrivial_count is the exact census, one O(1) stabilizer test per
    ordered pair; closed_form_count applies the coordinate case split,
    which is a sound over-approximation (it may flag pairs whose
    stabilizer is in fact trivial, never the reverse; a missed pair
    raises VerificationFailure).
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

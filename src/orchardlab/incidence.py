"""Exact counting kernels: collinear triples, line and pencil-plane
concentration and the stabilizer census.

Two interchangeable triple kernels are provided: a brute-force rank test
over all ordered triples, and a line-hash kernel that buckets point pairs
by the canonical line they span.  They must agree exactly; the hash
kernel is the fast one.  Neither builds a field element: prime fields
run both on the points' int code tuples, F_{p^n} on their tuples of
Zech log codes (products as one table lookup, sums through the Zech
table, see `field.ZechTables`).  Each code domain has one brute kernel and
one unrolled RREF line key, which takes every pair of distinct canonical
points (first nonzero entry 1), those on {x0 = 0} included.  Both keys are
the flat 8-tuple of int codes that `ProjLine.key` is, so the hash kernel,
`line_concentration` and the reported lines are shared.  Point sets pass
through `PointSet.of`, which raises for a set that is not one.

- The brute kernels run the four 3x3 minor tests before excluding a
  repeated point: the two points of the pair pass every minor, so they
  are dropped only after a hit.  The int kernel decides the first minor,
  det(pi v1, pi v2, pi v3) with pi dropping x3, in C: each X3 point gets
  an int code of pi v1 x pi v3 once per v1, and each pair, in one walk
  of X3, keeps the points whose code is its own, the code of
  pi v1 x pi v2, which every counted point has.  On sets in general
  position about one point in p survives; on a plane through [0:0:0:1]
  every point does, and the codes and the filter cost about what the
  skipped minor saves.
- The hash kernel takes one X1 point at a time: a `Counter` over the
  `map` of that point's line key on X2 is its bucket, the same `map` on
  X3 gives each X3 point's key, and Python steps in only for the X3
  points whose key is in the bucket.  Memory beyond the per-line result
  is O(|X2| + |X3|).  `line_concentration` uses the same per-point
  `Counter`, over the points after each one.
- Lines are reported, and the `line_concentration` witness given, by
  their kernel keys, which are already in canonical RREF: `line_text`
  writes a key's text.
- The pencil statistic reads each point once: the point's values on the
  two base planes name the one plane of the pencil it lies on (or all of
  them, on the base line).  Planes are taken in the order P1, then
  t*P1 + P2 for t in `ctx.elements()`, and the first to reach the max is
  the witness.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import chain, compress
from operator import mul
from typing import Dict, NamedTuple, Optional, Sequence

from .errors import OrchardError, VerificationFailure
from .field import FieldCtx, FieldElem, _digits
from .projgeom import (
    PAIR_PRODUCT_CAP,
    MixedContexts,
    PointSet,
    ProjPlane,
    ProjPoint,
    TooLarge,
    line_through,  # not called here; perfbench/tracing.py wraps it here by name
)


# -- collinear triple counting -------------------------------------------

def line_text(ctx: FieldCtx, key) -> str:
    """Text form of the line with this line key: its two basis rows,
    point-style, joined by |."""
    if ctx.n == 1:
        return "%d:%d:%d:%d|%d:%d:%d:%d" % key
    text = ctx.code_text
    return ":".join(map(text, key[:4])) + "|" + ":".join(map(text, key[4:]))


def line_keys_by_text(ctx: FieldCtx, by_line: Dict[tuple, int]) -> list:
    """The line keys of `by_line` sorted by their `line_text`, with no
    text made: each key sorts by one int that packs a rank per entry.

    Only the element codes that occur are ranked, so no table is
    field-sized.  Entries 0-6 rank by the code's text followed by ":",
    entry 7 by its bare text.  Entry 3 is followed by "|" in the line text,
    yet ranks the same: element texts hold only digits and ",", and ":"
    and "|" both sort above those, so where one entry's text is a prefix
    of the other's, the shorter sorts last either way."""
    codes = set(chain.from_iterable(by_line))
    text = ctx.code_text
    width = len(codes).bit_length()
    orders = [sorted(codes, key=lambda c: text(c) + ":")] * 7 + [sorted(codes, key=text)]
    r0, r1, r2, r3, r4, r5, r6, r7 = ({c: r << width * (7 - i) for r, c in enumerate(order)}
                                      for i, order in enumerate(orders))
    # sum adds in a C long while the total fits one, making no interim int
    return sorted(by_line, key=lambda k: sum((r0[k[0]], r1[k[1]], r2[k[2]], r3[k[3]],
                                              r4[k[4]], r5[k[5]], r6[k[6]], r7[k[7]])))


class TripleCount(NamedTuple):
    total: int
    # per-line counts by line key: the flat RREF 8-tuple of element codes
    # that `ProjLine.key` is
    by_line: Dict[tuple, int]


@lru_cache(maxsize=1)
def _inv_table(p: int):
    table = [0, 1] + [0] * (p - 2)
    for x in range(2, p):
        table[x] = -(p // x) * table[p % x] % p     # as p = (p // x) x + p % x
    return table


def _rref_key_int(p: int, inv, v1, v2):
    """Canonical RREF key of the 2x4 span of two distinct canonical point
    code tuples (first nonzero entry 1), unrolled.  The pivot row a is a
    point with x0 = 1 when there is one; the other row b then has b0 in
    {0, 1}, so eliminating b0 is a subtraction.  Two points on {x0 = 0}
    span a line of {x0 = 0}: the RREF of their last three entries after
    a 0 column, the same steps one place on."""
    if not v1[0]:
        if not v2[0]:
            if not v1[1]:
                if not v2[1]:
                    return (0, 0, 1, 0, 0, 0, 0, 1)     # both on {x0 = x1 = 0}
                v1, v2 = v2, v1
            _, _, a2, a3 = v1
            _, b1, b2, b3 = v2
            if b1:
                b2, b3 = (b2 - a2) % p, (b3 - a3) % p
            if b2:
                if b2 != 1:
                    b3 = b3 * inv[b2] % p
                return (0, 1, 0, (a3 - a2 * b3) % p, 0, 0, 1, b3)
            return (0, 1, a2, 0, 0, 0, 0, 1)
        v1, v2 = v2, v1
    _, a1, a2, a3 = v1
    b0, b1, b2, b3 = v2
    if b0:
        b1, b2, b3 = (b1 - a1) % p, (b2 - a2) % p, (b3 - a3) % p
    if b1:
        if b1 != 1:
            t = inv[b1]
            b2, b3 = b2 * t % p, b3 * t % p
        return (1, 0, (a2 - a1 * b2) % p, (a3 - a1 * b3) % p, 0, 1, b2, b3)
    if b2:
        if b2 != 1:
            b3 = b3 * inv[b2] % p
        return (1, a1, 0, (a3 - a2 * b3) % p, 0, 0, 1, b3)
    # b3 must be nonzero: the points are distinct
    return (1, a1, a2, 0, 0, 0, 0, 1)


def _count_brute_int(p: int, X1, X2, X3):
    """All ordered triples, rank test expanded into 3x3 minors, the first
    minor decided in C.  With pi dropping the last coordinate (projection
    from e3 = [0:0:0:1]) and k the `_cross_code` of pi v1 x pi v2, a
    counted c is on the line v1 v2 and is not v1, so c = a v1 + b v2 with
    b != 0, and pi v1 x pi c = b (pi v1 x pi v2) has the code k.  Each X3
    point is coded once per v1; per pair, `compress` keeps the points
    whose code is k, and only those run the other three minor tests in
    Python.  X3 is walked once per pair of distinct points.  The worst
    case is a plane through e3: pi maps it into one line, so every code is
    k but those of the points on the line v1 e3, nearly nothing is
    filtered, and the coding and the filter cost about what the skipped
    minor saves."""
    per_line: Dict[tuple, int] = {}
    total = 0
    inv = _inv_table(p)
    for v1 in X1:
        a0, a1, a2, a3 = v1
        cross = partial(_cross_code, p, inv, a0, a1, a2)
        codes = None
        for v2 in X2:
            if v1 == v2:
                continue
            if codes is None:
                # v1's first pair codes its walk, so X3 is walked once a pair
                walk = list(X3)
                codes = [cross(c0, c1, c2) for c0, c1, c2, _ in walk]
            else:
                walk = X3
            b0, b1, b2, b3 = v2
            walk = compress(walk, map(cross(b0, b1, b2).__eq__, codes))
            m01 = (a0 * b1 - a1 * b0) % p
            m02 = (a0 * b2 - a2 * b0) % p
            m03 = (a0 * b3 - a3 * b0) % p
            m12 = (a1 * b2 - a2 * b1) % p
            m13 = (a1 * b3 - a3 * b1) % p
            m23 = (a2 * b3 - a3 * b2) % p
            hits = 0
            for c0, c1, c2, c3 in walk:
                if (c0 * m13 - c1 * m03 + c3 * m01) % p:
                    continue
                if (c0 * m23 - c2 * m03 + c3 * m02) % p:
                    continue
                if (c1 * m23 - c2 * m13 + c3 * m12) % p:
                    continue
                # v1 and v2 pass every minor; drop them only after a hit
                if (c0, c1, c2, c3) not in (v1, v2):
                    hits += 1
            if hits:
                total += hits
                key = _rref_key_int(p, inv, v1, v2)
                per_line[key] = per_line.get(key, 0) + hits
    return total, per_line


def _cross_code(p: int, inv, a0, a1, a2, c0, c1, c2) -> int:
    """The cross product (a0, a1, a2) x (c0, c1, c2) over F_p as one int:
    0 for the zero vector, else the base-p number of its digits scaled to
    first nonzero digit 1, so two codes agree iff the nonzero products are
    proportional."""
    x = (a1 * c2 - a2 * c1) % p
    y = (a2 * c0 - a0 * c2) % p
    z = (a0 * c1 - a1 * c0) % p
    if x:
        t = inv[x]
        return (p + y * t % p) * p + z * t % p
    if y:
        return p + z * inv[y] % p
    return 1 if z else 0


def _rref_key_log(t, v1, v2):
    """`_rref_key_int` on log codes: the canonical RREF key, as the flat
    8-tuple of int codes, of the span of two distinct canonical points
    given as tuples of log codes over F_{p^n} (first non-Z entry 0, the
    log of 1).  t is the field's `ZechTables`: x * y has log red[x + y],
    -x has log red[x + m1], and x + y has log red[x + zech[y - x + Z]].
    When both rows start with 0, their s shared leading zero columns move
    to the end: zero columns never pivot and the others keep their order,
    so the RREF of the rotated rows, rotated back, is the key."""
    _, exp, red, zech, Z, m1 = t
    if v1[0] != Z:
        _, a1, a2, a3 = v1
        b0, b1, b2, b3 = v2
        s = 0
    elif v2[0] != Z:
        _, a1, a2, a3 = v2
        b0, b1, b2, b3 = v1
        s = 0
    else:
        s = 1 if v1[1] != Z or v2[1] != Z else 2
        if v1[s] == Z:
            v1, v2 = v2, v1
        _, a1, a2, a3 = v1[s:] + (Z,) * s
        b0, b1, b2, b3 = v2[s:] + (Z,) * s
    q1 = Z >> 1                     # q - 1: x * y^-1 has log red[x + q1 - y]
    if b0 != Z:
        f = red[b0 + m1]
        b1 = red[b1 + zech[red[f + a1] - b1 + Z]]
        b2 = red[b2 + zech[red[f + a2] - b2 + Z]]
        b3 = red[b3 + zech[red[f + a3] - b3 + Z]]
    one = exp[0]
    if b1 != Z:
        if b1:
            k = q1 - b1
            b2, b3 = red[b2 + k], red[b3 + k]
        if a1 != Z:
            f = red[a1 + m1]
            a2 = red[a2 + zech[red[f + b2] - a2 + Z]]
            a3 = red[a3 + zech[red[f + b3] - a3 + Z]]
        key = (one, 0, exp[a2], exp[a3], 0, one, exp[b2], exp[b3])
    elif b2 != Z:
        if b2:
            b3 = red[b3 + q1 - b2]
        if a2 != Z:
            a3 = red[a3 + zech[red[red[a2 + m1] + b3] - a3 + Z]]
        key = (one, exp[a1], 0, exp[a3], 0, 0, one, exp[b3])
    else:
        # b3 must be nonzero: the points are distinct (and s is 0)
        return (one, exp[a1], exp[a2], 0, 0, 0, 0, one)
    if s:
        z = (0,) * s
        return z + key[:4 - s] + z + key[4:8 - s]
    return key


def _count_brute_generic(ctx, X1, X2, X3):
    """`_count_brute_int` over F_{p^n}, on log codes (see `_keyed`).  Each
    minor test c_i m_jk - c_j m_ik + c_k m_ij = 0 compares the logs of
    c_i m_jk + c_k m_ij and c_j m_ik, so it needs no negation."""
    t = ctx.zech
    _, _, red, zech, Z, _ = t
    minor = t.minus
    per_line: Dict[tuple, int] = {}
    total = 0
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
            for c0, c1, c2, c3 in X3:
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
                if (c0, c1, c2, c3) not in (v1, v2):
                    hits += 1
            if hits:
                total += hits
                key = _rref_key_log(t, v1, v2)
                per_line[key] = per_line.get(key, 0) + hits
    return total, per_line


def _count_hash(key_of, X1, X2, X3):
    """Line-hash kernel over points in the form `key_of` takes (see
    `_keyed`), one pass per X1 point v1: a Counter of the line keys its
    X2 points span with v1, then each X3 point whose key is in it adds
    that count, less one when it is in X2 itself (v2 = v3).  `map` and
    `Counter` key and count in C: Python runs once per X1 point and hit."""
    in_x2, in_x3 = set(X2), set(X3)
    total = 0
    per_line: Dict[tuple, int] = {}
    for v1 in X1:
        key = partial(key_of, v1)
        bucket = Counter(map(key, filter(v1.__ne__, X2) if v1 in in_x2 else X2))
        others = list(filter(v1.__ne__, X3)) if v1 in in_x3 else X3
        keys = list(map(key, others))
        for v3, k in compress(zip(others, keys), map(bucket.__contains__, keys)):
            hits = bucket[k] - (v3 in in_x2)
            if hits:
                total += hits
                per_line[k] = per_line.get(k, 0) + hits
    return total, per_line


def _keyed(ctx: FieldCtx, *sets: PointSet):
    """The point sets over ctx in the form the kernels take, and the
    line-key function on that form: the sets' `keys` and their int RREF
    key on prime fields, their `logs` and the log-domain RREF key
    otherwise.  The tuples are canonical, as the keys require, and each
    field has the one key for any pair of distinct points.  Both keys are
    the flat 8-tuple of int codes that `ProjLine.key` is."""
    if ctx.n == 1:
        p = ctx.p
        return partial(_rref_key_int, p, _inv_table(p)), [X.keys for X in sets]
    return partial(_rref_key_log, ctx.zech), [X.logs for X in sets]


def count_collinear_triples(
    X1: Sequence[ProjPoint],
    X2: Sequence[ProjPoint],
    X3: Sequence[ProjPoint],
    kernel: str = "hash",
) -> TripleCount:
    """Ordered, pairwise distinct, collinear triples of X1 x X2 x X3.

    kernel is "hash" (line bucketing), "brute" (rank test per triple) or
    "both" (run the two and insist on identical totals and per-line
    counts).  Raises ValueError for any other kernel, TooLarge when the
    hash kernel would key more than PAIR_PRODUCT_CAP pairs (each X1
    point with every other point of X2 and of X3: |X1| (|X2| + |X3|),
    less the points X1 shares with X2 and with X3), then MixedContexts
    when two nonempty sets are over different fields, before any empty
    set gives 0.
    """
    if kernel not in ("hash", "brute", "both"):
        raise ValueError(f"unknown kernel {kernel!r}")
    in_x1 = set(X1)
    shared = sum(x in in_x1 for X in (X2, X3) for x in X)
    if len(X1) * (len(X2) + len(X3)) - shared > PAIR_PRODUCT_CAP:
        raise TooLarge("pair product exceeds the counting guard")
    X1, X2, X3 = PointSet.of(X1), PointSet.of(X2), PointSet.of(X3)
    ctx = X1.ctx or X2.ctx or X3.ctx
    if any(X and X.ctx is not ctx for X in (X1, X2, X3)):
        raise MixedContexts("point sets over different fields")
    if not X1 or not X2 or not X3:
        return TripleCount(0, {})
    if kernel == "both":
        brute = count_collinear_triples(X1, X2, X3, "brute")
        hashed = count_collinear_triples(X1, X2, X3, "hash")
        if brute.total != hashed.total:
            raise VerificationFailure(
                f"kernel disagreement: brute {brute.total} vs hash {hashed.total}"
            )
        if brute.by_line != hashed.by_line:
            b, h = brute.by_line, hashed.by_line
            key = min(k for k in b.keys() | h.keys() if b.get(k) != h.get(k))
            raise VerificationFailure(
                f"kernel disagreement on line {line_text(ctx, key)}: "
                f"brute {b.get(key, 0)} vs hash {h.get(key, 0)}"
            )
        return hashed
    key_of, sets = _keyed(ctx, X1, X2, X3)
    if kernel == "hash":
        return TripleCount(*_count_hash(key_of, *sets))
    if ctx.n == 1:
        return TripleCount(*_count_brute_int(ctx.p, *sets))
    return TripleCount(*_count_brute_generic(ctx, *sets))


# -- concentration statistics ----------------------------------------------

class ConcentrationReport(NamedTuple):
    max_count: int
    # the key of the line (`line_concentration`) or plane (`pencil_plane_concentration`)
    # that reaches max_count; None when no line is spanned
    witness: Optional[tuple] = None


def line_concentration(X: Sequence[ProjPoint]) -> ConcentrationReport:
    """Exact max of |X intersect line| over lines spanned by pairs of X,
    with the largest line key among the lines that reach it as witness.

    A line meeting X in at most one point never beats a spanned line once
    |X| >= 2, so the spanned lines suffice; singletons report 1.  A line
    holding a points counts a - 1 in its first point's Counter of the line
    keys (see `_keyed`) to the later points, and keys are compared only in
    a Counter that reaches the running max.  Raises TooLarge when
    |X| (|X| - 1) / 2 exceeds PAIR_PRODUCT_CAP, before any pair is keyed,
    then what `PointSet.of` raises.
    """
    if len(X) * (len(X) - 1) // 2 > PAIR_PRODUCT_CAP:
        raise TooLarge("pair count exceeds the counting guard")
    X = PointSet.of(X)
    if len(X) < 2:
        return ConcentrationReport(len(X))
    key_of, [pts] = _keyed(X.ctx, X)
    best = (0, None)
    for i in range(len(pts) - 1):
        bucket = Counter(map(partial(key_of, pts[i]), pts[i + 1:]))
        m = max(bucket.values())
        if m >= best[0]:
            best = max(best, (m, max(k for k, c in bucket.items() if c == m)))
    return ConcentrationReport(best[0] + 1, best[1])


class EqualPlanes(OrchardError):
    pass


def _pencil_planes_of(ctx: FieldCtx, X: PointSet, P1: ProjPlane, P2: ProjPlane):
    """For each point of X, with s and r its values on P1 and P2: the int
    code of t = -r/s when s != 0 (the point is on t*P1 + P2 alone), P1 when
    s = 0 != r, and None when s = r = 0 (it is on every plane).  Prime
    fields compute on the points' `keys` mod p, F_{p^n} on their `logs`."""
    if ctx.n == 1:
        p, d1, d2 = ctx.p, P1.key, P2.key
        for x in X.keys:
            s = sum(map(mul, d1, x)) % p
            r = sum(map(mul, d2, x)) % p
            yield -r * pow(s, -1, p) % p if s else (P1 if r else None)
        return
    t = ctx.zech
    _, exp, red, _, Z, m1 = t
    ones = (0,) * 4                     # log codes of 1
    e1, e2 = ([(k, k, t.log[c]) for k, c in enumerate(P.key) if c] for P in (P1, P2))
    for x in X.logs:
        s, r = t.form(e1, x, ones), t.form(e2, x, ones)
        # -r/s has log red[l(-r) + (q - 1) - l(s)], and Z >> 1 is q - 1
        yield exp[red[red[r + m1] + (Z >> 1) - s]] if s != Z else (P1 if r != Z else None)


def pencil_plane_concentration(
    X3: Sequence[ProjPoint],
    P1: ProjPlane,
    P2: ProjPlane,
) -> ConcentrationReport:
    """Max of |X3 intersect P| over the pencil of planes through P1^P2.

    The planes are taken in this order: P1, then the plane t*P1 + P2 for
    each t of ctx.elements() (t = 0 gives P2).  The witness is the key of
    the first plane in that order to reach the max (P1 for an empty X3).
    One pass over X3 on codes: with s = P1.x and r = P2.x, a point lies on
    every plane when s = r = 0, on P1 alone when s = 0 != r, and otherwise
    on the plane t = -r/s alone.  Raises EqualPlanes when P1 == P2 and
    MixedContexts when a plane or X3 is over another field.
    """
    if P1 == P2:
        raise EqualPlanes("pencil needs two distinct planes")
    ctx = P1.ctx
    X3 = PointSet.of(X3)
    if P2.ctx is not ctx or X3 and X3.ctx is not ctx:
        raise MixedContexts("planes or points from different fields")
    on_t = Counter(_pencil_planes_of(ctx, X3, P1, P2)) if X3 else Counter()
    on_all, on_p1 = on_t.pop(None, 0), on_t.pop(P1, 0)
    top = max(on_t.values(), default=0)
    if top <= on_p1:
        return ConcentrationReport(on_all + on_p1, P1.key)
    # ctx.elements() runs through the codes in the order of their base-p
    # digits, least significant first
    t = FieldElem(ctx, min((c for c, m in on_t.items() if m == top),
                           key=lambda c: _digits(c, ctx.p, ctx.n)))
    witness = ProjPlane(ctx, [a * t + b for a, b in zip(P1.dual, P2.dual)])
    return ConcentrationReport(on_all + top, witness.key)


# -- stabilizer census on the standard plane -------------------------------

class CensusReport(NamedTuple):
    nontrivial_count: int      # pairs whose exact stabilizer is nontrivial
    closed_form_count: int     # pairs flagged by the coordinate case split


def _pair_stabilizer_nontrivial(ctx: FieldCtx, p: ProjPoint, q: ProjPoint) -> bool:
    """Whether some (a, b, c) != (0, 0, 1) fixes both points of {x0 = 0}.

    The stabilizer of [0 : 0 : u2 : u3] is the whole group; that of
    [0 : 1 : u2 : u3] is the family ((c-1)u2, (c-1)u3, c), c != 0, which
    is trivial over F_2.  Two such families meet only at the identity
    unless the two points are equal.
    """
    fixes_p = not p.key[1]
    fixes_q = not q.key[1]
    if fixes_p and fixes_q:
        return True
    if ctx.order == 2:
        return False
    return fixes_p or fixes_q or p == q


def stabilizer_census_affine(X: Sequence[ProjPoint]) -> CensusReport:
    """Census of ordered pairs of X (on the plane {x0 = 0}) whose pointwise
    stabilizer in G_a^2 x| G_m is nontrivial.

    nontrivial_count is the exact census, one O(1) stabilizer test per
    ordered pair.  closed_form_count applies the coordinate case split on
    one class per point, computed once: None when one of x1, x2, x3 is 0,
    otherwise the int code of x2/x3.  The split flags a pair when a class
    is None or the two classes agree.  It is a sound over-approximation
    (it may flag pairs whose stabilizer is in fact trivial, never the
    reverse; a missed pair raises VerificationFailure), so the two counts
    differ by the pairs it flags in excess.  Raises TooLarge when |X|^2
    exceeds PAIR_PRODUCT_CAP, before any pair is visited, then what
    `PointSet.of` raises, then PointOffPlane (a `groups.GroupError`) when
    a point of X is off {x0 = 0}.
    """
    if len(X) ** 2 > PAIR_PRODUCT_CAP:
        raise TooLarge("pair count exceeds the census guard")
    X = PointSet.of(X)
    if not X:
        return CensusReport(0, 0)
    ctx = X.ctx
    for x in X:
        if x.key[0]:
            from .groups import PointOffPlane   # the census runs without groups

            raise PointOffPlane(f"{x} is not on the plane x0 = 0")
    classes = [None if 0 in x.key[1:] else (x.coords[2] / x.coords[3]).code for x in X]
    exact = 0
    closed = 0
    for p, cp in zip(X, classes):
        for q, cq in zip(X, classes):
            truth = _pair_stabilizer_nontrivial(ctx, p, q)
            flag = cp is None or cq is None or cp == cq
            if truth and not flag:
                raise VerificationFailure(
                    f"case split missed a stabilized pair ({p}, {q})"
                )
            exact += truth
            closed += flag
    return CensusReport(exact, closed)

"""Finitely supported exact-rational measures on the affine group.

A measure is stored as positive integer numerators, keyed by group keys,
over one shared positive denominator, in lowest terms (no prime divides
the denominator and every numerator).  Convolution multiplies keys and
numerators; norms, thresholds and bound checks compare integers.
`Fraction` appears only at the boundary: constructors take exact masses,
and `mu(g)`, the norms and the report rows give `Fraction`s, as does
`masses`, the element view whose size the benchmark's tracer reads.
L^2 quantities are always handled squared to stay rational.

The group is G_a^2 x| G_m over F_q, which composed plane projections
give.  It keys each `groups.AffElem` (a, b, c) as one int built from the
Zech-log codes of a, b and c (see `field.ZechTables`); a convolution
splits each atom's key into its codes once and groups the right factor's
atoms by their G_m code, so each of its terms and each key inverse is a
few lookups in arrays of length O(q).

One loop computes every product.  A square `convolve(f, f)` of a
symmetric f, which is every squaring of `flattening_report`, sorts each
G_m class by inverse key, starts each row after a bisection, and so
takes one pair of each mirror couple (y, z), (z^-1, y^-1); the half
sums are then folded onto x and x^-1.  Any other product,
`convolve(f, g)` with g a copy of f included, takes every pair.

The CLI's measure jobs draw and convolve keys only, so `groups` (and
`projgeom` below it), which each job would compile, is imported only by
the functions that make or take `AffElem`s.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional

from .errors import OrchardError
from .field import FieldCtx, FieldElem

if TYPE_CHECKING:
    from .groups import AffElem

SUPPORT_CAP = 10**6
# the most terms |supp f| |supp h| one convolution may compute
TERMS_CAP = 10**7


class MeasureError(OrchardError):
    pass


class MixedGroups(MeasureError):
    pass


class SupportBlowup(MeasureError):
    pass


class AffineGroupOps:
    """G_a^2 x| G_m over a fixed field, the group every measure lives on.

    Measures store atom g under `key(g)`: (a, b, c) has key
    (l(a) Q + l(b)) R + l(c), where l is the Zech-log code of
    `field.ZechTables` (l(0) = 2(q - 1)), Q = 2q - 1 and R = q - 1; keys
    decode with divmod (`element`, and once per atom in `convolve`),
    `key_inverse` works on keys alone, and `index_key` keys an element by
    its place in `AffElem.key` order without building it.  The arrays
    live on the interned field context, so two groups over one field
    compare equal and share them.
    """

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx

    def __eq__(self, other):
        return isinstance(other, AffineGroupOps) and self.ctx is other.ctx

    def __hash__(self):
        return hash(self.ctx)

    def key(self, g) -> int:
        from .groups import AffElem

        ctx = self.ctx
        if not isinstance(g, AffElem) or g.ctx is not ctx:
            raise MixedGroups(f"{g!r} is not an element of the affine group over {ctx}")
        log = ctx.zech.log
        q = ctx.order
        return (log[g.a.code] * (2 * q - 1) + log[g.b.code]) * (q - 1) + log[g.c.code]

    def element(self, k: int) -> AffElem:
        from .groups import AffElem

        ctx = self.ctx
        exp = ctx.zech.exp
        q = ctx.order
        ab, c = divmod(k, q - 1)
        a, b = divmod(ab, 2 * q - 1)
        return AffElem(ctx, *(FieldElem(ctx, exp[x]) for x in (a, b, c)))

    def index_key(self, index: int) -> int:
        """The key of the index-th element in `AffElem.key` order: a and b
        run over the element codes, c over the nonzero ones, so sampling
        indices in [0, q^2 (q - 1)) samples the key-sorted group."""
        ctx = self.ctx
        log = ctx.zech.log
        q = ctx.order
        ab, c = divmod(index, q - 1)
        a, b = divmod(ab, q)
        return (log[a] * (2 * q - 1) + log[b]) * (q - 1) + log[c + 1]

    def key_inverse(self, k: int) -> int:
        # (a, b, c)^-1 = (-a/c, -b/c, 1/c)
        ctx = self.ctx
        _, _, red, _, _, m1 = ctx.zech
        R = ctx.order - 1
        Q = 2 * R + 1
        ab, c = divmod(k, R)
        a, b = divmod(ab, Q)
        c_inv = red[R - c]
        scale = red[m1 + c_inv]                     # l(-1/c)
        return (red[a + scale] * Q + red[b + scale]) * R + c_inv


def _exact(m) -> Fraction:
    """An exact mass from an int, a Fraction or a numeric string; floats
    (inexact) and bools (not numbers here) are refused."""
    if isinstance(m, (bool, float)):
        raise MeasureError(f"mass {m!r} is not exact: give an int, a Fraction or a string")
    try:
        return Fraction(m)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise MeasureError(f"bad mass {m!r}") from exc


class GroupMeasure:
    """A finitely supported measure with positive rational masses.

    Atom g has mass nums[group.key(g)] / den, with den > 0 and the
    numerators and den coprime as a whole.  Masses given to the
    constructor must be exact (see `_exact`); zero masses are dropped.
    """

    __slots__ = ("group", "nums", "den")

    def __init__(self, group: AffineGroupOps, masses: Dict):
        exact = {}
        for g, m in masses.items():
            m = _exact(m)
            if m < 0:
                raise MeasureError("masses must be positive")
            if m:
                exact[group.key(g)] = m
        # the lcm of reduced denominators already leaves the sum in lowest terms
        den = math.lcm(*(m.denominator for m in exact.values()))
        self.group = group
        self.nums = {k: m.numerator * (den // m.denominator) for k, m in exact.items()}
        self.den = den

    @classmethod
    def from_numerators(cls, group: AffineGroupOps, nums: Dict, den: int) -> "GroupMeasure":
        """The measure with mass nums[k] / den on the element with key k;
        every numerator must be a positive int."""
        common = math.gcd(den, *nums.values())
        if common > 1:
            den //= common
            nums = {k: n // common for k, n in nums.items()}
        mu = cls.__new__(cls)
        mu.group = group
        mu.nums = nums
        mu.den = den
        return mu

    @property
    def is_probability(self) -> bool:
        return sum(self.nums.values()) == self.den

    @property
    def masses(self) -> "Masses":
        return Masses(self)

    def __eq__(self, other):
        return (
            isinstance(other, GroupMeasure)
            and self.group == other.group
            and self.den == other.den
            and self.nums == other.nums
        )

    def __call__(self, g) -> Fraction:
        return Fraction(self.nums.get(self.group.key(g), 0), self.den)

    def total_mass(self) -> Fraction:
        return Fraction(sum(self.nums.values()), self.den)

    def __len__(self):
        return len(self.nums)

    def __repr__(self):
        return f"GroupMeasure({len(self.nums)} atoms, mass {self.total_mass()})"


class Masses(Mapping):
    """Read-only element -> Fraction view of a measure's atoms."""

    __slots__ = ("_mu",)

    def __init__(self, mu: GroupMeasure):
        self._mu = mu

    def __getitem__(self, g) -> Fraction:
        mu = self._mu
        return Fraction(mu.nums[mu.group.key(g)], mu.den)

    def __iter__(self):
        return map(self._mu.group.element, self._mu.nums)

    def __len__(self):
        return len(self._mu.nums)

    def __contains__(self, g):
        return self._mu.group.key(g) in self._mu.nums


def convolve(f: GroupMeasure, h: GroupMeasure) -> GroupMeasure:
    """(f*h)(x) = sum_y f(y) h(y^-1 x), computed exactly: numerators
    multiply over the denominator f.den * h.den.  Raises MixedGroups for
    measures on different groups, then SupportBlowup before the first
    term when |supp f| |supp h| exceeds TERMS_CAP, and as soon as the
    support of f*h exceeds SUPPORT_CAP.

    h's atoms are grouped by their G_m code, and row y walks each class.
    A square f*f of a symmetric f (h is f, the same object) takes half
    the pairs: (y, z) and its mirror (z^-1, y^-1) add f(y) f(z) to
    x = yz and to x^-1.  So each class is sorted by inverse key, row y
    starts after a bisection, at the first z with key(z^-1) > key(y), and
    the half sums s fold into f*f(x) = s(x) + s(x^-1); the pairs that are
    their own mirror, z = y^-1, land on the identity, which gets
    sum f(y)^2.  The support guard checks each row's half sums, a lower
    bound on the support, and the folded result.  Every other product
    takes every pair (y, z) of supp f x supp h."""
    if f.group != h.group:
        raise MixedGroups("convolution across different groups")
    if len(f.nums) * len(h.nums) > TERMS_CAP:
        raise SupportBlowup(
            f"convolution of supports {len(f.nums)} x {len(h.nums)} exceeds the "
            f"terms guard of {TERMS_CAP} terms"
        )
    group = f.group
    inverse = group.key_inverse
    half = h is f and is_symmetric(f)
    # (a, b, c)(a', b', c') = (a' + a c', b' + b c', c c'): products of
    # log codes are red[x + y], sums red[x + zech[y - x + Z]]
    _, _, red, zech, Z, _ = group.ctx.zech
    R = Z >> 1
    Q = Z + 1
    # h's atoms by their G_m code c', so that a c', b c' and c c' are
    # looked up once per class in each row
    classes: Dict = {}
    for z, hz in h.nums.items():
        hab, hc = divmod(z, R)
        atom = (*divmod(hab, Q), hz)
        classes.setdefault(hc, []).append((inverse(z), atom) if half else atom)
    # (c', inverse keys, atoms), a half square's classes sorted by inverse key
    h_classes = [(hc, *zip(*sorted(atoms))) if half else (hc, None, atoms)
                 for hc, atoms in classes.items()]
    out: Dict = {}
    get = out.get
    for y, fy in f.nums.items():
        gab, gc = divmod(y, R)
        ga, gb = divmod(gab, Q)
        for hc, inverse_keys, atoms in h_classes:
            ac = red[ga + hc] + Z
            bc = red[gb + hc] + Z
            c = red[gc + hc]
            for ha, hb, hz in atoms[bisect_right(inverse_keys, y):] if half else atoms:
                x = (red[ha + zech[ac - ha]] * Q + red[hb + zech[bc - hb]]) * R + c
                out[x] = get(x, 0) + fy * hz
        # the support only grows, so checking once per row raises exactly
        # when checking every term would
        if len(out) > SUPPORT_CAP:
            raise SupportBlowup("convolution support exceeds the cap")
    if half:
        sums, out = out, {(Z * Q + Z) * R: _sum_sq(f)}      # the identity (0, 0, 1)
        get = out.get
        for x, s in sums.items():
            out[x] = get(x, 0) + s
            x_inv = inverse(x)
            out[x_inv] = get(x_inv, 0) + s
        if len(out) > SUPPORT_CAP:
            raise SupportBlowup("convolution support exceeds the cap")
    return GroupMeasure.from_numerators(group, out, f.den * h.den)


def reverse(mu: GroupMeasure) -> GroupMeasure:
    """mu~(g) = mu(g^-1)."""
    inverse = mu.group.key_inverse
    return GroupMeasure.from_numerators(
        mu.group, {inverse(k): n for k, n in mu.nums.items()}, mu.den
    )


def _sum_sq(mu: GroupMeasure) -> int:
    """den^2 ||mu||_2^2."""
    return sum(n * n for n in mu.nums.values())


def l1_norm(mu: GroupMeasure) -> Fraction:
    return mu.total_mass()


def l2_norm_sq(mu: GroupMeasure) -> Fraction:
    return Fraction(_sum_sq(mu), mu.den * mu.den)


def linf_norm(mu: GroupMeasure) -> Fraction:
    return Fraction(max(mu.nums.values(), default=0), mu.den)


def symmetrize(mu: GroupMeasure) -> GroupMeasure:
    """sigma = mu~ * mu; symmetric whenever mu is a measure."""
    return convolve(reverse(mu), mu)


def is_symmetric(mu: GroupMeasure) -> bool:
    inverse, nums = mu.group.key_inverse, mu.nums
    return all(nums.get(inverse(k)) == n for k, n in nums.items())


class FlatteningRow(NamedTuple):
    m: int                      # power index: the measure is sigma^(*2^m)
    support: int
    l2_sq: Fraction
    linf: Fraction
    ratio_sq: Optional[Fraction]   # l2_sq of the next row over this row


def flattening_report(mu: GroupMeasure, m_max: int) -> List[FlatteningRow]:
    """Exact row per m <= m_max for sigma^(*2^m).

    Each step checks the convolution-square bound
    ||sigma^(*2^(m+1))||_inf <= ||sigma^(*2^m)||_2^2, Young's bound
    ||f*f||_2^2 <= ||f||_1^2 ||f||_2^2, and monotone non-increase of the
    squared L^2 norm; violations raise because they cannot happen.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    rows: List[FlatteningRow] = []
    current = symmetrize(mu)
    powers = [current]
    for _ in range(m_max + 1):
        powers.append(convolve(powers[-1], powers[-1]))
    for m in range(m_max + 1):
        cur, nxt = powers[m], powers[m + 1]
        # ||.||_2^2 = s / d with d the squared denominator
        s_cur, d_cur = _sum_sq(cur), cur.den * cur.den
        s_nxt, d_nxt = _sum_sq(nxt), nxt.den * nxt.den
        row = FlatteningRow(
            m=m,
            support=len(cur),
            l2_sq=Fraction(s_cur, d_cur),
            linf=linf_norm(cur),
            ratio_sq=Fraction(s_nxt * d_cur, s_cur * d_nxt),
        )
        if max(nxt.nums.values()) * d_cur > s_cur * nxt.den:
            raise MeasureError("convolution-square bound violated")
        l1_cur = sum(cur.nums.values())
        if s_nxt * d_cur * d_cur > l1_cur * l1_cur * s_cur * d_nxt:
            raise MeasureError("Young bound violated")
        if s_nxt * d_cur > s_cur * d_nxt:
            raise MeasureError("squared L2 norm increased under convolution")
        rows.append(row)
    return rows

"""Constructive measure decomposition with explicit constants, plus
greedy covering numbers and approximate-group checks.

A probability measure nu splits against the thresholds M ||nu||_2^2 and
delta ||nu||_2^2, where M = 2^4 K and delta = 1/M^2:

    nu_1 = nu restricted to {nu >= M ||nu||_2^2}      (heavy atoms)
    nu_2 = nu restricted to {nu <= delta ||nu||_2^2}  (diffuse part)
    nu_str = nu - nu_1 - nu_2                         (structured part)

Each check is one `InequalityCheck` row, made by `InequalityCheck.compare`
as an exact rational comparison on "<=", ">=" or "=="; conditional rows
are gated on the linear-form hypothesis ||nu*nu||_2 >= K^-1 ||nu||_2.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Set

from .measures import (
    AffineGroupOps,
    GroupMeasure,
    MeasureError,
    _sum_sq,
    convolve,
    l1_norm,
    l2_norm_sq,
)

_RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


class InequalityCheck(NamedTuple):
    name: str
    lhs: Fraction
    relation: str                  # a key of _RELATIONS: "<=", ">=" or "=="
    rhs: Fraction
    passed: bool                   # the relation applied to lhs and rhs
    hypothesis_met: Optional[bool]  # None for unconditional checks

    @staticmethod
    def compare(name, lhs, relation, rhs, hypothesis_met=None) -> "InequalityCheck":
        """The only way a row is made: its verdict is `relation` applied
        to the exact values of lhs and rhs (a bool reads 0 or 1)."""
        lhs, rhs = Fraction(lhs), Fraction(rhs)
        ok = _RELATIONS[relation](lhs, rhs)
        return InequalityCheck(name, lhs, relation, rhs, ok, hypothesis_met)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": f"{self.lhs.numerator}/{self.lhs.denominator}",
            "lhs_float": float(self.lhs),
            "relation": self.relation,
            "rhs": f"{self.rhs.numerator}/{self.rhs.denominator}",
            "rhs_float": float(self.rhs),
            "pass": self.passed,
            "hypothesis_met": self.hypothesis_met,
        }


class BsgDecomposition(NamedTuple):
    K: Fraction
    M: Fraction
    delta: Fraction
    nu: GroupMeasure
    nu1: GroupMeasure
    nu2: GroupMeasure
    nu_str: GroupMeasure
    boundary_keys: List         # keys of the atoms sitting exactly on a threshold
    l2_sq: Fraction             # ||nu||_2^2

    @property
    def structured_support(self) -> Set:
        """A = supp(nu_str), as elements."""
        return set(map(self.nu.group.element, self.nu_str.nums))

    @property
    def boundary_atoms(self) -> Set:
        """The atoms sitting exactly on a threshold, as elements."""
        return set(map(self.nu.group.element, self.boundary_keys))

    def reconstruction_exact(self) -> bool:
        # every mass rescaled to numerators over the common denominator L
        parts = (self.nu1, self.nu2, self.nu_str)
        L = math.lcm(self.nu.den, *(part.den for part in parts))
        scaled = [(part.nums, L // part.den) for part in parts]
        scale = L // self.nu.den
        return all(
            sum(nums.get(k, 0) * s for nums, s in scaled) == n * scale
            for k, n in self.nu.nums.items()
        )


def _threshold(nu: GroupMeasure, t: Fraction):
    """(a, b) with: an atom of numerator n has mass n / den >= t ||nu||_2^2
    exactly when n * a >= b (and likewise for <=, <, >, ==)."""
    b, c = (t * _sum_sq(nu)).as_integer_ratio()
    return nu.den * c, b


def decompose(nu: GroupMeasure, K) -> BsgDecomposition:
    """Split nu at the two thresholds; K >= 1 may be any rational."""
    K = Fraction(K)
    if K < 1:
        raise ValueError("K must be at least 1")
    if not nu.is_probability:
        raise MeasureError("decomposition expects a probability measure")
    M = 16 * K
    delta = 1 / (M * M)
    hi_a, hi_b = _threshold(nu, M)
    lo_a, lo_b = _threshold(nu, delta)
    heavy, diffuse, structured = {}, {}, {}
    boundary = []
    for k, n in nu.nums.items():
        if n * hi_a >= hi_b:
            heavy[k] = n
            if n * hi_a == hi_b:
                boundary.append(k)
        elif n * lo_a <= lo_b:
            diffuse[k] = n
            if n * lo_a == lo_b:
                boundary.append(k)
        else:
            structured[k] = n
    group, den = nu.group, nu.den
    return BsgDecomposition(
        K=K,
        M=M,
        delta=delta,
        nu=nu,
        nu1=GroupMeasure.from_numerators(group, heavy, den),
        nu2=GroupMeasure.from_numerators(group, diffuse, den),
        nu_str=GroupMeasure.from_numerators(group, structured, den),
        boundary_keys=boundary,
        l2_sq=l2_norm_sq(nu),
    )


def restrict_open_band(nu: GroupMeasure, K) -> GroupMeasure:
    """nu restricted to the strict band
    (1/(2^8 K^2)) ||nu||_2^2 < nu < 2^4 K ||nu||_2^2; this coincides with
    the structured part because the heavy cut is non-strict at the top
    and the diffuse cut non-strict at the bottom."""
    K = Fraction(K)
    lo_a, lo_b = _threshold(nu, 1 / (256 * K * K))
    hi_a, hi_b = _threshold(nu, 16 * K)
    kept = {k: n for k, n in nu.nums.items() if lo_b < n * lo_a and n * hi_a < hi_b}
    return GroupMeasure.from_numerators(nu.group, kept, nu.den)


def verify_decomposition(nu: GroupMeasure, K) -> List[InequalityCheck]:
    """Exact evaluation of the decomposition inequalities, one row each.

    Unconditional: the heavy part is light in L^1, the diffuse part light
    in squared L^2, pointwise reconstruction, the strict-band measure
    equals the structured part, the upper bound |A| ||nu||_2^2 <= 2^16 K^4
    and the pointwise lower bound against the uniform measure on A.

    Conditional on ||nu*nu||_2 >= K^-1 ||nu||_2 (key `hyp_lin`; the
    squared-norm variant is also reported as `hyp_sq`): the structured
    self-convolution lower bound, the lower half of the |A| sandwich and
    the pointwise upper bound.

    nu*nu is computed once: when no atom is heavy or diffuse, nu_str is
    nu, and the structured self-convolution row reads the squared norm of
    nu*nu that the hypothesis rows use.
    """
    dec = decompose(nu, K)
    K, l2 = dec.K, dec.l2_sq
    conv_l2 = l2_norm_sq(convolve(nu, nu))
    hyp_lin = conv_l2 >= l2 / (K * K)
    size = len(dec.nu_str)     # |A| for A = supp(nu_str)
    # (name, lhs, relation, rhs[, hypothesis]); the two equalities read 1 for true
    rows = [
        ("hyp_lin", conv_l2, ">=", l2 / (K * K)),
        ("hyp_sq", conv_l2, ">=", l2 * l2 / (K * K)),
        ("nu1_l1", l1_norm(dec.nu1), "<=", 1 / dec.M),
        ("nu2_l2_sq", l2_norm_sq(dec.nu2), "<=", dec.delta * l2),
        ("reconstruction", dec.reconstruction_exact(), "==", 1),
        ("strict_band_eq_structured", restrict_open_band(nu, K) == dec.nu_str, "==", 1),
        ("support_stat_upper", size * l2, "<=", 2**16 * K**4),
        ("support_stat_lower", size * l2, ">=", Fraction(1, 2**10) / K**4, hyp_lin),
    ]
    if size:
        # mu_A / nu = den / (|A| n) over the atoms of A, n their numerators in nu
        on_a = [nu.nums[k] for k in dec.nu_str.nums]
        rows += [
            ("pointwise_lower", Fraction(1, 2**20) / K**5, "<=",
             Fraction(nu.den, size * max(on_a))),
            ("pointwise_upper", Fraction(nu.den, size * min(on_a)), "<=",
             2**18 * K**6, hyp_lin),
        ]
    # with no heavy and no diffuse atom nu_str is nu, squared above
    str_conv_l2 = conv_l2
    if dec.nu_str != nu:
        str_conv_l2 = l2_norm_sq(convolve(dec.nu_str, dec.nu_str))
    rows.append(("str_conv_lower", str_conv_l2, ">=", l2 / (4 * K * K), hyp_lin))
    return [InequalityCheck.compare(*row) for row in rows]


def all_pass(checks: Iterable[InequalityCheck]) -> bool:
    """True when every applicable check passes; rows whose hypothesis is
    not met are informational only, as are the hypothesis rows themselves."""
    return all(
        c.passed
        for c in checks
        if not c.name.startswith("hyp_") and c.hypothesis_met is not False
    )


# -- greedy covering and approximate groups --------------------------------

def covering_number(A: Iterable, B: Iterable) -> int:
    """Greedy upper bound for the number of left translates of B needed
    to cover A; candidate centers range over A B^-1 and ties break on the
    least `AffElem.key`.  Always at least ceil(|A|/|B|)."""
    from .groups import aff_compose, aff_inverse

    A = set(A)
    B = list(set(B))
    if not B:
        raise ValueError("covering set must be nonempty")
    if not A:
        return 0
    b_inv = [aff_inverse(b) for b in B]
    centers = sorted(
        {aff_compose(a, bi) for a in A for bi in b_inv}, key=lambda g: g.key
    )
    translates = {
        x: frozenset(aff_compose(x, b) for b in B) for x in centers
    }
    uncovered = set(A)
    used = 0
    while uncovered:
        # the first center of largest gain; a gain is never 0, since the
        # translate by a b^-1 covers a
        best = max(centers, key=lambda x: len(uncovered & translates[x]))
        uncovered -= translates[best]
        used += 1
    return used


class ApproxGroupReport(NamedTuple):
    is_approximate: bool
    reason: str
    witness: Optional[object]
    covering: Optional[int]


def is_approximate_group(group: AffineGroupOps, H: Iterable, K: int) -> ApproxGroupReport:
    """Whether H is a K-approximate group: symmetric, contains the
    identity, and H*H is covered by at most K left translates of H.

    The covering test is the greedy upper bound, so a positive answer is
    sound while a negative one may be spurious (flagged greedy-fail).
    """
    from .groups import AffElem, aff_compose, aff_inverse

    H = list(set(H))
    hs = set(H)
    if AffElem.identity(group.ctx) not in hs:
        return ApproxGroupReport(False, "identity-missing", AffElem.identity(group.ctx), None)
    for h in H:
        if aff_inverse(h) not in hs:
            return ApproxGroupReport(False, "not-symmetric", h, None)
    HH = {aff_compose(g, h) for g in H for h in H}
    cover = covering_number(HH, H)
    if cover <= K:
        return ApproxGroupReport(True, "covered", None, cover)
    return ApproxGroupReport(False, "greedy-fail", None, cover)

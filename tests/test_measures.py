import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import affine_group_elements, delta, indexed_measure, random_measure, uniform
from orchardlab.field import FieldCtx
from orchardlab.groups import AffElem, aff_compose, aff_inverse
from orchardlab.measures import (
    AffineGroupOps,
    GroupMeasure,
    MeasureError,
    MixedGroups,
    SupportBlowup,
    convolve,
    flattening_report,
    is_symmetric,
    l1_norm,
    l2_norm_sq,
    linf_norm,
    reverse,
    symmetrize,
)

F5 = FieldCtx(5)
F7 = FieldCtx(7)
G5 = AffineGroupOps(F5)
G7 = AffineGroupOps(F7)
ELS5 = sorted(affine_group_elements(F5), key=lambda g: g.key)
ELS7 = sorted(affine_group_elements(F7), key=lambda g: g.key)


def test_uniform_examples():
    mu = uniform(G5, ELS5[:4])
    assert mu.total_mass() == 1
    assert l2_norm_sq(mu) == Fraction(1, 4)
    assert uniform(G5, [AffElem.identity(F5)]) == delta(G5, AffElem.identity(F5))


def test_convolution_examples():
    mu = uniform(G5, ELS5[:6])
    assert convolve(delta(G5, AffElem.identity(F5)), mu) == mu
    g = AffElem(F5, 1, 0, 1)  # order 5, so g^2 != g^-2
    mu_s = uniform(G5, [g, aff_inverse(g)])
    sigma = symmetrize(mu_s)
    g2 = aff_compose(g, g)
    assert sigma(AffElem.identity(F5)) == Fraction(1, 2)
    assert sigma(g2) == Fraction(1, 4)
    assert sigma(aff_inverse(g2)) == Fraction(1, 4)
    assert is_symmetric(sigma)
    # a delta measure of any order symmetrizes to the identity atom
    d = delta(G5, AffElem(F5, 1, 1, 3))
    assert symmetrize(d) == delta(G5, AffElem.identity(F5))
    with pytest.raises(MixedGroups):
        convolve(mu, uniform(G7, ELS7[:3]))


def test_reverse_and_norms():
    rng = random.Random(0)
    mu = random_measure(G5, ELS5, rng)
    assert reverse(reverse(mu)) == mu
    assert l2_norm_sq(reverse(mu)) == l2_norm_sq(mu)
    assert l1_norm(mu) == 1
    assert linf_norm(delta(G5, AffElem.identity(F5))) == 1
    assert linf_norm(uniform(G5, ELS5[:4])) == Fraction(1, 4)


def test_lp_norm_sq_each_p():
    mu = GroupMeasure(G5, {AffElem.identity(F5): Fraction(1, 3), ELS5[7]: Fraction(2, 3)})
    assert l1_norm(mu) == 1
    assert l2_norm_sq(mu) == Fraction(5, 9)
    assert linf_norm(mu) == Fraction(2, 3)


@given(st.lists(st.integers(1, 50), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_convolution_mass_is_product(weights):
    total = sum(weights)
    masses = {
        g: Fraction(w, total) for g, w in zip(ELS5[: len(weights)], weights)
    }
    mu = GroupMeasure(G5, masses)
    conv = convolve(mu, mu)
    assert conv.total_mass() == 1
    assert l2_norm_sq(conv) <= l1_norm(mu) ** 2 * l2_norm_sq(mu)


def test_associativity_random():
    rng = random.Random(1)
    for _ in range(40):
        f = random_measure(G5, ELS5, rng)
        g = random_measure(G5, ELS5, rng)
        h = random_measure(G5, ELS5, rng)
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def test_support_blowup_guard():
    import orchardlab.measures as measures

    old_cap = measures.SUPPORT_CAP
    measures.SUPPORT_CAP = 10
    try:
        mu = uniform(G5, ELS5[:20])
        with pytest.raises(SupportBlowup):
            convolve(mu, mu)
        with pytest.raises(SupportBlowup):      # every pair: h is not f
            convolve(mu, uniform(G5, ELS5[:20]))
    finally:
        measures.SUPPORT_CAP = old_cap


def test_terms_guard_refuses_before_the_first_term(monkeypatch):
    """|supp f| |supp h| above TERMS_CAP is refused before any term: with
    the support cap at 0 as well, a computed row would raise the support
    guard's error instead."""
    import orchardlab.measures as measures

    f, h = uniform(G5, ELS5[:20]), uniform(G5, ELS5[20:39])
    monkeypatch.setattr(measures, "TERMS_CAP", 20 * 19)
    assert len(convolve(f, h)) > 0
    monkeypatch.setattr(measures, "TERMS_CAP", 20 * 19 - 1)
    monkeypatch.setattr(measures, "SUPPORT_CAP", 0)
    with pytest.raises(SupportBlowup, match="20 x 19 exceeds the terms guard of 379"):
        convolve(f, h)
    with pytest.raises(SupportBlowup, match="terms guard"):
        flattening_report(f, 0)


def test_flattening_uniform_subgroup_fixed_point():
    H = [AffElem(F5, 0, 0, c) for c in (1, 2, 3, 4)]
    muH = uniform(G5, H)
    rows = flattening_report(muH, 3)
    assert len(rows) == 4
    for row in rows:
        assert row.ratio_sq == 1
        assert row.l2_sq == Fraction(1, 4)
    # sigma^(*m) stays the uniform measure itself
    assert symmetrize(muH) == convolve(muH, muH) == muH


def test_flattening_delta_of_finite_order():
    g = AffElem(F5, 1, 1, 2)
    rows = flattening_report(delta(G5, g), 2)
    for row in rows:
        assert row.l2_sq == 1 and row.linf == 1 and row.support == 1


def test_flattening_generic_generators_decay():
    rng = random.Random(7)
    mu = uniform(G7, [ELS7[13], ELS7[101]])
    rows = flattening_report(mu, 3)
    group_order = len(ELS7)
    for row in rows:
        assert row.ratio_sq <= 1
        assert row.l2_sq >= Fraction(1, group_order)
    assert rows[-1].l2_sq <= rows[0].l2_sq


def test_flattening_bounds_random_measures():
    rng = random.Random(3)
    for _ in range(30):
        mu = random_measure(G5, ELS5, rng, max_support=6)
        rows = flattening_report(mu, 1)
        for a, b in zip(rows, rows[1:]):
            assert b.l2_sq <= a.l2_sq
            # convolution-square bound, re-stated across rows
            assert b.linf <= a.l2_sq


@pytest.mark.parametrize("cur,nxt,message", [
    # ||nxt||_inf = 1 over ||cur||_2^2 = 1/2
    (([1, 1], 2), ([1], 1), "convolution-square bound violated"),
    # ||cur||_2^2 = 3/8 >= ||nxt||_inf, but ||nxt||_2^2 = 27/64 > ||cur||_1^2 3/8
    (([2, 1, 1], 4), ([3, 3, 3], 8), "Young bound violated"),
    # mass 4 at one atom, then 16: Young holds with equality, the norm grows
    (([4], 1), ([16], 1), "squared L2 norm increased under convolution"),
])
def test_flattening_report_raises_each_bound(monkeypatch, cur, nxt, message):
    """Each bound check raises MeasureError when the convolution it checks
    returns a measure that breaks it: symmetrize's convolution gives cur
    and the squaring gives nxt."""
    import orchardlab.measures as measures

    results = iter([indexed_measure(G5, *cur), indexed_measure(G5, *nxt)])
    monkeypatch.setattr(measures, "convolve", lambda f, h: next(results))
    with pytest.raises(MeasureError, match=message) as exc:
        flattening_report(uniform(G5, ELS5[:2]), 0)
    assert type(exc.value) is MeasureError


def test_equal_groups_hash_equal():
    assert AffineGroupOps(F5) == G5 and hash(AffineGroupOps(F5)) == hash(G5)
    assert len({G5, AffineGroupOps(F5), G7}) == 2


def test_probability_validation():
    nonprob = GroupMeasure(G5, {AffElem.identity(F5): Fraction(1, 2)})
    assert not nonprob.is_probability


# -- squares of symmetric measures: the support guards ----------------------

def _sigma7():
    """A symmetric measure over F_7 whose square has an involution and
    more atoms than the half sums (sigma = mu~ * mu)."""
    return symmetrize(uniform(G7, [ELS7[13], ELS7[101], ELS7[200]]))


def test_symmetric_square_support_guard_is_exact(monkeypatch):
    """The square of a symmetric measure raises SupportBlowup exactly when
    its support passes SUPPORT_CAP."""
    import orchardlab.measures as measures

    sigma = _sigma7()
    assert is_symmetric(sigma)
    size = len(convolve(sigma, sigma))
    for cap in (1, size - 1):       # the half sums pass 1 in some row
        monkeypatch.setattr(measures, "SUPPORT_CAP", cap)
        with pytest.raises(SupportBlowup) as exc:
            convolve(sigma, sigma)
        assert type(exc.value) is SupportBlowup
    monkeypatch.setattr(measures, "SUPPORT_CAP", size)
    assert len(convolve(sigma, sigma)) == size


def test_symmetric_square_checks_the_folded_support(monkeypatch):
    """Half sums that fit under the cap raise when the folded support,
    which adds their inverses and the identity, does not."""
    import orchardlab.measures as measures

    sigma = _sigma7()
    atoms = list(sigma.masses)
    half = {
        aff_compose(y, z) for y in atoms for z in atoms
        if G7.key(aff_inverse(z)) > G7.key(y)
    }
    size = len(convolve(sigma, sigma))
    assert len(half) < size
    monkeypatch.setattr(measures, "SUPPORT_CAP", len(half))
    with pytest.raises(SupportBlowup) as exc:
        convolve(sigma, sigma)
    assert type(exc.value) is SupportBlowup


def test_terms_guard_refuses_a_symmetric_square_before_the_first_term(monkeypatch):
    import orchardlab.measures as measures

    sigma = _sigma7()
    n = len(sigma)
    monkeypatch.setattr(measures, "TERMS_CAP", n * n - 1)
    monkeypatch.setattr(measures, "SUPPORT_CAP", 0)
    with pytest.raises(SupportBlowup, match=f"{n} x {n} exceeds the terms guard") as exc:
        convolve(sigma, sigma)
    assert type(exc.value) is SupportBlowup
    monkeypatch.setattr(measures, "TERMS_CAP", n * n)
    monkeypatch.setattr(measures, "SUPPORT_CAP", 10**6)
    assert convolve(sigma, sigma).is_probability


# -- documented errors and the rest of the API --------------------------------

def _raises_exactly(cls, fn, *args):
    with pytest.raises(cls) as exc:
        fn(*args)
    assert type(exc.value) is cls


def test_negative_mass_is_refused():
    _raises_exactly(MeasureError, GroupMeasure, G5, {AffElem.identity(F5): -1})


def test_measure_repr():
    mu = GroupMeasure(G5, {AffElem.identity(F5): Fraction(1, 3), ELS5[7]: Fraction(1, 6)})
    assert repr(mu) == "GroupMeasure(2 atoms, mass 1/2)"


def test_power_bounds_are_value_errors():
    _raises_exactly(ValueError, flattening_report, uniform(G5, ELS5[:3]), -1)

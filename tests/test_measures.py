import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import affine_group_elements, delta, indexed_measure, random_measure
from orchardlab.field import FieldCtx
from orchardlab.groups import AffElem, aff_compose, aff_inverse
from orchardlab.measures import (
    AffineGroupOps,
    DuplicateElements,
    EmptySupport,
    GroupMeasure,
    MeasureError,
    MixedGroups,
    NotASubgroup,
    SupportBlowup,
    convolve,
    coset_mass,
    flattening_report,
    is_symmetric,
    l1_norm,
    l2_norm_sq,
    linf_norm,
    load_measure,
    lp_norm_sq,
    reverse,
    save_measure,
    sym_power,
    sym_power_2exp,
    symmetrize,
    uniform,
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
    with pytest.raises(EmptySupport):
        uniform(G5, [])
    with pytest.raises(DuplicateElements):
        uniform(G5, [AffElem.identity(F5), AffElem(F5, 0, 0, 1)])


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
    with pytest.raises(MixedGroups):
        convolve(mu, uniform(G7, ELS7[:3]))


def test_reverse_and_norms():
    rng = random.Random(0)
    mu = random_measure(G5, ELS5, rng)
    assert reverse(reverse(mu)) == mu
    assert l2_norm_sq(reverse(mu)) == l2_norm_sq(mu)
    assert lp_norm_sq(mu, 1) == 1
    assert lp_norm_sq(delta(G5, AffElem.identity(F5)), "inf") == 1
    assert linf_norm(uniform(G5, ELS5[:4])) == Fraction(1, 4)


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


def test_sym_power_examples():
    assert sym_power(delta(G5, AffElem.identity(F5)), 1) == delta(G5, AffElem.identity(F5))
    g = AffElem(F5, 1, 0, 2)
    mu = uniform(G5, [g, aff_inverse(g)])
    sigma = symmetrize(mu)
    assert is_symmetric(sigma)
    assert sym_power(mu, 2) == convolve(sigma, sigma)
    assert sym_power_2exp(mu, 2) == sym_power(mu, 4)
    s2 = sym_power(mu, 2)
    assert is_symmetric(s2)
    support = set(sigma.support_sorted())
    support_product = {aff_compose(a, b) for a in support for b in support}
    assert set(s2.support_sorted()) <= support_product
    # a delta measure of any order symmetrizes to the identity atom
    d = delta(G5, AffElem(F5, 1, 1, 3))
    assert symmetrize(d) == delta(G5, AffElem.identity(F5))


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


def test_coset_mass():
    H = [AffElem(F5, 0, 0, c) for c in (1, 2, 3, 4)]
    muH = uniform(G5, H)
    assert coset_mass(muH, AffElem.identity(F5), H) == 1
    assert coset_mass(muH, AffElem(F5, 1, 1, 1), H) == 0
    S = H[:2] + [AffElem(F5, 1, 0, 1), AffElem(F5, 2, 0, 1)]
    mu = uniform(G5, S)
    assert coset_mass(mu, AffElem.identity(F5), H) == Fraction(2, 4)
    with pytest.raises(NotASubgroup):
        coset_mass(mu, AffElem.identity(F5), H[:3])
    with pytest.raises(NotASubgroup):
        coset_mass(mu, AffElem.identity(F5), [AffElem(F5, 1, 0, 1)])


def test_flattening_uniform_subgroup_fixed_point():
    H = [AffElem(F5, 0, 0, c) for c in (1, 2, 3, 4)]
    muH = uniform(G5, H)
    rows = flattening_report(muH, 3)
    assert len(rows) == 4
    for row in rows:
        assert row.ratio_sq == 1
        assert row.l2_sq == Fraction(1, 4)
    # sigma^(*m) stays the uniform measure itself
    assert sym_power(muH, 5) == muH


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


def test_measure_file_roundtrip(tmp_path):
    rng = random.Random(9)
    mu = random_measure(G5, ELS5, rng)
    path = tmp_path / "m.measure"
    save_measure(path, mu)
    assert load_measure(path, G5) == mu


@pytest.mark.parametrize("atom", [
    "0;0;0 1/2",        # third component zero (a GroupError inside)
    "1,2;0;1 1/2",      # too many coefficients over F_5 (a FieldError)
    "0;0 1/2",          # two parts
    "0;0;1 1/0",        # zero denominator
    "0;0;1 -1/2",       # negative mass
])
def test_load_measure_names_file_and_line(tmp_path, atom):
    path = tmp_path / "bad.measure"
    path.write_text(f"# header\n1;0;1 1/2\n{atom}\n")
    with pytest.raises(MeasureError, match="^" + re.escape(f"{path}:3: ")):
        load_measure(path, G5)


def test_probability_validation():
    nonprob = GroupMeasure(G5, {AffElem.identity(F5): Fraction(1, 2)})
    assert not nonprob.is_probability
    with pytest.raises(MeasureError):
        sym_power(nonprob, 1)


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


def test_lp_norm_sq_each_p():
    mu = GroupMeasure(G5, {AffElem.identity(F5): Fraction(1, 3), ELS5[7]: Fraction(2, 3)})
    assert lp_norm_sq(mu, 1) == 1
    assert lp_norm_sq(mu, 2) == Fraction(5, 9)
    assert lp_norm_sq(mu, float("inf")) == lp_norm_sq(mu, "inf") == Fraction(2, 3)
    _raises_exactly(ValueError, lp_norm_sq, mu, 3)


def test_power_bounds_are_value_errors():
    mu = uniform(G5, ELS5[:3])
    _raises_exactly(ValueError, sym_power, mu, 0)
    _raises_exactly(ValueError, sym_power_2exp, mu, -1)
    _raises_exactly(ValueError, flattening_report, mu, -1)


def test_verify_subgroup_errors():
    H = [AffElem(F5, 0, 0, c) for c in (1, 2, 3, 4)]
    mu = uniform(G5, H)
    e = AffElem.identity(F5)
    _raises_exactly(DuplicateElements, coset_mass, mu, e, H + H[:1])
    # 2 is in H[:3] but its inverse 3 is not
    with pytest.raises(NotASubgroup, match="inverse") as exc:
        coset_mass(mu, e, H[:2] + [AffElem(F5, 0, 0, 4)])
    assert type(exc.value) is NotASubgroup


def test_load_measure_refuses_a_repeated_atom(tmp_path):
    path = tmp_path / "twice.measure"
    path.write_text("0;0;1 1/2\n1;0;1 1/4\n0;0;1 1/4\n")
    with pytest.raises(DuplicateElements, match="^" + re.escape(f"{path}:3: ")) as exc:
        load_measure(path, G5)
    assert type(exc.value) is DuplicateElements

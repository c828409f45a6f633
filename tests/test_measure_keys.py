"""Integer-keyed measures against the element/Fraction oracle.

The oracle (`oracle_convolve` and its relatives in `oracles.py`) is the
convolution, reversal, norms, decomposition and flattening report written
directly on dicts of group elements to `Fraction` masses, multiplying
with the group's `multiply`, which is `aff_compose`.  The library
computes the same things on integer group keys and integer numerators
over one denominator; every result must agree exactly.
"""

import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    affine_group_elements,
    delta,
    oracle_convolve,
    oracle_decompose,
    oracle_flattening,
    oracle_l2_sq,
    oracle_reverse,
)
from orchardlab import measures
from orchardlab.bsg import decompose, restrict_open_band, verify_decomposition
from orchardlab.field import FieldCtx, FieldElem
from orchardlab.groups import AffElem, aff_compose, aff_inverse
from orchardlab.measures import (
    AffineGroupOps,
    GroupMeasure,
    MeasureError,
    MixedGroups,
    convolve,
    flattening_report,
    is_symmetric,
    l1_norm,
    l2_norm_sq,
    linf_norm,
    reverse,
    symmetrize,
)

FIELDS = [FieldCtx(2), FieldCtx(3), FieldCtx(2, 2), FieldCtx(5), FieldCtx(7),
          FieldCtx(2, 3), FieldCtx(3, 2)]
ELEMENTS = {ctx: affine_group_elements(ctx) for ctx in FIELDS}


# -- keys ----------------------------------------------------------------------

@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_key_roundtrip_whole_group(ctx):
    group = AffineGroupOps(ctx)
    keys = set()
    for g in ELEMENTS[ctx]:
        k = group.key(g)
        assert isinstance(k, int)
        assert group.element(k) == g
        keys.add(k)
    assert len(keys) == len(ELEMENTS[ctx])


@pytest.mark.parametrize("ctx", [c for c in FIELDS if c.order <= 5], ids=repr)
def test_key_product_and_inverse_exhaustive(ctx):
    """Point masses convolve to the point mass of the product, for every
    ordered pair (F_2^2 takes the Zech-sum path), and keys invert."""
    group = AffineGroupOps(ctx)
    for g in ELEMENTS[ctx]:
        assert group.key_inverse(group.key(g)) == group.key(aff_inverse(g))
        dg = delta(group, g)
        for h in ELEMENTS[ctx]:
            assert convolve(dg, delta(group, h)) == delta(group, aff_compose(g, h))


@pytest.mark.parametrize("ctx", [FieldCtx(7), FieldCtx(3, 2)], ids=repr)
def test_convolve_builds_no_element(ctx, monkeypatch):
    """Convolution works on keys and codes alone: no AffElem and no
    FieldElem is made while it runs."""
    rng = random.Random(17)
    group = AffineGroupOps(ctx)
    mu, nu = (
        GroupMeasure(group, {g: rng.randint(1, 9) for g in rng.sample(ELEMENTS[ctx], 40)})
        for _ in range(2)
    )
    built = []
    for cls in (AffElem, FieldElem):
        init = cls.__init__

        def counted_init(self, *args, init=init):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted_init)
    conv = convolve(mu, nu)
    monkeypatch.undo()
    assert len(conv) > 40
    assert built == []


def test_key_rejects_other_fields():
    group = AffineGroupOps(FieldCtx(5))
    with pytest.raises(MixedGroups):
        group.key(AffElem(FieldCtx(7), 1, 2, 3))
    with pytest.raises(MixedGroups):
        GroupMeasure(group, {AffElem(FieldCtx(3, 2), 0, 0, 1): 1})


# -- measures ----------------------------------------------------------------

@st.composite
def masses(draw, ctx, max_support=8, max_weight=20):
    elements = ELEMENTS[ctx]
    picks = draw(st.lists(st.integers(0, len(elements) - 1), min_size=1,
                          max_size=max_support, unique=True))
    weights = draw(st.lists(st.integers(1, max_weight), min_size=len(picks),
                            max_size=len(picks)))
    total = sum(weights)
    return {elements[i]: Fraction(w, total) for i, w in zip(picks, weights)}


@st.composite
def field_and_masses(draw, count=2, fields=FIELDS, **kwargs):
    ctx = draw(st.sampled_from(fields))
    return (ctx, *(draw(masses(ctx, **kwargs)) for _ in range(count)))


@given(field_and_masses())
@settings(max_examples=80, deadline=None)
def test_convolve_reverse_and_norms_match_oracle(case):
    ctx, f, h = case
    group = AffineGroupOps(ctx)
    mu, nu = GroupMeasure(group, f), GroupMeasure(group, h)
    assert dict(mu.masses) == f and len(mu.masses) == len(f)
    conv = convolve(mu, nu)
    want = oracle_convolve(f, h)
    assert dict(conv.masses) == want
    assert len(conv.masses) == len(want) == len(conv)
    assert conv.is_probability
    rev = oracle_reverse(f)
    assert dict(reverse(mu).masses) == rev
    assert is_symmetric(mu) == (rev == f)
    assert is_symmetric(symmetrize(mu))
    assert l1_norm(conv) == sum(want.values()) == 1
    assert l2_norm_sq(conv) == oracle_l2_sq(want)
    assert linf_norm(conv) == max(want.values())
    for g in list(want)[:5]:
        assert conv(g) == want[g]


@given(field_and_masses(count=1, max_support=12, max_weight=10**4),
       st.sampled_from([1, 2, Fraction(3, 2), 4]))
@settings(max_examples=80, deadline=None)
def test_decompose_matches_oracle(case, K):
    ctx, f = case
    group = AffineGroupOps(ctx)
    nu = GroupMeasure(group, f)
    dec = decompose(nu, K)
    heavy, diffuse, structured, boundary = oracle_decompose(f, K)
    assert dict(dec.nu1.masses) == heavy
    assert dict(dec.nu2.masses) == diffuse
    assert dict(dec.nu_str.masses) == structured
    assert set(map(group.element, dec.nu_str.nums)) == set(structured)
    assert set(map(group.element, dec.boundary_keys)) == boundary
    assert dec.l2_sq == oracle_l2_sq(f)
    assert dec.reconstruction_exact()
    assert restrict_open_band(nu, K) == dec.nu_str
    named = {c.name: c for c in verify_decomposition(nu, K)}
    if structured:
        ratios = [Fraction(1, len(structured)) / m for m in structured.values()]
        assert named["pointwise_lower"].rhs == min(ratios)
        assert named["pointwise_upper"].lhs == max(ratios)


def test_decompose_heavy_and_diffuse_match_oracle():
    # a heavy atom needs a sea of 1000+ atoms (see test_bsg): F_11
    ctx = FieldCtx(11)
    elements = sorted(affine_group_elements(ctx), key=lambda g: g.key)
    f = {elements[0]: Fraction(1, 32)}
    for g in elements[1:1101]:
        f[g] = Fraction(31, 32 * 1100)
    for g in elements[1101:1111]:
        f[g] = Fraction(1, 10**9)
    total = sum(f.values())
    f = {g: m / total for g, m in f.items()}
    nu = GroupMeasure(AffineGroupOps(ctx), f)
    dec = decompose(nu, 1)
    heavy, diffuse, structured, _ = oracle_decompose(f, 1)
    assert heavy and diffuse and structured
    assert dict(dec.nu1.masses) == heavy
    assert dict(dec.nu2.masses) == diffuse
    assert dict(dec.nu_str.masses) == structured


@given(field_and_masses(count=1, max_support=6))
@settings(max_examples=40, deadline=None)
def test_flattening_report_matches_oracle(case):
    ctx, f = case
    group = AffineGroupOps(ctx)
    rows = flattening_report(GroupMeasure(group, f), 0)
    got = [(r.support, r.l2_sq, r.linf, r.ratio_sq) for r in rows]
    assert got == oracle_flattening(f, 0)


@pytest.mark.parametrize("ctx", [FieldCtx(2, 2), FieldCtx(5)], ids=repr)
def test_flattening_report_two_levels_match_oracle(ctx):
    rng = random.Random(4)
    group = AffineGroupOps(ctx)
    f = {g: Fraction(1, 3) for g in rng.sample(ELEMENTS[ctx], 3)}
    rows = flattening_report(GroupMeasure(group, f), 1)
    got = [(r.support, r.l2_sq, r.linf, r.ratio_sq) for r in rows]
    assert got == oracle_flattening(f, 1)


# -- squares of symmetric measures --------------------------------------------

SQUARE_FIELDS = [FieldCtx(2), FieldCtx(3), FieldCtx(2, 2), FieldCtx(5), FieldCtx(7),
                 FieldCtx(3, 2)]
# the elements g != e with g = g^-1 (every one of them, over F_2), and the
# elements with g != g^-1 (none over F_2)
INVOLUTIONS = {
    ctx: [g for g in ELEMENTS[ctx] if not g.is_identity() and aff_inverse(g) == g]
    for ctx in SQUARE_FIELDS
}
NON_INVOLUTIONS = {
    ctx: [g for g in ELEMENTS[ctx] if aff_inverse(g) != g] for ctx in SQUARE_FIELDS
}


@st.composite
def symmetric_weights(draw, ctx, max_pairs=5, max_weight=20):
    """Int weights with w(g) = w(g^-1): inverse pairs, often with an atom on
    the identity and on an involution."""
    elements = ELEMENTS[ctx]
    weights = {}
    picks = draw(st.lists(st.integers(0, len(elements) - 1), min_size=1,
                          max_size=max_pairs, unique=True))
    for i in picks:
        g = elements[i]
        weights[g] = weights[aff_inverse(g)] = draw(st.integers(1, max_weight))
    if draw(st.booleans()):
        weights[AffElem.identity(ctx)] = draw(st.integers(1, max_weight))
    if draw(st.booleans()):
        weights[draw(st.sampled_from(INVOLUTIONS[ctx]))] = draw(st.integers(1, max_weight))
    return weights


def _probability(weights):
    total = sum(weights.values())
    return {g: Fraction(w, total) for g, w in weights.items()}


def _copy(mu):
    return GroupMeasure.from_numerators(mu.group, dict(mu.nums), mu.den)


def _bisections(f, h):
    """convolve(f, h) and the number of row bisections it made: a half
    square makes one per atom of f and G_m class of h, a full product none."""
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return bisect_right(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "bisect_right", counting)
        return convolve(f, h), calls


def _classes(mu):
    return len({g.c for g in mu.masses})


@given(st.sampled_from(SQUARE_FIELDS).flatmap(
    lambda ctx: st.tuples(st.just(ctx), symmetric_weights(ctx))))
@settings(max_examples=80, deadline=None)
def test_symmetric_square_matches_oracle(case):
    """convolve(f, f) of a symmetric f takes the half-pair path and gives
    the oracle's f*f, as convolve(f, copy of f) does on every pair."""
    ctx, weights = case
    f = _probability(weights)
    mu = GroupMeasure(AffineGroupOps(ctx), f)
    assert is_symmetric(mu)
    square, calls = _bisections(mu, mu)
    assert calls == len(mu) * _classes(mu)
    assert dict(square.masses) == oracle_convolve(f, f)
    assert _bisections(mu, _copy(mu)) == (square, 0)


@given(field_and_masses(count=1, fields=SQUARE_FIELDS, max_support=6))
@settings(max_examples=60, deadline=None)
def test_square_of_symmetrized_measure_matches_oracle(case):
    ctx, f = case
    sigma = symmetrize(GroupMeasure(AffineGroupOps(ctx), f))
    want = oracle_convolve(oracle_reverse(f), f)
    assert dict(sigma.masses) == want
    square, calls = _bisections(sigma, sigma)
    assert calls == len(sigma) * _classes(sigma)
    assert dict(square.masses) == oracle_convolve(want, want)
    assert _bisections(sigma, _copy(sigma)) == (square, 0)


@given(st.sampled_from(SQUARE_FIELDS[1:]).flatmap(lambda ctx: st.tuples(
    st.just(ctx), symmetric_weights(ctx), st.sampled_from(NON_INVOLUTIONS[ctx]),
    st.integers(1, 20))))
@settings(max_examples=60, deadline=None)
def test_nearly_symmetric_square_takes_every_pair(case):
    """One numerator of an inverse pair changed: f is not symmetric, and
    f*f is the oracle's all the same."""
    ctx, weights, g, step = case
    # w(g) = w(g^-1) = w (w = step when g was not drawn), then w(g^-1) = w + step
    weights[aff_inverse(g)] = weights.setdefault(g, step) + step
    f = _probability(weights)
    mu = GroupMeasure(AffineGroupOps(ctx), f)
    assert not is_symmetric(mu)
    square, calls = _bisections(mu, mu)
    assert calls == 0
    assert dict(square.masses) == oracle_convolve(f, f)
    assert _bisections(mu, _copy(mu)) == (square, 0)


@given(field_and_masses(count=1, fields=SQUARE_FIELDS, max_support=3))
@settings(max_examples=40, deadline=None)
def test_flattening_report_two_squarings_match_oracle(case):
    ctx, f = case
    rows = flattening_report(GroupMeasure(AffineGroupOps(ctx), f), 1)
    got = [(r.support, r.l2_sq, r.linf, r.ratio_sq) for r in rows]
    assert got == oracle_flattening(f, 1)


def test_masses_must_be_exact():
    group = AffineGroupOps(FieldCtx(5))
    e = AffElem.identity(FieldCtx(5))
    g = AffElem(FieldCtx(5), 1, 0, 1)
    for bad in (0.1, 0.5, True, False, "x", 1 + 2j):
        with pytest.raises(MeasureError):
            GroupMeasure(group, {e: bad})
    for good in (1, Fraction(1), "1", "2/2", "1.0"):
        assert GroupMeasure(group, {e: good}).masses[e] == 1
    mu = GroupMeasure(group, {e: "1/3", g: Fraction(2, 3)})
    assert mu.is_probability and mu(g) == Fraction(2, 3)

import operator
import random
from fractions import Fraction

import pytest

from oracles import affine_group_elements, delta, indexed_measure, mulclose, random_measure
from orchardlab import bsg
from orchardlab.bsg import (
    BsgDecomposition,
    all_pass,
    covering_number,
    decompose,
    is_approximate_group,
    restrict_open_band,
    verify_decomposition,
)
from orchardlab.field import FieldCtx
from orchardlab.groups import AffElem, aff_compose, aff_inverse
from orchardlab.measures import AffineGroupOps, GroupMeasure, MeasureError, l2_norm_sq, uniform

F5 = FieldCtx(5)
G = AffineGroupOps(F5)
ELS = sorted(affine_group_elements(F5), key=lambda g: g.key)


def test_decompose_uniform_all_structured():
    H = [AffElem(F5, 0, 0, c) for c in (1, 2, 3, 4)]
    nu = uniform(G, H)
    dec = decompose(nu, 1)
    assert dec.M == 16 and dec.delta == Fraction(1, 256)
    assert len(dec.nu1) == 0 and len(dec.nu2) == 0
    assert dec.nu_str.masses == nu.masses
    assert dec.structured_support == set(H)
    assert not dec.boundary_atoms


def test_decompose_heavy_atom():
    # A heavy atom must clear 16K times the squared L2 norm, and since
    # that norm already includes the atom's own square, the spike has to
    # be light (near 1/32) over a very diffuse sea: that needs a group of
    # 1000+ elements, so use the affine group of F11.
    big = sorted(affine_group_elements(FieldCtx(11)), key=lambda g: g.key)
    group = AffineGroupOps(FieldCtx(11))
    spike, sea = big[0], big[1:1101]
    masses = {spike: Fraction(1, 32)}
    for g in sea:
        masses[g] = Fraction(31, 32 * len(sea))
    nu = GroupMeasure(group, masses)
    dec = decompose(nu, 1)
    assert spike in dec.nu1.masses
    assert dec.reconstruction_exact()


def test_decompose_diffuse_atoms():
    # tiny atoms below the squared L2 norm over 256 land in the diffuse part
    tiny = ELS[1:91]
    masses = {ELS[0]: Fraction(1) - Fraction(len(tiny), 2048)}
    for g in tiny:
        masses[g] = Fraction(1, 2048)
    nu = GroupMeasure(G, masses)
    dec = decompose(nu, 1)
    assert set(dec.nu2.masses) == set(tiny)
    assert ELS[0] in dec.nu_str.masses  # the spike is structured, not heavy
    assert dec.reconstruction_exact()


def _open_band_check(nu, K):
    """The `strict_band_eq_structured` row's comparison, and the same with
    the non-strict cuts, which keep the atoms on a threshold."""
    K = Fraction(K)
    mass, l2 = nu.masses, l2_norm_sq(nu)
    lo, hi = l2 / (256 * K * K), 16 * K * l2
    closed = {g for g, m in mass.items() if lo <= m <= hi}
    return restrict_open_band(nu, K) == decompose(nu, K).nu_str, closed


def test_atom_on_the_heavy_threshold():
    # 31/992 = 1/32 at one atom and 1/992 at 961 more: ||nu||_2^2 = 1/512,
    # so the spike sits exactly on 16 ||nu||_2^2 (F11's group has 1,210)
    group = AffineGroupOps(FieldCtx(11))
    nu = indexed_measure(group, [31] + [1] * 961, 992)
    spike = group.index_key(0)
    dec = decompose(nu, 1)
    assert dec.boundary_keys == [spike]
    assert nu.masses[group.element(spike)] == 16 * l2_norm_sq(nu)
    assert list(dec.nu1.nums) == [spike] and spike not in dec.nu_str.nums
    strict_equal, closed = _open_band_check(nu, 1)
    assert strict_equal and group.element(spike) in closed


def test_atom_on_the_diffuse_threshold():
    # weights 301, 12, 1 over 314 with K = 17/16: the weight-1 atom has
    # mass ||nu||_2^2 / (16 K)^2 exactly, since 314 * 289 = 90,746
    K = Fraction(17, 16)
    nu = indexed_measure(G, [301, 12, 1], 314)
    atom = G.index_key(2)
    dec = decompose(nu, K)
    assert dec.boundary_keys == [atom] and list(dec.nu2.nums) == [atom]
    assert nu.masses[G.element(atom)] * (16 * K) ** 2 == l2_norm_sq(nu)
    strict_equal, closed = _open_band_check(nu, K)
    assert strict_equal and G.element(atom) in closed
    named = {c.name: c for c in verify_decomposition(nu, K)}
    assert named["strict_band_eq_structured"].passed


def test_decompose_reconstruction_random():
    rng = random.Random(0)
    for _ in range(100):
        nu = random_measure(G, ELS, rng, 12)
        dec = decompose(nu, rng.choice([1, 2, 4]))
        assert dec.reconstruction_exact()
        supports = [
            set(dec.nu1.masses),
            set(dec.nu2.masses),
            set(dec.nu_str.masses),
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (supports[i] & supports[j])
        assert restrict_open_band(nu, dec.K) == dec.nu_str


def test_verify_uniform_and_delta():
    H = [AffElem(F5, 0, 0, c) for c in (1, 2, 3, 4)]
    checks = verify_decomposition(uniform(G, H), 1)
    assert all_pass(checks)
    named = {c.name: c for c in checks}
    assert named["support_stat_upper"].lhs == 1
    assert named["hyp_lin"].passed

    checks = verify_decomposition(delta(G, AffElem.identity(F5)), 1)
    named = {c.name: c for c in checks}
    assert all_pass(checks)
    assert named["support_stat_upper"].lhs == 1
    assert named["hyp_lin"].passed  # equality case


def test_verify_random_sweep():
    rng = random.Random(1)
    hyp_seen = 0
    for _ in range(120):
        nu = random_measure(G, ELS, rng, 12)
        for K in (1, 2, 4):
            checks = verify_decomposition(nu, K)
            assert all_pass(checks), [c.name for c in checks if not c.passed]
            named = {c.name: c for c in checks}
            if named["hyp_lin"].passed:
                hyp_seen += 1
                assert named["support_stat_lower"].passed
                assert named["str_conv_lower"].passed
    assert hyp_seen > 0


ROWS = [
    ("hyp_lin", ">="), ("hyp_sq", ">="), ("nu1_l1", "<="), ("nu2_l2_sq", "<="),
    ("reconstruction", "=="), ("strict_band_eq_structured", "=="),
    ("support_stat_upper", "<="), ("support_stat_lower", ">="),
    ("pointwise_lower", "<="), ("pointwise_upper", "<="), ("str_conv_lower", ">="),
]
GATED = {"support_stat_lower", "pointwise_upper", "str_conv_lower"}
HOLDS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


def test_rows_in_order_with_their_relations_and_verdicts():
    rng = random.Random(24)
    for _ in range(40):
        nu = random_measure(G, ELS, rng, 12)
        for K in (1, 2, Fraction(3, 2)):
            checks = verify_decomposition(nu, K)
            rows = [
                row for row in ROWS
                if decompose(nu, K).nu_str or not row[0].startswith("pointwise_")
            ]
            assert [(c.name, c.relation) for c in checks] == rows
            hyp = checks[0].passed
            for c in checks:
                assert type(c.lhs) is Fraction and type(c.rhs) is Fraction
                assert c.passed == HOLDS[c.relation](c.lhs, c.rhs), c.name
                assert c.hypothesis_met == (hyp if c.name in GATED else None), c.name


@pytest.mark.parametrize("patch", ["band", "reconstruction"])
def test_equality_rows_fail_when_their_sides_differ(monkeypatch, patch):
    nu = uniform(G, [AffElem(F5, 0, 0, c) for c in (1, 2, 3, 4)])
    before = verify_decomposition(nu, 1)
    assert all_pass(before)
    if patch == "band":
        name = "strict_band_eq_structured"
        monkeypatch.setattr(bsg, "restrict_open_band",
                            lambda nu, K: delta(G, AffElem.identity(F5)))
    else:
        name = "reconstruction"
        monkeypatch.setattr(BsgDecomposition, "reconstruction_exact", lambda self: False)
    after = verify_decomposition(nu, 1)
    assert [c for c in after if c.name != name] == [c for c in before if c.name != name]
    row = next(c for c in after if c.name == name)
    assert (row.lhs, row.relation, row.rhs, row.passed) == (0, "==", 1, False)
    assert not all_pass(after)


def test_check_serialization():
    checks = verify_decomposition(delta(G, AffElem.identity(F5)), 2)
    for c in checks:
        doc = c.as_dict()
        assert set(doc) == {
            "name", "lhs", "lhs_float", "relation", "rhs", "rhs_float",
            "pass", "hypothesis_met",
        }
        num, den = doc["lhs"].split("/")
        assert int(den) != 0


def test_str_conv_row_reuses_the_square_when_nu_str_is_nu(monkeypatch):
    """nu*nu is convolved once when no atom is heavy or diffuse; otherwise
    the structured row squares nu_str itself."""
    calls = []
    convolve = bsg.convolve
    monkeypatch.setattr(bsg, "convolve", lambda f, h: calls.append((f, h)) or convolve(f, h))
    nu = uniform(G, [AffElem(F5, 0, 0, c) for c in (1, 2, 3, 4)])
    named = {c.name: c for c in verify_decomposition(nu, 1)}
    assert [(f is nu, h is nu) for f, h in calls] == [(True, True)]
    assert named["str_conv_lower"].lhs == named["hyp_lin"].lhs == l2_norm_sq(convolve(nu, nu))

    calls.clear()
    K = Fraction(17, 16)
    nu = indexed_measure(G, [301, 12, 1], 314)      # one diffuse atom
    nu_str = decompose(nu, K).nu_str
    assert nu_str != nu
    named = {c.name: c for c in verify_decomposition(nu, K)}
    assert [(f == nu, h == nu) for f, h in calls] == [(True, True), (False, False)]
    assert calls[1] == (nu_str, nu_str)
    assert named["str_conv_lower"].lhs == l2_norm_sq(convolve(nu_str, nu_str))
    assert named["str_conv_lower"].lhs != named["hyp_lin"].lhs


def test_decompose_refuses_a_measure_of_other_mass():
    nu = GroupMeasure(G, {AffElem.identity(F5): Fraction(1, 2)})
    with pytest.raises(MeasureError) as exc:
        decompose(nu, 1)
    assert type(exc.value) is MeasureError


def test_covering_by_an_empty_set_is_refused():
    with pytest.raises(ValueError) as exc:
        covering_number(ELS[:3], [])
    assert type(exc.value) is ValueError


def test_k_must_be_at_least_one():
    with pytest.raises(ValueError):
        decompose(delta(G, AffElem.identity(F5)), Fraction(1, 2))


def test_rational_k_supported():
    rng = random.Random(5)
    nu = random_measure(G, ELS, rng, 12)
    checks = verify_decomposition(nu, Fraction(3, 2))
    assert all_pass(checks)


def test_covering_examples():
    H = [AffElem(F5, 0, 0, c) for c in (1, 2, 3, 4)]
    assert covering_number(H, H) == 1
    g = AffElem(F5, 1, 1, 1)
    gH = [aff_compose(g, h) for h in H]
    assert covering_number(set(H) | set(gH), H) == 2
    assert covering_number([], H) == 0


def test_covering_lower_bound_random():
    rng = random.Random(2)
    for _ in range(15):
        A = set(rng.sample(ELS, 20))
        B = set(rng.sample(ELS, rng.randint(2, 10)))
        cover = covering_number(A, B)
        assert cover >= -(-len(A) // len(B))


def test_covering_monotone_in_b():
    rng = random.Random(6)
    for _ in range(8):
        A = set(rng.sample(ELS, 15))
        small = set(rng.sample(ELS, 5))
        big = small | set(rng.sample(ELS, 6))
        assert covering_number(A, big) <= covering_number(A, small)


def test_approximate_group_examples():
    H = [AffElem(F5, 0, 0, c) for c in (1, 2, 3, 4)]
    rep = is_approximate_group(G, H, 1)
    assert rep.is_approximate and rep.covering == 1

    g = AffElem(F5, 1, 0, 1)  # order 5 > 3
    pair = [AffElem.identity(F5), g, aff_inverse(g)]
    rep = is_approximate_group(G, pair, 3)
    assert rep.is_approximate and rep.covering <= 3

    rep = is_approximate_group(G, [AffElem.identity(F5), g], 3)
    assert not rep.is_approximate and rep.reason == "not-symmetric"

    rep = is_approximate_group(G, [g, aff_inverse(g)], 3)
    assert not rep.is_approximate and rep.reason == "identity-missing"


def test_greedy_fail_when_the_cover_exceeds_k():
    # H = {1, g, g^-1} for g of order 5: |H H| = 5 > |H|, so two translates
    g = AffElem(F5, 1, 0, 1)
    rep = is_approximate_group(G, [AffElem.identity(F5), g, aff_inverse(g)], 1)
    assert rep == (False, "greedy-fail", None, 2)


def test_full_closure_is_approximate():
    gens = [AffElem(F5, 1, 0, 2), AffElem(F5, 0, 1, 1)]
    closure, truncated = mulclose(gens, aff_compose, AffElem.identity(F5))
    assert not truncated
    symmetric = set(closure) | {aff_inverse(g) for g in closure}
    rep = is_approximate_group(G, symmetric, 1)
    assert rep.is_approximate

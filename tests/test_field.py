import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copy
import operator
import pickle

from orchardlab import field
from orchardlab.field import (
    _INTERNED,
    CompositeModulus,
    FieldCtx,
    FieldElem,
    FieldError,
    NonResidue,
    ZeroInverse,
    _is_irreducible,
    _monic_polys,
    _poly_mod,
    _poly_mulmod,
    _poly_powmod,
    adjoin_sqrt,
    inv,
    is_prime,
    least_primitive_root,
)
from orchardlab.projgeom import MixedContexts, ProjPoint, line_through
from oracles import least_root_by_scan

F3 = FieldCtx(3)
F5 = FieldCtx(5)
F7 = FieldCtx(7)
F9 = FieldCtx(3, 2)
F25 = FieldCtx(5, 2)


def test_inv_examples():
    assert inv(F7.elem(3)) == F7.elem(5)
    assert inv(F5.elem(1)) == F5.elem(1)
    with pytest.raises(ZeroInverse):
        inv(F5.elem(0))


@pytest.mark.parametrize("ctx", [F3, F5, F7, F9, F25, FieldCtx(2), FieldCtx(5, 4)])
def test_inverse_exhaustive(ctx):
    one = ctx.one()
    for a in ctx.elements():
        if a.is_zero():
            continue
        assert a * inv(a) == one


@pytest.mark.parametrize("ctx", [F3, F5, F9, F25, FieldCtx(2, 2)])
def test_field_axioms_exhaustive_triples(ctx):
    elems = list(ctx.elements())
    if ctx.order > 9:
        elems = elems[:9]  # keep the triple loop sane for bigger fields
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@given(st.integers(), st.integers(), st.integers())
def test_prime_field_matches_int_arithmetic(x, y, z):
    p = 101
    ctx = FieldCtx(p)
    a, b, c = ctx.elem(x), ctx.elem(y), ctx.elem(z)
    assert (a + b * c).coeffs[0] == (x + y * z) % p
    assert (a - b).coeffs[0] == (x - y) % p
    assert (a * a).coeffs[0] == (x * x) % p


def test_sqrt_examples():
    assert F5.sqrt(F5.elem(4)) == F5.elem(2)
    assert F7.sqrt(F7.elem(2)) == F7.elem(3)  # squares mod 7: {0,1,2,4}
    with pytest.raises(NonResidue):
        F5.sqrt(F5.elem(3))


@pytest.mark.parametrize(
    "ctx",
    [F3, F5, F7, F9, F25, FieldCtx(2, 3), FieldCtx(13), FieldCtx(2, 4),
     FieldCtx(3, 3), FieldCtx(3, 4), FieldCtx(101)],
)
def test_sqrt_properties_exhaustive(ctx):
    for a in ctx.elements():
        sq = a * a
        r = ctx.sqrt(sq)
        assert r * r == sq
        assert r in (a, -a)
        got = ctx.try_sqrt(a)
        assert got == least_root_by_scan(ctx, a)
        if got is not None:
            assert got * got == a
            # canonical pick: lexicographically least of the pair
            assert got.coeffs <= (-got).coeffs


def test_sqrt_large_prime():
    ctx = FieldCtx(100003)
    a = ctx.elem(12345)
    sq = a * a
    r = ctx.sqrt(sq)
    assert r * r == sq and r in (a, -a)
    with pytest.raises(NonResidue):
        # -1 is a nonresidue mod p = 3 (mod 4)
        ctx.sqrt(ctx.elem(-1))


def test_adjoin_sqrt_examples():
    ctx, embed, root = adjoin_sqrt(F3, F3.elem(2))
    assert ctx.descriptor() == "3^2/1,0,1"  # modulus t^2 + 1 = t^2 - 2
    assert root == ctx.elem([0, 1])
    assert root * root == embed(F3.elem(2))

    same, _, r = adjoin_sqrt(F5, F5.elem(4))
    assert same is F5 and r == F5.elem(2)

    big, embed, root = adjoin_sqrt(F5, F5.elem(3))
    assert big.n == 2 and root * root == embed(F5.elem(3))


@pytest.mark.parametrize("base", [F3, F5, F7])
def test_adjoin_sqrt_embedding_is_ring_hom(base):
    d = next(
        e for e in base.elements() if base.try_sqrt(e) is None
    )
    big, embed, root = adjoin_sqrt(base, d)
    assert root * root == embed(d)
    elems = list(base.elements())
    for a in elems:
        for b in elems:
            assert embed(a + b) == embed(a) + embed(b)
            assert embed(a * b) == embed(a) * embed(b)
    images = {embed(a) for a in elems}
    assert len(images) == base.order  # injective


def test_adjoin_sqrt_degree_two_base():
    d = next(
        e for e in F25.elements() if F25.try_sqrt(e) is None
    )
    big, embed, root = adjoin_sqrt(F25, d)
    assert big.n == 4
    assert root * root == embed(d)
    a, b = F25.elem([1, 2]), F25.elem([3, 4])
    assert embed(a * b) == embed(a) * embed(b)
    assert embed(a + b) == embed(a) + embed(b)


def test_ctx_validation():
    with pytest.raises(FieldError):
        FieldCtx(6)
    with pytest.raises(FieldError):
        FieldCtx(3, 5)
    with pytest.raises(CompositeModulus):
        FieldCtx(5, 2, (4, 0, 1))  # t^2 + 4 = (t+1)(t+4)
    with pytest.raises(FieldError):
        FieldCtx(2, 1, (1, 1))


def _nonsquare(ctx):
    return next(e for e in ctx.elements() if ctx.try_sqrt(e) is None)


@pytest.mark.parametrize("make, message", [
    (lambda: FieldCtx(1), "1 is not prime"),
    (lambda: FieldCtx(101, 4), "field order 101^4 exceeds desk cap"),
    (lambda: FieldCtx(3, 2, (1, 0, 2)), "modulus must be monic of degree n"),
    (lambda: FieldCtx(3, 2, (1, 1)), "modulus must be monic of degree n"),
    (lambda: FieldCtx.from_descriptor("5^two"), "malformed field descriptor '5^two'"),
    (lambda: adjoin_sqrt(FieldCtx(3, 3), _nonsquare(FieldCtx(3, 3))),
     "extensions supported from degree 1 or 2 only"),
], ids=["one", "order-cap", "non-monic", "short-modulus", "descriptor", "degree-3-extension"])
def test_field_construction_errors(make, message):
    with pytest.raises(FieldError) as exc:
        make()
    assert exc.type is FieldError and str(exc.value) == message


# safety checks that no input reaches: irreducibles of every degree exist,
# a quadratic extension holds a root of each base element, and F_p^* is cyclic
@pytest.mark.parametrize("target, name, fake, call, error, message", [
    (field, "_is_irreducible", lambda m, p: False,
     lambda: field._least_irreducible.__wrapped__(3, 2),
     CompositeModulus, "no irreducible of degree 2 over F_3"),
    (FieldCtx, "try_sqrt", lambda self, a: None, lambda: adjoin_sqrt(F5, F5.elem(2)),
     CompositeModulus, "extension failed to contain the required root"),
    (field, "_poly_powmod", lambda a, e, m, p: [1] + [0] * (len(m) - 2),
     lambda: least_primitive_root(7), FieldError, "no primitive element found in F(7)"),
], ids=["least-irreducible", "adjoin-sqrt", "primitive-root"])
def test_unreachable_field_failures_raise(monkeypatch, target, name, fake, call, error, message):
    monkeypatch.setattr(target, name, fake)
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message


@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_poly_mod_is_the_remainder(p, data):
    """a = q m + r gives r, padded to deg m entries, for any quotient q:
    the zero quotient with a short r included, where a is shorter than
    the divisor m."""
    coeffs = st.integers(0, p - 1)
    m = data.draw(st.lists(coeffs, min_size=1, max_size=4)) + [1]
    r = data.draw(st.lists(coeffs, max_size=len(m) - 1))
    q = data.draw(st.lists(coeffs, max_size=3))
    a = r + [0] * (len(q) + len(m) - 1 - len(r) if q else 0)
    for i, x in enumerate(q):
        for j, y in enumerate(m):
            a[i + j] += x * y
    assert _poly_mod(a, m, p) == r + [0] * (len(m) - 1 - len(r))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_is_irreducible_counts_match_gauss(p):
    """The monic irreducibles of degrees 1 to 4 (1 to 3 over F_7, whose
    2,401 quartics would take the most time) number (1/d) sum over e | d
    of mu(e) p^(d/e), and no constant polynomial (nor the empty one) is
    irreducible."""
    gauss = {1: p, 2: (p**2 - p) // 2, 3: (p**3 - p) // 3, 4: (p**4 - p**2) // 4}
    for d, want in gauss.items():
        if p**d <= 5**4:
            assert sum(_is_irreducible(m, p) for m in _monic_polys(d, p)) == want
    assert not any(_is_irreducible(m, p) for m in ([], [0], [1], [p - 1]))


@pytest.mark.parametrize("ctx", [F7, F9], ids=str)
def test_int_operands_on_either_side(ctx):
    e, four = ctx.elem(2), ctx.elem(4)
    assert 4 * e == e * 4 == four * e
    assert 4 + e == e + 4 == four + e
    assert 4 - e == four - e and e - 4 == e - four
    assert 4 / e == four * inv(e) and e / 4 == e * inv(four)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(e, "x")
        with pytest.raises(TypeError):
            op("x", e)


def test_descriptor_roundtrip():
    for ctx in (F5, F9, F25, FieldCtx(2)):
        assert FieldCtx.from_descriptor(ctx.descriptor()) == ctx


def test_element_text_roundtrip():
    for ctx in (F7, F9):
        for e in ctx.elements():
            assert FieldElem.parse(ctx, e.text()) == e


def test_least_primitive_root():
    for p, expected in [(3, 2), (5, 2), (7, 3), (11, 2), (23, 5)]:
        g = least_primitive_root(p)
        assert g == expected
        assert {pow(g, e, p) for e in range(p - 1)} == set(range(1, p))


def test_is_prime_matches_a_divisor_check():
    for m in range(3000):
        assert is_prime(m) == (m > 1 and all(m % d for d in range(2, m)))


# every field the desk cap admits with q <= 125 (F_32 and F_64 would need
# n = 5 and 6)
SMALL_FIELDS = [FieldCtx(p) for p in range(2, 126) if is_prime(p)] + [
    FieldCtx(p, n) for p, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4),
                                (5, 2), (5, 3), (7, 2), (11, 2)]]


@pytest.mark.parametrize("ctx", SMALL_FIELDS, ids=repr)
def test_generator_is_the_first_of_full_order(ctx):
    """The Zech tables run through every nonzero code once, from the first
    element in elements() order whose powers (by polynomial arithmetic
    modulo the modulus, or modulo x over F_p) take q - 1 values."""
    p, q = ctx.p, ctx.order
    m = list(ctx.modulus or (0, 1))
    exp = ctx.zech.exp
    assert sorted(exp[:q - 1]) == list(range(1, q))

    def order(a):
        return len({tuple(_poly_powmod(list(a.coeffs), e, m, p)) for e in range(q - 1)})

    g = next(a for a in ctx.elements() if not a.is_zero() and order(a) == q - 1)
    assert exp[1] == g.code and ctx._primitive_element() == list(g.coeffs)


def test_char2_sqrt_is_frobenius_inverse():
    ctx = FieldCtx(2, 3)
    for a in ctx.elements():
        r = ctx.sqrt(a)
        assert r * r == a


# -- log tables and interning -------------------------------------------------

def _oracle_mul(a, b):
    ctx = a.ctx
    return tuple(_poly_mulmod(list(a.coeffs), list(b.coeffs), list(ctx.modulus), ctx.p))


def _oracle_add(a, b, sign=1):
    p = a.ctx.p
    return tuple((x + sign * y) % p for x, y in zip(a.coeffs, b.coeffs))


def _check_sum_difference_negation(a, b):
    assert (a + b).coeffs == _oracle_add(a, b)
    assert (a - b).coeffs == _oracle_add(a, b, -1)
    assert (-a).coeffs == tuple(-x % a.ctx.p for x in a.coeffs)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_table_arithmetic_matches_poly_oracle_exhaustive(p, n):
    ctx = FieldCtx(p, n)
    elems = list(ctx.elements())
    one = ctx.one().coeffs
    for a in elems:
        for b in elems:
            assert (a * b).coeffs == _oracle_mul(a, b)
            _check_sum_difference_negation(a, b)
        if not a.is_zero():
            assert _oracle_mul(a, inv(a)) == one


F625 = FieldCtx(5, 4)
F625_CODES = st.lists(st.integers(0, 4), min_size=4, max_size=4)


@settings(max_examples=300)
@given(F625_CODES, F625_CODES)
def test_table_arithmetic_matches_poly_oracle_f625(x, y):
    a, b = F625.elem(x), F625.elem(y)
    assert (a * b).coeffs == _oracle_mul(a, b)
    assert (b * a).coeffs == _oracle_mul(a, b)
    _check_sum_difference_negation(a, b)
    _check_sum_difference_negation(b, a)
    if not a.is_zero():
        assert _oracle_mul(a, inv(a)) == F625.one().coeffs


ZECH_FIELDS = [FieldCtx(2), F3, FieldCtx(2, 2), F5, F9, F25, FieldCtx(3, 3), FieldCtx(101)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ZECH_FIELDS), st.data())
def test_zech_table_operations_match_fieldelem_arithmetic(ctx, data):
    """`ZechTables.total`, `minus`, `scaled` and `form` against FieldElem
    arithmetic (int arithmetic mod p on prime fields), with zero operands
    (log code Z) and the zero vector drawn often."""
    t = ctx.zech
    assert t.Z == 2 * (ctx.order - 1)
    assert t.m1 == t.log[(-ctx.one()).code] == (0 if ctx.p == 2 else (ctx.order - 1) // 2)
    elem = st.one_of(st.just(0), st.integers(0, ctx.order - 1)).map(lambda c: FieldElem(ctx, c))
    vec = st.lists(elem, min_size=4, max_size=4)
    u, v = data.draw(vec), data.draw(vec)
    if data.draw(st.booleans()):
        u = [ctx.zero()] * 4
    lu, lv = [t.log[a.code] for a in u], [t.log[a.code] for a in v]

    def value(code):
        return FieldElem(ctx, t.exp[code])

    for x, y, a, b in zip(lu, lv, u, v):
        assert value(t.minus(x, y)) == a - b
    assert value(t.total(lu)) == sum(u, ctx.zero())
    assert t.total([]) == t.Z
    scaled = t.scaled(lu)
    if all(a.is_zero() for a in u):
        assert scaled is None
    else:
        lead = next(a for a in u if not a.is_zero())
        assert [value(x) for x in scaled] == [a / lead for a in u]
    nonzero = st.integers(1, ctx.order - 1).map(lambda c: FieldElem(ctx, c))
    pairs = st.tuples(st.integers(0, 3), st.integers(0, 3), nonzero)
    entries = data.draw(st.lists(pairs, max_size=6))
    logs = [(i, j, t.log[b.code]) for i, j, b in entries]
    assert value(t.form(logs, lu, lv)) == sum((u[i] * b * v[j] for i, j, b in entries), ctx.zero())


@pytest.mark.parametrize("p,n", [(5, 1), (2, 2), (3, 2), (2, 3), (5, 2)])
def test_code_order_is_coefficient_order(p, n):
    ctx = FieldCtx(p, n)
    elems = list(ctx.elements())
    by_code = sorted(elems, key=lambda e: e.code)
    assert [e.code for e in by_code] == list(range(ctx.order))
    assert by_code == sorted(elems, key=lambda e: e.coeffs) == ctx.elements_sorted()
    for e in elems:
        assert ctx.elem(list(e.coeffs)).coeffs == e.coeffs
        assert ctx.elem(list(e.coeffs)) == e
    # sorting points by key sorts them by their coefficient tuples
    points = [ProjPoint(ctx, [1, a, b, c]) for a in elems[:4] for b in elems for c in elems[-3:]]
    assert sorted(points, key=lambda x: x.key) == sorted(
        points, key=lambda x: [c.coeffs for c in x.coords])


def test_f9_elements_order_and_codes():
    # F_9 elements() as its docstring gives it: coeffs[0] varying fastest
    assert [e.coeffs for e in F9.elements()] == [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)]
    # a code reads the coefficients as base-3 digits, coeffs[0] leading
    assert [e.code for e in F9.elements()] == [0, 3, 6, 1, 4, 7, 2, 5, 8]
    assert F9.one().code == 3 and F9.elem([0, 1]).code == 1
    assert FieldElem.__slots__ == ("ctx", "code")


def test_contexts_are_interned():
    assert FieldCtx(3, 2) is F9
    assert FieldCtx(3, 2, (1, 0, 1)) is F9  # the least irreducible, spelled out
    assert FieldCtx(5) is F5
    for ctx in (F5, F9, F25, FieldCtx(2, 3)):
        assert FieldCtx.from_descriptor(ctx.descriptor()) is ctx
    assert FieldCtx.from_descriptor("3^2") is F9
    big, _, _ = adjoin_sqrt(F3, F3.elem(2))
    assert big is F9
    big, _, _ = adjoin_sqrt(F5, F5.elem(2))
    assert big is F25


def test_unreduced_modulus_is_the_reduced_field():
    assert FieldCtx(3, 2, (4, 3, 1)) is F9
    assert FieldCtx(3, 2, (-2, 0, 4)) is F9
    assert FieldCtx(5, 2, (7, 6, 11)) is FieldCtx(5, 2, (2, 1, 1))


def test_reducible_modulus_raises_every_time():
    for _ in range(3):
        with pytest.raises(CompositeModulus):
            FieldCtx(5, 2, (4, 0, 1))
        with pytest.raises(CompositeModulus):
            FieldCtx(5, 2, (9, 5, 6))  # the same modulus, unreduced
    assert (5, 2, (4, 0, 1)) not in _INTERNED


def test_found_modulus_is_trial_divided_once(monkeypatch):
    """A field made without a modulus trusts the least irreducible it
    found; a modulus the caller gives is checked."""
    divided = []
    is_irreducible = field._is_irreducible

    def counted(m, p):
        divided.append(tuple(m))
        return is_irreducible(m, p)

    monkeypatch.setattr(field, "_INTERNED", {})
    monkeypatch.setattr(field, "_least_irreducible", field._least_irreducible.__wrapped__)
    monkeypatch.setattr(field, "_is_irreducible", counted)
    ctx = FieldCtx(7, 3)
    assert divided.count(ctx.modulus) == 1
    divided.clear()
    with pytest.raises(CompositeModulus) as exc:
        FieldCtx(5, 2, (4, 0, 1))
    assert exc.type is CompositeModulus
    assert divided == [(4, 0, 1)]


def test_copy_and_pickle_keep_identity():
    for ctx in (F5, F9, F25):
        assert copy.copy(ctx) is ctx
        assert copy.deepcopy(ctx) is ctx
        assert pickle.loads(pickle.dumps(ctx)) is ctx
        e = ctx.elem(list(range(2, ctx.n + 2)))
        for clone in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert clone.ctx is ctx and clone == e
            assert clone * clone == e * e


def test_f9_with_different_moduli_do_not_mix():
    other = FieldCtx(3, 2, (2, 1, 1))  # t^2 + t + 2, not the default t^2 + 1
    assert other is not F9 and other != F9
    a, b = F9.elem([1, 1]), other.elem([1, 1])
    assert a != b
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(FieldError):
            op()
    with pytest.raises(FieldError):
        F9.elem(b)
    with pytest.raises(FieldError):
        F9.sqrt(b)
    with pytest.raises(FieldError):
        adjoin_sqrt(F9, b)
    p, q = ProjPoint(F9, [1, 0, 0, 0]), ProjPoint(other, [0, 1, 0, 0])
    assert ProjPoint(F9, [1, 0, 0, 0]) != ProjPoint(other, [1, 0, 0, 0])
    with pytest.raises(MixedContexts):
        line_through(p, q)


def test_elements_never_equal_ints():
    # equal objects hash alike: an element equal to an int would have to
    # hash like that int, and it hashes its code
    assert not F9.one() == 1 and F9.one() != 1
    assert 1 not in {F9.one()} and {F9.one(): "x"}.get(1) is None
    assert not F5.elem(2) == 7 and 7 not in {F5.elem(2)}
    assert F5.elem(2) == F5.elem(7)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([F5, F9]), st.integers(0, 24), st.data())
def test_equal_elements_hash_alike(ctx, code, data):
    a = FieldElem(ctx, code % ctx.order)
    b = data.draw(st.one_of(
        st.integers(-30, 30),
        st.integers(0, ctx.order - 1).map(lambda c: FieldElem(ctx, c)),
        st.sampled_from([F5, F9]).flatmap(
            lambda other: st.integers(0, other.order - 1).map(lambda c: FieldElem(other, c))),
    ))
    if a == b:
        assert hash(a) == hash(b)
    assert (a == b) == (isinstance(b, FieldElem) and b.ctx is ctx and b.code == a.code)

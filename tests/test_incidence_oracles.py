"""Property tests of the fast incidence statistics against their oracles.

- The one-pass pencil count against the plane-by-plane scan it replaced
  (`oracles.pencil_scan`).
- The hash triple kernel against the brute one, on point sets that share
  points, which the per-point buckets must not count twice; and
  `line_concentration` against the line-by-line oracle on those sets.
- The unrolled line key against `line_through`, on every pair of small
  spaces and on points with leading zeros, and `line_concentration` on
  the example's X1, which lies on {x0 = 0}.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    line_concentration_by_lines,
    line_from_key,
    line_points,
    pencil_scan,
)
from orchardlab.constructions import build_example
from orchardlab.field import FieldCtx, FieldElem
from orchardlab.incidence import (
    EqualPlanes,
    _keyed,
    count_collinear_triples,
    line_concentration,
    pencil_plane_concentration,
)
from orchardlab.projgeom import (
    MixedContexts,
    PointSet,
    ProjLine,
    ProjPlane,
    ProjPoint,
    enumerate_space,
    line_through,
)

PENCIL_FIELDS = [FieldCtx(2), FieldCtx(3), FieldCtx(2, 2), FieldCtx(5), FieldCtx(7), FieldCtx(3, 2),
                 FieldCtx(2, 3)]


@lru_cache(maxsize=None)
def space(ctx):
    return enumerate_space(ctx, 3)


@st.composite
def pencils(draw):
    ctx = draw(st.sampled_from(PENCIL_FIELDS))
    pts = space(ctx)
    i1, i2 = draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2,
                           unique=True))
    P1, P2 = ProjPlane(ctx, pts[i1].coords), ProjPlane(ctx, pts[i2].coords)
    base = [x for x in pts if P1.contains(x) and P2.contains(x)]
    on_p1 = [x for x in pts if P1.contains(x)]
    X3 = draw(st.lists(st.sampled_from(pts), max_size=12))
    X3 += draw(st.lists(st.sampled_from(base), max_size=4))
    X3 += draw(st.lists(st.sampled_from(on_p1), max_size=4))
    X3 = draw(st.permutations(list(dict.fromkeys(X3))))    # a point set: no repeats
    return P1, P2, X3


@settings(max_examples=250, deadline=None)
@given(pencils())
def test_pencil_count_matches_plane_scan(case):
    P1, P2, X3 = case
    rep = pencil_plane_concentration(X3, P1, P2)
    best, witness = pencil_scan(X3, P1, P2)
    assert rep.max_count == best
    assert rep.witness == witness.key


def test_pencil_ties_go_to_the_first_plane_in_elements_order():
    """Over F_9, `ctx.elements()` gives the code 3 before the code 1: with
    one point on each of the planes t*P1 + P2 for those two t, the witness
    is the plane of the code 3, as in the scan, not the lesser code."""
    ctx = FieldCtx(3, 2)
    codes = [t.code for t in ctx.elements()]
    assert codes.index(3) < codes.index(1)
    P1, P2 = ProjPlane(ctx, [1, 0, 0, 0]), ProjPlane(ctx, [0, 1, 0, 0])
    ts = [FieldElem(ctx, 1), FieldElem(ctx, 3)]
    X3 = [ProjPoint(ctx, [ctx.one(), -t, ctx.zero(), ctx.zero()]) for t in ts]
    rep = pencil_plane_concentration(X3, P1, P2)
    best, witness = pencil_scan(X3, P1, P2)
    assert (rep.max_count, rep.witness) == (best, witness.key)
    assert rep == (1, ProjPlane(ctx, [ts[1], ctx.one(), 0, 0]).key)


@pytest.mark.parametrize("ctx", PENCIL_FIELDS, ids=str)
def test_pencil_edges(ctx):
    P1 = ProjPlane(ctx, [1, 1, 0, 0])
    P2 = ProjPlane(ctx, [0, 0, 1, 0])
    rep = pencil_plane_concentration([], P1, P2)
    best, witness = pencil_scan([], P1, P2)
    assert (rep.max_count, rep.witness) == (best, witness.key)
    with pytest.raises(EqualPlanes):
        pencil_plane_concentration([], P1, P1)
    other = FieldCtx(11) if ctx.order != 11 else FieldCtx(13)
    foreign = ProjPoint(other, [1, 2, 3, 4])
    with pytest.raises(MixedContexts):
        pencil_plane_concentration(space(ctx)[:3] + [foreign], P1, P2)
    with pytest.raises(MixedContexts):
        pencil_plane_concentration([], P1, ProjPlane(other, [0, 0, 1, 0]))


# -- hash kernel against brute, with shared points ------------------------------

KERNEL_FIELDS = [FieldCtx(5), FieldCtx(7), FieldCtx(2, 2), FieldCtx(3, 2)]


@st.composite
def overlapping_sets(draw):
    """X1, X2, X3 cut from one pool of points on a few lines, on the base
    line {x0 = x1 = 0} and on {x0 = 0}: seven disjoint groups, one per
    nonempty subset of {X1, X2, X3}, the shared ones never empty."""
    ctx = draw(st.sampled_from(KERNEL_FIELDS))
    pts = space(ctx)
    pick = st.sampled_from(pts)
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        u, v = draw(pick), draw(pick)
        if u != v:
            line = line_points(ProjLine(ctx, [u.coords, v.coords]))
            pool += draw(st.lists(st.sampled_from(line), max_size=6))
    pool += draw(st.lists(st.sampled_from([x for x in pts if x.coords[0].is_zero()
                                           and x.coords[1].is_zero()]), max_size=4))
    pool += draw(st.lists(st.sampled_from([x for x in pts if x.coords[0].is_zero()]),
                          max_size=5))
    scatter = draw(st.lists(st.integers(0, len(pts) - 1), min_size=7, max_size=10,
                            unique=True))
    pool = list(dict.fromkeys(pool + [pts[i] for i in scatter]))
    pool = draw(st.permutations(pool))
    # groups for X1&X2&X3, X1&X2, X1&X3, X2&X3 get one point each first
    cuts = sorted(draw(st.lists(st.integers(4, len(pool)), min_size=2, max_size=2)))
    bounds = [0, 1, 2, 3, 4] + cuts + [len(pool)]
    g123, g12, g13, g23, g1, g2, g3 = (pool[a:b] for a, b in zip(bounds, bounds[1:]))
    X1 = draw(st.permutations(g123 + g12 + g13 + g1))
    X2 = draw(st.permutations(g123 + g12 + g23 + g2))
    X3 = draw(st.permutations(g123 + g13 + g23 + g3))
    return X1, X2, X3


@settings(max_examples=120, deadline=None)
@given(overlapping_sets())
def test_hash_matches_brute_on_shared_points(sets):
    X1, X2, X3 = sets
    assert set(X1) & set(X2) & set(X3)
    hashed = count_collinear_triples(X1, X2, X3, "hash")
    brute = count_collinear_triples(X1, X2, X3, "brute")
    assert hashed.total == brute.total
    assert hashed.by_line == brute.by_line
    assert sum(hashed.by_line.values()) == hashed.total
    # the lines are built from raw keys without reduction: already canonical
    ctx = X1[0].ctx
    for key in hashed.by_line:
        line = line_from_key(ctx, key)
        assert ProjLine(ctx, line.basis).key == key
    both = count_collinear_triples(X1, X2, X3, "both")
    assert (both.total, both.by_line) == (hashed.total, hashed.by_line)
    for X in (X1, X2, X3, X1 + [x for x in X2 if x not in X1]):
        rep = line_concentration(X)
        assert (rep.max_count, rep.witness) == line_concentration_by_lines(X)


# -- the line key on every kind of pair ------------------------------------------

@pytest.mark.parametrize("ctx", [FieldCtx(2), FieldCtx(3), FieldCtx(2, 2), FieldCtx(5)],
                         ids=str)
def test_line_key_matches_line_through_on_every_pair(ctx):
    pts = space(ctx)
    key_of, [codes] = _keyed(ctx, PointSet(pts))
    for u, a in zip(pts, codes):
        for v, b in zip(pts, codes):
            if u != v:
                assert key_of(a, b) == line_through(u, v).key, (u, v)


@st.composite
def plane_points(draw, ctx):
    """A point of P^3(ctx) on {x0 = 0}, and on {x0 = x1 = 0} one time in
    three."""
    lead = draw(st.sampled_from([1, 1, 2]))
    codes = [0] * lead + [draw(st.integers(1, ctx.order - 1))]
    codes += [draw(st.integers(0, ctx.order - 1)) for _ in range(3 - lead)]
    return ProjPoint(ctx, [FieldElem(ctx, c) for c in codes])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([FieldCtx(101), FieldCtx(5, 2), FieldCtx(3, 3)]), st.data())
def test_line_key_on_leading_zero_points(ctx, data):
    u = data.draw(plane_points(ctx))
    v = data.draw(plane_points(ctx).filter(lambda x: x != u))
    key_of, [[a, b]] = _keyed(ctx, PointSet([u, v]))
    assert key_of(a, b) == key_of(b, a) == line_through(u, v).key


def test_line_concentration_on_example_plane():
    X1 = build_example(13, 2).X1
    assert all(x.coords[0].is_zero() for x in X1)
    rep = line_concentration(X1)
    assert (rep.max_count, rep.witness) == line_concentration_by_lines(X1)

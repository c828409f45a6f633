"""`PointSet`, the one validated form of a point set, and the counts that
must not depend on how a set is listed.

- The type: its checks, the position it reports, its code tuples, and
  `PointSet.of` passing a point set through unchanged.
- Properties over F_5, F_101 and F_9: the triple kernels' `total` and
  `by_line`, `line_concentration` and the census do not change when each
  input set is permuted; the triple count does not change when X2 and
  X3 swap; a saved set loads back as the same `PointSet`.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchardlab.field import FieldCtx, FieldElem
from orchardlab.incidence import (
    count_collinear_triples,
    line_concentration,
    stabilizer_census_affine,
)
from orchardlab.projgeom import (
    EqualPoints,
    GeometryError,
    MixedContexts,
    PointSet,
    ProjPoint,
    load_point_set,
    save_point_set,
)

F5, F9, F101 = FieldCtx(5), FieldCtx(3, 2), FieldCtx(101)


def test_point_set_holds_codes_and_passes_through():
    pts = [ProjPoint(F9, c) for c in ([0, 1, 2, 3], [1, 0, 0, 4], [0, 0, 0, 1])]
    X = PointSet(pts)
    assert X == pts and X == tuple(pts) and not X != pts and X.ctx is F9
    assert X.keys == tuple(p.key for p in pts)
    log = F9.zech.log
    assert X.logs == tuple(tuple(log[c] for c in p.key) for p in pts)
    assert PointSet.of(X) is X and PointSet.of(pts) == X
    assert hash(X) == hash(tuple(pts)) and X[1:] == tuple(pts[1:])
    empty = PointSet()
    assert (empty.ctx, empty.keys, empty.logs, len(empty)) == (None, (), (), 0)


@pytest.mark.parametrize("points,error,index", [
    ([[0, 1, 2, 3], [1, 0, 0, 0], [0, 2, 4, 1]], EqualPoints, 2),
    ([[0, 1, 2, 3], [0, 1]], GeometryError, 1),
    ([[1, 0, 0, 0, 0]], GeometryError, 0),
], ids=["repeat", "P1-point", "P4-point"])
def test_point_set_reports_the_first_bad_point(points, error, index):
    with pytest.raises(error) as info:
        PointSet(ProjPoint(F5, c) for c in points)
    assert info.value.index == index


def test_point_set_rejects_a_field_mix():
    with pytest.raises(MixedContexts) as info:
        PointSet([ProjPoint(F5, [1, 0, 0, 0]), ProjPoint(F9, [1, 0, 0, 0])])
    assert info.value.index == 1


# -- properties -------------------------------------------------------------------

@st.composite
def point_lists(draw, ctx, plane=False, max_size=10):
    """Distinct points of P^3(ctx) with entries among the codes 0, 1 and
    q - 1, so that collinear triples are common; on {x0 = 0} if plane."""
    code = st.sampled_from([0, 1, ctx.order - 1])
    vector = st.tuples(st.just(0) if plane else code, code, code, code).filter(any)
    point = vector.map(lambda v: ProjPoint(ctx, [FieldElem(ctx, c) for c in v]))
    return draw(st.lists(point, min_size=1, max_size=max_size, unique_by=lambda p: p.key))


FIELDS = st.sampled_from([F5, F101, F9])


@settings(max_examples=60, deadline=None)
@given(FIELDS, st.data())
def test_triple_counts_ignore_listing_order(ctx, data):
    X1, X2, X3 = (data.draw(point_lists(ctx)) for _ in range(3))
    shuffled = [data.draw(st.permutations(X)) for X in (X1, X2, X3)]
    for kernel in ("hash", "brute"):
        count = count_collinear_triples(X1, X2, X3, kernel)
        assert count == count_collinear_triples(*shuffled, kernel)
        assert count == count_collinear_triples(X1, X3, X2, kernel)


@settings(max_examples=60, deadline=None)
@given(FIELDS, st.data())
def test_line_concentration_and_census_ignore_listing_order(ctx, data):
    X = data.draw(point_lists(ctx, max_size=12))
    assert line_concentration(X) == line_concentration(data.draw(st.permutations(X)))
    plane = data.draw(point_lists(ctx, plane=True, max_size=12))
    census = stabilizer_census_affine(plane)
    assert census == stabilizer_census_affine(data.draw(st.permutations(plane)))


@settings(max_examples=60, deadline=None)
@given(FIELDS, st.data())
def test_point_set_file_round_trip(ctx, data):
    X = data.draw(point_lists(ctx))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.pts")
        save_point_set(path, ctx, X)
        loaded_ctx, loaded = load_point_set(path)
    assert loaded_ctx is ctx and type(loaded) is PointSet
    assert loaded == PointSet(X) and loaded.keys == PointSet(X).keys

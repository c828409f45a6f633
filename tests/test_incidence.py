import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    affine_group_elements,
    line_concentration_by_lines,
    line_from_key,
    line_points,
    mulclose,
    on_line,
    pencil_planes,
)
from orchardlab import incidence
from orchardlab.errors import VerificationFailure
from orchardlab.field import FieldCtx, FieldElem
from orchardlab.groups import (
    AffElem,
    PGLElem,
    PointOffPlane,
    StdThreePlaneFrame,
    aff_act,
    aff_compose,
)
from orchardlab.incidence import (
    CensusReport,
    _inv_table,
    _keyed,
    count_collinear_triples,
    free_tuples,
    line_concentration,
    line_keys_by_text,
    line_text,
    omega_set,
    pencil_plane_concentration,
    stabilizer_census_affine,
)
from orchardlab.projgeom import (
    EqualPoints,
    GeometryError,
    MixedContexts,
    PointSet,
    ProjLine,
    ProjPlane,
    ProjPoint,
    TooLarge,
    collinear,
    enumerate_space,
    line_through,
)

F3 = FieldCtx(3)
F5 = FieldCtx(5)
F9 = FieldCtx(3, 2)


def sample_points(ctx, rng, n):
    pts = enumerate_space(ctx, 3)
    return rng.sample(pts, min(n, len(pts)))


def test_triple_count_tiny_examples():
    X1 = [ProjPoint(F5, [1, 0, 0, 0])]
    X2 = [ProjPoint(F5, [0, 1, 0, 0])]
    X3 = [ProjPoint(F5, [1, 1, 0, 0])]
    out = count_collinear_triples(X1, X2, X3, "both")
    assert out.total == 1
    assert list(out.by_line.values()) == [1]
    assert count_collinear_triples([], X2, X3).total == 0


def _shift_total(result):
    total, per_line = result
    return total + 1, per_line


def _move_count(result):
    """The count of the largest line key moved onto the least one."""
    total, per_line = result
    moved = dict(per_line)
    moved[min(moved)] += moved.pop(max(moved))
    return total, moved


# one triple on the line {x2 = x3 = 0} and one on {x1 = x3 = 0}
TWO_LINES = ([ProjPoint(F5, [1, 0, 0, 0])],
             [ProjPoint(F5, [1, 1, 0, 0]), ProjPoint(F5, [1, 0, 1, 0])],
             [ProjPoint(F5, [1, 2, 0, 0]), ProjPoint(F5, [1, 0, 2, 0])])
DISAGREEMENTS = [
    (_shift_total, "kernel disagreement: brute 3 vs hash 2"),
    (_move_count, "kernel disagreement on line 1:0:0:0|0:0:1:0: brute 2 vs hash 1"),
]


@pytest.mark.parametrize("patch, message", DISAGREEMENTS)
def test_kernel_disagreement_names_what_differs(monkeypatch, patch, message):
    """A brute kernel that disagrees with the hash kernel raises under
    "both": on the totals when they differ, else on the least line key
    whose counts differ, by its text."""
    assert count_collinear_triples(*TWO_LINES, "both").total == 2
    brute = incidence._count_brute_int
    monkeypatch.setattr(incidence, "_count_brute_int", lambda *a: patch(brute(*a)))
    with pytest.raises(VerificationFailure) as exc:
        count_collinear_triples(*TWO_LINES, "both")
    assert type(exc.value) is VerificationFailure and str(exc.value) == message


def test_triple_count_rejects_unknown_kernel_on_empty_input():
    X = [ProjPoint(F5, [1, 0, 0, 0]), ProjPoint(F5, [0, 1, 0, 0])]
    for X1, X2, X3 in (([], X, X), (X, [], X), (X, X, []), (X, X, X)):
        with pytest.raises(ValueError):
            count_collinear_triples(X1, X2, X3, "bogus")


def test_triple_count_both_kernel_named_alike_on_empty_input():
    X = [ProjPoint(F5, [1, 0, 0, 0]), ProjPoint(F5, [0, 1, 0, 0]),
         ProjPoint(F5, [1, 1, 0, 0])]
    empty = count_collinear_triples([], X, X, "both")
    full = count_collinear_triples(X, X, X, "both")
    assert empty == (0, {})
    assert full == count_collinear_triples(X, X, X, "hash")
    assert full.total == 6


def random_points(ctx, rng, n):
    pts = set()
    while len(pts) < n:
        v = [rng.randrange(ctx.order) for _ in range(4)]
        if any(v):
            pts.add(ProjPoint(ctx, v))
    return list(pts)


def test_line_statistics_memory_stays_linear():
    """The hash kernel and line_concentration keep one bucket per point,
    not every pair's line key: at 300 points over F_101, one entry per
    pair would take about 20 MiB."""
    rng = random.Random(29)
    F101 = FieldCtx(101)
    X1, X2, X3 = (random_points(F101, rng, 300) for _ in range(3))
    for run in (lambda: count_collinear_triples(X1, X2, X3, "hash"),
                lambda: line_concentration(X1)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.mark.parametrize("kernel", ["hash", "brute", "both"])
def test_triple_count_builds_no_field_element(kernel, monkeypatch):
    """Counts report each line by its kernel key and build no FieldElem,
    on F_101 plane sets with hundreds of lines and on F_9."""
    rng = random.Random(31)
    F101 = FieldCtx(101)
    plane = [(a, b) for a in range(101) for b in range(101)]
    cases = [
        [[ProjPoint(F101, [0, 1, a, b]) for a, b in rng.sample(plane, 50)] for _ in range(3)],
        [sample_points(F9, rng, 30) for _ in range(3)],
    ]
    built = []
    init = FieldElem.__init__

    def counted_init(self, ctx, code):
        built.append(code)
        init(self, ctx, code)

    monkeypatch.setattr(FieldElem, "__init__", counted_init)
    lines = [len(count_collinear_triples(*sets, kernel).by_line) for sets in cases]
    monkeypatch.undo()
    assert lines[0] >= 100 and lines[1] > 0
    assert built == []


def test_line_concentration_builds_no_element_or_line(monkeypatch):
    """The witness is the kernel's line key: on prebuilt F_101 and F_9
    point sets, line_concentration makes no FieldElem and no ProjLine."""
    rng = random.Random(41)
    sets = [PointSet(random_points(FieldCtx(101), rng, 40)), PointSet(sample_points(F9, rng, 30))]
    for X in sets:
        line_concentration(X)           # builds the field's tables, if any
    built = []
    for cls in (FieldElem, ProjLine):
        init = cls.__init__

        def counted_init(self, *args, _init=init):
            built.append(type(self).__name__)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted_init)
    reports = [line_concentration(X) for X in sets]
    monkeypatch.undo()
    assert built == []
    for X, rep in zip(sets, reports):
        assert rep.max_count >= 2 and len(rep.witness) == 8
        line = line_from_key(X.ctx, rep.witness)
        assert sum(on_line(line, x) for x in X) == rep.max_count


def test_line_from_key_checks_rank():
    with pytest.raises(GeometryError, match="rank 2"):
        line_from_key(F5, (1, 0, 0, 0, 1, 0, 0, 0))
    line = line_from_key(F5, (1, 0, 2, 3, 1, 1, 0, 0))
    assert line.key == (1, 0, 2, 3, 0, 1, 3, 2)


def test_inverse_table_is_built_once_per_field():
    """One prime field's inverse table serves every kernel call on it."""
    rng = random.Random(43)
    F101 = FieldCtx(101)
    X1, X2, X3 = (random_points(F101, rng, 20) for _ in range(3))
    _inv_table.cache_clear()
    count_collinear_triples(X1, X2, X3, "both")
    line_concentration(X1)
    assert _inv_table.cache_info().misses == 1
    for p in (2, 3, 101):
        assert [x * _inv_table(p)[x] % p for x in range(1, p)] == [1] * (p - 1)


@pytest.mark.parametrize("ctx", [FieldCtx(101), FieldCtx(2, 3), F9], ids=str)
def test_line_text_is_the_basis_text(ctx):
    rng = random.Random(37)
    pts = set()
    while len(pts) < 30:
        lead = rng.randrange(3)                 # some points on {x0 = 0}
        codes = [0] * lead + [rng.randrange(ctx.order) for _ in range(4 - lead)]
        if any(codes):
            pts.add(ProjPoint(ctx, [FieldElem(ctx, c) for c in codes]))
    key_of, [codes] = _keyed(ctx, PointSet(pts))
    for i, a in enumerate(codes):
        for b in codes[i + 1:]:
            key = key_of(a, b)
            line = line_from_key(ctx, key)
            text = "|".join(":".join(e.text() for e in row) for row in line.basis)
            assert line_text(ctx, key) == text


# prime fields with one-, two- and three-digit codes, and F_(p^n) whose code
# texts are coefficient lists with one- and two-digit entries
ORDER_FIELDS = [FieldCtx(p, n) for p, n in ((2, 1), (3, 1), (5, 1), (11, 1), (101, 1), (2, 2),
                                             (2, 3), (3, 2), (5, 2), (3, 3), (11, 2))]
PIVOTS = list(itertools.combinations(range(4), 2))   # the six RREF shapes of a line


@given(st.sampled_from(ORDER_FIELDS), st.randoms(use_true_random=False), st.integers(0, 40))
def test_line_keys_by_text_is_the_text_order(ctx, rng, n):
    """The rank order is the order of the line texts, on the keys of
    `line_through` for random point pairs of each of the six RREF shapes."""
    by_line = {}
    for index in range(n):
        i, j = PIVOTS[index % 6]
        # u leads at i and v at j, with random entries after their leads
        u, v = ([0] * lead + [1] + [rng.randrange(ctx.order) for _ in range(3 - lead)]
                for lead in (i, j))
        a = FieldElem(ctx, rng.randrange(ctx.order))
        p = ProjPoint(ctx, [FieldElem(ctx, x) + a * FieldElem(ctx, y) for x, y in zip(u, v)])
        key = line_through(p, ProjPoint(ctx, v)).key
        leads = [next(c for c, e in enumerate(row) if e) for row in (key[:4], key[4:])]
        assert leads == [i, j]
        by_line[key] = index
    assert line_keys_by_text(ctx, by_line) == sorted(by_line, key=lambda k: line_text(ctx, k))


@pytest.mark.parametrize("ctx, codes", [(FieldCtx(101), [9, 1, 100, 10]),
                                        (FieldCtx(11, 2), [99, 12, 21, 111])])
def test_line_keys_by_text_orders_codes_as_text(ctx, codes):
    """Codes of one, two and three digits (over F_121, texts 9,0 1,1 1,10
    and 10,1) sort as text, not as numbers: a text sorts after its
    extensions in entries 0-6, where ":" or "|" follows it, and before
    them in entry 7, the last."""
    one = ctx.one().code
    middle = {(one, 0, 0, c, 0, one, 0, 0): 1 for c in codes}
    last = {(one, 0, 0, 0, 0, one, 0, c): 1 for c in codes}
    texts = [ctx.code_text(c) for c in codes]
    middle_order = [c for _, c in sorted((t + ":", c) for t, c in zip(texts, codes))]
    last_order = [c for _, c in sorted(zip(texts, codes))]
    assert middle_order != last_order != sorted(codes) != middle_order
    assert [k[3] for k in line_keys_by_text(ctx, middle)] == middle_order
    assert [k[7] for k in line_keys_by_text(ctx, last)] == last_order
    for by_line in (middle, last):
        assert line_keys_by_text(ctx, by_line) == sorted(by_line, key=lambda k: line_text(ctx, k))
    assert line_keys_by_text(ctx, {}) == []


def test_triple_count_excludes_repeats():
    a, b = ProjPoint(F5, [1, 0, 0, 0]), ProjPoint(F5, [0, 1, 0, 0])
    assert count_collinear_triples([a], [a], [b], "both").total == 0
    assert count_collinear_triples([a], [b], [a], "both").total == 0


def test_kernel_equivalence_random():
    rng = random.Random(11)
    for ctx in (F3, F5, FieldCtx(7), F9):
        for _ in range(12):
            X1 = sample_points(ctx, rng, rng.randint(3, 25))
            X2 = sample_points(ctx, rng, rng.randint(3, 25))
            X3 = sample_points(ctx, rng, rng.randint(3, 25))
            brute = count_collinear_triples(X1, X2, X3, "brute")
            hashed = count_collinear_triples(X1, X2, X3, "hash")
            assert brute.total == hashed.total
            assert brute.by_line == hashed.by_line
            assert sum(brute.by_line.values()) == brute.total
            assert brute.total <= len(X1) * len(X2) * len(X3)


def test_counted_triples_reverify():
    rng = random.Random(13)
    X1 = sample_points(F5, rng, 20)
    X2 = sample_points(F5, rng, 20)
    X3 = sample_points(F5, rng, 20)
    out = count_collinear_triples(X1, X2, X3, "hash")
    rebuilt = 0
    for key, contribution in out.by_line.items():
        line = line_from_key(F5, key)
        on1 = [p for p in X1 if on_line(line, p)]
        on2 = [p for p in X2 if on_line(line, p)]
        on3 = [p for p in X3 if on_line(line, p)]
        combos = [
            (a, b, c)
            for a in on1
            for b in on2
            for c in on3
            if a != b and a != c and b != c
        ]
        assert len(combos) == contribution
        for a, b, c in combos:
            assert collinear(a, b, c)
        rebuilt += len(combos)
    assert rebuilt == out.total


def test_triple_count_pgl_invariant():
    rng = random.Random(17)
    X1 = sample_points(F5, rng, 15)
    X2 = sample_points(F5, rng, 15)
    X3 = sample_points(F5, rng, 15)
    base = count_collinear_triples(X1, X2, X3, "hash").total
    for _ in range(5):
        while True:
            rows = [[rng.randrange(5) for _ in range(4)] for _ in range(4)]
            try:
                M = PGLElem(F5, rows)
                break
            except Exception:
                continue
        moved = count_collinear_triples(
            [M.act(p) for p in X1],
            [M.act(p) for p in X2],
            [M.act(p) for p in X3],
            "hash",
        ).total
        assert moved == base


def test_pair_product_guard():
    pts = [ProjPoint(FieldCtx(101), [1, i, 0, 0]) for i in range(20)]
    with pytest.raises(TooLarge):
        count_collinear_triples(pts * 600, pts * 600, pts, "hash")


@pytest.mark.parametrize("kernel", ["hash", "brute"])
def test_pair_product_guard_counts_the_x3_pairs(monkeypatch, kernel):
    """The hash kernel keys each X1 point with X2 and with X3: 4 (1 + 4)
    pairs exceed a cap of 10 though |X1| |X2| = 4 does not, and both
    kernels raise before any key is computed."""
    keyed = []
    key = incidence._rref_key_int
    monkeypatch.setattr(incidence, "_rref_key_int", lambda *a: keyed.append(a) or key(*a))
    monkeypatch.setattr(incidence, "PAIR_PRODUCT_CAP", 10)
    X1 = [ProjPoint(F5, [1, i, 0, 0]) for i in range(4)]
    X3 = [ProjPoint(F5, [0, 1, i, 0]) for i in range(4)]
    with pytest.raises(TooLarge):
        count_collinear_triples(X1, [ProjPoint(F5, [0, 0, 0, 1])], X3, kernel)
    assert keyed == []


def test_line_concentration_examples():
    pts = [
        ProjPoint(F5, [1, 0, 0, 0]),
        ProjPoint(F5, [0, 1, 0, 0]),
        ProjPoint(F5, [1, 1, 0, 0]),
        ProjPoint(F5, [0, 0, 1, 0]),
    ]
    rep = line_concentration(pts)
    assert rep.max_count == 3
    assert rep.witness is not None
    assert sum(1 for p in pts if on_line(line_from_key(F5, rep.witness), p)) == 3
    line = line_through(ProjPoint(F5, [1, 0, 0, 0]), ProjPoint(F5, [0, 1, 0, 0]))
    assert line_concentration(line_points(line)).max_count == 6
    assert line_concentration(pts[:1]).max_count == 1
    assert line_concentration([]).max_count == 0
    # a tie: two lines of 3 points each; the larger key is the witness
    a = [ProjPoint(F5, v) for v in ([1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0])]
    b = [ProjPoint(F5, v) for v in ([0, 0, 1, 0], [1, 0, 0, 1], [1, 0, 1, 1])]
    keys = line_through(*a[:2]).key, line_through(*b[:2]).key
    assert keys[0] != keys[1]
    for X in (a + b, b + a, [a[0], b[0], a[1], b[1], b[2], a[2]]):
        rep = line_concentration(X)
        assert (rep.max_count, rep.witness) == (3, max(keys))


def test_line_concentration_guard(monkeypatch):
    """More than PAIR_PRODUCT_CAP pairs raise TooLarge before any pair is
    keyed, even when the triple count's |X1| |X2| guard would pass."""
    keyed = []
    key = incidence._rref_key_int
    monkeypatch.setattr(incidence, "_rref_key_int", lambda *a: keyed.append(a) or key(*a))
    monkeypatch.setattr(incidence, "PAIR_PRODUCT_CAP", 10)
    pts = [ProjPoint(F5, [1, i, 0, 0]) for i in range(5)] + [ProjPoint(F5, [0, 0, 1, 0])]
    assert line_concentration(pts[:5]).max_count == 5          # 10 pairs
    assert len(keyed) == 10
    keyed.clear()
    with pytest.raises(TooLarge):
        line_concentration(pts)                                 # 15 pairs
    with pytest.raises(TooLarge):
        line_concentration(pts[:5] + pts[:1])                   # before the repeat
    assert keyed == []
    assert count_collinear_triples(pts[:1], pts[:5], pts).total == 12


class Visits(list):
    """A brute kernel's X3 that counts the points its iterators hand out."""

    visits = 0

    def __iter__(self):
        for x in list.__iter__(self):
            self.visits += 1
            yield x


def test_kernel_work_counts(monkeypatch):
    """The work the benchmark's tracer counts (`incidence.pairs_keyed` as
    calls of `_rref_key_int`, `incidence.triples_tested` as visits of a
    brute kernel's X3), on F_101 sets with many collinear triples, both
    disjoint and sharing points: the hash kernel keys each ordered pair
    of distinct points of X1 x X2 and of X1 x X3, line_concentration
    each of the C(n, 2) pairs, and the brute kernel visits X3 once per
    pair of distinct points and keys the pairs with a hit."""
    keyed = []
    key = incidence._rref_key_int
    monkeypatch.setattr(incidence, "_rref_key_int", lambda *a: keyed.append(a) or key(*a))
    F101 = FieldCtx(101)
    pts = [ProjPoint(F101, [1, a, b, 0]) for a in range(6) for b in range(6)]
    pts += [ProjPoint(F101, [0, 1, a, 0]) for a in range(6)] + [ProjPoint(F101, [0, 0, 1, 0])]
    random.Random(43).shuffle(pts)
    for sets in ([pts[:14], pts[14:28], pts[28:]],
                 [pts[:20], pts[10:30], pts[5:15] + pts[25:40]]):
        X1, X2, X3 = map(PointSet, sets)
        pairs12 = sum(u != v for u in X1 for v in X2)
        pairs13 = sum(u != w for u in X1 for w in X3)
        keyed.clear()
        hashed = count_collinear_triples(X1, X2, X3, "hash")
        assert len(keyed) == pairs12 + pairs13
        for X in sets:
            keyed.clear()
            line_concentration(X)
            assert len(keyed) == len(X) * (len(X) - 1) // 2
        keyed.clear()
        visits = Visits(X3.keys)
        total, per_line = incidence._count_brute_int(101, X1.keys, X2.keys, visits)
        assert (total, per_line) == hashed and total > 50
        assert visits.visits == pairs12 * len(X3)
        hit_pairs = sum(
            1 for u in X1 for v in X2
            if u != v and any(w not in (u, v) and collinear(u, v, w) for w in X3)
        )
        assert len(keyed) == hit_pairs


def twisted_cubic(ctx, ts):
    """[1 : t : t^2 : t^3] for t in ts, and [0 : 0 : 0 : 1]: no three
    of them are collinear."""
    one = ctx.one()
    return [ProjPoint(ctx, [one, t, t * t, t * t * t]) for t in ts] + [
        ProjPoint(ctx, [0, 0, 0, 1])
    ]


def test_line_concentration_witness_when_every_line_ties():
    """On a set with no three collinear points every spanned line holds 2,
    so the witness is the largest key over all pairs, in any order."""
    rng = random.Random(47)
    F101 = FieldCtx(101)
    for X in (twisted_cubic(F101, [F101.elem(t) for t in range(39)]),
              twisted_cubic(F9, list(F9.elements()))):
        for _ in range(3):
            rep = line_concentration(X)
            assert (rep.max_count, rep.witness) == line_concentration_by_lines(X)
            assert rep.max_count == 2
            rng.shuffle(X)
    assert len(X) == 10


@pytest.mark.parametrize("ctx", [F5, F9])
def test_line_concentration_rejects_repeated_points(ctx):
    a = ProjPoint(ctx, [1, 0, 0, 0])
    b = ProjPoint(ctx, [0, 1, 0, 0])
    for X in ([a, a, b], [a, a], [b, a, b]):
        with pytest.raises(EqualPoints):
            line_concentration(X)


def test_pencil_concentration():
    P1 = ProjPlane(F5, [1, 0, 0, 0])
    P2 = ProjPlane(F5, [0, 1, 0, 0])
    planes = pencil_planes(P1, P2)
    assert len(planes) == 6 and len(set(planes)) == 6
    inside = [p for p in enumerate_space(F5, 3) if planes[2].contains(p)][:9]
    rep = pencil_plane_concentration(inside, P1, P2)
    assert rep.max_count == 9
    assert rep.witness is not None
    far = [ProjPoint(F5, [1, 1, 0, 0]), ProjPoint(F5, [1, 2, 0, 0])]
    rep = pencil_plane_concentration(far, P1, P2)
    assert rep.max_count == 1


def test_census_examples():
    # distinct points off the degenerate loci: only the diagonal is counted
    p1 = ProjPoint(F5, [0, 1, 1, 1])
    p2 = ProjPoint(F5, [0, 1, 2, 3])
    rep = stabilizer_census_affine([p1, p2])
    assert rep.nontrivial_count == 2  # (p1,p1) and (p2,p2)
    # a first-coordinate-zero point is stabilized by everything
    rep = stabilizer_census_affine([ProjPoint(F5, [0, 0, 1, 0]), p2])
    assert rep.nontrivial_count == 4
    # equal slope ratio flags the case split but the true stabilizer is
    # trivial: the case split is an over-approximation, not an equality
    ra = ProjPoint(F5, [0, 1, 1, 2])
    rb = ProjPoint(F5, [0, 1, 2, 4])
    rep = stabilizer_census_affine([ra, rb])
    assert rep.closed_form_count == 4
    assert rep.nontrivial_count == 2


def test_census_raises_when_the_case_split_misses_a_pair(monkeypatch):
    """A case split that flags no pair misses the stabilized diagonal pair
    (p, p): the census raises at it."""
    p = ProjPoint(F5, [0, 1, 2, 3])
    monkeypatch.setattr(incidence, "_closed_form_pair", lambda p, q: False)
    with pytest.raises(VerificationFailure) as exc:
        stabilizer_census_affine([p])
    assert exc.type is VerificationFailure
    assert str(exc.value) == f"case split missed a stabilized pair ({p}, {p})"


def test_census_of_no_points():
    assert stabilizer_census_affine([]) == CensusReport(0, 0)


def test_census_rejects_repeated_points():
    a = ProjPoint(F5, [0, 0, 1, 0])
    with pytest.raises(EqualPoints):
        stabilizer_census_affine([a, a])
    with pytest.raises(EqualPoints):
        stabilizer_census_affine([a, ProjPoint(F5, [0, 1, 2, 3]), a])


def test_census_pair_guard(monkeypatch):
    """More than PAIR_PRODUCT_CAP ordered pairs raise TooLarge before the
    points are checked and before any pair is visited."""
    pts = [ProjPoint(F5, c) for c in ([0, 0, 1, 0], [0, 1, 1, 1], [0, 1, 2, 3])]

    def visited(*a):
        raise AssertionError("a pair was visited")

    with monkeypatch.context() as m:
        m.setattr(incidence, "PAIR_PRODUCT_CAP", 8)
        m.setattr(incidence, "_pair_stabilizer_nontrivial", visited)
        with pytest.raises(TooLarge):
            stabilizer_census_affine(pts)                       # 9 pairs
        with pytest.raises(TooLarge):
            stabilizer_census_affine(pts[:2] + pts[:1])         # before the repeat
    monkeypatch.setattr(incidence, "PAIR_PRODUCT_CAP", 9)
    assert stabilizer_census_affine(pts) == (7, 7)


def test_census_rejects_off_plane_point_as_point_off_plane():
    off = ProjPoint(F5, [1, 0, 0, 0])
    with pytest.raises(PointOffPlane) as info:
        stabilizer_census_affine([ProjPoint(F5, [0, 1, 2, 3]), off])
    # a field mix and an off-plane point are different faults
    assert not isinstance(info.value, MixedContexts)


def test_census_soundness_exhaustive_plane_f5():
    frame = StdThreePlaneFrame(F5)
    plane_pts = [p for p in enumerate_space(F5, 3) if frame.P1.contains(p)]
    rep = stabilizer_census_affine(plane_pts)
    # every truly stabilized pair is flagged by the case split
    assert rep.nontrivial_count <= rep.closed_form_count
    # the exact census matches first-coordinate structure: a pair is
    # stabilized iff one member has xi1 = 0 or the points coincide
    zero_lead = sum(1 for p in plane_pts if p.coords[1].is_zero())
    n = len(plane_pts)
    expected = n * n - (n - zero_lead) * (n - zero_lead - 1) - zero_lead * 0
    # pairs NOT stabilized: both xi1 != 0 and distinct
    assert rep.nontrivial_count == expected


def test_free_tuples_trivial_group():
    pts = [p for p in enumerate_space(F3, 3) if p.coords[0].is_zero()][:5]
    ft = free_tuples(pts, [AffElem.identity(F3)], 2, aff_act)
    assert len(ft.tuples) == len(pts) ** 2
    assert ft.complement_size == 0


def test_free_tuples_globally_fixed_point():
    fixed = ProjPoint(F3, [0, 0, 1, 0])
    group = affine_group_elements(F3)
    ft = free_tuples([fixed], group, 1, aff_act)
    assert len(ft.tuples) == 0 and ft.complement_size == 1


def test_free_tuples_guard(monkeypatch):
    """More than PAIR_PRODUCT_CAP tuples, |X|^k, raise TooLarge before the
    points are checked and before any element acts."""
    pts = [p for p in enumerate_space(F3, 3) if p.coords[0].is_zero()][:3]
    group = affine_group_elements(F3)

    def acted(*a):
        raise AssertionError("an element acted")

    with monkeypatch.context() as m:
        m.setattr(incidence, "PAIR_PRODUCT_CAP", 8)
        with pytest.raises(TooLarge) as exc:
            free_tuples(pts, group, 2, acted)                   # 9 tuples
        assert type(exc.value) is TooLarge
        with pytest.raises(TooLarge):
            free_tuples(pts[:2] + pts[:1], group, 2, acted)     # before the repeat
        with pytest.raises(TooLarge):
            free_tuples(pts[:2], group, 10**9, acted)           # 2^(10^9), at once
    monkeypatch.setattr(incidence, "PAIR_PRODUCT_CAP", 9)
    assert len(free_tuples(pts, [AffElem.identity(F3)], 2, aff_act).tuples) == 9
    with pytest.raises(ValueError) as exc:
        free_tuples(pts, [g for g in group if not g.is_identity()], 2, aff_act)
    assert type(exc.value) is ValueError


def test_free_tuples_matches_per_tuple_scan():
    rng = random.Random(23)
    frame = StdThreePlaneFrame(F5)
    pts = [p for p in enumerate_space(F5, 3) if frame.P1.contains(p)]
    gens = [AffElem(F5, 1, 0, 2), AffElem(F5, 0, 1, 1)]
    G_set, truncated = mulclose(gens, aff_compose, AffElem.identity(F5))
    assert not truncated
    X = rng.sample(pts, 6)
    ft = free_tuples(X, G_set, 2, aff_act)
    for tup in [(a, b) for a in X for b in X]:
        stab_trivial = True
        for g in G_set:
            if g.is_identity():
                continue
            if all(aff_act(g, x) == x for x in tup):
                stab_trivial = False
                break
        assert (tup in ft.tuples) == stab_trivial


def test_omega_identity_always_in():
    frame = StdThreePlaneFrame(F5)
    pts = [
        p
        for p in enumerate_space(F5, 3)
        if frame.P1.contains(p) and not p.coords[1].is_zero()
    ][:6]
    group = affine_group_elements(F5)
    ft = free_tuples(pts, group, 2, aff_act)
    # distinct pairs of points with nonzero leading plane coordinate are free
    assert len(ft.tuples) == len(pts) * (len(pts) - 1)
    report = omega_set(ft, [AffElem.identity(F5)], Fraction(1, 2), aff_act)
    assert AffElem.identity(F5) in report.elements
    assert report.mass == len(ft.tuples)
    assert report.mass_bound_ok and report.size_bound_ok


def test_omega_bounds_random_instances():
    rng = random.Random(29)
    frame = StdThreePlaneFrame(F5)
    pts = [p for p in enumerate_space(F5, 3) if frame.P1.contains(p)]
    for trial in range(10):
        gens = [
            AffElem(
                F5,
                rng.randrange(5),
                rng.randrange(5),
                rng.randrange(1, 5),
            )
            for _ in range(2)
        ]
        G_set, truncated = mulclose(gens, aff_compose, AffElem.identity(F5))
        assert not truncated
        X = rng.sample(pts, rng.randint(4, 8))
        for k in (1, 2):
            ft = free_tuples(X, G_set, k, aff_act)
            if not ft.tuples:
                continue
            t = Fraction(rng.randint(1, 3), 4)
            report = omega_set(ft, G_set, t, aff_act)
            n = report.tuple_count
            assert report.mass <= n * n
            u, v = t.numerator, t.denominator
            assert len(report.elements) ** v <= 2**v * n ** (v + u)
            # every accepted element clears the threshold exactly
            for g in report.elements:
                overlap = sum(
                    1
                    for tup in ft.tuples
                    if tuple(aff_act(g, x) for x in tup) in ft.tuples
                )
                assert (2 * overlap) ** v > n ** (v - u)


def _free_one_tuples(n):
    """A free tuple set of n 1-tuples, with its closure verified."""
    pts = [ProjPoint(F5, [0, 1, i, 1]) for i in range(n)]
    return incidence.FreeTupleSet(1, {(x,) for x in pts}, 0, False)


def test_omega_counts_a_repeated_candidate_once():
    ft = _free_one_tuples(3)
    identity = AffElem.identity(F5)
    once = omega_set(ft, [identity], Fraction(1, 2), aff_act)
    assert omega_set(ft, [identity, identity, identity], Fraction(1, 2), aff_act) == once
    assert once.elements == {identity} and once.mass == 3


def test_omega_rejects_an_empty_free_tuple_set():
    with pytest.raises(ValueError) as exc:
        omega_set(incidence.FreeTupleSet(1, set(), 0, False), [], Fraction(1, 2), aff_act)
    assert exc.type is ValueError and str(exc.value) == "free tuple set is empty"


def test_omega_bounds_catch_an_action_that_is_no_group_action():
    """Under an "action" where every g fixes every tuple, each of n + 1
    distinct candidates overlaps all n tuples, so the mass (n + 1) n
    passes n^2: the verified free action raises; a truncated closure
    only reports it."""
    ft = _free_one_tuples(3)

    def fixed(g, x):
        return x

    with pytest.raises(VerificationFailure) as exc:
        omega_set(ft, range(4), Fraction(1, 2), fixed)
    assert exc.type is VerificationFailure
    assert str(exc.value) == "almost-invariance bounds violated on a verified free action"
    report = omega_set(ft._replace(closure_truncated=True), range(4), Fraction(1, 2), fixed)
    assert report.mass == 12 and not report.mass_bound_ok


def test_omega_rejects_bad_t():
    pts = [p for p in enumerate_space(F3, 3) if p.coords[0].is_zero()][:3]
    ft = free_tuples(pts, [AffElem.identity(F3)], 1, aff_act)
    with pytest.raises(ValueError):
        omega_set(ft, [], Fraction(3, 2), aff_act)


@pytest.mark.parametrize("kernel", ["hash", "brute", "both"])
@pytest.mark.parametrize("ctx", [F5, F9])
def test_triple_count_rejects_repeated_points(ctx, kernel):
    a = ProjPoint(ctx, [1, 0, 0, 0])
    b = ProjPoint(ctx, [0, 1, 0, 0])
    c = ProjPoint(ctx, [1, 1, 0, 0])
    for X1, X2, X3 in (([a, a, b], [c], [b, c]), ([a], [b, c, b], [c]),
                       ([a, b], [c], [a, c, c]), ([], [a, a], [c])):
        with pytest.raises(EqualPoints):
            count_collinear_triples(X1, X2, X3, kernel)


@pytest.mark.parametrize("kernel", ["hash", "brute", "both"])
def test_triple_count_checks_sets_before_the_empty_shortcut(kernel):
    # an empty set makes the count 0, but only for sets that are valid
    a = ProjPoint(F5, [1, 0, 0, 0])
    c = ProjPoint(F5, [0, 1, 0, 0])
    b = ProjPoint(FieldCtx(7), [1, 0, 0, 0])
    with pytest.raises(MixedContexts):
        count_collinear_triples([], [a], [b], kernel)
    with pytest.raises(ValueError):
        count_collinear_triples([], [a, a], [b], "fast")
    count = count_collinear_triples([], [a], [c], kernel)
    assert (count.total, count.by_line) == (0, {})

"""Canonical points, lines, planes and quadrics in P^3 (and P^1) over a
finite field.

Every object is stored in a unique canonical form so that structural
equality and hashing are the containment test: points and plane duals
scale their first nonzero coordinate to 1, lines keep a reduced
row-echelon basis.  This is what makes the counting kernels a matter of
dictionary lookups.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .field import FieldCtx, FieldElem, FieldError, inv

ENUMERATION_CAP = 10**8


class GeometryError(Exception):
    pass


class ZeroVector(GeometryError):
    pass


class EqualPoints(GeometryError):
    pass


class LineInPlane(GeometryError):
    pass


class MixedContexts(GeometryError):
    pass


class TooLarge(GeometryError):
    pass


class NotOnSegreQuadric(GeometryError):
    pass


def _as_elems(ctx: FieldCtx, coords) -> Tuple[FieldElem, ...]:
    return tuple(ctx.elem(c) for c in coords)


class ProjPoint:
    """A projective point; first nonzero coordinate normalized to 1."""

    __slots__ = ("ctx", "coords", "key")

    def __init__(self, ctx: FieldCtx, coords: Sequence):
        coords = _as_elems(ctx, coords)
        pivot = next((c for c in coords if not c.is_zero()), None)
        if pivot is None:
            raise ZeroVector("all coordinates zero")
        if not pivot.is_one():
            scale = inv(pivot)
            coords = tuple(c * scale for c in coords)
        self.ctx = ctx
        self.coords = coords
        self.key = tuple(c.code for c in coords)

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other):
        return (
            isinstance(other, ProjPoint)
            and self.ctx is other.ctx
            and self.key == other.key
        )

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "[" + ":".join(c.text() for c in self.coords) + "]"

    def text(self) -> str:
        return ":".join(c.text() for c in self.coords)

    @staticmethod
    def parse(ctx: FieldCtx, text: str) -> "ProjPoint":
        return ProjPoint(ctx, [FieldElem.parse(ctx, c) for c in text.split(":")])

    def apply_matrix(self, rows) -> "ProjPoint":
        """Image under a square matrix given as rows of FieldElems."""
        v = self.coords
        return ProjPoint(
            self.ctx,
            [sum((r[j] * v[j] for j in range(len(v))), self.ctx.zero()) for r in rows],
        )


def _rref2(ctx: FieldCtx, rows: List[List[FieldElem]]):
    """Reduced row-echelon form of a small matrix, returned with rank."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        hit = next(
            (r for r in range(pivot_row, len(rows)) if not rows[r][col].is_zero()),
            None,
        )
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        scale = inv(rows[pivot_row][col])
        rows[pivot_row] = [x * scale for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows, pivot_row


def matrix_rank(ctx: FieldCtx, rows) -> int:
    _, rank = _rref2(ctx, [list(r) for r in rows])
    return rank


class ProjLine:
    """A line in P^3 as the row span of a canonical RREF 2x4 basis; its
    key is the flat 8-tuple of the basis codes."""

    __slots__ = ("ctx", "basis", "key")

    def __init__(self, ctx: FieldCtx, rows):
        rref, rank = _rref2(ctx, [list(r) for r in rows])
        if rank != 2:
            raise GeometryError("line basis must have rank 2")
        basis = tuple(tuple(r) for r in rref[:2])
        self.ctx = ctx
        self.basis = basis
        self.key = tuple(e.code for row in basis for e in row)

    @classmethod
    def from_rref(cls, ctx: FieldCtx, basis) -> "ProjLine":
        """The line whose two basis rows are already its canonical reduced
        row-echelon form, as the counting kernels' line keys are; nothing
        is reduced or checked."""
        line = cls.__new__(cls)
        line.ctx = ctx
        line.basis = tuple(tuple(row) for row in basis)
        line.key = tuple(e.code for row in line.basis for e in row)
        return line

    def __eq__(self, other):
        return (
            isinstance(other, ProjLine)
            and self.ctx is other.ctx
            and self.key == other.key
        )

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Line{self.basis}"

    def contains(self, p: ProjPoint) -> bool:
        if p.ctx is not self.ctx:
            raise MixedContexts("point from a different field")
        rows = [list(self.basis[0]), list(self.basis[1]), list(p.coords)]
        return matrix_rank(self.ctx, rows) == 2

    def points(self) -> List[ProjPoint]:
        """All q + 1 points of the line."""
        ctx = self.ctx
        u, v = self.basis
        out = [ProjPoint(ctx, u)]
        for t in ctx.elements():
            out.append(ProjPoint(ctx, [a * t + b for a, b in zip(u, v)]))
        return out


class ProjPlane:
    """A plane in P^3 by its canonical dual vector."""

    __slots__ = ("ctx", "dual", "key")

    def __init__(self, ctx: FieldCtx, dual: Sequence):
        pt = ProjPoint(ctx, dual)  # reuse the same canonicalization
        self.ctx = ctx
        self.dual = pt.coords
        self.key = pt.key

    def __eq__(self, other):
        return (
            isinstance(other, ProjPlane)
            and self.ctx is other.ctx
            and self.key == other.key
        )

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "Plane(" + ":".join(c.text() for c in self.dual) + ")"

    def contains(self, p: ProjPoint) -> bool:
        if p.ctx is not self.ctx:
            raise MixedContexts("point from a different field")
        acc = self.ctx.zero()
        for d, c in zip(self.dual, p.coords):
            acc = acc + d * c
        return acc.is_zero()


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """The unique line through two distinct points."""
    if p.ctx is not q.ctx:
        raise MixedContexts("points from different fields")
    if p == q:
        raise EqualPoints("points coincide")
    return ProjLine(p.ctx, [list(p.coords), list(q.coords)])


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    """Rank test: the three lifts span a subspace of dimension <= 2.

    Repeated points therefore count as collinear; distinctness is the
    caller's concern.
    """
    if p.ctx is not q.ctx or q.ctx is not r.ctx:
        raise MixedContexts("points from different fields")
    return matrix_rank(p.ctx, [p.coords, q.coords, r.coords]) <= 2


def meet_line_plane(line: ProjLine, plane: ProjPlane) -> ProjPoint:
    """The unique intersection point of a line not contained in the plane."""
    ctx = line.ctx
    if plane.ctx is not ctx:
        raise MixedContexts("plane from a different field")
    u, v = line.basis
    zero = ctx.zero()
    du = sum((d * c for d, c in zip(plane.dual, u)), zero)
    dv = sum((d * c for d, c in zip(plane.dual, v)), zero)
    if du.is_zero() and dv.is_zero():
        raise LineInPlane("line lies in the plane")
    # s*u + t*v with s*du + t*dv = 0
    coords = [dv * a - du * b for a, b in zip(u, v)]
    return ProjPoint(ctx, coords)


def enumerate_space(ctx: FieldCtx, dim: int) -> List[ProjPoint]:
    """All canonical points of P^dim, each once, lexicographic order."""
    if dim not in (1, 3):
        raise GeometryError("only P^1 and P^3 are supported")
    if ctx.order ** (dim + 1) > ENUMERATION_CAP:
        raise TooLarge("projective space too large to enumerate")
    elems = list(ctx.elements())
    points = []
    one = ctx.one()
    zero = ctx.zero()
    for lead in range(dim + 1):
        prefix = [zero] * lead + [one]
        free = dim - lead

        def rec(acc, remaining):
            if remaining == 0:
                points.append(ProjPoint(ctx, acc))
                return
            for e in elems:
                rec(acc + [e], remaining - 1)

        rec(prefix, free)
    points.sort(key=lambda p: p.key)
    return points


class QuadricForm:
    """A quadric in P^3 via its symmetric 4x4 matrix B.  The nonzero
    entries of B, as (i, j, B[i][j]) in row order, are kept once, so the
    forms sum over them alone (the Segre form has 4 of 16)."""

    __slots__ = ("ctx", "B", "entries")

    def __init__(self, ctx: FieldCtx, rows):
        B = tuple(tuple(ctx.elem(x) for x in row) for row in rows)
        if len(B) != 4 or any(len(r) != 4 for r in B):
            raise GeometryError("quadric matrix must be 4x4")
        for i in range(4):
            for j in range(4):
                if B[i][j] != B[j][i]:
                    raise GeometryError("quadric matrix must be symmetric")
        self.ctx = ctx
        self.B = B
        self.entries = tuple(
            (i, j, b) for i, row in enumerate(B) for j, b in enumerate(row)
            if not b.is_zero()
        )

    def evaluate(self, v: Sequence[FieldElem]) -> FieldElem:
        return self.bilinear(v, v)

    def bilinear(self, u, v) -> FieldElem:
        acc = self.ctx.zero()
        for i, j, b in self.entries:
            acc = acc + u[i] * b * v[j]
        return acc

    def det(self) -> FieldElem:
        return _det4(self.ctx, self.B)

    def is_smooth(self) -> bool:
        return not self.det().is_zero()

    def points(self) -> List[ProjPoint]:
        """All points of the quadric, by scanning P^3."""
        return [p for p in enumerate_space(self.ctx, 3) if on_quadric(p, self)]

    @staticmethod
    def identity(ctx: FieldCtx) -> "QuadricForm":
        one = ctx.one()
        zero = ctx.zero()
        return QuadricForm(
            ctx, [[one if i == j else zero for j in range(4)] for i in range(4)]
        )

    @staticmethod
    def segre(ctx: FieldCtx) -> "QuadricForm":
        """Symmetric matrix of 2*(x1*x4 - x2*x3); doubling avoids halves."""
        z = ctx.zero()
        o = ctx.one()
        return QuadricForm(
            ctx,
            [[z, z, z, o], [z, z, -o, z], [z, -o, z, z], [o, z, z, z]],
        )


def on_quadric(p: ProjPoint, Q: QuadricForm) -> bool:
    if p.ctx is not Q.ctx:
        raise MixedContexts("point from a different field")
    return Q.evaluate(p.coords).is_zero()


def _det4(ctx: FieldCtx, rows) -> FieldElem:
    """Determinant of a 4x4 matrix by the Laplace expansion along its top
    two rows: the sum of the six products of a 2x2 minor of rows 0, 1
    with the complementary minor of rows 2, 3, signed."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


# -- point-set files ----------------------------------------------------

class PointSetFormatError(GeometryError):
    pass


def load_point_set(path, allow_dup: bool = False):
    """Read a point-set file: `field <descriptor>` then one point of P^3
    per line.

    Coordinates are colon-separated; each coordinate is a comma-separated
    coefficient list (a bare integer for prime fields).  `#` starts a
    comment.  Duplicate canonical points are an error unless allow_dup.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    ctx = None
    points = []
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ctx is None:
            if not line.startswith("field "):
                raise PointSetFormatError(
                    f"{path}:{lineno}: first line must declare `field <descriptor>`"
                )
            try:
                ctx = FieldCtx.from_descriptor(line[len("field "):])
            except FieldError as exc:
                raise PointSetFormatError(f"{path}:{lineno}: {exc}") from exc
            continue
        try:
            pt = ProjPoint.parse(ctx, line)
        except (FieldError, GeometryError, ValueError) as exc:
            raise PointSetFormatError(f"{path}:{lineno}: {exc}") from exc
        if pt.dim != 3:
            raise PointSetFormatError(
                f"{path}:{lineno}: a point of P^3 has 4 coordinates, not {pt.dim + 1}"
            )
        if pt in seen:
            if allow_dup:
                continue
            raise PointSetFormatError(
                f"{path}:{lineno}: duplicate canonical point {pt}"
            )
        seen.add(pt)
        points.append(pt)
    if ctx is None:
        raise PointSetFormatError(f"{path}: missing field declaration")
    return ctx, points


def save_point_set(path, ctx: FieldCtx, points: Iterable[ProjPoint]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"field {ctx.descriptor()}\n")
        for p in points:
            fh.write(p.text() + "\n")

"""Seeded inputs and reference answers for the benchmark.

Nothing here imports `orchardlab`.  A field element of F_{p^n} is an int
in [0, p^n) whose base-p digits are its coefficients, low degree first;
subtraction, multiplication and inversion are tables built from
this module's own mod-p polynomial arithmetic.  Points are written
straight in canonical form (leading zeros, then 1, then random
coordinates) and every `.pts` file names its field modulus explicitly.

The reference triple counter keys a line by its normalized Pluecker
coordinates, not by the program's row-echelon basis, so it checks the
program's answers by a different route.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Sequence, Tuple

Point = Tuple[int, ...]
LineKey = Tuple[int, ...]


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))


class Field:
    """F_{p^n} = F_p[t]/(modulus) with n <= 2, where irreducible means rootless."""

    def __init__(self, p: int, n: int = 1):
        if not _is_prime(p) or not 1 <= n <= 2:
            raise ValueError(f"unsupported field {p}^{n}")
        self.p, self.n, self.q = p, n, p**n
        self.modulus = None if n == 1 else self._least_irreducible()
        self.digits = [tuple((e // p**i) % p for i in range(n)) for e in range(self.q)]
        code = {d: e for e, d in enumerate(self.digits)}
        self.sub = [
            [code[tuple((x - y) % p for x, y in zip(a, b))] for b in self.digits]
            for a in self.digits
        ]
        self.mul = [[code[self._polymul(a, b)] for b in self.digits] for a in self.digits]
        self.inv = [0] * self.q
        for a in range(1, self.q):
            self.inv[a] = self.mul[a].index(1)

    def _least_irreducible(self) -> Tuple[int, ...]:
        # monic polynomials in the order of their low-degree-first
        # coefficients read as a base-p number
        p, n = self.p, self.n
        for c in range(p**n):
            coeffs = [(c // p**i) % p for i in range(n)] + [1]
            if all(_poly_eval(coeffs, x, p) for x in range(p)):
                return tuple(coeffs)
        raise ValueError("no irreducible polynomial found")

    def _polymul(self, a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
        p, n = self.p, self.n
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * n - 2, n - 1, -1):
            lead = prod[top]
            for i, m in enumerate(self.modulus or ()):
                prod[top - n + i] = (prod[top - n + i] - lead * m) % p
        return tuple(prod[:n])

    def descriptor(self) -> str:
        if self.n == 1:
            return str(self.p)
        return f"{self.p}^{self.n}/" + ",".join(map(str, self.modulus))

    def text(self, e: int) -> str:
        return ",".join(map(str, self.digits[e]))

    def parse(self, text: str) -> int:
        coeffs = [int(c) % self.p for c in text.split(",")]
        coeffs += [0] * (self.n - len(coeffs))
        return sum(c * self.p**i for i, c in enumerate(coeffs))


def _poly_eval(coeffs: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


# -- point sets ---------------------------------------------------------------

def random_point(field: Field, rng: random.Random, dim: int = 3) -> Point:
    """A uniform canonical point of P^dim: the pivot sits at position i
    with probability proportional to q^(dim - i)."""
    q = field.q
    i = rng.choices(range(dim + 1), weights=[q ** (dim - i) for i in range(dim + 1)])[0]
    return (0,) * i + (1,) + tuple(rng.randrange(q) for _ in range(dim - i))


def segre_point(field: Field, rng: random.Random) -> Point:
    """[ac : ad : bc : bd] for canonical (a:b), (c:d) in P^1; canonical
    because its first nonzero entry is a product of two pivots."""
    a, b = random_point(field, rng, 1)
    c, d = random_point(field, rng, 1)
    mul = field.mul
    return (mul[a][c], mul[a][d], mul[b][c], mul[b][d])


def off_segre_point(field: Field, rng: random.Random) -> Point:
    """A uniform canonical point with x0*x3 != x1*x2."""
    mul = field.mul
    while True:
        x = random_point(field, rng)
        if mul[x[0]][x[3]] != mul[x[1]][x[2]]:
            return x


def distinct_points(count: int, make, taken: set) -> List[Point]:
    """`count` points from `make()` that are not in `taken`; adds them to it."""
    out: List[Point] = []
    while len(out) < count:
        x = make()
        if x not in taken:
            taken.add(x)
            out.append(x)
    return out


def three_sets(field: Field, rng: random.Random, size: int) -> List[List[Point]]:
    """Three pairwise disjoint sets of uniform random points."""
    taken: set = set()
    return [distinct_points(size, lambda: random_point(field, rng), taken) for _ in range(3)]


def quadric_sets(field: Field, rng: random.Random, on: int, off: int):
    """`on` distinct points of the Segre quadric and `off` points off it."""
    taken: set = set()
    on_pts = distinct_points(on, lambda: segre_point(field, rng), taken)
    off_pts = distinct_points(off, lambda: off_segre_point(field, rng), taken)
    return on_pts, off_pts


def write_pts(path: str, field: Field, points: Sequence[Point]) -> str:
    """Write a point-set file and return the SHA-256 of its bytes."""
    lines = [f"field {field.descriptor()}"]
    lines += [":".join(field.text(c) for c in x) for x in points]
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def read_pts(path: str) -> Tuple[Field, List[Point]]:
    """Read a point-set file written by the program or by write_pts."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    desc = lines[0].split(None, 1)[1]
    head = desc.split("/", 1)[0]
    p, _, n = head.partition("^")
    field = Field(int(p), int(n or 1))
    if field.descriptor() != desc and "/" in desc:
        raise ValueError(f"{path}: modulus {desc} is not the one this generator uses")
    return field, [tuple(field.parse(c) for c in ln.split(":")) for ln in lines[1:]]


# -- reference answers ----------------------------------------------------------

def line_key(field: Field, u: Point, v: Point) -> LineKey:
    """Pluecker coordinates of the line through u != v, scaled so the
    first nonzero one is 1."""
    mul, sub = field.mul, field.sub
    m = (
        sub[mul[u[0]][v[1]]][mul[u[1]][v[0]]],
        sub[mul[u[0]][v[2]]][mul[u[2]][v[0]]],
        sub[mul[u[0]][v[3]]][mul[u[3]][v[0]]],
        sub[mul[u[1]][v[2]]][mul[u[2]][v[1]]],
        sub[mul[u[1]][v[3]]][mul[u[3]][v[1]]],
        sub[mul[u[2]][v[3]]][mul[u[3]][v[2]]],
    )
    for x in m:
        if x:
            if x == 1:
                return m
            row = mul[field.inv[x]]
            return tuple(row[y] for y in m)
    raise ValueError("equal points span no line")


def line_points(field: Field, X: Sequence[Point]) -> Dict[LineKey, set]:
    """For each line through two points of X, the points of X on it."""
    out: Dict[LineKey, set] = {}
    for i, u in enumerate(X):
        for v in X[i + 1:]:
            s = out.setdefault(line_key(field, u, v), set())
            s.add(u)
            s.add(v)
    return out


def collinear_triples(field: Field, X1, X2, X3) -> Dict[LineKey, int]:
    """Ordered, pairwise distinct, collinear triples of X1 x X2 x X3, per line."""
    lines: Dict[LineKey, Tuple[set, set, set]] = {}
    for u in X1:
        for v in X2:
            if u != v:
                s1, s2, _ = lines.setdefault(line_key(field, u, v), (set(), set(), set()))
                s1.add(u)
                s2.add(v)
    for u in X1:
        for w in X3:
            if u != w:
                hit = lines.get(line_key(field, u, w))
                if hit:
                    hit[2].add(w)
    out = {}
    for key, (s1, s2, s3) in lines.items():
        d = (
            len(s1) * len(s2) * len(s3)
            - len(s1 & s2) * len(s3)
            - len(s1 & s3) * len(s2)
            - len(s2 & s3) * len(s1)
            + 2 * len(s1 & s2 & s3)
        )
        if d:
            out[key] = d
    return out


def parse_line_text(field: Field, text: str) -> LineKey:
    """The Pluecker key of a line the program prints as `row|row`."""
    u, v = (tuple(field.parse(c) for c in row.split(":")) for row in text.split("|"))
    return line_key(field, u, v)


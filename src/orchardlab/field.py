"""Exact arithmetic in finite fields F_p and small extensions F_{p^n}.

An element is one int code in [0, q): its coefficients over F_p, reduced
modulo a monic irreducible polynomial (absent for prime fields), read as
base-p digits with coeffs[0] the most significant.  Code order is thus
the lexicographic order of the coefficient tuples, the order of
`elements_sorted()`.  Everything is kept at desk scale: n <= 4 and
p^n <= 10**6, which lets irreducibility and generator searches be
settled by direct enumeration.

Each field has exactly one `FieldCtx`: the constructor interns contexts
by their normalized (p, n, modulus), so elements of the same field share
one context and fields compare by identity.  Prime fields add, subtract,
multiply and invert codes mod p.  F_{p^n} with n > 1 does the same four
operations on codes through one set of Zech-logarithm arrays
(`FieldCtx.zech`, a `ZechTables`: the table method of galois and of
Givaro's log fields), built once per field on its first sum, product or
inverse.  `ZechTables` is the one owner of the log-code format: the
linear algebra of `projgeom`, `groups` and `constructions` calls its
operations, and the hot loops (the triple kernels and line keys of
`incidence`, `measures.convolve` and the `FieldElem` operators) unpack
its arrays and inline the lookups.  Every field, prime or not, takes
square roots from the parity of the log code (`FieldCtx.sqrt`).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import OrchardError

DESK_ORDER_CAP = 10**6

# the one context of each field, by normalized (p, n, modulus)
_INTERNED: Dict[tuple, "FieldCtx"] = {}


class FieldError(OrchardError):
    pass


class ZeroInverse(FieldError):
    """Inversion of the zero element."""


class NonResidue(FieldError):
    """Square root requested for a non-square."""


class CompositeModulus(FieldError):
    """A modulus failed its irreducibility re-check."""


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a, m, p):
    """Remainder of a by monic m, coefficients low-degree first."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    while len(a) < dm:
        a.append(0)
    return [x % p for x in a]


def _poly_mulmod(a, b, m, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, m, p)


def _poly_powmod(a, e: int, m, p):
    result = [1] + [0] * (len(m) - 2)
    while e:
        if e & 1:
            result = _poly_mulmod(result, a, m, p)
        a = _poly_mulmod(a, a, m, p)
        e >>= 1
    return result


def _digits(code: int, p: int, count: int) -> list:
    """The base-p digits of code, least significant first."""
    out = []
    for _ in range(count):
        out.append(code % p)
        code //= p
    return out


def _prime_factors(m: int) -> set:
    factors = set()
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 1
    if m > 1:
        factors.add(m)
    return factors


def _poly_eval(c, x, p):
    acc = 0
    for coef in reversed(c):
        acc = (acc * x + coef) % p
    return acc


def _monic_polys(degree: int, p: int) -> Iterator[list]:
    """All monic polynomials of exact degree, ordered lexicographically
    on coefficients read from the leading term down."""
    for code in range(p**degree):
        yield _digits(code, p, degree) + [1]


def _is_irreducible(m, p) -> bool:
    """Trial division by all monic factors of degree <= deg/2."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for x in range(p):
        if _poly_eval(m, x, p) == 0:
            return False
    if deg <= 3:
        return True
    for d in range(2, deg // 2 + 1):
        for f in _monic_polys(d, p):
            if not _poly_trim(_poly_mod(m, f, p)):
                return False
    return True


@lru_cache(maxsize=None)
def _least_irreducible(p: int, degree: int) -> Tuple[int, ...]:
    for m in _monic_polys(degree, p):
        if _is_irreducible(m, p):
            return tuple(m)
    raise CompositeModulus(f"no irreducible of degree {degree} over F_{p}")


class ZechTables(NamedTuple):
    """The Zech-log tables of one field (`FieldCtx.zech`); every field,
    prime or not, has the same six.

    An element x has log code l(x) = log_g x in [0, q - 1) for x != 0,
    and l(0) = Z = 2(q - 1), far enough out that a sum of two codes tells
    whether either was 0.  For a generator g of F_q^*:

    - log[c] is the log code of the element with int code c;
    - exp[l] is the int code of the element with log code l, 0 <= l <= Z;
    - red[i], 0 <= i <= 2Z: l(x y) = red[l(x) + l(y)];
    - zech[d + Z], -Z <= d <= Z: for all x, y (either may be 0),
      l(x + y) = red[l(x) + zech[l(y) - l(x) + Z]];
    - m1 = l(-1), so l(-x) = red[l(x) + m1] (m1 = 0 in characteristic 2).

    The arrays have at most 4(q - 1) + 1 entries each.  The methods take
    and return log codes.
    """

    log: List[int]
    exp: List[int]
    red: List[int]
    zech: List[int]
    Z: int
    m1: int

    def total(self, terms: Iterable[int]) -> int:
        """The sum of terms (Z for none)."""
        red, zech, Z = self.red, self.zech, self.Z
        acc = Z
        for t in terms:
            acc = red[acc + zech[t - acc + Z]]
        return acc

    def minus(self, x: int, y: int) -> int:
        """x - y."""
        red = self.red
        return red[x + self.zech[red[y + self.m1] - x + self.Z]]

    def scaled(self, v: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """v times the inverse of its first nonzero entry, so that entry
        becomes 1 (log code 0); None for the zero vector."""
        Z, red = self.Z, self.red
        for lead in v:
            if lead != Z:
                k = (Z >> 1) - lead             # Z / 2 is q - 1
                return tuple([red[x + k] for x in v])
        return None

    def form(self, entries, u: Sequence[int], v: Sequence[int]) -> int:
        """The sum of b u_i v_j over entries (i, j, b), b a log code."""
        red, zech, Z = self.red, self.zech, self.Z
        acc = Z
        for i, j, b in entries:
            t = red[red[b + u[i]] + v[j]]
            acc = red[acc + zech[t - acc + Z]]
        return acc


class FieldCtx:
    """A finite field F_{p^n}, the shared context of its elements.

    For n > 1 the modulus is a monic irreducible polynomial over F_p,
    given as a low-degree-first coefficient tuple of length n + 1.

    Contexts are interned: every call with the same p, n and modulus
    (after reduction mod p, and with the least irreducible filling in a
    missing modulus) returns the same object, so `==` is identity.  A
    construction that raises is not remembered.
    """

    def __new__(cls, p: int, n: int = 1, modulus=None):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if n < 1 or n > 4:
            raise FieldError("extension degree must be in 1..4")
        if p**n > DESK_ORDER_CAP:
            raise FieldError(f"field order {p}^{n} exceeds desk cap")
        if n == 1:
            if modulus is not None:
                raise FieldError("prime fields carry no modulus")
        else:
            if modulus is None:
                modulus = _least_irreducible(p, n)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree n")
        key = (p, n, modulus)
        ctx = _INTERNED.get(key)
        if ctx is None:
            if n > 1 and not _is_irreducible(list(modulus), p):
                raise CompositeModulus(f"{modulus} is reducible over F_{p}")
            ctx = super().__new__(cls)
            ctx.p = p
            ctx.n = n
            ctx.modulus = modulus
            ctx.order = p**n
            ctx._unit = p ** (n - 1)      # the code of 1, the place of coeffs[0]
            _INTERNED[key] = ctx
        return ctx

    def __reduce__(self):
        # copies and unpickled contexts resolve to the interned instance
        return FieldCtx, (self.p, self.n, self.modulus)

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        if self.n == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.n})"

    # -- element construction ------------------------------------------

    def elem(self, value) -> "FieldElem":
        """Build an element from an int, a coefficient list, or an elem."""
        if isinstance(value, FieldElem):
            if value.ctx is not self:
                raise FieldError("element from a different field")
            return value
        p = self.p
        if isinstance(value, int):
            return FieldElem(self, value % p * self._unit)
        coeffs = list(value)
        if len(coeffs) > self.n:
            raise FieldError("too many coefficients")
        code = 0
        for c in coeffs:
            code = code * p + c % p
        return FieldElem(self, code * p ** (self.n - len(coeffs)))

    def zero(self) -> "FieldElem":
        return self.elem(0)

    def one(self) -> "FieldElem":
        return self.elem(1)

    def elements(self) -> Iterator["FieldElem"]:
        """All field elements, coeffs[0] varying fastest (F_9: (0,0),
        (1,0), (2,0), (0,1), ...): the coefficient tuples read as base-p
        numbers, least significant digit first.  This is not code order
        (lexicographic order on the tuples); that is elements_sorted()."""
        p, n = self.p, self.n
        for i in range(self.order):
            code = 0
            for _ in range(n):
                i, d = divmod(i, p)
                code = code * p + d
            yield FieldElem(self, code)

    def elements_sorted(self) -> List["FieldElem"]:
        return [FieldElem(self, code) for code in range(self.order)]

    # -- Zech-log arrays --------------------------------------------------

    def _primitive_element(self) -> list:
        """The first generator of F_q^* in elements() order, by the
        prime-factor test on q - 1."""
        p, q, m = self.p, self.order, list(self.modulus)
        one = [1] + [0] * (self.n - 1)
        exponents = [(q - 1) // f for f in _prime_factors(q - 1)]
        # codes below p are the constants, whose order divides p - 1 < q - 1
        candidates = (_digits(code, p, self.n) for code in range(p, q))
        return next(
            g for g in candidates
            if all(_poly_powmod(g, e, m, p) != one for e in exponents)
        )

    @cached_property
    def zech(self) -> "ZechTables":
        """The field's Zech-log tables (see `ZechTables`), built on first
        use with g the least primitive root mod p for n = 1 and
        `_primitive_element()` for n > 1."""
        p, n, q = self.p, self.n, self.order
        if n == 1:
            g = least_primitive_root(p)
            powers = [1]
            for _ in range(q - 2):
                powers.append(powers[-1] * g % p)
        else:
            m = list(self.modulus)
            g = self._primitive_element()
            # multiplying by g is F_p-linear: row k gives coefficient k
            # of the product from the coefficients of the factor.  Rows,
            # columns and place values past n are 0, so every n <= 4
            # takes the same unrolled 4-wide step
            cols = [_poly_mulmod(g, [0] * j + [1], m, p) for j in range(n)]
            (
                (r00, r01, r02, r03), (r10, r11, r12, r13),
                (r20, r21, r22, r23), (r30, r31, r32, r33),
            ) = [[cols[j][k] if j < n and k < n else 0 for j in range(4)]
                 for k in range(4)]
            u0, u1, u2, u3 = [p ** (n - 1 - k) if k < n else 0 for k in range(4)]
            c0, c1, c2, c3 = 1, 0, 0, 0
            powers = []
            append = powers.append
            for _ in range(q - 1):
                append(c0 * u0 + c1 * u1 + c2 * u2 + c3 * u3)
                c0, c1, c2, c3 = (
                    (r00 * c0 + r01 * c1 + r02 * c2 + r03 * c3) % p,
                    (r10 * c0 + r11 * c1 + r12 * c2 + r13 * c3) % p,
                    (r20 * c0 + r21 * c1 + r22 * c2 + r23 * c3) % p,
                    (r30 * c0 + r31 * c1 + r32 * c2 + r33 * c3) % p,
                )
        Z = 2 * (q - 1)
        idx = list(range(q - 1))              # log and red share the ints
        log = [Z] * q
        for i, c in zip(idx, powers):
            log[c] = i
        exp = powers * 2 + [0]
        red = idx * 2 + [Z] * (Z + 1)
        # l(y) - l(x) lies in [-(q-2), q-2] when x, y != 0, in
        # [-Z, -q] when x = 0 and in [q, Z] when y = 0 (x = y = 0 hits
        # d = 0, where red absorbs any offset); d = +-(q-1) never occurs
        zech = [0] * (2 * Z + 1)
        for d in range(-Z, -q + 1):
            zech[d + Z] = d                   # x = 0: the sum is y
        top = self._unit
        for d in range(-(q - 2), q - 1):
            c = exp[d % (q - 1)]              # 1 + g^d: add 1 to coeffs[0]
            zech[d + Z] = log[c + top if c < q - top else c - (q - top)]
        # -1 is the element of order 2 of the cyclic F_q^*, and -1 = 1 in
        # characteristic 2
        return ZechTables(log, exp, red, zech, Z, (q - 1) // 2 if p > 2 else 0)

    # -- square roots ---------------------------------------------------

    def sqrt(self, a: "FieldElem") -> "FieldElem":
        """Canonical square root: the least code of {r, -r}, where r =
        g^(l/2) for a = g^l; raises NonResidue when no root exists.  A
        nonzero a is a square exactly when l is even, or always in
        characteristic 2, where q - 1 is odd and l + (q - 1) is even."""
        if a.ctx is not self:
            raise FieldError("element from a different field")
        if a.code == 0:
            return a
        log, exp, _, _, _, _ = self.zech
        l = log[a.code]
        if l % 2:
            if self.p > 2:
                raise NonResidue(f"{a} is not a square in {self}")
            l += self.order - 1
        r = FieldElem(self, exp[l // 2])
        return min(r, -r, key=lambda e: e.code)

    def try_sqrt(self, a: "FieldElem") -> Optional["FieldElem"]:
        try:
            return self.sqrt(a)
        except NonResidue:
            return None

    # -- text form -------------------------------------------------------

    def code_text(self, code: int) -> str:
        """Text form of the element with this code: the code itself over
        a prime field, else its coefficients low degree first."""
        if self.n == 1:
            return str(code)
        return ",".join(map(str, reversed(_digits(code, self.p, self.n))))

    def descriptor(self) -> str:
        if self.n == 1:
            return str(self.p)
        return f"{self.p}^{self.n}/" + ",".join(str(c) for c in self.modulus)

    @staticmethod
    def from_descriptor(text: str) -> "FieldCtx":
        """The field of a descriptor `p`, `p^n` or `p^n/m0,...,mn`; raises
        FieldError when the text is not one of these."""
        text = text.strip()
        head, slash, tail = text.partition("/")
        p_s, hat, n_s = head.partition("^")
        malformed = FieldError(f"malformed field descriptor {text!r}")
        if slash and not hat:
            raise malformed
        try:
            p = int(p_s)
            n = int(n_s) if hat else 1
            modulus = tuple(int(c) for c in tail.split(",")) if tail else None
        except ValueError:
            raise malformed from None
        return FieldCtx(p, n, modulus)


class FieldElem:
    """Immutable field element: its int code in [0, q), the coefficients
    over F_p read as base-p digits with coeffs[0] the most significant."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: FieldCtx, code: int):
        self.ctx = ctx
        self.code = code

    @property
    def coeffs(self) -> Tuple[int, ...]:
        """The reduced coefficients over F_p, low degree first."""
        ctx = self.ctx
        return tuple(reversed(_digits(self.code, ctx.p, ctx.n)))

    def _lift(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.ctx is not self.ctx:
                raise FieldError("mixed field contexts")
            return other
        if isinstance(other, int):
            return self.ctx.elem(other)
        return NotImplemented

    # n > 1 works on log codes: see ZechTables
    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        ctx = self.ctx
        if ctx.n == 1:
            return FieldElem(ctx, (self.code + o.code) % ctx.p)
        log, exp, red, zech, Z, _ = ctx.zech
        x = log[self.code]
        return FieldElem(ctx, exp[red[x + zech[log[o.code] - x + Z]]])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        ctx = self.ctx
        if ctx.n == 1:
            return FieldElem(ctx, (self.code - o.code) % ctx.p)
        log, exp, red, zech, Z, m1 = ctx.zech
        x = log[self.code]
        y = red[log[o.code] + m1]
        return FieldElem(ctx, exp[red[x + zech[y - x + Z]]])

    def __rsub__(self, other):
        return self.ctx.elem(other) - self

    def __neg__(self):
        ctx = self.ctx
        if ctx.n == 1:
            return FieldElem(ctx, -self.code % ctx.p)
        log, exp, red, _, _, m1 = ctx.zech
        return FieldElem(ctx, exp[red[log[self.code] + m1]])

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        ctx = self.ctx
        if ctx.n == 1:
            return FieldElem(ctx, self.code * o.code % ctx.p)
        log, exp, red, _, _, _ = ctx.zech
        return FieldElem(ctx, exp[red[log[self.code] + log[o.code]]])

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return self * inv(o)

    def __rtruediv__(self, other):
        return self.ctx.elem(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return inv(self) ** (-e)
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        # an int is no element: equal objects must hash alike, and an
        # int's hash is not its code's
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.ctx is other.ctx and self.code == other.code

    def __hash__(self):
        return hash(self.code)

    def is_zero(self) -> bool:
        return not self.code

    def is_one(self) -> bool:
        return self.code == self.ctx._unit

    def __repr__(self):
        return self.text()

    def text(self) -> str:
        return self.ctx.code_text(self.code)

    @staticmethod
    def parse(ctx: FieldCtx, text: str) -> "FieldElem":
        return ctx.elem([int(c) for c in text.split(",")])


def inv(a: FieldElem) -> FieldElem:
    """Multiplicative inverse; raises ZeroInverse on 0."""
    if a.is_zero():
        raise ZeroInverse("inverse of zero")
    ctx = a.ctx
    if ctx.n == 1:
        return FieldElem(ctx, pow(a.code, ctx.p - 2, ctx.p))
    log, exp, _, _, _, _ = ctx.zech
    return FieldElem(ctx, exp[ctx.order - 1 - log[a.code]])


def adjoin_sqrt(ctx: FieldCtx, d: FieldElem):
    """Extend ctx so that d has a square root.

    Returns (new_ctx, embed, root) with embed a ring embedding of ctx
    into new_ctx and root * root == embed(d).  When d is already a
    square the context is returned unchanged with the canonical root.
    """
    if d.ctx is not ctx:
        raise FieldError("element from a different field")
    existing = ctx.try_sqrt(d)
    if existing is not None:
        return ctx, (lambda e: e), existing
    if ctx.n not in (1, 2):
        raise FieldError("extensions supported from degree 1 or 2 only")
    big = FieldCtx(ctx.p, 2 * ctx.n)
    if ctx.n == 1:
        def embed(e, _big=big):
            return _big.elem(e.code)
    else:
        # send the old generator to a root of the old modulus upstairs
        gen_image = _root_of_quadratic(big, ctx.modulus)
        def embed(e, _big=big, _g=gen_image):
            return _big.elem(e.coeffs[0]) + _big.elem(e.coeffs[1]) * _g
    root = big.try_sqrt(embed(d))
    if root is None:
        # cannot happen: every base-field element is a square upstairs
        raise CompositeModulus("extension failed to contain the required root")
    return big, embed, root


def _root_of_quadratic(big: FieldCtx, modulus) -> FieldElem:
    """Canonical root in `big` of a monic quadratic over the prime field."""
    c0, c1, _ = modulus
    b = big.elem(c1)
    c = big.elem(c0)
    disc = b * b - 4 * c
    s = big.sqrt(disc)
    half = inv(big.elem(2))
    r1 = (-b + s) * half
    r2 = (-b - s) * half
    return min(r1, r2, key=lambda e: e.code)


def least_primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group of F_p."""
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise FieldError(f"no primitive root found mod {p}")

"""Parametric quaternion/octonion arithmetic via Cayley doubling.

Elements are 8-vectors over the ground field w.r.t. the ordered basis
(1, i, j, k, l, il, jl, kl) with i^2 = alpha, j^2 = beta, ij = -ji = k and
l^2 = gamma.  Multiplication is generated from the doubling rule

    (q + r*l)(s + t*l) = q s + gamma * conj(t) r + (t q + r conj(s)) l,

applied to basis indices, so the structure constants are never
hand-entered.  The resulting signed table e_a e_b = v e_c is built once
per algebra, and every product runs it written out as straight-line code.
Elements of an exact field are ExactOctonions, which override each mode rule.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

import numpy as np

from .errors import (InvalidInput, NotConjugate, NotInvertible, ParseError,
                     WitnessFailure)
from .scalars import REAL, ConjClass, Field, within_digits

BASIS_NAMES = ("1", "i", "j", "k", "l", "il", "jl", "kl")


@dataclass(frozen=True)
class AlgebraParams:
    """Structure constants of the algebra: i^2=alpha, j^2=beta, l^2=gamma."""

    field: Field
    alpha: object
    beta: object
    gamma: object

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, self.field.coerce(getattr(self, name)))
        if 0 in self.gammas:
            raise InvalidInput("structure constants must be nonzero")

    def __reduce__(self):  # the cached table's exec-built mul does not pickle
        return AlgebraParams, (self.field, *self.gammas)

    @classmethod
    def octonions(cls, field: Field = REAL) -> "AlgebraParams":
        """The standard instance (-1, -1, -1): H and O."""
        return cls(field, -1, -1, -1)

    @property
    def gammas(self):
        return (self.alpha, self.beta, self.gamma)

    @functools.cached_property
    def table(self) -> "ProductTable":
        """The multiplication table; equal params share one instance."""
        return _product_table(self)

    def require_real_definite(self, what: str) -> None:
        """For what takes sqrt(n(x)) as the size of x: real mode
        (ModeMismatch) and a positive definite norm form, all structure
        constants negative (InvalidInput)."""
        self.field.require_real(f"{what} is a real-mode operation")
        if any(d <= 0 for d in self.table.norm_diag):
            raise InvalidInput(f"{what} needs a positive definite norm form, "
                               f"got diagonal {self.table.norm_diag}")


@dataclass(frozen=True)
class ProductTable:
    """The 64 basis products e_a e_b = v e_c of one algebra.

    ``terms`` holds (a, b, c, v) with v in the ground field.  In exact mode
    ``int_terms`` holds (a, b, c, v * den) with ``den`` the common
    denominator of the v, so products run on integers; in real mode it is
    empty and ``den`` is 1.  ``norm_diag`` is the diagonal of the norm form:
    norm(sum x_a e_a) = sum norm_diag[a] * x_a^2, and ``int_norm_diag`` is
    the same times ``den`` (exact mode only).  ``translates`` is the
    (8, 64) float matrix of the terms, translates[b, 8a + c] = v, from
    which the left and right multiplication matrices are read.
    """

    terms: tuple
    int_terms: tuple
    den: int
    norm_diag: tuple
    int_norm_diag: tuple
    translates: np.ndarray = dc_field(compare=False, repr=False)

    def left_matrix(self, x: tuple) -> np.ndarray:
        """The 8x8 float matrix L with x*y = L @ y for every column y."""
        xs = np.array([float(c) for c in x])
        return np.einsum("a,bac->cb", xs, self.translates.reshape(8, 8, 8))

    def right_matrix(self, x: tuple) -> np.ndarray:
        """The 8x8 float matrix R with y*x = R @ y for every column y."""
        xs = np.array([float(c) for c in x])
        return (xs @ self.translates).reshape(8, 8).T

    @functools.cached_property
    def mul(self):
        """x, y -> x y (exact mode: numerators over den den_x den_y): per c,
        the sum of v x[a] y[b] over the terms in table order from 0 or 0.0."""
        sums = ["0" if self.int_terms else "0.0"] * 8
        for a, b, c, v in self.int_terms or self.terms:
            w = "" if abs(v) == 1 else f"{abs(v)!r} * "
            sums[c] += f" {'-' if v < 0 else '+'} {w}x{a} * y{b}"
        scope = {}
        exec("def mul(x, y):\n x0, x1, x2, x3, x4, x5, x6, x7 = x\n"
             " y0, y1, y2, y3, y4, y5, y6, y7 = y\n return ("
             + ", ".join(sums) + ")", scope)
        return scope["mul"]


def _basis_products(gammas, one) -> dict:
    """{(a, b): (c, v)} with e_a e_b = v e_c, by the doubling rule on
    indices.  Each entry e_x e_y = v e_c of the half algebra gives four,
    from (q + r l)(s + t l) = q s + gamma conj(t) r + (t q + r conj(s)) l
    with one unit of each pair and conj(e_x) = e_x for x = 0, else -e_x."""
    prod, h = {(0, 0): (0, one)}, 1
    for g in gammas:
        nxt = {}
        for (x, y), (c, v) in prod.items():
            nxt[x, y] = (c, v)                                  # q s
            nxt[y, x + h] = (c + h, v)                          # (t q) l
            nxt[x + h, y] = (c + h, v if y == 0 else -v)        # (r conj s) l
            nxt[y + h, x + h] = (c, g * v if x == 0 else -g * v)  # g conj(t) r
        prod, h = nxt, 2 * h
    return prod


@functools.lru_cache(maxsize=32)
def _product_table(params: AlgebraParams) -> ProductTable:
    """The table of ``params``, each entry from the doubling rule."""
    prod = _basis_products(params.gammas, params.field.one())
    terms = [(a, b, *prod[a, b]) for a in range(8) for b in range(8)]
    # e_a conj(e_a) = +-e_a e_a, a scalar: the sign is + for a = 0 only
    norm_diag = tuple(v if a == 0 else -v
                      for a, b, _, v in terms if a == b)
    translates = np.zeros((8, 64))
    for a, b, c, v in terms:
        translates[b, 8 * a + c] = float(v)
    if not params.field.exact:
        return ProductTable(tuple(terms), (), 1, norm_diag, (), translates)
    den = math.lcm(*(v.denominator for *_, v in terms))
    int_terms = tuple((a, b, c, int(v * den)) for a, b, c, v in terms)
    int_norm_diag = tuple(int(v * den) for v in norm_diag)
    return ProductTable(tuple(terms), int_terms, den, norm_diag,
                        int_norm_diag, translates)


_set = object.__setattr__


class Octonion:
    """Immutable element of the algebra ``params``; see ExactOctonion."""

    __slots__ = ("coords", "params", "den", "num")

    def __init__(self, coords: tuple, params: AlgebraParams):
        _set(self, "params", params)
        if params.field.exact:  # num / den alone, in the subclass
            _set(self, "__class__", ExactOctonion)
            _set(self, "den", d := math.lcm(*[c.denominator for c in coords]))
            _set(self, "num", tuple([c.numerator * (d // c.denominator)
                                     for c in coords]))
        else:
            _set(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError(f"Octonion is immutable: cannot set {name!r}")

    def __reduce__(self):
        return Octonion, (self.coords, self.params)

    def __eq__(self, other):
        return (isinstance(other, Octonion) and self.params == other.params
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.coords, self.params))

    # -- constructors -------------------------------------------------------

    @classmethod
    def make(cls, params: AlgebraParams, coords) -> "Octonion":
        cs = list(coords)
        if len(cs) > 8 or not cs:
            raise InvalidInput(f"need 1..8 coordinates, got {len(cs)}")
        cs += [0] * (8 - len(cs))
        f = params.field  # exact: ints and Fractions as they are, to num/den
        if f.exact and all(type(c) is int for c in cs):  # over den 1
            return _exact(params, 1, cs, 1)
        return cls(tuple([c if f.exact and type(c) in (int, Fraction)
                          else f.coerce(c) for c in cs]), params)

    @classmethod
    def zero(cls, params: AlgebraParams) -> "Octonion":
        return cls.make(params, [0])

    @classmethod
    def one(cls, params: AlgebraParams) -> "Octonion":
        return cls.make(params, [1])

    @classmethod
    def scalar(cls, params: AlgebraParams, s) -> "Octonion":
        return cls.make(params, [s])

    @classmethod
    def basis(cls, params: AlgebraParams, a: int) -> "Octonion":
        coords = [0] * 8
        coords[a] = 1
        return cls.make(params, coords)

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "Octonion"):
        if self.params is not other.params and self.params != other.params:
            raise InvalidInput("operands live in different algebras")

    def __add__(self, other):
        if isinstance(other, Octonion):
            self._check(other)
            return Octonion(tuple(a + b for a, b in
                                  zip(self.coords, other.coords)), self.params)
        return self + Octonion.scalar(self.params, other)

    __radd__ = __add__

    def __neg__(self):
        return Octonion(tuple(-a for a in self.coords), self.params)

    def __sub__(self, other):
        if not isinstance(other, Octonion):
            other = Octonion.scalar(self.params, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Octonion):
            self._check(other)
            return Octonion(self.params.table.mul(self.coords, other.coords),
                            self.params)
        s = self.params.field.coerce(other)
        return Octonion(tuple(a * s for a in self.coords), self.params)

    def __rmul__(self, other):
        # scalar * octonion (scalars are central)
        return self * other

    def __truediv__(self, s):
        s = self.params.field.coerce(s)
        return Octonion(tuple(a / s for a in self.coords), self.params)

    # -- involution, trace, norm -------------------------------------------

    def conj(self) -> "Octonion":
        c = self.coords
        return Octonion((c[0],) + tuple(-v for v in c[1:]), self.params)

    def trace(self):
        return 2 * self.re()

    def re(self):
        return self.coords[0]

    def im(self) -> "Octonion":
        return Octonion((0.0,) + self.coords[1:], self.params)

    def norm(self):
        diag = self.params.table.norm_diag
        return sum(d * c * c for d, c in zip(diag, self.coords))

    def abs(self) -> float:
        self.params.field.require_real("abs is a real-mode operation")
        if (n := self.norm()) < 0:  # on a split algebra
            raise InvalidInput(f"abs of an element of negative norm {n!r}")
        return math.sqrt(n)

    def inverse(self) -> "Octonion":
        n = self.norm()
        if n == 0 or not math.isfinite(1 / n):  # exact: ExactOctonion.inverse
            raise NotInvertible("zero or isotropic element")
        return self.conj() / n

    def class_root(self, G, inv=None) -> "Octonion":
        """-x^-1 G, x = self: the root of x lam + G in its class; inv() is
        x^-1 (default inverse), as a caller may cache it."""
        return -((inv or self.inverse)() * G)

    def multiple_root(self, G, c, left: bool, inv=None) -> "Octonion":
        """-((x^-1 c^-1)(c G)) if left, else -((c^-1 x^-1)(G c)): the root
        of c f or f c where f = x lam + G, x = self; inv as in class_root."""
        xinv, cinv = (inv or self.inverse)(), c.inverse()
        return -((xinv * cinv) * (c * G) if left else (cinv * xinv) * (G * c))

    def own_class(self, cls: ConjClass) -> ConjClass:
        """cls, which x = self matches, at x's own trace and norm."""
        return replace(cls, T=self.trace(), N=self.norm())

    def commutator(self, other: "Octonion") -> "Octonion":
        return self * other - other * self

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        """Exactly zero, in both modes; negligible() is the real-mode test."""
        return not any(self.coords)

    def is_central(self) -> bool:
        return not any(self.coords[1:])

    def size2(self) -> float:
        """sum |w_a| x_a^2 over the norm diagonal w: the norm on a definite
        algebra, and a squared size that no sign cancels on the others."""
        diag = self.params.table.norm_diag
        return float(sum(abs(d) * c * c for d, c in zip(diag, self.coords)))

    def negligible(self, tol: float, scale=1.0) -> bool:
        """sqrt(size2) <= tol * scale, by squares (exact mode: x == 0);
        InvalidInput if the threshold's square is beyond float range, where
        any size would pass."""
        try:
            if (limit2 := (tol * scale) ** 2) < math.inf:
                return self.size2() <= limit2
        except OverflowError:
            pass
        raise InvalidInput(f"threshold {float(tol * scale):.3e} is beyond "
                           "float range when squared")

    def misfit(self, tol: float, scale=1.0) -> str:
        """sqrt(size2) and the threshold it exceeds, for a failed
        negligible()."""
        return (f"residual {math.sqrt(self.size2()):.3e} > "
                f"threshold {float(tol * scale):.3e}")

    def isclose(self, other: "Octonion", tol: float | None = None) -> bool:
        """self = other, the one closeness rule: self - other negligible at
        tol (default fixed_tol) against 1 + |other|, sizes by size2.  It
        judges a fixed point, a pseudo-period and an orbit's revisit;
        exact mode compares by equality."""
        self._check(other)
        tol = self.params.field.fixed_tol if tol is None else tol
        scale = tol and 1 + math.sqrt(other.size2())  # no size at tol 0
        return (self - other).negligible(tol, scale)

    def anisotropic(self, tol, size) -> bool:
        """x is neither negligible against size nor isotropic: |n(x)| >
        tol * size2(x), so x^-1 = conj(x) / n(x) has a size below
        1 / (tol |x|).  Size 0 tests isotropy alone.  Exact mode: n(x) != 0,
        so x != 0."""
        return not self.negligible(tol, size) and \
            abs(self.norm()) > tol * self.size2()

    def normalized(self) -> "Octonion":
        """x / sqrt(size2(x)), of unit size; exact mode keeps x."""
        return self / math.sqrt(self.size2())

    @staticmethod
    def combinations(xs, ps, qs, D=1) -> tuple:
        """sum_t ps[t] xs[t] and sum_t qs[t] xs[t] (D = 1 on floats)."""
        cols = list(zip(*(x.coords for x in xs)))
        return tuple(Octonion(tuple(sum(map(operator.mul, ws, c)) for c in
                                    cols), xs[0].params) for ws in (ps, qs))

    @staticmethod
    def horner(xs, lam) -> "Octonion":
        """sum_t xs[t] lam^t by Horner's rule; lam may be a scalar."""
        acc = xs[-1]
        for a in reversed(xs[:-1]):
            acc = acc * lam + a
        return acc

    @staticmethod
    def norm_products(xs) -> list:
        """The coefficients of conj(f) f, f = sum xs[t] x^t."""
        out = [0] * (2 * len(xs) - 1)
        for s, x in enumerate(xs):
            out[2 * s] += x.norm()
            for t in range(s + 1, len(xs)):
                out[s + t] += polar_form(x, xs[t])
        return out

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        return format_octonion(self)

    __repr__ = __str__

    def to_json(self):
        f = self.params.field
        return [f.to_json(c) for c in self.coords]

    @classmethod
    def from_json(cls, data, params: "AlgebraParams") -> "Octonion":
        """The element of a JSON row of 1 to 8 numbers or literals such
        as "1/3" (the form exact mode writes); a boolean is no number."""
        if not isinstance(data, list) or not 0 < len(data) <= 8 \
                or any(isinstance(v, bool) for v in data):
            raise ParseError(f"bad element JSON: need a row of 1..8 "
                             f"numbers, got {data!r:.60}")
        try:  # make coerces each coordinate
            return cls.make(params, data)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad element JSON: {exc}") from exc


class ExactOctonion(Octonion):
    """Exact element: integers ``num`` over ``den`` > 0, gcd(den, *num) = 1,
    one gcd per result; ``coords`` (Fractions) are built when read."""

    __slots__ = ()

    def __getattr__(self, name):  # reached only while a slot is unset
        if name != "coords":
            raise AttributeError(name)
        _set(self, name, tuple(Fraction(n, self.den) for n in self.num))
        return self.coords

    def __eq__(self, other):  # num / den is canonical: no coords built
        return (isinstance(other, ExactOctonion) and self.den == other.den
                and self.num == other.num and self.params == other.params)

    def __hash__(self):
        return hash((self.den, self.num, self.params))

    def __add__(self, other, sign=1):
        if not isinstance(other, Octonion):
            other = Octonion.scalar(self.params, other)
        self._check(other)
        d, e = self.den, other.den
        return _exact(self.params, d * e, [a * e + sign * b * d for a, b in
                                           zip(self.num, other.num)])

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return _exact(self.params, self.den, [-a for a in self.num], 1)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            self._check(other)
            t = self.params.table
            return _exact(self.params, t.den * self.den * other.den,
                          t.mul(self.num, other.num))
        s = other if type(other) is int else self.params.field.coerce(other)
        return _exact(self.params, self.den * s.denominator,
                      [a * s.numerator for a in self.num])

    def __truediv__(self, s):
        s = s if type(s) is int else self.params.field.coerce(s)
        if not s:
            raise ZeroDivisionError("division of an element by zero")
        return _exact(self.params, self.den * s.numerator,
                      [a * s.denominator for a in self.num])

    def conj(self) -> "ExactOctonion":
        n = self.num
        return _exact(self.params, self.den, (n[0], *(-v for v in n[1:])), 1)

    def trace(self):
        return Fraction(2 * self.num[0], self.den)

    def re(self):
        return Fraction(self.num[0], self.den)

    def im(self) -> "ExactOctonion":
        return _exact(self.params, self.den, (0,) + self.num[1:])

    def norm(self):
        return Fraction(self._norm_num(), self.params.table.den * self.den**2)

    def _norm_num(self) -> int:  # n(x) * den_t * den^2, an integer
        w, n = self.params.table.int_norm_diag, self.num
        return sum(map(operator.mul, map(operator.mul, w, n), n))

    def in_class(self, T, N) -> bool:
        """trace = T and norm = N, by integer cross-multiplication."""
        d, e = self.den, self.params.table.den
        return 2 * self.num[0] * T.denominator == T.numerator * d and \
            self._norm_num() * N.denominator == N.numerator * e * d * d

    def _inverse_num(self):
        """(u, n) with x^-1 = u den_t / n, n = _norm_num, u = conj(num) den."""
        if (n := self._norm_num()) == 0:
            raise NotInvertible("zero or isotropic element")
        d = self.den
        return [self.num[0] * d, *(-a * d for a in self.num[1:])], n

    def inverse(self) -> "ExactOctonion":
        """conj(x) / n(x) on integers: conj(num) den_t den / _norm_num."""
        (u, n), k = self._inverse_num(), self.params.table.den
        return _exact(self.params, n, [a * k for a in u])

    def class_root(self, G, inv=None) -> "ExactOctonion":
        """-x^-1 G = mul(u, num_G) / (-n den_G), (u, n) of _inverse_num."""
        u, n = self._inverse_num()
        return _exact(self.params, -n * G.den, self.params.table.mul(u, G.num))

    def multiple_root(self, G, c, left, inv=None) -> "ExactOctonion":
        """mul(mul(u, v), mul(num_c, num_G)) / (-den_t n m den_c den_G) with
        (u, n), (v, m) of _inverse_num of x = self and of c; right swaps each
        pair.  One gcd."""
        self._check(c)
        (u, n), (v, m) = self._inverse_num(), c._inverse_num()
        t, k, g = self.params.table, c.num, G.num
        num = t.mul(t.mul(u, v), t.mul(k, g)) if left else \
            t.mul(t.mul(v, u), t.mul(g, k))
        return _exact(self.params, -t.den * n * m * c.den * G.den, num)

    def own_class(self, cls: ConjClass) -> ConjClass:  # matched: x's T, N
        return cls

    def negligible(self, tol, scale=1.0) -> bool:  # tolerances are 0
        return self.is_zero()

    def anisotropic(self, tol, size) -> bool:  # on integers, no Fraction
        return self._norm_num() != 0

    def normalized(self) -> "ExactOctonion":
        return self

    @staticmethod
    def combinations(xs, ps, qs, D=1) -> tuple:
        """Both sums in one pass, of rows P_t = p_t D^(t-1), Q_t = q_t D^t."""
        (L, ks), k = _common(xs), len(xs) - 1
        E, G = [0] * 8, [0] * 8
        for t, (P, Q, kx, x) in enumerate(zip(ps, qs, ks, xs)):
            a, b = P * D * kx * D ** (k - t), Q * kx * D ** (k - t)
            E = [u + a * v for u, v in zip(E, x.num)] if a else E
            G = [u + b * v for u, v in zip(G, x.num)] if b else G
        return tuple(_exact(xs[0].params, L * D ** k, acc) for acc in (E, G))

    @staticmethod
    def horner(xs, lam) -> "ExactOctonion":
        """On numerators over L (den_t den_lam)^k after k steps: one gcd."""
        if not isinstance(lam, Octonion):
            lam = Octonion.scalar(xs[0].params, lam)
        lam._check(xs[0])
        t, (L, ks) = lam.params.table, _common(xs)
        acc, scale, k = [v * ks[-1] for v in xs[-1].num], 1, t.den * lam.den
        for x, kx in zip(xs[-2::-1], ks[-2::-1]):
            acc, scale = t.mul(acc, lam.num), scale * k
            acc = [u + v * scale * kx for u, v in zip(acc, x.num)]
        return _exact(lam.params, L * scale, acc)

    @staticmethod
    def norm_products(xs) -> list:
        """On integers over den_t L^2 (L of _common), one Fraction each."""
        t, (L, ks) = xs[0].params.table, _common(xs)
        out = [0] * (2 * len(xs) - 1)
        for s, x in enumerate(xs):
            wx = [w * v * ks[s] for w, v in zip(t.int_norm_diag, x.num)]
            for u, (k, y) in enumerate(zip(ks[s:], xs[s:]), s):
                out[s + u] += (1 + (u > s)) * k * sum(map(operator.mul, wx,
                                                          y.num))
        return [Fraction(c, t.den * L * L) for c in out]

    def size2(self) -> float:
        t = self.params.table
        n = sum(abs(v) * c * c for v, c in zip(t.int_norm_diag, self.num))
        try:
            return n / (t.den * self.den * self.den)
        except OverflowError:  # beyond float range: inf, as a real sum goes
            return math.inf

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_central(self) -> bool:
        return not any(self.num[1:])


def _exact(params: AlgebraParams, den: int, num, g=0) -> ExactOctonion:
    """num / den, reduced by one gcd to den > 0; g = 1 if it already is."""
    g = g or (math.gcd(den, *num) if den > 0 else -math.gcd(den, *num))
    x = object.__new__(ExactOctonion)
    _set(x, "params", params)
    _set(x, "den", den // g)
    _set(x, "num", tuple(num) if g == 1 else tuple([a // g for a in num]))
    return x


def _common(xs):
    """L = lcm of the exact xs' denominators, and each x's L / den."""
    L = math.lcm(*(x.den for x in xs))
    return L, [L // x.den for x in xs]


def polar_form(x: Octonion, y: Octonion):
    """Polar bilinear form of the norm: b(x,y) = norm(x+y)-norm(x)-norm(y)."""
    x._check(y)
    diag = x.params.table.norm_diag
    return sum(2 * d * a * b for d, a, b in zip(diag, x.coords, y.coords))


# ---------------------------------------------------------------------------
# Parsing / formatting of the text form, "c0 + c1 i + ... + c7 kl" for an
# element.  A term is a sign, then a parenthesized element or a number and
# a unit (each optional), then x or x^t; whitespace may stand between any
# two parts, and "*" only between two parts that are both present.

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:\((?P<paren>[^()]*)\)(?:\s*\*(?=\s*x))?|"
    r"(?:(?P<num>\d+/\d+|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"(?:\s*\*(?=\s*[ijkl1x]))?)?\s*"
    r"(?:(?P<unit>il|jl|kl|ij|[ijkl1])(?:\s*\*(?=\s*x))?)?)\s*"
    r"(?P<x>x(?:\^(?P<exp>\d+))?)?\s*")


def _read_terms(text: str, params: AlgebraParams, poly: bool) -> dict:
    """{t: the 8 coordinates of the coefficient of x^t} of the text form,
    each coordinate the field's zero plus its terms in order, so no -0.0
    arises; every term after the first carries a sign.  An element
    (poly=False) has no x and no parentheses."""
    what = "polynomial" if poly else "element"
    text = text.strip()
    if not text:
        raise ParseError(f"empty {what}")
    f, coeffs, pos = params.field, {}, 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not any(m.group("paren", "num", "unit", "x")) or not poly and (
                m["x"] or m["paren"] is not None):
            raise ParseError(f"bad {what} syntax at column {pos}: {text!r}")
        if m["sign"] is None and pos > 0:
            raise ParseError(f"missing +/- at column {pos}: {text!r}")
        if m["paren"] is not None:
            terms = enumerate(parse_octonion(m["paren"], params).coords)
        else:
            unit = {"ij": "k", None: "1"}.get(m["unit"], m["unit"])
            terms = [(BASIS_NAMES.index(unit), f.one() if m["num"] is None
                      else f.parse(m["num"]))]
        within_digits(len(m["exp"] or ""), "exponent")  # for int()
        t = 0 if m["x"] is None else int(m["exp"] or 1)
        acc = coeffs.setdefault(t, [f.zero()] * 8)
        for a, v in terms:
            acc[a] = acc[a] - v if m["sign"] == "-" else acc[a] + v
        pos = m.end()
    return coeffs


def parse_octonion(text: str, params: AlgebraParams) -> Octonion:
    """Parse the element text format: terms such as "2", "-1/2 i" or
    "3.5*jl", zero terms omitted, "ij" an alias for "k"."""
    return Octonion.make(params, _read_terms(text, params, False)[0])


def format_octonion(x: Octonion) -> str:
    out = ""
    for a, c in enumerate(x.coords):
        if c != 0:
            mag, u, s = abs(c), BASIS_NAMES[a], "-" if c < 0 else "+"
            body = str(mag) if a == 0 else u if mag == 1 else f"{mag} {u}"
            out += f" {s} {body}" if out else s.strip("+") + body
    return out or "0"


def conjugating_element(lam: Octonion, mu: Octonion) -> Octonion:
    """A trace-zero invertible delta with delta*lam = mu*delta, of unit size
    in real mode, for mu in the class of lam (ConjClass.matches)."""
    lam._check(mu)
    cls = ConjClass(lam.trace(), lam.norm())
    if not cls.matches(mu):
        raise NotConjugate("trace or norm mismatch: gap "
                           f"{float(cls.gap(mu)):.3e} > threshold "
                           f"{float(lam.params.field.class_tol):.3e}")
    return _conjugator(lam, mu)


def _conjugator(lam: Octonion, mu: Octonion) -> Octonion:
    """conjugating_element for a mu its caller matched to lam's class.  With
    v = im lam, w = im mu, v^2 = w^2 gives (v + w) v = w (v + w): delta =
    v + w.  At mu = conj(lam) it vanishes, and the first anisotropic [e_a,
    v] serves, as it anticommutes with v; e_1 serves a central lam.
    NotConjugate if |delta lam - mu delta| > witness_tol |delta| |lam|."""
    params, f, v = lam.params, lam.params.field, lam.im()
    tol, size = f.witness_tol, f.witness_tol and math.sqrt(v.size2())
    cands = [Octonion.basis(params, 1) if lam.is_central() else v + mu.im()]
    if cands[0].negligible(tol, size):  # mu = conj(lam)
        cands = (Octonion.basis(params, a).commutator(v) for a in range(1, 8))
    delta = next((d for d in cands if d.anisotropic(tol, size)), None)
    if delta is None:
        raise WitnessFailure("no anisotropic conjugator found; "
                             "is the algebra split?")
    delta = delta.normalized()  # so is c = delta^-1 of rmr_witness
    resid = delta * lam - mu * delta
    scale = tol and math.sqrt(lam.size2())  # |delta| |lam|
    if not resid.negligible(tol, scale):
        raise NotConjugate("conjugation residual too large: "
                           + resid.misfit(tol, scale))
    return delta


def random_octonion(params: AlgebraParams, rng, span: int = 4) -> Octonion:
    """Random element: small integers in exact mode, uniforms in real mode."""
    return Octonion.make(params, params.field.draw(rng, span, span))

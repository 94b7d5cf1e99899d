"""Parametric quaternion/octonion arithmetic via Cayley doubling.

Elements are 8-vectors over the ground field w.r.t. the ordered basis
(1, i, j, k, l, il, jl, kl) with i^2 = alpha, j^2 = beta, ij = -ji = k and
l^2 = gamma.  Multiplication is generated from the doubling rule

    (q + r*l)(s + t*l) = q s + gamma * conj(t) r + (t q + r conj(s)) l,

applied to basis indices, so the structure constants are never
hand-entered.  The resulting signed table e_a e_b = v e_c is built once
per algebra, and every product runs it written out as straight-line code.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import (InvalidInput, ModeMismatch, NotConjugate, NotInvertible,
                     ParseError, ResourceLimit, WitnessFailure)
from .scalars import REAL, ConjClass, Field

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
        if self.field.exact:
            raise ModeMismatch(f"{what} is a real-mode operation")
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

    exact: bool
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
        sums = ["0" if self.exact else "0.0"] * 8
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
        return ProductTable(False, tuple(terms), (), 1, norm_diag, (),
                            translates)
    den = math.lcm(*(v.denominator for *_, v in terms))
    int_terms = tuple((a, b, c, int(v * den)) for a, b, c, v in terms)
    int_norm_diag = tuple(int(v * den) for v in norm_diag)
    return ProductTable(True, tuple(terms), int_terms, den, norm_diag,
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
        if self.params.field.exact:  # sqrt(n(x)) leaves the rationals
            raise ModeMismatch("abs is a real-mode operation")
        return math.sqrt(self.norm())

    def inverse(self) -> "Octonion":
        n = self.norm()
        if n == 0 or not math.isfinite(1 / n):  # exact: ExactOctonion.inverse
            raise NotInvertible("zero or isotropic element")
        return self.conj() / n

    def commutator(self, other: "Octonion") -> "Octonion":
        return self * other - other * self

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        """Exactly zero, in both modes; negligible() is the real-mode test."""
        return not any(self.coords)

    def is_central(self) -> bool:
        return self.im().is_zero()

    def size2(self) -> float:
        """sum |w_a| x_a^2 over the norm diagonal w: the norm on a definite
        algebra, and a squared size that no sign cancels on the others."""
        diag = self.params.table.norm_diag
        return float(sum(abs(d) * c * c for d, c in zip(diag, self.coords)))

    def negligible(self, tol: float, scale=1.0) -> bool:
        """Exact mode: x == 0.  Real mode: sqrt(size2) <= tol * scale."""
        if self.params.field.exact:
            return self.is_zero()
        return self.size2() <= (tol * scale) ** 2

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
        if tol is None:
            tol = self.params.field.fixed_tol
        return (self - other).negligible(tol, 1 + math.sqrt(other.size2()))

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
        try:
            coords = [params.field.coerce(v) for v in data]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad element JSON: {exc}") from exc
        return cls.make(params, coords)


class ExactOctonion(Octonion):
    """Exact element: integers ``num`` over ``den`` > 0, gcd(den, *num) = 1,
    one gcd per operation; ``coords`` (Fractions) are built when read."""

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
        return _exact(self.params, self.den, [-a for a in self.num])

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
        return _exact(self.params, self.den, (n[0], *(-v for v in n[1:])))

    def trace(self):
        return Fraction(2 * self.num[0], self.den)

    def re(self):
        return Fraction(self.num[0], self.den)

    def im(self) -> "ExactOctonion":
        return _exact(self.params, self.den, (0,) + self.num[1:])

    def norm(self):
        return Fraction(self._norm_num(), self.params.table.den * self.den**2)

    def _norm_num(self) -> int:  # n(x) * den_t * den^2, an integer
        return sum(v * c * c for v, c in
                   zip(self.params.table.int_norm_diag, self.num))

    def inverse(self) -> "ExactOctonion":
        """conj(x) / n(x) on integers: conj(num) den_t den / _norm_num."""
        n, k = self._norm_num(), self.params.table.den * self.den
        if n == 0:
            raise NotInvertible("zero or isotropic element")
        return _exact(self.params, n, [self.num[0] * k,
                                       *(-a * k for a in self.num[1:])])

    def size2(self) -> float:
        t = self.params.table
        n = sum(abs(v) * c * c for v, c in zip(t.int_norm_diag, self.num))
        return n / (t.den * self.den * self.den)

    def is_zero(self) -> bool:
        return not any(self.num)


def _exact(params: AlgebraParams, den: int, num) -> ExactOctonion:
    """The exact element num / den, reduced by one gcd to den > 0."""
    g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
    x = object.__new__(ExactOctonion)
    _set(x, "params", params)
    _set(x, "den", den // g)
    _set(x, "num", tuple(num) if g == 1 else tuple(a // g for a in num))
    return x


def combination(ws, xs) -> Octonion:
    """sum ws[t] xs[t] for scalars ws (integers in exact mode) and elements
    xs of one algebra, in one pass per coordinate; exact mode on integer
    numerators over one common denominator."""
    params = xs[0].params
    if params.field.exact:
        den = math.lcm(*(x.den for x in xs))
        cols = zip(*([v * (den // x.den) for v in x.num] for x in xs))
        return _exact(params, den,
                      [sum(map(operator.mul, ws, c)) for c in cols])
    cols = zip(*(x.coords for x in xs))
    return Octonion(tuple(sum(map(operator.mul, ws, c)) for c in cols),
                    params)


def polar_form(x: Octonion, y: Octonion):
    """Polar bilinear form of the norm: b(x,y) = norm(x+y)-norm(x)-norm(y)."""
    x._check(y)
    t = x.params.table
    if t.exact:
        s = sum(v * a * b for v, a, b in zip(t.int_norm_diag, x.num, y.num))
        return Fraction(2 * s, t.den * x.den * y.den)
    diag = t.norm_diag
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
        if len(m["exp"] or "") > 4300:  # more than int() converts
            raise ResourceLimit(f"exponent of {len(m['exp'])} digits")
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
    parts = []
    for a, c in enumerate(x.coords):
        if c == 0:
            continue
        mag = abs(c)
        s = "-" if c < 0 else "+"
        if a == 0:
            body = str(mag)
        elif mag == 1:
            body = BASIS_NAMES[a]
        else:
            body = f"{mag} {BASIS_NAMES[a]}"
        parts.append((s, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for s, body in parts[1:]:
        out += f" {s} {body}"
    return out


def _units(params: AlgebraParams):
    """e_1, ..., e_7, each built only when reached."""
    return (Octonion.basis(params, a) for a in range(1, 8))


def anisotropic(d: Octonion, tol, size) -> bool:
    """d is neither negligible against size nor isotropic: |n(d)| >
    tol * size2(d), so d^-1 = conj(d) / n(d) has a size below
    1 / (tol |d|).  Size 0 tests isotropy alone.  Exact mode: d != 0 and
    n(d) != 0."""
    if d.params.field.exact:
        return d._norm_num() != 0  # so d != 0
    return not d.negligible(tol, size) and abs(d.norm()) > tol * d.size2()


def conjugating_element(lam: Octonion, mu: Octonion) -> Octonion:
    """A trace-zero invertible delta with delta*lam = mu*delta, for mu in
    the class of lam (ConjClass.matches, at class_tol).  With v = im lam,
    w = im mu, v^2 = w^2 gives (v + w) v = w (v + w): delta = v + w, the
    line of solutions over a division algebra.  For mu = conj(lam) it
    vanishes, and the first anisotropic [e_a, v] serves, since it
    anticommutes with v.  Zero and isotropic are judged relative to the
    size of v; real mode returns a delta of unit size."""
    lam._check(mu)
    cls = ConjClass(lam.trace(), lam.norm())
    if not cls.matches(mu):
        raise NotConjugate("trace or norm mismatch: gap "
                           f"{float(cls.gap(mu)):.3e} > threshold "
                           f"{float(lam.params.field.class_tol):.3e}")
    return _conjugator(lam, mu)


def _conjugator(lam: Octonion, mu: Octonion) -> Octonion:
    """conjugating_element for a mu its caller has matched to lam's class."""
    params = lam.params
    f = params.field
    if lam.is_central():
        if lam.isclose(mu):
            return Octonion.basis(params, 1)
        raise NotConjugate("central element conjugates only to itself")
    v, tol = lam.im(), f.witness_tol
    size = math.sqrt(v.size2())
    cands = [v + mu.im()]
    if cands[0].negligible(tol, size):  # mu = conj(lam)
        cands = (e.commutator(v) for e in _units(params))
    delta = next((d for d in cands if anisotropic(d, tol, size)), None)
    if delta is None:
        raise WitnessFailure("no anisotropic conjugator found; "
                             "is the algebra split?")
    if not f.exact:  # unit size: rmr_witness judges c = delta^-1 at f's scale
        delta = delta / math.sqrt(delta.size2())
    resid = delta * lam - mu * delta
    scale = max(1.0, math.sqrt(abs(float(delta.norm() * lam.norm()))))
    if not resid.negligible(f.witness_tol, scale):
        raise WitnessFailure("conjugation residual too large: "
                             + resid.misfit(f.witness_tol, scale))
    return delta


def random_octonion(params: AlgebraParams, rng, span: int = 4) -> Octonion:
    """Random element: small integers in exact mode, uniforms in real mode."""
    draw = rng.randint if params.field.exact else rng.uniform
    return Octonion.make(params, [draw(-span, span) for _ in range(8)])

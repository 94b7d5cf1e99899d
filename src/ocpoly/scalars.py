"""Ground-field scalars (exact rationals / tolerance-carrying floats) and
root finding for central, scalar-coefficient polynomials, whose roots come
as conjugacy classes (:class:`ConjClass`).

Scalars themselves are plain ``fractions.Fraction`` (exact mode) or ``float``
(real mode); a :class:`Field` instance carries the mode, the tolerance
from which every threshold derives and every scalar rule of the mode.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (InvalidInput, ModeMismatch, NoConvergence, ParseError,
                     ResourceLimit, UnsupportedDegree)

DEFAULT_EPS = 1e-9
MAX_DIGITS = 4300  # of a number read or written: str() and int() refuse more


def _digits(n: int) -> int:
    """The decimal digits of an integer n (0 for 0), from its bit length."""
    d = int(abs(n).bit_length() * math.log10(2)) + 1
    return d - (abs(n) < 10 ** (d - 1))


def within_digits(digits: int, what="a number", done="read") -> None:
    """ResourceLimit for what is read or written with too many digits."""
    if digits > MAX_DIGITS:
        raise ResourceLimit(f"{what} of {digits} digits; at most "
                            f"{MAX_DIGITS} are {done}")


def _literal(text: str) -> str:
    """text, or ResourceLimit if the literal takes more than MAX_DIGITS
    digits, counted on the text before any integer is built: its longest
    run of digits (which a point or an underscore does not end) plus its
    exponent."""
    mant, _, exp = text.lower().replace("_", "").partition("e")
    n = max(map(len, re.findall(r"\d+", mant.replace(".", ""))), default=0)
    if re.fullmatch(r"[+-]?\d+", exp):
        within_digits(len(exp.lstrip("+-")))  # which int(exp) converts
        n += abs(int(exp))
    within_digits(n)
    return text


def _threshold(at_default: float) -> property:
    """at_default times eps / DEFAULT_EPS (exactly 1.0 at the default eps);
    0 in exact mode, which compares by equality."""
    return property(lambda self: 0 if self.exact
                    else at_default * (self.eps / DEFAULT_EPS))


@dataclass(frozen=True)
class Field:
    """Scalar mode: exact rationals, or floats with tolerance eps, from which
    every threshold derives, each against the sizes of what it judges."""

    exact: bool
    eps: float = DEFAULT_EPS

    residual_tol = _threshold(1e-8)     # f(lam) of a root: backward error
    class_tol = _threshold(1e-6)        # [conj G, E^-1], class gaps
    fixed_tol = _threshold(1e-9)        # f^n(alpha) = alpha, orbit revisits
    witness_tol = _threshold(1e-7)      # E, G, conjugators, witnesses, LMR

    def __post_init__(self):
        if not 0 < self.eps < 1e-3:  # nan, inf; at 1e-3 class_tol is 1
            raise InvalidInput(f"eps must be finite with 0 < eps < 1e-3, "
                               f"got {self.eps!r}")

    def coerce(self, x):
        """x as a scalar of this field; refuses a non-finite value, in exact
        mode a non-integral float, in real mode one beyond float range."""
        if isinstance(x, str):
            return self.parse(x)
        if self.exact:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, float) and not REAL.coerce(x).is_integer():
                raise InvalidInput(f"non-integral float {x!r} in exact mode")
            return Fraction(x)
        try:
            v = float(x)
        except OverflowError:  # an int or Fraction: its first 20 digits
            d = _digits(int(x))
            lead = int(Fraction(x) / 10 ** max(d - 20, 0))
            raise InvalidInput(f"{lead!s:.20}... ({d} digits) is beyond float "
                               "range") from None
        if not math.isfinite(v):
            raise InvalidInput(f"{v!r} is not a finite scalar")
        return v

    def parse(self, text: str):
        """Parse a decimal or 'p/q' scalar literal.  A literal of more than
        MAX_DIGITS digits raises ResourceLimit; a text that Fraction refuses
        ('abc', '1/0') ParseError; a well-formed value that no scalar holds
        InvalidInput: 'inf' and 'nan', and in real mode a value beyond float
        range."""
        text = text.strip()
        try:
            frac = Fraction(_literal(text))
        except (ValueError, ZeroDivisionError) as exc:
            if text.lstrip("+-").lower() in ("inf", "infinity", "nan"):
                raise InvalidInput(f"{text!r} is not a finite scalar") from exc
            raise ParseError(f"bad scalar literal {text!r}") from exc
        return frac if self.exact else self.coerce(frac)

    def json_float(self, text: str):  # exact: 1e23 is 10^23, 0.1 is 1/10
        return self.parse(text) if self.exact else float(_literal(text))

    def require_real(self, refusal: str) -> None:
        if self.exact:
            raise ModeMismatch(refusal)

    def draw(self, rng, span, real_span) -> list:  # 8 seeded scalars
        if self.exact:
            return [rng.randint(-span, span) for _ in range(8)]
        return [rng.uniform(-real_span, real_span) for _ in range(8)]

    def class_scalars(self, T, N) -> tuple:
        """(T D, N D^2, D) of reduce_linear: integers, or floats and D = 1."""
        T, N = self.coerce(T), self.coerce(N)
        if not self.exact:
            return T, N, 1
        D = math.lcm(dt := T.denominator, dn := N.denominator)
        return T.numerator * (D // dt), N.numerator * (D // dn) * D, D

    def zero(self):
        return Fraction(0) if self.exact else 0.0

    def one(self):
        return Fraction(1) if self.exact else 1.0

    def to_json(self, a):
        if self.exact:
            within_digits(_digits(max(abs(a.numerator), a.denominator)),
                          done="written")
        return str(a) if self.exact else float(a)


EXACT = Field(exact=True)
REAL = Field(exact=False)


@dataclass(frozen=True)
class CentralPoly:
    """Polynomial with scalar coefficients, degree-ascending."""

    field: Field
    coeffs: tuple

    @classmethod
    def make(cls, field: Field, coeffs) -> "CentralPoly":
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(field, tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, z):
        """Horner's rule: at floats, bit for bit numpy's polyval."""
        acc = 0 * z if self.coeffs else self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def deriv(self, k: int = 1) -> "CentralPoly":
        """The k-th derivative: c_j -> j c_j, k times, as numpy's polyder."""
        cs = self.coeffs
        for _ in range(k):
            cs = tuple(j * c for j, c in enumerate(cs))[1:]
        return CentralPoly(self.field, cs)


@dataclass(frozen=True)
class ConjClass:
    """Conjugacy class encoded by trace and norm, with its multiplicity as a
    root class of a central polynomial; central classes are the singletons
    {r} with T = 2r, N = r^2."""

    T: object
    N: object
    central: bool = False
    multiplicity: int = 1

    @classmethod
    def of_scalar(cls, r, multiplicity=1) -> "ConjClass":
        return cls(2 * r, r * r, True, multiplicity)

    @property
    def r(self):
        if not self.central:
            raise InvalidInput("not a central class")
        return self.T / 2

    def gap(self, mu):
        """max(|tr mu - T| / s, |n(mu) - N| / s^2), s^2 the largest T^2/4 or
        |N| of this class and mu's (0 if both are {0}): 0 iff mu in it."""
        T, N = mu.trace(), mu.norm()
        s2 = max(self.T * self.T / 4, abs(self.N), T * T / 4, abs(N))
        dT, dN = abs(T - self.T), abs(N - self.N)
        try:
            ratios = s2 and (dT / s2 ** 0.5, dN / s2)
        except OverflowError:  # an exact s2 beyond float range: ratios first
            ratios = ((dT * dT / s2) ** 0.5, dN / s2)
        # inf / inf (a norm beyond float range) is nan, which max would drop
        return ratios and max(r if r == r else math.inf for r in ratios)

    def matches(self, mu) -> bool:
        """At class_tol, the one rule for membership of a class."""
        if mu.params.field.exact:  # gap 0: equal trace and norm
            return mu.in_class(self.T, self.N)
        return self.gap(mu) <= mu.params.field.class_tol

    def to_json(self, f):
        return {"T": f.to_json(self.T), "N": f.to_json(self.N),
                "central": self.central}


# ---------------------------------------------------------------------------
# Real-mode solver: companion eigenvalues, Aberth iteration if they fail.

_MAX_ITER = 4000


def _companion_eigvals(cs: np.ndarray) -> np.ndarray:
    """The eigenvalues of np.roots's companion matrix of the descending float
    coefficients cs (cs[0] != 0); InvalidInput if an entry is not finite."""
    comp = np.diag(np.ones(len(cs) - 2), -1)
    with np.errstate(over="ignore"):
        comp[0] = -cs[1:] / cs[0]
    if not np.isfinite(comp).all():
        raise InvalidInput(f"leading coefficient {cs[0]}: the companion "
                           "matrix is not finite")
    return np.linalg.eigvals(comp)


def _aberth(p: CentralPoly) -> np.ndarray:
    """All complex roots of the real polynomial p: Aberth steps from the
    companion eigenvalues, which most calls accept at the first test."""
    target = 1e-12 * max(1.0, max(map(abs, p.coeffs)))
    z, best, dp = _companion_eigvals(np.array(p.coeffs[::-1])), np.inf, None
    for _ in range(_MAX_ITER):
        pv = p.eval(z)
        if (res := np.max(np.abs(pv))) < target:
            return z
        best = np.fmin(best, res)  # the smallest any step reached
        dp = dp or p.deriv()  # p', derived at the first step taken
        dv = dp.eval(z)
        # Newton correction with a guard against p'(z) = 0
        bad = np.abs(dv) < 1e-300
        dv[bad] = 1.0
        w = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom[np.abs(denom) < 1e-300] = 1.0
        z = z - w / denom
    raise NoConvergence(f"Aberth solver failed for degree {p.degree}: "
                        f"residual {best:.3e} > threshold {target:.3e}")


def _clusters(p: CentralPoly, zs: list) -> list:
    """The iterates zs in clusters, as (centroid, size): two groups merge
    while each is the other's nearest and their discs overlap.  A group of
    k iterates with centroid c lies within its spread plus (n |p(c)| / |a_n
    prod_h (c - c_h)^(k_h)|)^(1/k) of k roots, h over the other groups and
    |p(c)| at least its rounding error eps sum_t |a_t| |c|^t (Braess &
    Hadeler, Numer. Math. 21, 1973)."""
    n, groups = len(zs), [[z] for z in zs]
    size = CentralPoly(p.field, tuple(map(abs, p.coeffs)))

    def radius(i):  # of group i, from this round's cs and dist
        c, g = cs[i], groups[i]
        prod = size.coeffs[-1] * math.prod(
            d ** len(h) for d, h in zip(dist[i], groups) if h is not g)
        res = n * (abs(p.eval(c)) + math.ulp(1.0) * size.eval(abs(c)))
        return max(abs(z - c) for z in g) + (
            (res / prod) ** (1 / len(g)) if prod else math.inf)

    while True:
        cs = [sum(g) / len(g) for g in groups]
        dist = [[abs(c - e) for e in cs] for c in cs]
        for i, d in enumerate(dist):
            d[i] = math.inf  # no group is its own nearest
        near = [d.index(min(d)) for d in dist]
        pairs = {j: i for i, j in enumerate(near) if i < j and near[j] == i
                 and dist[i][j] <= radius(i) + radius(j)}
        if not pairs:
            return list(zip(cs, map(len, groups)))
        for j, i in pairs.items():
            groups[i] += groups[j]
        groups = [g for k, g in enumerate(groups) if k not in pairs]


def _central_roots_real(p: CentralPoly) -> list:
    if p.degree == 0:
        return []
    j = next(t for t, c in enumerate(p.coeffs) if c)  # x^j divides p
    roots = [0j] * j
    if j < p.degree:
        roots += _aberth(CentralPoly(p.field, p.coeffs[j:])).tolist()
    # A real polynomial's roots are mirror images: a cluster centre on the
    # axis is a central class, one above it a class (T, N), one below its
    # mirror.  An m-fold root is only located to ~(residual)^(1/m): the
    # centroid cancels the leading splitting error, and Newton on p^(m-1),
    # where the root is simple, refines it.
    out = []
    for z, m in _clusters(p, roots):
        if m > 1:
            d = p.deriv(m - 1)
            dd = d.deriv()
            for _ in range(3):
                step = np.complex128(d.eval(z)) / dd.eval(z)
                z = z - step if np.isfinite(step) else z
        if abs(z.imag) <= 1e-8 * abs(z):  # on the axis, at any scale
            out.append(ConjClass.of_scalar(float(z.real), m))
        elif z.imag > 0:
            out.append(ConjClass(float(2 * z.real), float(abs(z) ** 2),
                                 multiplicity=m))
    placed = sum(c.multiplicity * (1 if c.central else 2) for c in out)
    if placed != p.degree:  # iterates that are no mirror images
        raise NoConvergence(f"classes place {placed} of the {p.degree} "
                            "roots of a real polynomial")
    return sorted(out, key=lambda c: (c.T, c.N))


def _primitive(cs: list) -> list:
    """Integer coefficients divided by their gcd, leading one positive."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if cs[0] > 0 else [-c // g for c in cs]


def _quotient(f: list, g: list):
    """f / g for descending integer coefficients, or None unless g divides f
    exactly (over Q as over Z, since g is primitive)."""
    f, n = list(f), len(g) - 1
    for k in range(len(f) - n):  # f[k] becomes the quotient's k-th term
        f[k], r = divmod(f[k], g[0])
        if r:
            return None
        for i in range(1, n + 1):
            f[k + i] -= f[k] * g[i]
    return None if any(f[len(f) - n:]) else f[:len(f) - n]


def _split(q: list) -> list:
    """The irreducible factors over Q of a primitive q: a quadratic splits
    when its discriminant is a square, degree >= 3 by sympy's factoring."""
    if len(q) > 3:
        from sympy.polys.domains import ZZ
        from sympy.polys.factortools import dup_factor_list
        return [[int(c) for c in g] for g, _ in dup_factor_list(q, ZZ)[1]]
    if len(q) == 3:
        a, b, c = q
        disc = b * b - 4 * a * c
        d = math.isqrt(disc) if disc >= 0 else -1
        if d * d == disc:
            return [_primitive([2 * a, b - d]), _primitive([2 * a, b + d])]
    return [q]


def _proposals(f: list):
    """Candidate factors of f (descending integers, lc > 0) from its float
    roots: x - r for each real root r, and x^2 - s x + p for each pair of
    roots with real sum s and product p, times lc, rounded and primitive.
    Non-finite values propose nothing."""
    try:
        cs = np.array([float(c) for c in f])
    except OverflowError:  # a coefficient beyond float range
        return
    zs = _companion_eigvals(cs).tolist()  # finite: |cs[0]| >= 1
    lc = float(f[0])
    vals = [[-lc * z.real] for z in zs if z.imag == 0]
    for k, z in enumerate(zs):
        for w in zs[k + 1:]:
            s, p = z + w, z * w
            if s.imag == 0 and p.imag == 0:
                vals.append([-lc * s.real, lc * p.real])
    for v in vals:
        if all(map(math.isfinite, v)):
            yield _primitive([f[0]] + [round(x) for x in v])


def _central_roots_exact(p: CentralPoly) -> list:
    """Factors of p over Z (its coefficients times their common denominator)
    in the order of sympy.factor_list.  One loop splits each candidate (x,
    the factors that float roots propose, then what is left, which sympy
    splits at degree >= 3) and divides each factor out as often as it
    divides exactly, which counts its multiplicity."""
    if p.degree > 4:
        raise UnsupportedDegree(
            f"exact mode supports degree <= 4, got {p.degree}")
    den = math.lcm(*(c.denominator for c in p.coeffs))
    f = _primitive([c.numerator * (den // c.denominator)
                    for c in reversed(p.coeffs)])

    def candidates():  # proposals are drawn while f has degree >= 3
        yield [1, 0]
        for q in _proposals(f) if len(f) > 3 else ():
            yield q
            if len(f) <= 3:
                break
        if len(f) > 1:
            yield f

    factors = {}  # each irreducible factor: how often it divides
    for g in (tuple(g) for q in candidates() for g in _split(q)):
        while (h := _quotient(f, g)) is not None:
            f, factors[g] = h, factors.get(g, 0) + 1
    out = []
    # sympy's own order: by length, multiplicity, then coefficients
    for fac, mult in sorted(factors.items(),
                            key=lambda fm: (len(fm[0]), fm[1], fm[0])):
        if len(fac) == 2:  # descending: a x + b, a x^2 + b x + c
            out.append(ConjClass.of_scalar(Fraction(-fac[1], fac[0]), mult))
        elif len(fac) == 3:
            out.append(ConjClass(Fraction(-fac[1], fac[0]),
                                 Fraction(fac[2], fac[0]), multiplicity=mult))
        else:
            named = ", ".join(str(c) if (d := _digits(c)) <= MAX_DIGITS
                              else f"<{d} digits>" for c in fac)
            raise UnsupportedDegree(
                f"irreducible factor of degree {len(fac) - 1} over Q, "
                f"coefficients {named} from x^{len(fac) - 1} down; no "
                "rational conjugacy-class data")
    return out


def central_roots(p: CentralPoly) -> list:
    """The root classes of a central polynomial, with multiplicities: a real
    root r as the central class (2r, r^2), a conjugate pair as (T, N)."""
    if not p.coeffs:
        raise InvalidInput("zero polynomial has no well-defined root set")
    if p.field.exact:
        return _central_roots_exact(p)
    return _central_roots_real(p)

"""Left-coefficient polynomials over the algebra, with central indeterminate.

The canonical form is sum_t a_t x^t with a_t on the left; x is central, so
right-coefficient input normalizes to the same thing.  Substitution is not a
ring homomorphism and nothing here assumes it is.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .algebra import AlgebraParams, Octonion, parse_octonion
from .errors import InternalError, InvalidInput, ParseError, ResourceLimit
from .scalars import CentralPoly

COMPOSE_DEGREE_CAP = 16


@dataclass(frozen=True)
class OPolynomial:
    coeffs: tuple  # of Octonion, degree-ascending, trailing zeros trimmed
    params: AlgebraParams

    @classmethod
    def make(cls, params: AlgebraParams, coeffs) -> "OPolynomial":
        out = []
        for c in coeffs:
            if not isinstance(c, Octonion):
                c = Octonion.scalar(params, c)
            elif c.params != params:
                raise InvalidInput("coefficient from a different algebra")
            out.append(c)
        while out and all(v == 0 for v in out[-1].coords):
            out.pop()
        return cls(tuple(out), params)

    @classmethod
    def zero(cls, params: AlgebraParams) -> "OPolynomial":
        return cls((), params)

    @classmethod
    def one(cls, params: AlgebraParams) -> "OPolynomial":
        return cls.make(params, [1])

    @classmethod
    def x(cls, params: AlgebraParams) -> "OPolynomial":
        return cls.make(params, [0, 1])

    @classmethod
    def monic_quadratic(cls, B: Octonion, C: Octonion) -> "OPolynomial":
        return cls.make(B.params, [C, B, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, t: int) -> Octonion:
        if 0 <= t < len(self.coeffs):
            return self.coeffs[t]
        return Octonion.zero(self.params)

    @functools.cached_property
    def coeff_scale(self) -> float:
        """max(1, largest |coordinate|): the scale of residual thresholds."""
        return max([1.0] + [abs(float(v)) for c in self.coeffs
                            for v in c.coords])

    def is_monic(self) -> bool:
        return (not self.is_zero()
                and self.coeffs[-1].isclose(Octonion.one(self.params)))

    def _check(self, other: "OPolynomial"):
        if self.params != other.params:
            raise InvalidInput("polynomials over different algebras")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, OPolynomial):
            other = OPolynomial.make(self.params, [other])
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return OPolynomial.make(
            self.params, [self.coeff(t) + other.coeff(t) for t in range(n)])

    def __neg__(self):
        return OPolynomial.make(self.params, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, OPolynomial):
            other = OPolynomial.make(self.params, [other])
        return self + (-other)

    def scale_left(self, c: Octonion) -> "OPolynomial":
        return OPolynomial.make(self.params, [c * a for a in self.coeffs])

    def scale_right(self, c: Octonion) -> "OPolynomial":
        return OPolynomial.make(self.params, [a * c for a in self.coeffs])

    def __mul__(self, other: "OPolynomial") -> "OPolynomial":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return OPolynomial.zero(self.params)
        out = [Octonion.zero(self.params)] * (self.degree + other.degree + 1)
        for r, a in enumerate(self.coeffs):
            for s, b in enumerate(other.coeffs):
                out[r + s] = out[r + s] + a * b
        return OPolynomial.make(self.params, out)

    # -- involution and companion ------------------------------------------

    def conj_poly(self) -> "OPolynomial":
        return OPolynomial.make(self.params, [c.conj() for c in self.coeffs])

    def companion(self) -> CentralPoly:
        """conj(f) * f; every coefficient must come out central."""
        if self.is_zero():
            raise InvalidInput("zero polynomial has no companion")
        prod = self.conj_poly() * self
        f = self.params.field
        for c in prod.coeffs:
            if not c.im().negligible(f.central_tol, prod.coeff_scale):
                raise InternalError(
                    f"non-central companion coefficient {c}, arithmetic bug: "
                    + c.im().misfit(f.central_tol, prod.coeff_scale))
        return CentralPoly.make(f, [c.coords[0] for c in prod.coeffs])

    # -- evaluation and iteration ------------------------------------------

    def eval(self, lam: Octonion) -> Octonion:
        """sum a_t lam^t; powers live in the subalgebra generated by lam."""
        if not isinstance(lam, Octonion):
            lam = Octonion.scalar(self.params, lam)
        acc = Octonion.zero(self.params)
        power = Octonion.one(self.params)
        for t, a in enumerate(self.coeffs):
            if t:
                power = power * lam
            acc = acc + a * power
        return acc

    def power(self, t: int) -> "OPolynomial":
        """t-fold product f * ... * f, left-nested."""
        if t < 0:
            raise InvalidInput("negative power")
        out = OPolynomial.one(self.params)
        for _ in range(t):
            out = out * self
        return out

    def compose(self, g: "OPolynomial") -> "OPolynomial":
        """f(g(x)) = sum a_t (g(x))^t."""
        self._check(g)
        if self.degree > COMPOSE_DEGREE_CAP or g.degree > COMPOSE_DEGREE_CAP:
            raise ResourceLimit(
                f"compose input degree above {COMPOSE_DEGREE_CAP}")
        acc = OPolynomial.zero(self.params)
        gp = OPolynomial.one(self.params)
        for t, a in enumerate(self.coeffs):
            if t:
                gp = gp * g
            acc = acc + gp.scale_left(a)
        return acc

    def iterate_comp(self, n: int) -> "OPolynomial":
        if n < 1:
            raise InvalidInput("need n >= 1")
        out = self
        for _ in range(n - 1):
            out = self.compose(out)
        return out

    def iterate_sub(self, alpha: Octonion, n: int) -> Octonion:
        if n < 1:
            raise InvalidInput("need n >= 1")
        val = alpha if isinstance(alpha, Octonion) \
            else Octonion.scalar(self.params, alpha)
        for _ in range(n):
            val = self.eval(val)
        return val

    def right_div_linear(self, lam: Octonion):
        """(g, r) with f = g*(x - lam) + r; r equals f(lam)."""
        if self.is_zero():
            raise InvalidInput("cannot divide the zero polynomial")
        n = self.degree
        if n == 0:
            return OPolynomial.zero(self.params), self.coeffs[0]
        b = [Octonion.zero(self.params)] * n
        b[n - 1] = self.coeffs[n]
        for t in range(n - 1, 0, -1):
            b[t - 1] = self.coeffs[t] + b[t] * lam
        r = self.coeffs[0] + b[0] * lam
        return OPolynomial.make(self.params, b), r

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for t in range(self.degree, -1, -1):
            c = self.coeff(t)
            if c.is_zero():
                continue
            xpart = "" if t == 0 else ("x" if t == 1 else f"x^{t}")
            terms.append(f"({c}){xpart}")
        return " + ".join(terms) or "0"

    def to_json(self) -> dict:
        f = self.params.field
        return {
            "params": [f.to_json(self.params.alpha),
                       f.to_json(self.params.beta),
                       f.to_json(self.params.gamma)],
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict, field) -> "OPolynomial":
        try:
            alpha, beta, gamma = data["params"]
            params = AlgebraParams(field, field.coerce(alpha),
                                   field.coerce(beta), field.coerce(gamma))
            coeffs = [Octonion.make(params, [field.coerce(v) for v in row])
                      for row in data["coeffs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad polynomial JSON: {exc}") from exc
        return cls.make(params, coeffs)


_POLY_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:\((?P<paren>[^()]*)\)|(?P<bare>[^\sx+-]+))?\s*"
    r"(?P<x>x(?:\^(?P<exp>\d+))?)?\s*")


def parse_opolynomial(text: str, params: AlgebraParams) -> OPolynomial:
    """Parse "(1)x^2 + (i)x + (j - k)"; bare single-token coefficients like
    "2x^2 + ix - 1/2" are also accepted."""
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    coeffs: dict[int, Octonion] = {}
    pos = 0
    while pos < len(text):
        m = _POLY_TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad polynomial syntax at column {pos}: {text!r}")
        if m.group("paren") is None and m.group("bare") is None \
                and m.group("x") is None:
            raise ParseError(f"bad polynomial syntax at column {pos}: {text!r}")
        if m.group("paren") is not None:
            c = parse_octonion(m.group("paren"), params)
        elif m.group("bare") is not None:
            c = parse_octonion(m.group("bare"), params)
        else:
            c = Octonion.one(params)
        if m.group("sign") == "-":
            c = -c
        if m.group("x") is None:
            t = 0
        elif m.group("exp") is None:
            t = 1
        else:
            t = int(m.group("exp"))
        coeffs[t] = coeffs.get(t, Octonion.zero(params)) + c
        pos = m.end()
    deg = max(coeffs)
    return OPolynomial.make(
        params, [coeffs.get(t, Octonion.zero(params)) for t in range(deg + 1)])

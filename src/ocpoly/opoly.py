"""Left-coefficient polynomials over the algebra, with central indeterminate.

The canonical form is sum_t a_t x^t with a_t on the left; x is central, so
right-coefficient input normalizes to the same thing.  Substitution is not a
ring homomorphism and nothing here assumes it is.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebra import AlgebraParams, Octonion, _read_terms
from .errors import InvalidInput, ParseError, ResourceLimit
from .scalars import CentralPoly

COMPOSE_DEGREE_CAP = 16
READ_DEGREE_CAP = COMPOSE_DEGREE_CAP ** 2  # the largest degree compose gives


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
        while out and out[-1].is_zero():
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
        return self.coeffs[t] if 0 <= t < len(self.coeffs) else \
            Octonion.zero(self.params)

    @functools.cached_property
    def coeff_sizes(self) -> tuple:
        """|a_t| = sqrt(size2(a_t)), which real-mode thresholds are made of."""
        return tuple(c.size2() ** 0.5 for c in self.coeffs)

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

    # -- companion and evaluation ------------------------------------------

    def companion(self) -> CentralPoly:
        """conj(f) * f, central by construction: as conj(x) y + conj(y) x =
        polar_form(x, y), coefficient k sums polar_form(a_s, a_t) over s < t,
        s + t = k, plus norm(a_{k/2}): norm_products of the coefficients."""
        if self.is_zero():
            raise InvalidInput("zero polynomial has no companion")
        cs = self.coeffs
        out = cs[0].norm_products(cs)
        if out[-1] == 0 and min(self.params.table.norm_diag) > 0:  # underflow
            raise InvalidInput(f"leading coefficient {cs[-1]} has norm 0.0")
        return CentralPoly.make(self.params.field, out)

    def eval(self, lam: Octonion) -> Octonion:
        """sum a_t lam^t by Horner's rule, exact since a_t and lam generate an
        associative subalgebra (Artin); lam may also be a scalar."""
        cs = self.coeffs
        return cs[0].horner(cs, lam) if cs else Octonion.zero(self.params)

    # -- iteration ----------------------------------------------------------

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
        for _ in range(n):
            alpha = self.eval(alpha)
        return alpha

    def right_div_linear(self, lam: Octonion):
        """(g, r) with f = g*(x - lam) + r: the Horner values of eval(lam)
        are the coefficients of g, and the last is r = f(lam)."""
        if self.is_zero():
            raise InvalidInput("cannot divide the zero polynomial")
        b = [self.coeffs[-1]]
        for a in reversed(self.coeffs[:-1]):
            b.append(b[-1] * lam + a)
        r = b.pop()
        return OPolynomial.make(self.params, b[::-1]), r

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
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
        return {"params": [f.to_json(g) for g in self.params.gammas],
                "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict, field) -> "OPolynomial":
        try:
            if any(isinstance(v, bool) for v in data["params"]):
                raise ParseError("bad polynomial JSON: boolean parameter")
            params = AlgebraParams(field, *data["params"])
            coeffs = [Octonion.from_json(row, params)
                      for row in data["coeffs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad polynomial JSON: {exc}") from exc
        return cls.make(params, coeffs)


def parse_opolynomial(text: str, params: AlgebraParams) -> OPolynomial:
    """Parse the text form, such as "x^2 + ix - 1/2 i - 1/4",
    "(1 + i)*x^2 - 2 * jx + (j - k)" or "1e-4x": the terms of each power
    add up, and every term after the first carries a sign.  An exponent
    above READ_DEGREE_CAP raises ResourceLimit before any power is built."""
    coeffs = _read_terms(text, params, True)
    if (deg := max(coeffs)) > READ_DEGREE_CAP:
        raise ResourceLimit(f"degree {deg} above the cap {READ_DEGREE_CAP}")
    return OPolynomial.make(params, [
        Octonion.make(params, coeffs.get(t, [0]))
        for t in range(max(coeffs) + 1)])

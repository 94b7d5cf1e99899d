"""Fixed-point classification and pseudo-periodic orbit analysis for monic
quadratic polynomials x^2 + Bx + C over the real octonions/quaternions.

A fixed point alpha is classified through
    M = sqrt(Re(2a+B)^2 + (|Im(a+B)| + |Im(a)|)^2)
    m = sqrt(Re(2a+B)^2 + (|Im(a+B)| - |Im(a)|)^2)
as attracting (M < 1), repelling (m > 1) or ambivalent otherwise.  For a
pseudo-periodic point of order n, prod sqrt(M_i) < 1 is a sufficient
condition for attraction; the converse is not claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Octonion
from .errors import InvalidInput, NotAFixedPoint, NotInRMR, OrderMismatch
from .opoly import OPolynomial
from .roots import RootSet, _evaluated_root, roots


def _require_monic_quadratic(f: OPolynomial):
    if f.degree != 2 or not f.is_monic():
        raise InvalidInput("need a monic quadratic polynomial")


def fixed_points(f: OPolynomial) -> RootSet:
    """Roots of f(x) - x; each one is a genuine fixed point of every
    composition iterate of a monic quadratic."""
    _require_monic_quadratic(f)
    return roots(f - OPolynomial.x(f.params))


def growth_bounds(alpha: Octonion, B: Octonion) -> tuple:
    """(M, m): extremal one-step growth factors at a fixed point alpha."""
    re2ab = float(2 * alpha.re() + B.re())
    im_ab = math.sqrt(float((alpha + B).im().norm()))
    im_a = math.sqrt(float(alpha.im().norm()))
    M = math.sqrt(re2ab ** 2 + (im_ab + im_a) ** 2)
    m = math.sqrt(re2ab ** 2 + (im_ab - im_a) ** 2)
    return M, m


@dataclass(frozen=True)
class FixedPointReport:
    alpha: Octonion
    B: Octonion
    M: float
    m: float
    verdict: str  # "attracting" | "repelling" | "ambivalent"

    def to_json(self) -> dict:
        return {"alpha": self.alpha.to_json(), "B": self.B.to_json(),
                "M": self.M, "m": self.m, "verdict": self.verdict}


def classify_fixed(f: OPolynomial, alpha: Octonion) -> FixedPointReport:
    _require_monic_quadratic(f)
    f.params.require_real_definite("classify_fixed")
    if not f.eval(alpha).isclose(alpha):
        raise NotAFixedPoint(f"f({alpha}) != {alpha}")
    B = f.coeff(1)
    M, m = growth_bounds(alpha, B)
    if M < 1:
        verdict = "attracting"
    elif m > 1:
        verdict = "repelling"
    else:
        verdict = "ambivalent"
    return FixedPointReport(alpha=alpha, B=B, M=M, m=m, verdict=verdict)


def verify_composition_fixed(f: OPolynomial, alpha: Octonion,
                             n_max: int) -> bool:
    """Check f^{on}(alpha) = alpha for n = 1..n_max via explicit composition
    (degree doubles each step, so keep n_max small)."""
    _require_monic_quadratic(f)
    if not f.eval(alpha).isclose(alpha):
        raise NotAFixedPoint("alpha is not fixed by f")
    x, tol = OPolynomial.x(f.params), f.params.field.residual_tol
    try:  # alpha a root of f^{on}(x) - x by the point rule of roots
        for n in range(1, n_max + 1):
            _evaluated_root(f.iterate_comp(n) - x, alpha, tol)
    except NotInRMR:
        return False
    return True


def direction_ratio(f: OPolynomial, alpha: Octonion, direction: Octonion,
                    t: float) -> float:
    """|f(alpha + t*u) - alpha| / t for the unit direction u = direction/|direction|."""
    f.params.require_real_definite("direction_ratio")
    u = direction / direction.abs()
    lam = alpha + u * t
    return math.sqrt(float((f.eval(lam) - alpha).norm())) / t


@dataclass(frozen=True)
class OrbitRecord:
    start: Octonion
    iterates: tuple  # iterates[k] = f^{*k}(start), starting at k = 0
    escaped: bool
    detected_period: int | None

    def to_csv(self) -> str:
        lines = ["step," + ",".join(f"c{a}" for a in range(8)) + ",abs"]
        for step, val in enumerate(self.iterates):
            cs = ",".join(repr(float(c)) for c in val.coords)
            lines.append(f"{step},{cs},{val.abs()!r}")
        return "\n".join(lines) + "\n"


def orbit(f: OPolynomial, start: Octonion, n_max: int,
          escape_radius: float = 1e6) -> OrbitRecord:
    """Substitution orbit of start, stopping at n_max, escape, or a revisit
    of an earlier iterate by isclose (which sets the detected period)."""
    f.params.require_real_definite("orbit")
    tol = f.params.field.fixed_tol
    if n_max < 1:
        raise InvalidInput("need n_max >= 1")
    if not 0 < escape_radius < math.inf:
        raise InvalidInput(f"escape radius must be finite and positive, "
                           f"got {escape_radius!r}")
    # row k: iterate k and its revisit threshold tol * (1 + |iterate k|),
    # filled as reached; doubled when full.  The hit test is isclose against
    # every earlier row at once: on a definite algebra size2 is the norm.
    seen = np.empty((min(n_max, 128) + 1, 9))
    seen[0] = (*start.coords, tol * (1 + math.sqrt(float(start.norm()))))
    iterates = [start]
    escaped = False
    period = None
    val = start
    for k in range(1, n_max + 1):
        val = f.eval(val)
        iterates.append(val)
        size = math.sqrt(float(val.norm()))
        if not size <= escape_radius:  # an overflow to nan escapes too
            escaped = True
            break
        hit = np.flatnonzero(((seen[:k, :8] - val.coords) ** 2)
                             @ f.params.table.norm_diag <= seen[:k, 8] ** 2)
        if hit.size:
            period = int(k - hit[0])
            break
        if k == len(seen):
            seen = np.concatenate([seen, np.empty_like(seen)])
        seen[k] = (*val.coords, tol * (1 + size))
    return OrbitRecord(start=start, iterates=tuple(iterates),
                       escaped=escaped, detected_period=period)


def detect_pseudo_period(f: OPolynomial, alpha: Octonion,
                         n_max: int) -> int | None:
    """Smallest n <= n_max with f^{*n}(alpha) = alpha by isclose."""
    f.params.require_real_definite("detect_pseudo_period")
    val = alpha
    for n in range(1, n_max + 1):
        val = f.eval(val)
        if val.isclose(alpha):
            return n
    return None


@dataclass(frozen=True)
class PseudoPeriodReport:
    alpha: Octonion
    n: int
    cycle: tuple       # alpha_i = f^{*i}(alpha), i = 0..n-1
    Mi: tuple          # per-step factors, without the square root
    product: float     # prod sqrt(M_i)
    verdict: str       # "attracting" | "inconclusive"

    def to_json(self) -> dict:
        return {"alpha": self.alpha.to_json(), "order": self.n,
                "cycle": [a.to_json() for a in self.cycle],
                "Mi": list(self.Mi), "product": self.product,
                "verdict": self.verdict}


def cycle_factor(alpha_i: Octonion, B: Octonion) -> float:
    """M_i = Re(2 a_i + B)^2 + (|Im(a_i + B)| + |Im(a_i)|)^2."""
    M, _ = growth_bounds(alpha_i, B)
    return M * M


def classify_pseudo_periodic(f: OPolynomial, alpha: Octonion,
                             n: int) -> PseudoPeriodReport:
    _require_monic_quadratic(f)
    f.params.require_real_definite("classify_pseudo_periodic")
    detected = detect_pseudo_period(f, alpha, n)
    if detected != n:
        raise OrderMismatch(f"claimed order {n}, detected {detected}")
    B = f.coeff(1)
    cycle = [alpha]
    for _ in range(n - 1):
        cycle.append(f.eval(cycle[-1]))
    Mi = [cycle_factor(a, B) for a in cycle]
    product = math.prod(math.sqrt(M) for M in Mi)
    verdict = "attracting" if product < 1 else "inconclusive"
    return PseudoPeriodReport(alpha=alpha, n=n, cycle=tuple(cycle),
                              Mi=tuple(Mi), product=product, verdict=verdict)

"""Roots by conjugacy-class reduction, and the root sets of right/left
scalar multiples (RMR / LMR).

On a class (trace T, norm N), lam^2 = T*lam - N collapses f(lam) = 0 to
E*lam + G = 0.  One class rule, _class_root, reads it: the class holds
the one root -E^{-1} G if that lies in it, all its members if E = G = 0,
and no root of any scalar multiple otherwise.  roots() applies it to
every companion class, lmr_describe_class to one, and the RMR and LMR
queries to mu's own class.  A computed value is negligible within tol of
the sizes of the terms it sums: a point by its backward error |g(mu)| <=
tol * sum_t |b_t| |mu|^t, a root of f at residual_tol, a witness c for
f(x)c, a singular c -> (c f)(mu) and a sphere's members at witness_tol,
as E is.  The one root of c f in a class is -(c E)^-1 (c G).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .algebra import Octonion, _conjugator
from .errors import InvalidInput, NotConjugate, NotInRMR, WholeClass
from .opoly import OPolynomial
from .scalars import ConjClass, central_roots


def rmr_classes(f: OPolynomial) -> list:
    """Conjugacy classes of the companion polynomial's roots; their union is
    the root set of the right scalar multiples of f."""
    return central_roots(f.companion())


@dataclass(frozen=True)
class LinearReduction:
    E: Octonion
    G: Octonion
    E_size: float = 0.0  # real mode: the sizes of the terms E sums, and
    s: float = 0.0       # the class scale, |mu| of a member if definite

    @functools.cached_property
    def Einv(self) -> Octonion:
        return self.E.inverse()


def reduce_linear(f: OPolynomial, cls: ConjClass) -> LinearReduction:
    """E, G with f(lam) = E*lam + G for every lam of trace T and norm N.

    With lam^t = p_t lam + q_t, the central recursion
    lam^{t+1} = (T p_t + q_t) lam - N p_t gives E = sum a_t p_t and
    G = sum a_t q_t, both summed by the coefficients' combinations, on
    the scalars of Field.class_scalars (exact mode: integers).  Real mode
    also sums E's term sizes, sum |a_t| p'_t, where p' and q' follow the
    recursion on 2s for T (which may be rounding) and -s^2 for N, the sizes
    of their terms, s^2 = max(T^2/4, |N|); at tolerance 0 sizes are moot.
    """
    fld, cs = f.params.field, f.coeffs
    if not cs:
        zero = Octonion.zero(f.params)
        return LinearReduction(E=zero, G=zero)
    T, N, D = fld.class_scalars(cls.T, cls.N)
    p, q, ps, qs = 0, 1, [], []  # lam^0 = 1
    for _ in cs:
        ps.append(p)
        qs.append(q)
        p, q = T * p + q, -N * p
    tol = fld.witness_tol
    s, sp, sq, Es = tol and math.sqrt(max(T * T / 4, abs(N))), 1.0, 0.0, 0.0
    for a in f.coeff_sizes[1:] if tol else ():  # sp, sq: p'_t, q'_t from
        Es += a * sp                           # t = 1, as p'_0 = 0 (|a_0|
        sp, sq = 2 * s * sp + sq, s * s * sp   # may be inf)
    return LinearReduction(*cs[0].combinations(cs, ps, qs, D), Es, s)


# (f, cls, reduce_linear(f, cls)) of the last reduction made, replaced whole
# so that a thread reads one consistent entry
_last_reduction = None


def _reduction(f: OPolynomial, cls: ConjClass) -> LinearReduction:
    """reduce_linear(f, cls), remembered for the last (f, cls) only: the
    calls on one class share E, G and E^-1, and f holds no state."""
    global _last_reduction
    last = _last_reduction
    if last is None or last[0] is not f or last[1] != cls:
        last = _last_reduction = (f, cls, reduce_linear(f, cls))
    return last[2]


def _whole_class(f: OPolynomial, red: LinearReduction) -> bool:
    """A sphere (True) if E = 0 at witness_tol of its term sizes and each
    member mu (|mu| = s if definite) passes the point rule, |E mu + G| <=
    |E| s + |G| <= witness_tol sum_t |a_t| s^t; False if E != 0; else
    NotInRMR."""
    fld, tol = f.params.field, f.params.field.witness_tol
    if not red.E.negligible(tol, red.E_size):
        return False
    if fld.exact and red.G.is_zero():  # E = G = 0: no size to compute
        return True
    resid = math.sqrt(red.E.size2()) * red.s + math.sqrt(red.G.size2())
    limit = tol and tol * _eval_scale(f, red.s)
    if resid <= limit and not fld.exact:
        return True
    raise NotInRMR(f"E = 0 but G != 0: residual {resid:.3e} > threshold "
                   f"{limit:.3e}")


def _eval_scale(f: OPolynomial, size: float) -> float:
    """sum_t |a_t| size^t: the scale of f's error at a point of that size,
    inf if that is beyond float range."""
    try:
        return sum(a * size ** t for t, a in enumerate(f.coeff_sizes))
    except OverflowError:  # of size ** t
        return math.inf


def _evaluated_root(f: OPolynomial, mu: Octonion, tol: float,
                    what: str = "candidate fails evaluation") -> Octonion:
    """mu if its backward error is within tol, |f(mu)| <= tol * sum_t |a_t|
    |mu|^t, the one rule for a point (exact mode: f(mu) = 0); else NotInRMR
    stating what failed."""
    val = f.eval(mu)
    if not val.is_zero():  # 0 needs no scale, and is all exact mode takes
        scale = tol and _eval_scale(f, math.sqrt(mu.size2()))
        if not val.negligible(tol, scale):
            raise NotInRMR(f"{what}: {val.misfit(tol, scale)}")
    return mu


@dataclass(frozen=True)
class RootSet:
    isolated: tuple       # of (Octonion, ConjClass)
    spherical: tuple      # of ConjClass
    anomalies: tuple      # of (ConjClass, reason)

    def to_json(self, fld) -> dict:
        return {
            "isolated": [{"root": lam.to_json(), "class": c.to_json(fld)}
                         for lam, c in self.isolated],
            "spherical": [c.to_json(fld) for c in self.spherical],
            "anomalies": [{"class": c.to_json(fld), "reason": reason}
                          for c, reason in self.anomalies],
        }


def _in_class(cls: ConjClass, lam: Octonion) -> Octonion:
    """lam if cls.matches it; else NotInRMR stating the gap."""
    if cls.matches(lam):
        return lam
    raise NotInRMR("candidate -E^-1 G is off its class: residual "
                   f"{float(cls.gap(lam)):.3e} > threshold "
                   f"{float(lam.params.field.class_tol):.3e}")


def _class_root(f: OPolynomial, cls: ConjClass) -> Octonion | None:
    """The class rule: a central {r} holds r unless f(r) fails the root
    rule, as (c f)(r) = c f(r); a sphere (E = G = 0) holds every member
    (None); else -E^-1 G, if it lies in the class at class_tol.  A class
    that holds no root of any scalar multiple raises NotInRMR."""
    if cls.central:
        return _evaluated_root(f, Octonion.scalar(f.params, cls.r),
                               f.params.field.residual_tol,
                               "central class: candidate fails evaluation")
    red = _reduction(f, cls)
    if _whole_class(f, red):
        return None
    return _in_class(cls, red.E.class_root(red.G, lambda: red.Einv))


def roots(f: OPolynomial) -> RootSet:
    """The root set of f, organized by companion conjugacy class.  An exact
    class root lam = -E^-1 G in its class is a root: there f(lam) = E lam +
    G (by Artin's theorem lam, a_t associate) and E(E^-1 G) = G by x(conj(x)
    y) = n(x) y.  Real roots and a central {r} (on a split algebra, n(f(r))
    = 0 allows f(r) != 0) take the point rule."""
    if f.degree < 1:  # the zero polynomial has degree -1
        raise InvalidInput("need a nonzero polynomial of degree >= 1")
    found = {"isolated": [], "spherical": [], "anomalies": []}
    for cls in rmr_classes(f):
        try:
            lam = _class_root(f, cls)
            if lam is None:
                found["spherical"].append(cls)
                continue
            if not cls.central:
                cls = lam.own_class(cls, lambda: _evaluated_root(
                    f, lam, f.params.field.residual_tol))
            found["isolated"].append((lam, cls))
        except NotInRMR as exc:
            found["anomalies"].append((cls, str(exc)))
    return RootSet(**{k: tuple(v) for k, v in found.items()})


# ---------------------------------------------------------------------------
# RMR: roots of right scalar multiples

def rmr_contains(f: OPolynomial, mu: Octonion) -> bool:
    """True exactly when rmr_witness(f, mu) finds a witness."""
    try:
        rmr_witness(f, mu)
    except NotInRMR:
        return False
    return True


def rmr_witness(f: OPolynomial, mu: Octonion) -> Octonion:
    """A scalar c with mu a root of f(x)*c, from the class rule on mu's
    class alone: c = 1 at a central mu, on a sphere or at its root lam =
    mu, else _conjugator(lam, mu)^-1.  Real mode checks the backward error
    |(f c)(mu)| <= witness_tol * sum_t |a_t c| |mu|^t, |x| = sqrt(size2),
    exact mode checks 0; a failure raises NotInRMR."""
    if f.degree < 1:
        raise InvalidInput("need a nonzero polynomial of degree >= 1")
    c = Octonion.one(f.params)
    if not mu.is_central():
        lam = _class_root(f, ConjClass(mu.trace(), mu.norm()))
        if lam is not None and lam != mu:
            try:  # lam matched mu's class in _class_root
                c = _conjugator(lam, mu).inverse()
            except NotConjugate as exc:
                raise NotInRMR("the class of mu holds no root: "
                               + str(exc)) from exc
    _evaluated_root(f.scale_right(c), mu, f.params.field.witness_tol,
                    "witness verification failed")
    return c


def multiple_root(f: OPolynomial, cls: ConjClass, c: Octonion,
                  side: str) -> Octonion:
    """The root, inside the given class, of f(x)*c (side='right') or of
    c*f(x) (side='left'); bracketing follows the reduction identities.
    It has the trace and norm of -E^-1 G, so a class holding no root
    raises NotInRMR stating the gap."""
    red = _reduction(f, cls)
    if _whole_class(f, red):
        raise WholeClass("E = 0: the whole class consists of roots")
    if side not in ("left", "right"):
        raise InvalidInput("side must be 'left' or 'right'")
    return _in_class(cls, red.E.multiple_root(red.G, c, side == "left",
                                              lambda: red.Einv))


# ---------------------------------------------------------------------------
# LMR: roots of left scalar multiples

@dataclass(frozen=True)
class LMRClassDescription:
    f: OPolynomial  # the polynomial whose left multiples are described
    cls: ConjClass
    kind: str  # "whole-class" | "single-point" | "parametrized"
    point: Octonion | None = None
    e_inv_g: Octonion | None = None
    g_e_inv: Octonion | None = None
    comm: Octonion | None = None  # [conj(G), E^-1]

    def to_json(self) -> dict:
        fld, out = self.f.params.field, {"kind": self.kind}
        if self.kind != "whole-class":
            out["class"] = self.cls.to_json(fld)
        if self.point is not None:
            out["point"] = self.point.to_json()
        if self.e_inv_g is not None:
            out["EinvG"] = self.e_inv_g.to_json()
            out["GEinv"] = self.g_e_inv.to_json()
            out["commNorm"] = fld.to_json(self.comm.norm())
        return out


def lmr_describe_class(f: OPolynomial, cls: ConjClass) -> LMRClassDescription:
    """LMR description of one conjugacy class by the class rule: a sphere
    is whole, a central class {r} is its point r, and a class that holds
    no root of any c f raises NotInRMR."""
    lam = _class_root(f, cls)
    if lam is None:
        return LMRClassDescription(f, cls, "whole-class")
    if not cls.central:
        red, tol = _reduction(f, cls), f.params.field.class_tol
        e_inv_g, g_e_inv = -lam, red.G * red.Einv
        comm = e_inv_g - g_e_inv  # [conj G, E^-1], as Re G is central
        size = tol and math.sqrt(red.Einv.size2() * red.G.size2())
        if not comm.negligible(tol, size):  # against |E^-1| |G|; 0 at tol 0
            return LMRClassDescription(f, cls, "parametrized", e_inv_g=e_inv_g,
                                       g_e_inv=g_e_inv, comm=comm)
    return LMRClassDescription(f, cls, "single-point", point=lam)


def lmr_describe(f: OPolynomial) -> list:
    return [lmr_describe_class(f, cls) for cls in rmr_classes(f)]


def lmr_sample_detailed(desc: LMRClassDescription, count: int,
                        seed: int = 0) -> list:
    """count tuples (a, b, c, point) of a parametrized description: c from
    8 seeded coordinates (Field.draw), kept when anisotropic at 1/8 (every
    c != 0 on a definite algebra), a and b its quaternion halves,
    c = a + b*l, and point the root -(c E)^-1 (c G) of c*f in the class."""
    _require_count(count)
    if desc.kind != "parametrized":
        raise InvalidInput("sampling by multipliers needs a parametrized "
                           f"class, got {desc.kind}")
    P, rng, out = desc.f.params, random.Random(seed), []
    while len(out) < count:
        cs = P.field.draw(rng, 4, 2)
        c = Octonion.make(P, cs)
        if c.anisotropic(1 / 8, 0):
            out.append((Octonion.make(P, cs[:4]), Octonion.make(P, cs[4:]),
                        c, multiple_root(desc.f, desc.cls, c, "left")))
    return out


def _require_count(count: int) -> None:
    if count < 0:
        raise InvalidInput(f"sample count must be >= 0, got {count}")


def lmr_sample(desc: LMRClassDescription, count: int, seed: int = 0) -> list:
    _require_count(count)
    if desc.kind == "single-point":
        return [desc.point] * count
    if desc.kind == "whole-class":
        raise InvalidInput("whole-class descriptions are sampled by "
                           "sampling the conjugacy class itself")
    return [p for _, _, _, p in lmr_sample_detailed(desc, count, seed)]


def lmr_contains(desc: LMRClassDescription, mu: Octonion) -> bool:
    """Whether mu, in desc's class, is a root of some c*f(x), c != 0, for
    f = desc.f: lmr_singular."""
    return desc.cls.matches(mu) and lmr_singular(desc.f, mu)


def lmr_singular(f: OPolynomial, mu: Octonion) -> bool:
    """Whether mu is a root of some c*f(x), c != 0: the class rule on a
    non-central mu's class, then rmr_witness's rule on c -> (c f)(mu) =
    (c E) mu + c G, sigma_min(R(mu) R(E) + R(G)) <= witness_tol * sum_t
    |a_t| |mu|^t (|f(mu)| at a central mu).  Real mode, definite algebras
    only: on a split one a singular matrix may have only isotropic
    kernel vectors."""
    mu.params.require_real_definite("lmr_contains")
    cls = ConjClass(mu.trace(), mu.norm())
    if not mu.is_central():
        try:
            _class_root(f, cls)
        except NotInRMR:
            return False
    R = mu.params.table.right_matrix
    red = _reduction(f, cls)
    with np.errstate(over="ignore", invalid="ignore"):
        M = R(mu.coords) @ R(red.E.coords) + R(red.G.coords)
    if not np.isfinite(M).all():
        raise InvalidInput("R(mu) R(E) + R(G) is beyond float range")
    sigma_min = np.linalg.svd(M, compute_uv=False)[-1]
    scale = _eval_scale(f, math.sqrt(mu.size2()))
    limit = f.params.field.witness_tol * scale
    if not limit < math.inf:  # inf or nan: any sigma_min would pass
        raise InvalidInput(f"threshold {limit:.3e} is beyond float range")
    return bool(sigma_min <= limit)


def class_member(cls: ConjClass, params, rng) -> Octonion:
    """Random member of a (real-mode) conjugacy class: T/2 + rho*u with u a
    random unit pure-imaginary direction and rho^2 = N - T^2/4."""
    if cls.central:
        return Octonion.scalar(params, cls.r)
    params.field.require_real("random class members need real mode")
    disc = float(cls.N) - float(cls.T) ** 2 / 4
    if disc < 0:
        raise InvalidInput("isotropic class in real mode")
    while True:
        dirv = Octonion.make(params, [0] + [rng.uniform(-1, 1)
                                            for _ in range(7)])
        if dirv.norm() > 1e-6:
            break
    u = dirv / dirv.abs()
    return Octonion.scalar(params, cls.T / 2) + u * (disc ** 0.5)

"""The library's worked reference examples, each with its expected answer.

This table is the one place where an example's answer is written: ``ocpoly
selftest`` prints it, and the acceptance criteria assert its checks by id.
An exact answer passes when its text is the expected text.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .algebra import AlgebraParams, Octonion, random_octonion
from .dynamics import (classify_fixed, classify_pseudo_periodic, cycle_factor,
                       detect_pseudo_period, fixed_points,
                       verify_composition_fixed)
from .opoly import OPolynomial, parse_opolynomial
from .roots import (ConjClass, lmr_contains, lmr_describe_class,
                    multiple_root, reduce_linear, rmr_classes, rmr_contains,
                    rmr_witness, roots)
from .scalars import EXACT, REAL


def _text(items) -> str:
    return ", ".join(map(str, items))


def _root_text(r) -> str:
    """The isolated roots of a RootSet, sorted, then its spheres."""
    return _text(sorted(str(lam) for lam, _ in r.isolated)
                 + [f"sphere ({c.T}, {c.N})" for c in r.spherical])


def run_selftest() -> list:
    """Run all checks; returns (check_id, expected, got, ok) tuples."""
    P, PR = AlgebraParams.octonions(EXACT), AlgebraParams.octonions(REAL)
    _, i, j, k, l = (Octonion.basis(P, a) for a in range(5))
    f_quad = parse_opolynomial("x^2 + ix - ij + 1", P)
    f_lin = parse_opolynomial("ix + j", P)
    cls01 = ConjClass(Fraction(0), Fraction(1))
    results = []

    def check(cid, expected, got, ok=None):
        ok = str(expected) == str(got) if ok is None else ok
        results.append((cid, str(expected), str(got), bool(ok)))

    check("algebra.l_squared", "-1", l * l)

    # the quadratic example: its companion, classes (none central),
    # reductions, roots and their exactly zero residuals
    check("opoly.companion", "2, 0, 3, 0, 1", _text(f_quad.companion().coeffs))
    check("roots.rmr_classes", "(0, 1), (0, 2)", _text(sorted(
        f"central {c.r}" if c.central else f"({c.T}, {c.N})"
        for c in rmr_classes(f_quad))))
    for N, want in ((1, "E = i, G = -k"), (2, "E = i, G = -1 - k")):
        red = reduce_linear(f_quad, ConjClass(Fraction(0), Fraction(N)))
        check(f"roots.reduce[0,{N}]", want, f"E = {red.E}, G = {red.G}")
    rquad = roots(f_quad)
    check("roots.quadratic", "-i + j, j", _root_text(rquad))
    check("roots.quadratic_residuals", "0, 0",
          _text(f_quad.eval(lam) for lam, _ in rquad.isolated))

    # the linear example, its root ij = k, and its multiples by l, whose
    # single root is -k on either side
    right, left = f_lin.scale_right(l), f_lin.scale_left(l)
    check("opoly.scale_right", "(il)x + (jl)", right)
    check("opoly.scale_left", "(-il)x + (-jl)", left)  # li = -il, lj = -jl
    for name, g, lam in (("linear", f_lin, k), ("right_multiple", right, -k),
                         ("left_multiple", left, -k)):
        check(f"opoly.{name}_root", "0", g.eval(lam))
        check(f"roots.{name}", lam, _root_text(roots(g)))
    check("roots.rmr_contains", True, rmr_contains(f_lin, -k))
    check("roots.rmr_witness", "0",
          f_lin.scale_right(rmr_witness(f_lin, -k)).eval(-k))
    check("roots.multiple_root_right", "-k",
          multiple_root(f_lin, cls01, l, "right"))

    # LMR of the quadratic example on [j]: its description, then members
    # and non-members in real mode; (i + j)/sqrt 2 lies in the class, and
    # 0.9(j + l), of norm 1.62, off it
    desc = lmr_describe_class(f_quad, cls01)
    check("lmr.describe[0,1]", "parametrized, EinvG -j, GEinv j, commNorm 4",
          f"{desc.kind}, EinvG {desc.e_inv_g}, GEinv {desc.g_e_inv}, "
          f"commNorm {desc.comm.norm()}")
    _, ir, jr, _, lr = (Octonion.basis(PR, a) for a in range(5))
    descr = lmr_describe_class(OPolynomial.from_json(f_quad.to_json(), REAL),
                               ConjClass(0.0, 1.0))
    for name, pt, member in (
            ("j", jr, True), ("-j", -jr, True), ("l", lr, True),
            ("(i + j)/sqrt 2", (ir + jr) * (1 / math.sqrt(2)), False),
            ("0.9(j + l)", jr * 0.9 + lr * 0.9, False)):
        check(f"lmr.contains[{name}]", member, lmr_contains(descr, pt))

    # x^2 + ix - i/2 - 1/4 fixes -i/2 with M = 1 and m = 0
    f5 = parse_opolynomial("x^2 + ix + (-1/2 i - 1/4)", P)
    check("dyn.composition_fixed", True,
          verify_composition_fixed(f5, i * Fraction(-1, 2), 3))
    f5, alpha = OPolynomial.from_json(f5.to_json(), REAL), ir * -0.5
    check("dyn.fixed_point", True,
          any(lam.isclose(alpha) for lam, _ in fixed_points(f5).isolated))
    rep = classify_fixed(f5, alpha)
    check("dyn.M", 1.0, rep.M, abs(rep.M - 1.0) <= 1e-12)
    check("dyn.m", 0.0, rep.m, abs(rep.m) <= 1e-12)
    check("dyn.verdict", "ambivalent", rep.verdict)

    # x^2 attracts at 0 and repels at 1; x^2 - 1 cycles 0 -> -1 -> 0
    sq = parse_opolynomial("x^2", PR)
    for a, want in ((0, "attracting"), (1, "repelling")):
        check(f"dyn.x_squared[{a}]", want,
              classify_fixed(sq, Octonion.scalar(PR, a)).verdict)
    sq1, zero = parse_opolynomial("x^2 - 1", PR), Octonion.zero(PR)
    check("dyn.cycle_period", 2, detect_pseudo_period(sq1, zero, 32))
    cyc = classify_pseudo_periodic(sq1, zero, 2)
    check("dyn.cycle_verdict", "attracting", cyc.verdict)
    check("dyn.cycle_product", 0.0, cyc.product, abs(cyc.product) <= 1e-12)

    # B = 0 recovers the multiplier: prod sqrt(M_i) = prod |2 alpha_i| on
    # 50 seeded cycles of 1 to 4 points; got is the largest relative gap
    rng, worst = random.Random(1234), 0.0
    for _ in range(50):
        pts = [random_octonion(PR, rng, span=2)
               for _ in range(rng.randint(1, 4))]
        lhs = math.prod(math.sqrt(cycle_factor(a, zero)) for a in pts)
        rhs = math.prod(2 * float(a.abs()) for a in pts)
        worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    check("dyn.multiplier_B0", "<= 1e-12", f"{worst:.1e}", worst <= 1e-12)
    return results

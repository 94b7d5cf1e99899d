"""Built-in checks reproducing the library's worked reference examples.

Each check returns (expected, got, ok); the CLI prints them as a table and
fails loudly if any entry is off.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import AlgebraParams, Octonion
from .dynamics import (classify_fixed, cycle_factor, fixed_points,
                       verify_composition_fixed)
from .opoly import OPolynomial
from .roots import (ConjClass, lmr_contains, lmr_describe_class,
                    multiple_root, reduce_linear, rmr_contains, rmr_witness,
                    roots)
from .scalars import EXACT, REAL, central_roots


def run_selftest() -> list:
    """Run all checks; returns (check_id, expected, got, ok) tuples."""
    P = AlgebraParams.octonions(EXACT)
    one, i, j, k, l = (Octonion.basis(P, a) for a in range(5))
    f_quad = OPolynomial.make(P, [one - k, i, one])     # x^2 + ix - ij + 1
    f_lin = OPolynomial.make(P, [j, i])                 # ix + j
    results = []

    def check(cid, expected, got, ok=None):
        if ok is None:
            ok = str(expected) == str(got)
        results.append((cid, str(expected), str(got), bool(ok)))

    # doubling unit squares to gamma
    check("algebra.l_squared", "-1", l * l, (l * l).isclose(-one))

    # companion polynomial of the quadratic example
    comp = f_quad.companion()
    check("opoly.companion", "(2) + (3)x^2 + (1)x^4", comp)

    # its conjugacy classes
    classes = sorted((c.T, c.N) for c in central_roots(comp)
                     if not c.central)
    check("scalar.companion_classes",
          [(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))], classes)

    # linear reduction on the class (0, 1)
    red = reduce_linear(f_quad, ConjClass(Fraction(0), Fraction(1)))
    check("roots.reduce_E", "i", red.E, red.E.isclose(i))
    check("roots.reduce_G", "-k", red.G, red.G.isclose(-k))

    # linear example and its scalar multiples
    check("opoly.eval_linear", "0", f_lin.eval(k), f_lin.eval(k).is_zero())
    right = f_lin.scale_right(l)
    left = f_lin.scale_left(l)
    check("opoly.scale_right", "(il)x + (jl)", right)
    check("opoly.scale_left", "(li)x + (lj)", left,
          left.coeff(1).isclose(l * i) and left.coeff(0).isclose(l * j))
    check("opoly.right_multiple_root", "0", right.eval(-k),
          right.eval(-k).is_zero())
    check("opoly.left_multiple_root", "0", left.eval(-k),
          left.eval(-k).is_zero())

    # root sets
    rlin = roots(f_lin)
    check("roots.linear", "k", rlin.isolated[0][0],
          len(rlin.isolated) == 1 and rlin.isolated[0][0].isclose(k))
    check("roots.rmr_contains", True, rmr_contains(f_lin, -k))
    wit = rmr_witness(f_lin, -k)
    check("roots.rmr_witness", "0", f_lin.scale_right(wit).eval(-k),
          f_lin.scale_right(wit).eval(-k).is_zero())
    mr = multiple_root(f_lin, ConjClass(Fraction(0), Fraction(1)), l, "right")
    check("roots.multiple_root_right", "-k", mr, mr.isclose(-k))

    rquad = roots(f_quad)
    got = sorted(str(lam) for lam, _ in rquad.isolated)
    check("roots.quadratic", ["-i + j", "j"], got)

    # LMR of the quadratic example on [j]
    desc = lmr_describe_class(f_quad, ConjClass(Fraction(0), Fraction(1)))
    check("lmr.kind", "parametrized", desc.kind)
    check("lmr.EinvG", "-j", desc.e_inv_g, desc.e_inv_g.isclose(-j))
    check("lmr.commNorm", "4", desc.comm.norm(), desc.comm.norm() == 4)
    # endpoints and the mid-sphere point in real mode
    PR = AlgebraParams.octonions(REAL)
    fr = OPolynomial.from_json(f_quad.to_json(), REAL)
    descr = lmr_describe_class(fr, ConjClass(0.0, 1.0))
    jr = Octonion.basis(PR, 2)
    lr = Octonion.basis(PR, 4)
    for name, pt in (("j", jr), ("-j", -jr), ("l", lr)):
        check(f"lmr.contains[{name}]", True, lmr_contains(descr, pt))

    # fixed-point classification of x^2 + ix - 1/2 i - 1/4 at alpha = -i/2
    ir = Octonion.basis(PR, 1)
    oner = Octonion.one(PR)
    f5 = OPolynomial.make(PR, [ir * (-0.5) - oner * 0.25, ir, oner])
    alpha = ir * (-0.5)
    fp = fixed_points(f5)
    check("dyn.fixed_point", True,
          any(lam.isclose(alpha) for lam, _ in fp.isolated))
    rep = classify_fixed(f5, alpha)
    check("dyn.M", 1.0, rep.M, abs(rep.M - 1.0) < 1e-12)
    check("dyn.m", 0.0, rep.m, abs(rep.m) < 1e-12)
    check("dyn.verdict", "ambivalent", rep.verdict)
    f5e = OPolynomial.make(P, [i * Fraction(-1, 2) - one * Fraction(1, 4),
                               i, one])
    alpha_e = i * Fraction(-1, 2)
    check("dyn.composition_fixed", True,
          verify_composition_fixed(f5e, alpha_e, 3))

    # B = 0 recovers the multiplier: sqrt(M_i) = |2 alpha_i|
    import random
    rng = random.Random(7)
    zero_r = Octonion.zero(PR)
    ok = True
    for _ in range(20):
        a = Octonion.make(PR, [rng.uniform(-2, 2) for _ in range(8)])
        lhs = math.sqrt(cycle_factor(a, zero_r))
        rhs = 2 * math.sqrt(float(a.norm()))
        ok = ok and abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
    check("dyn.multiplier_B0", True, ok)

    return results

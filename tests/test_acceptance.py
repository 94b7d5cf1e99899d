"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible even under pytest's output capture) so a full run doubles as a
checklist.  The expected answers of the worked examples are written once,
in the self-test table (``ocpoly.selftest``); criteria 1, 2, 7 and 8 and
the reference block of criterion 4 assert its checks by id.
"""

import contextlib
import dataclasses
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ocpoly.algebra import AlgebraParams, Octonion, random_octonion
from ocpoly.cli import EXIT_SELFTEST, main
from ocpoly.dynamics import (classify_fixed, direction_ratio,
                             verify_composition_fixed)
from ocpoly.opoly import OPolynomial
from ocpoly.render import SliceSpec, escape_steps
from ocpoly.roots import (ConjClass, lmr_contains, lmr_describe_class,
                          lmr_sample_detailed, reduce_linear, rmr_classes,
                          rmr_witness, roots)
from ocpoly.scalars import EXACT, REAL
from ocpoly.selftest import run_selftest

from doubling import lmr_closed_form


@contextlib.contextmanager
def criterion(capsys, num, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL  criterion {num}: {label}")
        raise
    dt = time.perf_counter() - t0
    with capsys.disabled():
        print(f"PASS  criterion {num}: {label} ({dt:.2f} s)")


def exact_setup():
    P = AlgebraParams.octonions(EXACT)
    one = Octonion.one(P)
    i, j, k, l = (Octonion.basis(P, a) for a in (1, 2, 3, 4))
    return P, one, i, j, k, l


def real_setup():
    PR = AlgebraParams.octonions(REAL)
    one = Octonion.one(PR)
    i, j, k, l = (Octonion.basis(PR, a) for a in (1, 2, 3, 4))
    return PR, one, i, j, k, l


def assert_checks(*ids):
    """Assert that the self-test checks of these ids pass.  An id that no
    check has fails, so a renamed check cannot pass unread."""
    table = {cid: (want, got, ok) for cid, want, got, ok in run_selftest()}
    unknown = [cid for cid in ids if cid not in table]
    assert not unknown, f"no self-test check has the id {unknown}"
    failed = {cid: table[cid][:2] for cid in ids if not table[cid][2]}
    assert not failed, f"failed checks, (expected, got): {failed}"


def test_criterion_1_reference_quadratic(capsys):
    with criterion(capsys, 1, "reference quadratic, exact mode, < 1 s"):
        t0 = time.perf_counter()
        assert_checks("opoly.companion", "roots.rmr_classes",
                      "roots.reduce[0,1]", "roots.quadratic",
                      "roots.quadratic_residuals")
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_linear_examples(capsys):
    with criterion(capsys, 2, "linear example and its scalar multiples"):
        assert_checks("roots.linear", "roots.right_multiple",
                      "roots.left_multiple")


def test_criterion_3_rmr_theorem(capsys):
    with criterion(capsys, 3, "right-multiple root classes, 5 polynomials "
                              "x 200 scalars, < 10 s"):
        t0 = time.perf_counter()
        PR, one, i, j, k, l = real_setup()
        rng = random.Random(0xC0FFEE)
        for poly_idx in range(5):
            deg = rng.randint(1, 3)
            coeffs = [random_octonion(PR, rng) for _ in range(deg)]
            coeffs.append(Octonion.one(PR))
            f = OPolynomial.make(PR, coeffs)
            scale = 1 + max(float(c.abs()) for c in coeffs)
            classes = rmr_classes(f)

            # every root of f*c stays inside the class list of f
            for _ in range(200):
                c = random_octonion(PR, rng)
                if float(c.abs()) < 0.1:
                    continue
                fc = f.scale_right(c)
                for lam, _ in roots(fc).isolated:
                    T, N = float(lam.trace()), float(lam.norm())
                    assert any(abs(float(cl.T) - T) <= 1e-8 * scale
                               and abs(float(cl.N) - N) <= 1e-8 * scale
                               for cl in classes)

            # conversely, every conjugate of a root admits a witness
            for lam, _ in roots(f).isolated:
                for _ in range(200):
                    q = random_octonion(PR, rng)
                    if float(q.abs()) < 0.1:
                        continue
                    mu = (q * lam) * q.inverse()
                    c = rmr_witness(f, mu)
                    resid = float(f.scale_right(c).eval(mu).abs())
                    assert resid < 1e-8 * scale
        assert time.perf_counter() - t0 < 10.0


def test_criterion_4_lmr_cross_validation(capsys):
    with criterion(capsys, 4, "left-multiple root set vs point formula, "
                              "1000 exact samples, < 10 s"):
        t0 = time.perf_counter()
        P, one, i, j, k, l = exact_setup()
        rng = random.Random(7)

        def check_samples(f, cls, count, seed, closed_form=False):
            """Every sample point lies in cls, is a root of its c f and a
            member by real-mode lmr_contains; on a class whose E and G
            are quaternions it is the paper's closed form in c = a + b*l."""
            desc = lmr_describe_class(f, cls)
            if desc.kind != "parametrized":
                return 0
            red = reduce_linear(f, cls)
            fr = OPolynomial.from_json(f.to_json(), REAL)
            descr = lmr_describe_class(
                fr, ConjClass(float(cls.T), float(cls.N)))
            PR = fr.params
            n = 0
            for a, b, c, pt in lmr_sample_detailed(desc, count, seed=seed):
                assert (pt.trace(), pt.norm()) == (cls.T, cls.N)
                assert f.scale_left(c).eval(pt).is_zero()
                if closed_form:
                    assert pt == lmr_closed_form(red.E, red.G, a, b)
                ptr = Octonion.make(PR, [float(v) for v in pt.coords])
                assert lmr_contains(descr, ptr)
                n += 1
            return n

        f0 = OPolynomial.make(P, [one - k, i, one])
        cls0 = ConjClass(Fraction(0), Fraction(1))
        total = check_samples(f0, cls0, 200, seed=1, closed_form=True)

        # quadratics built from rational linear factors, so the class data
        # of the right root is known without factoring anything
        built = 0
        while built < 5:
            lam = random_octonion(P, rng)
            mu = random_octonion(P, rng)
            if lam.is_central():
                continue
            f = (OPolynomial.make(P, [-mu, Octonion.one(P)])
                 * OPolynomial.make(P, [-lam, Octonion.one(P)]))
            assert f.eval(lam).is_zero()
            n = check_samples(f, ConjClass(lam.trace(), lam.norm()),
                              160, seed=built + 2)
            if n:
                built += 1
                total += n
        assert total >= 1000

        # checkpoints on and off the reference class's set, real mode
        assert_checks("lmr.contains[j]", "lmr.contains[-j]",
                      "lmr.contains[l]", "lmr.contains[(i + j)/sqrt 2]",
                      "lmr.contains[0.9(j + l)]")
        assert time.perf_counter() - t0 < 10.0


def test_criterion_5_algebra_properties(capsys):
    with criterion(capsys, 5, "algebra laws over 10^4 exact octonions"):
        P, one, i, j, k, l = exact_setup()
        rng = random.Random(0xBEEF)

        def draw():
            return Octonion.make(P, [rng.randint(-9, 9) for _ in range(8)])

        drawn = 0
        for _ in range(2500):        # quadratic identity
            z = draw()
            drawn += 1
            lhs = z * z - z.trace() * z + Octonion.scalar(P, z.norm())
            assert lhs.is_zero()
        for _ in range(1500):        # norm multiplicativity
            x, y = draw(), draw()
            drawn += 2
            assert (x * y).norm() == x.norm() * y.norm()
        for _ in range(1000):        # alternativity
            x, y = draw(), draw()
            drawn += 2
            assert ((x * x) * y).isclose(x * (x * y))
            assert ((y * x) * x).isclose(y * (x * x))
        for _ in range(900):         # all three Moufang laws
            x, y, z = draw(), draw(), draw()
            drawn += 3
            assert ((z * x) * (y * z)).isclose(z * ((x * y) * z))
            assert (z * (x * (z * y))).isclose(((z * x) * z) * y)
            assert (((x * z) * y) * z).isclose(x * ((z * y) * z))
        assert drawn >= 10 ** 4

        # at least one nonassociative basis triple
        triples = [(a, b, c) for a in range(1, 8) for b in range(1, 8)
                   for c in range(1, 8)]
        assert any(not ((Octonion.basis(P, a) * Octonion.basis(P, b))
                        * Octonion.basis(P, c)).isclose(
                       Octonion.basis(P, a) * (Octonion.basis(P, b)
                                               * Octonion.basis(P, c)))
                   for a, b, c in triples)


def test_criterion_6_composition_fixed_points(capsys):
    with criterion(capsys, 6, "constructed fixed points survive composition "
                              "powers; composition != substitution"):
        P, one, i, j, k, l = exact_setup()
        rng = random.Random(0xFACE)
        for _ in range(100):
            alpha = random_octonion(P, rng)
            B = random_octonion(P, rng)
            C = alpha - alpha * alpha - B * alpha
            f = OPolynomial.monic_quadratic(B, C)
            assert f.eval(alpha).isclose(alpha)
            assert verify_composition_fixed(f, alpha, 3)

        # seeded search for a point where the two iteration notions differ
        found = False
        for _ in range(50):
            f = OPolynomial.make(P, [random_octonion(P, rng)
                                     for _ in range(2)]
                                 + [Octonion.one(P)])
            lam = random_octonion(P, rng)
            if not f.iterate_comp(2).eval(lam).isclose(
                    f.iterate_sub(lam, 2)):
                found = True
                break
        assert found


def test_criterion_7_fixed_point_classification(capsys):
    with criterion(capsys, 7, "growth-bound classification and empirical "
                              "direction behavior"):
        assert_checks("dyn.M", "dyn.m", "dyn.verdict", "dyn.x_squared[0]",
                      "dyn.x_squared[1]")
        PR, one, i, j, k, l = real_setup()
        f5 = OPolynomial.make(PR, [i * (-0.5) - one * 0.25, i, one])
        alpha = i * (-0.5)
        # a strongly contracting direction exists, while the j-plane
        # realizes the unit bound
        assert direction_ratio(f5, alpha, i, 1e-4) < 1.0
        assert direction_ratio(f5, alpha, j, 1e-4) >= 1 - 1e-6

        # x^2 attracts at 0 and repels at 1: nearby starts move in and out
        sq = OPolynomial.monic_quadratic(Octonion.zero(PR),
                                         Octonion.zero(PR))
        rng = random.Random(5150)
        for _ in range(100):
            u = Octonion.make(PR, [rng.uniform(-1, 1) for _ in range(8)])
            if float(u.abs()) < 1e-6:
                continue
            z0 = u * (1e-3 / float(u.abs()))
            assert float(sq.eval(z0).abs()) < float(z0.abs())
            z1 = one + u * (1e-4 / float(u.abs()))
            assert float((sq.eval(z1) - one).abs()) > float((z1 - one).abs())


def test_criterion_8_pseudo_periodic(capsys):
    with criterion(capsys, 8, "pseudo-periodic detection and cycle bound"):
        # the 2-cycle of x^2 - 1, and with B = 0 the per-cycle bound
        # collapses to the classical multiplier product
        assert_checks("dyn.cycle_period", "dyn.cycle_verdict",
                      "dyn.cycle_product", "dyn.multiplier_B0")


def test_criterion_9_cli_and_renderer(capsys):
    with criterion(capsys, 9, "self-test suite and unit-disk escape image"):
        results = run_selftest()
        assert results and all(ok for _, _, _, ok in results)

        PR, one, i, j, k, l = real_setup()
        sq = OPolynomial.monic_quadratic(Octonion.zero(PR),
                                         Octonion.zero(PR))
        spec = SliceSpec(base=Octonion.zero(PR), dir_u=one, dir_v=i,
                         width=256, height=256, scale=4 / 256,
                         max_iter=50, escape_radius=2.0)
        steps = escape_steps(sq, spec)
        lat = spec.lattice().reshape(256, 256, 8)
        radius = np.sqrt(np.sum(lat * lat, axis=-1))
        inside = radius <= 1.0 - 1e-9
        outside = radius >= 1.0 + 1e-9
        agree = (np.sum(inside & (steps == 0))
                 + np.sum(outside & (steps > 0)))
        total = np.sum(inside) + np.sum(outside)
        assert agree / total >= 0.99


def test_assert_checks_refuses_an_unknown_id():
    assert_checks("roots.quadratic")
    with pytest.raises(AssertionError, match="no self-test check has"):
        assert_checks("roots.quadratic", "roots.no_such_check")


def test_planted_wrong_answers_fail_their_checks(monkeypatch, capsys):
    """The criteria read answers that the library computes, so a wrong one
    must turn its checks to FAIL: here roots() moves the first root of each
    set by 1, and classify_fixed() reports the wrong verdict."""
    def moved_roots(f):
        r = roots(f)
        (lam, cls), *rest = r.isolated
        moved = (lam + Octonion.one(f.params), cls)
        return dataclasses.replace(r, isolated=(moved, *rest))

    monkeypatch.setattr("ocpoly.selftest.roots", moved_roots)
    monkeypatch.setattr("ocpoly.selftest.classify_fixed", lambda f, a:
                        dataclasses.replace(classify_fixed(f, a),
                                            verdict="attracting"))
    failed = {cid for cid, _, _, ok in run_selftest() if not ok}
    assert failed == {"roots.quadratic", "roots.quadratic_residuals",
                      "roots.linear", "roots.right_multiple",
                      "roots.left_multiple", "dyn.verdict",
                      "dyn.x_squared[1]"}
    with pytest.raises(AssertionError, match="failed checks"):
        assert_checks("dyn.M", "dyn.verdict")
    assert main(["selftest"]) == EXIT_SELFTEST
    assert capsys.readouterr().out.count("FAIL") == len(failed)

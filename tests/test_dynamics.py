import math
import random
from fractions import Fraction

import pytest

from ocpoly.algebra import AlgebraParams, Octonion, random_octonion
from ocpoly.dynamics import (classify_fixed, classify_pseudo_periodic,
                             detect_pseudo_period, direction_ratio,
                             fixed_points, growth_bounds, orbit,
                             verify_composition_fixed)
from ocpoly.errors import InvalidInput, ModeMismatch, NotAFixedPoint
from ocpoly.opoly import OPolynomial, parse_opolynomial
from ocpoly.roots import rmr_witness
from ocpoly.scalars import EXACT, REAL, Field


def quad(params, B, C):
    return OPolynomial.monic_quadratic(B, C)


class TestFixedPoints:
    def test_x_squared(self, PR, basis_r):
        one, i, j, k, l = basis_r
        f = quad(PR, Octonion.zero(PR), Octonion.zero(PR))  # x^2
        fp = fixed_points(f)
        vals = sorted(float(lam.re()) for lam, _ in fp.isolated)
        assert vals == pytest.approx([0.0, 1.0], abs=1e-6)

    def test_reference_example(self, P):
        # real mode finds the exact fixed points of the self-test's example
        f = parse_opolynomial("x^2 + ix + (-1/2 i - 1/4)", P)
        exact, real = (sorted(x.coords for x, _ in fixed_points(g).isolated)
                       for g in (f, OPolynomial.from_json(f.to_json(), REAL)))
        assert real == [pytest.approx(x, abs=1e-9) for x in exact]

    def test_not_a_fixed_point(self, PR, basis_r):
        one, i, j, k, l = basis_r
        f = quad(PR, Octonion.zero(PR), Octonion.zero(PR))
        with pytest.raises(NotAFixedPoint):
            classify_fixed(f, i * 3)

    def test_nearly_real_fixed_point_kept(self, PR):
        # The companion has a near-double root here, so the class data is
        # off by more than 1e-8; the candidate is still a root of f(x) - x.
        C = Octonion.make(PR, [
            0.008226459527830965, 0.0014541289154326492,
            -0.00026601661989507494, 0.001634168405617116,
            0.00021392785621004475, 0.0014882057388733297,
            -0.00098081030956921, 7.237168880583735e-05])
        B = Octonion.make(PR, [
            1.1885513547940705, 0.012036889305851712,
            -0.00042925735921948635, 0.014160934223678728,
            0.0017407865174146001, 0.013157845509635741,
            -0.009246940135381583, -0.0001556355163535993])
        alpha = Octonion.make(PR, [
            -0.11943636623090592, 0.0012206405873443763,
            -0.002677674961537104, -0.0022067694570151192,
            0.0006964708213737053, -0.0011393026150209,
            0.002746972519063217, 0.001908407891816772])
        f = quad(PR, B, C)
        fp = fixed_points(f)
        assert not fp.anomalies
        assert any(lam.isclose(alpha, tol=1e-7) for lam, _ in fp.isolated)
        # each root's class is its own, so its conjugates are in the RMR
        g = f - OPolynomial.x(PR)
        j = Octonion.basis(PR, 2)
        for lam, _ in fp.isolated:
            rmr_witness(g, j * lam * j.inverse())

    def test_eps_sets_fixed_point_threshold(self):
        # a fixed point moved by 1e-7 leaves f(alpha) - alpha ~ 1.4e-7
        for eps, fixed in ((1e-9, False), (1e-5, True)):
            P = AlgebraParams(Field(exact=False, eps=eps), -1, -1, -1)
            one, i, j = (Octonion.basis(P, a) for a in (0, 1, 2))
            f = OPolynomial.make(P, [i * (-0.5) - one * 0.25, i, one])
            alpha = i * (-0.5) + j * 1e-7
            if fixed:
                assert classify_fixed(f, alpha).verdict == "ambivalent"
            else:
                with pytest.raises(NotAFixedPoint):
                    classify_fixed(f, alpha)


class TestClassification:
    def test_shifted_example(self, PR, basis_r):
        # x^2 + (1+i) has the fixed point i with M = 2, m = 0
        one, i, j, k, l = basis_r
        f = quad(PR, Octonion.zero(PR), one + i)
        rep = classify_fixed(f, i)
        assert rep.M == pytest.approx(2.0, abs=1e-12)
        assert rep.m == pytest.approx(0.0, abs=1e-12)
        assert rep.verdict == "ambivalent"

    def test_growth_bounds_formula(self, PR):
        rng = random.Random(11)
        for _ in range(50):
            alpha = Octonion.make(PR, [rng.uniform(-2, 2) for _ in range(8)])
            B = Octonion.make(PR, [rng.uniform(-2, 2) for _ in range(8)])
            M, m = growth_bounds(alpha, B)
            two_ab = alpha * 2 + B
            re_part = float(two_ab.re())
            im_sum = float((alpha + B).im().abs()) + float(alpha.im().abs())
            im_dif = abs(float((alpha + B).im().abs())
                         - float(alpha.im().abs()))
            assert M == pytest.approx(math.hypot(re_part, im_sum))
            assert m == pytest.approx(math.hypot(re_part, im_dif))
            assert M >= m >= 0

    def test_boundary_perturbation(self, PR, basis_r):
        # the reference ambivalent example sits exactly on M = 1; scaling
        # the linear coefficient gives M = 1 + eps and m = |eps| exactly,
        # so shrinking it tips the verdict to attracting while growing it
        # only loses the guarantee (m stays below 1)
        one, i, j, k, l = basis_r
        alpha = i * (-0.5)
        for eps, expected in ((-0.05, "attracting"), (0.05, "ambivalent")):
            B = i * (1 + eps)
            C = alpha - alpha * alpha - B * alpha
            rep = classify_fixed(quad(PR, B, C), alpha)
            assert rep.M == pytest.approx(1 + eps, abs=1e-12)
            assert rep.m == pytest.approx(abs(eps), abs=1e-12)
            assert rep.verdict == expected


class TestDirections:
    def test_reference_direction_split(self, PR, basis_r):
        one, i, j, k, l = basis_r
        f = OPolynomial.make(PR, [i * (-0.5) - one * 0.25, i, one])
        alpha = i * (-0.5)
        # along i the map contracts strongly at this scale
        assert direction_ratio(f, alpha, i, 1e-4) < 1e-2
        # along j (the plane where the bound M = 1 is attained) it does not
        assert direction_ratio(f, alpha, j, 1e-4) >= 1 - 1e-6


class TestComposition:
    def test_reference_composition_fixed(self, P, basis):
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [i * Fraction(-1, 2) - one * Fraction(1, 4),
                                 i, one])
        assert verify_composition_fixed(f, i * Fraction(-1, 2), 3)

    def test_constructed_quadratics(self, P, rng):
        # C := alpha - alpha^2 - B*alpha makes alpha a fixed point of
        # x^2 + Bx + C and of every composition power
        from ocpoly.algebra import random_octonion
        for _ in range(25):
            alpha = random_octonion(P, rng)
            B = random_octonion(P, rng)
            C = alpha - alpha * alpha - B * alpha
            f = quad(P, B, C)
            assert f.eval(alpha).isclose(alpha)
            assert verify_composition_fixed(f, alpha, 3)

    # the rounding of f^{o3}(alpha) grows like |alpha|^8: an absolute 1e-7
    # (1 + |alpha|) refused 93 of these at s = 2 (|alpha| about 16) and 199
    # at s = 4, at backward errors near 1e-16
    @pytest.mark.parametrize("s", [2, 4])
    def test_large_constructed_fixed_points(self, PR, s):
        rng = random.Random(11)
        for _ in range(200):
            alpha = random_octonion(PR, rng, span=4) * s
            B = random_octonion(PR, rng, span=4)
            f = quad(PR, B, alpha - alpha * alpha - B * alpha)
            assert verify_composition_fixed(f, alpha, 3)

    def test_wrong_composition_refused(self, PR, monkeypatch):
        """The point rule still refuses a composition that alpha does not
        solve: here f^{o2} gains the constant 1e-6."""
        f = parse_opolynomial("x^2 + ix + (-0.5 i - 0.25)", PR)
        alpha = Octonion.basis(PR, 1) * -0.5
        assert verify_composition_fixed(f, alpha, 2)
        comp = OPolynomial.iterate_comp
        monkeypatch.setattr(OPolynomial, "iterate_comp", lambda g, n: comp(
            g, n) + (1e-6 if n == 2 else 0))
        assert not verify_composition_fixed(f, alpha, 2)


class TestOrbits:
    def test_periodic_orbit(self, PR, basis_r):
        one, i, j, k, l = basis_r
        f = quad(PR, Octonion.zero(PR), -one)  # x^2 - 1
        rec = orbit(f, Octonion.zero(PR), 20)
        assert not rec.escaped
        assert rec.detected_period == 2
        assert detect_pseudo_period(f, Octonion.zero(PR), 20) == 2

    def test_preperiodic_orbit(self, PR, basis_r):
        # 1 -> 0 -> -1 -> 0: the revisit is to iterate 1, not to the start
        one, i, j, k, l = basis_r
        f = quad(PR, Octonion.zero(PR), -one)  # x^2 - 1
        rec = orbit(f, one, 20)
        assert not rec.escaped
        assert rec.detected_period == 2
        assert [float(x.re()) for x in rec.iterates] == [1.0, 0.0, -1.0, 0.0]

    def test_revisit_matches_pairwise_loop(self, PR):
        # reference: each iterate against every earlier one, subtract-and-norm
        rng = random.Random(7)
        tol = PR.field.fixed_tol
        periods = []
        for span in [0.1, 1.0] * 5:  # converging and escaping orbits
            C = Octonion.make(PR, [rng.uniform(-span, span) for _ in range(8)])
            start = Octonion.make(PR, [rng.uniform(-0.5, 0.5)
                                       for _ in range(8)])
            rec = orbit(quad(PR, Octonion.zero(PR), C), start, 60)
            its, period = rec.iterates, None
            for k in range(1, len(its)):
                hit = next((i for i in range(k) if (its[k] - its[i])
                            .negligible(tol, 1 + float(its[i].abs()))), None)
                if hit is not None:
                    period = k - hit
                    break
            assert (period, k) == (rec.detected_period, len(its) - 1)
            periods.append(period)
        assert 1 in periods and None in periods

    def test_escape(self, PR, basis_r):
        one, i, j, k, l = basis_r
        f = quad(PR, Octonion.zero(PR), Octonion.zero(PR))
        rec = orbit(f, one * 2, 200)
        assert rec.escaped
        assert len(rec.iterates) < 200

    def test_overflow_to_nan_escapes(self, PR, basis_r):
        # f(start) overflows to nan + inf i, which never compared as escaped
        one, i, j, k, l = basis_r
        f = OPolynomial.make(PR, [0, i, 1])  # x^2 + ix
        rec = orbit(f, (one + i) * 1e200, 5, escape_radius=1e300)
        assert rec.escaped and len(rec.iterates) == 2

    def test_no_period_at_i(self, PR, basis_r):
        one, i, j, k, l = basis_r
        f = quad(PR, Octonion.zero(PR), -one)
        assert detect_pseudo_period(f, i, 50) is None

    @pytest.mark.parametrize("radius", [-2.0, 0.0, math.nan, math.inf])
    def test_bad_escape_radius_refused(self, PR, radius):
        # at -2 the orbit of 0.5 under x^2 reported an escape at step 1,
        # at nan it never escaped
        f = quad(PR, Octonion.zero(PR), Octonion.zero(PR))
        with pytest.raises(InvalidInput, match="escape radius"):
            orbit(f, Octonion.one(PR) * 0.5, 20, escape_radius=radius)

    def test_storage_grows_with_the_orbit(self, PR):
        # n_max bounds the steps, not what is allocated before the first
        f = quad(PR, Octonion.zero(PR), Octonion.zero(PR))
        rec = orbit(f, Octonion.one(PR) * 0.5, 10 ** 12)
        assert rec.detected_period == 1 and len(rec.iterates) < 10

    def test_revisit_after_storage_grows(self, PR, basis_r):
        # x -> e^(2 pi i / 300) x: its first revisit, of the start, is at
        # step 300, after the revisit table has doubled twice
        one, i, j, k, l = basis_r
        turn = 2 * math.pi / 300
        rot = one * math.cos(turn) + i * math.sin(turn)
        f = OPolynomial.make(PR, [Octonion.zero(PR), rot])
        rec = orbit(f, one, 1000)
        assert rec.detected_period == 300 and not rec.escaped
        assert len(rec.iterates) == 301

    def test_csv_shape(self, PR, basis_r):
        one, i, j, k, l = basis_r
        f = quad(PR, Octonion.zero(PR), -one)
        rec = orbit(f, Octonion.zero(PR), 5)
        lines = rec.to_csv().strip().splitlines()
        assert lines[0].startswith("step,")
        assert len(lines[0].split(",")) == 10


class TestReturnRule:
    """f(alpha) = alpha, a pseudo-period and an orbit's revisit, judged
    alike at fixed_tol * (1 + |alpha|)."""

    def test_large_two_cycle(self, PR):
        # x^2 - 2e6: |f(f(alpha)) - alpha| = 7.9e-7, above fixed_tol
        f = OPolynomial.make(PR, [-2e6, 0, 1])
        alpha = Octonion.scalar(PR, (-1 + math.sqrt(7999997)) / 2)
        assert detect_pseudo_period(f, alpha, 4) == 2
        assert orbit(f, alpha, 10).detected_period == 2
        assert classify_pseudo_periodic(f, alpha, 2).n == 2

    def test_large_fixed_point(self, PR):
        # x^2 - 2e10: classify_fixed accepted the point that
        # detect_pseudo_period rejected, and the orbit escaped from it
        f = OPolynomial.make(PR, [-2e10, 0, 1])
        alpha = Octonion.scalar(PR, (1 + math.sqrt(1 + 8e10)) / 2)
        assert classify_fixed(f, alpha).verdict == "repelling"
        assert detect_pseudo_period(f, alpha, 1) == 1
        assert orbit(f, alpha, 10).detected_period == 1


class TestPseudoPeriodic:
    def test_attracting_cycle(self, PR, basis_r):
        # the self-test's attracting cycle 0 -> -1 -> 0 of x^2 - 1: two
        # steps bring every nearby start closer to 0
        one, i, j, k, l = basis_r
        f = quad(PR, Octonion.zero(PR), -one)
        rng = random.Random(44)
        for _ in range(50):
            u = random_octonion(PR, rng, span=1)
            z = u * (1e-3 / float(u.abs()))
            assert float(f.eval(f.eval(z)).abs()) < float(z.abs())

    def test_inconclusive_cycle(self, PR, basis_r):
        # 2-cycle of x^2 - 5/4 at the golden-ratio points: product > 1
        one, i, j, k, l = basis_r
        f = quad(PR, Octonion.zero(PR), one * -1.25)
        phi = (1 + math.sqrt(5)) / 2
        a = one * (phi - 1)  # ~0.618 -> -0.868... not a cycle; use exact one
        # the real 2-cycle of x^2 - 5/4 solves x^2 + x + (c+1) with c=-5/4:
        # x = (-1 +/- sqrt(1 - 4(c+1)))/2 = (-1 +/- sqrt(2))/2
        a = one * ((-1 + math.sqrt(2)) / 2)
        rep = classify_pseudo_periodic(f, a, 2)
        assert rep.verdict == "inconclusive"
        assert rep.product > 1

    def test_wrong_period(self, PR, basis_r):
        one, i, j, k, l = basis_r
        f = quad(PR, Octonion.zero(PR), -one)
        with pytest.raises(Exception):
            classify_pseudo_periodic(f, Octonion.zero(PR), 3)


class TestIndefiniteAlgebra:
    """Over (2, 3, 5) the norm form is indefinite: n(x) < 0 for some x, so
    sqrt(n(x)) is no size, and the real-mode dynamics refuse the algebra."""

    P = AlgebraParams(REAL, 2, 3, 5)

    def test_orbit_refused(self):
        P = self.P
        f = OPolynomial.make(P, [0.2, 0, 1])
        start = Octonion.make(P, [0.3, 0.05] + [0] * 6)
        # a revisit test by the signed norm would read step 1 as period 1
        for call in (detect_pseudo_period, orbit):
            with pytest.raises(InvalidInput, match="positive definite"):
                call(f, start, 50)
        # the orbit reaches n(x) < 0, where sqrt(n(x)) has no value
        g = OPolynomial.make(P, [Octonion.basis(P, 1) * 0.5, 0, 1])
        with pytest.raises(InvalidInput, match="positive definite"):
            orbit(g, Octonion.scalar(P, 0.1), 20)

    def test_pseudo_period_refused(self):
        """detect_pseudo_period takes sizes from the norm, as orbit does:
        real mode and a definite norm form."""
        f = OPolynomial.make(self.P, [0.2, 0, 1])
        with pytest.raises(InvalidInput, match="positive definite"):
            detect_pseudo_period(f, Octonion.zero(self.P), 5)
        P = AlgebraParams.octonions(EXACT)
        with pytest.raises(ModeMismatch, match="real-mode"):
            detect_pseudo_period(OPolynomial.make(P, [0, 0, 1]),
                                 Octonion.zero(P), 5)

    def test_classification_refused(self):
        P, i = self.P, Octonion.basis(self.P, 1)
        rng = random.Random(5)
        checked = 0
        for _ in range(50):
            f = OPolynomial.make(P, [random_octonion(P, rng, 1)
                                     for _ in range(2)] + [1])
            for alpha, _ in fixed_points(f).isolated:
                checked += 1
                for call in (lambda: classify_fixed(f, alpha),
                             lambda: classify_pseudo_periodic(f, alpha, 1),
                             lambda: direction_ratio(f, alpha, i, 1e-4)):
                    with pytest.raises(InvalidInput, match="definite"):
                        call()
        assert checked == 53


# the refusals that no other test reaches, each by its text
@pytest.mark.parametrize("call,error,text", [
    (lambda f, PR: fixed_points(OPolynomial.x(PR)), InvalidInput,
     "need a monic quadratic polynomial"),
    (lambda f, PR: verify_composition_fixed(f, Octonion.scalar(PR, 2), 2),
     NotAFixedPoint, "alpha is not fixed by f"),
    (lambda f, PR: orbit(f, Octonion.one(PR), 0), InvalidInput,
     "need n_max >= 1")],
    ids=["not-quadratic", "not-fixed", "no-steps"])
def test_refusals(PR, call, error, text):
    with pytest.raises(error, match=text):
        call(parse_opolynomial("x^2", PR), PR)


def test_fixed_point_beyond_float_range(PR):
    """1e200 has size2 inf, so f(alpha) = alpha passed isclose at scale
    1 + inf and growth_bounds died on an OverflowError; the threshold is
    refused instead."""
    f = parse_opolynomial("x^2", PR)
    with pytest.raises(InvalidInput, match="threshold inf"):
        classify_fixed(f, Octonion.scalar(PR, 1e200))

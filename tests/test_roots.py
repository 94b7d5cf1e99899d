import functools
import gc
import inspect
import math
import random
import re
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocpoly import scalars
from ocpoly.algebra import (AlgebraParams, Octonion, conjugating_element,
                            parse_octonion, random_octonion)
from ocpoly.errors import (InvalidInput, ModeMismatch, NoConvergence,
                           NotInRMR, OcpolyError, UnsupportedDegree,
                           WholeClass, WitnessFailure)
from ocpoly.opoly import OPolynomial, parse_opolynomial
from ocpoly.roots import (ConjClass, class_member, lmr_contains,
                          lmr_describe, lmr_describe_class, lmr_sample,
                          lmr_sample_detailed, lmr_singular, multiple_root,
                          reduce_linear, rmr_classes, rmr_contains,
                          rmr_witness, roots)
from ocpoly.scalars import EXACT, REAL

from doubling import cd_conj, cd_mul, lmr_closed_form


def test_import_binds_the_module():
    """The package namespace is its submodules: no function shadows one."""
    import ocpoly.roots as m
    assert inspect.ismodule(m) and m.roots is roots


def quad_example(P, basis):
    one, i, j, k, l = basis
    return OPolynomial.make(P, [one - k, i, one])


def real_twin(f):
    return OPolynomial.from_json(f.to_json(), REAL)


def assert_near_exact(real, exact):
    """The real elements lie, in order, within 1e-9 of the exact ones."""
    assert len(real) == len(exact)
    for x, y in zip(exact, real):
        assert y.coords == pytest.approx([float(c) for c in x.coords],
                                         abs=1e-9)


LAM = [0.5, -1, 2, 0, 0.25, 0, -0.75, 1]  # T = 1, N = 6.875

GAMMAS = ((-1, -1, -1), (2, 3, 5), (-2, 3, Fraction(-1, 2)),
          (Fraction(3, 7), -5, Fraction(2, 3)))


def eval_scale(g, mu):
    """sum_t |b_t| |mu|^t, sizes by sqrt(size2): the scale of the backward
    error of g(mu)."""
    size = math.sqrt(mu.size2())
    return sum(math.sqrt(b.size2()) * size ** t
               for t, b in enumerate(g.coeffs))


def reduce_by_terms(f, T, N):
    """E = sum a_t p_t and G = sum a_t q_t by octonion additions, term by
    term: the reference for reduce_linear."""
    fld = f.params.field
    p, q = fld.zero(), fld.one()
    E = G = Octonion.zero(f.params)
    for a in f.coeffs:
        E = E + a * p
        G = G + a * q
        p, q = T * p + q, -N * p
    return E, G


class TestLinearReduction:
    def test_reduction_invariant(self, PR, rng):
        # f and the reduced linear Ex + G agree on every class member
        py_rng = random.Random(rng.randint(0, 10 ** 9))
        for _ in range(100):
            f = OPolynomial.make(
                PR, [random_octonion(PR, py_rng) for _ in range(4)])
            if f.degree < 1:
                continue
            T = py_rng.uniform(-2, 2)
            cls = ConjClass(T, T * T / 4 + py_rng.uniform(0.1, 4))
            red = reduce_linear(f, cls)
            lam = class_member(cls, PR, py_rng)
            lhs = f.eval(lam)
            rhs = red.E * lam + red.G
            assert lhs.isclose(rhs, tol=1e-6)

    @pytest.mark.parametrize("gammas", GAMMAS)
    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    def test_matches_term_by_term_sums(self, gammas, field):
        params = AlgebraParams(field, *map(field.coerce, gammas))
        T, N = map(field.coerce, (Fraction(1, 3), Fraction(-7, 5)))
        rng = random.Random(7)
        for deg in range(6):
            f = OPolynomial.make(params, [random_octonion(params, rng)
                                          for _ in range(deg + 1)])
            red = reduce_linear(f, ConjClass(T, N))
            E, G = reduce_by_terms(f, T, N)
            if field.exact or sys.version_info < (3, 12):
                # the same sums in the same order: equal Fractions, and
                # the same floats bit for bit
                assert (red.E.coords, red.G.coords) == (E.coords, G.coords)
            else:  # sum() compensates float rounding from Python 3.12 on
                assert red.E.isclose(E, tol=1e-15)
                assert red.G.isclose(G, tol=1e-15)

    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    def test_zero_polynomial(self, field):
        params = AlgebraParams.octonions(field)
        red = reduce_linear(OPolynomial.zero(params),
                            ConjClass(field.coerce(0), field.coerce(1)))
        assert red.E == red.G == Octonion.zero(params)


class TestSharedReduction:
    """The calls on one (f, class) share one reduction: the last one made
    is remembered, and nothing is stored on f."""

    @staticmethod
    def counted_reductions(monkeypatch) -> list:
        """The classes of the reduce_linear calls made through the module
        attribute from now on."""
        import ocpoly.roots as roots_mod
        calls, true_reduce = [], roots_mod.reduce_linear

        def counted(f, cls):
            calls.append(cls)
            return true_reduce(f, cls)

        monkeypatch.setattr(roots_mod, "reduce_linear", counted)
        return calls

    @staticmethod
    def two_class_quadratic(P):
        """(x - i)(x - 2j): companion classes (0, 1) and (0, 4)."""
        one, i, j = (Octonion.basis(P, a) for a in range(3))
        return (OPolynomial.make(P, [-i, one])
                * OPolynomial.make(P, [-2 * j, one]))

    def test_lmr_and_multiple_roots_reduce_once(self, P, basis,
                                                monkeypatch):
        f = quad_example(P, basis)
        cls = ConjClass(Fraction(0), Fraction(1))
        calls = self.counted_reductions(monkeypatch)
        desc = lmr_describe_class(f, cls)
        samples = lmr_sample_detailed(desc, 4, seed=1)
        for _, _, c, pt in samples:
            assert multiple_root(f, cls, c, "left") == pt
        assert calls == [cls]

    def test_witness_reduces_its_class_only(self, P, monkeypatch):
        f = self.two_class_quadratic(P)
        assert [(c.T, c.N) for c in rmr_classes(f)] == [(0, 1), (0, 4)]
        calls = self.counted_reductions(monkeypatch)
        mu = 2 * Octonion.basis(P, 4)
        c = rmr_witness(f, mu)
        assert f.scale_right(c).eval(mu).is_zero()
        assert [(k.T, k.N) for k in calls] == [(0, 4)]

    def test_no_state_on_the_polynomial(self, P, PR):
        """Only real mode caches the sizes |a_t| its thresholds read."""
        for params, cached in ((P, set()), (PR, {"coeff_sizes"})):
            f = self.two_class_quadratic(params)
            l = Octonion.basis(params, 4)
            roots(f)
            rmr_witness(f, l)
            descs = lmr_describe(f)
            multiple_root(f, descs[0].cls, l, "left")
            assert set(vars(f)) - {"coeffs", "params"} == cached

    def test_one_polynomial_remembered(self, P, basis):
        cls = ConjClass(Fraction(0), Fraction(1))
        f = quad_example(P, basis)
        lmr_describe_class(f, cls)
        ref = weakref.ref(f)
        del f
        lmr_describe_class(self.two_class_quadratic(P), cls)
        gc.collect()
        assert ref() is None


class TestRoots:
    def test_quadratic_example(self, P, basis):
        # real mode finds the exact roots of the self-test's quadratic
        f = quad_example(P, basis)
        exact, real = roots(f), roots(real_twin(f))
        assert not real.spherical
        assert_near_exact(*(sorted((lam for lam, _ in r.isolated),
                                   key=lambda lam: lam.coords)
                            for r in (real, exact)))

    def test_spherical(self, P, basis):
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [one, Octonion.zero(P), one])  # x^2 + 1
        r = roots(f)
        assert not r.isolated
        assert len(r.spherical) == 1
        T, N = r.spherical[0].T, r.spherical[0].N
        assert (T, N) == (0, 1)

    def test_central_roots(self, P, basis):
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [-one, Octonion.zero(P), one])  # x^2 - 1
        r = roots(f)
        vals = sorted(float(lam.re()) for lam, _ in r.isolated)
        assert vals == [-1.0, 1.0]

    def test_residuals_random_real(self, PR, rng):
        py_rng = random.Random(4321)
        for _ in range(25):
            coeffs = [random_octonion(PR, py_rng) for _ in range(3)]
            coeffs.append(Octonion.one(PR))
            f = OPolynomial.make(PR, coeffs)
            scale = 1 + max(float(c.abs()) for c in coeffs)
            r = roots(f)
            for lam, _ in r.isolated:
                assert float(f.eval(lam).abs()) < 1e-6 * scale
            for cls in r.spherical:
                lam = class_member(cls, PR, py_rng)
                assert float(f.eval(lam).abs()) < 1e-6 * scale

    def test_repeated_sphere(self, PR):
        # (x^2 + 1)(x - j): the companion is (x^2 + 1)^3, one sphere of
        # multiplicity 3; each split iterate used to miss its class data
        j = Octonion.basis(PR, 2)
        f = OPolynomial.make(PR, [1, 0, 1]) * OPolynomial.make(PR, [-j, 1])
        r = roots(f)
        assert not r.isolated and not r.anomalies
        (cls,) = r.spherical
        assert (cls.T, cls.N, cls.multiplicity) == \
            (pytest.approx(0, abs=1e-12), pytest.approx(1, abs=1e-12), 3)

    def test_first_attempt_starts_at_companion_eigenvalues(
            self, PR, monkeypatch):
        # three Aberth steps are too few to converge from a poor start;
        # from the eigenvalues of the companion matrix they need none
        monkeypatch.setattr(scalars, "_MAX_ITER", 3)
        py_rng = random.Random(24)
        for k in range(40):
            g = OPolynomial.make(PR, [random_octonion(PR, py_rng)
                                      for _ in range(k % 3)] + [1])
            lam = random_octonion(PR, py_rng)
            r = roots(g * OPolynomial.make(PR, [-lam, 1]))
            assert any(mu.isclose(lam, 1e-6) for mu, _ in r.isolated)

    @pytest.mark.parametrize("g,lam,planted", [
        ([[1]], LAM, [(1, 6.875, 1)]),
        ([[1, 0, 0, 2], [1]], LAM, [(1, 6.875, 1)]),
        ([[3, 1], [0, 0, -1, 0, 1], [1]], LAM, [(1, 6.875, 1)]),
        ([[2], [-3], [1]], LAM, [(1, 6.875, 1), (2, 1, 2), (4, 4, 2)]),
        ([[5], [2], [1]], LAM, [(1, 6.875, 1), (-2, 5, 2)]),
        ([[1], [0], [1]], [0, 0, 1], [(0, 1, 3)])])
    def test_converging_path_builds_no_polynomial(self, PR, monkeypatch, g,
                                                  lam, planted):
        """g(x)(x - lam) at degree 1-3, s(x)(x - lam) with s real quadratic
        (double clusters) and (x^2 + 1)(x - j) (a cube): the companion
        eigenvalues pass the solver's first stop test, so one pass of its
        loop, which takes no step, returns them, and multiple roots are
        refined by Newton steps on CentralPoly derivatives."""
        monkeypatch.setattr(scalars, "_MAX_ITER", 1)
        g = OPolynomial.make(PR, [Octonion.make(PR, c) for c in g])
        r = roots(g * OPolynomial.make(PR, [-Octonion.make(PR, lam), 1]))
        assert not r.anomalies
        got = [c for _, c in r.isolated] + list(r.spherical)
        for T, N, m in planted:
            assert any(c.T == pytest.approx(T, abs=1e-9)
                       and c.N == pytest.approx(N, abs=1e-9)
                       and c.multiplicity == m for c in got), (T, N, m, got)

    def test_tiny_leading_coefficient(self, PR):
        def f(e):
            return OPolynomial.make(PR, [Octonion.make(PR, [1, 2]),
                                         Octonion.make(PR, [0, 0, e])])
        # n(1e-160 j) = 1e-320: the companion matrix holds an inf, so the
        # solver refuses before it starts
        with pytest.raises(InvalidInput, match=r"leading coefficient "
                           r"1e-320: the companion matrix is not finite"):
            roots(f(1e-160))
        # n(1e-200 j) underflows to 0.0: the root was dropped without a word
        with pytest.raises(InvalidInput, match=r"leading coefficient "
                           r"1e-200 j has norm 0\.0"):
            roots(f(1e-200))

    def test_close_pair_is_not_merged(self, PR):
        """x - (2 + 1e-7 i): the companion roots 2 +- 1e-7 i are far apart
        against their discs, so they give the class of the root, not the
        central class {2} that f(2) = -1e-7 i rules out."""
        lam = Octonion.make(PR, [2, 1e-7])
        rs = roots(OPolynomial.make(PR, [-lam, 1]))
        assert rs.anomalies == () and rs.spherical == ()
        ((root, cls),) = rs.isolated
        assert root.isclose(lam) and not cls.central

    @pytest.mark.parametrize("text,spheres", [
        ("x^4 + 5x^2 + 4", 2), ("x^6 + 14x^4 + 49x^2 + 36", 3),
        ("x^4 + 0.3x^2 + 0.02", 2), ("jx^2 + 7j", 1)])
    def test_spheres_of_even_polynomials(self, PR, text, spheres):
        """On a class (T, N) of an even f, every p_t of even t is a multiple
        of T, which the solver returns as rounding (about 1e-60), not 0:
        E is judged against term sizes at the class scale s, where T has
        terms of size 2s, so the spheres are found."""
        rs = roots(parse_opolynomial(text, PR))
        assert len(rs.spherical) == spheres
        assert not rs.isolated and not rs.anomalies

    @pytest.mark.parametrize("c", [1e-12, 5e-5, 1.5e-4, 3e-4, 5e-4, 1e-3])
    def test_sphere_members_pass_the_point_rule(self, PR, c):
        """The classes of x^3 + 100x + (c j) near (0, 100) have E about 0
        and G about c j: roots lists one as a sphere only when its members
        pass the point rule of rmr_contains and lmr_singular, and as an
        anomaly only when they do not."""
        f = parse_opolynomial(f"x^3 + 100x + ({c} j)", PR)
        rs, rng = roots(f), random.Random(7)
        listed = [(k, True) for k in rs.spherical] + [
            (k, False) for k, _ in rs.anomalies]
        assert listed
        for cls, inside in listed:
            for mu in (class_member(cls, PR, rng) for _ in range(5)):
                assert rmr_contains(f, mu) is inside, (cls, mu)
                assert lmr_singular(f, mu) is inside, (cls, mu)

    def test_anomaly_states_residual_and_threshold(self, PR):
        # (x^2 + 1)(x - lam) with re lam = 3e-6, off the sphere (0, 1): the
        # two classes of the companion lie within one cluster's disc, so
        # the merged class misses the root -E^-1 G by about 4e-6
        lam = Octonion.make(PR, [3e-6, 0, math.sqrt(1 - 9e-12)])
        f = OPolynomial.make(PR, [1, 0, 1]) * OPolynomial.make(PR, [-lam, 1])
        _, reason = roots(f).anomalies[0]
        m = re.search(r"residual (\S+) > threshold (\S+)$", reason)
        residual, threshold = float(m.group(1)), float(m.group(2))
        assert threshold == pytest.approx(REAL.class_tol, rel=1e-3)
        assert residual > threshold


def scaled_copy(f, j, k):
    """f_{j,k}(x) = 2^j sum_t a_t 2^(k (n - t)) x^t, n = deg f, exact in
    floats: f_{j,k}(2^k x) = 2^(j + k n) f(x), so its roots are 2^k times
    those of f."""
    n = f.degree
    return OPolynomial.make(f.params, [a * 2.0 ** (j + k * (n - t))
                                       for t, a in enumerate(f.coeffs)])


def scale_verdicts(f, lam, points):
    """Every verdict the class and point rules give on f: the counts of
    isolated, spherical and anomalous classes of roots(f), the LMR kind of
    each companion class, and rmr_contains, lmr_singular and the outcome of
    conjugating_element(lam, mu) at each mu of points; and the isolated
    roots."""
    rs = roots(f)
    kinds = []
    for cls in rmr_classes(f):
        try:
            kinds.append(lmr_describe_class(f, cls).kind)
        except NotInRMR:
            kinds.append("no root")
    answers = []
    for mu in points:
        try:
            conjugating_element(lam, mu)
            conj = "conjugate"
        except OcpolyError as exc:
            conj = type(exc).__name__
        answers.append((rmr_contains(f, mu), lmr_singular(f, mu), conj))
    return ((len(rs.isolated), len(rs.spherical), len(rs.anomalies),
             sorted(kinds), answers), [r for r, _ in rs.isolated])


class TestScaleFree:
    """Each real-mode verdict is judged against the sizes of its own terms,
    so none moves when f is multiplied by 2^j or its roots by 2^k."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(0, 2 ** 32), st.lists(
        st.tuples(st.integers(-60, 60), st.integers(-40, 40)),
        min_size=4, max_size=4))
    def test_scaled_copies_answer_alike(self, seed, scales):
        """f = g(x)(x - lam) over the octonions, of degree 1 to 3,
        coordinates in [-2, 2], g a real quadratic with a sphere for 30%
        of the inputs.  Each copy f_{j,k} gives f's verdicts at 2^k mu, for
        mu a conjugate of lam and that conjugate times 1.001, and its
        isolated roots are 2^k times f's within class_tol."""
        P = AlgebraParams.octonions(REAL)
        rng = random.Random(seed)
        lam = random_octonion(P, rng, 2)
        if rng.random() < 0.3:  # x^2 - T x + N with T^2 < 4 N
            T = rng.uniform(-2, 2)
            g = OPolynomial.make(P, [T * T / 4 + rng.uniform(0.1, 2), -T, 1])
        else:
            g = OPolynomial.make(P, [random_octonion(P, rng, 2)
                                     for _ in range(rng.randint(1, 3))])
        f = g * OPolynomial.make(P, [-lam, 1])
        q = random_octonion(P, rng, 2)
        mu = (q * lam) * q.inverse()
        try:
            want, isolated = scale_verdicts(f, lam, [mu, mu * 1.001])
        except NoConvergence:
            return
        for j, k in scales:
            s = 2.0 ** k
            got, scaled_roots = scale_verdicts(
                scaled_copy(f, j, k), lam * s, [mu * s, mu * (1.001 * s)])
            assert got == want, (j, k)
            for r in scaled_roots:
                r = r * (1 / s)
                assert any((r - r0).negligible(REAL.class_tol,
                                               math.sqrt(r0.size2()))
                           for r0 in isolated), (j, k, r)


class TestRMR:
    def test_classes(self, P, basis):
        # real mode finds the exact classes of the self-test's quadratic
        f = quad_example(P, basis)
        exact, real = ([(c.central, float(c.T), float(c.N)) for c in
                        sorted(rmr_classes(g), key=lambda c: (c.T, c.N))]
                       for g in (f, real_twin(f)))
        assert real == [pytest.approx(c, abs=1e-9) for c in exact]

    def test_contains_conjugates_of_roots(self, P, basis):
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [j, i])
        for mu in (k, -k, i, -i):  # all in the class (0,1)
            assert rmr_contains(f, mu)
        assert not rmr_contains(f, 2 * k)

    def test_witness_produces_root(self, P, basis):
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [j, i])
        for mu in (-k, i, l):
            c = rmr_witness(f, mu)
            assert f.scale_right(c).eval(mu).is_zero()

    def test_witness_not_in_rmr(self, P, basis):
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [j, i])
        with pytest.raises(NotInRMR):
            rmr_witness(f, one + k)

    def test_multiple_root_sides(self, P, basis):
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [j, i])
        cls = ConjClass(Fraction(0), Fraction(1))
        mr_r = multiple_root(f, cls, l, "right")
        assert mr_r.isclose(-k)
        assert f.scale_right(l).eval(mr_r).is_zero()
        mr_l = multiple_root(f, cls, l, "left")
        assert f.scale_left(l).eval(mr_l).is_zero()

    def test_multiple_root_random_scalars(self, P, basis, rng):
        one, i, j, k, l = basis
        f = quad_example(P, basis)
        cls = ConjClass(Fraction(0), Fraction(1))
        for _ in range(30):
            c = random_octonion(P, rng)
            if c.is_zero():
                continue
            mu = multiple_root(f, cls, c, "right")
            assert f.scale_right(c).eval(mu).is_zero()
            mu = multiple_root(f, cls, c, "left")
            assert f.scale_left(c).eval(mu).is_zero()

    def test_contains_every_root_it_returns(self, PR):
        """g = f(x) - x for a fixed_points input of real-queries seed 11
        (random.Random(69)): roots(g) accepts its root at class_tol, and
        rmr_contains must judge it by the same rule."""
        g = OPolynomial.make(PR, [Octonion.make(PR, c) for c in [
            [0.008226459527830965, 0.0014541289154326492,
             -0.00026601661989507494, 0.001634168405617116,
             0.00021392785621004475, 0.0014882057388733297,
             -0.00098081030956921, 7.237168880583735e-05],
            [0.18855135479407048, 0.012036889305851712,
             -0.00042925735921948635, 0.014160934223678728,
             0.0017407865174146001, 0.013157845509635741,
             -0.009246940135381583, -0.0001556355163535993],
            [1.0]]])
        rs = roots(g)
        assert len(rs.isolated) == 2
        l = Octonion.basis(PR, 4)
        for lam, _ in rs.isolated:
            assert rmr_contains(g, lam)
            mu = (l * lam) * l.inverse()
            c = rmr_witness(g, mu)
            assert g.scale_right(c).eval(mu).negligible(
                1e-7, eval_scale(g.scale_right(c), mu))

    def test_witness_on_conjugate_root_exact(self):
        """rmr_witness at conj(lam) for each root lam of an exact product of
        linear factors over (-1, -2, -3): f(x) c vanishes exactly there."""
        P = AlgebraParams(EXACT, -1, -2, -3)
        one = Octonion.one(P)
        rng = random.Random(8)
        checked = 0
        for _ in range(6):
            lam, mu = (random_octonion(P, rng, 2) for _ in range(2))
            f = (OPolynomial.make(P, [-mu, one])
                 * OPolynomial.make(P, [-lam, one]))
            for root, _ in roots(f).isolated:
                c = rmr_witness(f, root.conj())
                assert f.scale_right(c).eval(root.conj()).is_zero()
                checked += 1
        assert checked >= 10

    def test_split_algebra_roots_have_small_residuals(self):
        """Over (2, 3, 5) the norm is indefinite; an isolated root must have
        a small residual by coordinate size, not merely a small norm."""
        P = AlgebraParams(REAL, 2, 3, 5)
        diag = [abs(float(d)) for d in P.table.norm_diag]

        def size(x):
            return math.sqrt(sum(d * c * c for d, c in zip(diag, x.coords)))

        rng = random.Random(2)
        found = 0
        for _ in range(30):
            f = OPolynomial.make(P, [random_octonion(P, rng, 3)
                                     for _ in range(2)] + [1])
            for lam, _ in roots(f).isolated:
                scale = sum(size(a) * size(lam) ** t
                            for t, a in enumerate(f.coeffs))
                assert size(f.eval(lam)) <= 1e-8 * scale
                found += 1
        assert found >= 10

    def test_witness_on_split_algebra_conjugates(self):
        """rmr_witness at two conjugates (q lam) q^-1 of each isolated root
        of 200 quadratics over (2, 3, 5): 312 calls.  Each conjugate is in
        the class of lam at class_tol, and its witness c passes the
        backward-error check, whose sum holds the sizes of c and mu."""
        P = AlgebraParams(REAL, 2, 3, 5)
        rng = random.Random(2)
        calls = 0
        for _ in range(200):
            f = OPolynomial.make(P, [random_octonion(P, rng, 3)
                                     for _ in range(2)] + [1])
            for lam, _ in roots(f).isolated:
                for _ in range(2):
                    q = random_octonion(P, rng, 3)
                    mu = (q * lam) * q.inverse()
                    c = rmr_witness(f, mu)
                    assert not c.is_zero()
                    calls += 1
        assert calls == 312

    @pytest.mark.parametrize("gammas", [(-1, -1, -1), (2, 3, 5)])
    def test_witness_refuses_planted_conjugator(self, gammas, monkeypatch):
        """A conjugator off by 1e-4 of its size gives a c whose residual
        the backward-error check refuses, with its numbers."""
        import ocpoly.roots as roots_mod
        P = AlgebraParams(REAL, *gammas)
        rng = random.Random(4)
        true_conj = roots_mod._conjugator

        def planted(lam, mu):
            delta = true_conj(lam, mu)
            kick = random_octonion(P, rng, 1)
            size = math.sqrt(delta.size2() / kick.size2())
            return delta + kick * (1e-4 * size)

        monkeypatch.setattr(roots_mod, "_conjugator", planted)
        refused = 0
        for _ in range(10):
            f = OPolynomial.make(P, [random_octonion(P, rng, 3)
                                     for _ in range(2)] + [1])
            for lam, _ in roots(f).isolated:
                q = random_octonion(P, rng, 3)
                mu = (q * lam) * q.inverse()
                if lam.isclose(mu):
                    continue
                with pytest.raises(NotInRMR,
                                   match=r"residual \S+ > threshold \S+"):
                    rmr_witness(f, mu)
                refused += 1
        assert refused >= 5


    def test_queries_compute_no_companion_roots(self, P, basis, PR,
                                                monkeypatch):
        """rmr_witness and rmr_contains reduce f on mu's own class alone:
        with central_roots replaced by a stub that raises, they still
        answer on a real cubic and on an exact quadratic."""
        import ocpoly.roots as roots_mod

        def no_companion_roots(*args):
            raise AssertionError("central_roots called by an RMR query")

        rng = random.Random(5)
        lam = random_octonion(PR, rng, 2)
        g = OPolynomial.make(PR, [random_octonion(PR, rng, 2)
                                  for _ in range(2)] + [1])
        cubic = g * OPolynomial.make(PR, [-lam, 1])
        l, k = Octonion.basis(PR, 4), basis[3]
        cases = [(cubic, (l * lam) * l.inverse(), 2 * lam),
                 (quad_example(P, basis), -k, 2 * k)]
        monkeypatch.setattr(roots_mod, "central_roots", no_companion_roots)
        for f, mu, outside in cases:
            c = rmr_witness(f, mu)
            assert f.scale_right(c).eval(mu).negligible(
                1e-7, eval_scale(f.scale_right(c), mu))
            assert rmr_contains(f, mu)
            assert not rmr_contains(f, outside)
            with pytest.raises(NotInRMR):
                rmr_witness(f, outside)

    def test_exact_witness_past_the_degree_cap(self, P, basis):
        """The companion of an exact cubic has degree 6, past what exact
        central_roots factors; a witness at a conjugate of its root needs
        no companion roots, so it is found and checked exactly."""
        one, i, j, k, l = basis
        lam = one + i - 2 * k + l
        f = (OPolynomial.make(P, [2 * one + l, j, one])
             * OPolynomial.make(P, [-lam, one]))
        mu = (l * lam) * l.inverse()
        c = rmr_witness(f, mu)
        assert f.scale_right(c).eval(mu).is_zero()
        assert rmr_contains(f, mu)

    @pytest.mark.parametrize("poly,element,error", [
        ("x + i", "i - k - l", WitnessFailure),  # n(im lam + im mu) = 0
        ("x", "-k - l", NotInRMR),               # lam = 0 is central
        ("x + i + j", "0", NotInRMR),            # f(0) is a zero divisor
    ])
    def test_contains_and_witness_agree_on_split_algebra(self, poly,
                                                         element, error):
        """Over (-1, 1, -1): rmr_contains answers True only where
        rmr_witness returns.  Where no witness is found, it answers False
        on NotInRMR and raises what rmr_witness raises otherwise; a
        NotConjugate never escapes."""
        P = AlgebraParams(EXACT, -1, 1, -1)
        f, mu = parse_opolynomial(poly, P), parse_octonion(element, P)
        with pytest.raises(error):
            rmr_witness(f, mu)
        if error is NotInRMR:
            assert not rmr_contains(f, mu)
        else:
            with pytest.raises(error):
                rmr_contains(f, mu)

    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    def test_isotropic_class(self, field):
        """Over (-1, 1, -1), x + (e1 + e2) has the nilpotent root -(e1 +
        e2), of the class (0, 0), where the class scale s is 0: E = 1 is
        judged against its term |a_1| = 1, and the root is found."""
        P = AlgebraParams(field, -1, 1, -1)
        f, mu = parse_opolynomial("x + i + j", P), parse_octonion("-i - j", P)
        assert (mu.trace(), mu.norm()) == (0, 0)
        assert rmr_contains(f, mu)
        assert rmr_witness(f, mu) == Octonion.one(P)


class TestLMR:
    def test_describe_quadratic_example(self, P, basis):
        # real mode describes the self-test's class [j] as exact mode does
        f = quad_example(P, basis)
        exact = lmr_describe_class(f, ConjClass(Fraction(0), Fraction(1)))
        real = lmr_describe_class(real_twin(f), ConjClass(0.0, 1.0))
        assert real.kind == exact.kind
        assert_near_exact([real.e_inv_g, real.g_e_inv, real.comm],
                          [exact.e_inv_g, exact.g_e_inv, exact.comm])

    def test_single_point_class(self, P, basis):
        one, i, j, k, l = basis
        # commuting E, G: f = x^2 + 1x + (1+i) reduced on a class where
        # E and G land in the same complex line gives a lone point
        f = OPolynomial.make(P, [j, i])
        descs = lmr_describe(f)
        assert len(descs) == 1

    def test_sample_points_are_left_multiple_roots(self, P, basis):
        one, i, j, k, l = basis
        f = quad_example(P, basis)
        desc = lmr_describe_class(f, ConjClass(Fraction(0), Fraction(1)))
        for a, b, c, mu in lmr_sample_detailed(desc, 50, seed=3):
            assert f.scale_left(c).eval(mu).is_zero()

    def test_contains_checkpoints(self, PR, basis_r):
        # beside the self-test's points: -l and a mid-sphere point with the
        # right ell-part size are members, and 2j, of another class, is not
        one, i, j, k, l = basis_r
        desc = lmr_describe_class(quad_example(PR, basis_r),
                                  ConjClass(0.0, 1.0))
        assert lmr_contains(desc, -l)
        assert lmr_contains(desc, (j + l) * (1 / float((j + l).abs())))
        assert not lmr_contains(desc, 2 * j)

    def test_samples_pass_contains(self, P, basis):
        one, i, j, k, l = basis
        f = quad_example(P, basis)
        desc = lmr_describe_class(f, ConjClass(Fraction(0), Fraction(1)))
        PR = AlgebraParams.octonions(REAL)
        fr = OPolynomial.from_json(f.to_json(), REAL)
        descr = lmr_describe_class(fr, ConjClass(0.0, 1.0))
        for mu in lmr_sample(desc, 40, seed=9):
            mur = Octonion.make(PR, [float(c) for c in mu.coords])
            assert lmr_contains(descr, mur)

    def test_lmr_within_companion_classes(self, P, rng):
        # left multiple roots always stay inside the companion's classes
        for _ in range(20):
            f = OPolynomial.make(P, [random_octonion(P, rng)
                                     for _ in range(3)])
            if f.degree < 1:
                continue
            try:
                descs = lmr_describe(f)
            except UnsupportedDegree:
                continue  # companion irreducible over Q
            classes = {(c.T, c.N) for c in rmr_classes(f)}
            for d in descs:
                assert (d.cls.T, d.cls.N) in classes

    def test_whole_class(self, P, basis):
        one, i, j, k, l = basis
        # f = x^2 + 1 vanishes identically on the class (0, 1)
        f = OPolynomial.make(P, [one, Octonion.zero(P), one])
        desc = lmr_describe_class(f, ConjClass(Fraction(0), Fraction(1)))
        assert desc.kind == "whole-class"

    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    def test_class_without_roots(self, field):
        """f = x^2 + i on the class (0, 1): E = 0 but G = i - 1, so f(j) =
        -1 + i, and no member is a root of f or of a scalar multiple."""
        P = AlgebraParams.octonions(field)
        one, i, j = (Octonion.basis(P, a) for a in range(3))
        f = OPolynomial.make(P, [i, Octonion.zero(P), one])
        cls = ConjClass(field.coerce(0), field.coerce(1))
        assert f.eval(j).isclose(i - one)
        misfit = r"E = 0 but G != 0: residual 1\.414e\+00 > threshold"
        with pytest.raises(NotInRMR, match=misfit):
            lmr_describe_class(f, cls)
        with pytest.raises(NotInRMR, match=misfit):
            multiple_root(f, cls, j, "left")

    def test_closed_form_endpoints(self, P, basis):
        """On the reference class, c = 1 gives the right root -E^-1 G and
        c = l gives -G E^-1."""
        one, i, j, k, l = basis
        f = quad_example(P, basis)
        cls = ConjClass(Fraction(0), Fraction(1))
        desc = lmr_describe_class(f, cls)
        assert multiple_root(f, cls, one, "left") == -desc.e_inv_g
        assert multiple_root(f, cls, l, "left") == -desc.g_e_inv

    @pytest.mark.parametrize("gammas", [(-1, -1, -1), (-1, -2, -3)])
    def test_closed_form_is_exact(self, gammas):
        """(x - mu)(x - lam) with lam, mu quaternions: E and G lie in H, so
        the paper's closed form in c = a + b*l (Q = H, ell = l) is a
        reference, and every sample point equals it as Fractions.  comm
        = E^-1 G - G E^-1 is [conj G, E^-1], as Re G is central."""
        P = AlgebraParams(EXACT, *gammas)
        rng = random.Random(f"lmr-closed-form-{gammas}")

        def quaternion():
            return Octonion.make(P, [rng.randint(-3, 3) for _ in range(4)])
        described = 0
        while described < 12:
            lam, mu = quaternion(), quaternion()
            f = (OPolynomial.make(P, [-mu, 1])
                 * OPolynomial.make(P, [-lam, 1]))
            if lam.is_central():
                continue
            desc = lmr_describe_class(f, ConjClass(lam.trace(), lam.norm()))
            if desc.kind != "parametrized":
                continue
            described += 1
            red = reduce_linear(f, desc.cls)
            assert desc.comm == red.G.conj().commutator(red.E.inverse())
            for a, b, c, pt in lmr_sample_detailed(desc, 5, seed=described):
                assert c == a + b * Octonion.basis(P, 4)
                assert pt == lmr_closed_form(red.E, red.G, a, b)

    @pytest.mark.parametrize("gammas", [(-1, -1, -1), (-1, -2, -3)])
    def test_class_without_a_root_refused(self, gammas):
        """The class of a random lam holds no root of a random quadratic
        f: lmr_describe_class and multiple_root refuse it, stating the
        gap of -E^-1 G from the class; a description there would sample
        points that are no roots of their c f."""
        P = AlgebraParams(EXACT, *gammas)
        rng = random.Random(f"lmr-no-root-{gammas}")
        refused = 0
        while refused < 10:
            f = OPolynomial.make(P, [random_octonion(P, rng, span=3)
                                     for _ in range(2)] + [1])
            lam = random_octonion(P, rng, span=3)
            cls = ConjClass(lam.trace(), lam.norm())
            red = reduce_linear(f, cls)
            if lam.is_central() or red.E.is_zero() \
                    or cls.matches(-(red.E.inverse() * red.G)):
                continue
            refused += 1
            off = (r"candidate -E\^-1 G is off its class: residual \S+ > "
                   r"threshold 0\.000e\+00")
            with pytest.raises(NotInRMR, match=off):
                lmr_describe_class(f, cls)
            with pytest.raises(NotInRMR, match=off):
                multiple_root(f, cls, Octonion.basis(P, 4), "left")


class TestLMROnSplitAlgebras:
    """The paper's left-multiple results hold over any field of
    characteristic not 2, so over split algebras as well."""

    @staticmethod
    def backward_error(f, c, mu):
        """|(c f)(mu)| / sum_t |c a_t| |mu|^t, sizes by sqrt(size2)."""
        cf = f.scale_left(c)
        return math.sqrt(cf.eval(mu).size2()) / eval_scale(cf, mu)

    def test_sample_points_are_roots(self):
        """100 monic quadratics over each of three split algebras
        (random.Random(3), span 3): every non-central companion class is
        parametrized, and every sample point lies in its class at
        class_tol and is a root of its c f, with backward error at most
        witness_tol.  A multiplier c with |n(c)| <= size2(c) / 8 is
        redrawn: kept down to 1e-7 size2(c), one gave a point 1.2e-6 off
        its class over (-1, 1, -1)."""
        classes = points = 0
        for gammas in ((2, 3, 5), (-2, 3, -0.5), (-1, 1, -1)):
            P = AlgebraParams(REAL, *gammas)
            rng = random.Random(3)
            for _ in range(100):
                f = OPolynomial.make(P, [random_octonion(P, rng, 3)
                                         for _ in range(2)] + [1])
                for cls in rmr_classes(f):
                    if cls.central:
                        continue
                    desc = lmr_describe_class(f, cls)
                    assert desc.kind == "parametrized"
                    classes += 1
                    for _, _, c, mu in lmr_sample_detailed(desc, 20):
                        assert cls.gap(mu) <= REAL.class_tol
                        assert self.backward_error(f, c, mu) \
                            <= REAL.witness_tol
                        points += 1
        assert classes >= 250 and points == 20 * classes

    def test_isotropic_constant_refused(self):
        """f = i x + G with G = sqrt(10/3) j + il isotropic and orthogonal
        to i: its companion is x^2, so the class (0, 1) holds no root of
        any c f, and -E^-1 G lies off it."""
        P = AlgebraParams(REAL, 2, 3, 5)
        G = Octonion.make(P, [0, 0, math.sqrt(10 / 3), 0, 0, 1])
        f = OPolynomial.make(P, [G, Octonion.basis(P, 1)])
        with pytest.raises(NotInRMR, match=r"off its class: residual 1\.000e"
                           r"\+00 > threshold 1\.000e-06"):
            lmr_describe_class(f, ConjClass(0.0, 1.0))

    def test_contains_refused(self):
        """On a split algebra a singular c -> (c f)(mu) may have only
        isotropic kernel vectors, so lmr_contains refuses it even at a
        genuine sample point."""
        P = AlgebraParams(REAL, 2, 3, 5)
        f = OPolynomial.make(P, [Octonion.make(P, cs) for cs in SPLIT_FOUND])
        (cls,) = [c for c in rmr_classes(f) if not c.central]
        desc = lmr_describe_class(f, cls)
        mu = lmr_sample_detailed(desc, 1)[0][3]
        with pytest.raises(InvalidInput, match="positive definite"):
            lmr_contains(desc, mu)

    def test_central_class_without_root(self):
        """A real companion root r of f over (2, 3, 5) with f(r) != 0: as
        (c f)(r) = c f(r), no multiple has a root in {r}.  Each class is
        judged by its backward error, residual_tol * sum_t |a_t| |r|^t."""
        P = AlgebraParams(REAL, 2, 3, 5)
        f = OPolynomial.make(P, [Octonion.make(P, cs) for cs in SPLIT_FOUND])
        central = [c for c in rmr_classes(f) if c.central]
        assert len(central) == 2
        for cls in central:
            threshold = REAL.residual_tol * sum(
                math.sqrt(a.size2()) * abs(cls.r) ** t
                for t, a in enumerate(f.coeffs))
            with pytest.raises(NotInRMR, match=re.escape(
                    "central class: candidate fails evaluation: residual ")
                    + r"\S+ > " + re.escape(f"threshold {threshold:.3e}")):
                lmr_describe_class(f, cls)
        assert [c for c, _ in roots(f).anomalies] == central


SPLIT_FOUND = ([3, -3, 2, 0, -1, 2, 3, -2], [1, -3, -1, -3, -3, -3, 2, 1],
               [-3, 0, 2, -2, 0, 2, -3, 1])


class TestLMRKinds:
    """Single-point, central and whole-class descriptions: x^2 - 3ix - 2 =
    (x - 2i)(x - i), x - 2 and x^2 + 1."""

    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    def test_single_point_classes(self, field):
        P = AlgebraParams.octonions(field)
        i = Octonion.basis(P, 1)
        descs = lmr_describe(parse_opolynomial("x^2 - 3ix - 2", P))
        assert [d.kind for d in descs] == ["single-point"] * 2
        points = sorted((d.point for d in descs), key=lambda p: p.size2())
        assert points[0].isclose(i) and points[1].isclose(2 * i)
        for d in descs:
            assert d.to_json() == {"kind": "single-point",
                                   "point": d.point.to_json(),
                                   "class": d.cls.to_json(field)}
            assert lmr_sample(d, 3) == [d.point] * 3
            with pytest.raises(InvalidInput, match="single-point"):
                lmr_sample_detailed(d, 1)

    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    def test_sample_count(self, field):
        """Zero points are no points, and a negative count is refused by
        both samplers, for single-point and parametrized classes."""
        P = AlgebraParams.octonions(field)
        single = lmr_describe(parse_opolynomial("x^2 - 3ix - 2", P))[0]
        param = lmr_describe(parse_opolynomial("x^2 + ix - ij + 1", P))[0]
        assert param.kind == "parametrized"
        for desc in (single, param):
            assert lmr_sample(desc, 0) == []
            for sample in (lmr_sample, lmr_sample_detailed):
                with pytest.raises(InvalidInput, match="got -1"):
                    sample(desc, -1)
        assert lmr_sample_detailed(param, 0) == []

    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    def test_central_class(self, field):
        P = AlgebraParams.octonions(field)
        (d,) = lmr_describe(parse_opolynomial("x - 2", P))
        assert d.cls.central and d.kind == "single-point"
        assert d.point.isclose(Octonion.scalar(P, 2), field.witness_tol)
        assert d.to_json()["point"] == d.point.to_json()
        assert lmr_sample(d, 2) == [d.point] * 2

    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    def test_central_class_off_the_root_set(self, field):
        """x - 2 at the central class {5}: f(5) = 3, so no multiple has a
        root there, and 5 is no LMR point.  The threshold is the backward
        error's, 1e-8 * (|-2| + |1| * 5)."""
        P = AlgebraParams.octonions(field)
        f = parse_opolynomial("x - 2", P)
        threshold = "0.000e+00" if field.exact else "7.000e-08"
        with pytest.raises(NotInRMR, match=re.escape(
                f"residual 3.000e+00 > threshold {threshold}")):
            lmr_describe_class(f, ConjClass.of_scalar(field.coerce(5)))

    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    def test_whole_class(self, field):
        P = AlgebraParams.octonions(field)
        f = parse_opolynomial("x^2 + 1", P)
        (d,) = lmr_describe(f)
        assert d.kind == "whole-class"
        with pytest.raises(InvalidInput, match="whole-class"):
            lmr_sample(d, 1)
        with pytest.raises(WholeClass):
            multiple_root(f, d.cls, Octonion.basis(P, 2), "right")

    def test_contains_per_kind(self, PR, basis_r):
        one, i, j, k, l = basis_r
        cases = [("x^2 - 3ix - 2", [i, 2 * i], [j, 2 * j, -i]),
                 ("x - 2", [2 * one], [one, 2 * i]),
                 ("x^2 + 1", [j, -i, (j + l) * (1 / math.sqrt(2))],
                  [2 * j, one])]
        for text, inside, outside in cases:
            descs = lmr_describe(parse_opolynomial(text, PR))
            for mu in inside:
                assert any(lmr_contains(d, mu) for d in descs), (text, mu)
            for mu in outside:
                assert not any(lmr_contains(d, mu) for d in descs), (text, mu)

    def test_contains_is_real_mode(self, P):
        (d,) = lmr_describe(parse_opolynomial("x - 2", P))
        with pytest.raises(ModeMismatch):
            lmr_contains(d, Octonion.scalar(P, 2))


@functools.lru_cache(maxsize=None)
def doubling_products(gammas) -> np.ndarray:
    """T[a, b] = e_a e_b by the doubling rule on coordinate vectors."""
    units = [tuple(float(a == n) for a in range(8)) for n in range(8)]
    return np.array([[cd_mul(ea, eb, gammas) for eb in units]
                     for ea in units])


class TestLMRMembership:
    """lmr_contains against the definition, built here from the doubling
    rule: mu is a root of some c f, c != 0, when c -> (c f)(mu) is
    singular, judged by sigma_min <= witness_tol * sum_t |a_t| |mu|^t."""

    @staticmethod
    def oracle_ratio(f, mu) -> float:
        """sigma_min / sum_t |a_t| |mu|^t of the matrix of c -> (c f)(mu),
        from the products e_a e_b of the doubling rule, |x| = sqrt(n(x))
        on a definite algebra."""
        g = f.params.gammas
        units, T = np.eye(8), doubling_products(g)

        def right(x):  # y x = right(x) @ y
            return np.einsum("b,abc->ca", np.asarray(x, dtype=float), T)

        def size(x):
            return math.sqrt(cd_mul(tuple(x), cd_conj(tuple(x)), g)[0])
        m = np.array(mu.coords, dtype=float)
        power, M = units[0], np.zeros((8, 8))
        for a in f.coeffs:  # power = mu^t
            M += right(power) @ right(a.coords)
            power = right(m) @ power
        sigma = np.linalg.svd(M, compute_uv=False)[-1]
        return float(sigma / sum(size(a.coords) * size(m) ** t
                                 for t, a in enumerate(f.coeffs)))

    @staticmethod
    def turned_in_class(p, rng):
        """p with im p turned by 1e-3 of its size: the same class, off the
        LMR set."""
        P, im = p.params, p.im()
        d = Octonion.make(P, [0] + [rng.uniform(-1, 1) for _ in range(7)])
        turned = im + d * (1e-3 * math.sqrt(im.size2() / d.size2()))
        return (Octonion.scalar(P, p.re())
                + turned * math.sqrt(im.size2() / turned.size2()))

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from([(-1, -1, -1), (-1, -2, -3)]),
           st.sampled_from([1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3]),
           st.sampled_from([2, 3]), st.integers(0, 2 ** 32))
    def test_contains_is_the_multiplier_test(self, gammas, scale, degree,
                                             seed):
        """f = g(x)(x - lam), g monic, lam and g's coefficients of size
        scale, so lam is a root and its class a companion class.  Sample
        points are members, random members of the class and sample points
        turned off the set are not, and lmr_contains answers as the
        oracle does."""
        P = AlgebraParams(REAL, *gammas)
        rng = random.Random(seed)

        def draw():
            return Octonion.make(P, [rng.uniform(-scale, scale)
                                     for _ in range(8)])
        lam = draw()
        g = OPolynomial.make(P, [draw() for _ in range(degree - 1)] + [1])
        f = g * OPolynomial.make(P, [-lam, 1])
        cls = ConjClass(lam.trace(), lam.norm())
        desc = lmr_describe_class(f, cls)
        assert desc.kind == "parametrized"
        samples = lmr_sample(desc, 4, seed=seed)
        cases = ([(p, True) for p in samples]
                 + [(class_member(cls, P, rng), False) for _ in range(4)]
                 + [(self.turned_in_class(p, rng), False) for p in samples])
        tol = REAL.witness_tol
        for mu, member in cases:
            ratio = self.oracle_ratio(f, mu)
            assert (ratio <= tol) is member, (mu, ratio)
            assert lmr_contains(desc, mu) is member, (mu, ratio)

    def test_contains_returns_bool(self, PR, basis_r):
        one, i, j, k, l = basis_r
        f = quad_example(PR, basis_r)
        desc = lmr_describe_class(f, ConjClass(0.0, 1.0))
        for mu in (j, (i + j) * (1 / math.sqrt(2)), 2 * j):
            assert type(lmr_contains(desc, mu)) is bool


class TestSmallNonzeroE:
    """E = T = 1e-5 for x^2 + 1 on the class (1e-5, 1): nonzero at
    class_tol, so E is inverted, but -E^-1 G = 0 is off the class, which
    holds no root of any c f: (j f)(0) = j."""

    OFF = r"off its class: residual 1\.000e\+00 > threshold 1\.000e-06"

    def test_multiple_root(self, PR):
        f = OPolynomial.make(PR, [1, 0, 1])
        j = Octonion.basis(PR, 2)
        with pytest.raises(NotInRMR, match=self.OFF):
            multiple_root(f, ConjClass(1e-5, 1), j, "left")

    def test_lmr_describe_class(self, PR):
        f = OPolynomial.make(PR, [1, 0, 1])
        with pytest.raises(NotInRMR, match=self.OFF):
            lmr_describe_class(f, ConjClass(1e-5, 1))


def one_side(P, side):
    f = parse_opolynomial("x - j", P)
    return multiple_root(f, ConjClass(0, 1), Octonion.one(P), side)


# branches that no other test reaches: each refusal by its text, and the
# central class {2}, whose one member class_member returns
@pytest.mark.parametrize("call,error,text", [
    (lambda P, PR: roots(OPolynomial.make(P, [1])), InvalidInput,
     "degree >= 1"),
    (lambda P, PR: rmr_witness(OPolynomial.make(PR, [2]), Octonion.one(PR)),
     InvalidInput, "degree >= 1"),
    (lambda P, PR: one_side(P, "up"), InvalidInput, "'left' or 'right'"),
    (lambda P, PR: class_member(ConjClass.of_scalar(2.0), PR,
                                random.Random(0)), None, "2.0"),
    (lambda P, PR: class_member(ConjClass(Fraction(0), Fraction(1)), P,
                                random.Random(0)), ModeMismatch,
     "need real mode"),
    (lambda P, PR: class_member(ConjClass(0.0, -1.0), PR, random.Random(0)),
     InvalidInput, "isotropic class")],
    ids=["roots-of-a-constant", "witness-for-a-constant", "multiple-root-side",
         "member-of-a-central-class", "member-in-exact-mode",
         "member-of-an-isotropic-class"])
def test_refusals_and_branches(P, PR, call, error, text):
    if error is None:
        assert str(call(P, PR)) == text
    else:
        with pytest.raises(error, match=text):
            call(P, PR)

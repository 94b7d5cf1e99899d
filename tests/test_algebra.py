import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from ocpoly.algebra import (AlgebraParams, Octonion, conjugating_element,
                            format_octonion, parse_octonion, random_octonion)
from ocpoly.errors import (InvalidInput, ModeMismatch, NotConjugate,
                           NotInvertible, OcpolyError, ParseError)
from ocpoly.opoly import OPolynomial
from ocpoly.scalars import EXACT, REAL

from doubling import cd_mul


class TestMultiplication:
    def test_quaternion_relations(self, P, basis):
        one, i, j, k, l = basis
        assert (i * i).isclose(-one)
        assert (j * j).isclose(-one)
        assert (i * j).isclose(k)
        assert (j * i).isclose(-k)

    def test_doubling_unit(self, basis):
        one, i, j, k, l = basis
        assert (l * l).isclose(-one)

    def test_il_times_jl(self, P, basis):
        # by hand from the doubling rule with q=s=0, r=i, t=j:
        # (il)(jl) = gamma * conj(j) i = (-1)(-j)i = ji = -k
        one, i, j, k, l = basis
        il = Octonion.basis(P, 5)
        jl = Octonion.basis(P, 6)
        assert (il * jl).isclose(-k)

    def test_generic_structure_constants(self):
        params = AlgebraParams(EXACT, 2, 3, 5)
        i = Octonion.basis(params, 1)
        j = Octonion.basis(params, 2)
        l = Octonion.basis(params, 4)
        assert (i * i).coords[0] == 2
        assert (j * j).coords[0] == 3
        assert (l * l).coords[0] == 5
        assert (i * j).isclose(-(j * i))

    def test_params_mismatch(self, P):
        other = AlgebraParams(EXACT, 1, -1, -1)
        with pytest.raises(InvalidInput):
            Octonion.one(P) * Octonion.one(other)

    def test_bilinearity(self, P, rng):
        x, y, z = (random_octonion(P, rng) for _ in range(3))
        assert ((x + y) * z).isclose(x * z + y * z)
        assert (z * (x + y)).isclose(z * x + z * y)

    @pytest.mark.parametrize("gammas", [(-1, -1, -1), (2, 3, 5),
                                        (-2, 3, Fraction(-1, 2))])
    def test_table_product_matches_doubling_rule(self, gammas, rng):
        # the flat table product against the recursive doubling rule, on
        # non-integral coordinates: equal Fractions in exact mode, equal
        # within eps in real mode
        for field in (EXACT, REAL):
            params = AlgebraParams(field, *gammas)
            for _ in range(200):
                if field.exact:
                    x, y = ([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                             for _ in range(8)] for _ in range(2))
                else:
                    x, y = ([rng.uniform(-4, 4) for _ in range(8)]
                            for _ in range(2))
                X, Y = Octonion.make(params, x), Octonion.make(params, y)
                got = X * Y
                want = cd_mul(X.coords, Y.coords, params.gammas)
                if field.exact:
                    assert got.coords == want
                    assert all(type(c) is Fraction for c in got.coords)
                else:
                    assert got.isclose(Octonion(want, params))


@pytest.mark.parametrize("field", [EXACT, REAL])
@pytest.mark.parametrize("gammas", [(-1, -1, -1), (2, 3, 5),
                                    (-2, 3, Fraction(-1, 2)),
                                    (Fraction(3, 7), -5, Fraction(2, 3))])
def test_table_matches_vector_doubling_rule(field, gammas):
    """The table, built by the doubling rule on indices, holds the terms
    the doubling rule on coordinate vectors gives for each basis pair: the
    same index, and a value of the same type and bits."""
    params = AlgebraParams(field, *gammas)
    want = []
    for a in range(8):
        for b in range(8):
            ea, eb = (tuple(field.one() if c == n else field.zero()
                            for c in range(8)) for n in (a, b))
            prod = cd_mul(ea, eb, params.gammas)
            (c,) = [c for c, v in enumerate(prod) if v != 0]
            want.append((a, b, c, prod[c]))
    got = params.table.terms
    assert [(a, b, c, repr(v), type(v)) for a, b, c, v in got] == \
        [(a, b, c, repr(v), type(v)) for a, b, c, v in want]


class TestInvolution:
    def test_conj_basis(self, P, basis):
        one, i, j, k, l = basis
        assert (one + i + l).conj().isclose(one - i - l)

    def test_norm_formula_quaternion_part(self):
        # norm(a+bi+cj+dk) = a^2 - alpha b^2 - beta c^2 + alpha beta d^2
        params = AlgebraParams(EXACT, 2, 3, 5)
        a, b, c, d = Fraction(2), Fraction(-1), Fraction(3), Fraction(5)
        z = Octonion.make(params, [a, b, c, d])
        assert z.norm() == a * a - 2 * b * b - 3 * c * c + 6 * d * d

    def test_norm_real_default(self, P, rng):
        z = random_octonion(P, rng)
        assert z.norm() == sum(c * c for c in z.coords)

    @pytest.mark.parametrize("gammas", [(-1, -1, -1), (2, 3, 5),
                                        (-2, 3, Fraction(-1, 2))])
    def test_exact_norm_is_x_times_conj(self, gammas, rng):
        # the integer-numerator norm against x conj(x) = norm(x), on
        # non-integral coordinates and rational structure constants
        params = AlgebraParams(EXACT, *gammas)
        for _ in range(200):
            z = Octonion.make(params, [Fraction(rng.randint(-9, 9),
                                                rng.randint(1, 12))
                                       for _ in range(8)])
            n = z.norm()
            assert type(n) is Fraction
            assert (z * z.conj()).coords == (n,) + (Fraction(0),) * 7

    def test_trace_is_twice_real_part(self, P, rng):
        z = random_octonion(P, rng)
        assert z.trace() == 2 * z.re()
        assert (z.im() + Octonion.scalar(P, z.re())).isclose(z)

    def test_commutator(self, P, basis):
        one, i, j, k, l = basis
        assert i.commutator(j).isclose(2 * k)

    def test_abs_real_mode(self, PR):
        z = Octonion.make(PR, [3, 4])
        assert z.abs() == pytest.approx(5.0)

    def test_abs_exact_mode_refused(self, P):
        # it raised InvalidInput, not the error for the wrong mode
        with pytest.raises(ModeMismatch, match="real-mode"):
            Octonion.make(P, [3, 4]).abs()

    def test_abs_of_negative_norm_is_typed(self):
        # on the split algebra (2, 3, 5), n(i) = -2 and n(3 + i) = 7
        P = AlgebraParams(REAL, 2, 3, 5)
        i = Octonion.basis(P, 1)
        with pytest.raises(InvalidInput, match="negative norm -2.0"):
            i.abs()
        assert (3 + i).abs() == math.sqrt(7)


class TestCopiesAndHashes:
    @pytest.mark.parametrize("field", [EXACT, REAL])
    def test_pickle_and_deepcopy_round_trip(self, field):
        P = AlgebraParams(field, -2, 3, Fraction(-1, 2))
        x = Octonion.make(P, [1, -2, Fraction(1, 4), 0, 3, 0, 0, 7])
        for y in (x, x * x):  # exact x * x has no coords until read
            for z in (pickle.loads(pickle.dumps(y)), copy.deepcopy(y)):
                assert type(z) is type(y) and z == y and z.params == P

    @pytest.mark.parametrize("field", [EXACT, REAL])
    def test_results_and_polynomials_round_trip(self, field):
        """Each kind of result (real mode: built with no mode test) and a
        polynomial of them survive pickle and deepcopy."""
        P = AlgebraParams(field, -2, 3, Fraction(-1, 2))
        x = Octonion.make(P, [1, -2, Fraction(1, 4), 0, 3, 0, 0, 7])
        ys = [x + x, x - 1, 1 - x, -x, x.conj(), x.im(), x * 3, x / 3,
              *x.combinations([x, x * x], [1, 2], [3, 4])]
        f = OPolynomial.make(P, ys)
        for y in ys + [f]:
            for z in (pickle.loads(pickle.dumps(y)), copy.deepcopy(y)):
                assert type(z) is type(y) and z == y

    def test_real_equal_elements_hash_equal(self, PR):
        x = Octonion.make(PR, [1, 2])
        y = Octonion.make(PR, [1.0, 2.0, 0, 0, 0, 0, 0, 0.0])
        z = (x + x) / 2
        assert x == y == z and hash(x) == hash(y) == hash(z)
        assert len({x, y, z}) == 1


class TestInverse:
    def test_units(self, P, basis):
        one, i, j, k, l = basis
        assert i.inverse().isclose(-i)
        il = Octonion.basis(P, 5)
        assert il.inverse().isclose(-il)
        assert Octonion.scalar(P, 2).inverse().isclose(
            Octonion.scalar(P, Fraction(1, 2)))

    def test_two_sided(self, P, rng):
        for _ in range(20):
            z = random_octonion(P, rng)
            if z.is_zero():
                continue
            zi = z.inverse()
            assert (z * zi).isclose(Octonion.one(P))
            assert (zi * z).isclose(Octonion.one(P))

    def test_zero_not_invertible(self, P):
        with pytest.raises(NotInvertible):
            Octonion.zero(P).inverse()

    def test_small_real_element_invertible(self, PR):
        # norm 1e-10 lies below eps, but 1/norm is finite
        inv = Octonion.scalar(PR, 1e-5).inverse()
        assert inv.coords[0] == pytest.approx(1e5)
        with pytest.raises(NotInvertible):
            Octonion.zero(PR).inverse()


class TestAlgebraLaws:
    N = 300

    def test_quadratic_identity(self, P, rng):
        for _ in range(self.N):
            z = random_octonion(P, rng)
            lhs = z * z - z.trace() * z + Octonion.scalar(P, z.norm())
            assert lhs.is_zero()

    def test_norm_multiplicative(self, P, rng):
        for _ in range(self.N):
            x, y = random_octonion(P, rng), random_octonion(P, rng)
            assert (x * y).norm() == x.norm() * y.norm()

    def test_moufang(self, P, rng):
        for _ in range(self.N // 3):
            x, y, z = (random_octonion(P, rng) for _ in range(3))
            assert ((z * x) * (y * z)).isclose(z * ((x * y) * z))
            assert (z * (x * (z * y))).isclose(((z * x) * z) * y)
            assert (((x * z) * y) * z).isclose(x * ((z * y) * z))

    def test_alternative(self, P, rng):
        for _ in range(self.N):
            x, y = random_octonion(P, rng), random_octonion(P, rng)
            assert ((x * x) * y).isclose(x * (x * y))
            assert ((y * x) * x).isclose(y * (x * x))

    def test_nonassociative_witness(self, P):
        found = False
        for a in range(1, 8):
            for b in range(1, 8):
                for c in range(1, 8):
                    ea, eb, ec = (Octonion.basis(P, t) for t in (a, b, c))
                    if not ((ea * eb) * ec).isclose(ea * (eb * ec)):
                        found = True
        assert found


class TestConjugatingElement:
    def test_j_to_minus_j(self, P, basis):
        one, i, j, k, l = basis
        d = conjugating_element(j, -j)
        assert d.trace() == 0
        assert (d * j).isclose((-j) * d)

    def test_self_conjugation(self, P, basis):
        one, i, j, k, l = basis
        d = conjugating_element(i, i)
        assert d.trace() == 0 and not d.is_zero()
        assert (d * i).isclose(i * d)

    def test_i_to_j(self, P, basis):
        one, i, j, k, l = basis
        d = conjugating_element(i, j)
        assert d.trace() == 0
        assert (d * i).isclose(j * d)
        mu = (d * i) * d.inverse()
        assert mu.isclose(j)

    def test_random_conjugates(self, P, rng):
        for _ in range(20):
            lam = random_octonion(P, rng)
            if lam.is_central():
                continue
            q = random_octonion(P, rng)
            if q.is_zero():
                continue
            mu = (q * lam) * q.inverse()
            d = conjugating_element(lam, mu)
            assert d.trace() == 0
            assert ((d * lam) * d.inverse()).isclose(mu)

    def test_mismatch(self, P, basis):
        one, i, j, k, l = basis
        with pytest.raises(NotConjugate):
            conjugating_element(i, 2 * j)
        with pytest.raises(NotConjugate):
            conjugating_element(one, -one)

    def test_mismatch_judged_at_class_tol(self, PR):
        """One class rule: a gap within class_tol conjugates, a larger one
        raises NotConjugate stating the gap and its threshold."""
        i, j = Octonion.basis(PR, 1), Octonion.basis(PR, 2)
        assert conjugating_element(i, j * (1 + 1e-8)).trace() == 0
        with pytest.raises(NotConjugate,
                           match=r"gap 4\.000e-06 > threshold 1\.000e-06"):
            conjugating_element(i, j * (1 + 2e-6))

    def test_mismatch_with_a_norm_beyond_float_range(self, PR):
        """n(1e160 j) is inf, and the norm's ratio inf / inf is nan: the gap
        reads inf, where max dropped the nan and matched (then found no
        conjugator, as if the algebra were split)."""
        i, j = Octonion.basis(PR, 1), Octonion.basis(PR, 2)
        with pytest.raises(NotConjugate, match=r"gap inf > threshold"):
            conjugating_element(i, 1e160 * j)
        with pytest.raises(NotConjugate, match=r"gap inf > threshold"):
            conjugating_element(1e160 * j, i)

    def test_real_mode(self, PR, basis_r):
        one, i, j, k, l = basis_r
        rng = random.Random(5)
        lam = random_octonion(PR, rng)
        q = random_octonion(PR, rng)
        mu = (q * lam) * q.inverse()
        d = conjugating_element(lam, mu)
        assert abs(d.trace()) < 1e-9
        assert ((d * lam) * d.inverse()).isclose(mu, tol=1e-7)


CONJ_GAMMAS = ((-1, -1, -1), (-1, -2, -3), (2, 3, 5),
               (-2, 3, Fraction(-1, 2)))


def product_magnitude(x, y):
    """sum |v x_a y_b| per output coordinate: the size of the terms the
    product x*y sums, against which its rounding error is measured."""
    out = [0.0] * 8
    for a, b, c, v in x.params.table.terms:
        out[c] += abs(float(v) * float(x.coords[a]) * float(y.coords[b]))
    return out


@pytest.mark.parametrize("gammas", CONJ_GAMMAS)
def test_multiplication_matrices(gammas):
    """right_matrix(x) @ y is y*x and left_matrix(x) @ y is x*y, both as
    the table and as the doubling rule on coordinate vectors give them."""
    params = AlgebraParams(REAL, *gammas)
    table, rng = params.table, random.Random(f"matrices-{gammas}")
    for _ in range(20):
        x, y = random_octonion(params, rng), random_octonion(params, rng)
        for matrix, prod, ref in ((table.right_matrix, y * x, (y, x)),
                                  (table.left_matrix, x * y, (x, y))):
            got = matrix(x.coords) @ np.array(y.coords)
            bound = 1e-13 * np.array(product_magnitude(*ref))
            assert np.all(np.abs(got - prod.coords) <= bound)
            want = cd_mul(ref[0].coords, ref[1].coords, params.gammas)
            assert np.all(np.abs(got - want) <= bound)


def term_order_sum(x, y):
    """x*y as the sum of v x_a y_b over the table's terms in order, each
    term added to 0.0: the reference the real-mode product equals bit for
    bit."""
    out = [0.0] * 8
    for a, b, c, v in x.params.table.terms:
        out[c] += v * x.coords[a] * y.coords[b]
    return out


@pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
@pytest.mark.parametrize("gammas", [(-1, -1, -1), (2, 3, 5),
                                    (-2, 3, Fraction(-1, 2)),
                                    (Fraction(3, 7), -5, Fraction(2, 3))])
def test_straight_line_product(gammas, field):
    """The product the table writes out once as code equals the doubling
    rule on coordinate vectors: exactly in exact mode, and to rounding in
    real mode, where it is bit-equal to the term-order sum, signed zeros
    and scales from 1e-3 to 1e3 included."""
    params = AlgebraParams(field, *gammas)
    assert params.table.mul is params.table.mul  # built once per table
    rng = random.Random(f"straight-line-{gammas}-{field.exact}")
    for _ in range(200):
        if field.exact:
            x, y = ([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                     for _ in range(8)] for _ in range(2))
        else:
            x, y = ([rng.choice([0.0, -0.0, rng.uniform(-1, 1)
                                 * 10.0 ** rng.randint(-3, 3)])
                     for _ in range(8)] for _ in range(2))
        X, Y = Octonion.make(params, x), Octonion.make(params, y)
        got, want = X * Y, cd_mul(X.coords, Y.coords, params.gammas)
        if field.exact:
            assert got.coords == want
            continue
        assert [c.hex() for c in got.coords] == \
            [c.hex() for c in term_order_sum(X, Y)]
        bound = 1e-13 * np.array(product_magnitude(X, Y))
        assert np.all(np.abs(np.array(got.coords) - want) <= bound)


def test_straight_line_code_with_infinite_terms():
    """Structure constants whose products, or twice a norm weight, pass
    float range write inf into the straight-line code, which then runs as
    the term-by-term sums do."""
    for gammas in ((1e200, 1e200, -1), (-1, -1, -1e308)):
        params = AlgebraParams(REAL, *gammas)
        x = Octonion.make(params, [1, -1, 1, 1, 1, 1, 1, 1])
        assert [c.hex() for c in (x * x).coords] == \
            [c.hex() for c in term_order_sum(x, x)]
        assert [v.hex() for v in (x.norm(), x.size2(), x.polar_form(x))] \
            == [sum(terms).hex() for terms in norm_form_terms(x, x)]


NORM_FORM_GAMMAS = [(-1, -1, -1), (2, 3, 5), (-2, 3, Fraction(-1, 2)),
                    (Fraction(3, 7), -5, Fraction(2, 3))]


def norm_form_terms(x, y):
    """The terms of norm(x), size2(x) and x.polar_form(y) over the norm
    diagonal w, in order: w_a x_a x_a, |w_a| x_a x_a and (2 w_a) x_a y_a."""
    w = x.params.table.norm_diag
    return ([d * a * a for d, a in zip(w, x.coords)],
            [abs(d) * a * a for d, a in zip(w, x.coords)],
            [2 * d * a * b for d, a, b in zip(w, x.coords, y.coords)])


@pytest.mark.parametrize("gammas", NORM_FORM_GAMMAS)
def test_straight_line_norm_form_real(gammas):
    """norm, size2 and polar_form, written out once per table, equal the
    sums of their terms in order from 0 bit for bit, on coordinates of
    scales 1e16 to 1e-16.  On these the sum reads differently when any two
    of its terms trade places, except the first two, whose swap is exact
    (0 + t0 + t1 = 0 + t1 + t0)."""
    params = AlgebraParams(REAL, *gammas)
    assert params.table.norm is params.table.norm  # built once per table
    rng, samples = random.Random(f"norm-form-{gammas}"), []
    for _ in range(300):
        x, y = (Octonion.make(params, [
            rng.choice((1e16, 1e8, 1.0, 1e-8, 1e-16)) * rng.choice((1, -1))
            * rng.uniform(1, 2) for _ in range(8)]) for _ in range(2))
        samples.append(norm_form_terms(x, y))
        assert [v.hex() for v in (x.norm(), x.size2(), x.polar_form(y))] \
            == [sum(terms).hex() for terms in samples[-1]]
    for form in range(3):
        for a, b in itertools.combinations(range(8), 2):
            swapped = [t[form][:a] + [t[form][b]] + t[form][a + 1:b]
                       + [t[form][a]] + t[form][b + 1:] for t in samples]
            assert (a, b) == (0, 1) or any(
                sum(u) != sum(t[form]) for u, t in zip(swapped, samples))


@pytest.mark.parametrize("gammas", NORM_FORM_GAMMAS)
def test_straight_line_norm_form_exact(gammas):
    """In exact mode, on the integer numerators, the same forms equal the
    Fraction sums of their terms (size2 that sum as a float)."""
    params = AlgebraParams(EXACT, *gammas)
    rng = random.Random(f"norm-form-exact-{gammas}")
    for _ in range(100):
        x, y = (Octonion.make(params, [Fraction(rng.randint(-9, 9),
                                                rng.randint(1, 12))
                                       for _ in range(8)]) for _ in range(2))
        norm, size2, polar = map(sum, norm_form_terms(x, y))
        assert (x.norm(), x.size2(), x.polar_form(y)) == \
            (norm, float(size2), polar)
        assert type(x.norm()) is type(x.polar_form(y)) is Fraction


class TestClosedFormConjugator:
    """conjugating_element on generic conjugates, conj(lam) and lam itself:
    each delta is pure with delta*lam = mu*delta, or the call raises a
    typed error (over the split algebras only)."""

    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    @pytest.mark.parametrize("gammas", CONJ_GAMMAS)
    def test_delta_solves_conjugation(self, gammas, field):
        P = AlgebraParams(field, *gammas)
        definite = all(d > 0 for d in P.table.norm_diag)
        rng = random.Random(f"{gammas}-{field.exact}")
        solved = 0
        for n in range(40):
            lam = random_octonion(P, rng, span=3)
            if not field.exact:  # |im lam| down to 1e-7
                lam = lam.re() + lam.im() * 10.0 ** -(n % 8)
            q = random_octonion(P, rng, span=3)
            if lam.is_central() or q.norm() == 0:
                continue
            for mu in (lam, lam.conj(), (q * lam) * q.inverse()):
                try:
                    d = conjugating_element(lam, mu)
                except OcpolyError:
                    assert not definite
                    continue
                assert d.coords[0] == 0 and not d.is_zero()
                resid = d * lam - mu * d
                if field.exact:
                    assert resid.is_zero()
                else:
                    bound = [s + t for s, t in zip(product_magnitude(d, lam),
                                                   product_magnitude(mu, d))]
                    assert all(abs(r) <= 1e-8 * b
                               for r, b in zip(resid.coords, bound))
                solved += 1
        assert solved >= 100

    def test_small_imaginary_part(self, PR):
        i = Octonion.basis(PR, 1)
        lam = 1 + i * 1e-5
        d = conjugating_element(lam, lam.conj())
        assert d.coords[0] == 0
        assert ((d * lam) * d.inverse()).isclose(lam.conj(), tol=1e-12)


class TestNegligible:
    def test_indefinite_residual_is_not_zero(self):
        """x - j at j + 3i over (2, 3, 5) is 3i, of norm -18: a negative
        norm is no evidence of a small element."""
        P = AlgebraParams(REAL, 2, 3, 5)
        i, j = Octonion.basis(P, 1), Octonion.basis(P, 2)
        val = OPolynomial.make(P, [-j, 1]).eval(j + 3 * i)
        assert val == 3 * i and val.norm() == -18
        assert not val.negligible(REAL.residual_tol)
        assert val.misfit(REAL.residual_tol).startswith(
            f"residual {3 * math.sqrt(2):.3e} > ")

    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    def test_size_is_norm_on_definite_algebras(self, field):
        P = AlgebraParams(field, -1, -2, -3)
        rng = random.Random(4)
        for _ in range(50):
            x = random_octonion(P, rng, span=3) / 7
            assert x.size2() == float(x.norm())


class TestZeroAndCloseness:
    """is_zero() means exactly zero; negligible() is the real-mode test,
    and isclose() the one closeness rule, |x - y| <= tol (1 + |y|)."""

    def test_is_zero_is_exact(self, PR):
        tiny = Octonion.scalar(PR, 1e-12)
        assert not tiny.is_zero() and Octonion.zero(PR).is_zero()
        assert tiny.negligible(PR.field.fixed_tol)

    def test_isclose_is_the_return_rule(self, PR):
        """A difference of 0.9 tol in every coordinate: each coordinate is
        within tol, but its size sqrt(8) 0.9 tol exceeds tol (1 + |0|)."""
        tol = PR.field.fixed_tol
        zero = Octonion.zero(PR)
        spread = Octonion.make(PR, [0.9 * tol] * 8)
        assert not spread.isclose(zero)
        assert Octonion.make(PR, [0.9 * tol]).isclose(zero)
        # the scale is 1 + |other|, with sizes by size2
        far = Octonion.make(PR, [3e6, 4e6])
        assert (far + Octonion.make(PR, [0, 0, 4e-3])).isclose(far)
        assert not (far + Octonion.make(PR, [0, 0, 6e-3])).isclose(far)

    def test_isclose_sizes_on_split_algebras(self):
        """Over (2, 3, 5) x = i + j + l + il has n(x) = 0 but size2 20: a
        rule by the signed norm would take i + x for i."""
        P = AlgebraParams(REAL, 2, 3, 5)
        i, j, l, il = (Octonion.basis(P, a) for a in (1, 2, 4, 5))
        x = i + j + l + il
        assert x.norm() == 0 and x.size2() == 20
        assert not (i + x).isclose(i)
        assert (i + x * 1e-10).isclose(i)

    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    def test_anisotropic(self, field):
        """Over (2, 3, 5) the norm diagonal is (1, -2, -3, 6, -5, 10, 15,
        -30): x = i + j + l + il has n(x) = 0, so it is no unit, and near
        it the test turns on the tolerance."""
        P = AlgebraParams(field, 2, 3, 5)
        i, j, l, il = (Octonion.basis(P, a) for a in (1, 2, 4, 5))
        x = i + j + l + il
        tol = field.witness_tol
        assert x.norm() == 0 and not x.anisotropic(tol, 1)
        assert i.anisotropic(tol, 1) and (x + i).anisotropic(tol, 1)
        assert not Octonion.zero(P).anisotropic(tol, 0)
        near = x + i * field.coerce(Fraction(1, 10 ** 9))
        assert near.norm() != 0
        assert near.anisotropic(tol, 1) == field.exact
        # negligible against the size given, though not isotropic
        assert i.anisotropic(tol, 1e8) == field.exact


class TestTextFormat:
    def test_parse_basic(self, P, basis):
        one, i, j, k, l = basis
        assert parse_octonion("1 - i + 1/2 jl", P).coords == \
            Octonion.make(P, [1, -1, 0, 0, 0, 0, Fraction(1, 2), 0]).coords
        assert parse_octonion("ij", P).isclose(k)
        assert parse_octonion("-kl", P).isclose(-Octonion.basis(P, 7))

    def test_roundtrip_exact(self, P, rng):
        for _ in range(200):
            z = Octonion.make(P, [Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 9))
                                  for _ in range(8)])
            assert parse_octonion(format_octonion(z), P).coords == z.coords

    def test_roundtrip_real(self, PR, rng):
        for _ in range(200):
            z = Octonion.make(PR, [rng.uniform(-4, 4) for _ in range(8)])
            back = parse_octonion(format_octonion(z), PR)
            assert back.coords == z.coords

    def test_parse_errors(self, P):
        with pytest.raises(ParseError):
            parse_octonion("", P)
        with pytest.raises(ParseError):
            parse_octonion("1 + + i", P)
        with pytest.raises(ParseError):
            parse_octonion("q", P)

"""Seeded query streams for the three benchmark workloads.

A workload turns (seed, index) into one query.  Inputs are built with the
independent arithmetic of ``oracle`` and handed to ocpoly only as
coordinates, so a wrong product in ocpoly cannot make its own inputs agree
with it.  Each query has

- ``run()``: the ocpoly calls a user would make; only this part is timed;
- ``check(answer)``: ``None`` if the oracle accepts the answer, else the
  cause (one of ``WRONG``);
- ``plant(answer)``: a perturbed copy of the answer that ``check`` must
  reject, used to prove the checker can fail.

The mix of query kinds follows a fixed cycle of slots, so that a run that
stops part-way through still has the intended mix; the seed draws the
inputs of each slot.  Calls go through module attributes (``R.roots``), so
the tracer in ``spans`` sees them when it wraps those attributes.
"""

from __future__ import annotations

import importlib
import math
import os
import random
from fractions import Fraction

import oracle
from oracle import STANDARD, Algebra, same_class

A = importlib.import_module("ocpoly.algebra")
O = importlib.import_module("ocpoly.opoly")
S = importlib.import_module("ocpoly.scalars")
R = importlib.import_module("ocpoly.roots")
D = importlib.import_module("ocpoly.dynamics")
RE = importlib.import_module("ocpoly.render")
ERR = importlib.import_module("ocpoly.errors")

NONSTANDARD = (-1, -2, -3)
WRONG = ("missing_root", "lost_sphere", "residual", "other_wrong")
ERRORS = ("NoConvergence", "UnsupportedDegree", "other_error")

REAL_ALG = Algebra(STANDARD, 0.0)
EXACT_ALG = {g: Algebra(g, Fraction(0)) for g in (STANDARD, NONSTANDARD)}
REAL_PARAMS = A.AlgebraParams.octonions(S.REAL)
EXACT_PARAMS = {g: A.AlgebraParams(S.EXACT, *g) for g in EXACT_ALG}


def error_cause(exc):
    """Failure cause of a query that raised."""
    if isinstance(exc, ERR.NoConvergence):
        return "NoConvergence"
    if isinstance(exc, ERR.UnsupportedDegree):
        return "UnsupportedDegree"
    return "other_error"


def element(params, coords):
    return A.Octonion.make(params, coords)


def poly(params, coeffs):
    return O.OPolynomial.make(params, [element(params, c) for c in coeffs])


def coords(x):
    return tuple(x.coords)


def smooth_cycle(counts):
    """Slots of one cycle, each kind spread evenly over it: the j-th of n
    slots of a kind sits at (j + 0.5) / n."""
    keyed = [((j + 0.5) / n, idx, kind) for idx, (kind, n) in
             enumerate(counts) for j in range(n)]
    return [kind for _, _, kind in sorted(keyed)]


# ---------------------------------------------------------------------------
# Random inputs


def real_elem(rng, span=4.0):
    return tuple(rng.uniform(-span, span) for _ in range(8))


def real_unit_imag(rng):
    while True:
        v = [0.0] + [rng.uniform(-1, 1) for _ in range(7)]
        n = math.sqrt(sum(c * c for c in v))
        if n > 0.1:
            return tuple(c / n for c in v)


def real_nonsmall(rng):
    while True:
        x = real_elem(rng)
        if REAL_ALG.abs(x) >= 0.5:
            return x


def class_member(alg, T, N, u):
    """T/2 + sqrt(N - T^2/4) u for a unit pure-imaginary u."""
    rho = math.sqrt(N - T * T / 4)
    return alg.add(alg.scalar(T / 2), alg.scale(u, rho))


def rat_elem(rng):
    """Rational element with a nonzero imaginary part."""
    while True:
        x = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))
                  for _ in range(8))
        if any(x[1:]):
            return x


def exact_class(alg, x):
    return (2 * x[0], alg.norm(x))


# ---------------------------------------------------------------------------
# Query kinds


class RootsQuery:
    """roots(f), checked for residuals, known roots, expected spheres and
    one root (or sphere) per companion class."""

    roots_call = True

    def __init__(self, kind, alg, params, f, known=(), spheres=(),
                 hard=False):
        self.kind, self.alg, self.params = kind, alg, params
        self.f, self.known, self.spheres, self.hard = f, known, spheres, hard
        self.exact = params.field.exact
        self.F = poly(params, f)

    def run(self):
        return R.roots(self.F)

    def _is_root(self, f, lam):
        if self.exact:
            return not any(self.alg.eval(f, lam))
        return self.alg.residual(f, lam) <= oracle.RESIDUAL_TOL

    def _sphere_ok(self, T, N):
        """Every member of the class (T, N) is a root: exactly, E = G = 0 in
        the linear reduction; in real mode, two members have small
        residuals."""
        if self.exact:
            p, q = 0, 1
            E = G = self.alg.scalar(0)
            for a in self.f:
                E = self.alg.add(E, self.alg.scale(a, p))
                G = self.alg.add(G, self.alg.scale(a, q))
                p, q = T * p + q, -N * p
            return not any(E) and not any(G)
        if N - T * T / 4 <= 0:
            return False
        for u in ((0.0, 1.0) + (0.0,) * 6, (0.0,) + (7 ** -0.5,) * 7):
            if not self._is_root(self.f, class_member(self.alg, T, N, u)):
                return False
        return True

    def check(self, rs):
        alg = self.alg
        isolated = [coords(lam) for lam, _ in rs.isolated]
        spheres = [(cls.T, cls.N) for cls in rs.spherical]
        for lam in isolated:
            if not self._is_root(self.f, lam):
                return "residual"
        for T, N in spheres:
            if not self._sphere_ok(T, N):
                return "residual"
        classes = oracle.companion_classes(alg.companion(self.f))
        scale = 1 + max(max(abs(T) / 2, math.sqrt(abs(N)))
                        for T, N in classes)
        fsph = [(float(T), float(N)) for T, N in spheres]
        for T, N in self.spheres:
            if not any(same_class(float(T), float(N), t, n, scale)
                       for t, n in fsph):
                return "lost_sphere"
        for lam in self.known:
            hit = any(self._same_point(lam, mu) for mu in isolated)
            T, N = exact_class(alg, lam)
            if not hit and not any(same_class(float(T), float(N), t, n, scale)
                                   for t, n in fsph):
                return "missing_root"
        found = fsph + [(float(2 * mu[0]), float(alg.norm(mu)))
                        for mu in isolated]
        for T, N in classes:
            if not any(same_class(T, N, t, n, scale) for t, n in found):
                return "missing_root"
        return None

    def _same_point(self, lam, mu):
        if self.exact:
            return lam == mu
        tol = 1e-6 * (1 + max(abs(c) for c in lam))
        return all(abs(a - b) <= tol for a, b in zip(lam, mu))

    def plant(self, rs):
        """rs with its first isolated root moved off the root set, or with
        the non-root 1e-3 added when it has none."""
        if rs.isolated:
            (lam, cls), rest = rs.isolated[0], rs.isolated[1:]
        else:
            lam, cls, rest = element(self.params, [0]), None, ()
        shift = Fraction(1, 1000) if self.exact else 1e-3 * (1 + lam.abs())
        moved = element(self.params, [lam.coords[0] + shift]
                        + list(lam.coords[1:]))
        return R.RootSet(((moved, cls),) + rest, rs.spherical, rs.anomalies)


class WitnessQuery:
    """rmr_witness(f, mu) for a conjugate mu of a known root: c must make
    mu a root of f * c."""

    kind, roots_call, hard = "rmr_witness", False, False

    def __init__(self, alg, params, f, mu):
        self.alg, self.params, self.f, self.mu = alg, params, f, mu
        self.exact = params.field.exact
        self.F, self.MU = poly(params, f), element(params, mu)

    def run(self):
        return R.rmr_witness(self.F, self.MU)

    def check(self, c):
        fc = self.alg.scale_right(self.f, coords(c))
        if self.exact:
            return "residual" if any(self.alg.eval(fc, self.mu)) else None
        if self.alg.residual(fc, self.mu) > oracle.RESIDUAL_TOL:
            return "residual"
        return None


class RealLMRQuery:
    """lmr_describe(f), then on the class of a known root: lmr_sample and
    lmr_contains on one point inside the LMR set and one outside it."""

    kind, roots_call, hard = "lmr", False, False

    def __init__(self, f, T, N, p_in, p_out, expect_out, seed):
        self.f, self.T, self.N = f, T, N
        self.expect_out, self.seed = expect_out, seed
        self.F = poly(REAL_PARAMS, f)
        self.P_IN = element(REAL_PARAMS, p_in)
        self.P_OUT = element(REAL_PARAMS, p_out)

    def run(self):
        descs = R.lmr_describe(self.F)
        scale = 1 + abs(self.T) + math.sqrt(self.N)
        desc = next((d for d in descs if same_class(
            float(d.cls.T), float(d.cls.N), self.T, self.N, scale)), None)
        if desc is None or desc.kind == "whole-class":
            return desc, [], None, None
        return (desc, R.lmr_sample(desc, 4, seed=self.seed),
                R.lmr_contains(desc, self.P_IN),
                R.lmr_contains(desc, self.P_OUT))

    def check(self, answer):
        desc, samples, inside, outside = answer
        if desc is None:
            return "missing_root"
        scale = 1 + abs(self.T) + math.sqrt(self.N)
        for p in samples:
            pc = coords(p)
            if (not same_class(2 * pc[0], REAL_ALG.norm(pc), self.T, self.N,
                               scale)
                    or REAL_ALG.lmr_gap(self.f, pc) > 1e-8):
                return "residual"
        if desc.kind == "whole-class":
            return None
        if inside is not True or outside is not self.expect_out:
            return "other_wrong"
        return None


class ExactLMRQuery:
    """lmr_describe_class on the class of a known root, then a batch of
    lmr_sample_detailed points, each recomputed with multiple_root."""

    kind, roots_call, hard = "lmr", False, False

    def __init__(self, alg, params, f, T, N, count, seed):
        self.alg, self.params, self.f = alg, params, f
        self.count, self.seed = count, seed
        self.F = poly(params, f)
        self.cls = R.ConjClass(T, N)

    def run(self):
        desc = R.lmr_describe_class(self.F, self.cls)
        if desc.kind != "parametrized":
            return desc, [], []
        samples = R.lmr_sample_detailed(desc, self.count, seed=self.seed)
        return desc, samples, [R.multiple_root(self.F, self.cls, c, "left")
                               for _, _, c, _ in samples]

    def check(self, answer):
        desc, samples, again = answer
        alg = self.alg
        if desc.kind == "single-point":
            if any(alg.eval(self.f, coords(desc.point))):
                return "residual"
            return None
        if desc.kind != "parametrized":
            return None
        for (_, _, c, pt), mr in zip(samples, again):
            pc = coords(pt)
            if any(alg.eval(alg.scale_left(coords(c), self.f), pc)):
                return "residual"
            if coords(mr) != pc:
                return "other_wrong"
        return None


class DynamicsQuery:
    """One dynamics call on x^2 + Bx + C built around a fixed point alpha
    that attracts slowly (growth bounds 0.9 <= m <= M < 0.97)."""

    roots_call, hard = False, False

    def __init__(self, kind, f, alpha, B, start):
        self.kind, self.f, self.alpha, self.B = kind, f, alpha, B
        self.start = start
        self.F = poly(REAL_PARAMS, f)
        self.ALPHA = element(REAL_PARAMS, alpha)
        self.START = element(REAL_PARAMS, start)

    def run(self):
        if self.kind == "fixed_points":
            return D.fixed_points(self.F)
        if self.kind == "classify_fixed":
            return D.classify_fixed(self.F, self.ALPHA)
        if self.kind == "orbit":
            return D.orbit(self.F, self.START, 100)
        return D.detect_pseudo_period(self.F, self.START, 32)

    def check(self, answer):
        alg = REAL_ALG
        if self.kind == "fixed_points":
            g = list(self.f)
            g[1] = alg.sub(g[1], alg.scalar(1))     # f(x) - x
            return RootsQuery("fixed_points", alg, REAL_PARAMS, g,
                              known=(self.alpha,)).check(answer)
        if self.kind == "classify_fixed":
            a, B = self.alpha, self.B
            re2ab = 2 * a[0] + B[0]
            im_ab = math.sqrt(sum(c * c for c in alg.add(a, B)[1:]))
            im_a = math.sqrt(sum(c * c for c in a[1:]))
            M = math.hypot(re2ab, im_ab + im_a)
            m = math.hypot(re2ab, im_ab - im_a)
            ok = (answer.verdict == "attracting"
                  and abs(answer.M - M) <= 1e-9 and abs(answer.m - m) <= 1e-9)
            return None if ok else "other_wrong"
        if self.kind == "orbit":
            its = [coords(x) for x in answer.iterates]
            if its[0] != self.start or answer.escaped:
                return "other_wrong"
            for x, y in zip(its, its[1:]):
                err = alg.abs(alg.sub(alg.eval(self.f, x), y))
                if err > 1e-10 * (1 + alg.norm(x)):
                    return "residual"
            per = answer.detected_period
            if per is None and len(its) != 101:
                return "other_wrong"
            if per is not None and alg.abs(alg.sub(its[-1], its[-1 - per])) \
                    >= 1e-9:
                return "other_wrong"
            return None
        x, expect = self.start, None
        for n in range(1, 33):
            x = alg.eval(self.f, x)
            if alg.abs(alg.sub(x, self.start)) < 1e-9:
                expect = n
                break
        return None if answer == expect else "other_wrong"


class RenderQuery:
    """escape_steps on one slice, steps_to_image and write_pgm."""

    roots_call, hard = False, False

    def __init__(self, kind, f, view, path, samples, disk_rule):
        self.kind, self.f, self.view, self.path = kind, f, view, path
        self.samples, self.disk_rule = samples, disk_rule
        self.F = poly(REAL_PARAMS, f)
        self.spec = RE.SliceSpec(
            base=element(REAL_PARAMS, view["base"]),
            dir_u=element(REAL_PARAMS, view["dir_u"]),
            dir_v=element(REAL_PARAMS, view["dir_v"]),
            width=view["width"], height=view["height"], scale=view["scale"],
            max_iter=view["max_iter"], escape_radius=view["radius"])

    def run(self):
        steps = RE.escape_steps(self.F, self.spec)
        img = RE.steps_to_image(steps, self.spec.max_iter)
        RE.write_pgm(self.path, img)
        return steps

    def check(self, steps):
        v = self.view
        steps = [[int(s) for s in row] for row in steps]
        if len(steps) != v["height"] or any(len(r) != v["width"]
                                            for r in steps):
            return "other_wrong"
        misses = sum(
            steps[r][c] != oracle.escape_step(
                REAL_ALG, self.f, oracle.pixel_point(v, r, c),
                v["max_iter"], v["radius"])
            for r, c in self.samples)
        if misses > 1:      # one orbit on a chaotic boundary may flip
            return "other_wrong"
        if self.disk_rule and oracle.unit_disk_agreement(v, steps) < 0.99:
            return "other_wrong"
        with open(self.path, "rb") as fh:
            data = fh.read()
        expect = oracle.expected_image(steps, v["max_iter"])
        header = f"P5\n{v['width']} {v['height']}\n255\n".encode("ascii")
        if data != header + bytes(p for row in expect for p in row):
            return "other_wrong"
        return None

    def plant(self, steps):
        return [[s + 1 for s in row] for row in steps]


# ---------------------------------------------------------------------------
# Workloads


class RealQueries:
    """Real mode, standard octonions: float products, the Aberth solver,
    LMR membership and dynamics."""

    name = "real-queries"
    reference = "float"
    CYCLE = smooth_cycle([("roots", 31), ("roots_rmult", 32),
                          ("rmr_witness", 28), ("lmr", 15),
                          ("fixed_points", 8), ("classify_fixed", 8),
                          ("orbit", 2), ("detect_pseudo_period", 2),
                          ("hard", 2)])
    # Degree 3 is most common so that the median latency falls inside the
    # degree-3 cluster rather than in the gap below it.  Witness and LMR
    # queries, the slow tail, are all degree 3: their cluster then reaches
    # well past the 90th percentile, which would otherwise sit just below
    # the sparse tail of orbits and known-hard inputs and jump into it.
    DEGREES = (1, 2, 3, 3, 3)
    TAIL_KINDS = ("rmr_witness", "lmr")

    def __init__(self, seed, outdir):
        self.seed = seed

    def query(self, i):
        rng = random.Random(self.seed * 1_000_003 + i)
        cycle, pos = divmod(i, len(self.CYCLE))
        kind = self.CYCLE[pos]
        alg = REAL_ALG
        # the nth query of its kind; degrees and variants follow it, not
        # the seed, so every seed runs the same mix
        nth = cycle * self.CYCLE.count(kind) + self.CYCLE[:pos].count(kind)
        if kind == "hard":
            return self._hard(rng, nth)
        if kind in ("fixed_points", "classify_fixed", "orbit",
                    "detect_pseudo_period"):
            return self._dynamics(rng, kind)
        sphere = kind in ("roots", "roots_rmult") and nth % 4 == 3
        deg = 3 if kind in self.TAIL_KINDS else self.DEGREES[nth % 5]
        f, lam, spheres = self._factored(rng, deg, sphere)
        if kind == "roots":
            return RootsQuery(kind, alg, REAL_PARAMS, f, (lam,), spheres)
        if kind == "roots_rmult":
            fc = alg.scale_right(f, real_nonsmall(rng))
            return RootsQuery(kind, alg, REAL_PARAMS, fc, (), spheres)
        if kind == "rmr_witness":
            mu = alg.conjugate_by(real_nonsmall(rng), lam)
            return WitnessQuery(alg, REAL_PARAMS, f, mu)
        return self._lmr(rng, f, lam)

    def _factored(self, rng, deg, sphere):
        """f = g (x - lam), so lam is a right root; with sphere=True, g is a
        real irreducible quadratic and its whole class is a sphere of
        roots."""
        alg = REAL_ALG
        lam = real_elem(rng)
        if sphere:
            T = rng.uniform(-2, 2)
            N = T * T / 4 + rng.uniform(0.5, 4)
            g = [alg.scalar(N), alg.scalar(-T), alg.scalar(1)]
            return alg.poly_mul(g, alg.linear(lam)), lam, ((T, N),)
        g = [real_elem(rng) for _ in range(deg - 1)] + [alg.scalar(1)]
        return alg.poly_mul(g, alg.linear(lam)), lam, ()

    def _hard(self, rng, nth):
        """Inputs that fail today, in rotation: degree 5-6, coefficient
        scale 1e2-1e4, and a sphere repeated in the companion.  Degree 4
        is left out because about a third of its inputs converge, which
        would make the run's cost depend on the seed."""
        alg = REAL_ALG
        variant, sub = nth % 3, (nth // 3) % 3
        if variant == 0:
            f = [real_elem(rng) for _ in range(5 + sub % 2)] \
                + [alg.scalar(1)]
            return RootsQuery("roots", alg, REAL_PARAMS, f, hard=True)
        if variant == 1:
            span = 4.0 * 10 ** (2 + sub)
            f = [real_elem(rng, span) for _ in range(2 + sub % 2)] \
                + [alg.scalar(1)]
            return RootsQuery("roots", alg, REAL_PARAMS, f, hard=True)
        # (x^2 - T x + N)(x - lam) with lam in the class (T, N): the
        # companion is (x^2 - T x + N)^3
        T = rng.uniform(-2, 2)
        N = T * T / 4 + rng.uniform(0.5, 4)
        lam = class_member(alg, T, N, real_unit_imag(rng))
        f = alg.poly_mul([alg.scalar(N), alg.scalar(-T), alg.scalar(1)],
                         alg.linear(lam))
        return RootsQuery("roots", alg, REAL_PARAMS, f, (lam,), ((T, N),),
                          hard=True)

    def _lmr(self, rng, f, lam):
        """The root of c f in the class of lam is -(cE)^-1 (cG), with
        E lam + G the linear reduction of f on that class."""
        alg = REAL_ALG
        T, N = 2 * lam[0], alg.norm(lam)
        p, q = 0.0, 1.0
        E = G = alg.scalar(0)
        for a in f:
            E, G = alg.add(E, alg.scale(a, p)), alg.add(G, alg.scale(a, q))
            p, q = T * p + q, -N * p
        c = real_nonsmall(rng)
        p_in = alg.scale(alg.mul(alg.inverse(alg.mul(c, E)), alg.mul(c, G)),
                         -1)
        # a conjugate of p_in: same class, and off the LMR set unless the
        # oracle says otherwise
        p_out, expect_out = p_in, True
        for _ in range(5):
            cand = alg.conjugate_by(real_nonsmall(rng), p_in)
            gap = alg.lmr_gap(f, cand)
            if gap > 1e-4 or gap < 1e-10:
                p_out, expect_out = cand, gap < 1e-10
                break
        return RealLMRQuery(f, T, N, p_in, p_out, expect_out,
                            rng.randrange(1 << 30))

    def _dynamics(self, rng, kind):
        alg = REAL_ALG
        u, w = real_unit_imag(rng), real_unit_imag(rng)
        a0 = rng.uniform(-1, 1)
        s = rng.choice((-1, 1)) * rng.uniform(0.9, 0.95)
        alpha = alg.add(alg.scalar(a0), alg.scale(u, rng.uniform(0, 0.08)))
        im_w = alg.scale(w, rng.uniform(0, 0.08))
        # Re(2 alpha + B) = s and Im(alpha + B) = im_w
        B = alg.add(alg.scalar(s - 2 * a0),
                    alg.sub(im_w, (0.0,) + alpha[1:]))
        C = alg.sub(alg.sub(alpha, alg.mul(alpha, alpha)), alg.mul(B, alpha))
        f = [C, B, alg.scalar(1)]
        start = alg.add(alpha, alg.scale(real_unit_imag(rng), 1e-2))
        return DynamicsQuery(kind, f, alpha, B, start)


class ExactOracle:
    """Exact mode: Fraction products, sympy factoring and the exact
    nullspace, on two sets of structure constants."""

    name = "exact-oracle"
    reference = "fraction"
    CYCLE = smooth_cycle([("roots", 8), ("roots_ns", 4), ("sphere", 2),
                          ("reference", 2), ("rmr_witness", 6),
                          ("rmr_witness_ns", 4), ("lmr", 6), ("lmr_ns", 4),
                          ("lmr_reference", 2), ("hard", 1)])

    def __init__(self, seed, outdir):
        self.seed = seed

    def query(self, i):
        rng = random.Random(self.seed * 1_000_003 + i)
        kind = self.CYCLE[i % len(self.CYCLE)]
        g = NONSTANDARD if kind.endswith("_ns") else STANDARD
        alg, params = EXACT_ALG[g], EXACT_PARAMS[g]
        kind = kind.removesuffix("_ns")
        if kind in ("reference", "lmr_reference"):
            one, i_, j_, k_ = (tuple(Fraction(int(a == b)) for b in range(8))
                               for a in range(4))
            f = [alg.sub(one, k_), i_, one]          # x^2 + ix - ij + 1
            if kind == "lmr_reference":
                return ExactLMRQuery(alg, params, f, Fraction(0),
                                     Fraction(1), 4, rng.randrange(1 << 30))
            return RootsQuery("roots", alg, params, f,
                              known=(j_, alg.sub(j_, i_)))
        lam = rat_elem(rng)
        if kind == "sphere":
            # (x - conj(lam))(x - lam) = x^2 - T x + N
            f = alg.poly_mul(alg.linear(alg.conj(lam)), alg.linear(lam))
            return RootsQuery("roots", alg, params, f,
                              spheres=(exact_class(alg, lam),))
        mu = rat_elem(rng)
        while exact_class(alg, mu) == exact_class(alg, lam):
            mu = rat_elem(rng)
        f = alg.poly_mul(alg.linear(mu), alg.linear(lam))
        if kind == "roots":
            return RootsQuery("roots", alg, params, f, known=(lam,))
        if kind == "hard":
            # a degree-3 product of linear factors: companion degree 6
            f = alg.poly_mul(alg.linear(rat_elem(rng)), f)
            return RootsQuery("roots", alg, params, f, known=(lam,),
                              hard=True)
        if kind == "rmr_witness":
            return WitnessQuery(alg, params, f,
                                alg.conjugate_by(rat_elem(rng), lam))
        T, N = exact_class(alg, lam)
        return ExactLMRQuery(alg, params, f, T, N, 4, rng.randrange(1 << 30))


class RenderSlices:
    """A fixed set of escape-time slices, each written as a PGM image.

    The views differ in bounded share and degree, because the kernel's cost
    is pixel-iterations.  The wide view appears twice per cycle so that the
    median image is always a wide view and p90 always a zoomed one.
    """

    name = "render-slices"
    reference = "numpy"
    SIZE = 24
    CYCLE = ["wide", "bench", "zoom", "wide", "cubic"]

    def __init__(self, seed, outdir):
        alg, n = REAL_ALG, self.SIZE
        one, i_, j_, l_ = (tuple(float(a == b) for b in range(8))
                           for a in (0, 1, 2, 4))
        zero = alg.scalar(0)
        square = [zero, zero, one]
        rng = random.Random(seed)
        # render_bench.py's slice: x^2 + ix - i/2 - 1/4 through 0.1j
        bench = [alg.sub(alg.scale(i_, -0.5), alg.scale(one, 0.25)), i_, one]
        cubic = [real_elem(rng, 1.0) for _ in range(3)] + [one]

        def view(base, du, dv, scale, radius):
            return {"base": base, "dir_u": du, "dir_v": dv, "width": n,
                    "height": n, "scale": scale, "max_iter": 50,
                    "radius": radius}

        self.views = {
            # z^2 on the (1, i) plane: bounded exactly on the unit disk
            "wide": (square, view(zero, one, i_, 4.0 / n, 2.0), True),
            "bench": (bench, view(alg.scale(j_, 0.1), one, i_, 4.0 / n, 4.0),
                      False),
            # inside the unit disk: every pixel runs to max_iter
            "zoom": (square, view(zero, one, i_, 1.0 / n, 2.0), True),
            "cubic": (cubic, view(zero, j_, l_, 4.0 / n, 2.0), False),
        }
        self.samples = {k: [(rng.randrange(n), rng.randrange(n))
                            for _ in range(16)] for k in self.views}
        self.outdir = outdir

    def query(self, i):
        kind = self.CYCLE[i % len(self.CYCLE)]
        f, view, disk = self.views[kind]
        path = os.path.join(self.outdir, f"{kind}.pgm")
        return RenderQuery(kind, f, view, path, self.samples[kind], disk)


WORKLOADS = {w.name: w for w in (RealQueries, ExactOracle, RenderSlices)}


def product_pairs(seed, count_real=1000, count_exact=200):
    """Operand pairs shaped like the workloads' products, for timing one
    Octonion product in each mode."""
    rng = random.Random(seed)
    real = [(element(REAL_PARAMS, real_elem(rng)),
             element(REAL_PARAMS, real_elem(rng))) for _ in range(count_real)]
    params = EXACT_PARAMS[STANDARD]
    exact = [(element(params, rat_elem(rng)), element(params, rat_elem(rng)))
             for _ in range(count_exact)]
    return real, exact

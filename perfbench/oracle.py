"""Independent answer checker for the ocpoly benchmark.

Nothing here imports ocpoly.  Elements are plain 8-tuples over the basis
(1, i, j, k, l, il, jl, kl) with i^2 = alpha, j^2 = beta, l^2 = gamma, and
the product is derived from the Cayley-Dickson doubling rule

    (q + r l)(s + t l) = (q s + gamma conj(t) r) + (t q + r conj(s)) l.

The same code runs on floats (real mode) and on ``Fraction`` (exact mode).
Polynomials are lists of coefficient tuples, degree-ascending, with the
indeterminate central: (sum a_r x^r)(sum b_s x^s) = sum (a_r b_s) x^(r+s).
"""

from __future__ import annotations

import math

import numpy as np

STANDARD = (-1, -1, -1)

# Relative backward error a returned real-mode root, witness or LMR point
# may have: |f(lam)| <= RESIDUAL_TOL * sum_t |a_t| |lam|^t.
RESIDUAL_TOL = 1e-8
# Relative tolerance for matching trace/norm class data between answers
# and the oracle's own companion roots.
CLASS_TOL = 1e-6


def _conj_rec(x):
    if len(x) == 1:
        return x
    h = len(x) // 2
    return _conj_rec(x[:h]) + [-c for c in x[h:]]


def _double(x, y, gammas):
    """Product of two 2^n-vectors by one application of the doubling rule
    per level; gammas[-1] is the constant of the outermost doubling."""
    if len(x) == 1:
        return [x[0] * y[0]]
    h = len(x) // 2
    g, inner = gammas[-1], gammas[:-1]
    q, r, s, t = x[:h], x[h:], y[:h], y[h:]
    left = [a + g * b for a, b in zip(_double(q, s, inner),
                                      _double(_conj_rec(t), r, inner))]
    right = [a + b for a, b in zip(_double(t, q, inner),
                                   _double(r, _conj_rec(s), inner))]
    return left + right


class Algebra:
    """Products, norms and inverses for one set of structure constants.

    The 64 basis products are generated once by the doubling rule and then
    used as a table: e_a e_b = sign[a][b] * e_{index[a][b]}.
    """

    def __init__(self, gammas=STANDARD, zero=0.0):
        self.gammas = tuple(gammas)
        self.zero = zero
        one = zero + 1
        terms = [[] for _ in range(8)]   # terms[c] = [(a, b, v), ...]
        for a in range(8):
            for b in range(8):
                ea = [zero] * 8
                eb = [zero] * 8
                ea[a] = one
                eb[b] = one
                prod = _double(ea, eb, [zero + g for g in self.gammas])
                nz = [c for c in range(8) if prod[c] != 0]
                if len(nz) != 1:
                    raise ValueError("basis product is not a monomial")
                terms[nz[0]].append((a, b, prod[nz[0]]))
        self.terms = tuple(tuple(t) for t in terms)
        # norm(x) = x conj(x) = sum diag[a] x_a^2
        self.diag = tuple(one if a == 0 else
                          -next(v for (p, q, v) in self.terms[0]
                                if p == a and q == a)
                          for a in range(8))

    def mul(self, x, y):
        return tuple(sum(v * x[a] * y[b] for a, b, v in ts)
                     for ts in self.terms)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def scale(self, x, s):
        return tuple(a * s for a in x)

    def conj(self, x):
        return (x[0],) + tuple(-a for a in x[1:])

    def norm(self, x):
        return sum(d * a * a for d, a in zip(self.diag, x))

    def inverse(self, x):
        return self.scale(self.conj(x), 1 / self.norm(x))

    def abs(self, x):
        return math.sqrt(float(self.norm(x)))

    def scalar(self, s):
        return (self.zero + s,) + (self.zero,) * 7

    def conjugate_by(self, q, lam):
        """(q lam) q^-1: an element of the conjugacy class of lam."""
        return self.mul(self.mul(q, lam), self.inverse(q))

    # -- polynomials ---------------------------------------------------------

    def poly_mul(self, f, g):
        out = [self.scalar(0)] * (len(f) + len(g) - 1)
        for r, a in enumerate(f):
            for s, b in enumerate(g):
                out[r + s] = self.add(out[r + s], self.mul(a, b))
        return out

    def linear(self, lam):
        """x - lam."""
        return [self.scale(lam, -1), self.scalar(1)]

    def scale_right(self, f, c):
        return [self.mul(a, c) for a in f]

    def scale_left(self, c, f):
        return [self.mul(c, a) for a in f]

    def eval(self, f, lam):
        acc = self.scalar(0)
        power = self.scalar(1)
        for t, a in enumerate(f):
            if t:
                power = self.mul(power, lam)
            acc = self.add(acc, self.mul(a, power))
        return acc

    def companion(self, f):
        """Real coefficients of conj(f) * f."""
        prod = self.poly_mul([self.conj(a) for a in f], f)
        return [c[0] for c in prod]

    # -- real-mode residuals -------------------------------------------------

    def residual(self, f, lam):
        """|f(lam)| relative to sum_t |a_t| |lam|^t."""
        r = self.abs(lam)
        bound = sum(self.abs(a) * r ** t for t, a in enumerate(f))
        return self.abs(self.eval(f, lam)) / max(bound, 1e-300)

    def lmr_gap(self, f, p):
        """Smallest over largest singular value of c -> (c f)(p).

        p lies in the root set of some left multiple c f (c != 0) exactly
        when this linear map on c has a nontrivial kernel, so the gap is
        ~1e-16 for LMR points and of order one for points off the set.
        """
        powers = [self.scalar(1)]
        for _ in range(len(f) - 1):
            powers.append(self.mul(powers[-1], p))
        cols = []
        for k in range(8):
            e = [0.0] * 8
            e[k] = 1.0
            acc = self.scalar(0)
            for a, pw in zip(f, powers):
                acc = self.add(acc, self.mul(self.mul(tuple(e), a), pw))
            cols.append(acc)
        s = np.linalg.svd(np.array(cols, dtype=float).T, compute_uv=False)
        return float(s[-1] / max(s[0], 1e-300))


def companion_classes(comp):
    """(T, N) classes of a real central polynomial: each complex-conjugate
    root pair z gives (2 Re z, |z|^2); real roots r give (2r, r^2).  Nearby
    roots (a repeated factor splits under rounding) are merged."""
    coeffs = np.array([float(c) for c in reversed(comp)])
    zs = np.roots(coeffs)
    scale = max(1.0, float(np.max(np.abs(zs)))) if zs.size else 1.0
    out = []
    for z in zs:
        T, N = 2 * z.real, abs(z) ** 2
        if not any(abs(T - t) <= 1e-3 * scale and abs(N - n) <= 1e-3 * scale
                   * scale for t, n in out):
            out.append((T, N))
    return out


def same_class(T1, N1, T2, N2, scale):
    return (abs(T1 - T2) <= CLASS_TOL * scale
            and abs(N1 - N2) <= CLASS_TOL * scale * scale)


# ---------------------------------------------------------------------------
# Escape-time rule for slice images


def pixel_point(view, row, col):
    """Start element of a pixel: base + x*dir_u + y*dir_v, with x along the
    columns and y along the rows, both centred on the image."""
    x = (col + 0.5 - view["width"] / 2) * view["scale"]
    y = (row + 0.5 - view["height"] / 2) * view["scale"]
    return tuple(b + x * u + y * v for b, u, v in
                 zip(view["base"], view["dir_u"], view["dir_v"]))


def escape_step(alg, f, lam, max_iter, radius):
    """0 if the substitution orbit stays within radius for max_iter steps,
    else the first step whose norm exceeds radius^2."""
    r2 = radius * radius
    for it in range(max_iter):
        lam = alg.eval(f, lam)
        if alg.norm(lam) > r2:
            return it + 1
    return 0


def unit_disk_agreement(view, steps):
    """Share of pixels of a z^2 view on the (1, i) plane through 0 whose
    escape agrees with the unit-disk rule: bounded inside |z| < 1, escaped
    outside.  Pixels within 1e-9 of the circle are not counted."""
    agree = total = 0
    for row in range(view["height"]):
        for col in range(view["width"]):
            p = pixel_point(view, row, col)
            rad = math.sqrt(sum(c * c for c in p))
            if rad <= 1 - 1e-9:
                total += 1
                agree += steps[row][col] == 0
            elif rad >= 1 + 1e-9:
                total += 1
                agree += steps[row][col] > 0
    return agree / total


def expected_image(steps, max_iter):
    """8-bit intensity rule: black for bounded, brighter for later escape."""
    return [[0 if s == 0 else 1 + (254 * (s - 1)) // max(1, max_iter - 1)
             for s in row] for row in steps]


def check_laws(alg, rng, count=20):
    """The oracle's own algebra: i j = k, l^2 = gamma, norm
    multiplicativity and alternativity on random elements."""
    def basis(a):
        return tuple(alg.zero + (a == b) for b in range(8))

    def close(x, y):
        scale = 1 + max(abs(float(c)) for c in x + y)
        return all(abs(float(a - b)) <= 1e-9 * scale for a, b in zip(x, y))

    if alg.mul(basis(1), basis(2)) != basis(3):
        return False
    if alg.mul(basis(4), basis(4)) != alg.scalar(alg.gammas[2]):
        return False
    for _ in range(count):
        x, y = (tuple(alg.zero + rng.randint(-5, 5) for _ in range(8))
                for _ in range(2))
        if not close((alg.norm(alg.mul(x, y)),), (alg.norm(x) * alg.norm(y),)):
            return False
        if not close(alg.mul(alg.mul(x, x), y), alg.mul(x, alg.mul(x, y))):
            return False
        if not close(alg.mul(alg.mul(y, x), x), alg.mul(y, alg.mul(x, x))):
            return False
    return True

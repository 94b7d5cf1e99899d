"""The doubling rule on coordinate vectors, the reference that the
multiplication table is tested against:

    (q + r*l)(s + t*l) = q s + gamma * conj(t) r + (t q + r conj(s)) l

on the halves of a vector of length 2^n, with gammas[-1] the structure
constant of the last doubling; and the paper's closed form for the left
multiple roots, in the halves of c = a + b*l."""

from ocpoly.algebra import Octonion


def cd_conj(x: tuple) -> tuple:
    if len(x) == 1:
        return x
    h = len(x) // 2
    return cd_conj(x[:h]) + tuple(-c for c in x[h:])


def cd_mul(x: tuple, y: tuple, gammas) -> tuple:
    if len(x) == 1:
        return (x[0] * y[0],)
    h = len(x) // 2
    g = gammas[len(gammas) - 1]
    gs = gammas[:-1]
    q, r = x[:h], x[h:]
    s, t = y[:h], y[h:]
    top1 = cd_mul(q, s, gs)
    top2 = cd_mul(cd_conj(t), r, gs)
    bot1 = cd_mul(t, q, gs)
    bot2 = cd_mul(r, cd_conj(s), gs)
    return (tuple(a + g * b for a, b in zip(top1, top2))
            + tuple(a + b for a, b in zip(bot1, bot2)))


def lmr_closed_form(E, G, a, b):
    """The root of c f on a class where f = E x + G, for c = a + b*l with
    a, b, E, G quaternions (so Q = H and ell = l, l^2 = gamma):

        -(n(a) E^-1 G - gamma n(b) G E^-1 + (b [conj G, E^-1] conj a) l)
        / n(c)."""
    P = E.params
    Einv, l = E.inverse(), Octonion.basis(P, 4)
    core = ((Einv * G) * a.norm() - (G * Einv) * (P.gamma * b.norm())
            + (b * (G.conj().commutator(Einv) * a.conj())) * l)
    return -(core / (a + b * l).norm())

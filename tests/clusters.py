"""The clustering of root iterates as it was written before its radius
stopped building generators, the reference that scalars._clusters is
tested against: the same merge rule, decision for decision, and the same
centroids to the bit."""

import math

from ocpoly.scalars import CentralPoly


def reference_clusters(p: CentralPoly, zs: list) -> list:
    """The iterates zs in clusters, as (centroid, size): two groups merge
    while each is the other's nearest and their discs overlap, a disc's
    radius the group's spread plus (n |p(c)| / |a_n prod_h (c -
    c_h)^(k_h)|)^(1/k), |p(c)| at least eps sum_t |a_t| |c|^t."""
    n, groups = len(zs), [[z] for z in zs]
    size = CentralPoly(p.field, tuple(map(abs, p.coeffs)))

    def radius(i):  # of group i, from this round's cs and dist
        c, g = cs[i], groups[i]
        prod = size.coeffs[-1] * math.prod(
            d ** len(h) for d, h in zip(dist[i], groups) if h is not g)
        res = n * (abs(p.eval(c)) + math.ulp(1.0) * size.eval(abs(c)))
        return max(abs(z - c) for z in g) + (
            (res / prod) ** (1 / len(g)) if prod else math.inf)

    while True:
        cs = [sum(g) / len(g) for g in groups]
        dist = [[abs(c - e) for e in cs] for c in cs]
        for i, d in enumerate(dist):
            d[i] = math.inf  # no group is its own nearest
        near = [d.index(min(d)) for d in dist]
        pairs = {j: i for i, j in enumerate(near) if i < j and near[j] == i
                 and dist[i][j] <= radius(i) + radius(j)}
        if not pairs:
            return list(zip(cs, map(len, groups)))
        for j, i in pairs.items():
            groups[i] += groups[j]
        groups = [g for k, g in enumerate(groups) if k not in pairs]

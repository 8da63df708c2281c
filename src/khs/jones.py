"""Jones polynomial oracle via the unnormalized Kauffman-style skein.

Polynomials in the variable q are sparse ``{exponent: coefficient}`` dicts
over the integers.  The normalization matches the graded Euler characteristic
of Khovanov homology: the unknot evaluates to q + 1/q and the empty link to 1.
"""

from __future__ import annotations

from .links import OrientedLinkDiagram, resolution_circles

Laurent = dict[int, int]


def lp_add(p: Laurent, q: Laurent) -> Laurent:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
        if not out[e]:
            del out[e]
    return out


def lp_mul(p: Laurent, q: Laurent) -> Laurent:
    out: Laurent = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def lp_shift(p: Laurent, k: int, scale: int = 1) -> Laurent:
    return {e + k: scale * c for e, c in p.items()}

_CIRCLE = {1: 1, -1: 1}  # q + 1/q


def kauffman_bracket(d: OrientedLinkDiagram) -> Laurent:
    """Sum over the cube of resolutions of (-q)^{|v|} (q+1/q)^{circles(v)}."""
    n = d.n_crossings
    total: Laurent = {}
    powers = [{0: 1}]
    for v in range(1 << n):
        vertex = tuple((v >> i) & 1 for i in range(n))
        circles, _, _ = resolution_circles(d, vertex)
        while len(powers) <= len(circles):
            powers.append(lp_mul(powers[-1], _CIRCLE))
        w = sum(vertex)
        term = lp_shift(powers[len(circles)], w, (-1) ** w)
        total = lp_add(total, term)
    return total


def jones_polynomial(d: OrientedLinkDiagram) -> Laurent:
    """Graded-Euler-characteristic normalization of the Jones polynomial."""
    if d.is_empty():
        return {0: 1}
    br = kauffman_bracket(d)
    np_, nm = d.n_plus, d.n_minus
    return lp_shift(br, np_ - 2 * nm, (-1) ** nm)


def lp_divide(p: Laurent, q: Laurent) -> Laurent:
    """Exact division of Laurent polynomials; raises if not divisible."""
    p = dict(p)
    out: Laurent = {}
    qmax = max(q)
    qlead = q[qmax]
    while p:
        pmax = max(p)
        if p[pmax] % qlead:
            raise ValueError("not divisible")
        c = p[pmax] // qlead
        e = pmax - qmax
        out[e] = c
        p = lp_add(p, lp_shift(q, e, -c))
    return out


def determinant(d: OrientedLinkDiagram) -> int:
    """|Ĵ(L)/(q+1/q) evaluated at q² = −1|."""
    if d.is_empty():
        raise ValueError("determinant of the empty link is undefined")
    reduced = lp_divide(jones_polynomial(d), _CIRCLE)
    # evaluate at q = i; result is ± a real or ± i times a real
    re = im = 0
    for e, c in reduced.items():
        k = e % 4
        if k == 0:
            re += c
        elif k == 1:
            im += c
        elif k == 2:
            re -= c
        else:
            im -= c
    if re and im:
        raise ValueError("evaluation at q=i is not purely real or imaginary")
    return abs(re) + abs(im)


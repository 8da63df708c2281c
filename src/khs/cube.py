"""Cube of resolutions: Khovanov, Lee and Bar-Natan complexes.

Generators in cohomological degree h = |v| − n₋ are pairs (vertex, labels):
a 0/1 resolution vertex v and a labeling of its circles by 1 (label 0) or x
(label 1).  The quantum grading is q = (#1-labels − #x-labels) + |v| + n₊ −
2n₋ and serves as the filtration level.  The generator ordering — vertices
by increasing binary value, labelings lexicographically with 1 < x — is the
shared basis contract between the integral and mod-2 complexes that the
Bockstein computation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .complexes import Column, FilteredComplex, apply
from .links import OrientedLinkDiagram, oriented_resolution, resolution_circles

# Frobenius structure constants.  m maps a pair of labels to a list of
# (label, coefficient); delta maps a label to a list of (label, label,
# coefficient).  All comultiplications used here are symmetric in the two
# output factors, so no output ordering convention is needed.
_THEORIES = {
    "khovanov": {
        "m": {(0, 0): ((0, 1),), (0, 1): ((1, 1),), (1, 0): ((1, 1),),
              (1, 1): ()},
        "delta": {0: ((0, 1, 1), (1, 0, 1)), 1: ((1, 1, 1),)},
        "rings": ("Z", "Q", "gf2"),
    },
    # x² = 1 deformation over characteristic 0
    "lee": {
        "m": {(0, 0): ((0, 1),), (0, 1): ((1, 1),), (1, 0): ((1, 1),),
              (1, 1): ((0, 1),)},
        "delta": {0: ((0, 1, 1), (1, 0, 1)), 1: ((1, 1, 1), (0, 0, 1))},
        "rings": ("Q",),
    },
    # x² = x deformation over characteristic 2
    "bar_natan": {
        "m": {(0, 0): ((0, 1),), (0, 1): ((1, 1),), (1, 0): ((1, 1),),
              (1, 1): ((1, 1),)},
        "delta": {0: ((0, 1, 1), (1, 0, 1), (0, 0, 1)), 1: ((1, 1, 1),)},
        "rings": ("gf2",),
    },
}


@dataclass
class CubeComplex:
    diagram: OrientedLinkDiagram
    theory: str
    complex: FilteredComplex
    # per degree h: ordered generators (vertex integer, labels tuple)
    gens: dict[int, list[tuple[int, tuple[int, ...]]]]
    index: dict[int, dict[tuple[int, tuple[int, ...]], int]]

    def gen_id(self, h: int, k: int) -> str:
        n = self.diagram.n_crossings
        v, labels = self.gens[h][k]
        vs = format(v, f"0{n}b")[::-1] if n else "-"
        return f"v{vs}:" + "".join("x" if l else "1" for l in labels)


def build_complex(d: OrientedLinkDiagram, theory: str,
                  ring: str = "gf2") -> CubeComplex:
    """Build the cube complex of ``d`` for the given Frobenius theory."""
    if theory not in _THEORIES:
        raise ValueError(f"unknown theory {theory!r}")
    spec = _THEORIES[theory]
    if ring not in spec["rings"]:
        raise ValueError(f"theory {theory!r} not available over ring {ring!r}")
    n = d.n_crossings
    np_, nm = d.n_plus, d.n_minus

    vert_circ: dict[int, tuple] = {}
    for v in range(1 << n):
        vertex = tuple((v >> i) & 1 for i in range(n))
        vert_circ[v] = resolution_circles(d, vertex)

    gens: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    index: dict[int, dict[tuple[int, tuple[int, ...]], int]] = {}
    levels: dict[int, list[int]] = {}
    offset: list[int] = []  # per vertex: index of its first generator
    for v in range(1 << n):
        h = bin(v).count("1") - nm
        circles, _, _ = vert_circ[v]
        glist = gens.setdefault(h, [])
        gidx = index.setdefault(h, {})
        lv = levels.setdefault(h, [])
        base_q = bin(v).count("1") + np_ - 2 * nm
        offset.append(len(glist))
        for labels in product((0, 1), repeat=len(circles)):
            gidx[(v, labels)] = len(glist)
            glist.append((v, labels))
            lv.append(base_q + len(circles) - 2 * sum(labels))

    # Within a vertex block the labelings are lexicographic, so a
    # generator's index is the block offset plus its labels read as binary
    # (circle 0 most significant).  Each edge v -> w then maps a labeling
    # to a target index by a table over the untouched circles plus the
    # Frobenius rule on the one or two touched circles.  Distinct terms
    # of one column always hit distinct targets, so nothing accumulates,
    # and columns fill edge by edge in the order a per-generator loop
    # would insert them.  Keys are the shared ints of ``index``.
    m_rule, d_rule = spec["m"], spec["delta"]
    diff: dict[int, list[Column]] = {h: [{} for _ in gens[h]]
                                     for h in sorted(gens)}
    ids = {h: list(gidx.values()) for h, gidx in index.items()}
    for v in range(1 << n):
        h = bin(v).count("1") - nm
        circles_v, _, cr_v = vert_circ[v]
        kv = len(circles_v)
        nonfree_v = kv - d.free_loops
        block = diff[h][offset[v]:offset[v] + (1 << kv)]
        tgt = ids.get(h + 1)
        for ci in range(n):
            if (v >> ci) & 1:
                continue
            w = v | (1 << ci)
            sign = -1 if bin(v & ((1 << ci) - 1)).count("1") % 2 else 1
            circles_w, arc_circle_w, cr_w = vert_circ[w]
            kw = len(circles_w)
            nonfree_w = kw - d.free_loops
            c1, c2 = cr_v[ci]
            t1, t2 = cr_w[ci]
            # labels of untouched circles carry over by arc membership
            table = [offset[w]]
            for c in range(kv):
                if c in (c1, c2):
                    bit = 0
                elif c >= nonfree_v:  # free loop
                    bit = 1 << (kw - 1 - (nonfree_w + c - nonfree_v))
                else:
                    bit = 1 << (kw - 1 - arc_circle_w[circles_v[c][0]])
                table = [t + x for t in table for x in (0, bit)]
            s1, s2 = kv - 1 - c1, kv - 1 - c2
            u1, u2 = kw - 1 - t1, kw - 1 - t2
            if c1 != c2:  # merge
                terms = [tuple((lab << u1, sign * coeff)
                               for lab, coeff in m_rule[(a, b)])
                         for a in (0, 1) for b in (0, 1)]
            else:  # split
                terms = [tuple(((la << u1) | (lb << u2), sign * coeff)
                               for la, lb, coeff in d_rule[a])
                         for a in (0, 1) for _ in (0, 1)]
            for lab, col in enumerate(block):
                base = table[lab]
                for delta, coeff in terms[((lab >> s1) & 1) << 1
                                          | ((lab >> s2) & 1)]:
                    col[tgt[base + delta]] = coeff
    cx = FilteredComplex(ring, levels, diff)
    return CubeComplex(d, theory, cx, gens, index)


def with_ring(cube: CubeComplex, ring: str) -> CubeComplex:
    """Reinterpret an integral Khovanov cube over another coefficient ring.

    The generator ordering and differential entries are shared; only the
    ring tag changes (entries are read modulo 2 for GF(2)).
    """
    cx = cube.complex
    return CubeComplex(cube.diagram, cube.theory,
                       FilteredComplex(ring, cx.levels, cx.diff),
                       cube.gens, cube.index)


# ---------------------------------------------------------------------------
# Bigraded Khovanov homology tables
# ---------------------------------------------------------------------------


@dataclass
class HomologyTable:
    """Bigraded ranks and torsion: entries[(h, q)] = (rank, torsion orders)."""

    ring: str
    entries: dict[tuple[int, int], tuple[int, list[int]]]

    def rank(self, h: int, q: int) -> int:
        return self.entries.get((h, q), (0, []))[0]

    def torsion(self, h: int, q: int) -> list[int]:
        return self.entries.get((h, q), (0, []))[1]

    def graded_euler(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (h, q), (rank, _) in self.entries.items():
            out[q] = out.get(q, 0) + (-1 if h % 2 else 1) * rank
        return {q: v for q, v in out.items() if v}


def khovanov_homology(d: OrientedLinkDiagram, ring: str = "Z",
                      optimized: bool = False) -> HomologyTable:
    """Khovanov homology split by exact q-grading.

    ``optimized`` cancels ±1 pivots (a chain homotopy equivalence) before
    running the per-slice rank / Smith normal form computations; the naive
    path cancels nothing.
    """
    from .complexes import filtered_reduce, q_slice, unreduced

    reduce = filtered_reduce if optimized else unreduced
    cube = build_complex(d, "khovanov", ring)
    entries: dict[tuple[int, int], tuple[int, list[int]]] = {}
    qs = sorted({q for h in cube.complex.degrees()
                 for q in cube.complex.levels[h]})
    for q in qs:
        sl = reduce(q_slice(cube.complex, q)[0]).reduced
        if ring == "Z":
            for h, (free, tors) in sl.homology_integral().items():
                if free or tors:
                    entries[(h, q)] = (free, tors)
        else:
            for h, b in sl.homology_field().items():
                entries[(h, q)] = (b, [])
    return HomologyTable(ring, entries)


# ---------------------------------------------------------------------------
# Canonical Lee / Bar-Natan generators
# ---------------------------------------------------------------------------

# Expansion of the two canonical circle labels a, b into the (1, x) basis:
# Lee uses a = x + 1, b = x − 1; Bar-Natan uses a = x, b = x + 1.
_CANONICAL = {
    "lee": (((0, 1), (1, 1)), ((0, -1), (1, 1))),
    "bar_natan": (((1, 1),), ((0, 1), (1, 1))),
}


def canonical_cycle(cube: CubeComplex, reverse: bool = False) -> Column:
    """Chain of the canonical generator 𝔰 in degree 0.

    ``reverse=False`` gives 𝔰 for the diagram's own orientation; ``True``
    gives the all-reversed orientation (which swaps both labels on every
    circle).  Asserts the cycle condition before returning.
    """
    if cube.theory not in _CANONICAL:
        raise ValueError("canonical generators exist for lee/bar_natan only")
    d = cube.diagram
    res = oriented_resolution(d)
    vertex_bits = d.oriented_vertex()
    v = sum(b << i for i, b in enumerate(vertex_bits))
    a_exp, b_exp = _CANONICAL[cube.theory]
    terms: list[list[tuple[int, int]]] = []
    for c in range(res.circle_count):
        parity = res.label_parity(c) ^ (1 if reverse else 0)
        terms.append(list(b_exp if parity else a_exp))
    chain: Column = {}
    idx = cube.index[0]
    for combo in product(*[range(len(t)) for t in terms]):
        labels = tuple(terms[c][k][0] for c, k in enumerate(combo))
        coeff = 1
        for c, k in enumerate(combo):
            coeff *= terms[c][k][1]
        gi = idx[(v, labels)]
        chain[gi] = chain.get(gi, 0) + coeff
    chain = {k: c for k, c in chain.items() if c}
    if not cube.complex.ops.is_zero(apply(cube.complex.columns(0), chain)):
        raise AssertionError(
            "canonical chain is not a cycle: labeling convention bug")
    return chain

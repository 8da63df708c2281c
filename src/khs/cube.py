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

from .complexes import (
    Coeff,
    Column,
    FilteredComplex,
    apply,
    filtered_reduce,
    q_slices,
    unreduced,
)
from .links import (
    OrientedLinkDiagram,
    oriented_resolution,
    resolution_circles,
    serialize_pd,
)

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

    def from_gen_ids(self, h: int, chain: dict[str, Coeff]) -> Column | None:
        """The inverse of :meth:`gen_id` on a chain at degree h:
        ``{gen_id: coeff}`` to ``{index: coeff}``, or None if some id names
        no generator of degree h."""
        out: Column = {}
        for gid, coeff in chain.items():
            vs, _, labels = gid[1:].partition(":")
            # a malformed vertex reads as 0 and fails the round trip
            v = int(vs[::-1], 2) if vs and not vs.strip("01") else 0
            key = (v, tuple(1 if ch == "x" else 0 for ch in labels))
            k = self.index.get(h, {}).get(key)
            if k is None or self.gen_id(h, k) != gid:
                return None
            out[k] = coeff
        return out


def _skeleton(d: OrientedLinkDiagram) -> tuple:
    """The theory- and orientation-free part of the cube of ``d``, kept on
    ``d``.  It reads only ``crossings`` and ``free_loops``.

    Generators, index and q − (n₊ − 2n₋) are keyed by |v|, not by
    h = |v| − n₋; each vertex is (|v|, block offset, circle count, edges).
    Within a vertex block the labelings are lexicographic, so a
    generator's index is the block offset plus its labels read as binary
    (circle 0 most significant).  An edge v -> w sends labeling ``lab`` to
    ``off_w + pattern[lab]`` with its touched circles zeroed; the interned
    pattern carries the untouched circles over by arc membership.  The
    edge also keeps the bit positions s1, s2 of the touched circles in v
    and its shape (merge, sign, u1, u2), u1 and u2 being their positions
    in w.
    """
    if d._cube_skeleton is not None:
        return d._cube_skeleton
    n = d.n_crossings
    vert_circ = [resolution_circles(d, [(v >> i) & 1 for i in range(n)])
                 for v in range(1 << n)]
    gens: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    index: dict[int, dict[tuple[int, tuple[int, ...]], int]] = {}
    levels: dict[int, list[int]] = {}
    offset: list[int] = []  # per vertex: index of its first generator
    labelings: dict[int, list[tuple[int, ...]]] = {}  # shared label tuples
    for v, (circles, _, _) in enumerate(vert_circ):
        p, k = bin(v).count("1"), len(circles)
        glist = gens.setdefault(p, [])
        gidx = index.setdefault(p, {})
        lv = levels.setdefault(p, [])
        offset.append(len(glist))
        if k not in labelings:
            labelings[k] = list(product((0, 1), repeat=k))
        for labels in labelings[k]:
            gen = (v, labels)
            gidx[gen] = len(glist)
            glist.append(gen)
            lv.append(p + k - 2 * sum(labels))
    patterns: dict[tuple, tuple] = {}
    shapes: dict[tuple, tuple] = {}
    vertices = []
    for v, (circles_v, _, cr_v) in enumerate(vert_circ):
        kv = len(circles_v)
        edges = []
        for ci in range(n):
            if (v >> ci) & 1:
                continue
            w = v | (1 << ci)
            sign = -1 if bin(v & ((1 << ci) - 1)).count("1") % 2 else 1
            circles_w, arc_circle_w, cr_w = vert_circ[w]
            kw = len(circles_w)
            c1, c2 = cr_v[ci]
            t1, t2 = cr_w[ci]
            # an untouched circle keeps its label, found in w by one of its
            # arcs; the free loops (no arcs) end both circle lists
            bits = tuple(
                0 if c in (c1, c2) else 1 << (kw - 1 - (
                    arc_circle_w[circ[0]] if circ else c + kw - kv))
                for c, circ in enumerate(circles_v))
            pattern = patterns.get(bits)
            if pattern is None:
                table = [0]
                for bit in bits:
                    table = [t + x for t in table for x in (0, bit)]
                pattern = patterns[bits] = tuple(table)
            shape = (c1 != c2, sign, kw - 1 - t1, kw - 1 - t2)
            edges.append((offset[w], pattern, kv - 1 - c1, kv - 1 - c2,
                          shapes.setdefault(shape, shape)))
        vertices.append((bin(v).count("1"), offset[v], kv, edges))
    ids = {p: list(gidx.values()) for p, gidx in index.items()}
    d._cube_skeleton = (gens, index, levels, ids, vertices)
    return d._cube_skeleton


def build_complex(d: OrientedLinkDiagram, theory: str,
                  ring: str = "gf2") -> CubeComplex:
    """Build the cube complex of ``d`` for the given Frobenius theory.

    The resolution pass, generator layout and edge tables come from the
    diagram's skeleton, computed on its first build and shared by every
    later one: ``gens`` and ``index`` are the same lists and dicts in each
    cube.  Each build makes its own levels and differential: h = |v| − n₋
    and the q shift n₊ − 2n₋ are read from the current orientation, and
    the columns are filled by the theory's Frobenius rule.
    """
    if theory not in _THEORIES:
        raise ValueError(f"unknown theory {theory!r}")
    spec = _THEORIES[theory]
    if ring not in spec["rings"]:
        raise ValueError(f"theory {theory!r} not available over ring {ring!r}")
    gens, index, base_levels, ids, vertices = _skeleton(d)
    nm, shift = d.n_minus, d.n_plus - 2 * d.n_minus
    # Distinct terms of one column always hit distinct targets, so nothing
    # accumulates, and columns fill edge by edge in the order a
    # per-generator loop would insert them.  Keys are the shared ints of
    # ``index``.
    m_rule, d_rule = spec["m"], spec["delta"]
    diff: dict[int, list[Column]] = {p - nm: [{} for _ in glist]
                                     for p, glist in gens.items()}
    terms_of: dict[tuple, list] = {}  # per edge shape, by touched labels
    for p, off_v, kv, edges in vertices:
        block = diff[p - nm][off_v:off_v + (1 << kv)]
        tgt = ids.get(p + 1)
        for off_w, pattern, s1, s2, shape in edges:
            terms = terms_of.get(shape)
            if terms is None:
                merge, sign, u1, u2 = shape
                if merge:
                    terms = [tuple((lab << u1, sign * coeff)
                                   for lab, coeff in m_rule[(a, b)])
                             for a in (0, 1) for b in (0, 1)]
                else:
                    terms = [tuple(((la << u1) | (lb << u2), sign * coeff)
                                   for la, lb, coeff in d_rule[a])
                             for a in (0, 1) for _ in (0, 1)]
                terms_of[shape] = terms
            for lab, col in enumerate(block):
                base = off_w + pattern[lab]
                for delta, coeff in terms[((lab >> s1) & 1) << 1
                                          | ((lab >> s2) & 1)]:
                    col[tgt[base + delta]] = coeff
    levels = {p - nm: [q + shift for q in lv] for p, lv in base_levels.items()}
    cx = FilteredComplex(ring, levels, diff)
    return CubeComplex(d, theory, cx, {p - nm: g for p, g in gens.items()},
                       {p - nm: i for p, i in index.items()})


# ---------------------------------------------------------------------------
# Bigraded Khovanov homology tables
# ---------------------------------------------------------------------------


@dataclass
class HomologyTable:
    """Bigraded ranks and torsion: entries[(h, q)] = (rank, torsion orders)."""

    ring: str
    entries: dict[tuple[int, int], tuple[int, list[int]]]

    def graded_euler(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (h, q), (rank, _) in self.entries.items():
            out[q] = out.get(q, 0) + (-1 if h % 2 else 1) * rank
        return {q: v for q, v in out.items() if v}


def khovanov_homology(d: OrientedLinkDiagram, ring: str = "Z",
                      optimized: bool = True) -> HomologyTable:
    """Khovanov homology split by exact q-grading.

    ``optimized`` cancels ±1 pivots (a chain homotopy equivalence) before
    running the per-slice rank / diagonal form computations; the naive
    path (``optimized=False``, the oracle) cancels nothing.
    """
    reduce = filtered_reduce if optimized else unreduced
    cube = build_complex(d, "khovanov", ring)
    entries: dict[tuple[int, int], tuple[int, list[int]]] = {}
    for q, sl, _ in q_slices(cube.complex):
        sl = reduce(sl).reduced  # frees the slice before the next is built
        if ring == "Z":
            for h, summands in sl.homology_integral().items():
                entries[(h, q)] = summands
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
    vertex_bits = d.oriented_vertex()
    v = sum(b << i for i, b in enumerate(vertex_bits))
    a_exp, b_exp = _CANONICAL[cube.theory]
    terms = [b_exp if parity ^ reverse else a_exp
             for parity in oriented_resolution(d)]
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
            f"canonical {cube.theory} chain is not a cycle (labeling "
            f"convention bug) at all q, h=0, for link {serialize_pd(d)}")
    return chain

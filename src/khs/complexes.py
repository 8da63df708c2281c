"""Filtered cochain complexes and their homological invariants.

A :class:`FilteredComplex` stores, per cohomological degree h, an ordered
list of generators with integer filtration levels q, and the differential
as a sparse column map (generator index -> {target index: coefficient}).
Coefficients live in GF(2), the rationals, or the integers depending on
``ring`` ("gf2", "Q", "Z"); the chain-level data is always stored as ints
or Fractions and read through that ring's object in :data:`linalg.RINGS`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from . import linalg

Coeff = int | Fraction
Column = dict[int, Coeff]


@dataclass
class FilteredComplex:
    ring: str  # "gf2", "Q", or "Z"
    # per degree h: filtration level of each generator
    levels: dict[int, list[int]]
    # differential out of degree h: one sparse column per generator of C^h,
    # entries indexed by generators of C^{h+1}
    diff: dict[int, list[Column]]

    def __post_init__(self) -> None:
        if self.ring not in linalg.RINGS:
            raise ValueError(f"unknown ring {self.ring!r}")

    @property
    def ops(self):
        """The coefficient ring's arithmetic (see :data:`linalg.RINGS`)."""
        return linalg.RINGS[self.ring]

    def dim(self, h: int) -> int:
        return len(self.levels.get(h, []))

    def degrees(self) -> list[int]:
        return sorted(self.levels)

    def columns(self, h: int) -> list[Column]:
        cols = self.diff.get(h)
        return [{} for _ in range(self.dim(h))] if cols is None else cols

    def _int_matrix(self, h: int) -> list[list[int]]:
        """Dense transpose of d_h: one list per generator of C^h, indexed
        by C^{h+1} (a diagonal form does not see the transpose)."""
        n = self.dim(h + 1)
        mat = []
        for col in self.columns(h):
            dense = [0] * n
            for i, v in col.items():
                dense[i] = int(v)
            mat.append(dense)
        return mat

    # -- homology -------------------------------------------------------------

    def betti(self, h: int) -> int:
        """dim ker(d_h) − rank(d_{h−1}) over the coefficient field."""
        if self.ring == "Z":
            raise ValueError("betti is for field coefficients")
        rank = self.ops.rank
        return self.dim(h) - rank(self.columns(h)) - rank(self.columns(h - 1))

    def homology_field(self) -> dict[int, int]:
        return {h: b for h in self.degrees() if (b := self.betti(h))}

    def homology_integral(self) -> dict[int, tuple[int, list[int]]]:
        """Per degree: (free rank, prime-power torsion orders)."""
        if self.ring != "Z":
            raise ValueError("integral homology needs ring='Z'")
        # one diagonal form per d_h: its length is rank d_h, and read as
        # d_in at degree h+1 it gives the torsion there
        diag = {h: linalg.diagonal_form(self._int_matrix(h))
                for h in self.degrees()}
        out = {}
        for h in self.degrees():
            free, tors = linalg.integer_homology_summands(
                diag.get(h - 1, []), len(diag[h]), self.dim(h))
            if free or tors:
                out[h] = (free, tors)
        return out

    # -- filtration-aware structure -------------------------------------------

    def check_differential(self) -> None:
        """d² = 0 and d does not decrease filtration."""
        for h in self.degrees():
            cols = self.columns(h)
            lv = self.levels.get(h, [])
            lv1 = self.levels.get(h + 1, [])
            cols1 = self.columns(h + 1)
            for j, col in enumerate(cols):
                for i, v in col.items():
                    if not v:
                        raise ValueError("explicit zero entry in differential")
                    if lv1[i] < lv[j]:
                        raise ValueError(
                            f"filtration decreases along d at h={h}")
                if not self.ops.is_zero(apply(cols1, col)):
                    raise ValueError(f"d∘d ≠ 0 out of degree h={h}")


# ---------------------------------------------------------------------------
# Subcomplexes, slices, homology representatives
# ---------------------------------------------------------------------------


def restrict(cx: FilteredComplex,
             keep: dict[int, list[int]]) -> FilteredComplex:
    """Subquotient spanned by ``keep`` indices per degree.

    Keeps only differential entries between kept generators.  Legitimate
    for subcomplexes and associated-graded slices.
    """
    levels = {}
    diff = {}
    pos = {h: {i: k for k, i in enumerate(keep[h])} for h in keep}
    for h in sorted(keep):
        sel = keep[h]
        if not sel:
            continue
        levels[h] = [cx.levels[h][i] for i in sel]
        allcols = cx.columns(h)
        tgt = pos.get(h + 1, {})
        diff[h] = [{tgt[i]: v for i, v in allcols[j].items() if i in tgt}
                   for j in sel]
    return FilteredComplex(cx.ring, levels, diff)


def q_slice(cx: FilteredComplex, q: int,
            degrees: tuple[int, ...] | None = None
            ) -> tuple[FilteredComplex, dict]:
    """Associated-graded complex gr_q at level q: the level-q generators
    and the (level-preserving) entries between them, with their index
    lists.  When d preserves levels it is the level-q direct summand.
    ``degrees`` limits the slice to those degrees (default: all)."""
    keep = {h: [i for i, l in enumerate(cx.levels.get(h, ())) if l == q]
            for h in (cx.degrees() if degrees is None else degrees)}
    return restrict(cx, keep), keep


def q_slices(
        cx: FilteredComplex) -> Iterator[tuple[int, FilteredComplex, dict]]:
    """Every :func:`q_slice` of ``cx`` in increasing q, as (q, gr_q, keep).

    One pass over the levels finds the index lists of all levels; each
    slice is built only when the iteration reaches it.
    """
    degs = cx.degrees()
    keeps = defaultdict(lambda: {h: [] for h in degs})
    for h in degs:
        for i, l in enumerate(cx.levels[h]):
            keeps[l][h].append(i)
    for q in sorted(keeps):
        keep = keeps.pop(q)
        yield q, restrict(cx, keep), keep


def sublevel(cx: FilteredComplex, q: int) -> tuple[FilteredComplex, dict]:
    """Subcomplex of generators with level >= q."""
    keep = {h: [i for i, l in enumerate(cx.levels[h]) if l >= q]
            for h in cx.degrees()}
    return restrict(cx, keep), keep


def apply(cols: list[Column], vec: Column) -> Column:
    """Σ vec[j]·cols[j], entries not yet read through a ring."""
    acc: Column = {}
    for j, v in vec.items():
        for i, w in cols[j].items():
            acc[i] = acc.get(i, 0) + v * w
    return acc


def homology_reps(cx: FilteredComplex, h: int) -> list[Column]:
    """Deterministic basis of cycle representatives for H^h."""
    if cx.ring == "Z":
        raise ValueError("homology representatives need field coefficients")
    dim = cx.dim(h)
    if dim == 0:
        return []
    ops = cx.ops
    if cx.dim(h + 1):
        kernel = ops.nullspace(cx.columns(h))
    else:
        kernel = [{i: ops.coeff(1)} for i in range(dim)]
    return ops.independent(cx.columns(h - 1), kernel)


def class_coords(cx: FilteredComplex, h: int, reps: list[Column],
                 cycles: list[Column]) -> list[list | None]:
    """Per cycle, the coordinates of its class in the basis ``reps``.

    None marks a cycle outside the span of reps + boundaries (which
    signals a non-cycle or a wrong basis).  One elimination serves all.
    """
    if not cycles:
        return []
    ops = cx.ops
    zero, n = ops.coeff(0), len(reps)
    return [None if sol is None else [sol.get(k, zero) for k in range(n)]
            for sol in ops.solve(reps + cx.columns(h - 1), cycles)]


@dataclass
class SublevelHomology:
    """H^h(C^{≥q}) with the maps j (to H^h(C)) and p (to H^h(gr_q C)).

    ``reps`` are cycle representatives in original-complex coordinates;
    ``j_mat``/``p_mat`` hold one coordinate vector per representative in
    the bases of H^h(C) and H^h(gr_q C) that :func:`sublevel_homology`
    was given.
    """

    reps: list[Column]
    j_mat: list[list]
    p_mat: list[list]


def sublevel_homology(cx: FilteredComplex, q: int, h: int,
                      full_reps: list[Column], gr: FilteredComplex,
                      gkeep: dict, gr_reps: list[Column]) -> SublevelHomology:
    """H^h(C^{≥q}) against the bases ``full_reps`` of H^h(C) and
    ``gr_reps`` of H^h(gr_q C), where ``gr, gkeep = q_slice(cx, q)``."""
    sub, keep = sublevel(cx, q)
    back = keep.get(h, [])
    reps = [{back[i]: v for i, v in r.items()} for r in homology_reps(sub, h)]
    gpos = {i: k for k, i in enumerate(gkeep.get(h, []))}
    j_mat = class_coords(cx, h, full_reps, reps)
    if None in j_mat:
        raise AssertionError(
            f"sublevel cycle is not a cycle of C at q={q}, h={h}")
    p_mat = class_coords(gr, h, gr_reps, [
        {gpos[i]: v for i, v in r.items() if i in gpos} for r in reps])
    if None in p_mat:
        raise AssertionError(
            f"level-q part is not a gr-cycle at q={q}, h={h}")
    return SublevelHomology(reps, j_mat, p_mat)


# ---------------------------------------------------------------------------
# Filtered reduction (Gaussian cancellation of differential entries)
# ---------------------------------------------------------------------------


@dataclass
class DecomposedComplex:
    """Result of cancelling differential pairs in a filtered complex.

    ``reduced`` is homotopy equivalent to the original complex; the original
    splits as reduced ⊕ (acyclic two-step pieces).  ``pairs`` records each
    cancelled pair as (h, level_of_source, level_of_target): the source sits
    in degree h, the target in degree h+1.

    ``push`` maps a chain of the original complex (per-degree sparse vectors
    over the original bases) to its image in the reduced basis, and ``lift``
    maps a reduced chain back to a representative in the original basis.
    Both are chain maps inverse to each other up to homotopy.
    """

    reduced: FilteredComplex
    pairs: list[tuple[int, int, int]]
    # surviving original generator indices per degree, in reduced order
    survivors: dict[int, list[int]]
    _steps: list[tuple] = field(default_factory=list, repr=False)


def unreduced(cx: FilteredComplex) -> DecomposedComplex:
    """The decomposition that cancels nothing: ``cx`` itself, zero steps."""
    return DecomposedComplex(
        cx, [], {h: list(range(cx.dim(h))) for h in cx.degrees()})


def filtered_reduce(cx: FilteredComplex) -> DecomposedComplex:
    """Cancel the invertible level-preserving ("jump-0") differential entries.

    Such a cancellation is a filtered chain homotopy equivalence, so the
    reduced complex keeps the filtered homotopy type on the nose.  Entries
    are taken in (degree, source index, target index) order, then the
    level-preserving entries that cancellations create in the order they
    appear, so the output is deterministic.

    Each step keeps the other targets of the cancelled source and the other
    sources of its target as compact copies, built entry by entry.  By then
    the working lines have grown and shrunk, and keeping them whole would
    keep their larger tables: on the T(4,4)₂,₂ Bar-Natan cube the steps
    would hold 60 instead of 38 MB (tracemalloc), and a ``compute`` op's
    peak RSS would go 126 → 149 MB.  To keep the peak down, the entries
    still to visit are not one tuple each either: the initial ones are a
    sorted tuple of targets per source, the created ones a flat list of
    (h, j, i) ints.

    Over ℚ, a step whose pivot is ±1 and whose other row and column
    entries are integral updates the integral entries in int arithmetic
    and stores each result as the Fraction that Fraction arithmetic gives
    (one shared ``Fraction(n)`` per |n| ≤ 64); other steps and entries
    take Fraction arithmetic.  So the stored types do not change: every
    entry an update writes is a Fraction, and the others keep their cube
    ints.  The 9₄₂ Lee reduction takes about 0.04 s this way, against
    0.09 s with Fraction arithmetic throughout.
    """
    ops = cx.ops
    gf2, unit, inv = ops.name == "gf2", ops.is_unit, ops.inv
    rational = ops.name == "Q"
    shared: dict[int, Fraction] = {}  # Fraction(n) for |n| ≤ 64, see below
    levels = cx.levels
    degs = cx.degrees()
    # mutable sparse structure per degree h: out_[h][j] = {i: coeff} for j in
    # C^h, in_[h][i] = {j: coeff} for i in C^h; a cancelled generator's
    # column and row are None, other lines stay even when they empty
    out_: dict[int, list] = {}
    in_: dict[int, list] = {h: [{} for _ in levels[h]] for h in degs}
    first: dict[int, list[tuple]] = {}  # per source: its jump-0 targets
    for h in degs:
        out_[h], first[h] = out_h, first_h = [], []
        lv, lv1, in_h1 = levels[h], levels.get(h + 1), in_.get(h + 1)
        for j, col in enumerate(cx.columns(h)):
            col = {i: v for i, v in col.items() if (v % 2 if gf2 else v)}
            out_h.append(col)
            for i, v in col.items():
                in_h1[i][j] = v
            lvj = lv[j]
            first_h.append(tuple(sorted(i for i in col if lv1[i] == lvj)))
    created: list[int] = []

    def queue():
        for h in degs:
            for j, targets in enumerate(first[h]):
                for i in targets:
                    yield h, j, i
        # ``created`` grows while it is read
        it = iter(created)
        for h in it:
            yield h, next(it), next(it)

    pairs: list[tuple[int, int, int]] = []
    steps: list[tuple] = []
    extend = created.extend
    # A cancelled generator keeps no entries, so a queued entry that lost an
    # end reads as absent here, and every created entry is live.
    for h, j0, i0 in queue():
        out_h = out_[h]
        col = out_h[j0]
        if col is None or i0 not in col:
            continue
        pivot = col[i0]
        if not gf2 and not unit(pivot):
            continue
        # Gaussian cancellation of d[i0, j0]: take out the column of j0 and
        # the row of i0 whole, then for every other source j with entry a at
        # i0 subtract a / pivot times column j0 from column j.  Column j
        # keeps its entry at i0 and row i its entry from j0 until the mirror
        # deletions below, so no line empties during the update.
        in_h1, lv, lv1 = in_[h + 1], levels[h], levels[h + 1]
        row = in_h1[i0]
        out_h[j0] = in_h1[i0] = None
        col_j0 = {i: v for i, v in col.items() if i != i0}
        row_i0 = {j: v for j, v in row.items() if j != j0}
        steps.append((h, j0, i0, pivot, col_j0, row_i0))
        pairs.append((h, lv[j0], lv1[i0]))
        if gf2:  # every stored entry is odd: the update toggles
            for j in row_i0:
                out_j, lvj = out_h[j], lv[j]
                for i in col_j0:
                    if i in out_j:
                        del out_j[i], in_h1[i][j]
                    else:
                        out_j[i] = in_h1[i][j] = 1
                        if lv1[i] == lvj:
                            extend((h, j, i))
        elif rational and pivot in (1, -1) and all(
                v.denominator == 1
                for v in chain(row_i0.values(), col_j0.values())):
            # ±1 is its own inverse, so an integral x becomes x − a·p·b in
            # ints, stored as the Fraction that the Fraction arithmetic
            # gives; x is a cube int or an integral Fraction unless a
            # non-unit pivot came before
            sign = pivot.numerator
            col_n = [(i, b.numerator) for i, b in col_j0.items()]
            for j, a in row_i0.items():
                c = a.numerator * sign
                out_j, lvj = out_h[j], lv[j]
                for i, b in col_n:
                    x = out_j.get(i, 0)
                    if x.denominator == 1:
                        n = x.numerator - c * b
                        nv = n and (shared.get(n) or _fraction(shared, n))
                    else:
                        nv = x - c * b
                    if nv:
                        out_j[i] = in_h1[i][j] = nv
                        if lv1[i] == lvj:
                            extend((h, j, i))
                    elif i in out_j:
                        del out_j[i], in_h1[i][j]
        else:
            inv_p = inv(pivot)
            for j, a in row_i0.items():
                coef = a * inv_p
                out_j, lvj = out_h[j], lv[j]
                for i, b in col_j0.items():
                    nv = out_j.get(i, 0) - coef * b
                    if nv:
                        out_j[i] = in_h1[i][j] = nv
                        if lv1[i] == lvj:
                            extend((h, j, i))
                    elif i in out_j:
                        del out_j[i], in_h1[i][j]
        # the mirror entries of the pair, then the column of i0 out of
        # degree h+1 and the row of j0 into degree h
        for j in row_i0:
            del out_h[j][i0]
        for i in col_j0:
            del in_h1[i][j0]
        out_h1 = out_[h + 1]
        for i in out_h1[i0]:
            del in_[h + 2][i][i0]
        out_h1[i0] = None
        if h - 1 in out_:
            out_m1, in_h = out_[h - 1], in_[h]
            for j in in_h[j0]:
                del out_m1[j][j0]
            in_h[j0] = None
    survivors = {h: [j for j, col in enumerate(out_[h]) if col is not None]
                 for h in degs}
    reduced = restrict(FilteredComplex(cx.ring, levels, out_), survivors)
    return DecomposedComplex(reduced, pairs, survivors, steps)


def _fraction(shared: dict[int, Fraction], n: int) -> Fraction:
    """Fraction(n), kept in ``shared`` when |n| ≤ 64 (Fractions are
    immutable, so entries may share one)."""
    f = Fraction(n)
    if -64 <= n <= 64:
        shared[n] = f
    return f


def push_chain(dec: DecomposedComplex, h: int, vec: Column) -> Column:
    """Image of an original-basis chain in the reduced basis.

    Cancelling the pair (j0 -> i0, pivot p) in degrees (sh, sh+1) changes
    bases to ẽ_j = e_j − (a_j/p)·e_{j0} in degree sh (a_j = row of i0) and
    splits off f = d(e_{j0}) in degree sh+1.  The projection drops the j0
    coordinate in degree sh, and in degree sh+1 sends y to y − (y_{i0}/p)·
    d(e_{j0}) restricted away from i0.  Replaying all steps in order yields
    the projection onto the fully reduced complex.
    """
    ops = dec.reduced.ops
    coeff = ops.coeff
    vec = {i: v for i, v in vec.items() if coeff(v)}
    for (sh, j0, i0, pivot, col_j0, row_i0) in dec._steps:
        if sh + 1 == h and i0 in vec:
            coef = vec.pop(i0) * ops.inv(pivot)
            for i, b in col_j0.items():
                nv = coeff(vec.get(i, 0) - coef * b)
                if nv:
                    vec[i] = nv
                else:
                    vec.pop(i, None)
        elif sh == h:
            vec.pop(j0, None)
    index_of = {j: k for k, j in enumerate(dec.survivors.get(h, []))}
    return {index_of[j]: v for j, v in vec.items()}


def lift_chain(dec: DecomposedComplex, h: int, vec: Column) -> Column:
    """Representative in the original basis of a reduced-basis chain.

    The inclusion is the identity on degree sh+1 coordinates and sends
    e'_j to ẽ_j = e_j − (a_j/p)·e_{j0} in degree sh, so replaying the
    steps in reverse only ever (re)computes cancelled source coordinates.
    """
    ops = dec.reduced.ops
    coeff = ops.coeff
    surv = dec.survivors.get(h, [])
    out = {surv[k]: v for k, v in vec.items() if coeff(v)}
    for (sh, j0, i0, pivot, col_j0, row_i0) in reversed(dec._steps):
        if sh != h:
            continue
        acc = 0
        for j, a in row_i0.items():
            if j in out:
                acc -= out[j] * a
        acc = coeff(acc * ops.inv(pivot))
        if acc:
            out[j0] = acc
    return out


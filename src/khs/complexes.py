"""Filtered cochain complexes and their homological invariants.

A :class:`FilteredComplex` stores, per cohomological degree h, an ordered
list of generators with integer filtration levels q, and the differential
as a sparse column map (generator index -> {target index: coefficient}).
Coefficients live in GF(2), the rationals, or the integers depending on
``ring`` ("gf2", "Q", "Z"); the chain-level data is always stored as ints
or Fractions and read through that ring's object in :data:`linalg.RINGS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
        return self.diff.get(h, [{} for _ in range(self.dim(h))])

    def _int_matrix(self, h: int) -> list[list[int]]:
        """Dense transpose of d_h: one list per generator of C^h, indexed
        by C^{h+1} (rank and invariant factors do not see the transpose)."""
        n = self.dim(h + 1)
        mat = []
        for col in self.columns(h):
            dense = [0] * n
            for i, v in col.items():
                dense[i] = int(v)
            mat.append(dense)
        return mat

    def rank_d(self, h: int) -> int:
        if self.dim(h) == 0 or self.dim(h + 1) == 0:
            return 0
        return self.ops.rank(self.columns(h))

    # -- homology -------------------------------------------------------------

    def betti(self, h: int) -> int:
        """dim ker(d_h) − rank(d_{h−1}) over the coefficient field."""
        if self.ring == "Z":
            raise ValueError("betti is for field coefficients")
        return self.dim(h) - self.rank_d(h) - self.rank_d(h - 1)

    def homology_field(self) -> dict[int, int]:
        return {h: b for h in self.degrees() if (b := self.betti(h))}

    def homology_integral(self) -> dict[int, tuple[int, list[int]]]:
        """Per degree: (free rank, prime-power torsion orders)."""
        if self.ring != "Z":
            raise ValueError("integral homology needs ring='Z'")
        out = {}
        prev_h, d_prev = None, []
        for h in self.degrees():
            # each dense d_h is built once: d_out here, d_in at degree h+1
            d_in = d_prev if prev_h == h - 1 else self._int_matrix(h - 1)
            d_out = self._int_matrix(h)
            rank_out = linalg.int_rank(d_out) if self.dim(h + 1) else 0
            free, tors = linalg.integer_homology_summands(d_in, rank_out, self.dim(h))
            if free or tors:
                out[h] = (free, tors)
            prev_h, d_prev = h, d_out
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
        cols = []
        allcols = cx.columns(h)
        tgt = pos.get(h + 1, {})
        for j in sel:
            col = {}
            for i, v in allcols[j].items():
                if i in tgt:
                    col[tgt[i]] = v
            cols.append(col)
        diff[h] = cols
    return FilteredComplex(cx.ring, levels, diff)


def level_indices(cx: FilteredComplex, pred) -> dict[int, list[int]]:
    return {h: [i for i, l in enumerate(cx.levels[h]) if pred(l)]
            for h in cx.degrees()}


def q_slice(cx: FilteredComplex, q: int) -> tuple[FilteredComplex, dict]:
    """Associated-graded complex gr_q at level q: the level-q generators
    and the (level-preserving) entries between them, with their index
    lists.  When d preserves levels it is the level-q direct summand."""
    keep = level_indices(cx, lambda l: l == q)
    return restrict(cx, keep), keep


def sublevel(cx: FilteredComplex, q: int) -> tuple[FilteredComplex, dict]:
    """Subcomplex of generators with level >= q."""
    keep = level_indices(cx, lambda l: l >= q)
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
            for sol in ops.solve(reps + cx.columns(h - 1), cycles, cx.dim(h))]


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
        raise AssertionError("sublevel cycle is not a cycle of C")
    p_mat = class_coords(gr, h, gr_reps, [
        {gpos[i]: v for i, v in r.items() if i in gpos} for r in reps])
    if None in p_mat:
        raise AssertionError("level-q part is not a gr-cycle")
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
    """
    ops = cx.ops
    coeff, unit = ops.coeff, ops.is_unit
    levels = cx.levels
    # mutable sparse structure: out_[h][j] = {i: coeff}, in_[h+1][i] = {j: coeff}
    out_: dict[int, dict[int, Column]] = {}
    in_: dict[int, dict[int, Column]] = {}
    alive: dict[int, list[bool]] = {h: [True] * cx.dim(h) for h in cx.degrees()}
    for h in cx.degrees():
        out_.setdefault(h, {})
        in_.setdefault(h, {})
        for j, col in enumerate(cx.columns(h)):
            col = {i: v for i, v in col.items() if coeff(v)}
            if col:
                out_[h][j] = col
                for i, v in col.items():
                    in_.setdefault(h + 1, {}).setdefault(i, {})[j] = v

    pairs: list[tuple[int, int, int]] = []
    steps: list[tuple] = []
    queue = []
    for h, out_h in out_.items():
        lv, lv1 = levels[h], levels.get(h + 1)
        queue.extend((h, j, i) for j, col in out_h.items()
                     for i in col if lv1[i] == lv[j])
    queue.sort()
    # The loop also visits the entries appended to ``queue`` as it runs.  A
    # cancelled generator keeps no entries, so a queued entry that lost an
    # end reads as absent here, and every changed entry is live.
    for h, j0, i0 in queue:
        v = out_[h].get(j0, {}).get(i0)
        if v is None or not unit(v):
            continue
        changed = _cancel(ops, out_, in_, h, j0, i0, steps)
        lv, lv1 = levels[h], levels[h + 1]
        pairs.append((h, lv[j0], lv1[i0]))
        alive[h][j0] = False
        alive[h + 1][i0] = False
        queue.extend((h, j, i) for (j, i) in changed if lv1[i] == lv[j])
    survivors = {h: [j for j, a in enumerate(alive[h]) if a]
                 for h in alive}
    new_levels = {h: [levels[h][j] for j in survivors[h]]
                  for h in survivors if survivors[h]}
    index_of = {h: {j: k for k, j in enumerate(survivors[h])} for h in survivors}
    new_diff: dict[int, list[Column]] = {}
    for h in sorted(new_levels):
        cols = []
        for j in survivors[h]:
            col = out_.get(h, {}).get(j, {})
            cols.append({index_of[h + 1][i]: v for i, v in col.items()})
        new_diff[h] = cols
    reduced = FilteredComplex(cx.ring, new_levels, new_diff)
    return DecomposedComplex(reduced, pairs, survivors, steps)


def _cancel(ops, out_, in_, h, j0, i0, steps) -> list[tuple[int, int]]:
    """Gaussian cancellation of the entry d[i0, j0] out of degree h.

    Returns the degree-h entries (j, i) that changed to a nonzero value.
    Such an entry is appended to its column and row dicts, or updated in
    place; an entry that becomes zero is deleted, and emptied columns and
    rows are dropped.
    """
    out_h, in_h1 = out_[h], in_[h + 1]
    pivot = out_h[j0][i0]
    # other targets of j0, other sources mapping to i0
    col_j0 = {i: v for i, v in out_h[j0].items() if i != i0}
    row_i0 = {j: v for j, v in in_h1[i0].items() if j != j0}
    steps.append((h, j0, i0, pivot, col_j0, row_i0))
    # for every other source j with entry a at i0, subtract a / pivot times
    # column j0 from column j.  Column j keeps its entry at i0 and row i
    # keeps its entry from j0 throughout, so neither empties here.
    changed = []
    if ops.name == "gf2":  # every stored entry is odd: the update toggles
        for j in row_i0:
            out_j = out_h[j]
            for i in col_j0:
                if i in out_j:
                    del out_j[i]
                    del in_h1[i][j]
                else:
                    out_j[i] = 1
                    in_h1[i][j] = 1
                    changed.append((j, i))
    else:
        inv = ops.inv(pivot)
        for j, a in row_i0.items():
            coef = a * inv
            out_j = out_h[j]
            for i, b in col_j0.items():
                nv = out_j.get(i, 0) - coef * b
                if nv:
                    out_j[i] = nv
                    in_h1[i][j] = nv
                    changed.append((j, i))
                elif i in out_j:
                    del out_j[i]
                    del in_h1[i][j]
    # remove the pair: column j0 and row i0 out of degree h, column i0 out
    # of degree h+1, row j0 into degree h
    _drop_line(out_h, in_h1, j0)
    _drop_line(in_h1, out_h, i0)
    _drop_line(out_.get(h + 1, {}), in_.get(h + 2, {}), i0)
    _drop_line(in_.get(h, {}), out_.get(h - 1, {}), j0)
    return changed


def _drop_line(lines: dict[int, Column], cross: dict[int, Column],
               a: int) -> None:
    """Remove line ``a`` of ``lines`` and its mirror entries in ``cross``,
    dropping the ``cross`` lines that empty."""
    for b in lines.pop(a, ()):
        line = cross[b]
        del line[a]
        if not line:
            del cross[b]


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


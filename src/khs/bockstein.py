"""Sq¹ on mod-2 Khovanov homology as the integral Bockstein.

Sq¹ is the Bockstein of 0 → ℤ/2 → ℤ/4 → ℤ/2 → 0, computed by the
lift–divide method (:func:`bockstein_chain`, on any integral complex): a
mod-2 cycle is lifted to the integral chain with 0/1 coefficients, its
integral boundary is asserted to be exactly divisible by 2, and the halved
boundary mod 2 is the Bockstein image.  :func:`sq1` writes the map in
mod-2 homology bases of one decomposed integral q-slice, as one sparse
coordinate column per source class.
"""

from __future__ import annotations

from . import linalg
from .complexes import (
    Column,
    DecomposedComplex,
    FilteredComplex,
    apply,
    class_coords,
    filtered_reduce,
    homology_reps,
    q_slices,
)
from .cube import build_complex
from .links import OrientedLinkDiagram


def bockstein_chain(cx_z: FilteredComplex, h: int, cycle: Column) -> Column:
    """Bockstein of a mod-2 cycle at degree h, as a mod-2 chain at h+1.

    ``cycle`` must have 0/1 coefficients (its own integral lift).  Raises
    if the lifted boundary is not exactly divisible by 2, naming the level
    q and the degree h+1 of the offending entry.
    """
    if cx_z.ring != "Z":
        raise ValueError("needs an integral complex")
    lift = {j: 1 for j, v in cycle.items() if int(v) % 2}
    out: Column = {}
    for i, v in apply(cx_z.columns(h), lift).items():
        if v % 2:
            raise AssertionError(
                "Bockstein lift-divide failed: boundary not divisible by 2 "
                f"(generator basis mismatch) at q={cx_z.levels[h + 1][i]}, "
                f"h={h + 1}")
        if (v // 2) % 2:
            out[i] = 1
    return out


def sq1(zdec: DecomposedComplex, i: int) -> list[Column]:
    """Sq¹: Kh^{i−1,q}(𝔽₂) → Kh^{i,q}(𝔽₂) of one integral q-slice, given
    as its :func:`filtered_reduce` (or, for the naive path, ``unreduced``):
    per mod-2 homology basis class at degree i−1, the sparse
    :func:`class_coords` column of its image in the basis at degree i."""
    zred = zdec.reduced
    f2 = FilteredComplex("gf2", zred.levels, zred.diff)
    sources = homology_reps(f2, i - 1)
    images = [bockstein_chain(zred, i - 1, r) for r in sources]
    coords = class_coords(f2, i, homology_reps(f2, i), images)
    if None in coords:
        # a basis source is nonzero and has the level of its image
        src = sources[coords.index(None)]
        raise AssertionError("Sq¹ output is not a cycle in its slice at "
                             f"q={zred.levels[i - 1][min(src)]}, h={i}")
    return coords


def sq1_table(d: OrientedLinkDiagram) -> dict[tuple[int, int], int]:
    """Rank of Sq¹ into every bidegree (i, q) where it is nonzero, in
    increasing (i, q)."""
    out = {}
    for q, sl, _ in q_slices(build_complex(d, "khovanov", "Z").complex):
        zdec = filtered_reduce(sl)
        for h in zdec.reduced.degrees():
            if r := linalg.GF2.rank(sq1(zdec, h + 1)):
                out[(h + 1, q)] = r
    return dict(sorted(out.items()))

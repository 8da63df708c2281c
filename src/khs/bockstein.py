"""Sq¹ on mod-2 Khovanov homology as the integral Bockstein.

Computed by the lift–divide method: a mod-2 cycle is lifted to an integral
chain with 0/1 coefficients in the *same* generator basis (the cube
ordering is the interface contract with :mod:`khs.cube`), its integral
boundary is asserted to be exactly divisible by 2, and the class of the
halved boundary mod 2 is the Bockstein image.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .complexes import (
    Column,
    FilteredComplex,
    apply,
    class_coords,
    homology_reps,
    q_slice,
)
from .cube import CubeComplex, build_complex
from .links import OrientedLinkDiagram


def bockstein_chain(cx_z: FilteredComplex, h: int, cycle: Column) -> Column:
    """Bockstein of a mod-2 cycle at degree h, as a mod-2 chain at h+1.

    ``cycle`` must have 0/1 coefficients (its own integral lift).  Raises
    if the lifted boundary is not exactly divisible by 2.
    """
    if cx_z.ring != "Z":
        raise ValueError("needs an integral complex")
    lift = {j: 1 for j, v in cycle.items() if int(v) % 2}
    out: Column = {}
    for i, v in apply(cx_z.columns(h), lift).items():
        if v % 2:
            raise AssertionError(
                "Bockstein lift-divide failed: boundary not divisible by 2 "
                "(generator basis mismatch)")
        if (v // 2) % 2:
            out[i] = 1
    return out


@dataclass
class BocksteinMap:
    """Sq¹: Kh^{i−1,q}(𝔽₂) → Kh^{i,q}(𝔽₂) in chosen homology bases."""

    i: int
    q: int
    matrix: list[list[int]]  # one target-coordinate vector per source basis

    @property
    def rank(self) -> int:
        return linalg.gf2_rank(
            [sum(b << k for k, b in enumerate(row)) for row in self.matrix])


def sq1(cube_z: CubeComplex, i: int, q: int) -> BocksteinMap:
    """The Bockstein map into bidegree (i, q)."""
    cx_z = cube_z.complex
    sl, keep = q_slice(FilteredComplex("gf2", cx_z.levels, cx_z.diff), q)
    src = homology_reps(sl, i - 1)
    target_reps = homology_reps(sl, i)
    back_src = keep.get(i - 1, [])
    pos_tgt = {g: k for k, g in enumerate(keep.get(i, []))}
    images = [bockstein_chain(cx_z, i - 1, {back_src[j]: 1 for j in r})
              for r in src]
    matrix = class_coords(sl, i, target_reps,
                          [{pos_tgt[g]: 1 for g in w} for w in images])
    if None in matrix:
        raise AssertionError("Sq¹ output is not a cycle in its slice")
    return BocksteinMap(i, q, matrix)


def sq1_table(d: OrientedLinkDiagram) -> dict[tuple[int, int], int]:
    """Rank of Sq¹ into every bidegree (i, q) where it can be nonzero."""
    cube_z = build_complex(d, "khovanov", "Z")
    out = {}
    for h in cube_z.complex.degrees():
        qs = sorted(set(cube_z.complex.levels[h]))
        for q in qs:
            r = sq1(cube_z, h + 1, q).rank
            if r:
                out[(h + 1, q)] = r
    return out

"""Exact linear algebra over GF(2), the rationals, and the integers.

Each field has one elimination, an incremental echelon basis:
:class:`GF2Echelon` over int bitmask vectors (index i is bit i), pivoting
on a vector's highest set bit, and :class:`QEchelon` over sparse
``{index: int}`` vectors, pivoting on a vector's lowest index without
forming fractions.  The rational kernels clear each input's denominators
once and return Fractions.  The kernels of both fields are loops over
these:

* ``gf2_rank`` and ``q_rank`` take any list of vectors, rows or columns;
* ``gf2_nullspace``, ``q_nullspace`` and ``q_solve`` take the columns of
  the matrix, and ``q_solve`` a list of targets, all solved against one
  elimination;
* ``gf2_solve`` takes the rows and transposes them back into columns.

Integer matrices for Smith normal form are dense lists of lists of ints.

:data:`RINGS` puts one coefficient-ring object in front of these kernels
for the chain-level code, which stores sparse ``{row: coeff}`` columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# ---------------------------------------------------------------------------
# GF(2): vectors are int bitmasks
# ---------------------------------------------------------------------------


def gf2_from_columns(cols: list[int], n_rows: int) -> list[int]:
    """Transpose a list of column bitmasks into row bitmasks."""
    rows = [0] * n_rows
    for j, col in enumerate(cols):
        while col:
            low = col & -col
            i = low.bit_length() - 1
            rows[i] |= 1 << j
            col ^= low
    return rows


class GF2Echelon:
    """Incremental echelon basis of bitmask vectors, each pivot on its
    vector's highest set bit.

    ``add`` and ``reduce`` take an optional ``comb`` that names the vector
    as a combination of the added ones (a bitmask over the caller's
    labels); it is updated alongside the vector only when given.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, tuple[int, int | None]] = {}

    def reduce(self, vec: int, comb: int | None = None):
        """(remainder, comb) after subtracting pivots while one matches."""
        pivot = self.pivots.get
        while vec:
            piv = pivot(vec.bit_length() - 1)
            if piv is None:
                break
            vec ^= piv[0]
            if comb is not None:
                comb ^= piv[1]
        return vec, comb

    def add(self, vec: int, comb: int | None = None):
        """Reduce ``vec`` and keep a nonzero remainder as a new pivot."""
        vec, comb = self.reduce(vec, comb)
        if vec:
            self.pivots[vec.bit_length() - 1] = (vec, comb)
        return vec, comb


def gf2_rank(vecs: list[int]) -> int:
    ech = GF2Echelon()
    for v in vecs:
        ech.add(v)
    return len(ech.pivots)


def gf2_nullspace(cols: list[int]) -> list[int]:
    """Basis of {λ : Σ λ_k·cols[k] = 0}, as bitmasks over the columns.

    Scanning right to left, each column the later ones span gives its
    relation to them, so the basis vector of free column j is 1 at j and
    0 on the other free columns.  Sorted by j.
    """
    ech = GF2Echelon()
    basis = []
    for j in reversed(range(len(cols))):
        rest, comb = ech.add(cols[j], 1 << j)
        if not rest:
            basis.append(comb)
    basis.reverse()
    return basis


def gf2_solve(rows: list[int], n_cols: int, target: int) -> int | None:
    """One solution x (bitmask over columns) of A x = target, or None.

    ``rows`` are the rows of A; ``target`` is a bitmask over row indices.
    The columns of A are eliminated in order, so x is supported on the
    columns that no earlier column combination reaches.
    """
    ech = GF2Echelon()
    add = ech.add
    for j, col in enumerate(gf2_from_columns(rows, n_cols)):
        add(col, 1 << j)
    rest, comb = ech.reduce(target, 0)
    return None if rest else comb


# ---------------------------------------------------------------------------
# Rationals: fraction-free elimination over sparse {index: int} vectors
# ---------------------------------------------------------------------------

QRow = dict[int, Fraction]


def _integral(vec: dict) -> tuple[dict[int, int], int]:
    """(m·vec without zeros, m) for the least m > 0 that makes every int or
    Fraction entry of ``vec`` an integer."""
    m = lcm(*(v.denominator for v in vec.values()))
    return {k: v.numerator * (m // v.denominator)
            for k, v in vec.items() if v}, m


def _sub(a: int, r: dict[int, int], b: int, s: dict[int, int]):
    """a·r − b·s, without zeros (b ≠ 0)."""
    out = {k: a * v for k, v in r.items()} if a != 1 else dict(r)
    for k, v in s.items():
        if nv := out.get(k, 0) - b * v:
            out[k] = nv
        else:
            del out[k]
    return out


class QEchelon:
    """Incremental echelon basis of sparse int vectors, each pivot on its
    vector's lowest index: elimination over the rationals without fractions.

    A pivot reduces a vector to a·vec − b·piv (a, b coprime), which is then
    divided, with its ``comb`` (as in :class:`GF2Echelon`, a sparse int
    vector over the caller's labels), by their content gcd.  So each
    remainder is a nonzero multiple of the Fraction one, on the same pivots.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, tuple[dict, dict | None]] = {}

    def reduce(self, vec: dict[int, int], comb: dict[int, int] | None = None):
        """(remainder, comb) after subtracting pivots while one matches."""
        pivots = self.pivots
        while vec:
            p = min(vec)
            piv = pivots.get(p)
            if piv is None:
                break
            pv, pcomb = piv
            g = gcd(pv[p], vec[p])
            a, b = pv[p] // g, vec[p] // g
            vec = _sub(a, vec, b, pv)
            if comb is not None:
                comb = _sub(a, comb, b, pcomb)
            g = gcd(*vec.values(), *(comb.values() if comb else ()))
            if g > 1:
                vec = {k: v // g for k, v in vec.items()}
                comb = comb and {k: v // g for k, v in comb.items()}
        return vec, comb

    def add(self, vec: dict[int, int], comb: dict[int, int] | None = None):
        """Reduce ``vec`` and keep a nonzero remainder as a new pivot."""
        vec, comb = self.reduce(vec, comb)
        if vec:
            self.pivots[min(vec)] = (vec, comb)
        return vec, comb


def q_rank(vecs: list[dict]) -> int:
    ech = QEchelon()
    for v in vecs:
        ech.add(_integral(v)[0])
    return len(ech.pivots)


def q_nullspace(cols: list[dict]) -> list[QRow]:
    """Basis of {λ : Σ λ_k·cols[k] = 0}.

    Scanning left to right, each column the earlier ones span gives its
    relation to them, so the basis vector of free column j is 1 at j and
    0 on the other free columns.  Sorted by j.
    """
    ech = QEchelon()
    basis = []
    for j, col in enumerate(cols):
        vec, m = _integral(col)
        rest, comb = ech.add(vec, {j: m})
        if not rest:
            basis.append({k: Fraction(v, comb[j]) for k, v in comb.items()})
    return basis


def q_solve(cols: list[dict], targets: list[dict]) -> list[QRow | None]:
    """Per target, one solution x of Σ x_j·col_j = target over the
    rationals, or None.

    The columns are eliminated once, in order, so each x is supported on
    the columns that no earlier column combination reaches.
    """
    ech = QEchelon()
    for j, col in enumerate(cols):
        vec, m = _integral(col)
        ech.add(vec, {j: m})
    n = len(cols)
    sols = []
    for target in targets:
        vec, m = _integral(target)
        rest, comb = ech.reduce(vec, {n: m})
        # the remainder is m·target + Σ comb_j·col_j, so x = −comb/m
        m = comb.pop(n)
        sols.append(None if rest else
                    {k: Fraction(-v, m) for k, v in comb.items()})
    return sols


# ---------------------------------------------------------------------------
# Integers: Smith normal form invariant factors
# ---------------------------------------------------------------------------


def smith_invariant_factors(mat: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix."""
    m = [row[:] for row in mat]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    factors: list[int] = []
    top = 0
    while True:
        # find a nonzero entry of minimal absolute value in m[top:, top:]
        best = None
        for i in range(top, n_rows):
            row = m[i]
            for j in range(top, n_cols):
                v = row[j]
                if v:
                    if best is None or abs(v) < abs(best[2]):
                        best = (i, j, v)
                        if abs(v) == 1:
                            break
            if best is not None and abs(best[2]) == 1:
                break
        if best is None:
            break
        bi, bj, _ = best
        m[top], m[bi] = m[bi], m[top]
        if bj != top:
            for row in m:
                row[top], row[bj] = row[bj], row[top]
        clean = False
        while not clean:
            clean = True
            piv = m[top][top]
            # clear column
            for i in range(top + 1, n_rows):
                v = m[i][top]
                if v:
                    qt = _nearest_div(v, piv)
                    if qt:
                        ri, rt = m[i], m[top]
                        for j in range(top, n_cols):
                            ri[j] -= qt * rt[j]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        clean = False
                        break
            if not clean:
                continue
            piv = m[top][top]
            # clear row
            for j in range(top + 1, n_cols):
                v = m[top][j]
                if v:
                    qt = _nearest_div(v, piv)
                    if qt:
                        for row in m:
                            row[j] -= qt * row[top]
                    if m[top][j]:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
                        clean = False
                        break
        piv = abs(m[top][top])
        # enforce divisibility against the rest of the block
        stray = None
        for i in range(top + 1, n_rows):
            for j in range(top + 1, n_cols):
                if m[i][j] % piv:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            rt = m[top]
            rs = m[stray]
            for j in range(top, n_cols):
                rt[j] += rs[j]
            continue
        factors.append(piv)
        top += 1
        if top >= n_rows or top >= n_cols:
            break
    return factors


def _nearest_div(v: int, piv: int) -> int:
    # Python's remainder has the divisor's sign, so shrinking |r| below
    # |piv|/2 always means bumping the quotient by one.
    q, r = divmod(v, piv)
    if 2 * abs(r) > abs(piv):
        q += 1
    return q


def int_rank(mat: list[list[int]]) -> int:
    """Rank of a dense integer matrix, given by its rows or its columns."""
    return q_rank([dict(enumerate(r)) for r in mat])


def _prime_power_parts(n: int) -> list[int]:
    parts = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            pk = 1
            while n % p == 0:
                n //= p
                pk *= p
            parts.append(pk)
        p += 1
    if n > 1:
        parts.append(n)
    return parts


def integer_homology_summands(d_in: list[list[int]], rank_out: int,
                              dim: int) -> tuple[int, list[int]]:
    """Homology at a free abelian group of rank ``dim``.

    ``d_in`` is the dense matrix of the incoming boundary map (its image
    lies in the middle group) or its transpose, which has the same
    invariant factors; ``rank_out`` is the rank of the outgoing boundary
    map.
    Since im(d_in) is contained in ker(d_out) and the torsion of the
    quotient C/im(d_in) already lies in ker(d_out), the torsion of the
    homology equals the torsion of coker(d_in).

    Returns (free rank, sorted prime-power torsion orders).
    """
    factors = smith_invariant_factors(d_in)
    free = dim - len(factors) - rank_out
    torsion: list[int] = []
    for f in factors:
        if f > 1:
            torsion.extend(_prime_power_parts(f))
    return free, sorted(torsion)


# ---------------------------------------------------------------------------
# Coefficient rings over sparse {row: coeff} columns
# ---------------------------------------------------------------------------
#
# Chain-level code stores its columns and chains with int or Fraction
# entries and reads them through one of these objects:
#
# * ``coeff(v)``: the entry v as a ring element in canonical form, falsy
#   exactly when it is zero;
# * ``is_unit(v)``: whether the nonzero element v is invertible;
# * ``inv(v)``: the inverse of a unit;
# * ``is_zero(vec)``: whether every entry of a chain is zero.
#
# The two fields add ``rank``, ``solve``, ``nullspace`` and ``independent``
# over lists of columns.  These call the kernels above by their module-level
# names, so a kernel replaced on this module from outside (as a tracer
# does) is the one they run.


class _GF2:
    name = "gf2"

    @staticmethod
    def coeff(v) -> int:
        return int(v) % 2  # Bar-Natan cubes store −1 entries

    @staticmethod
    def is_unit(v) -> bool:
        return True

    @staticmethod
    def inv(v) -> int:
        return 1

    @staticmethod
    def is_zero(vec: dict) -> bool:
        return not any(int(v) % 2 for v in vec.values())

    @staticmethod
    def _mask(col: dict) -> int:
        m = 0
        for i, v in col.items():
            if int(v) % 2:
                m |= 1 << i
        return m

    @staticmethod
    def _col(mask: int) -> dict[int, int]:
        col = {}
        while mask:
            low = mask & -mask
            col[low.bit_length() - 1] = 1
            mask ^= low
        return col

    def rank(self, cols: list[dict]) -> int:
        return gf2_rank([self._mask(c) for c in cols])

    def solve(self, cols: list[dict], targets: list[dict],
              n_rows: int) -> list[dict[int, int] | None]:
        """Per target, one λ with Σ λ_k·cols[k] = target, as ``{k: 1}``, or
        None."""
        rows = gf2_from_columns([self._mask(c) for c in cols], n_rows)
        sols = [gf2_solve(rows, len(cols), self._mask(t)) for t in targets]
        return [None if sol is None else self._col(sol) for sol in sols]

    def nullspace(self, cols: list[dict]) -> list[dict]:
        """Basis of {λ : Σ λ_k·cols[k] = 0}."""
        return [self._col(m) for m in
                gf2_nullspace([self._mask(c) for c in cols])]

    def independent(self, span: list[dict], cols: list[dict]) -> list[dict]:
        """The columns of ``cols`` outside the span of ``span`` and of the
        columns kept before them."""
        ech = GF2Echelon()
        for c in span:
            ech.add(self._mask(c))
        return [c for c in cols if ech.add(self._mask(c))[0]]


class _Q:
    name = "Q"
    coeff = staticmethod(Fraction)

    @staticmethod
    def is_unit(v) -> bool:
        return True

    @staticmethod
    def inv(v) -> Fraction:
        return Fraction(1) / Fraction(v)

    @staticmethod
    def is_zero(vec: dict) -> bool:
        return not any(vec.values())

    def rank(self, cols: list[dict]) -> int:
        return q_rank(cols)

    def solve(self, cols: list[dict], targets: list[dict],
              n_rows: int) -> list[QRow | None]:
        """Per target, one λ with Σ λ_k·cols[k] = target, or None."""
        return q_solve(cols, targets)

    def nullspace(self, cols: list[dict]) -> list[QRow]:
        """Basis of {λ : Σ λ_k·cols[k] = 0}."""
        return q_nullspace(cols)

    def independent(self, span: list[dict], cols: list[dict]) -> list[dict]:
        """The columns of ``cols`` outside the span of ``span`` and of the
        columns kept before them."""
        ech = QEchelon()
        for c in span:
            ech.add(_integral(c)[0])
        return [c for c in cols if ech.add(_integral(c)[0])[0]]


class _Z:
    """The integers, as far as cancelling ±1 entries needs them."""

    name = "Z"
    coeff = staticmethod(int)

    @staticmethod
    def is_unit(v) -> bool:
        return v in (1, -1)

    @staticmethod
    def inv(v) -> int:
        return v  # ±1 is its own inverse

    @staticmethod
    def is_zero(vec: dict) -> bool:
        return not any(vec.values())


GF2, Q, Z = _GF2(), _Q(), _Z()
RINGS = {r.name: r for r in (GF2, Q, Z)}

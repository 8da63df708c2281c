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
  elimination; the two rational ones first number the rows by the first
  column that reaches them, latest first (rows that only targets reach go
  last), which keeps the fill low and leaves every answer as it is;
* ``gf2_solve`` takes the rows and transposes them back into columns.

Integer matrices, reduced to a diagonal form, are dense lists of lists of
ints.

:data:`RINGS` puts one coefficient-ring object in front of these kernels
for the chain-level code, which stores sparse ``{row: coeff}`` columns.
Over ℚ their entries are ints (as a cube is built) and Fractions (as a
reduction writes them).  The jump-0 reduction reads ``Q.inv`` only for a
pivot other than ±1 or a line with a non-integral entry; its other
updates run in int arithmetic and store the same Fractions, so the stored
types do not change (see :func:`khs.complexes.filtered_reduce`).
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


def _renumbered(cols: list[dict]) -> tuple[dict[int, int],
                                           list[tuple[dict[int, int], int]]]:
    """(index, [(vec, m)]): each column cleared as by :func:`_integral`,
    with its rows renumbered by ``index``.

    Rows sort by the first column with an entry in them, latest first,
    then by old index.  Eliminated in order with lowest-index pivots, a
    column that reaches a new row then pivots on it at once, with no
    reduction and so no fill.  The columns that earlier ones do not span,
    the solution supported on them and each relation to them do not depend
    on how rows are numbered.
    """
    vecs = [_integral(col) for col in cols]
    seen: set[int] = set()
    fresh = []
    for vec, _ in vecs:
        rows = sorted(vec.keys() - seen)
        seen.update(rows)
        fresh.append(rows)
    index = {r: i for i, r in
             enumerate(r for rows in reversed(fresh) for r in rows)}
    return index, [({index[r]: v for r, v in vec.items()}, m)
                   for vec, m in vecs]


def q_nullspace(cols: list[dict]) -> list[QRow]:
    """Basis of {λ : Σ λ_k·cols[k] = 0}.

    Scanning left to right, each column the earlier ones span gives its
    relation to them, so the basis vector of free column j is 1 at j and
    0 on the other free columns.  Sorted by j.
    """
    ech = QEchelon()
    basis = []
    for j, (vec, m) in enumerate(_renumbered(cols)[1]):
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
    index, vecs = _renumbered(cols)
    for j, (vec, m) in enumerate(vecs):
        ech.add(vec, {j: m})
    n, n_rows = len(cols), len(index)
    sols = []
    for target in targets:
        vec, m = _integral(target)
        # rows that no column reaches go last, keeping their order
        vec = {index.get(r, n_rows + r): v for r, v in vec.items()}
        rest, comb = ech.reduce(vec, {n: m})
        # the remainder is m·target + Σ comb_j·col_j, so x = −comb/m
        m = comb.pop(n)
        sols.append(None if rest else
                    {k: Fraction(-v, m) for k, v in comb.items()})
    return sols


# ---------------------------------------------------------------------------
# Integers: a diagonal form
# ---------------------------------------------------------------------------


def diagonal_form(mat: list[list[int]]) -> list[int]:
    """Absolute values of the nonzero entries of a diagonal form of an
    integer matrix, given by its rows or its columns.

    Each step pivots on a nonzero entry p of least absolute value and
    subtracts nearest-quotient multiples of p's row and column from the
    others.  A nonzero remainder is at most |p|/2 and becomes the next
    pivot; once p's row and column are otherwise zero, |p| is recorded and
    both are deleted.  So the number of entries is the rank, and their
    prime-power parts are those of the Smith invariant factors.  Rows are
    replaced, never changed in place, so ``mat`` is left as it was.
    """
    m, diag = mat, []
    while m := [row for row in m if any(row)]:
        mins = [min(map(abs, filter(None, row))) for row in m]
        a = min(mins)
        i = mins.index(a)
        if a not in m[i]:
            m[i] = [-x for x in m[i]]
        prow, j, h = m[i], m[i].index(a), a // 2
        for k, row in enumerate(m):
            if k != i and (qt := (row[j] + h) // a):
                m[k] = [x - qt * y for x, y in zip(row, prow)]
        qts = [(x + h) // a for x in prow]
        qts[j] = 0
        m = [[x - qt * row[j] for x, qt in zip(row, qts)] if row[j] else row
             for row in m]
        if sum(map(bool, m[i])) == sum(bool(row[j]) for row in m) == 1:
            diag.append(a)
            del m[i]
            m = [row[:j] + row[j + 1:] for row in m]
    return diag


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


def integer_homology_summands(diag_in: list[int], rank_out: int,
                              dim: int) -> tuple[int, list[int]]:
    """Homology at a free abelian group of rank ``dim``.

    ``diag_in`` is the :func:`diagonal_form` of the incoming boundary map
    d_in (its image lies in the middle group); ``rank_out`` is the rank of
    the outgoing boundary map.  Since im(d_in) is contained in ker(d_out)
    and the torsion of the quotient C/im(d_in) already lies in ker(d_out),
    the torsion of the homology equals the torsion of coker(d_in).

    Returns (free rank, sorted prime-power torsion orders).
    """
    torsion = [pk for d in diag_in for pk in _prime_power_parts(d)]
    return dim - len(diag_in) - rank_out, sorted(torsion)


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

    def solve(self, cols: list[dict],
              targets: list[dict]) -> list[dict[int, int] | None]:
        """Per target, one λ with Σ λ_k·cols[k] = target, as ``{k: 1}``, or
        None (also when the target reaches a row that no column reaches)."""
        masks = [self._mask(c) for c in cols]
        rows = gf2_from_columns(masks, max(masks, default=0).bit_length())
        del masks  # as large as ``rows``; gf2_solve builds its own columns
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

    def solve(self, cols: list[dict],
              targets: list[dict]) -> list[QRow | None]:
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

"""Exact linear algebra over GF(2), the rationals, and the integers.

GF(2) matrices are lists of Python-int bitmask rows (column j is bit j).
Rational matrices are sparse ``{col: Fraction}`` row dicts.  Integer
matrices for Smith normal form are dense lists of lists of ints.

:data:`RINGS` puts one coefficient-ring object in front of these kernels
for the chain-level code, which stores sparse ``{row: coeff}`` columns.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# GF(2)
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


def gf2_rank(rows: list[int]) -> int:
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            low = p & -p
            if row & low:
                row ^= p
        if row:
            pivots.append(row)
    return len(pivots)


class GF2Solver:
    """Incremental row-echelon basis supporting rank and membership tests."""

    def __init__(self) -> None:
        self.pivots: dict[int, int] = {}  # pivot bit index -> reduced row

    def reduce(self, row: int) -> int:
        while row:
            b = row.bit_length() - 1
            piv = self.pivots.get(b)
            if piv is None:
                return row
            row ^= piv
        return 0

    def add(self, row: int) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        row = self.reduce(row)
        if row:
            self.pivots[row.bit_length() - 1] = row
            return True
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def contains(self, row: int) -> bool:
        return self.reduce(row) == 0


def gf2_nullspace(rows: list[int], n_cols: int) -> list[int]:
    """Basis of the right kernel, as column-vector bitmasks."""
    # Gauss-Jordan on the rows, tracking pivot columns
    rows = [r for r in rows if r]
    pivots: list[tuple[int, int]] = []  # (pivot col, row)
    for row in rows:
        for pc, pr in pivots:
            if (row >> pc) & 1:
                row ^= pr
        if row:
            pc = row.bit_length() - 1
            # back-substitute into earlier rows
            for k, (pc2, pr2) in enumerate(pivots):
                if (pr2 >> pc) & 1:
                    pivots[k] = (pc2, pr2 ^ row)
            pivots.append((pc, row))
    pivot_cols = {pc for pc, _ in pivots}
    free_cols = [j for j in range(n_cols) if j not in pivot_cols]
    basis = []
    for j in free_cols:
        vec = 1 << j
        for pc, pr in pivots:
            if (pr >> j) & 1:
                vec |= 1 << pc
        basis.append(vec)
    return basis


def gf2_solve(rows: list[int], n_cols: int, target: int) -> int | None:
    """One solution x (bitmask over columns) of A x = target, or None.

    ``rows`` are the rows of A; ``target`` is a bitmask over row indices.
    """
    # eliminate on the columns of A (a transpose is its own inverse), in
    # column order, pivoting on the highest set bit
    pivots: dict[int, tuple[int, int]] = {}
    for j, col in enumerate(gf2_from_columns(rows, n_cols)):
        comb = 1 << j
        while col:
            b = col.bit_length() - 1
            if b in pivots:
                pc, pcomb = pivots[b]
                col ^= pc
                comb ^= pcomb
            else:
                pivots[b] = (col, comb)
                break
    t, tcomb = target, 0
    while t:
        b = t.bit_length() - 1
        if b not in pivots:
            return None
        pc, pcomb = pivots[b]
        t ^= pc
        tcomb ^= pcomb
    return tcomb


# ---------------------------------------------------------------------------
# Rationals (sparse rows of Fractions)
# ---------------------------------------------------------------------------

QRow = dict[int, Fraction]


def q_row_sub(r: QRow, s: QRow, factor: Fraction) -> QRow:
    out = dict(r)
    for j, v in s.items():
        nv = out.get(j, Fraction(0)) - factor * v
        if nv:
            out[j] = nv
        else:
            out.pop(j, None)
    return out


def q_rank(rows: list[QRow]) -> int:
    pivots: list[tuple[int, QRow]] = []
    for row in rows:
        row = dict(row)
        for pc, pr in pivots:
            if pc in row:
                row = q_row_sub(row, pr, row[pc] / pr[pc])
        if row:
            pc = min(row)
            pivots.append((pc, row))
    return len(pivots)


def q_nullspace(rows: list[QRow], n_cols: int) -> list[QRow]:
    """Basis of the right kernel of a sparse rational matrix."""
    pivots: list[tuple[int, QRow]] = []
    for row in rows:
        row = dict(row)
        for pc, pr in pivots:
            if pc in row:
                row = q_row_sub(row, pr, row[pc] / pr[pc])
        if row:
            pc = min(row)
            for k, (pc2, pr2) in enumerate(pivots):
                if pc in pr2:
                    pivots[k] = (pc2, q_row_sub(pr2, row, pr2[pc] / row[pc]))
            pivots.append((pc, row))
    pivot_cols = {pc for pc, _ in pivots}
    basis = []
    for j in range(n_cols):
        if j in pivot_cols:
            continue
        vec: QRow = {j: Fraction(1)}
        for pc, pr in pivots:
            if j in pr:
                vec[pc] = -pr[j] / pr[pc]
        basis.append(vec)
    return basis


def q_solve(cols: list[QRow], target: QRow) -> QRow | None:
    """One solution x of Σ x_j·col_j = target over the rationals, or None."""
    pivots: dict[int, tuple[QRow, QRow]] = {}  # pivot row index -> (col, comb)
    for j, col in enumerate(cols):
        col = dict(col)
        comb: QRow = {j: Fraction(1)}
        while col:
            b = min(col)
            if b in pivots:
                pc, pcomb = pivots[b]
                f = col[b] / pc[b]
                col = q_row_sub(col, pc, f)
                comb = q_row_sub(comb, pcomb, f)
            else:
                pivots[b] = (col, comb)
                break
    t = {k: Fraction(v) for k, v in target.items() if v}
    tcomb: QRow = {}
    while t:
        b = min(t)
        if b not in pivots:
            return None
        pc, pcomb = pivots[b]
        f = t[b] / pc[b]
        t = q_row_sub(t, pc, f)
        tcomb = q_row_sub(tcomb, pcomb, -f)
    return tcomb


class QSolver:
    """Incremental echelon basis over the rationals."""

    def __init__(self) -> None:
        self.pivots: dict[int, QRow] = {}

    def reduce(self, row: QRow) -> QRow:
        row = dict(row)
        while row:
            pc = min(row)
            pr = self.pivots.get(pc)
            if pr is None:
                return row
            row = q_row_sub(row, pr, row[pc] / pr[pc])
        return {}

    def add(self, row: QRow) -> bool:
        row = self.reduce(row)
        if row:
            self.pivots[min(row)] = row
            return True
        return False


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
    rows = [{j: Fraction(v) for j, v in enumerate(r) if v} for r in mat]
    return q_rank(rows)


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

    ``d_in`` is the matrix of the incoming boundary map (its image lies in
    the middle group), ``rank_out`` the rank of the outgoing boundary map.
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

    def _rows(self, cols: list[dict], n_rows: int) -> list[int]:
        return gf2_from_columns([self._mask(c) for c in cols], n_rows)

    def rank(self, cols: list[dict]) -> int:
        return gf2_rank([self._mask(c) for c in cols])

    def solve(self, cols: list[dict], target: dict,
              n_rows: int) -> dict[int, int] | None:
        """One λ with Σ λ_k·cols[k] = target, as ``{k: 1}``, or None."""
        sol = gf2_solve(self._rows(cols, n_rows), len(cols),
                        self._mask(target))
        return None if sol is None else self._col(sol)

    def nullspace(self, cols: list[dict], n_rows: int) -> list[dict]:
        """Basis of {λ : Σ λ_k·cols[k] = 0}."""
        return [self._col(m) for m in
                gf2_nullspace(self._rows(cols, n_rows), len(cols))]

    def independent(self, span: list[dict], cols: list[dict]) -> list[dict]:
        """The columns of ``cols`` outside the span of ``span`` and of the
        columns kept before them."""
        solver = GF2Solver()
        for c in span:
            solver.add(self._mask(c))
        return [c for c in cols if solver.add(self._mask(c))]


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

    @staticmethod
    def _vec(col: dict) -> QRow:
        return {i: Fraction(v) for i, v in col.items() if v}

    def rank(self, cols: list[dict]) -> int:
        return q_rank([self._vec(c) for c in cols])

    def solve(self, cols: list[dict], target: dict,
              n_rows: int) -> QRow | None:
        """One λ with Σ λ_k·cols[k] = target, or None."""
        return q_solve([self._vec(c) for c in cols], self._vec(target))

    def nullspace(self, cols: list[dict], n_rows: int) -> list[QRow]:
        """Basis of {λ : Σ λ_k·cols[k] = 0}."""
        rows: list[QRow] = [{} for _ in range(n_rows)]
        for k, col in enumerate(cols):
            for i, v in col.items():
                if v:
                    rows[i][k] = Fraction(v)
        return q_nullspace(rows, len(cols))

    def independent(self, span: list[dict], cols: list[dict]) -> list[dict]:
        """The columns of ``cols`` outside the span of ``span`` and of the
        columns kept before them."""
        solver = QSolver()
        for c in span:
            solver.add(self._vec(c))
        return [c for c in cols if solver.add(self._vec(c))]


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

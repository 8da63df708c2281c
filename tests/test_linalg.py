"""Linear algebra kernels, checked against brute force and sympy."""

import random
from fractions import Fraction

import pytest
import sympy

from khs import linalg
from khs.linalg import (
    GF2Echelon,
    QEchelon,
    gf2_from_columns,
    gf2_nullspace,
    gf2_rank,
    gf2_solve,
    diagonal_form,
    int_rank,
    integer_homology_summands,
    q_nullspace,
    q_rank,
    q_solve,
)
from khs.linalg import _integral, _renumbered
from khs.refined_s import ZERO, refined_invariants
from khs.tables import knot_9_42


def _random_gf2_rows(rng, n_rows, n_cols):
    return [rng.getrandbits(n_cols) for _ in range(n_rows)]


def test_gf2_rank_against_sympy():
    # [DERIVED] rank over GF(2) cross-checked with sympy.
    rng = random.Random(0)
    for _ in range(30):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        rows = _random_gf2_rows(rng, n_rows, n_cols)
        mat = sympy.Matrix(
            [[(r >> j) & 1 for j in range(n_cols)] for r in rows])
        expect = len(mat.rref(iszerofunc=lambda x: x % 2 == 0)[1])
        # sympy GF(2) rank via nullspace over GF(2) is awkward; use the
        # rank-nullity identity against our own nullspace instead, plus an
        # integer-matrix mod-2 rank from sympy.
        m2 = sympy.Matrix(mat).applyfunc(lambda v: v % 2)
        r_sym = m2.T.rank(iszerofunc=lambda x: x % 2 == 0)
        got = gf2_rank(list(rows))
        assert got == r_sym, (rows, n_cols, got, r_sym, expect)
        cols = gf2_from_columns(rows, n_cols)
        assert got + len(gf2_nullspace(cols)) == n_cols


def test_gf2_solve_and_nullspace():
    # [DERIVED] every solve result actually solves; insolvable detected.
    rng = random.Random(1)
    for _ in range(50):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        cols = [rng.getrandbits(n_rows) for _ in range(n_cols)]
        rows = gf2_from_columns(cols, n_rows)
        target = rng.getrandbits(n_rows)
        sol = gf2_solve(rows, n_cols, target)
        brute = None
        for mask in range(1 << n_cols):
            acc = 0
            for j in range(n_cols):
                if (mask >> j) & 1:
                    acc ^= cols[j]
            if acc == target:
                brute = mask
                break
        assert (sol is None) == (brute is None)
        if sol is not None:
            acc = 0
            for j in range(n_cols):
                if (sol >> j) & 1:
                    acc ^= cols[j]
            assert acc == target


def _gf2_solve_per_bit(rows, n_cols, target):
    """Reference: columns rebuilt bit by bit, then the same elimination."""
    pivots = {}
    for j in range(n_cols):
        col = 0
        for i, r in enumerate(rows):
            if (r >> j) & 1:
                col |= 1 << i
        comb = 1 << j
        while col:
            b = col.bit_length() - 1
            if b not in pivots:
                pivots[b] = (col, comb)
                break
            col ^= pivots[b][0]
            comb ^= pivots[b][1]
    tcomb = 0
    while target:
        b = target.bit_length() - 1
        if b not in pivots:
            return None
        target ^= pivots[b][0]
        tcomb ^= pivots[b][1]
    return tcomb


def test_gf2_solve_returns_the_reference_solution():
    # [DERIVED] not merely some solution: the same bitmask as the per-bit
    # reference, on sparse 200x300 systems solvable or not.
    rng = random.Random(5)
    n_rows, n_cols = 200, 300
    for trial in range(12):
        cols = []
        for _ in range(n_cols):
            col = 0
            for _ in range(rng.randint(0, 4)):
                col |= 1 << rng.randrange(n_rows)
            cols.append(col)
        if trial % 3 == 0:  # low rank, so that most targets are unsolvable
            cols = [c & ((1 << 40) - 1) for c in cols]
        rows = gf2_from_columns(cols, n_rows)
        targets = [rng.getrandbits(n_rows)]
        for _ in range(3):
            picked = 0
            for j in rng.sample(range(n_cols), 7):
                picked ^= cols[j]
            targets.append(picked)
        for target in targets:
            sol = gf2_solve(rows, n_cols, target)
            assert sol == _gf2_solve_per_bit(rows, n_cols, target)
            if sol is not None:
                acc = 0
                for j in range(n_cols):
                    if (sol >> j) & 1:
                        acc ^= cols[j]
                assert acc == target


def test_gf2_solver_incremental():
    # [TRIVIAL] a vector's remainder is zero exactly when it lies in the
    # span; with combinations tracked, a dependent vector's is its relation.
    e = GF2Echelon()
    assert e.add(0b101)[0]
    assert e.add(0b011)[0]
    assert e.add(0b110) == (0, None)  # dependent, nothing tracked
    assert len(e.pivots) == 2
    assert e.reduce(0b110)[0] == 0
    assert e.reduce(0b100)[0] != 0
    e = GF2Echelon()
    e.add(0b101, 0b001)
    e.add(0b011, 0b010)
    assert e.add(0b110, 0b100) == (0, 0b111)
    assert len(e.pivots) == 2


def test_q_echelon_tracks_relations():
    # [TRIVIAL] the rational twin, on integer vectors:
    # (1, 2) + 2·(0, 1) − (1, 4) = 0.
    e = QEchelon()
    e.add({0: 1, 1: 2}, {0: 1})
    e.add({1: 1}, {1: 1})
    rest, comb = e.add({0: 1, 1: 4}, {2: 1})
    assert rest == {} and comb == {0: -1, 1: -2, 2: 1}
    assert len(e.pivots) == 2


def test_q_echelon_is_fraction_free():
    # [DERIVED] a reduction by a pivot whose entry is not ±1 keeps
    # integers: (2, 1) and (3, 0) give the remainder 2·(3, 0) − 3·(2, 1)
    # = (0, −3), divided by its content with the combination (−3, 2).
    e = QEchelon()
    e.add({0: 2, 1: 1}, {0: 1})
    rest, comb = e.add({0: 3}, {1: 1})
    assert rest == {1: -3} and comb == {0: -3, 1: 2}
    assert all(type(v) is int for v in (*rest.values(), *comb.values()))


def test_q_rank_and_solve():
    # [DERIVED] rational rank cross-checked with sympy.
    rng = random.Random(2)
    for _ in range(25):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(n_cols)] for _ in range(n_rows)]
        rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
        assert q_rank([dict(r) for r in rows]) == sympy.Matrix(dense).rank()
        null = q_nullspace(_q_columns(dense, n_cols))
        assert len(null) == n_cols - sympy.Matrix(dense).rank()
        for vec in null:
            for r in dense:
                assert sum(r[j] * vec.get(j, 0) for j in range(n_cols)) == 0


def test_q_solve_consistency():
    # [DERIVED] solution check by substitution; insolvability via rank jump.
    cols = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    none, sol = q_solve([dict(c) for c in cols],
                        [{0: Fraction(1)}, {0: Fraction(3), 1: Fraction(6)}])
    assert none is None
    assert sol is not None
    acc = {}
    for j, a in sol.items():
        for i, v in cols[j].items():
            acc[i] = acc.get(i, 0) + a * v
    assert {i: v for i, v in acc.items() if v} == {0: Fraction(3),
                                                  1: Fraction(6)}


def _q_columns(dense, n_cols):
    return [{i: r[j] for i, r in enumerate(dense) if r[j]}
            for j in range(n_cols)]


def _gf2_nullspace_rows(rows, n_cols):
    """Reference: Gauss-Jordan on the rows (pivot on the highest bit), then
    one kernel vector per free column."""
    pivots = []  # (pivot col, fully reduced row)
    for row in rows:
        for pc, pr in pivots:
            if (row >> pc) & 1:
                row ^= pr
        if row:
            pc = row.bit_length() - 1
            for k, (pc2, pr2) in enumerate(pivots):
                if (pr2 >> pc) & 1:
                    pivots[k] = (pc2, pr2 ^ row)
            pivots.append((pc, row))
    pivot_cols = {pc for pc, _ in pivots}
    basis = []
    for j in range(n_cols):
        if j in pivot_cols:
            continue
        vec = 1 << j
        for pc, pr in pivots:
            if (pr >> j) & 1:
                vec |= 1 << pc
        basis.append(vec)
    return basis


def _q_nullspace_rows(rows, n_cols):
    """Reference: Gauss-Jordan on the rows (pivot on the lowest index),
    then one kernel vector per free column."""
    pivots = []  # (pivot col, fully reduced row)
    for row in rows:
        row = dict(row)
        for pc, pr in pivots:
            if pc in row:
                row = _q_row_sub(row, pr, row[pc] / pr[pc])
        if row:
            pc = min(row)
            for k, (pc2, pr2) in enumerate(pivots):
                if pc in pr2:
                    pivots[k] = (pc2, _q_row_sub(pr2, row, pr2[pc] / row[pc]))
            pivots.append((pc, row))
    pivot_cols = {pc for pc, _ in pivots}
    basis = []
    for j in range(n_cols):
        if j in pivot_cols:
            continue
        vec = {j: Fraction(1)}
        for pc, pr in pivots:
            if j in pr:
                vec[pc] = -pr[j] / pr[pc]
        basis.append(vec)
    return basis


def _degenerate(rng, cols, zero, combine):
    """Make some columns zero and some sums of two others, so that the
    matrix is rank-deficient in many ways."""
    cols = list(cols)
    for j in range(len(cols)):
        roll = rng.random()
        if roll < 0.15:
            cols[j] = zero
        elif roll < 0.45 and len(cols) > 1:
            a, b = rng.sample(range(len(cols)), 2)
            cols[j] = combine(cols[a], cols[b])
    return cols


def test_gf2_nullspace_is_the_row_reduction_basis():
    # [DERIVED] the column echelon gives the same basis vectors, in the
    # same order, as Gauss-Jordan on the rows.
    rng = random.Random(6)
    for trial in range(400):
        n_rows, n_cols = rng.randint(0, 12), rng.randint(0, 12)
        cols = [rng.getrandbits(n_rows) if n_rows else 0
                for _ in range(n_cols)]
        if trial % 2:
            cols = _degenerate(rng, cols, 0, lambda a, b: a ^ b)
        rows = gf2_from_columns(cols, n_rows)
        assert gf2_nullspace(cols) == _gf2_nullspace_rows(rows, n_cols)


def test_q_nullspace_is_the_row_reduction_basis():
    # [DERIVED] the rational twin, with fractional entries.
    rng = random.Random(7)
    for trial in range(300):
        n_rows, n_cols = rng.randint(0, 9), rng.randint(0, 9)
        cols = [{i: Fraction(v, rng.randint(1, 3)) for i in range(n_rows)
                 if (v := rng.choice((0, 0, -2, -1, 1, 3)))}
                for _ in range(n_cols)]
        if trial % 2:
            cols = _degenerate(
                rng, cols, {},
                lambda a, b: {i: v for i in a.keys() | b.keys()
                              if (v := a.get(i, 0) + 2 * b.get(i, 0))})
        rows = [{} for _ in range(n_rows)]
        for j, col in enumerate(cols):
            for i, v in col.items():
                rows[i][j] = v
        assert q_nullspace(cols) == _q_nullspace_rows(rows, n_cols)


def _q_row_sub(r, s, factor):
    """Reference: r − factor·s over sparse Fraction dicts."""
    out = dict(r)
    for j, v in s.items():
        nv = out.get(j, Fraction(0)) - factor * v
        if nv:
            out[j] = nv
        else:
            out.pop(j, None)
    return out


class _FractionEchelon:
    """Reference: the echelon in Fraction arithmetic, pivoting on a
    vector's lowest index, that the fraction-free QEchelon must match."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, vec, comb=None):
        while vec:
            b = min(vec)
            piv = self.pivots.get(b)
            if piv is None:
                break
            f = vec[b] / piv[0][b]
            vec = _q_row_sub(vec, piv[0], f)
            if comb is not None:
                comb = _q_row_sub(comb, piv[1], f)
        return vec, comb

    def add(self, vec, comb=None):
        vec, comb = self.reduce(vec, comb)
        if vec:
            self.pivots[min(vec)] = (vec, comb)
        return vec, comb


def _fractions(vec):
    return {k: Fraction(v) for k, v in vec.items() if v}


def _ref_rank(vecs):
    ech = _FractionEchelon()
    for v in vecs:
        ech.add(_fractions(v))
    return len(ech.pivots)


def _ref_nullspace(cols):
    ech = _FractionEchelon()
    basis = []
    for j, col in enumerate(cols):
        rest, comb = ech.add(_fractions(col), {j: Fraction(1)})
        if not rest:
            basis.append(comb)
    return basis


def _ref_solve(cols, targets):
    ech = _FractionEchelon()
    for j, col in enumerate(cols):
        ech.add(_fractions(col), {j: Fraction(1)})
    sols = []
    for target in targets:
        rest, comb = ech.reduce(_fractions(target), {})
        sols.append(None if rest else {k: -v for k, v in comb.items()})
    return sols


def _random_rational(rng):
    v = rng.choice((0, 0, 0, -3, -2, -1, 1, 1, 2, 5))
    d = rng.choice((1, 1, 2, 3, 6))
    return v if d == 1 else Fraction(v, d)  # ints and Fractions mixed


def test_q_kernels_match_the_fraction_reference():
    # [DERIVED] rank, nullspace and many-target solve over seeded systems
    # with denominators, zero and dependent columns, empty shapes, explicit
    # zero entries, and targets in and out of the column span: equal to
    # the Fraction elimination, solution by solution.
    rng = random.Random(8)
    outcomes = []
    for trial in range(300):
        n_rows, n_cols = rng.randint(0, 9), rng.randint(0, 9)
        cols = [{i: v for i in range(n_rows)
                 if (v := _random_rational(rng)) or rng.random() < 0.1}
                for _ in range(n_cols)]
        if trial % 2:
            cols = _degenerate(
                rng, cols, {},
                lambda a, b: {i: a.get(i, 0) - Fraction(3, 2) * b.get(i, 0)
                              for i in a.keys() | b.keys()})
        rows = [{j: c[i] for j, c in enumerate(cols) if i in c}
                for i in range(n_rows)]
        assert q_rank(cols) == _ref_rank(cols) == q_rank(rows)
        assert q_rank(cols) == _ref_rank(rows)
        assert q_nullspace(cols) == _ref_nullspace(cols)
        targets = [{i: _random_rational(rng) for i in range(n_rows)}, {}]
        for _ in range(rng.randint(0, 3)):
            picked = {}
            for j in range(n_cols):
                f = _random_rational(rng)
                for i, v in cols[j].items():
                    picked[i] = picked.get(i, 0) + f * v
            targets.append(picked)
        sols = q_solve(cols, targets)
        assert sols == _ref_solve(cols, targets)
        assert sols[1] == {}  # the zero target
        outcomes.extend(sol is None for sol in sols)
        for target, sol in zip(targets, sols):
            if sol is not None:
                acc = {}
                for j, a in sol.items():
                    for i, v in cols[j].items():
                        acc[i] = acc.get(i, 0) + a * v
                assert _fractions(acc) == _fractions(target)
    assert 100 < sum(outcomes) < len(outcomes) - 100  # both kinds, often
    assert q_solve([], []) == [] and q_solve([{}, {}], [{}]) == [{}]


def test_q_kernels_match_the_reference_with_unreached_target_rows():
    # [DERIVED] seeded sparse systems of 50-200 columns, with rows that no
    # column reaches scattered among the others, and targets in the span,
    # in the span plus an unreached row, on unreached rows only, and
    # random: equal to the natural-order Fraction elimination.
    rng = random.Random(20)
    for _ in range(8):
        n_cols = rng.randint(50, 200)
        n_rows = rng.randint(n_cols // 2, 2 * n_cols)
        unreached = rng.sample(range(n_rows), n_rows // 5)
        reached = sorted(set(range(n_rows)) - set(unreached))
        cols = [{i: _random_rational(rng)
                 for i in rng.sample(reached, rng.randint(0, 4))}
                for _ in range(n_cols)]
        cols = _degenerate(
            rng, cols, {},
            lambda a, b: {i: a.get(i, 0) - Fraction(3, 2) * b.get(i, 0)
                          for i in a.keys() | b.keys()})
        spans = []
        for _ in range(3):
            picked = {}
            for j in range(n_cols):
                f = _random_rational(rng)
                for i, v in cols[j].items():
                    picked[i] = picked.get(i, 0) + f * v
            spans.append(picked)
        off = [{**spans[0], unreached[0]: Fraction(1, 3)},
               {u: 2 for u in unreached[:3]}]
        noise = [{i: _random_rational(rng) for i in range(n_rows)}]
        sols = q_solve(cols, spans + off + noise)
        assert sols == _ref_solve(cols, spans + off + noise)
        assert None not in sols[:3] and sols[3:5] == [None, None]
        assert q_nullspace(cols) == _ref_nullspace(cols)


@pytest.fixture(scope="module")
def lee_942_j_system():
    """9_42's Lee d_{-1} and both certificates' j-condition targets, taken
    from the largest q_solve call of the refined pipeline over Q."""
    calls = []

    def spy(cols, targets):
        calls.append((cols, targets))
        return q_solve(cols, targets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "q_solve", spy)
        refined_invariants(knot_9_42(), ZERO, char=0)
    cols, targets = max(calls, key=lambda call: len(call[0]))
    assert (len(cols), sum(map(len, cols)), len(targets)) == (624, 5184, 2)
    return cols, targets


@pytest.mark.slow
def test_q_kernels_match_the_reference_on_the_lee_differential(
        lee_942_j_system):
    # [DERIVED] at the scale compute solves at: the renumbered elimination
    # gives the natural-order Fraction elimination's solutions and
    # nullspace basis.
    cols, targets = lee_942_j_system
    sols = q_solve(cols, targets)
    assert None not in sols and sols == _ref_solve(cols, targets)
    assert q_nullspace(cols) == _ref_nullspace(cols)


def _pivot_entries(vecs):
    ech = QEchelon()
    for vec in vecs:
        ech.add(vec)
    return sum(len(piv) for piv, _ in ech.pivots.values())


def test_first_column_row_order_cuts_fill(lee_942_j_system):
    # [DERIVED] numbering rows by the column that first reaches them keeps
    # at most half the pivot entries of the cube's own row numbering on
    # 9_42's Lee d_{-1} (4,689 against 20,003).
    cols, _ = lee_942_j_system
    natural = _pivot_entries([_integral(col)[0] for col in cols])
    renumbered = _pivot_entries([vec for vec, _ in _renumbered(cols)[1]])
    assert 2 * renumbered <= natural


def test_diagonal_form_against_sympy():
    # [DERIVED] rank and prime-power parts match sympy's Smith normal form
    # (a diagonal form need not be a divisibility chain, so only these are
    # compared), with zero rows and columns and negative entries.
    from sympy.matrices.normalforms import smith_normal_form as sym_snf

    def parts(factors):
        return sorted(p ** k for f in factors
                      for p, k in sympy.factorint(f).items())

    rng = random.Random(3)
    entries = (0, 0, 0, 1, -1, 2, -2, 3, -4, 6, -12)
    for _ in range(240):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.choice(entries) for _ in range(n_cols)]
               for _ in range(n_rows)]
        if rng.random() < 0.3:
            mat[rng.randrange(n_rows)] = [0] * n_cols
        if rng.random() < 0.3:
            j = rng.randrange(n_cols)
            for row in mat:
                row[j] = 0
        given = [r[:] for r in mat]
        ours = diagonal_form(mat)
        assert mat == given
        snf = sym_snf(sympy.Matrix(mat))
        theirs = [abs(snf[i, i]) for i in range(min(n_rows, n_cols))
                  if snf[i, i] != 0]
        assert len(ours) == len(theirs) == sympy.Matrix(mat).rank()
        assert parts(ours) == parts(theirs)


def test_int_rank():
    # [DERIVED]
    rng = random.Random(4)
    for _ in range(20):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-4, 4) for _ in range(n_cols)]
               for _ in range(n_rows)]
        assert int_rank([r[:] for r in mat]) == sympy.Matrix(mat).rank()


def test_integer_homology_summands():
    # [DERIVED] H = ker/im, given the diagonal form of d_in, is the sum of
    # the Z/n, split into prime powers: multiplication by 2 on Z gives rank
    # 0 and torsion [2], Z/6 = Z/2 + Z/3, Z/12 = Z/3 + Z/4, and Z/4 stays
    # whole; a unit adds no torsion.
    cases = [
        (([2], 0, 1), (0, [2])),
        (([], 0, 1), (1, [])),
        (([6], 0, 1), (0, [2, 3])),
        (([4], 0, 1), (0, [4])),
        (([12], 0, 1), (0, [3, 4])),
        (([2, 3], 0, 2), (0, [2, 3])),
        # a rank-1 d_in into rank 2 leaves the second generator free
        (([6], 0, 2), (1, [2, 3])),
        # the rank of d_out comes off the free part
        (([1, 2], 1, 4), (1, [2])),
    ]
    for args, expect in cases:
        assert integer_homology_summands(*args) == expect

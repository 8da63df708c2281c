"""Fullness framework and the refined Rasmussen invariants r₊^θ, s₊^θ.

For a nonempty oriented link L and a field F (char 0: Lee deformation over
ℚ; char 2: Bar-Natan deformation over 𝔽₂), let W(L) ⊂ H⁰ of the deformed
complex be the span of the canonical classes [𝔰_𝔬], [𝔰_𝔬̄] of the chosen
orientation and its reverse.  For q ≡ #components (mod 2) there are maps

    Kh^{-1,q}(F) --θ--> Kh^{0,q}(F) <--p-- H⁰(C^{≥q}) --j--> H⁰(C),

where C is the deformed filtered complex, C^{≥q} its sublevel subcomplex,
and Kh^{0,q} the homology of the associated graded (= Khovanov homology).
The level q is θ-half-full / θ-full when V^q := j(p⁻¹(im θ)) ∩ W has
dimension ≥ 1 / = 2, and plainly half-full / full when im(j) ∩ W does.
The invariants are

    s^F   = max{q half-full} − 1 = max{q full} + 1,
    r₊^θ  = max{q θ-half-full} + 1,
    s₊^θ  = max{q θ-full} + 3,

with r₊^θ, s₊^θ ∈ {s^F, s^F + 2} and r₊^θ(∅) = s₊^θ(∅) = s(∅) := 1.  The
supported operations θ are the zero operation and Sq¹ (the Bockstein, char
2 only).  Wherever a fullness claim is made, an explicit chain-level
certificate is produced; :func:`validate_certificate` re-checks one from
scratch using only chain arithmetic: no solve, rank or reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .bockstein import bockstein_chain
from .complexes import (
    Column,
    FilteredComplex,
    apply,
    class_coords,
    filtered_reduce,
    gr_slice,
    homology_reps,
    lift_chain,
    push_chain,
    q_slice,
    sublevel_homology,
    unreduced,
)
from .cube import CubeComplex, build_complex, canonical_cycle
from .links import OrientedLinkDiagram, serialize_pd


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaOperation:
    """A stable cohomology operation used to refine fullness.

    ``kind`` is "zero" or "sq1"; the degree is forced by the kind (0 and 1
    respectively), and Sq¹ only exists over characteristic 2.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "sq1"):
            raise ValueError(f"unknown theta kind {self.kind!r}")


ZERO = ThetaOperation("zero")
SQ1 = ThetaOperation("sq1")


@dataclass
class FullnessCertificate:
    """Witness chains for one fullness claim at level q.

    All chains are stored over the original cube bases, keyed by generator
    id strings ("v<bits>:<labels>").  ``x`` is a degree-0 cycle of the
    deformed complex supported on levels ≥ q whose class maps under j to
    α[𝔰_𝔬] + β[𝔰_𝔬̄]; ``y`` exhibits x − α𝔰_𝔬 − β𝔰_𝔬̄ as a boundary.  For
    kind "zero"/"sq1" the level-q part of x is exhibited as a graded
    boundary (kind "zero") or as Sq¹ of the source cycle ``u`` plus a
    graded boundary ``z`` (kind "sq1").  Kind "plain" carries no p-part.
    """

    q: int
    kind: str  # "plain" | "zero" | "sq1"
    char: int
    alpha: int | Fraction
    beta: int | Fraction
    x: dict[str, int | Fraction]
    y: dict[str, int | Fraction]
    u: dict[str, int] | None = None
    z: dict[str, int | Fraction] | None = None


@dataclass
class FullnessResult:
    q: int
    theta: ThetaOperation
    dim: int
    status: str  # "not" | "half_full" | "full"
    certificates: list[FullnessCertificate]


@dataclass
class RefinedSResult:
    link: str
    component_count: int
    char: int
    theta: ThetaOperation
    s_classical: int
    r_plus: int
    s_plus: int
    certificates: dict[str, FullnessCertificate | None]

    def __post_init__(self) -> None:
        for v in (self.r_plus, self.s_plus):
            if v not in (self.s_classical, self.s_classical + 2):
                raise AssertionError("refined invariant outside {s, s+2}")
        parity = (self.component_count + 1) % 2
        for v in (self.s_classical, self.r_plus, self.s_plus):
            if v % 2 != parity:
                raise AssertionError("invariant parity violates components+1")


@dataclass
class DisjointUnionReport:
    hypothesis_ok: bool
    s_plus_union: int | None
    s_plus_left: int
    s_plus_right: int
    equality: bool | None


# ---------------------------------------------------------------------------
# The computation pipeline
# ---------------------------------------------------------------------------


class _Pipeline:
    """Shared state for all fullness computations over one (diagram, char).

    ``optimized`` cancels the jump-0 pairs of the deformed complex (so
    sublevel/graded homology is computed on a much smaller complex) and of
    each integral q-slice before extracting Sq¹; the naive path is the same
    pipeline with nothing cancelled (:func:`unreduced`).  Certificates are
    always expressed in original cube coordinates.
    """

    def __init__(self, d: OrientedLinkDiagram, char: int,
                 optimized: bool = True, need_sq1: bool = False):
        if d.component_count == 0:
            raise ValueError("empty link has no canonical subspace W")
        if char not in (0, 2):
            raise ValueError("characteristic must be 0 or 2")
        self.d = d
        self.char = char
        self.reduce = filtered_reduce if optimized else unreduced
        self.ring = "gf2" if char == 2 else "Q"
        self.ops = linalg.RINGS[self.ring]
        self.theory = "bar_natan" if char == 2 else "lee"
        self.cube = build_complex(d, self.theory, self.ring)
        self.s_o_orig = canonical_cycle(self.cube)
        self.s_ob_orig = canonical_cycle(self.cube, reverse=True)
        self.dec = self.reduce(self.cube.complex)
        self.cx = self.dec.reduced
        self.s_o = push_chain(self.dec, 0, self.s_o_orig)
        self.s_ob = push_chain(self.dec, 0, self.s_ob_orig)
        self.full_reps = homology_reps(self.cx, 0)
        self.w_o = class_coords(self.cx, 0, self.full_reps, self.s_o)
        self.w_ob = class_coords(self.cx, 0, self.full_reps, self.s_ob)
        if self.w_o is None or self.w_ob is None:
            raise AssertionError("canonical chain is not a cycle of C")
        if self.ops.rank([self._coords_col(self.w_o),
                          self._coords_col(self.w_ob)]) != 2:
            raise AssertionError("canonical classes are not independent")
        self.cube_z: CubeComplex | None = None
        if need_sq1:
            if char != 2:
                raise ValueError("Sq¹ refinement needs characteristic 2")
            self.cube_z = build_complex(d, "khovanov", "Z")
        self._sh_cache: dict[int, object] = {}
        self._gr_cache: dict[int, tuple] = {}
        self._theta_cache: dict[int, tuple] = {}

    @staticmethod
    def _coords_col(coords: list) -> dict:
        return {i: v for i, v in enumerate(coords) if v}

    # -- cached homological data ---------------------------------------------

    def sh(self, q: int):
        if q not in self._sh_cache:
            _, _, greps = self.gr(q)
            self._sh_cache[q] = sublevel_homology(
                self.cx, q, 0, full_reps=self.full_reps, gr_reps=greps)
        return self._sh_cache[q]

    def gr(self, q: int):
        if q not in self._gr_cache:
            gcx, gkeep = gr_slice(self.cx, q)
            self._gr_cache[q] = (gcx, gkeep, homology_reps(gcx, 0))
        return self._gr_cache[q]

    def theta_data(self, q: int) -> list[tuple[Column, list]]:
        """Per Sq¹-source basis class: (source cycle in original Khovanov
        coordinates at degree −1, coordinates of its Sq¹ image in the
        gr-homology basis of :meth:`gr`)."""
        if self.cube_z is None:
            raise ValueError("pipeline built without Sq¹ support")
        if q in self._theta_cache:
            return self._theta_cache[q]
        zsl, zkeep = q_slice(self.cube_z.complex, q)
        out: list[tuple[Column, list]] = []
        if zsl.dim(-1) and zsl.dim(0):
            zdec = self.reduce(zsl)
            zred = zdec.reduced
            f2 = FilteredComplex("gf2", zred.levels, zred.diff)
            src = homology_reps(f2, -1)
            back_src = zkeep.get(-1, [])
            back_tgt = zkeep.get(0, [])
            gcx, gkeep, greps = self.gr(q)
            gpos = {g: k for k, g in enumerate(gkeep.get(0, []))}
            for rep in src:
                # lift the mod-2 chains through the integral reduction and
                # keep their odd entries
                u_loc = lift_chain(zdec, -1, rep)
                w_loc = lift_chain(zdec, 0, bockstein_chain(zred, -1, rep))
                u_orig = {back_src[k]: 1 for k, v in u_loc.items() if v % 2}
                w_orig = {back_tgt[k]: 1 for k, v in w_loc.items() if v % 2}
                # express the image class in the gr basis of the working
                # complex
                w_cx = push_chain(self.dec, 0, w_orig)
                local = {gpos[i]: v for i, v in w_cx.items() if i in gpos}
                coords = class_coords(gcx, 0, greps, local)
                if coords is None:
                    raise AssertionError("Sq¹ image is not a graded cycle")
                out.append((u_orig, coords))
        self._theta_cache[q] = out
        return out

    # -- the fullness linear systems -----------------------------------------

    def _system(self, q: int, mode: str):
        """Columns of the witness system over (a_k | c_m) and row count.

        Rows 0..nfull−1 are coordinates in the degree-0 homology basis
        (the j-condition), rows nfull.. are coordinates in the gr-homology
        basis (the p-condition; absent for mode "plain").
        """
        SH = self.sh(q)
        nfull = len(SH.full_reps)
        ngr = len(SH.gr_reps)
        cols: list[dict] = []
        for k in range(len(SH.reps)):
            col = {t: v for t, v in enumerate(SH.j_mat[k]) if v}
            if mode != "plain":
                for g, v in enumerate(SH.p_mat[k]):
                    if v:
                        col[nfull + g] = v
            cols.append(col)
        n_a = len(cols)
        if mode == "sq1":
            for _, coords in self.theta_data(q):
                col = {nfull + g: -v for g, v in enumerate(coords) if v}
                cols.append(col)
        n_rows = nfull + (ngr if mode != "plain" else 0)
        return cols, n_a, n_rows, nfull

    def v_dim(self, q: int, mode: str) -> int:
        """dim of the achievable (α, β) subspace of W at level q."""
        cols, _, n_rows, _ = self._system(q, mode)
        wo = self._coords_col(self.w_o)
        wob = self._coords_col(self.w_ob)
        rank_rest = self.ops.rank(cols)
        rank_all = self.ops.rank([wo, wob] + cols)
        return 2 - rank_all + rank_rest

    def witness(self, q: int, alpha, beta, mode: str):
        """Solution (a_k, c_m) hitting α[𝔰_𝔬] + β[𝔰_𝔬̄], or None."""
        cols, n_a, n_rows, _ = self._system(q, mode)
        target = {t: alpha * v + beta * self.w_ob[t]
                  for t, v in enumerate(self.w_o)}
        sol = self.ops.solve(cols, target, n_rows)
        if sol is None:
            return None
        a = {k: v for k, v in sol.items() if k < n_a and v}
        c = {k - n_a: v for k, v in sol.items() if k >= n_a and v}
        return a, c

    def all_witnesses(self, q: int, mode: str):
        """Witnesses with (α, β) ≠ 0 from a homogeneous solution basis.

        The (α, β) parts of the returned witnesses span the achievable
        subspace of W, so greedily collecting independent ones realizes
        its full dimension.
        """
        cols, n_a, n_rows, _ = self._system(q, mode)
        wo = self._coords_col(self.w_o)
        wob = self._coords_col(self.w_ob)
        # homogeneous system in (α, β, a, c):  α w_o + β w_ob − Σ a… − Σ c… = 0
        neg = ({i: -v for i, v in c.items()} for c in cols)
        allcols = [wo, wob] + list(neg)
        out = []
        for sol in self.ops.nullspace(allcols, n_rows):
            alpha = sol.get(0, 0)
            beta = sol.get(1, 0)
            if alpha or beta:
                a = {k - 2: v for k, v in sol.items() if 2 <= k < 2 + n_a and v}
                c = {k - 2 - n_a: v for k, v in sol.items()
                     if k >= 2 + n_a and v}
                out.append((alpha, beta, a, c))
        return out

    # -- certificates ---------------------------------------------------------

    def certificate(self, q: int, alpha, beta, a: dict, c: dict,
                    mode: str) -> FullnessCertificate:
        SH = self.sh(q)
        coeff = self.ops.coeff
        x_cx: Column = {}
        for k, coef in a.items():
            for i, v in SH.reps[k].items():
                nv = coeff(x_cx.get(i, 0) + coef * v)
                if nv:
                    x_cx[i] = nv
                else:
                    x_cx.pop(i, None)
        x = lift_chain(self.dec, 0, x_cx)
        # j-condition witness: d(y) = x − α·𝔰_𝔬 − β·𝔰_𝔬̄ in the original cube
        cx0 = self.cube.complex
        target: Column = dict(x)
        for chain, coef in ((self.s_o_orig, alpha), (self.s_ob_orig, beta)):
            for i, v in chain.items():
                target[i] = target.get(i, 0) - coef * v
        y = self.ops.solve(cx0.columns(-1), target, cx0.dim(0))
        if y is None:
            raise AssertionError(self._failure("j-condition witness solve",
                                               q))
        u = None
        z = None
        if mode != "plain":
            # p-condition: level-q part of x is (Sq¹ u) + graded boundary
            lv0 = cx0.levels[0]
            xq = {i: v for i, v in x.items() if lv0[i] == q}
            if mode == "sq1":
                u = {}
                for m in c:
                    for i in self.theta_data(q)[m][0]:
                        u[i] = u.get(i, 0) ^ 1
                u = {i: v for i, v in u.items() if v}
                w = bockstein_chain(self.cube_z.complex, -1, u)
                for i, v in w.items():
                    xq[i] = xq.get(i, 0) - v
            gcx0, gkeep0 = gr_slice(cx0, q)
            gpos = {g: k for k, g in enumerate(gkeep0.get(0, []))}
            xq_loc = {gpos[i]: v for i, v in xq.items()}
            z_loc = self.ops.solve(gcx0.columns(-1), xq_loc, gcx0.dim(0))
            if z_loc is None:
                raise AssertionError(self._failure("p-condition witness solve",
                                                   q))
            back = gkeep0.get(-1, [])
            z = {back[k]: v for k, v in z_loc.items() if v}
        gid0 = lambda i: self.cube.gen_id(0, i)
        gidm1 = lambda i: self.cube.gen_id(-1, i)
        return FullnessCertificate(
            q=q, kind=mode, char=self.char, alpha=alpha, beta=beta,
            x={gid0(i): v for i, v in x.items()},
            y={gidm1(i): v for i, v in y.items() if v},
            u={gidm1(i): 1 for i in u} if u is not None else None,
            z={gidm1(i): v for i, v in z.items()} if z is not None else None,
        )

    def _failure(self, stage: str, q: int) -> str:
        return f"{stage} failed at q={q} for link {serialize_pd(self.d)}"

    # -- the invariants -------------------------------------------------------

    def degree0_levels(self) -> list[int]:
        return sorted(set(self.cx.levels.get(0, [])) |
                      set(self.cube.complex.levels.get(0, [])))

    def s_value(self) -> int:
        """s^F via max half-full − 1, asserted equal to max full + 1."""
        lvls = self.degree0_levels()
        q = max(lvls)
        while self.v_dim(q, "plain") < 1:
            q -= 2
            if q < min(lvls):
                raise AssertionError("no half-full level found")
        if self.v_dim(q, "plain") != 1 or self.v_dim(q - 2, "plain") != 2:
            raise AssertionError("the two s-invariant formulas disagree")
        return q - 1

    def half_full_targets(self):
        if self.ring == "gf2":
            return [(1, 1)]
        return [(1, 1), (1, -1)]


def _char_for(theta: ThetaOperation, char: int | None) -> int:
    if theta.kind == "sq1":
        if char not in (None, 2):
            raise ValueError("Sq¹ requires characteristic 2")
        return 2
    return 0 if char is None else char


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def fullness(d: OrientedLinkDiagram, q: int, theta: ThetaOperation = ZERO,
             char: int | None = None,
             optimized: bool = True) -> FullnessResult:
    """Classify level q as not / half-full / full (θ-refined for Sq¹).

    For θ = Zero this is the plain condition im(j) ∩ W; for θ = Sq¹ it is
    V^q = j(p⁻¹(im Sq¹)) ∩ W.  Requires q ≡ #components (mod 2).
    """
    char = _char_for(theta, char)
    if d.component_count == 0:
        raise ValueError("fullness is undefined for the empty link")
    if q % 2 != d.component_count % 2:
        raise ValueError(f"level q={q} violates the component parity")
    pipe = _Pipeline(d, char, optimized, need_sq1=theta.kind == "sq1")
    mode = "plain" if theta.kind == "zero" else "sq1"
    dim = pipe.v_dim(q, mode)
    status = "not" if dim == 0 else ("half_full" if dim == 1 else "full")
    certs = []
    if dim > 0:
        found: list[dict] = []
        for alpha, beta, a, c in pipe.all_witnesses(q, mode):
            vec = {0: alpha, 1: beta}
            if pipe.ops.rank(found + [vec]) > len(found):
                found.append(vec)
                certs.append(pipe.certificate(q, alpha, beta, a, c, mode))
            if len(found) == dim:
                break
        if len(found) != dim:
            raise AssertionError("failed to realize the claimed dimension")
    return FullnessResult(q, theta, dim, status, certs)


def s_classical(d: OrientedLinkDiagram, char: int = 0,
                optimized: bool = True) -> int:
    """The classical s-invariant over F (char 0 or 2); s(∅) := 1."""
    if d.component_count == 0:
        return 1
    return _Pipeline(d, char, optimized).s_value()


def refined_invariants(d: OrientedLinkDiagram, theta: ThetaOperation = SQ1,
                       char: int | None = None, optimized: bool = True,
                       full_sweep: bool = False) -> RefinedSResult:
    """s^F, r₊^θ and s₊^θ with certificates for every claimed fullness.

    The default path tests only q ∈ {s−1, s+1} as justified by the
    dichotomy r₊, s₊ ∈ {s, s+2}; ``full_sweep`` recomputes both maxima by
    scanning all levels with the definitional θ-fullness dimensions.
    """
    char = _char_for(theta, char)
    link_id = serialize_pd(d)
    if d.component_count == 0:
        return RefinedSResult(link_id, 0, char, theta, 1, 1, 1,
                              {"r_plus": None, "s_plus": None})
    pipe = _Pipeline(d, char, optimized, need_sq1=theta.kind == "sq1")
    s = pipe.s_value()
    mode = theta.kind
    certs: dict[str, FullnessCertificate | None] = {}

    # r₊ criterion: x ∈ H⁰(C^{≥ s+1}) with j(x) = [𝔰_𝔬] ± [𝔰_𝔬̄], p(x) ∈ im θ
    r_plus_v = s
    for alpha, beta in pipe.half_full_targets():
        sol = pipe.witness(s + 1, alpha, beta, mode)
        if sol is not None:
            r_plus_v = s + 2
            certs["r_plus"] = pipe.certificate(s + 1, alpha, beta, *sol, mode)
            break
    if r_plus_v == s:
        wits = pipe.all_witnesses(s - 1, mode)
        if not wits:
            raise AssertionError("s−1 must be θ-half-full by the dichotomy")
        alpha, beta, a, c = wits[0]
        certs["r_plus"] = pipe.certificate(s - 1, alpha, beta, a, c, mode)

    # s₊ criterion: x ∈ H⁰(C^{≥ s−1}) with j(x) = [𝔰_𝔬], p(x) ∈ im θ
    sol = pipe.witness(s - 1, 1, 0, mode)
    if sol is not None:
        s_plus_v = s + 2
        certs["s_plus"] = pipe.certificate(s - 1, 1, 0, *sol, mode)
    else:
        s_plus_v = s
        if pipe.v_dim(s - 3, mode) != 2:
            raise AssertionError("s−3 must be θ-full by the dichotomy")
        sol = pipe.witness(s - 3, 1, 0, mode)
        if sol is None:
            raise AssertionError("θ-full level admits no [𝔰_𝔬] witness")
        certs["s_plus"] = pipe.certificate(s - 3, 1, 0, *sol, mode)

    if full_sweep:
        lvls = pipe.degree0_levels()
        top, bot = max(lvls), min(lvls) - 2
        half = [q for q in range(bot, top + 1, 2) if pipe.v_dim(q, mode) >= 1]
        full = [q for q in range(bot, top + 1, 2) if pipe.v_dim(q, mode) == 2]
        if max(half) + 1 != r_plus_v or max(full) + 3 != s_plus_v:
            raise AssertionError("full q-sweep contradicts the criterion path")

    return RefinedSResult(link_id, d.component_count, char, theta,
                          s, r_plus_v, s_plus_v, certs)


def minus_versions(d: OrientedLinkDiagram, theta: ThetaOperation = SQ1,
                   char: int | None = None,
                   optimized: bool = True) -> tuple[int, int]:
    """(r₋^θ, s₋^θ) := (−r₊^θ(mirror), −s₊^θ(mirror))."""
    res = refined_invariants(d.mirror(), theta, char, optimized)
    return -res.r_plus, -res.s_plus


def sq1_vanishing_hypothesis(t: OrientedLinkDiagram,
                             optimized: bool = True) -> bool:
    """Sq¹: Kh^{i−1,s(T)−1} → Kh^{i,s(T)−1} is zero for i = 0, 1."""
    from .bockstein import sq1

    if t.component_count == 0:
        return True
    s = s_classical(t, char=2, optimized=optimized)
    cube_z = build_complex(t, "khovanov", "Z")
    return all(sq1(cube_z, i, s - 1).rank == 0 for i in (0, 1))


def disjoint_union_check(left: OrientedLinkDiagram,
                         right: OrientedLinkDiagram,
                         optimized: bool = True) -> DisjointUnionReport:
    """Check s₊^{Sq¹}(L ⊔ T) = s₊^{Sq¹}(L) + s₊^{Sq¹}(T) − 1.

    The additivity requires T to satisfy the Sq¹-vanishing hypothesis at
    (·, s(T)−1); if it fails, the report flags it and skips the union
    computation (the identity is not asserted by the statement then).
    """
    hyp = sq1_vanishing_hypothesis(right, optimized)
    sp_l = refined_invariants(left, SQ1, optimized=optimized).s_plus
    sp_r = refined_invariants(right, SQ1, optimized=optimized).s_plus
    if not hyp:
        return DisjointUnionReport(False, None, sp_l, sp_r, None)
    union = left.disjoint_union(right)
    sp_u = refined_invariants(union, SQ1, optimized=optimized).s_plus
    return DisjointUnionReport(True, sp_u, sp_l, sp_r,
                               sp_u == sp_l + sp_r - 1)


def adjunction_bound(s0: int, chi: int, self_intersection: int,
                     surface_components: int) -> int:
    """Upper bound s0 − χ(Σ) − [Σ]² − |Σ| for s of the far end of a
    cobordism Σ with |Σ| ≥ 1 components in a blown-up half of S³×I."""
    if surface_components < 1:
        raise ValueError("a cobordism surface has at least one component")
    return s0 - chi - self_intersection - surface_components


def adjunction_check(s0: int, chi: int, self_intersection: int,
                     surface_components: int, s1: int) -> bool:
    return s1 <= adjunction_bound(s0, chi, self_intersection,
                                  surface_components)


# ---------------------------------------------------------------------------
# Independent certificate validation
# ---------------------------------------------------------------------------


def _parse_gen_id(gid: str) -> tuple[int, tuple[int, ...]]:
    vs, labels = gid[1:].split(":")
    v = 0 if vs == "-" else int(vs[::-1], 2)
    return v, tuple(1 if ch == "x" else 0 for ch in labels)


def _resolve(cube: CubeComplex, h: int, chain: dict) -> Column:
    out: Column = {}
    for gid, coeff in chain.items():
        out[cube.index[h][_parse_gen_id(gid)]] = coeff
    return out


def validate_certificate(d: OrientedLinkDiagram,
                         cert: FullnessCertificate) -> bool:
    """Re-check a fullness certificate from scratch by chain arithmetic."""
    ring = "gf2" if cert.char == 2 else "Q"
    theory = "bar_natan" if cert.char == 2 else "lee"
    cube = build_complex(d, theory, ring)
    cx = cube.complex
    is_zero = cx.ops.is_zero
    x = _resolve(cube, 0, cert.x)
    y = _resolve(cube, -1, cert.y)
    # filtration support and cycle condition for x
    lv0 = cx.levels[0]
    if any(lv0[i] < cert.q for i, v in x.items() if v):
        return False
    if not is_zero(apply(cx.columns(0), x)):
        return False
    # j-condition: d(y) = x − α 𝔰_𝔬 − β 𝔰_𝔬̄
    acc = apply(cx.columns(-1), y)
    for i, v in x.items():
        acc[i] = acc.get(i, 0) - v
    for chain, coef in ((canonical_cycle(cube), cert.alpha),
                        (canonical_cycle(cube, reverse=True), cert.beta)):
        for i, v in chain.items():
            acc[i] = acc.get(i, 0) + coef * v
    if not is_zero(acc):
        return False
    if cert.kind == "plain":
        return True
    # p-condition: level-q part of x = Sq¹(u) + d_gr(z)
    xq = {i: v for i, v in x.items() if lv0[i] == cert.q}
    if cert.kind == "sq1":
        cube_z = build_complex(d, "khovanov", "Z")
        u = _resolve(cube_z, -1, cert.u)
        zlv = cube_z.complex.levels.get(-1, [])
        if any(zlv[i] != cert.q for i in u):
            return False
        # u must be a mod-2 cycle of the graded (Khovanov) complex
        if not linalg.GF2.is_zero(apply(cube_z.complex.columns(-1), u)):
            return False
        w = bockstein_chain(cube_z.complex, -1, u)
        for i, v in w.items():
            xq[i] = xq.get(i, 0) - v
    gcx, gkeep = gr_slice(cx, cert.q)
    gpos = {g: k for k, g in enumerate(gkeep.get(0, []))}
    posm1 = {g: k for k, g in enumerate(gkeep.get(-1, []))}
    z = _resolve(cube, -1, cert.z or {})
    acc = apply(gcx.columns(-1), {posm1[i]: v for i, v in z.items()})
    for i, v in xq.items():
        if v and i not in gpos:
            return False
        if i in gpos:
            acc[gpos[i]] = acc.get(gpos[i], 0) - v
    return is_zero(acc)

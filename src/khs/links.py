"""Oriented link diagrams encoded as PD (planar diagram) codes.

A crossing is stored as a quadruple of arc labels listed in rotational
order around the crossing, starting at the arc on which the under-strand
enters (with respect to the diagram's base orientation).  The strand
occupying slots 0 and 2 passes under; the strand occupying slots 1 and 3
passes over.  The over-strand's entry slot is derived by one walk along
the strands of the sorted PD code, and checked when a diagram is built.
Per-component boolean flags reverse components relative to the base
orientation, so arbitrary orientation assignments (e.g. torus links with
some strands reversed) need no re-encoding of the quadruples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class PDError(ValueError):
    """Malformed or inconsistent PD input."""


class NonPlanarError(PDError):
    """PD data does not describe a planar (genus zero) diagram."""


@dataclass(frozen=True)
class Crossing:
    quad: tuple[int, int, int, int]
    # 1 or 3: the over-strand's entry slot, derived by _strands and checked
    over_in: int


def _union(parent: dict, a, b) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[rb] = ra


def _find(parent: dict, a):
    parent.setdefault(a, a)
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


@dataclass
class OrientedLinkDiagram:
    """PD-coded oriented link diagram with per-component orientation flags.

    Every connected piece must be planar; construction raises
    :class:`NonPlanarError` otherwise.
    """

    crossings: list[Crossing]
    free_loops: int = 0
    component_orientations: list[bool] = field(default_factory=list)

    # Derived, filled in by __post_init__:
    arc_component: dict[int, int] = field(default_factory=dict, repr=False)
    component_count: int = 0
    # the cube skeleton of ``crossings`` and ``free_loops``, built on first
    # use by ``khs.cube``
    _cube_skeleton: tuple | None = field(default=None, init=False,
                                         repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.free_loops < 0:
            raise PDError(
                f"free loop count must be >= 0, got {self.free_loops}")
        self.crossings = sorted(self.crossings, key=lambda c: c.quad)
        quads = [c.quad for c in self.crossings]
        self._arc_ends = _arc_ends(quads)
        comps, over = _strands(quads, self._arc_ends)
        if [c.over_in for c in self.crossings] != over:
            raise PDError(f"over_in slots differ from the strands' {over}")
        self.arc_component = {a: i for i, comp in enumerate(comps) for a in comp}
        self.component_count = len(comps) + self.free_loops
        if not self.component_orientations:
            self.component_orientations = [False] * self.component_count
        if len(self.component_orientations) != self.component_count:
            raise PDError(
                f"{len(self.component_orientations)} orientation flags for "
                f"{self.component_count} components"
            )
        # checkerboard colour of each crossing; raises NonPlanarError
        self._colour = _checkerboard(self)

    # -- basic queries ---------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def is_empty(self) -> bool:
        return not self.crossings and self.free_loops == 0

    def _reversed(self, comp: int) -> bool:
        return self.component_orientations[comp]

    def effective_entries(self, ci: int) -> tuple[int, int]:
        """(under-entry slot, over-entry slot) under the effective orientation."""
        c = self.crossings[ci]
        u = 2 if self._reversed(self.arc_component[c.quad[0]]) else 0
        o = c.over_in
        if self._reversed(self.arc_component[c.quad[1]]):
            o = (o + 2) % 4
        return u, o

    def sign(self, ci: int) -> int:
        u, o = self.effective_entries(ci)
        return 1 if (o - u) % 4 == 3 else -1

    @property
    def n_plus(self) -> int:
        return sum(1 for i in range(self.n_crossings) if self.sign(i) > 0)

    @property
    def n_minus(self) -> int:
        return self.n_crossings - self.n_plus

    def writhe(self) -> int:
        return self.n_plus - self.n_minus

    def oriented_vertex(self) -> tuple[int, ...]:
        """Cube vertex whose smoothings respect the orientation (0 at positive)."""
        return tuple(0 if self.sign(i) > 0 else 1 for i in range(self.n_crossings))

    # -- diagram operations ----------------------------------------------------

    def mirror(self) -> "OrientedLinkDiagram":
        """Swap over and under everywhere.  A component passing only under
        may come out reversed; it is a split unknot, so that is an isotopy."""
        quads = [c.quad[c.over_in:] + c.quad[:c.over_in] for c in self.crossings]
        return OrientedLinkDiagram(_crossings(quads), self.free_loops,
                                   list(self.component_orientations))

    def with_orientations(self, flags: Sequence[bool]) -> "OrientedLinkDiagram":
        return OrientedLinkDiagram(list(self.crossings), self.free_loops, list(flags))

    def disjoint_union(self, other: "OrientedLinkDiagram") -> "OrientedLinkDiagram":
        # other's arcs are shifted above ours, so the union's components are
        # our arc components, then other's, then our and other's free loops
        offset = max(self.arc_component, default=0) + 1
        shifted = [Crossing(tuple(a + offset for a in c.quad), c.over_in)
                   for c in other.crossings]
        f1, f2 = self.component_orientations, other.component_orientations
        n1 = self.component_count - self.free_loops
        n2 = other.component_count - other.free_loops
        return OrientedLinkDiagram(list(self.crossings) + shifted,
                                   self.free_loops + other.free_loops,
                                   f1[:n1] + f2[:n2] + f1[n1:] + f2[n2:])


# -- parsing / serialization --------------------------------------------------

_QUAD_RE = re.compile(r"X[\(\[]\s*([0-9,\s]*?)\s*[\)\]]")


def parse_pd(text: str) -> OrientedLinkDiagram:
    """Parse semicolon/whitespace separated ``X(a,b,c,d)`` quadruples.

    The optional ``reversed=i,j`` and ``loops=n`` suffixes emitted by
    :func:`serialize_pd` are accepted after a ``|`` separator.  Every
    connected piece of the diagram must pass the planarity face count.
    """
    text = text.strip()
    free_loops = 0
    reversed_comps: list[int] = []
    if "|" in text:
        text, _, suffix = text.partition("|")
        for part in suffix.replace(";", " ").split():
            key, _, val = part.partition("=")
            try:
                nums = [int(x) for x in val.split(",") if x]
            except ValueError:
                raise PDError(f"malformed PD suffix {part!r}") from None
            if key == "loops" and len(nums) == 1:
                free_loops += nums[0]
            elif key == "reversed":
                reversed_comps = nums
            else:
                raise PDError(f"unknown or malformed PD suffix {part!r}")
    body = text.replace(";", " ")
    quads: list[tuple[int, int, int, int]] = []
    consumed = _QUAD_RE.sub(" ", body)
    if consumed.strip():
        raise PDError(f"unparsable PD fragments: {consumed.split()}")
    for m in _QUAD_RE.finditer(body):
        nums = [int(x) for x in m.group(1).split(",") if x.strip()]
        if len(nums) != 4:
            raise PDError(f"malformed quadruple X({m.group(1)})")
        quads.append(tuple(nums))
    d = OrientedLinkDiagram(_crossings(quads), free_loops)
    # no derived field reads the flags, so they are set on the one diagram
    for i in reversed_comps:
        if not 0 <= i < d.component_count:
            raise PDError(f"reversed component {i} out of range "
                          f"(component count {d.component_count})")
        d.component_orientations[i] = True
    return d


def _arc_ends(quads: Sequence[Sequence[int]]) -> dict[int, list[tuple[int, int]]]:
    """Map each arc label to its two (crossing, slot) ends."""
    ends: dict[int, list[tuple[int, int]]] = {}
    for ci, q in enumerate(quads):
        for slot, a in enumerate(q):
            ends.setdefault(a, []).append((ci, slot))
    bad = [a for a, e in ends.items() if len(e) != 2]
    if bad:
        raise PDError(f"arc labels not appearing exactly twice: {sorted(bad)}")
    return ends


def _strands(quads: Sequence[tuple[int, int, int, int]], ends: dict
             ) -> tuple[list[list[int]], list[int]]:
    """Walk the strands of ``quads``, whose arc ends are ``ends``.

    A strand enters a crossing at slot s and leaves it at slot s+2.  Walks
    start at every under-entry (slot 0), then, for each component that
    never passes under, at slot 1 of its first crossing in ``quads`` order.
    Returns the components as sorted arc lists, in order of their least
    arc, and each crossing's over-entry slot.
    """
    n = len(quads)
    under = [False] * n
    over: list[int | None] = [None] * n
    comps = []
    for start in [(ci, 0) for ci in range(n)] + [(ci, 1) for ci in range(n)]:
        if (over if start[1] else under)[start[0]]:
            continue
        arcs, (ci, s) = [], start
        while True:
            if s == 0:
                under[ci] = True
            elif s == 2 or over[ci] not in (None, s):
                raise PDError("inconsistent orientation data in PD code")
            else:
                over[ci] = s
            t = (s + 2) % 4
            arcs.append(quads[ci][t])
            e1, e2 = ends[arcs[-1]]
            ci, s = e2 if e1 == (ci, t) else e1
            if (ci, s) == start:
                break
        comps.append(sorted(arcs))
    return sorted(comps), over


def _crossings(quads: Iterable[tuple[int, int, int, int]]) -> list[Crossing]:
    """Sorted crossings of PD quadruples, over-entries from :func:`_strands`."""
    quads = sorted(quads)
    _, over = _strands(quads, _arc_ends(quads))
    return [Crossing(q, o) for q, o in zip(quads, over)]


def serialize_pd(d: OrientedLinkDiagram) -> str:
    """Canonical serialization: lexicographically sorted quadruples."""
    parts = ["X({},{},{},{})".format(*c.quad) for c in d.crossings]
    body = " ".join(parts)
    suffix = []
    if d.free_loops:
        suffix.append(f"loops={d.free_loops}")
    rev = [str(i) for i, f in enumerate(d.component_orientations) if f]
    if rev:
        suffix.append("reversed=" + ",".join(rev))
    if suffix:
        body = (body + " | " if body else "| ") + " ".join(suffix)
    return body


# -- standard families ---------------------------------------------------------


def empty_link() -> OrientedLinkDiagram:
    return OrientedLinkDiagram([], 0)


def unknot() -> OrientedLinkDiagram:
    return OrientedLinkDiagram([], 1)


@dataclass(frozen=True)
class TorusLinkSpec:
    """T(n,n) torus link with the last ``q_reversed`` strands reversed."""

    n: int
    q_reversed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("strand count must be >= 1")
        if not 0 <= 2 * self.q_reversed <= self.n:
            raise ValueError("need 0 <= q_reversed <= n/2")


def braid_closure(n_strands: int, word: Iterable[int],
                  reversed_strands: Iterable[int] = ()) -> OrientedLinkDiagram:
    """Closure of a braid word (letters ±i for the i-th elementary braid).

    ``reversed_strands`` lists strand start-positions (1-based) whose closed-up
    components are reversed.  Positive letters give positive crossings and
    negative letters negative ones when both strands run up the braid, as
    every strand does unless ``reversed_strands`` reverses it.
    """
    word = list(word)
    if n_strands < 1:
        raise ValueError("need at least one strand")
    # arcs labeled as we go; seg[pos] = current arc label at each position
    seg = list(range(1, n_strands + 1))
    next_arc = n_strands + 1
    start = list(seg)
    quads: list[tuple[int, int, int, int]] = []
    for letter in word:
        i = abs(letter) - 1
        if not 0 <= i < n_strands - 1:
            raise ValueError(f"braid letter {letter} out of range")
        bl, br = seg[i], seg[i + 1]
        tl, tr = next_arc, next_arc + 1
        next_arc += 2
        # slots run the same way round from the incoming under-strand: it
        # travels from lower-left to upper-right for a positive letter and
        # from lower-right to upper-left for a negative one
        if letter > 0:
            quads.append((bl, tl, tr, br))
        else:
            quads.append((br, bl, tl, tr))
        seg[i], seg[i + 1] = tl, tr
    # closure: the top arc at each position wraps around to the bottom arc at
    # the same position
    ident = {seg[pos]: start[pos] for pos in range(n_strands)}
    relabeled = [tuple(ident.get(a, a) for a in q) for q in quads]
    # positions never touched by the word close up into free loops
    untouched = [pos for pos in range(n_strands) if seg[pos] == start[pos]]
    d = OrientedLinkDiagram(_crossings(relabeled), len(untouched))
    if d.component_count != len(set(_closure_components(n_strands, word))):
        raise AssertionError(
            f"braid closure has the wrong component count, for braid word "
            f"{word} on {n_strands} strands")
    # a component that never passes under takes its base orientation from
    # its first over-entry, which may run down the braid: flag it, so that
    # every strand runs up (slot 3 is the upward over-entry of a positive
    # letter, slot 1 of a negative one)
    upward = {q: 3 if letter > 0 else 1 for q, letter in zip(relabeled, word)}
    flags = [False] * d.component_count
    for c in d.crossings:
        if c.over_in != upward[c.quad]:
            flags[d.arc_component[c.quad[1]]] = True
    n_arc_comps = d.component_count - len(untouched)
    for comp in {n_arc_comps + untouched.index(pos - 1)
                 if pos - 1 in untouched else d.arc_component[start[pos - 1]]
                 for pos in reversed_strands}:
        flags[comp] = not flags[comp]
    return d.with_orientations(flags)


def _closure_components(n_strands: int, word: list[int]) -> list[int]:
    perm = list(range(n_strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * n_strands
    comp = [0] * n_strands
    c = 0
    for s in range(n_strands):
        if seen[s]:
            continue
        t = s
        while not seen[t]:
            seen[t] = True
            comp[t] = c
            t = perm[t]
        c += 1
    return comp


def torus_link(spec: TorusLinkSpec) -> OrientedLinkDiagram:
    """T(n,n) as the closure of the full twist braid, last q strands reversed."""
    n = spec.n
    word = [i for _ in range(n) for i in range(1, n)]
    reversed_strands = range(n - spec.q_reversed + 1, n + 1)
    return braid_closure(n, word, reversed_strands)


def trefoil() -> OrientedLinkDiagram:
    """Right-handed (positive) trefoil."""
    return braid_closure(2, [1, 1, 1])


def hopf_link() -> OrientedLinkDiagram:
    """Positive Hopf link."""
    return torus_link(TorusLinkSpec(2, 0))


# -- oriented resolution and planar structure ---------------------------------


def resolution_circles(d: OrientedLinkDiagram, vertex: Sequence[int]):
    """Circles of an arbitrary cube vertex.

    Returns (circles as sorted arc tuples incl. () per free loop,
    arc -> circle index, crossing -> (circle at lower pair, circle at upper pair)).
    """
    parent: dict[int, int] = {}
    for ci, c in enumerate(d.crossings):
        q = c.quad
        if vertex[ci] == 0:
            _union(parent, q[0], q[1])
            _union(parent, q[2], q[3])
        else:
            _union(parent, q[1], q[2])
            _union(parent, q[3], q[0])
    groups: dict[int, list[int]] = {}
    for a in d.arc_component:
        groups.setdefault(_find(parent, a), []).append(a)
    circles = sorted([tuple(sorted(g)) for g in groups.values()])
    circles += [()] * d.free_loops
    arc_circle = {a: i for i, circ in enumerate(circles) for a in circ}
    cr_circ = []
    for ci, c in enumerate(d.crossings):
        q = c.quad
        if vertex[ci] == 0:
            cr_circ.append((arc_circle[q[0]], arc_circle[q[2]]))
        else:
            cr_circ.append((arc_circle[q[1]], arc_circle[q[3]]))
    return circles, arc_circle, cr_circ


def _checkerboard(d: OrientedLinkDiagram) -> list[int]:
    """Check that every connected piece is planar; return crossing colours.

    Corner (ci, k) sits between slots k and k+1.  An arc from slot s of ci
    to slot t of cj puts corners (ci, s-1), (cj, t) in one face and corners
    (ci, s), (cj, t-1) in one face, so a union-find over corners gives the
    faces.  A connected piece is planar iff it has crossings + 2 faces.
    In the checkerboard colouring of the faces, corner (ci, k) has colour
    colour[ci] + k (mod 2), so that arc forces colour[ci] + colour[cj] to
    s + t + 1; the first crossing of each piece has colour 0, which puts
    its corner 0 in the colour-0 (outer) face.
    """
    faces: dict = {}
    for (ci, s), (cj, t) in d._arc_ends.values():
        _union(faces, (ci, (s - 1) % 4), (cj, t))
        _union(faces, (ci, s), (cj, (t - 1) % 4))
    colour: list[int | None] = [None] * d.n_crossings
    pieces = 0
    for first in range(d.n_crossings):
        if colour[first] is not None:
            continue
        pieces += 1
        colour[first] = 0
        stack = [first]
        while stack:
            ci = stack.pop()
            for s, a in enumerate(d.crossings[ci].quad):
                for cj, t in d._arc_ends[a]:
                    if colour[cj] is None:
                        colour[cj] = (colour[ci] + s + t + 1) % 2
                        stack.append(cj)
    # a connected piece has at most crossings + 2 faces (crossings + 2 - 2g
    # on a genus-g surface), so the total reaches crossings + 2 per piece
    # only when every piece is planar
    n_faces = len({_find(faces, (ci, k))
                   for ci in range(d.n_crossings) for k in range(4)})
    if n_faces != d.n_crossings + 2 * pieces:
        raise NonPlanarError(f"face count {n_faces} != "
                             f"{d.n_crossings + 2 * pieces}: non-planar PD data")
    return colour


def oriented_resolution(d: OrientedLinkDiagram) -> list[int]:
    """Label parity of each circle of the orientation-respecting smoothing
    (in :func:`resolution_circles` order): its nesting depth plus its 0/1
    rotation sense relative to the outer face, mod 2.

    A smoothing joins opposite corners, which share a checkerboard colour,
    so the regions of the smoothing inherit the colouring and crossing a
    circle flips it.  A circle passing crossing ci through slots (i, i+1)
    thus has parity colour[ci] + i, plus 1 when it leaves through slot i;
    free loops have parity 0.
    """
    if d.is_empty():
        raise PDError("empty diagram has no oriented resolution")
    colour = d._colour
    vertex = d.oriented_vertex()
    circles, arc_circle, _ = resolution_circles(d, vertex)
    parity = [0] * len(circles)
    for ci, c in enumerate(d.crossings):
        entries = d.effective_entries(ci)
        for i in (vertex[ci], vertex[ci] + 2):
            parity[arc_circle[c.quad[i]]] = (
                colour[ci] + i + (i not in entries)) % 2
    return parity

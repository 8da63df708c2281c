"""Workloads of the ``khs compute`` benchmark and their seeded inputs.

Each workload is one ``khs compute`` invocation on a fixed oriented link.
The seed picks a presentation of that link: it relabels the arcs and
reorders the crossings of the PD code, and rewrites the ``reversed=``
suffix so that the same link components stay reversed.
The invariants the benchmark checks do not depend on the presentation.

The base PD codes are spelled out here rather than taken from ``khs`` so
that the inputs stay fixed while the program changes.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

# 9_42 as three strands through a +1 full twist box, closed off with three
# further crossings (the same diagram as ``khs compute --link 9_42``).
PD_9_42 = ("X(18,14,1,13) X(1,10,2,11) X(14,9,15,10) X(15,3,16,2) "
           "X(8,3,9,4) X(7,16,8,17) X(4,18,5,17) X(5,13,6,12) X(11,7,12,6)")

# T(4,4)_{2,2}: closure of the full twist (s1 s2 s3)^4 with the last two
# strands reversed (the same diagram as ``khs compute --link torus:4:2``).
PD_T44_22 = ("X(1,5,6,2) X(5,11,12,7) X(6,7,8,3) X(8,9,10,4) X(11,17,18,13) "
             "X(12,13,14,9) X(14,15,16,10) X(17,1,24,19) X(18,19,20,15) "
             "X(20,21,22,16) X(24,2,26,21) X(26,3,4,22) | reversed=2,3")


@dataclass(frozen=True)
class Workload:
    name: str
    pd: str
    char: int
    theta: str
    # (s, r_plus, s_plus) that every op must return
    expected: tuple[int, int, int]

    def argv(self, pd_text: str) -> list[str]:
        return ["compute", "--pd", pd_text, "--char", str(self.char),
                "--theta", self.theta, "--format", "json"]


# T(n,n)_{p,q} has s = r_plus = s_plus = (p - q)^2 - 2p + 1 (Prop. 1);
# for p = q = 2 that is -3.  9_42 has all three equal to 0 over both fields.
WORKLOADS = {w.name: w for w in (
    Workload("knot-9_42", PD_9_42, 2, "sq1", (0, 0, 0)),
    Workload("torus-4-4", PD_T44_22, 2, "sq1", (-3, -3, -3)),
    Workload("lee-char0", PD_9_42, 0, "zero", (0, 0, 0)),
)}

_QUAD = re.compile(r"X\((\d+),(\d+),(\d+),(\d+)\)")


def parse(text: str) -> tuple[list[tuple[int, ...]], list[int]]:
    """Quadruples and reversed component indices of a PD text."""
    body, _, suffix = text.partition("|")
    quads = [tuple(int(x) for x in m.groups()) for m in _QUAD.finditer(body)]
    reversed_comps = []
    for part in suffix.split():
        key, _, val = part.partition("=")
        if key != "reversed":
            raise ValueError(f"unsupported PD suffix {part!r}")
        reversed_comps = [int(x) for x in val.split(",")]
    return quads, reversed_comps


def components(quads: list[tuple[int, ...]]) -> list[frozenset[int]]:
    """Arc sets of the link components, ordered by their smallest arc.

    This is the component numbering that the ``reversed=`` suffix of a PD
    text refers to: slots 0/2 and 1/3 of a crossing lie on one strand.
    """
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for q in quads:
        parent[find(q[0])] = find(q[2])
        parent[find(q[1])] = find(q[3])
    groups: dict[int, set[int]] = {}
    for a in {a for q in quads for a in q}:
        groups.setdefault(find(a), set()).add(a)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def presentation(pd: str, seed: int) -> tuple[str, dict[int, int]]:
    """A seeded relabelling of ``pd``: (PD text, arc map applied).

    The new labels are drawn at random from 1..3n but keep the order of
    the old ones, so the program sorts crossings, circles and generators
    exactly as for ``pd`` and the op's work does not depend on the seed.
    Arbitrary relabellings change that work a lot: on a 2-core x86 VM
    with Python 3.11, one op of T(4,4)_{2,2} took 68 to 111 s and one op
    of 9_42 1.0 to 1.7 s across seeds.
    """
    quads, reversed_comps = parse(pd)
    comps = components(quads)
    arcs = sorted({a for q in quads for a in q})
    rng = random.Random(seed)
    relabel = dict(zip(arcs, sorted(rng.sample(range(1, 3 * len(arcs) + 1),
                                               len(arcs)))))
    new_quads = [tuple(relabel[a] for a in q) for q in quads]
    rng.shuffle(new_quads)
    reversed_arcs = {relabel[a] for i in reversed_comps for a in comps[i]}
    new_reversed = [i for i, comp in enumerate(components(new_quads))
                    if comp <= reversed_arcs]
    text = " ".join("X({},{},{},{})".format(*q) for q in new_quads)
    if new_reversed:
        text += " | reversed=" + ",".join(map(str, new_reversed))
    return text, relabel

"""Registry of named example diagrams.

Names accepted by :func:`builtin_diagram`:

* ``empty`` -- the empty link
* ``unknot`` -- one crossingless circle
* ``trefoil`` -- right-handed trefoil (all crossings positive, s = 2)
* ``trefoil_mirror`` -- left-handed trefoil
* ``hopf`` / ``hopf_neg`` -- positive / negative Hopf link
* ``torus:N:Q`` -- closure of the full twist on ``N`` strands with the
  last ``Q`` strands reversed (notation ``T(N,N)_{N-Q,Q}``)
* ``9_42`` -- the knot 9_42, drawn as three strands through a +1 full
  twist box, closed off with three further crossings
"""

from __future__ import annotations

from .links import (
    OrientedLinkDiagram,
    TorusLinkSpec,
    empty_link,
    hopf_link,
    parse_pd,
    torus_link,
    trefoil,
    unknot,
)

# 9_42 presented as the closure of a +1 full twist on three strands.
# Crossings 1-6 are the twist box ((s1 s2)^3, all positive as drawn);
# crossings 7-9 close the strands off outside the box.  Checked against
# det = 7 and the Jones polynomial q^7 + q^-7 (unreduced).
PD_9_42 = (
    "X(18,14,1,13) X(1,10,2,11) X(14,9,15,10) X(15,3,16,2) "
    "X(8,3,9,4) X(7,16,8,17) X(4,18,5,17) X(5,13,6,12) X(11,7,12,6)"
)


def knot_9_42() -> OrientedLinkDiagram:
    return parse_pd(PD_9_42)


def builtin_diagram(name: str) -> OrientedLinkDiagram:
    """Resolve a builtin diagram name (see module docstring)."""
    key = name.strip().lower()
    if key == "empty":
        return empty_link()
    if key == "unknot":
        return unknot()
    if key == "trefoil":
        return trefoil()
    if key == "trefoil_mirror":
        return trefoil().mirror()
    if key == "hopf":
        return hopf_link()
    if key == "hopf_neg":
        return hopf_link().mirror()
    if key == "9_42":
        return knot_9_42()
    if key.startswith("torus:"):
        parts = key.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected torus:N:Q, got {name!r}")
        n, q = int(parts[1]), int(parts[2])
        return torus_link(TorusLinkSpec(n, q))
    raise ValueError(f"unknown builtin diagram {name!r}")


BUILTIN_NAMES = [
    "empty",
    "unknot",
    "trefoil",
    "trefoil_mirror",
    "hopf",
    "hopf_neg",
    "torus:N:Q",
    "9_42",
]

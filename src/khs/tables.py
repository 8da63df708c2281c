"""Registry of named example diagrams: :data:`BUILTINS`."""

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


# Name -> constructor; ``torus:N:Q`` takes N and Q from the name.
BUILTINS = {
    "empty": empty_link,
    "unknot": unknot,  # one crossingless circle
    "trefoil": trefoil,  # right-handed, all crossings positive, s = 2
    "trefoil_mirror": lambda: trefoil().mirror(),
    "hopf": hopf_link,
    "hopf_neg": lambda: hopf_link().mirror(),
    # closure of the full twist on N strands with the last Q strands
    # reversed (notation T(N,N)_{N-Q,Q})
    "torus:N:Q": lambda n, q: torus_link(TorusLinkSpec(n, q)),
    "9_42": knot_9_42,
}
BUILTIN_NAMES = list(BUILTINS)


def builtin_diagram(name: str) -> OrientedLinkDiagram:
    """Resolve a builtin diagram name (see :data:`BUILTINS`)."""
    key = name.strip().lower()
    if key.startswith("torus:"):
        parts = key.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected torus:N:Q, got {name!r}")
        return BUILTINS["torus:N:Q"](int(parts[1]), int(parts[2]))
    if key not in BUILTINS:
        raise ValueError(f"unknown builtin diagram {name!r}")
    return BUILTINS[key]()

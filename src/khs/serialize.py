"""JSON / CSV / text serialization for homology tables and refined-s results.

JSON is the stable machine-readable contract; CSV covers bigraded tables
with the fixed header ``h,q,rank,torsion``; text output is human-oriented
and makes no format promises.  Rational coefficients are encoded as
"p/q" strings so round-trips stay exact.  ``compute_to_<format>`` renders
the output of ``khs compute``.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction

from .cube import HomologyTable
from .refined_s import FullnessCertificate, RefinedSResult


def _coeff(v) -> int | str:
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return int(v)


def _chain(chain: dict | None) -> dict | None:
    if chain is None:
        return None
    return {gid: _coeff(v) for gid, v in sorted(chain.items())}


def homology_table_to_json(table: HomologyTable) -> dict:
    return {
        "ring": table.ring,
        "entries": [
            {"h": h, "q": q, "rank": rank, "torsion": list(torsion)}
            for (h, q), (rank, torsion) in sorted(table.entries.items())
        ],
    }


def homology_table_to_csv(table: HomologyTable) -> str:
    buf = io.StringIO()
    buf.write("h,q,rank,torsion\n")
    for (h, q), (rank, torsion) in sorted(table.entries.items()):
        tor = ";".join(str(t) for t in torsion)
        buf.write(f"{h},{q},{rank},{tor}\n")
    return buf.getvalue()


def certificate_to_json(cert: FullnessCertificate) -> dict:
    return {
        "q": cert.q,
        "kind": cert.kind,
        "char": cert.char,
        "alpha": _coeff(cert.alpha),
        "beta": _coeff(cert.beta),
        "x": _chain(cert.x),
        "y": _chain(cert.y),
        "u": _chain(cert.u),
        "z": _chain(cert.z),
    }


def refined_result_to_json(res: RefinedSResult) -> dict:
    return {
        "link": res.link,
        "component_count": res.component_count,
        "char": res.char,
        "theta": res.theta.kind,
        "s": res.s_classical,
        "r_plus": res.r_plus,
        "s_plus": res.s_plus,
        "certificates": {
            name: certificate_to_json(cert) if cert else None
            for name, cert in sorted(res.certificates.items())
        },
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def compute_to_json(table: HomologyTable, res: RefinedSResult) -> str:
    return dumps({"khovanov": homology_table_to_json(table),
                  "refined": refined_result_to_json(res)})


def compute_to_csv(table: HomologyTable, res: RefinedSResult) -> str:
    return (homology_table_to_csv(table)
            + f"s,{res.s_classical}\nr_plus,{res.r_plus}\n"
              f"s_plus,{res.s_plus}")


def compute_to_text(table: HomologyTable, res: RefinedSResult) -> str:
    lines = [f"link: {res.link}", "Khovanov homology (Z):"]
    for (h, q), (rank, torsion) in sorted(table.entries.items()):
        tor = " + ".join(f"Z/{t}" for t in torsion)
        free = f"Z^{rank}" if rank else ""
        body = " + ".join(x for x in (free, tor) if x) or "0"
        lines.append(f"  h={h:>3} q={q:>3}  {body}")
    lines.append(f"char {res.char}, theta {res.theta.kind}: "
                 f"s = {res.s_classical}, r_plus = {res.r_plus}, "
                 f"s_plus = {res.s_plus}")
    return "\n".join(lines)

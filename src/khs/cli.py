"""Command-line interface.

Subcommands:

* ``compute`` -- Khovanov table + refined invariants for one link.
* ``verify``  -- named verification suites (prop1, prop2, dichotomy,
  adjunction-942); exit 4 on the first failing case.
* ``table``   -- batch results over a link family, with an optional
  content-addressed JSON cache (env ``KHS_CACHE_DIR``) whose keys include
  a digest of the ``khs`` sources, so rows of older code are recomputed.

Exit codes: 0 success, 2 input parse failure, 3 internal assertion /
certificate validation failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from . import serialize
from .cube import khovanov_homology
from .links import (
    OrientedLinkDiagram,
    PDError,
    TorusLinkSpec,
    parse_pd,
    serialize_pd,
    torus_link,
)
from .refined_s import (
    SQ1,
    ZERO,
    ThetaOperation,
    adjunction_bound,
    disjoint_union_check,
    refined_invariants,
    validate_certificate,
)
from .tables import BUILTIN_NAMES, builtin_diagram

EXIT_PARSE = 2
EXIT_ASSERT = 3
EXIT_VERIFY = 4


def _load_diagram(args) -> OrientedLinkDiagram:
    sources = [s for s in (args.link, args.pd, args.file) if s]
    if len(sources) != 1:
        raise PDError("exactly one of --link/--pd/--file is required")
    if args.link:
        try:
            return builtin_diagram(args.link)
        except ValueError as e:
            raise PDError(str(e)) from e
    if args.pd:
        return parse_pd(args.pd)
    with open(args.file) as fh:
        return parse_pd(fh.read())


def _theta(args) -> ThetaOperation:
    theta = SQ1 if args.theta == "sq1" else ZERO
    if theta.kind == "sq1" and args.char != 2:
        raise PDError("--theta sq1 requires --char 2")
    return theta


def cmd_compute(args) -> int:
    d = _load_diagram(args)
    theta = _theta(args)
    table = khovanov_homology(d, ring="Z", optimized=True)
    res = refined_invariants(d, theta, char=args.char, optimized=True)
    for name, cert in res.certificates.items():
        if cert is not None and not validate_certificate(d, cert):
            raise AssertionError(
                f"certificate re-validation failed: {name} at q={cert.q} "
                f"for link {res.link}")
    if args.oracle:
        naive_table = khovanov_homology(d, ring="Z", optimized=False)
        if naive_table.entries != table.entries:
            raise AssertionError("oracle mismatch: homology table")
        naive = refined_invariants(d, theta, char=args.char, optimized=False)
        if (naive.s_classical, naive.r_plus, naive.s_plus) != (
                res.s_classical, res.r_plus, res.s_plus):
            raise AssertionError("oracle mismatch: refined invariants")
    if args.format == "json":
        print(serialize.dumps({
            "khovanov": serialize.homology_table_to_json(table),
            "refined": serialize.refined_result_to_json(res),
        }))
    elif args.format == "csv":
        sys.stdout.write(serialize.homology_table_to_csv(table))
        print(f"s,{res.s_classical}\nr_plus,{res.r_plus}\n"
              f"s_plus,{res.s_plus}")
    else:
        print(f"link: {res.link}")
        print("Khovanov homology (Z):")
        for (h, q), (rank, torsion) in sorted(table.entries.items()):
            tor = " + ".join(f"Z/{t}" for t in torsion)
            free = f"Z^{rank}" if rank else ""
            body = " + ".join(x for x in (free, tor) if x) or "0"
            print(f"  h={h:>3} q={q:>3}  {body}")
        print(f"char {res.char}, theta {res.theta.kind}: "
              f"s = {res.s_classical}, r_plus = {res.r_plus}, "
              f"s_plus = {res.s_plus}")
    return 0


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _torus_cases(max_n: int | None):
    for n in range(2, (3 if max_n is None else max_n) + 1):
        for qr in range(0, n // 2 + 1):
            yield n, qr


def _suite_prop1(args) -> list[dict]:
    from .refined_s import s_classical

    cases = []
    for n, qr in _torus_cases(args.max_n):
        p = n - qr
        expect = (p - qr) ** 2 - 2 * p + 1
        d = torus_link(TorusLinkSpec(n, qr))
        s2 = s_classical(d, char=2)
        s0 = s_classical(d, char=0)
        res = refined_invariants(d, SQ1)
        ok = s2 == expect and s0 == expect and res.s_plus == expect
        detail = {"s_F2": s2, "s_Q": s0, "s_plus": res.s_plus,
                  "expected": expect}
        if p == qr:
            detail["r_plus"] = res.r_plus
            ok = ok and res.r_plus == expect
        cases.append({"case": f"T({n},{n})_{{{p},{qr}}}", "pass": ok,
                      **detail})
    return cases


def _suite_prop2(args) -> list[dict]:
    from .links import empty_link, hopf_link, trefoil, unknot

    lefts = [("empty", empty_link()), ("unknot", unknot()),
             ("hopf", hopf_link()), ("trefoil", trefoil())]
    rights = [("T(2,2)_{1,1}", torus_link(TorusLinkSpec(2, 1))),
              ("T(2,2)_{2,0}", torus_link(TorusLinkSpec(2, 0)))]
    cases = []
    for lname, left in lefts:
        for rname, right in rights:
            rep = disjoint_union_check(left, right)
            ok = rep.hypothesis_ok and rep.equality is True
            cases.append({
                "case": f"{lname} ⊔ {rname}", "pass": ok,
                "hypothesis_ok": rep.hypothesis_ok,
                "s_plus_union": rep.s_plus_union,
                "s_plus_left": rep.s_plus_left,
                "s_plus_right": rep.s_plus_right,
            })
    return cases


_DICHOTOMY_CORPUS = ["empty", "unknot", "trefoil", "trefoil_mirror",
                     "hopf", "hopf_neg", "torus:3:0", "torus:3:1", "9_42"]


def _suite_dichotomy(args) -> list[dict]:
    cases = []
    for name in _DICHOTOMY_CORPUS:
        d = builtin_diagram(name)
        for theta, char in ((ZERO, 0), (ZERO, 2), (SQ1, 2)):
            res = refined_invariants(d, theta, char=char)
            s = res.s_classical
            ok = res.r_plus in (s, s + 2) and res.s_plus in (s, s + 2)
            parity = (d.component_count + 1) % 2
            ok = ok and all(v % 2 == parity for v in
                            (s, res.r_plus, res.s_plus))
            if d.component_count == 0:
                ok = ok and s == res.r_plus == res.s_plus == 1
            if theta.kind == "zero":
                ok = ok and res.r_plus == s and res.s_plus == s
            cases.append({"case": f"{name} char={char} theta={theta.kind}",
                          "pass": ok, "s": s, "r_plus": res.r_plus,
                          "s_plus": res.s_plus})
    return cases


def _suite_adjunction_942(args) -> list[dict]:
    d = builtin_diagram("9_42")
    bound = adjunction_bound(1, 1, -1, 1)
    res = refined_invariants(d, SQ1, optimized=True)
    naive = refined_invariants(d, SQ1, optimized=False)
    certs_ok = all(validate_certificate(d, c)
                   for c in res.certificates.values() if c)
    ok = (bound == 0 and res.s_plus == 0 and res.s_plus <= bound
          and naive.s_plus == res.s_plus and certs_ok)
    return [{"case": "9_42 adjunction", "pass": ok, "bound": bound,
             "s_plus": res.s_plus, "s_plus_naive": naive.s_plus,
             "certificates_ok": certs_ok}]


_SUITES = {
    "prop1": _suite_prop1,
    "prop2": _suite_prop2,
    "dichotomy": _suite_dichotomy,
    "adjunction-942": _suite_adjunction_942,
}


def cmd_verify(args) -> int:
    cases = _SUITES[args.suite](args)
    report = {"suite": args.suite,
              "pass": all(c["pass"] for c in cases),
              "cases": cases}
    print(serialize.dumps(report))
    if not report["pass"]:
        first = next(c["case"] for c in cases if not c["pass"])
        print(f"FAIL: first failing case: {first}", file=sys.stderr)
        return EXIT_VERIFY
    return 0


# ---------------------------------------------------------------------------
# Batch tables
# ---------------------------------------------------------------------------


def _cache_dir() -> str | None:
    return os.environ.get("KHS_CACHE_DIR")


@functools.cache
def _source_digest() -> str:
    """Digest of the package's sources: rows cached by other code miss."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cache_key(pd_text: str, char: int, theta: str) -> str:
    blob = f"{pd_text}|char={char}|theta={theta}|src={_source_digest()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def _table_row(job: tuple[str, str, int, str]) -> dict:
    name, pd_text, char, theta_kind = job
    cache = _cache_dir()
    key = _cache_key(pd_text, char, theta_kind)
    if cache:
        path = os.path.join(cache, key + ".json")
        try:
            with open(path) as fh:
                row = json.load(fh)
                row["name"] = name
                return row
        except (OSError, ValueError):
            pass
    d = parse_pd(pd_text)
    theta = SQ1 if theta_kind == "sq1" else ZERO
    res = refined_invariants(d, theta, char=char)
    row = {"name": name, "link": res.link, "components": d.component_count,
           "char": char, "theta": theta_kind, "s": res.s_classical,
           "r_plus": res.r_plus, "s_plus": res.s_plus}
    if cache:
        try:
            os.makedirs(cache, exist_ok=True)
            # write a temp file and rename it, so a reader never sees a
            # partial row
            fd, tmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(row, fh)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError as e:
            print(f"warning: cache not writable ({e}); continuing uncached",
                  file=sys.stderr)
    return row


def cmd_table(args) -> int:
    theta = _theta(args)
    jobs: list[tuple[str, str, int, str]] = []
    if args.family == "torus":
        for n, qr in _torus_cases(args.max_n):
            d = torus_link(TorusLinkSpec(n, qr))
            jobs.append((f"torus:{n}:{qr}", serialize_pd(d), args.char,
                         theta.kind))
    else:
        with open(args.pd_file) as fh:
            for i, line in enumerate(fh):
                line = line.strip()
                if line and not line.startswith("#"):
                    pd_text = serialize_pd(parse_pd(line))
                    jobs.append((f"line{i + 1}", pd_text, args.char,
                                 theta.kind))
    if args.threads > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(_table_row, jobs))
    else:
        rows = [_table_row(j) for j in jobs]
    if args.format == "json":
        print(serialize.dumps({"rows": rows}))
    else:
        print("name,components,char,theta,s,r_plus,s_plus")
        for r in rows:
            print(f"{r['name']},{r['components']},{r['char']},{r['theta']},"
                  f"{r['s']},{r['r_plus']},{r['s_plus']}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="khs",
        description="Khovanov homology, Sq¹, and refined s-invariants")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def field_options(p):
        p.add_argument("--char", type=int, choices=(0, 2), default=0,
                       help="field characteristic (0 = rationals)")
        p.add_argument("--theta", choices=("zero", "sq1"), default="zero")

    pc = sub.add_parser("compute", help="invariants of one link")
    pc.add_argument("--link", help="builtin name: " + ", ".join(BUILTIN_NAMES))
    pc.add_argument("--pd", help="PD code, e.g. 'X(1,4,2,3) ...'")
    pc.add_argument("--file", help="file containing a PD code")
    pc.add_argument("--oracle", action="store_true",
                    help="cross-check against the naive full-cube path")
    pc.add_argument("--format", choices=("json", "csv", "text"),
                    default="text")
    field_options(pc)
    pc.set_defaults(fn=cmd_compute)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite", choices=sorted(_SUITES))
    pv.add_argument("--max-n", type=int, help="prop1 only (default 3)")
    pv.set_defaults(fn=cmd_verify)

    pt = sub.add_parser("table", help="batch table over a family")
    source = pt.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=("torus",))
    source.add_argument("--pd-file", help="file with one PD code per line")
    pt.add_argument("--max-n", type=int, help="--family only (default 3)")
    pt.add_argument("--format", choices=("json", "csv"), default="csv")
    pt.add_argument("--threads", type=int, default=1)
    field_options(pt)
    pt.set_defaults(fn=cmd_table)
    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_n", None) is not None:
        if args.cmd == "verify" and args.suite != "prop1":
            parser.error(f"--max-n is read by prop1 only, not {args.suite}")
        if args.cmd == "table" and args.pd_file:
            parser.error("--max-n is read with --family only")
    try:
        return args.fn(args)
    except (PDError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except AssertionError as e:
        print(f"internal assertion failed: {e}", file=sys.stderr)
        return EXIT_ASSERT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands:

* ``compute`` -- Khovanov table + refined invariants for one link.
* ``verify``  -- named verification suites (prop1, prop2, dichotomy,
  adjunction-942); exit 4 on the first failing case.
* ``table``   -- batch results over a link family or a file of PD codes.

Exit codes: 0 success, 2 input parse failure, 3 internal assertion /
certificate validation failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .cube import khovanov_homology
from .links import (
    OrientedLinkDiagram,
    PDError,
    TorusLinkSpec,
    parse_pd,
    torus_link,
)
from .refined_s import (
    SQ1,
    ZERO,
    ThetaOperation,
    adjunction_bound,
    disjoint_union_check,
    refined_invariants,
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
    table = khovanov_homology(d, ring="Z")
    res = refined_invariants(d, theta, char=args.char)
    if args.oracle:
        naive_table = khovanov_homology(d, ring="Z", optimized=False)
        if naive_table.entries != table.entries:
            h, q = min(k for k in table.entries.keys() | naive_table.entries
                       if table.entries.get(k) != naive_table.entries.get(k))
            raise AssertionError(
                f"oracle mismatch: homology table at h={h}, q={q}: "
                f"{table.entries.get((h, q))} against naive "
                f"{naive_table.entries.get((h, q))}, for link {res.link}")
        naive = refined_invariants(d, theta, char=args.char, optimized=False)
        got = (res.s_classical, res.r_plus, res.s_plus)
        want = (naive.s_classical, naive.r_plus, naive.s_plus)
        if got != want:
            raise AssertionError(
                f"oracle mismatch: refined invariants (s, r_plus, s_plus) "
                f"{got} against naive {want}, for link {res.link}")
    render = {"json": serialize.compute_to_json,
              "csv": serialize.compute_to_csv,
              "text": serialize.compute_to_text}[args.format]
    print(render(table, res))
    return 0


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _torus_cases(max_n: int | None):
    for n in range(2, (3 if max_n is None else max_n) + 1):
        for qr in range(0, n // 2 + 1):
            yield n, qr


def _suite_prop1(args) -> list[dict]:
    """s = s₊ (and r₊ when p = q) equal (p−q)² − 2p + 1 on T(n,n)_{p,q}.

    T(n,n)_{p,q} is the unlink Uₙ with one positive full twist on all n
    strands, so with s(Uₙ) = 1 − n this is the adjunction bound
    ``adjunction_bound(1 - n, 0, -(p-q)**2, p - q)``: the suite checks
    that the bound is attained.
    """
    from .refined_s import s_classical

    cases = []
    for n, qr in _torus_cases(args.max_n):
        p = n - qr
        expect = (p - qr) ** 2 - 2 * p + 1
        d = torus_link(TorusLinkSpec(n, qr))
        res = refined_invariants(d, SQ1)
        s2 = res.s_classical
        s0 = s_classical(d, char=0)
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
    ok = (bound == 0 and res.s_plus == 0 and res.s_plus <= bound
          and naive.s_plus == res.s_plus)
    # refined_invariants raised if a certificate had failed validation
    return [{"case": "9_42 adjunction", "pass": ok, "bound": bound,
             "s_plus": res.s_plus, "s_plus_naive": naive.s_plus,
             "certificates_ok": True}]


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


def _table_row(job: tuple[str, OrientedLinkDiagram, int, ThetaOperation]
               ) -> dict:
    name, d, char, theta = job
    res = refined_invariants(d, theta, char=char)
    return {"name": name, "link": res.link, "components": d.component_count,
            "char": char, "theta": theta.kind, "s": res.s_classical,
            "r_plus": res.r_plus, "s_plus": res.s_plus}


def cmd_table(args) -> int:
    theta = _theta(args)
    if args.family == "torus":
        links = [(f"torus:{n}:{qr}", torus_link(TorusLinkSpec(n, qr)))
                 for n, qr in _torus_cases(args.max_n)]
    else:
        with open(args.pd_file) as fh:
            links = [(f"line{i + 1}", parse_pd(line))
                     for i, line in enumerate(fh)
                     if line.strip() and not line.lstrip().startswith("#")]
    jobs = [(name, d, args.char, theta) for name, d in links]
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


def _at_least(low: int):
    """argparse ``type=`` for an integer count of at least ``low``."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return count


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
    pv.add_argument("--max-n", type=_at_least(2),
                    help="prop1 only (default 3)")
    pv.set_defaults(fn=cmd_verify)

    pt = sub.add_parser("table", help="batch table over a family")
    source = pt.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=("torus",))
    source.add_argument("--pd-file", help="file with one PD code per line")
    pt.add_argument("--max-n", type=_at_least(2),
                    help="--family only (default 3)")
    pt.add_argument("--format", choices=("json", "csv"), default="csv")
    pt.add_argument("--threads", type=_at_least(1), default=1)
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

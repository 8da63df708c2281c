#!/usr/bin/env python3
"""Re-check the certificates of one `khs compute --format json` run from
its stdout alone: re-parse the printed link, rebuild each certificate
("p/q" coefficients become Fractions) and validate it.

Usage: khs compute --link 9_42 --format json | python3 scripts/recheck_certificates.py

Prints one line per certificate and exits 0 only if every non-null
certificate is valid on the re-parsed link.
"""

import json
import sys
from fractions import Fraction

from khs import FullnessCertificate, parse_pd, validate_certificate


def coeff(v):
    return Fraction(v) if isinstance(v, str) else v


refined = json.load(sys.stdin)["refined"]
d = parse_pd(refined["link"])
ok = True
for name, fields in sorted(refined["certificates"].items()):
    if fields is None:
        print(f"{name}: none")
        continue
    for key in ("alpha", "beta"):
        fields[key] = coeff(fields[key])
    for key in ("x", "y", "u", "z"):
        if fields[key] is not None:
            fields[key] = {g: coeff(v) for g, v in fields[key].items()}
    valid = validate_certificate(d, FullnessCertificate(**fields))
    ok = ok and valid
    print(f"{name} at q={fields['q']}: valid={valid}")
sys.exit(0 if ok else 1)

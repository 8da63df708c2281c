#!/usr/bin/env python3
"""Full report on the knot 9_42: integral Khovanov homology, Sq¹ ranks,
refined invariants with validated certificates, and the adjunction bound."""

from khs import (
    SQ1,
    adjunction_bound,
    khovanov_homology,
    knot_9_42,
    refined_invariants,
    sq1_table,
    validate_certificate,
)
from khs.serialize import compute_to_text

d = knot_9_42()
res = refined_invariants(d, SQ1)
print(compute_to_text(khovanov_homology(d, "Z"), res))
print("Sq1 ranks:", sq1_table(d))
for name, cert in sorted(res.certificates.items()):
    if cert is not None:
        print(f"certificate {name} at q={cert.q}: "
              f"valid={validate_certificate(d, cert)}")
bound = adjunction_bound(1, 1, -1, 1)
print(f"adjunction bound: s_plus = {res.s_plus} <= {bound}:",
      res.s_plus <= bound)

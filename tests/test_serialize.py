"""JSON/CSV/text serialization layer."""

import json

from khs import serialize
from khs.cube import khovanov_homology
from khs.links import trefoil
from khs.refined_s import SQ1, refined_invariants
from khs.tables import knot_9_42


def test_homology_table_formats():
    # [TRIVIAL]
    t = khovanov_homology(trefoil())
    j = serialize.homology_table_to_json(t)
    assert j["ring"] == "Z"
    assert {(e["h"], e["q"]): (e["rank"], e["torsion"])
            for e in j["entries"]} == t.entries
    csv = serialize.homology_table_to_csv(t)
    lines = csv.strip().splitlines()
    assert lines[0] == "h,q,rank,torsion"
    assert len(lines) == 1 + len(t.entries)
    text = serialize.compute_to_text(t, refined_invariants(trefoil(), SQ1))
    assert "Z/2" in text


def test_refined_result_json_roundtrips_through_json():
    # [TRIVIAL] output is plain JSON and carries the invariants.
    res = refined_invariants(trefoil(), SQ1)
    payload = serialize.refined_result_to_json(res)
    blob = serialize.dumps(payload)
    back = json.loads(blob)
    assert back["s"] == 2 and back["r_plus"] == 2 and back["s_plus"] == 2
    assert back["char"] == 2 and back["theta"] == "sq1"
    assert isinstance(back["certificates"], dict)


def test_dumps_deterministic():
    # [TRIVIAL] identical inputs give byte-identical output.
    res = refined_invariants(knot_9_42(), SQ1)
    a = serialize.dumps(serialize.refined_result_to_json(res))
    res2 = refined_invariants(knot_9_42(), SQ1)
    b = serialize.dumps(serialize.refined_result_to_json(res2))
    assert a == b


def test_rational_chain_encoding():
    # [TRIVIAL] rational certificate chains encode as "p/q" strings.
    from fractions import Fraction
    assert serialize._coeff(Fraction(3, 2)) == "3/2"
    assert serialize._coeff(Fraction(4, 2)) == 2
    assert serialize._coeff(5) == 5

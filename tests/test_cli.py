"""CLI contract: subcommands, formats, exit codes, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from khs.cli import EXIT_PARSE, EXIT_VERIFY, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_text(capsys):
    code, out, _ = run(capsys, "compute", "--link", "trefoil",
                       "--char", "2", "--theta", "sq1")
    assert code == 0
    assert "s = 2" in out and "s_plus = 2" in out
    assert "Z/2" in out


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "--link", "hopf",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["refined"]["s"] == 1
    assert data["khovanov"]["ring"] == "Z"


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--link", "unknot",
                       "--format", "csv")
    assert code == 0
    assert out.startswith("h,q,rank,torsion")
    assert "s,0" in out


def test_compute_pd_input(capsys):
    code, out, _ = run(capsys, "compute",
                       "--pd", "X(1,3,4,2) X(3,5,6,4) X(5,1,2,6)",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["refined"]["s"] == 2


def test_compute_file_input(tmp_path, capsys):
    f = tmp_path / "link.pd"
    f.write_text("X(1,3,4,2) X(3,5,6,4) X(5,1,2,6)\n")
    code, out, _ = run(capsys, "compute", "--file", str(f),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["refined"]["s"] == 2


def test_parse_failure_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--pd", "X(1,2,3)")
    assert code == EXIT_PARSE and "error" in err
    code, _, _ = run(capsys, "compute", "--link", "no_such_link")
    assert code == EXIT_PARSE
    code, _, _ = run(capsys, "compute", "--link", "unknot", "--theta", "sq1")
    assert code == EXIT_PARSE  # sq1 needs char 2
    code, _, _ = run(capsys, "compute")
    assert code == EXIT_PARSE  # no input source
    # the trefoil has one component, index 0, and no negative number of
    # free loops: bad input, not a traceback or a silent guess
    for suffix in ("reversed=5", "reversed=-1", "loops=-1"):
        code, out, err = run(capsys, "compute", "--pd",
                             f"X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) | {suffix}")
        assert code == EXIT_PARSE and out == "" and "error" in err, suffix


def test_nonplanar_pd_exits_2_before_any_build(monkeypatch, capsys):
    # [TRIVIAL] parse_pd rejects a PD code with no planar embedding, so
    # no cube is built for it.
    import khs.bockstein
    import khs.cube
    import khs.refined_s

    builds = []
    for mod in (khs.cube, khs.refined_s, khs.bockstein):
        monkeypatch.setattr(mod, "build_complex",
                            lambda *args, **kw: builds.append(args))
    code, out, err = run(capsys, "compute", "--pd", "X(1,2,3,4) X(3,4,1,2)")
    assert code == EXIT_PARSE and out == "" and "non-planar" in err
    assert builds == []


def test_oracle_flag(capsys):
    code, out, _ = run(capsys, "compute", "--link", "hopf", "--oracle",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["refined"]["s"] == 1


def test_verify_prop1_small(capsys):
    code, out, _ = run(capsys, "verify", "prop1", "--max-n", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and len(rep["cases"]) == 2


def test_verify_prop2(capsys):
    code, out, _ = run(capsys, "verify", "prop2")
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_adjunction(capsys):
    code, out, _ = run(capsys, "verify", "adjunction-942")
    assert code == 0
    rep = json.loads(out)
    assert rep["cases"][0]["bound"] == 0


@pytest.mark.slow
def test_compute_torus_4_4_output_pinned(capsys):
    # [DERIVED] T(4,4)_{2,2} over F2 with Sq¹: stdout (the Khovanov table,
    # the invariants and every certificate chain) is byte-identical to the
    # recorded reference.
    code, out, _ = run(capsys, "compute", "--link", "torus:4:2", "--char",
                       "2", "--theta", "sq1", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1b9dea205f3b140270e1dcfb6ceacf73e813cce4f819e1f1b7fe157953a86a16")


@pytest.mark.slow
def test_compute_torus_4_4_over_q_output_pinned(capsys):
    # [DERIVED] the same link over Q with theta zero: the certificate chains
    # come from rational solves against the full Lee d_{-1}, so this pins
    # their answers at the cube's scale, whatever order the rows are
    # eliminated in.
    code, out, _ = run(capsys, "compute", "--link", "torus:4:2", "--char",
                       "0", "--theta", "zero", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0df72027bdb9c81e204854983e7af4fc8b015cda87935eaf2445e74c64b97fc1")


@pytest.mark.slow
def test_verify_dichotomy(capsys):
    code, out, _ = run(capsys, "verify", "dichotomy")
    assert code == 0
    assert json.loads(out)["pass"]


def test_table_json_without_cache(capsys):
    code, out, _ = run(capsys, "table", "--family", "torus", "--max-n", "2",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["name"] for r in rows] == ["torus:2:0", "torus:2:1"]


def test_table_pd_file_names_rows_by_line(tmp_path, capsys):
    # [TRIVIAL] comment and blank lines are skipped but still counted, so
    # each row is named after its own line of the file.
    from khs.links import hopf_link, serialize_pd, trefoil
    pd_file = tmp_path / "links.pd"
    pd_file.write_text(f"# trefoil, then the Hopf link\n"
                       f"{serialize_pd(trefoil())}\n\n"
                       f"{serialize_pd(hopf_link())}\n")
    code, out, _ = run(capsys, "table", "--pd-file", str(pd_file),
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["name"], r["s"]) for r in rows] == [("line2", 2), ("line4", 1)]


def test_table_threads_print_the_same(capsys):
    # [DERIVED] rows computed by 2 worker processes print exactly what one
    # process prints, in the same order.
    args = ("table", "--family", "torus", "--max-n", "3")
    code1, out1, _ = run(capsys, *args, "--threads", "1")
    code2, out2, _ = run(capsys, *args, "--threads", "2")
    assert code1 == code2 == 0
    assert out1 == out2 and out1.count("\n") == 5


def test_exit_code_constants():
    # [TRIVIAL] documented contract.
    assert EXIT_PARSE == 2 and EXIT_VERIFY == 4


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("link,char,theta,name", [
    ("9_42", "2", "sq1", "9_42_c2_sq1.json"),
    ("9_42", "0", "zero", "9_42_c0_zero.json"),
    ("torus:3:1", "2", "sq1", "torus_3_1_c2_sq1.json"),
    ("torus:3:1", "0", "zero", "torus_3_1_c0_zero.json"),
    ("9_42", "2", "sq1", "9_42_c2_sq1.csv"),
    ("9_42", "2", "sq1", "9_42_c2_sq1.text"),
    ("torus:3:1", "2", "sq1", "torus_3_1_c2_sq1.csv"),
    ("torus:3:1", "2", "sq1", "torus_3_1_c2_sq1.text"),
])
def test_compute_json_golden(capsys, link, char, theta, name):
    # [DERIVED] stdout is a fixed interface: byte-identical to the recorded
    # output, certificate chains included.  The file suffix names the
    # --format.
    fmt = name.rsplit(".", 1)[1]
    code, out, _ = run(capsys, "compute", "--link", link, "--char", char,
                       "--theta", theta, "--format", fmt)
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ("verify", "dichotomy", "--threads", "2"),
    ("verify", "prop1", "--char", "2"),
    ("verify", "prop1", "--theta", "sq1"),
    ("verify", "prop1", "--format", "json"),
    ("verify", "prop1", "--corpus", "small"),
    ("compute", "--link", "unknot", "--threads", "2"),
    ("table", "--family", "torus", "--format", "text"),
    ("verify", "adjunction-942", "--max-n", "9"),
    ("table",),
    ("table", "--family", "torus", "--pd-file", "links.pd"),
    ("table", "--pd-file", "links.pd", "--max-n", "7"),
])
def test_options_a_subcommand_does_not_read_exit_2(capsys, argv):
    # [TRIVIAL] each subcommand takes only the options its handler reads.
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_PARSE
    assert capsys.readouterr().out == ""


def test_failed_revalidation_names_certificate_level_and_link(monkeypatch,
                                                              capsys):
    # [TRIVIAL] exit 3 says which certificate failed, at which q, for
    # which link; stdout stays empty.
    import khs.refined_s
    from khs.links import serialize_pd
    from khs.tables import builtin_diagram

    monkeypatch.setattr(khs.refined_s, "validate_certificate",
                        lambda d, cert: False)
    code, out, err = run(capsys, "compute", "--link", "trefoil",
                         "--char", "2", "--theta", "sq1", "--format", "json")
    assert code == 3 and out == ""
    assert "r_plus at q=" in err
    assert serialize_pd(builtin_diagram("trefoil")) in err


@pytest.mark.parametrize("argv,link", [
    (("compute", "--link", "trefoil"), "trefoil"),
    (("table", "--family", "torus", "--max-n", "2", "--threads", "1"),
     "torus:2:0"),
    (("verify", "prop1", "--max-n", "2"), "torus:2:0"),
    # the empty link on the left has no certificate, so T(2,2)_{1,1} fails
    (("verify", "prop2"), "torus:2:1"),
    # the empty link is first in the corpus and has none either
    (("verify", "dichotomy"), "unknot"),
    (("verify", "adjunction-942"), "9_42"),
])
def test_every_subcommand_exits_3_on_a_failed_certificate(monkeypatch, capsys,
                                                         argv, link):
    # [TRIVIAL] refined_invariants validates the certificates behind every
    # printed r_plus and s_plus, so each subcommand exits 3 with empty
    # stdout, naming the certificate, its q and the link.
    import re

    import khs.refined_s
    from khs.links import serialize_pd
    from khs.tables import builtin_diagram

    monkeypatch.setattr(khs.refined_s, "validate_certificate",
                        lambda d, cert: False)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    where = re.escape(serialize_pd(builtin_diagram(link)))
    assert re.search("certificate re-validation failed: r_plus at q=-?[0-9]+, "
                     f"h=0, for link {where}", err)


@pytest.mark.parametrize("argv", [
    ("verify", "prop1", "--max-n", "1"),
    ("table", "--family", "torus", "--max-n", "0"),
    ("table", "--family", "torus", "--max-n", "1"),
    ("table", "--family", "torus", "--threads", "0"),
    ("table", "--family", "torus", "--threads", "-3"),
])
def test_out_of_range_counts_exit_2(capsys, argv):
    # [TRIVIAL] a count that leaves nothing to do (a vacuous prop1 pass, a
    # header-only table) or names no worker is bad input, not success.
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_PARSE
    assert capsys.readouterr().out == ""


def test_lee_compute_eliminates_the_full_d_minus_1_once(monkeypatch,
                                                       capsys):
    # [TRIVIAL] the j-condition chains of both certificates come from one
    # solve against the Lee cube's full d₋₁, whose columns are the
    # generators of degree −1.
    import khs.linalg
    from khs.cube import build_complex
    from khs.tables import knot_9_42

    n_cols = build_complex(knot_9_42(), "lee", "Q").complex.dim(-1)
    sizes = []
    real = khs.linalg.q_solve

    def counted(cols, targets):
        sizes.append(len(cols))
        return real(cols, targets)

    monkeypatch.setattr(khs.linalg, "q_solve", counted)
    code, out, _ = run(capsys, "compute", "--link", "9_42", "--char", "0",
                       "--theta", "zero", "--format", "json")
    assert code == 0 and out
    assert sizes.count(n_cols) == 1


def test_import_leaves_hashlib_unloaded():
    # [TRIVIAL] no khs code hashes, so `compute` does not pay for importing
    # hashlib.
    import os
    import subprocess
    import sys

    import khs

    env = dict(os.environ,
               PYTHONPATH=str(Path(khs.__file__).resolve().parents[1]))
    probe = "import sys, khs.cli; print('hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_internal_failure_names_stage_degree_level_and_link(monkeypatch,
                                                            capsys):
    # [TRIVIAL] an exit-3 message from the refined pipeline names the
    # stage, h, q and the link; stdout stays empty.  With no witness at
    # all, r_plus = s = 1 on the trefoil over F2 needs one at q = s − 1.
    from khs.links import serialize_pd
    from khs.refined_s import _Pipeline
    from khs.tables import builtin_diagram

    monkeypatch.setattr(_Pipeline, "witness", lambda *args: None)
    monkeypatch.setattr(_Pipeline, "first_witness", lambda *args: None)
    code, out, err = run(capsys, "compute", "--link", "trefoil",
                         "--char", "2", "--theta", "sq1", "--format", "json")
    assert code == 3 and out == ""
    link = serialize_pd(builtin_diagram("trefoil"))
    assert ("s−1 must be θ-half-full by the dichotomy at q=1, h=0, "
            f"for link {link}") in err


def test_canonical_chain_failure_names_stage_theory_and_link(monkeypatch,
                                                             capsys):
    # [TRIVIAL] a wrong label expansion makes the canonical chain a
    # non-cycle; the exit-3 message names the stage, the theory, h, q and
    # the link, and stdout stays empty.
    import khs.cube
    from khs.links import serialize_pd
    from khs.tables import builtin_diagram

    monkeypatch.setitem(khs.cube._CANONICAL, "bar_natan",
                        (((0, 1),), ((0, 1),)))
    code, out, err = run(capsys, "compute", "--link", "trefoil",
                         "--char", "2", "--theta", "sq1", "--format", "json")
    assert code == 3 and out == ""
    link = serialize_pd(builtin_diagram("trefoil"))
    assert ("canonical bar_natan chain is not a cycle (labeling convention "
            f"bug) at all q, h=0, for link {link}") in err


@pytest.mark.parametrize("failing,message", [
    ("j", "sublevel cycle is not a cycle of C at q=3, h=0"),
    ("p", "level-q part is not a gr-cycle at q=3, h=0"),
])
def test_sublevel_failure_names_degree_and_level(monkeypatch, capsys,
                                                 failing, message):
    # [TRIVIAL] when a sublevel cycle has no coordinates in H(C) (its j
    # image) or its level-q part none in H(gr_q C) (its p image), the
    # exit-3 message names q and h; stdout stays empty.  s_value scans
    # down from the trefoil's top degree-0 level, q = 5, but its reduced
    # complex has no degree-0 generator at level ≥ 5: H⁰(C^{≥5}) has no
    # cycle there, so the patch returns an empty list for both images.
    # The first cycle, and so the first failure, comes at q = 3.
    import khs.complexes

    real = khs.complexes.class_coords
    calls = []

    def class_coords(cx, h, reps, cycles):
        # sublevel_homology asks for the j image, then the p image
        calls.append(cx)
        fails = "j" if len(calls) % 2 else "p"
        if fails == failing:
            return [None] * len(cycles)
        return real(cx, h, reps, cycles)

    monkeypatch.setattr(khs.complexes, "class_coords", class_coords)
    code, out, err = run(capsys, "compute", "--link", "trefoil",
                         "--char", "2", "--theta", "sq1", "--format", "json")
    assert code == 3 and out == ""
    assert message in err


def test_oracle_mismatch_names_values_and_link(monkeypatch, capsys):
    # [TRIVIAL] each --oracle mismatch names the table entry or the
    # invariants that differ, both values and the link; stdout stays empty.
    import dataclasses

    import khs.cli
    from khs.links import serialize_pd
    from khs.tables import builtin_diagram

    link = serialize_pd(builtin_diagram("trefoil"))
    argv = ("compute", "--link", "trefoil", "--char", "2", "--theta", "sq1",
            "--format", "json", "--oracle")
    real_table = khs.cli.khovanov_homology

    def khovanov_homology(d, ring, optimized=True):
        table = real_table(d, ring=ring, optimized=optimized)
        if not optimized:
            table.entries[(0, 1)] = (5, [])
        return table

    with monkeypatch.context() as m:
        m.setattr(khs.cli, "khovanov_homology", khovanov_homology)
        code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert ("oracle mismatch: homology table at h=0, q=1: (1, []) against "
            f"naive (5, []), for link {link}") in err

    real_refined = khs.cli.refined_invariants

    def refined_invariants(d, theta, char, optimized=True):
        res = real_refined(d, theta, char=char, optimized=optimized)
        return res if optimized else dataclasses.replace(res, s_plus=4)

    monkeypatch.setattr(khs.cli, "refined_invariants", refined_invariants)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert ("oracle mismatch: refined invariants (s, r_plus, s_plus) "
            f"(2, 2, 2) against naive (2, 2, 4), for link {link}") in err


def test_sq1_failure_names_degree_level_and_link(monkeypatch, capsys):
    # [TRIVIAL] both exit-3 messages of the Sq¹ data name h, q and the
    # link, and stdout stays empty.  On 9_42 (s = 0) the first level with
    # a Sq¹ source is q = s+1 = 1.  First, a source that is not a mod-2
    # cycle: one generator at its level whose boundary is odd is toggled,
    # so the Bockstein's lift-divide fails.  Second, an image without
    # coordinates in the gr-homology basis: the pipeline's first
    # class_coords call places the canonical chains, the second the Sq¹
    # images.
    import khs.refined_s
    from khs.links import serialize_pd
    from khs.tables import builtin_diagram

    link = serialize_pd(builtin_diagram("9_42"))
    real_bockstein = khs.refined_s.bockstein_chain

    def bockstein_chain(cx_z, h, cycle):
        lv, cols = cx_z.levels[h], cx_z.columns(h)
        q = lv[min(cycle)]
        j = next(j for j, c in enumerate(cols)
                 if lv[j] == q and any(v % 2 for v in c.values()))
        return real_bockstein(cx_z, h, {**cycle, j: cycle.get(j, 0) + 1})

    real_coords = khs.refined_s.class_coords
    calls = []

    def class_coords(cx, h, reps, cycles):
        calls.append(h)
        if len(calls) == 1:
            return real_coords(cx, h, reps, cycles)
        return [None] * len(cycles)

    for name, patch, stage in [
            ("bockstein_chain", bockstein_chain,
             "Bockstein lift-divide failed"),
            ("class_coords", class_coords, "Sq¹ image is not a graded cycle")]:
        with monkeypatch.context() as m:
            m.setattr(khs.refined_s, name, patch)
            code, out, err = run(capsys, "compute", "--link", "9_42",
                                 "--char", "2", "--theta", "sq1",
                                 "--format", "json")
        assert code == 3 and out == ""
        assert stage in err
        assert f"at q=1, h=0, for link {link}" in err


def test_verify_exits_4_on_a_failing_case(monkeypatch, capsys):
    # [TRIVIAL] a suite with a failing case prints its report with pass
    # false, names the first failing case on stderr and exits 4.
    import khs.cli

    monkeypatch.setitem(khs.cli._SUITES, "prop2", lambda args: [
        {"case": "good", "pass": True}, {"case": "bad", "pass": False},
        {"case": "worse", "pass": False}])
    code, out, err = run(capsys, "verify", "prop2")
    assert code == EXIT_VERIFY
    assert json.loads(out)["pass"] is False
    assert "FAIL: first failing case: bad" in err


def test_sublevel_failure_names_the_link(monkeypatch, capsys):
    # [TRIVIAL] the refined pipeline appends the link to the exit-3
    # message of sublevel_homology, as to every message of its own.  The
    # first level asked is the trefoil's top degree-0 level, q = 5.
    import khs.complexes
    from khs.links import serialize_pd
    from khs.tables import builtin_diagram

    monkeypatch.setattr(khs.complexes, "class_coords", lambda *args: [None])
    code, out, err = run(capsys, "compute", "--link", "trefoil",
                         "--char", "2", "--theta", "sq1", "--format", "json")
    assert code == 3 and out == ""
    link = serialize_pd(builtin_diagram("trefoil"))
    assert ("sublevel cycle is not a cycle of C at q=5, h=0, for link "
            f"{link}") in err


def test_braid_component_count_failure_names_the_word(monkeypatch, capsys):
    # [TRIVIAL] a braid closure whose diagram disagrees with the braid's
    # permutation on the component count exits 3 naming the word and the
    # strand count.
    import khs.links

    monkeypatch.setattr(khs.links, "_closure_components",
                        lambda n, word: [0] * n)
    code, out, err = run(capsys, "compute", "--link", "torus:3:1",
                         "--format", "json")
    assert code == 3 and out == ""
    assert ("braid closure has the wrong component count, for braid word "
            "[1, 2, 1, 2, 1, 2] on 3 strands") in err

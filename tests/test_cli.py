"""CLI contract: subcommands, formats, exit codes, caching, determinism."""

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
def test_verify_dichotomy(capsys):
    code, out, _ = run(capsys, "verify", "dichotomy")
    assert code == 0
    assert json.loads(out)["pass"]


def test_table_with_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KHS_CACHE_DIR", str(tmp_path / "cache"))
    args = ("table", "--family", "torus", "--max-n", "2",
            "--char", "2", "--theta", "sq1", "--format", "csv")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert len(list((tmp_path / "cache").iterdir())) == 2
    code, out2, _ = run(capsys, *args)  # second run served from cache
    assert code == 0
    assert out1 == out2  # determinism: byte-identical
    assert "torus:2:1,2,2,sq1,-1,-1,-1" in out1


def test_table_json_without_cache(monkeypatch, capsys):
    monkeypatch.delenv("KHS_CACHE_DIR", raising=False)
    code, out, _ = run(capsys, "table", "--family", "torus", "--max-n", "2",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["name"] for r in rows] == ["torus:2:0", "torus:2:1"]


def test_exit_code_constants():
    # [TRIVIAL] documented contract.
    assert EXIT_PARSE == 2 and EXIT_VERIFY == 4


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("link,char,theta,name", [
    ("9_42", "2", "sq1", "9_42_c2_sq1.json"),
    ("9_42", "0", "zero", "9_42_c0_zero.json"),
    ("torus:3:1", "2", "sq1", "torus_3_1_c2_sq1.json"),
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


def test_table_cache_recomputes_rows_of_other_code(tmp_path, monkeypatch,
                                                   capsys):
    # [DERIVED] cache keys carry a digest of the sources, so a row that
    # older code cached (here with a wrong s_plus) is not served.
    import khs.cli

    cache = tmp_path / "cache"
    monkeypatch.setenv("KHS_CACHE_DIR", str(cache))
    args = ("table", "--family", "torus", "--max-n", "2",
            "--char", "2", "--theta", "sq1", "--format", "csv")
    digest = khs.cli._source_digest
    monkeypatch.setattr(khs.cli, "_source_digest", lambda: "older code")
    assert run(capsys, *args)[0] == 0
    for f in cache.iterdir():
        row = json.loads(f.read_text())
        f.write_text(json.dumps({**row, "s_plus": 99}))
    code, stale, _ = run(capsys, *args)  # same digest: served from cache
    assert code == 0 and ",99" in stale
    monkeypatch.setattr(khs.cli, "_source_digest", digest)
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert ",99" not in out and "torus:2:1,2,2,sq1,-1,-1,-1" in out
    assert len(list(cache.iterdir())) == 4


def test_failed_revalidation_names_certificate_level_and_link(monkeypatch,
                                                              capsys):
    # [TRIVIAL] exit 3 says which certificate failed, at which q, for
    # which link; stdout stays empty.
    import khs.cli
    from khs.links import serialize_pd
    from khs.tables import builtin_diagram

    monkeypatch.setattr(khs.cli, "validate_certificate",
                        lambda d, cert: False)
    code, out, err = run(capsys, "compute", "--link", "trefoil",
                         "--char", "2", "--theta", "sq1", "--format", "json")
    assert code == 3 and out == ""
    assert "r_plus at q=" in err
    assert serialize_pd(builtin_diagram("trefoil")) in err

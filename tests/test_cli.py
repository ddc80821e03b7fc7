import json
import subprocess
import sys

import numpy as np
import pytest

from schemeforge.chartab import (CharacterTable, closed_form_mstar,
                                 compute_character_table)
from schemeforge.cli import main
from schemeforge.permgroup import group_scheme, psl2


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_paige_build_json(capsys):
    rc, out, err = run_cli(capsys, "paige", "build", "--q", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["q"] == 2 and data["order"] == 120
    assert err.startswith("# schemeforge seed=0xa55c")


def test_seed_echo_inherits_flag(capsys):
    rc, _, err = run_cli(capsys, "paige", "build", "--q", "2", "--seed", "16")
    assert rc == 0
    assert "seed=0x10" in err


def test_paige_table_matches_oracle(capsys):
    rc, out, _ = run_cli(capsys, "paige", "table", "--q", "2")
    assert rc == 0
    table = CharacterTable.from_json(json.loads(out))
    assert table.n == 120
    from schemeforge.chartab import compare_tables
    assert compare_tables(table, closed_form_mstar(2), tol=1e-8).matched


def test_oracle_subcommands(capsys):
    rc, out, _ = run_cli(capsys, "chartable", "oracle-mstar", "--q", "2")
    assert rc == 0
    t = CharacterTable.from_json(json.loads(out))
    assert t.P.real.astype(int).tolist() == [[1, 63, 56], [1, 3, -4], [1, -9, 8]]
    rc, out, _ = run_cli(capsys, "chartable", "oracle-psl2", "--q", "4")
    assert rc == 0
    assert json.loads(out)["n"] == 60


def test_oracle_pipe_verifies(tmp_path):
    exe = [sys.executable, "-m", "schemeforge.cli"]
    first = subprocess.run(exe + ["chartable", "oracle-psl2", "--q", "4"],
                           capture_output=True, text=True)
    assert first.returncode == 0
    second = subprocess.run(exe + ["chartable", "verify", "--stdin"],
                            input=first.stdout, capture_output=True, text=True)
    assert second.returncode == 0, second.stderr


def test_verify_rejects_perturbed_table(capsys, tmp_path):
    data = closed_form_mstar(2).to_json()
    data["P"][1][2]["re"] += 1e-2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc, _, err = run_cli(capsys, "chartable", "verify", "--table", str(path))
    assert rc == 1


def test_verify_against_scheme(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "scheme", "orbitals", "--symmetric", "3")
    scheme_file = tmp_path / "s3.json"
    scheme_file.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "compute",
                         "--scheme", str(scheme_file))
    assert rc == 0
    table_file = tmp_path / "t.json"
    table_file.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "verify", "--table",
                         str(table_file), "--scheme", str(scheme_file))
    assert rc == 0
    assert json.loads(out)["passed"] is True


def test_orbitals_from_generator_file(capsys, tmp_path):
    gens = tmp_path / "s3.gens"
    gens.write_text("(0 1)\n(0 1 2)\n")
    rc, out, _ = run_cli(capsys, "scheme", "orbitals", "--gens", str(gens))
    assert rc == 0
    data = json.loads(out)
    assert data["n"] == 3 and data["d"] == 1
    scheme_file = tmp_path / "scheme.json"
    scheme_file.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "compute",
                         "--scheme", str(scheme_file))
    assert rc == 0
    t = CharacterTable.from_json(json.loads(out))
    assert np.allclose(t.P.real, [[1, 2], [1, -1]], atol=1e-10)


def test_group_source_requires_exactly_one(capsys):
    rc, _, err = run_cli(capsys, "scheme", "orbitals",
                         "--symmetric", "3", "--cyclic", "4")
    assert rc == 2


def test_fuse_valid_and_invalid(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "scheme", "group-scheme", "--cyclic", "4")
    assert rc == 0
    path = tmp_path / "z4.json"
    path.write_text(out)

    rc, out, _ = run_cli(capsys, "scheme", "fuse", "--scheme", str(path),
                         "--cells", "1,3")
    assert rc == 0
    assert json.loads(out)["d"] == 2

    rc, _, err = run_cli(capsys, "scheme", "fuse", "--scheme", str(path),
                         "--cells", "1,2", "--json-errors")
    assert rc == 1
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"]["kind"] == "InvalidFusion"


def test_scheme_verify_subcommand(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "scheme", "orbitals", "--cyclic", "5")
    path = tmp_path / "z5.json"
    path.write_text(out)
    rc, out, _ = run_cli(capsys, "scheme", "verify", "--scheme", str(path))
    assert rc == 0
    assert json.loads(out)["passed"] is True


def test_loop_scheme_and_compute(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "scheme", "loop-scheme", "--q", "2",
                         "--policy", "exact")
    assert rc == 0
    data = json.loads(out)
    assert data["n"] == 120
    path = tmp_path / "m2.json"
    path.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "compute", "--scheme", str(path))
    assert rc == 0
    assert json.loads(out)["n"] == 120


@pytest.mark.parametrize("q", [2, 4], ids=["dense", "functional"])
def test_loop_scheme_reloads_as_orbital(capsys, q):
    from schemeforge.cli import _load_scheme
    from schemeforge.config import RunConfig
    rc, out, _ = run_cli(capsys, "scheme", "loop-scheme", "--q", str(q))
    assert rc == 0
    assert json.loads(out)["relations"]["source"]["certificate"] == "exact"
    assert _load_scheme(out, RunConfig()).orbital


def test_double_coset_subcommand(capsys):
    rc, out, _ = run_cli(capsys, "chartable", "double-coset",
                         "--symmetric", "3", "--stab", "2")
    assert rc == 0
    data = json.loads(out)
    P = [[cell["re"] for cell in row] for row in data["table"]["P"]]
    assert np.allclose(P, [[1, 2], [1, -1]], atol=1e-10)


def test_double_coset_with_subgroup_file(capsys, tmp_path):
    sub = tmp_path / "s2.gens"
    sub.write_text("(0 1)\n")
    rc, out, _ = run_cli(capsys, "chartable", "double-coset",
                         "--symmetric", "3", "--sub", str(sub))
    assert rc == 0
    assert json.loads(out)["double_coset_sizes"] == [2, 4]


def test_transfer_subcommand(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "scheme", "group-scheme", "--cyclic", "4")
    scheme_file = tmp_path / "z4.json"
    scheme_file.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "compute",
                         "--scheme", str(scheme_file))
    table_file = tmp_path / "z4table.json"
    table_file.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "transfer",
                         "--table", str(table_file))
    assert rc == 0
    assert json.loads(out)["degrees"] == [1, 1, 1, 1]


def test_transfer_rejects_loop_table(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "chartable", "oracle-mstar", "--q", "2")
    path = tmp_path / "m2t.json"
    path.write_text(out)
    rc, _, err = run_cli(capsys, "chartable", "transfer", "--table", str(path),
                         "--json-errors")
    assert rc == 1
    assert json.loads(err.splitlines()[-1])["error"]["kind"] == "NotGroupScheme"


def test_compare_subcommand(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    rc, out, _ = run_cli(capsys, "paige", "table", "--q", "2")
    a.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "oracle-mstar", "--q", "2")
    b.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "compare", "--table", str(a),
                         "--other", str(b))
    assert rc == 0
    assert json.loads(out)["matched"] is True

    rc, out, _ = run_cli(capsys, "chartable", "oracle-psl2", "--q", "2")
    b.write_text(out)
    rc, _, _ = run_cli(capsys, "chartable", "compare", "--table", str(a),
                       "--other", str(b))
    assert rc == 1

    # 17 classes, 8! * 7! equal-valency column maps
    table = compute_character_table(group_scheme(psl2(16)))
    a.write_text(json.dumps(table.to_json()))
    rc, out, _ = run_cli(capsys, "chartable", "oracle-psl2", "--q", "16")
    b.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "compare", "--table", str(a),
                         "--other", str(b))
    assert rc == 0
    assert json.loads(out)["matched"] is True


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_compare_mismatch_is_strict_json(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    rc, out, _ = run_cli(capsys, "chartable", "oracle-mstar", "--q", "2")
    a.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "oracle-psl2", "--q", "2")
    b.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "compare", "--table", str(a),
                         "--other", str(b))
    assert rc == 1
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload == {"matched": False, "max_diff": None}


def test_export_roundtrip_table(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "chartable", "oracle-mstar", "--q", "4")
    original = json.loads(out)
    j = tmp_path / "t.json"
    j.write_text(out)
    rc, out, _ = run_cli(capsys, "export", "--in", str(j), "--format", "csv")
    assert rc == 0
    c = tmp_path / "t.csv"
    c.write_text(out)
    rc, out, _ = run_cli(capsys, "export", "--in", str(c), "--format", "json")
    assert rc == 0
    assert json.loads(out) == original


def test_export_roundtrip_scheme(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "scheme", "orbitals", "--cyclic", "4")
    original = json.loads(out)
    j = tmp_path / "s.json"
    j.write_text(out)
    rc, out, _ = run_cli(capsys, "export", "--in", str(j), "--format", "csv")
    assert rc == 0
    c = tmp_path / "s.csv"
    c.write_text(out)
    rc, out, _ = run_cli(capsys, "export", "--in", str(c), "--format", "json")
    assert rc == 0
    assert json.loads(out) == original


def test_output_formats_render(capsys):
    rc, out, _ = run_cli(capsys, "chartable", "oracle-mstar", "--q", "2",
                         "--format", "latex")
    assert rc == 0 and "\\begin{array}" in out
    rc, out, _ = run_cli(capsys, "chartable", "oracle-mstar", "--q", "2",
                         "--format", "text")
    assert rc == 0 and "63" in out


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "table.json"
    rc, out, _ = run_cli(capsys, "chartable", "oracle-psl2", "--q", "2",
                         "--out", str(target))
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["n"] == 6


def test_determinism_across_runs_and_threads(capsys):
    rc, first, _ = run_cli(capsys, "paige", "table", "--q", "3", "--seed", "5")
    assert rc == 0
    rc, second, _ = run_cli(capsys, "paige", "table", "--q", "3", "--seed", "5")
    assert first == second


@pytest.mark.parametrize("argv", [
    ("paige", "build", "--q", "6"),
    ("paige", "build", "--q", "4", "--cap-elements", "100"),
    ("chartable", "oracle-mstar", "--q", "3"),
])
def test_usage_errors_exit_2(capsys, argv):
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 2


def test_missing_file_exits_2(capsys, tmp_path):
    rc, _, _ = run_cli(capsys, "chartable", "compute", "--scheme",
                       str(tmp_path / "absent.json"))
    assert rc == 2


def test_malformed_scheme_file_exits_2(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    rc, _, _ = run_cli(capsys, "chartable", "compute", "--scheme", str(path))
    assert rc == 2


def test_bad_generator_file_exits_2(capsys, tmp_path):
    gens = tmp_path / "bad.gens"
    gens.write_text("0 0 1\n")
    rc, _, err = run_cli(capsys, "scheme", "orbitals", "--gens", str(gens),
                         "--json-errors")
    assert rc == 2
    assert json.loads(err.splitlines()[-1])["error"]["kind"] == "ParseError"


def test_cap_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("SCHEMEFORGE_CAP_ELEMENTS", "100")
    rc, _, _ = run_cli(capsys, "paige", "build", "--q", "4")
    assert rc == 2


def test_argparse_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["paige", "table"])  # --q is required
    assert exc.value.code == 2


def test_group_from_file_roundtrip(capsys, tmp_path):
    gens = tmp_path / "z6.gens"
    gens.write_text("(0 1 2 3 4 5)\n")
    rc, out, _ = run_cli(capsys, "group", "from-file", "--gens", str(gens))
    assert rc == 0
    assert json.loads(out)["order"] == 6
    rc, out, _ = run_cli(capsys, "group", "psl2", "--q", "5")
    assert rc == 0
    assert json.loads(out)["order"] == 60

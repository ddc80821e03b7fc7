import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from schemeforge import cli
from schemeforge.chartab import (CharacterTable, closed_form_mstar,
                                 compute_character_table, table_to_csv,
                                 table_to_latex, table_to_text)
from schemeforge.cli import _load_scheme, main
from schemeforge.config import DEFAULT_ELEMENT_CAP
from schemeforge.errors import ParseError
from schemeforge.loopcore import loop_scheme
from schemeforge.permgroup import cyclic, group_scheme, psl2
from schemeforge.scheme import fuse, intersection_numbers
from schemeforge.zorn import build_paige_loop


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
    # empty cells are skipped
    rc, again, _ = run_cli(capsys, "scheme", "fuse", "--scheme", str(path),
                           "--cells", " ; 1,3;")
    assert rc == 0 and again == out

    rc, _, err = run_cli(capsys, "scheme", "fuse", "--scheme", str(path),
                         "--cells", "1,2", "--json-errors")
    assert rc == 1
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"]["kind"] == "InvalidFusion"

    rc, out, err = run_cli(capsys, "scheme", "fuse", "--scheme", str(path),
                           "--cells", "1,x")
    assert rc == 2 and out == ""
    assert "UsageError: bad cell spec '1,x'" in err


Z4_RENDERINGS = {
    "csv": "kind,scheme\nn,4\nd,3\nvalencies,1,1,1,1\n"
           "R,0,1,2,3\nR,3,0,1,2\nR,2,3,0,1\nR,1,2,3,0\n",
    "text": "scheme: n=4, d=3\nvalencies: 1 1 1 1\ntranspose: 0 3 2 1\n"
            "  0 1 2 3\n  3 0 1 2\n  2 3 0 1\n  1 2 3 0\n",
}


@pytest.mark.parametrize("fmt", sorted(Z4_RENDERINGS))
def test_group_scheme_renderings_are_pinned(capsys, fmt):
    rc, out, _ = run_cli(capsys, "scheme", "group-scheme", "--cyclic", "4",
                         "--format", fmt)
    assert rc == 0
    assert out == Z4_RENDERINGS[fmt]


def test_psl2_16_scheme_json_reaches_the_oracle(capsys, tmp_path):
    scheme_file, table_file, oracle_file = (
        str(tmp_path / name) for name in ("x16.json", "t16.json", "o16.json"))
    assert run_cli(capsys, "scheme", "group-scheme", "--psl2", "16",
                   "--out", scheme_file)[0] == 0
    assert (tmp_path / "x16.json").stat().st_size < 1_000_000
    assert run_cli(capsys, "chartable", "compute", "--scheme", scheme_file,
                   "--out", table_file)[0] == 0
    assert run_cli(capsys, "chartable", "oracle-psl2", "--q", "16",
                   "--out", oracle_file)[0] == 0
    rc, out, _ = run_cli(capsys, "chartable", "compare", "--table", table_file,
                         "--other", oracle_file)
    assert rc == 0
    assert json.loads(out)["matched"] is True


def test_fused_group_scheme_reloads(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "scheme", "group-scheme", "--cyclic", "4")
    base = tmp_path / "z4.json"
    base.write_text(out)
    rc, out, _ = run_cli(capsys, "scheme", "fuse", "--scheme", str(base),
                         "--cells", "1,3")
    assert rc == 0
    assert json.loads(out)["relations"]["source"]["kind"] == "fusion"
    fused = tmp_path / "z4fused.json"
    fused.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "compute", "--scheme", str(fused))
    assert rc == 0
    want = compute_character_table(fuse(group_scheme(cyclic(4)), [[0], [1, 3], [2]]))
    assert json.loads(out) == json.loads(json.dumps(want.to_json()))


def test_table_loop_scheme_reloads(capsys, tmp_path, paige2_grid):
    table = paige2_grid
    path = tmp_path / "m2.loop"
    path.write_text(f"{table.shape[0]}\n" + "\n".join(
        " ".join(str(v) for v in row) for row in table.tolist()) + "\n")
    rc, out, _ = run_cli(capsys, "scheme", "loop-scheme", "--loop", str(path))
    assert rc == 0
    source = json.loads(out)["relations"]["source"]
    assert source["kind"] == "loop-scheme" and source["table"] == table.tolist()
    again = _load_scheme(out, DEFAULT_ELEMENT_CAP)
    # the written certificate is "exact" (exact policy at n = 120), but a
    # table loop's is not trusted on reload: the full scan checks the scheme
    assert source["certificate"] == "exact" and not again.orbital
    want = loop_scheme(build_paige_loop(2))
    assert np.array_equal(intersection_numbers(again).tensor,
                          intersection_numbers(want).tensor)


def test_group_scheme_recipe_is_checked_on_load(capsys):
    rc, out, _ = run_cli(capsys, "scheme", "group-scheme", "--symmetric", "3")
    assert _load_scheme(out, DEFAULT_ELEMENT_CAP).orbital
    data = json.loads(out)
    class_of = data["relations"]["source"]["class_of"]
    i = class_of.index(1)
    j = class_of.index(2)
    class_of[i], class_of[j] = class_of[j], class_of[i]     # same valencies
    with pytest.raises(ParseError, match="conjugacy classes"):
        _load_scheme(json.dumps(data), DEFAULT_ELEMENT_CAP)
    data = json.loads(out)
    data["valencies"] = [1, 3, 2]
    with pytest.raises(ParseError, match="valencies"):
        _load_scheme(json.dumps(data), DEFAULT_ELEMENT_CAP)


Z4_TABLE = [[(a + b) % 4 for b in range(4)] for a in range(4)]
RECIPES = {
    "group-scheme": ["scheme", "group-scheme", "--cyclic", "4"],
    "paige-loop-scheme": ["scheme", "loop-scheme", "--q", "2"],
    "fusion": None,         # the Z4 group scheme fused along {1, 3}
    "loop-scheme": {"n": 4, "d": 3, "valencies": [1, 1, 1, 1], "relations": {
        "source": {"kind": "loop-scheme", "table": Z4_TABLE, "class_of": [0, 1, 2, 3]}}},
}
BAD_FIELDS = {"group-scheme": {"generators": [5, "x", [[0, 1], [1]]],
                               "class_of": [3, [[0]], [0.5, 1, 2, 3]]},
              "paige-loop-scheme": {"q": [[2], "2", 2.0], "class_of": [None]},
              "fusion": {"cells": [5, [1, [3]], [["1"]]], "base": [7]},
              "loop-scheme": {"table": [[0, 1], Z4_TABLE[0], [[True] * 4] * 4,
                                        [[0, 1], [1, 1]]],
                              "class_of": [{"a": 1}]}}


def _recipe_json(capsys, tmp_path, kind) -> dict:
    argv = RECIPES[kind]
    if isinstance(argv, dict):
        return json.loads(json.dumps(argv))
    if argv is None:
        base = tmp_path / "z4.json"
        base.write_text(run_cli(capsys, *RECIPES["group-scheme"])[1])
        argv = ["scheme", "fuse", "--scheme", str(base), "--cells", "1,3"]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    return json.loads(out)


@pytest.mark.parametrize("kind", sorted(BAD_FIELDS))
def test_malformed_recipes_exit_2_with_a_parse_error(capsys, tmp_path, kind):
    good = _recipe_json(capsys, tmp_path, kind)
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(good))
    assert run_cli(capsys, "chartable", "compute", "--scheme", str(path))[0] == 0
    for field, bad_values in BAD_FIELDS[kind].items():
        for value in [KeyError] + bad_values:
            data = json.loads(json.dumps(good))
            if value is KeyError:
                del data["relations"]["source"][field]
            else:
                data["relations"]["source"][field] = value
            path.write_text(json.dumps(data))
            rc, _, err = run_cli(capsys, "chartable", "compute", "--scheme", str(path),
                                 "--json-errors")
            assert rc == 2, (field, value)
            assert json.loads(err.splitlines()[-1])["error"]["kind"] == "ParseError", \
                (field, value)


@pytest.mark.parametrize("class_of", [[1, 0, 0], [0, 2, 2], [0, -1, 1]])
def test_recipe_with_malformed_classes_exits_2(capsys, tmp_path, class_of):
    # Z3 as a loop table; the classes must isolate point 0 and use 0..d
    data = {"n": 3, "d": 1, "valencies": [2, 1], "relations": {"source": {
        "kind": "loop-scheme", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        "class_of": class_of}}}
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "chartable", "compute", "--scheme", str(path),
                           "--json-errors")
    assert rc == 2 and out == ""
    error = json.loads(err.splitlines()[-1])["error"]
    assert error["kind"] == "ValueError" and error["detail"].startswith("class_of")


def test_group_scheme_recipe_names_the_generator_row_that_is_not_a_permutation(
        capsys, tmp_path):
    data = _recipe_json(capsys, tmp_path, "group-scheme")
    data["relations"]["source"]["generators"] = [[1, 2, 3, 0], [1, 0, 7, 2]]
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(data))
    rc, _, err = run_cli(capsys, "chartable", "compute", "--scheme", str(path),
                         "--json-errors")
    assert rc == 2
    assert json.loads(err.splitlines()[-1])["error"] == {
        "kind": "ParseError",
        "detail": "group-scheme generators: generator row 1, [1, 0, 7, 2], "
                  "is not a permutation of 0..3"}


def test_reports_render_as_text_lines(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "scheme", "orbitals", "--cyclic", "5")
    scheme_path = tmp_path / "z5.json"
    scheme_path.write_text(out)
    rc, out, _ = run_cli(capsys, "scheme", "verify", "--scheme", str(scheme_path),
                         "--format", "text")
    assert rc == 0
    assert out.splitlines() == ["passed: True", "n: 5", "d: 4", "failures: []"]
    tables = {}
    for oracle in ("oracle-mstar", "oracle-psl2"):
        tables[oracle] = tmp_path / f"{oracle}.json"
        tables[oracle].write_text(run_cli(capsys, "chartable", oracle, "--q", "2")[1])
    compare = ["chartable", "compare", "--table", str(tables["oracle-mstar"]),
               "--format", "text", "--other"]
    rc, out, _ = run_cli(capsys, *compare, str(tables["oracle-mstar"]))
    assert rc == 0
    assert out.splitlines() == ["matched: True", "max_diff: 0.0",
                                "row_perm: [0, 1, 2]", "col_perm: [0, 1, 2]"]
    rc, out, _ = run_cli(capsys, *compare, str(tables["oracle-psl2"]))
    assert rc == 1
    assert out.splitlines() == ["matched: False", "max_diff: None"]


@pytest.mark.parametrize("fmt", ["csv", "latex"])
def test_reports_refuse_csv_and_latex(capsys, tmp_path, fmt):
    rc, out, _ = run_cli(capsys, "scheme", "orbitals", "--cyclic", "5")
    scheme_path = tmp_path / "z5.json"
    scheme_path.write_text(out)
    rc, out, err = run_cli(capsys, "scheme", "verify", "--scheme", str(scheme_path),
                           "--format", fmt)
    assert rc == 2 and out == ""
    assert err.splitlines()[-1] == ("schemeforge: UsageError: reports support "
                                    "json and text only")


def test_scheme_verify_subcommand(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "scheme", "orbitals", "--cyclic", "5")
    path = tmp_path / "z5.json"
    path.write_text(out)
    rc, out, _ = run_cli(capsys, "scheme", "verify", "--scheme", str(path))
    assert rc == 0
    assert json.loads(out)["passed"] is True


def test_loop_scheme_and_compute(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "scheme", "loop-scheme", "--q", "2")
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
    rc, out, _ = run_cli(capsys, "scheme", "loop-scheme", "--q", str(q))
    assert rc == 0
    assert json.loads(out)["relations"]["source"]["certificate"] == "exact"
    assert _load_scheme(out, DEFAULT_ELEMENT_CAP).orbital


def test_double_coset_subcommand(capsys):
    rc, out, _ = run_cli(capsys, "chartable", "double-coset",
                         "--symmetric", "3", "--stab", "2")
    assert rc == 0
    data = json.loads(out)
    P = [[cell["re"] for cell in row] for row in data["table"]["P"]]
    assert np.allclose(P, [[1, 2], [1, -1]], atol=1e-10)


def test_double_coset_eigensolves_honour_tol_eigen(capsys):
    # at a residual tolerance no float eigensolve meets, the group table's
    # eigensolve must fail, as `chartable compute` does for the same group
    rc, _, err = run_cli(capsys, "chartable", "double-coset", "--psl2", "5",
                         "--stab", "0", "--tol-eigen", "1e-30", "--json-errors")
    assert rc == 1
    assert json.loads(err.splitlines()[-1])["error"]["kind"] == "EigensolverFailure"


def test_double_coset_renders_its_table_in_every_format(capsys):
    argv = ("chartable", "double-coset", "--psl2", "5", "--stab", "0")
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    table = CharacterTable.from_json(json.loads(out)["table"])
    for fmt, render in (("csv", table_to_csv), ("latex", table_to_latex),
                        ("text", table_to_text)):
        rc, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert rc == 0 and out == render(table), fmt


def test_double_coset_with_subgroup_file(capsys, tmp_path):
    sub = tmp_path / "s2.gens"
    sub.write_text("(0 1)\n")
    rc, out, _ = run_cli(capsys, "chartable", "double-coset",
                         "--symmetric", "3", "--sub", str(sub))
    assert rc == 0
    assert json.loads(out)["double_coset_sizes"] == [2, 4]


def test_double_coset_subgroup_outside_the_group_exits_2(capsys, tmp_path):
    sub = tmp_path / "swap.gens"
    sub.write_text("(0 1)\n")
    rc, _, err = run_cli(capsys, "chartable", "double-coset", "--cyclic", "4",
                         "--sub", str(sub), "--json-errors")
    assert rc == 2
    assert json.loads(err.splitlines()[-1])["error"]["kind"] == "NotSubgroup"


@pytest.mark.parametrize("point", ["99", "-1"])
def test_double_coset_stab_outside_the_points_exits_2(capsys, point):
    rc, _, err = run_cli(capsys, "chartable", "double-coset", "--psl2", "5",
                         "--stab", point, "--json-errors")
    assert rc == 2
    error = json.loads(err.splitlines()[-1])["error"]
    assert error["kind"] == "ValueError"
    assert f"point {point} outside 0..5" in error["detail"]


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


@pytest.mark.parametrize("valencies,multiplicities,n,fault", [
    ([1, 0], [1, 2], 3, "valencies must be positive integers"),
    ([1, 2.5], [1, 2], 3, "valencies must be positive integers"),
    ([1, 2], [-1, 4], 3, "multiplicities must be positive and finite"),
    ([1, 2], [1, 2], 0, "n must be at least 1"),
], ids=["valency-0", "valency-2.5", "multiplicity-negative", "n-0"])
def test_impossible_table_parameters_exit_2_in_strict_json(
        capsys, tmp_path, valencies, multiplicities, n, fault):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({
        "d": 1, "n": n, "P": [[{"re": 1, "im": 0}, {"re": 2, "im": 0}],
                              [{"re": 1, "im": 0}, {"re": -1, "im": 0}]],
        "valencies": valencies, "multiplicities": multiplicities}))
    rc, out, err = run_cli(capsys, "chartable", "verify", "--table", str(path),
                           "--json-errors")
    assert rc == 2 and out == ""
    error = json.loads(err.splitlines()[-1], parse_constant=_reject_constant)["error"]
    assert error["kind"] == "ValueError" and fault in error["detail"]


MATRIX_NOT_INTS = "scheme JSON 'relations.matrix' must be integers in 2 dimensions"


@pytest.mark.parametrize("suffix,text,kind,fault", [
    (".csv", "kind,scheme\nn,3\nd,1\nvalencies,1,2\nR,0,1,-1\nR,1,0,1\nR,1,1,0\n",
     "ValueError", "negative class id -1"),
    (".json", json.dumps({"n": 3, "d": 1, "valencies": [1, 2], "relations": {
        "matrix": [[0, 1, -1], [1, 0, 1], [1, 1, 0]]}}), "ValueError", "negative class id -1"),
    (".json", json.dumps({"n": 3, "d": 1, "valencies": [1, 2], "relations": {
        "matrix": [[0, 1, 1.5], [1, 0, 1], [1, 1, 0]]}}), "ParseError", MATRIX_NOT_INTS),
    # numpy reads a true among integers as 1, and this matrix as a scheme
    (".json", json.dumps({"n": 3, "d": 1, "valencies": [1, 2], "relations": {
        "matrix": [[0, True, 1], [1, 0, 1], [1, 1, 0]]}}), "ParseError", MATRIX_NOT_INTS),
], ids=["csv-negative", "json-negative", "json-fraction", "json-true"])
def test_scheme_matrix_with_impossible_class_ids_exits_2(capsys, tmp_path, suffix, text,
                                                         kind, fault):
    path = tmp_path / ("x" + suffix)
    path.write_text(text)
    rc, out, err = run_cli(capsys, "scheme", "verify", "--scheme", str(path),
                           "--json-errors")
    assert rc == 2 and out == ""
    error = json.loads(err.splitlines()[-1])["error"]
    assert error["kind"] == kind and fault in error["detail"]


@pytest.mark.parametrize("argv,header", [
    (("chartable", "oracle-psl2", "--q", "4"), {"n": 60.7}),
    (("scheme", "orbitals", "--symmetric", "3"), {"valencies": [1, 2.9]}),
    (("scheme", "orbitals", "--symmetric", "3"), {"n": 3.2, "d": 1.9}),
    (("scheme", "group-scheme", "--symmetric", "3"), {"n": 6.0}),
    (("scheme", "orbitals", "--symmetric", "3"), {"valencies": [True, 2]}),
], ids=["table-n", "matrix-valencies", "matrix-n-d", "recipe-n", "matrix-valency-true"])
def test_headers_that_are_not_json_integers_exit_2(capsys, tmp_path, argv, header):
    rc, out, _ = run_cli(capsys, *argv)
    data = {**json.loads(out), **header}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    verify = ("chartable", "verify", "--table") if "P" in data else ("scheme", "verify", "--scheme")
    rc, out, err = run_cli(capsys, *verify, str(path), "--json-errors")
    assert rc == 2 and out == ""
    error = json.loads(err.splitlines()[-1])["error"]
    assert error["kind"] == "ParseError"
    assert f"'{next(iter(header))}' must be integers" in error["detail"]


@pytest.mark.parametrize("field,change", [
    ("valencies", lambda v: [float(k) for k in v]),
    ("valencies", lambda v: [str(k) for k in v]),
    ("valencies", lambda v: [True, *v[1:]]),
    ("valencies", lambda v: [v[0], "x", *v[2:]]),
    ("multiplicities", lambda m: [str(x) for x in m]),
], ids=["valency-floats", "valency-strings", "valency-true", "valency-word",
        "multiplicity-strings"])
@pytest.mark.parametrize("reader", [("chartable", "verify", "--table"), ("export", "--in")],
                         ids=["verify", "export"])
def test_table_json_numbers_that_are_not_json_numbers_exit_2(capsys, tmp_path, field,
                                                              change, reader):
    rc, out, _ = run_cli(capsys, "chartable", "oracle-psl2", "--q", "4")
    data = json.loads(out)
    data[field] = change(data[field])
    path = tmp_path / "t4.json"
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, *reader, str(path), "--json-errors")
    assert rc == 2 and out == ""
    error = json.loads(err.splitlines()[-1])["error"]
    assert error["kind"] == "ParseError" and f"'{field}'" in error["detail"]


@pytest.mark.parametrize("argv,reader,extra", [
    (("chartable", "oracle-psl2", "--q", "4"), ("chartable", "verify", "--table"), "n,999"),
    (("scheme", "group-scheme", "--cyclic", "4"), ("scheme", "verify", "--scheme"), "n,77"),
], ids=["table", "scheme"])
@pytest.mark.parametrize("first", [True, False], ids=["extra-first", "extra-last"])
def test_csv_with_a_second_header_line_exits_2(capsys, tmp_path, argv, reader, extra, first):
    # a header line is read once; only the P and R rows of the matrix repeat
    rc, out, _ = run_cli(capsys, *argv, "--format", "csv")
    lines = out.splitlines()
    assert lines[1].startswith("n,")
    lines.insert(1 if first else 2, extra)
    path = tmp_path / "x.csv"
    path.write_text("\n".join(lines) + "\n")
    rc, out, err = run_cli(capsys, *reader, str(path), "--json-errors")
    assert rc == 2 and out == ""
    assert json.loads(err.splitlines()[-1])["error"] == {
        "kind": "ParseError", "detail": "second 'n' row (line 3)"}


def test_compare_rows_that_fit_only_one_at_a_time_give_null(capsys, tmp_path):
    # each row of s equals a row of t up to swapping columns 1 and 2, but
    # row 1 needs the swap and row 2 forbids it
    paths = []
    for name, P in (("s", [[1, 2, 3], [1, 7, 5], [1, 8, 9]]),
                    ("t", [[1, 2, 3], [1, 5, 7], [1, 8, 9]])):
        table = CharacterTable(np.asarray(P, dtype=np.complex128), [1, 2, 2],
                               np.ones(3), 7)
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(table.to_json()))
    rc, out, _ = run_cli(capsys, "chartable", "compare", "--table", str(paths[0]),
                         "--other", str(paths[1]))
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


def test_successive_calls_share_no_options(capsys, tmp_path):
    # the parser is built once a process; a call's --out and --format must
    # not carry over into the next call
    argv = ["chartable", "oracle-psl2", "--q", "4"]
    lone = run_cli(capsys, *argv)
    target = tmp_path / "t4.csv"
    rc, out, _ = run_cli(capsys, *argv, "--format", "csv", "--out", str(target))
    assert rc == 0 and out == "" and target.read_text().startswith("kind,")
    again = run_cli(capsys, *argv)
    assert again == lone and lone[0] == 0
    assert json.loads(lone[1])["n"] == 60
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [
    ("paige", "table", "--q", "3"),
    ("paige", "build", "--q", "2"),
    ("scheme", "group-scheme", "--psl2", "5"),
    ("chartable", "double-coset", "--psl2", "5", "--stab", "0"),
    ("chartable", "oracle-psl2", "--q", "4"),
])
def test_negative_seeds_exit_2_naming_the_option(capsys, argv):
    rc, out, err = run_cli(capsys, *argv, "--seed=-1", "--json-errors")
    assert rc == 2 and out == ""
    assert json.loads(err.splitlines()[-1])["error"] == {
        "kind": "ValueError", "detail": "--seed must be non-negative, got -1"}


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


def test_environment_leaves_the_element_cap_alone(capsys, monkeypatch):
    # the cap is --cap-elements or its default, whatever the environment holds
    monkeypatch.setenv("SCHEMEFORGE_CAP_ELEMENTS", "100")
    rc, out, _ = run_cli(capsys, "paige", "build", "--q", "4")
    assert rc == 0 and json.loads(out)["order"] == 16320


def test_argparse_usage_exits_2(capsys):
    rc, out, err = run_cli(capsys, "paige", "table")  # --q is required
    assert rc == 2 and out == ""
    assert err.startswith("usage: schemeforge paige table")
    assert err.splitlines()[-1] == ("schemeforge: UsageError: "
                                    "the following arguments are required: --q")


@pytest.mark.parametrize("argv,kind,flag", [
    (("paige", "table"), "UsageError", "--q"),
    (("paige", "table", "--q", "3", "--seed", "-0x10"), "UsageError", "--seed"),
    (("paige", "table", "--q", "3", "--seed", "-1_0"), "UsageError", "--seed"),
    (("paige", "table", "--q", "3", "--seed=-0x10"), "ValueError", "--seed"),
    (("paige", "table", "--q", "3", "--policy", "never"), "UsageError", "--policy"),
])
def test_argument_errors_end_in_one_json_line(capsys, argv, kind, flag):
    rc, out, err = run_cli(capsys, *argv, "--json-errors")
    assert rc == 2 and out == ""
    error = json.loads(err.splitlines()[-1])["error"]
    assert error["kind"] == kind and flag in error["detail"]


@pytest.mark.parametrize("flag", ["--j", "--json", "--json-err"])
@pytest.mark.parametrize("before", [True, False], ids=["flag-first", "flag-last"])
def test_abbreviated_json_errors_flag_gives_json_errors(capsys, flag, before):
    for rest, kind in (((), "UsageError"), (("--q", "6"), "UnsupportedField")):
        argv = (flag, *rest) if before else (*rest, flag)
        rc, out, err = run_cli(capsys, "paige", "table", *argv)
        assert rc == 2 and out == ""
        assert json.loads(err.splitlines()[-1])["error"]["kind"] == kind
    # argparse expands only a unique prefix: no other option may start with --j
    for _, parser in _leaves(cli.build_parser()):
        options = {opt for action in parser._actions for opt in action.option_strings}
        assert {opt for opt in options if opt.startswith("--j")} == {"--json-errors"}


def _leaves(parser, path=()):
    """(argv prefix, parser) of every subcommand that takes no further one."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


COMMON_OPTIONS = {"--seed", "--format", "--out", "--json-errors"}
SETTINGS = {"--tol-eigen", "--tol-compare", "--cap-elements"}
# the settings each leaf's handler reads; the cap bounds every Paige loop
# built, one rebuilt from a scheme recipe included
LEAF_SETTINGS = {
    ("paige", "build"): {"--cap-elements"},
    ("paige", "table"): {"--tol-eigen", "--cap-elements"},
    ("group", "psl2"): set(),
    ("group", "sl2"): set(),
    ("group", "from-file"): set(),
    ("scheme", "orbitals"): set(),
    ("scheme", "group-scheme"): set(),
    ("scheme", "loop-scheme"): {"--cap-elements"},
    ("scheme", "fuse"): {"--cap-elements"},
    ("scheme", "verify"): {"--cap-elements"},
    ("chartable", "compute"): {"--tol-eigen", "--cap-elements"},
    ("chartable", "oracle-mstar"): set(),
    ("chartable", "oracle-psl2"): set(),
    ("chartable", "verify"): {"--tol-compare", "--cap-elements"},
    ("chartable", "compare"): {"--tol-compare"},
    ("chartable", "transfer"): set(),
    ("chartable", "double-coset"): {"--tol-eigen", "--tol-compare"},
    ("export",): {"--cap-elements"},
}


def test_every_subcommand_declares_its_handler_and_the_common_options(capsys):
    leaves = list(_leaves(cli.build_parser()))
    assert sorted(path for path, _ in leaves) == sorted(LEAF_SETTINGS)
    handlers = {getattr(cli, name) for name in dir(cli) if name.startswith("_cmd_")}
    for path, parser in leaves:
        assert parser.format_help()
        assert parser._defaults["handler"] in handlers, path
        options = {opt for action in parser._actions for opt in action.option_strings}
        assert COMMON_OPTIONS <= options and "--policy" not in options, path
        assert options & SETTINGS == LEAF_SETTINGS[path], path
        with pytest.raises(SystemExit) as exc:
            main([*path, "--help"])
        assert exc.value.code == 0, path
        capsys.readouterr()


@pytest.fixture
def t4(capsys, tmp_path):
    """A file holding the closed-form table of PSL(2,4); T4 in an argv."""
    path = tmp_path / "t4.json"
    run_cli(capsys, "chartable", "oracle-psl2", "--q", "4", "--out", str(path))
    return str(path)


@pytest.mark.parametrize("argv", [
    ("chartable", "oracle-psl2", "--q", "4", "--tol-eigen", "1e-9"),
    ("chartable", "transfer", "--table", "T4", "--tol-compare", "1e-9"),
    ("group", "psl2", "--q", "5", "--cap-elements", "100"),
    ("paige", "table", "--q", "2", "--policy", "exact"),
    ("scheme", "loop-scheme", "--q", "2", "--policy", "randomized"),
], ids=["oracle-tol-eigen", "transfer-tol-compare", "group-cap-elements",
        "paige-table-policy", "loop-scheme-policy"])
def test_a_leaf_refuses_the_settings_its_handler_does_not_read(capsys, t4, argv):
    # a setting a run would ignore is refused, not echoed as if applied
    argv = [t4 if arg == "T4" else arg for arg in argv]
    rc, out, err = run_cli(capsys, *argv, "--json-errors")
    assert rc == 2 and out == ""
    error = json.loads(err.splitlines()[-1])["error"]
    assert error["kind"] == "UsageError" and argv[-2] in error["detail"]


@pytest.mark.parametrize("argv,header", [
    (("chartable", "oracle-psl2", "--q", "4"), "seed=0xa55c format=json"),
    (("chartable", "compare", "--table", "T4", "--other", "T4"),
     "seed=0xa55c tol_compare=1e-08 format=json"),
    (("chartable", "double-coset", "--psl2", "5", "--stab", "0", "--seed", "7"),
     "seed=0x7 tol_eigen=1e-10 tol_compare=1e-08 format=json"),
    (("paige", "table", "--q", "2", "--tol-eigen", "1e-9", "--format", "text"),
     "seed=0xa55c tol_eigen=1e-09 format=text"),
], ids=["none", "tol-compare", "both", "tol-eigen"])
def test_the_header_echoes_the_settings_the_leaf_takes(capsys, t4, argv, header):
    argv = [t4 if arg == "T4" else arg for arg in argv]
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 0
    assert err.splitlines()[0] == f"# schemeforge {header}"


def test_group_from_file_roundtrip(capsys, tmp_path):
    gens = tmp_path / "z6.gens"
    gens.write_text("(0 1 2 3 4 5)\n")
    rc, out, _ = run_cli(capsys, "group", "from-file", "--gens", str(gens))
    assert rc == 0
    assert json.loads(out)["order"] == 6
    rc, out, _ = run_cli(capsys, "group", "psl2", "--q", "5")
    assert rc == 0
    assert json.loads(out)["order"] == 60


def test_verify_reads_the_table_from_stdin(capsys, monkeypatch):
    import io
    rc, out, _ = run_cli(capsys, "chartable", "oracle-psl2", "--q", "4")
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    rc, out, _ = run_cli(capsys, "chartable", "verify", "--stdin")
    assert rc == 0
    assert json.loads(out)["passed"] is True


def test_verify_reads_a_csv_table(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "chartable", "oracle-mstar", "--q", "2", "--format", "csv")
    path = tmp_path / "m2.csv"
    path.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "verify", "--table", str(path))
    assert rc == 0
    assert json.loads(out)["passed"] is True


def test_compute_reads_a_csv_scheme(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "scheme", "orbitals", "--psl2", "5", "--format", "csv")
    path = tmp_path / "o5.csv"
    path.write_text(out)
    rc, out, _ = run_cli(capsys, "chartable", "compute", "--scheme", str(path))
    assert rc == 0
    from schemeforge.permgroup import orbitals
    want = compute_character_table(orbitals(psl2(5)))
    assert np.abs(CharacterTable.from_json(json.loads(out)).P - want.P).max() < 1e-12


def test_group_text_output_is_a_generator_file(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "group", "psl2", "--q", "5", "--format", "text")
    assert rc == 0
    path = tmp_path / "psl2_5.gens"
    path.write_text(out)
    rc, out, _ = run_cli(capsys, "group", "from-file", "--gens", str(path))
    assert rc == 0
    data = json.loads(out)
    assert (data["degree"], data["order"]) == (6, 60)


def test_group_sl2(capsys):
    rc, out, _ = run_cli(capsys, "group", "sl2", "--q", "3")
    assert rc == 0
    data = json.loads(out)
    assert (data["degree"], data["order"]) == (8, 24)


def test_paige_loop_json_exports_and_builds_a_scheme(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "paige", "build", "--q", "2")
    path = tmp_path / "loop.json"
    path.write_text(out)
    rc, out, _ = run_cli(capsys, "export", "--in", str(path), "--format", "text")
    assert rc == 0
    assert out == "paige loop: q=2 order=120\n"
    rc, out, _ = run_cli(capsys, "scheme", "loop-scheme", "--loop", str(path))
    assert rc == 0
    data = json.loads(out)
    assert data["valencies"] == [1, 56, 63]
    assert data["relations"]["source"]["kind"] == "paige-loop-scheme"
    assert data["relations"]["source"]["certificate"] == "exact"


def test_loop_file_with_a_fractional_digit_is_not_exported(capsys, tmp_path, paige2):
    data = paige2.to_json()
    row = data["elements"][5]
    data["elements"][5] = [row[0] + 0.25, *row[1:]]
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "export", "--in", str(path))
    assert rc == 2 and out == ""
    assert "ParseError" in err and "element 5 is" in err


def test_loop_file_out_of_canonical_order_exits_2(capsys, tmp_path, paige2, paige3):
    rows = paige2.to_json()["elements"]
    shuffled = {**paige2.to_json(), "elements": rows[:1] + rows[:0:-1]}
    rows = paige3.to_json()["elements"]
    rows[2] = [int(paige3.spec.neg_t[x]) for x in rows[2]]
    negated = {**paige3.to_json(), "elements": rows}
    for data in (shuffled, negated):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(data))
        rc, out, err = run_cli(capsys, "scheme", "loop-scheme", "--loop", str(path))
        assert rc == 2 and out == ""
        assert "ParseError" in err


def test_verify_of_a_table_that_does_not_fit_the_scheme_is_strict_json(capsys, tmp_path):
    # both are A5 on 60 points with 5 classes, in other orders, so the
    # valencies differ: the residuals are never computed and read null
    _, table, _ = run_cli(capsys, "chartable", "oracle-psl2", "--q", "4")
    (tmp_path / "o4.json").write_text(table)
    run_cli(capsys, "scheme", "group-scheme", "--psl2", "5",
            "--out", str(tmp_path / "x25.json"))
    rc, out, _ = run_cli(capsys, "chartable", "verify", "--table", str(tmp_path / "o4.json"),
                         "--scheme", str(tmp_path / "x25.json"))
    assert rc == 1

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    payload = json.loads(out, parse_constant=refuse)
    assert payload["passed"] is False and payload["checks"] == {"shape": False}
    assert payload["eigen_residual"] is None and payload["orthogonality_residual"] is None


@pytest.mark.parametrize("argv,text,message", [
    (("chartable", "verify", "--table"), "hello\n", "expected character-table JSON or CSV"),
    (("chartable", "compute", "--scheme"), "hello\n", "expected scheme JSON or CSV"),
    (("export", "--in"), "hello\n", "expected a JSON or CSV artifact"),
    (("export", "--in"), '{"foo": 1}\n', "unrecognized artifact"),
    (("chartable", "compute", "--scheme"),
     '{"relations": {"source": {"kind": "magic", "class_of": [0]}}}\n',
     "cannot rebuild a scheme from source kind 'magic'"),
])
def test_files_in_no_known_format_exit_2(capsys, tmp_path, argv, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    rc, _, err = run_cli(capsys, *argv, str(path))
    assert rc == 2
    assert f"ParseError: {message}" in err


@pytest.mark.parametrize("flags,message", [
    (("--cap-elements", "0"), "size caps must be positive"),
    (("--tol-eigen", "0.5"), "tol_eigen must lie in (0, 1e-2), got 0.5"),
])
def test_bad_settings_exit_2(capsys, flags, message):
    # paige table is a leaf that takes both settings
    rc, out, err = run_cli(capsys, "paige", "table", "--q", "2", *flags)
    assert rc == 2 and out == ""
    assert f"ValueError: {message}" in err


@pytest.mark.parametrize("argv,message", [
    (("chartable", "double-coset", "--psl2", "5", "--sub", "h.txt", "--stab", "0"),
     "pick exactly one subgroup source"),
    (("chartable", "double-coset", "--psl2", "5"), "pick exactly one subgroup source"),
    (("scheme", "loop-scheme", "--q", "2", "--loop", "l.table"), "pick exactly one loop source"),
    (("scheme", "loop-scheme"), "pick exactly one loop source"),
    (("scheme", "group-scheme", "--cyclic", "4", "--format", "latex"),
     "latex output is only defined for character tables"),
    (("paige", "build", "--q", "2", "--format", "csv"), "loop output supports json and text only"),
    (("group", "psl2", "--q", "5", "--format", "csv"), "group output supports json and text only"),
    (("chartable", "compute"), "missing input: pass --scheme FILE or --stdin"),
])
def test_conflicting_or_unsupported_options_exit_2(capsys, argv, message):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert f"UsageError: {message}" in err


def test_malformed_artifacts_exit_2(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "chartable", "oracle-psl2", "--q", "4")
    table = json.loads(out)
    table["P"] = table["P"][:-1]
    (tmp_path / "t4.json").write_text(json.dumps(table))
    rc, out, err = run_cli(capsys, "chartable", "verify", "--table", str(tmp_path / "t4.json"))
    assert rc == 2 and out == ""
    assert "ParseError: P must be 5 x 5" in err

    rc, out, _ = run_cli(capsys, "chartable", "oracle-psl2", "--q", "4", "--format", "csv")
    ragged = out.rstrip("\n").rsplit(",", 1)[0] + "\n"    # the last P row loses an entry
    (tmp_path / "t4.csv").write_text(ragged)
    rc, out, err = run_cli(capsys, "export", "--in", str(tmp_path / "t4.csv"))
    assert rc == 2 and out == ""
    assert "ParseError: table CSV P rows do not form a square matrix" in err

    rc, out, _ = run_cli(capsys, "scheme", "orbitals", "--symmetric", "3")
    scheme = json.loads(out)
    scheme["n"] = 4
    (tmp_path / "o3.json").write_text(json.dumps(scheme))
    rc, out, err = run_cli(capsys, "export", "--in", str(tmp_path / "o3.json"))
    assert rc == 2 and out == ""
    assert "ValueError: scheme JSON header disagrees with its matrix" in err

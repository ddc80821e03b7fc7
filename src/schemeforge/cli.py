"""Command-line frontend: construct, compute, verify, export.

Every run echoes its seed and the tolerances it takes on stderr so results
can be replayed.  Exit codes: 0 success, 1 a verification failed (a residual
exceeded its tolerance, a certificate did not hold), 2 usage or ingestion
errors, argparse's own included.  With --json-errors the failure reason is also written to stderr as
{"error": {"kind": ..., "detail": ...}}.

A subcommand is one declaration: its parser carries its own options, the
run settings its handler reads and its handler; the options every subcommand
shares come from one parent parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import chartab, loopcore, permgroup, scheme as scheme_mod, zorn
from .config import (DEFAULT_ELEMENT_CAP, DEFAULT_SEED, DEFAULT_TOL_COMPARE,
                     DEFAULT_TOL_EIGEN, OUTPUT_FORMATS)
from .errors import (CapExceeded, CertificationFailed, EigensolverFailure,
                     InvalidFusion, MismatchWithOrbitalTable, NonCommutative,
                     NonPositiveMultiplicity, NotAScheme, NotEnumerated,
                     NotGroupScheme, NotMultiplicityFree, NotSubgroup,
                     NotTransitive, ParseError, UnsupportedField, UnsupportedQ)

# failures of a computation or certificate -> exit 1
VERIFICATION_ERRORS = (NotAScheme, InvalidFusion, NonCommutative,
                       EigensolverFailure, NonPositiveMultiplicity,
                       NotGroupScheme, NotMultiplicityFree,
                       MismatchWithOrbitalTable, CertificationFailed)
# bad arguments, malformed files, out-of-scope requests -> exit 2
USAGE_ERRORS = (ParseError, UnsupportedField, UnsupportedQ, CapExceeded,
                NotTransitive, NotSubgroup, NotEnumerated, OSError,
                ValueError, KeyError, json.JSONDecodeError)


class _Exit(Exception):
    """Internal: carry an exit code through the dispatcher."""

    def __init__(self, code: int, message: str | None = None):
        super().__init__(message or "")
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors print its usage and leave as the
    usage exit, so main reports them like every other usage error."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _Exit(2, message)


def _int_any_base(text: str) -> int:
    return int(text, 0)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_int_any_base, default=DEFAULT_SEED,
                        help="seed (>= 0) of the eigencombinations and "
                             "samples (default 0x%X)" % DEFAULT_SEED)
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default="json",
                        help="output format (default json)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the result here instead of stdout")
    parser.add_argument("--json-errors", action="store_true",
                        help="machine-readable error report on stderr")


def _tolerances(args: argparse.Namespace) -> dict[str, float]:
    """The tolerances the leaf takes, by name."""
    return {k: getattr(args, k) for k in ("tol_eigen", "tol_compare") if hasattr(args, k)}


def _check_settings(args: argparse.Namespace) -> None:
    """Refuse the out-of-range values argparse's types let through."""
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if hasattr(args, "cap_elements") and args.cap_elements <= 0:
        raise ValueError("size caps must be positive")
    for name, tol in _tolerances(args).items():
        if not (0 < tol < 1e-2):
            raise ValueError(f"{name} must lie in (0, 1e-2), got {tol}")


def _echo_header(args: argparse.Namespace) -> None:
    tols = "".join(f" {name}={tol:g}" for name, tol in _tolerances(args).items())
    print(f"# schemeforge seed={args.seed:#x}{tols} format={args.format}", file=sys.stderr)


# ingestion: files or stdin, JSON or table CSV


def _read_text(args: argparse.Namespace, flag: str, value: str | None) -> str:
    if getattr(args, "stdin", False) and value is None:
        return sys.stdin.read()
    if value is None:
        raise _Exit(2, f"missing input: pass {flag} FILE or --stdin")
    return _read_file(value)


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_table(text: str) -> chartab.CharacterTable:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return chartab.CharacterTable.from_json(json.loads(text))
    if stripped.startswith("kind,character-table"):
        return chartab.table_from_csv(text)
    raise ParseError("expected character-table JSON or CSV")


def _recipe_ints(source: dict, key: str, ndim: int) -> np.ndarray:
    """Field `key` of a recipe as an ndim-dimensional integer array."""
    return scheme_mod.json_ints(source.get(key), ndim, f"{source.get('kind')} recipe {key!r}")


def _rebuild_functional_scheme(source, element_cap: int) -> scheme_mod.AssociationScheme:
    """Rebuild a homogeneous scheme from the recipe in its JSON source."""
    if not isinstance(source, dict):
        raise ParseError("scheme JSON has neither a matrix nor a source recipe")
    kind = source.get("kind")
    if kind == "fusion":
        cells = source.get("cells")
        if not isinstance(cells, list) or not all(
                isinstance(cell, list) and all(type(c) is int for c in cell) for cell in cells):
            raise ParseError("fusion recipe needs 'cells' as a list of integer lists")
        return scheme_mod.fuse(_rebuild_functional_scheme(source.get("base"), element_cap), cells)
    class_of = _recipe_ints(source, "class_of", 1)
    if kind == "group-scheme":
        gens = _recipe_ints(source, "generators", 2)
        try:
            group = permgroup.closure(gens)
        except ValueError as err:
            raise ParseError(f"group-scheme generators: {err}") from None
        built = permgroup.group_scheme(group)
        if built.source["class_of"] != class_of.tolist():
            raise ParseError("stored class_of is not the conjugacy classes of the generators")
        return built
    if kind == "paige-loop-scheme":
        loop = zorn.build_paige_loop(int(_recipe_ints(source, "q", 0)),
                                     element_cap=element_cap)
    elif kind == "loop-scheme":
        try:
            loop = loopcore.TableLoop(_recipe_ints(source, "table", 2))
        except ValueError as err:
            raise ParseError(f"loop-scheme table: {err}") from None
    else:
        raise ParseError(f"cannot rebuild a scheme from source kind {kind!r}")
    built = loopcore.loop_scheme(loop, class_of=class_of)
    # a Paige loop's recorded certificate is taken as written, like a stored
    # matrix; a table loop's is dropped, so its scheme gets the full scan
    if kind == "paige-loop-scheme" and "certificate" in source:
        built.source["certificate"] = source["certificate"]
    return built


def _load_scheme(text: str, element_cap: int) -> scheme_mod.AssociationScheme:
    stripped = text.lstrip()
    if stripped.startswith("kind,scheme"):
        return scheme_mod.scheme_from_csv(text)
    if not stripped.startswith("{"):
        raise ParseError("expected scheme JSON or CSV")
    data = json.loads(text)
    relations = data.get("relations") if isinstance(data.get("relations"), dict) else {}
    if "matrix" in relations:
        return scheme_mod.AssociationScheme.from_json(data)
    built = _rebuild_functional_scheme(relations.get("source"), element_cap)
    if [built.n, built.d, built.valencies.tolist()] != scheme_mod.json_header(data):
        raise ParseError("scheme JSON n, d or valencies disagree with its rebuilt relation")
    return built


def _resolve_group(args: argparse.Namespace) -> permgroup.PermutationGroup:
    picked = [name for name in ("gens", "psl2", "sl2", "cyclic", "symmetric")
              if getattr(args, name, None) is not None]
    if len(picked) != 1:
        raise _Exit(2, "pick exactly one group source: --gens/--psl2/--sl2/"
                       "--cyclic/--symmetric")
    which = picked[0]
    if which == "gens":
        gens = permgroup.load_generators(args.gens, degree=getattr(args, "points", None))
        return permgroup.closure(gens)
    if which == "psl2":
        return permgroup.psl2(args.psl2)
    if which == "sl2":
        return permgroup.sl2(args.sl2)
    if which == "cyclic":
        return permgroup.cyclic(args.cyclic)
    return permgroup.symmetric(args.symmetric)


def _add_group_source(parser: argparse.ArgumentParser, with_points: bool = False) -> None:
    parser.add_argument("--gens", metavar="FILE",
                        help="generator file: one permutation per line, "
                             "image list or cycles")
    parser.add_argument("--psl2", type=int, metavar="Q",
                        help="projective special linear group on the "
                             "projective line over GF(Q)")
    parser.add_argument("--sl2", type=int, metavar="Q",
                        help="special linear group on the nonzero vectors of GF(Q)^2")
    parser.add_argument("--cyclic", type=int, metavar="N")
    parser.add_argument("--symmetric", type=int, metavar="N")
    if with_points:
        parser.add_argument("--points", type=int, default=None,
                            help="expected degree of the generator file")


def _resolve_subgroup(group: permgroup.PermutationGroup,
                      args: argparse.Namespace) -> list[int]:
    if (args.sub is None) == (args.stab is None):
        raise _Exit(2, "pick exactly one subgroup source: --sub FILE or --stab POINT")
    if args.stab is not None:
        return permgroup.stabilizer(group, args.stab)
    gens = permgroup.load_generators(args.sub, degree=group.degree)
    sub = permgroup.closure(gens)
    try:
        members = group.rows_to_indices(sub.elements)
    except ValueError:
        raise NotSubgroup("subgroup file contains a permutation outside the group") from None
    return sorted(members.tolist())


# rendering


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _render_table(table: chartab.CharacterTable, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(table.to_json())
    if fmt == "csv":
        return chartab.table_to_csv(table)
    if fmt == "latex":
        return chartab.table_to_latex(table)
    return chartab.table_to_text(table)


def _render_scheme(sch: scheme_mod.AssociationScheme, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(sch.to_json())
    if fmt == "csv":
        return scheme_mod.scheme_to_csv(sch)
    if fmt == "latex":
        raise _Exit(2, "latex output is only defined for character tables")
    lines = [f"scheme: n={sch.n}, d={sch.d}",
             "valencies: " + " ".join(str(int(k)) for k in sch.valencies),
             "transpose: " + " ".join(str(int(t)) for t in sch.transpose_map)]
    if sch.n <= 64:
        for row in sch.dense_matrix():
            lines.append("  " + " ".join(str(int(c)) for c in row))
    return "\n".join(lines) + "\n"


def _render_loop(loop: zorn.PaigeLoop, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(loop.to_json())
    if fmt == "text":
        return f"paige loop: q={loop.q} order={loop.n}\n"
    raise _Exit(2, "loop output supports json and text only")


def _render_group(group: permgroup.PermutationGroup, fmt: str) -> str:
    if fmt == "json":
        return _dump_json({"degree": group.degree, "order": group.order,
                           "generators": group.generators.tolist()})
    if fmt == "text":
        # the text form is itself a loadable generator file
        lines = [" ".join(map(str, row)) for row in group.generators.tolist()]
        return "\n".join(lines) + "\n"
    raise _Exit(2, "group output supports json and text only")


def _render_report(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(payload)
    if fmt == "text":
        lines = [f"{key}: {value}" for key, value in payload.items()]
        return "\n".join(lines) + "\n"
    raise _Exit(2, "reports support json and text only")


def _write_output(text: str, args: argparse.Namespace) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# subcommand handlers: return (exit_code, rendered_output)


def _cmd_paige_build(args):
    loop = zorn.build_paige_loop(args.q, element_cap=args.cap_elements)
    return 0, _render_loop(loop, args.format)


def _cmd_paige_table(args):
    loop = zorn.build_paige_loop(args.q, element_cap=args.cap_elements)
    sch = loopcore.loop_scheme(loop, seed=args.seed)
    table = chartab.compute_character_table(sch, seed=args.seed,
                                            tol_eigen=args.tol_eigen)
    return 0, _render_table(table, args.format)


def _cmd_group(args):
    return 0, _render_group(_resolve_group(args), args.format)


def _cmd_scheme_orbitals(args):
    group = _resolve_group(args)
    sch = permgroup.orbitals(group, n_points=args.points)
    return 0, _render_scheme(sch, args.format)


def _cmd_scheme_group_scheme(args):
    group = _resolve_group(args)
    sch = permgroup.group_scheme(group)
    return 0, _render_scheme(sch, args.format)


def _load_loop(args) -> loopcore.LoopStructure:
    if (args.q is None) == (args.loop is None):
        raise _Exit(2, "pick exactly one loop source: --q Q or --loop FILE")
    if args.q is not None:
        return zorn.build_paige_loop(args.q, element_cap=args.cap_elements)
    text = _read_file(args.loop)
    if text.lstrip().startswith("{"):
        return zorn.PaigeLoop.from_json(json.loads(text))
    return loopcore.parse_loop_table(text)


def _cmd_scheme_loop_scheme(args):
    sch = loopcore.loop_scheme(_load_loop(args), seed=args.seed)
    return 0, _render_scheme(sch, args.format)


def _parse_cells(spec: str, d: int) -> list[list[int]]:
    cells = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            cells.append(sorted(int(tok) for tok in chunk.split(",")))
        except ValueError:
            raise _Exit(2, f"bad cell spec {chunk!r}; use e.g. '1,2;3'") from None
    named = {c for cell in cells for c in cell}
    for cls in range(d + 1):
        if cls not in named:
            cells.append([cls])
    return cells


def _cmd_scheme_fuse(args):
    sch = _load_scheme(_read_text(args, "--scheme", args.scheme), args.cap_elements)
    cells = _parse_cells(args.cells, sch.d)
    fused = scheme_mod.fuse(sch, cells)
    return 0, _render_scheme(fused, args.format)


def _cmd_scheme_verify(args):
    sch = _load_scheme(_read_text(args, "--scheme", args.scheme), args.cap_elements)
    report = scheme_mod.verify_scheme_axioms(sch, seed=args.seed)
    payload = {"passed": report.passed, "n": sch.n, "d": sch.d,
               "failures": list(report.failures)}
    return (0 if report.passed else 1), _render_report(payload, args.format)


def _cmd_chartable_compute(args):
    sch = _load_scheme(_read_text(args, "--scheme", args.scheme), args.cap_elements)
    table = chartab.compute_character_table(sch, seed=args.seed,
                                            tol_eigen=args.tol_eigen)
    return 0, _render_table(table, args.format)


def _cmd_chartable_oracle(args):
    builder = (chartab.closed_form_mstar if args.chartable_cmd == "oracle-mstar"
               else chartab.closed_form_psl2)
    return 0, _render_table(builder(args.q), args.format)


def _cmd_chartable_verify(args):
    table = _load_table(_read_text(args, "--table", args.table))
    if args.scheme is not None:
        sch = _load_scheme(_read_file(args.scheme), args.cap_elements)
        inter = scheme_mod.intersection_numbers(sch)
        report = chartab.verify_candidate_table(table, inter, tol=args.tol_compare)
        payload = {"passed": report.passed, "checks": report.checks,
                   "eigen_residual": report.max_eigen_residual,
                   "orthogonality_residual": report.orthogonality.max_residual}
    else:
        ortho = chartab.verify_orthogonality(table, tol=args.tol_compare)
        unit_col = float(np.abs(table.P[:, 0] - 1.0).max())
        valency_row = float(np.abs(table.P[0] - table.valencies).max()
                            / max(1, int(table.valencies.max())))
        passed = (ortho.passed and unit_col <= args.tol_compare
                  and valency_row <= args.tol_compare)
        payload = {"passed": bool(passed),
                   "orthogonality_residual": ortho.max_residual,
                   "unit_column_error": unit_col,
                   "valency_row_error": valency_row}
    return (0 if payload["passed"] else 1), _render_report(payload, args.format)


def _cmd_chartable_compare(args):
    table = _load_table(_read_text(args, "--table", args.table))
    other = _load_table(_read_file(args.other))
    match = chartab.compare_tables(table, other, tol=args.tol_compare)
    # a mismatch with no known bound on the deviation is written as null
    payload = {"matched": match.matched, "max_diff": match.max_diff}
    if match.matched:
        payload["row_perm"] = [int(i) for i in match.row_perm]
        payload["col_perm"] = [int(j) for j in match.col_perm]
    return (0 if match.matched else 1), _render_report(payload, args.format)


def _cmd_chartable_transfer(args):
    table = _load_table(_read_text(args, "--table", args.table))
    gct = chartab.transfer_to_group_table(table)
    payload = {
        "T": [[{"re": float(z.real), "im": float(z.imag)} for z in row]
              for row in gct.T],
        "degrees": [int(f) for f in gct.degrees],
        "class_sizes": [int(k) for k in gct.class_sizes],
        "order": int(gct.order),
        "column_orthogonality_residual": gct.column_orthogonality_residual(),
    }
    return 0, _render_report(payload, args.format)


def _cmd_chartable_double_coset(args):
    group = _resolve_group(args)
    members = _resolve_subgroup(group, args)
    result = chartab.double_coset_table(group, members, seed=args.seed,
                                        tol=args.tol_compare,
                                        tol_eigen=args.tol_eigen)
    if args.format in ("csv", "latex", "text"):
        return 0, _render_table(result.table, args.format)
    payload = {"table": result.table.to_json(),
               "constituents": result.constituents,
               "theta": [float(t) for t in result.theta],
               "double_coset_sizes": [int(s) for s in result.part_sizes],
               "orbital_match_max_diff": result.orbital_match.max_diff}
    return 0, _dump_json(payload)


def _cmd_export(args):
    text = _read_text(args, "--in", getattr(args, "in_file"))
    stripped = text.lstrip()
    if stripped.startswith("kind,character-table"):
        return 0, _render_table(chartab.table_from_csv(text), args.format)
    if stripped.startswith("kind,scheme"):
        return 0, _render_scheme(scheme_mod.scheme_from_csv(text), args.format)
    if not stripped.startswith("{"):
        raise ParseError("expected a JSON or CSV artifact")
    data = json.loads(text)
    if "P" in data:
        return 0, _render_table(chartab.CharacterTable.from_json(data), args.format)
    if "relations" in data:
        return 0, _render_scheme(_load_scheme(text, args.cap_elements), args.format)
    if "elements" in data:
        return 0, _render_loop(zorn.PaigeLoop.from_json(data), args.format)
    raise ParseError("unrecognized artifact; expected a table, scheme or loop")


# parser assembly


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The schemeforge parser, built once a process: parse_args reads it
    and fills a fresh namespace on every call."""
    parser = _Parser(
        prog="schemeforge",
        description="Association schemes from groups and Paige loops, "
                    "with numerically verified character tables.")
    common, tol_eigen, tol_compare, cap = (argparse.ArgumentParser(add_help=False)
                                           for _ in range(4))
    _add_common(common)
    tol_eigen.add_argument("--tol-eigen", type=float, default=DEFAULT_TOL_EIGEN,
                           help="eigensolver residual tolerance")
    tol_compare.add_argument("--tol-compare", type=float, default=DEFAULT_TOL_COMPARE,
                             help="table comparison / verification tolerance")
    cap.add_argument("--cap-elements", type=int, default=DEFAULT_ELEMENT_CAP,
                     help=f"most elements a loop may have (default {DEFAULT_ELEMENT_CAP:,})")

    def leaf(sub, name: str, handler, help: str, *settings) -> argparse.ArgumentParser:
        # only the handler is a leaf default: the parent parsers' actions are
        # shared by their leaves, and so would be a default set on their dests
        p = sub.add_parser(name, help=help, parents=[common, *settings])
        p.set_defaults(handler=handler)
        return p

    top = parser.add_subparsers(dest="command", required=True)

    paige = top.add_parser("paige", help="simple Moufang loops over GF(q)")
    paige_sub = paige.add_subparsers(dest="paige_cmd", required=True)
    p_build = leaf(paige_sub, "build", _cmd_paige_build, "enumerate the loop elements", cap)
    p_build.add_argument("--q", type=int, required=True)
    p_table = leaf(paige_sub, "table", _cmd_paige_table,
                   "full pipeline: loop, inner orbits, scheme, table", tol_eigen, cap)
    p_table.add_argument("--q", type=int, required=True)

    group = top.add_parser("group", help="permutation group constructors")
    group_sub = group.add_subparsers(dest="group_cmd", required=True)
    for name, help_text in (("psl2", "PSL(2,q) on the projective line"),
                            ("sl2", "SL(2,q) on the nonzero vectors")):
        g = leaf(group_sub, name, _cmd_group, help_text)
        g.add_argument("--q", dest=name, metavar="Q", type=int, required=True)
    g_file = leaf(group_sub, "from-file", _cmd_group, "closure of a generator file")
    g_file.add_argument("--gens", metavar="FILE", required=True)
    g_file.add_argument("--points", type=int, default=None,
                        help="expected degree of the generator file")

    sch = top.add_parser("scheme", help="association scheme constructions")
    sch_sub = sch.add_subparsers(dest="scheme_cmd", required=True)
    s_orb = leaf(sch_sub, "orbitals", _cmd_scheme_orbitals,
                 "2-orbit scheme of a transitive group")
    _add_group_source(s_orb, with_points=True)
    s_grp = leaf(sch_sub, "group-scheme", _cmd_scheme_group_scheme,
                 "conjugacy scheme of a group")
    _add_group_source(s_grp)
    s_loop = leaf(sch_sub, "loop-scheme", _cmd_scheme_loop_scheme,
                  "inner-orbit scheme of a loop", cap)
    s_loop.add_argument("--q", type=int, default=None,
                        help="build the simple Moufang loop over GF(q)")
    s_loop.add_argument("--loop", metavar="FILE", default=None,
                        help="loop table file or loop JSON")
    s_fuse = leaf(sch_sub, "fuse", _cmd_scheme_fuse, "merge classes along a partition", cap)
    s_fuse.add_argument("--scheme", metavar="FILE", default=None)
    s_fuse.add_argument("--stdin", action="store_true",
                        help="read the scheme from stdin")
    s_fuse.add_argument("--cells", required=True,
                        help="cells separated by ';', members by ','; "
                             "unlisted classes stay singletons")
    s_verify = leaf(sch_sub, "verify", _cmd_scheme_verify, "check the scheme axioms", cap)
    s_verify.add_argument("--scheme", metavar="FILE", default=None)
    s_verify.add_argument("--stdin", action="store_true")

    chart = top.add_parser("chartable", help="character tables and verification")
    chart_sub = chart.add_subparsers(dest="chartable_cmd", required=True)
    c_compute = leaf(chart_sub, "compute", _cmd_chartable_compute,
                     "table of a scheme by simultaneous diagonalization", tol_eigen, cap)
    c_compute.add_argument("--scheme", metavar="FILE", default=None)
    c_compute.add_argument("--stdin", action="store_true")
    for name, help_text in (
            ("oracle-mstar", "closed-form table of the Moufang loop scheme"),
            ("oracle-psl2", "closed-form table of the PSL(2,q) group scheme")):
        c = leaf(chart_sub, name, _cmd_chartable_oracle, help_text + ", q = 2^r")
        c.add_argument("--q", type=int, required=True)
    c_verify = leaf(chart_sub, "verify", _cmd_chartable_verify,
                    "orthogonality and, with --scheme, the full candidate check",
                    tol_compare, cap)
    c_verify.add_argument("--table", metavar="FILE", default=None)
    c_verify.add_argument("--stdin", action="store_true")
    c_verify.add_argument("--scheme", metavar="FILE", default=None,
                          help="verify the table against this scheme's "
                               "intersection numbers")
    c_compare = leaf(chart_sub, "compare", _cmd_chartable_compare,
                     "match two tables up to row/column permutation", tol_compare)
    c_compare.add_argument("--table", metavar="FILE", default=None)
    c_compare.add_argument("--stdin", action="store_true",
                           help="read the first table from stdin")
    c_compare.add_argument("--other", metavar="FILE", required=True)
    c_transfer = leaf(chart_sub, "transfer", _cmd_chartable_transfer,
                      "group character table T = diag(f) P diag(1/k)")
    c_transfer.add_argument("--table", metavar="FILE", default=None)
    c_transfer.add_argument("--stdin", action="store_true")
    c_dc = leaf(chart_sub, "double-coset", _cmd_chartable_double_coset,
                "table from double cosets and group characters", tol_eigen, tol_compare)
    _add_group_source(c_dc)
    c_dc.add_argument("--sub", metavar="FILE", default=None,
                      help="generator file for the subgroup H")
    c_dc.add_argument("--stab", type=int, default=None,
                      help="use the stabilizer of this point as H")

    exp = leaf(top, "export", _cmd_export, "re-emit an artifact in another format", cap)
    exp.add_argument("--in", dest="in_file", metavar="FILE", default=None)
    exp.add_argument("--stdin", action="store_true")

    return parser


def _report_error(as_json: bool, kind: str, detail: str) -> None:
    if as_json:
        print(json.dumps({"error": {"kind": kind, "detail": detail}}),
              file=sys.stderr)
    else:
        print(f"schemeforge: {kind}: {detail}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # until the flags are parsed; argparse takes a unique prefix of a long
    # option for the option, and no other option starts with --j
    as_json = any(len(arg) > 2 and "--json-errors".startswith(arg) for arg in argv)
    try:
        args = build_parser().parse_args(argv)
        as_json = args.json_errors
        _check_settings(args)
        _echo_header(args)
        code, output = args.handler(args)
        if output is not None:
            _write_output(output, args)
        return code
    except _Exit as exc:
        if exc.message:
            _report_error(as_json, "UsageError", exc.message)
        return exc.code
    except VERIFICATION_ERRORS as exc:
        _report_error(as_json, type(exc).__name__, str(exc))
        return 1
    except USAGE_ERRORS as exc:
        _report_error(as_json, type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())

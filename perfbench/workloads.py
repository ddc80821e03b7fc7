"""The four benchmark workloads and the correctness gate they are held to.

Every call into schemeforge goes through a module attribute looked up at
call time (`zorn.build_paige_loop(...)`, never a name imported once), so the
wrappers that a traced run installs see the benchmark's own calls too.

A workload is a sequence of operations.  Each operation counts as attempted;
it fails when it raises, when its certificate does not hold, or when its
recorded output differs from the pinned one in expected.json.  An operation
that is meant to be rejected succeeds exactly when it raises the named
error.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from schemeforge import chartab, cli, errors, loopcore, permgroup, scheme, zorn

TABLE_TOL = 1e-8


class Run:
    """Attempted and failed operations of one workload run, and their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed: set[str] = set()
        self.errors: list[str] = []
        self.outputs: dict[str, object] = {}
        self.cli_output_bytes = 0

    def op(self, label, fn, *args, ok=None, out=None, rejects=None, **kwargs):
        """Run fn(*args, **kwargs) as one operation named `label`.

        `ok` judges the result, `out` turns it into the JSON value checked
        against expected.json, and `rejects` names the error an expected
        rejection must raise.  Returns the result, or None on failure."""
        if label in self.outputs or label in self.failed:
            raise ValueError(f"operation label {label!r} used twice")
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            if rejects is not None and isinstance(exc, rejects):
                self.outputs[label] = type(exc).__name__
                return exc
            self._fail(label, f"{type(exc).__name__}: {exc}")
            return None
        if rejects is not None:
            self._fail(label, f"expected {rejects.__name__}, got a result")
            return None
        if ok is not None and not ok(result):
            self._fail(label, "certificate did not hold")
            return None
        if out is not None:
            self.outputs[label] = out(result)
        return result

    def _fail(self, label: str, why: str) -> None:
        self.failed.add(label)
        self.errors.append(f"{label}: {why}")

    def gate(self, expected: dict) -> list[str]:
        """Compare recorded outputs with the pinned ones; a mismatching
        operation is counted as failed.  Returns the mismatches."""
        mismatches = []
        for label, want in expected.items():
            if label in self.failed:
                continue
            got = self.outputs.get(label)
            if not outputs_match(got, want):
                mismatches.append(label)
                self._fail(label, "output differs from expected.json: "
                           + describe_mismatch(got, want))
        return mismatches


def outputs_match(got, want) -> bool:
    if isinstance(want, dict) and "P" in want:
        return isinstance(got, dict) and tables_match(got, want)
    return got == want


def tables_match(got: dict, want: dict, tol: float = TABLE_TOL) -> bool:
    """Equal valencies, and rows paired one to one with entries within tol
    and multiplicities within tol * n (rows may come in any order)."""
    if got["k"] != want["k"]:
        return False
    P1 = np.array(got["P"], dtype=np.float64)
    P2 = np.array(want["P"], dtype=np.float64)
    m1, m2 = np.array(got["m"]), np.array(want["m"])
    if P1.shape != P2.shape:
        return False
    m_tol = tol * sum(want["k"])
    unused = list(range(P2.shape[0]))
    for i in range(P1.shape[0]):
        hit = next((j for j in unused
                    if np.abs(P1[i] - P2[j]).max() <= tol
                    and abs(m1[i] - m2[j]) <= m_tol), None)
        if hit is None:
            return False
        unused.remove(hit)
    return True


def describe_mismatch(got, want) -> str:
    """The output, or for a table of the pinned shape how far its rows are
    from the nearest pinned rows."""
    if not (isinstance(want, dict) and "P" in want and isinstance(got, dict)
            and np.shape(got["P"]) == np.shape(want["P"])):
        return f"{got!r:.200}"
    P1 = np.array(got["P"], dtype=np.float64)
    P2 = np.array(want["P"], dtype=np.float64)
    nearest = np.abs(P1[:, None] - P2[None, :]).reshape(
        P1.shape[0], P2.shape[0], -1).max(axis=2).min(axis=1)
    m_dev = max(min(abs(a - b) for b in want["m"]) for a in got["m"])
    return (f"table rows lie up to {nearest.max():.3g} from the pinned rows "
            f"(limit {TABLE_TOL:g}), multiplicities up to {m_dev:.3g}")


def table_out(table) -> dict:
    """A character table as JSON: rows of [re, im] pairs."""
    return {"k": [int(k) for k in table.valencies],
            "m": [float(m) for m in table.multiplicities],
            "P": [[[float(z.real), float(z.imag)] for z in row] for row in table.P]}


def _passed(report) -> bool:
    return report.passed


def _matched(match) -> bool:
    return match.matched


def _table_pipeline(run: Run, key: str, sch, seed: int):
    """Intersection numbers, table and both certificates of a scheme."""
    inter = run.op(f"{key}.intersection_numbers", scheme.intersection_numbers, sch)
    table = run.op(f"{key}.table", chartab.compute_character_table, inter,
                   seed=seed, out=table_out)
    run.op(f"{key}.orthogonality", chartab.verify_orthogonality, table, ok=_passed)
    run.op(f"{key}.candidate", chartab.verify_candidate_table, table, inter,
           ok=_passed)
    return table


def _loop_pipeline(run: Run, key: str, q: int, seed: int, policy: str = "auto"):
    loop = run.op(f"{key}.build", zorn.build_paige_loop, q, out=lambda lp: lp.n)
    orbits = run.op(f"{key}.inner_orbits", loopcore.inner_orbits, loop,
                    policy=policy, seed=seed, ok=lambda r: r.certified,
                    out=lambda r: r.class_sizes)
    sch = run.op(f"{key}.loop_scheme", loopcore.loop_scheme, loop, class_of=orbits)
    return _table_pipeline(run, key, sch, seed)


def mstar5(run: Run, seed: int, workdir: str) -> None:
    _loop_pipeline(run, "mstar5", 5, seed, policy="randomized")


def psl2_16(run: Run, seed: int, workdir: str) -> None:
    group = run.op("psl2_16.closure", permgroup.psl2, 16, out=lambda g: g.order)
    run.op("psl2_16.classes", lambda: group.conjugacy_classes(),
           out=lambda cl: [len(c) for c in cl])
    sch = run.op("psl2_16.group_scheme", permgroup.group_scheme, group,
                 out=lambda s: s.valencies.tolist())
    table = _table_pipeline(run, "psl2_16", sch, seed)
    run.op("psl2_16.transfer", chartab.transfer_to_group_table, table,
           ok=lambda g: g.verify(), out=lambda g: sorted(g.degrees.tolist()))
    # raises EigensolverFailure at q = 16 until table matching is polynomial
    run.op("psl2_16.closed_form",
           lambda: chartab.compare_tables(table, chartab.closed_form_psl2(16),
                                          tol=TABLE_TOL), ok=_matched)


MSTAR8_ORDER = 2_096_640


def _witness_holds(loop, witness) -> bool:
    if witness is None:
        return False
    x, y, z = witness
    return loop.mul(loop.mul(x, y), z) != loop.mul(x, loop.mul(y, z))


def mstar8_loop(run: Run, seed: int, workdir: str) -> None:
    loop = run.op("mstar8.build", zorn.build_paige_loop, 8,
                  element_cap=MSTAR8_ORDER, out=lambda lp: lp.n)
    run.op("mstar8.moufang", loopcore.moufang_check, loop, samples=100_000,
           seed=seed, ok=_passed, out=lambda r: [r.mode, r.triples_checked])
    run.op("mstar8.associativity", loopcore.associativity_counterexample, loop,
           seed=seed, ok=lambda w: _witness_holds(loop, w),
           out=lambda w: w is not None)


def _cli(run: Run, label: str, argv: list[str], out_file: str | None = None,
         parse=None) -> None:
    """One in-process `schemeforge` call; succeeds on exit code 0.  `parse`
    turns its standard output into the value checked against expected.json."""
    stdout, stderr = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            return cli.main(argv + (["--out", out_file] if out_file else []))

    run.op(label, call, ok=lambda code: code == 0,
           out=(lambda code: parse(stdout.getvalue())) if parse else None)
    run.cli_output_bytes += len(stdout.getvalue().encode())
    if out_file and os.path.exists(out_file):
        run.cli_output_bytes += os.path.getsize(out_file)


PSL2_SUITE = (4, 5, 7, 8, 9, 11, 13)


def _fuse_twelves(group):
    """Fuse the two classes of size 12 in the conjugacy scheme of PSL(2,5)."""
    base = permgroup.group_scheme(group)
    twelves = [i for i, v in enumerate(base.valencies.tolist()) if v == 12]
    cells = [[i] for i in range(base.d + 1) if i not in twelves] + [twelves]
    return scheme.fuse(base, cells)


def small_suite(run: Run, seed: int, workdir: str) -> None:
    # M*(2) on the exact pair-orbit path, against its closed form
    table = _loop_pipeline(run, "mstar2", 2, seed)
    run.op("mstar2.closed_form",
           lambda: chartab.compare_tables(table, chartab.closed_form_mstar(2),
                                          tol=TABLE_TOL), ok=_matched)
    # M*(3): randomized refinement, dense relation built row by row
    _loop_pipeline(run, "mstar3", 3, seed)

    groups = {}
    for q in PSL2_SUITE:
        key = f"psl2_{q}"
        group = groups[q] = run.op(f"{key}.closure", permgroup.psl2, q,
                                   out=lambda g: g.order)
        sch = run.op(f"{key}.group_scheme", permgroup.group_scheme, group,
                     out=lambda s: s.valencies.tolist())
        table = _table_pipeline(run, key, sch, seed)
        if q in (4, 8):
            run.op(f"{key}.closed_form",
                   lambda: chartab.compare_tables(table, chartab.closed_form_psl2(q),
                                                  tol=TABLE_TOL), ok=_matched)
        orb = run.op(f"{key}.orbitals", permgroup.orbitals, group,
                     out=lambda s: s.valencies.tolist())
        _table_pipeline(run, f"{key}.orbitals", orb, seed)

    g5 = groups[5]
    run.op("psl2_5.double_coset",
           lambda: chartab.double_coset_table(g5, permgroup.stabilizer(g5, 0),
                                              seed=seed, tol=TABLE_TOL),
           out=lambda dc: table_out(dc.table))

    fused = run.op("fusion.valid", _fuse_twelves, g5,
                   out=lambda s: s.valencies.tolist())
    _table_pipeline(run, "fusion.valid", fused, seed)
    run.op("fusion.invalid",
           lambda: scheme.fuse(permgroup.group_scheme(permgroup.cyclic(4)),
                               [[0], [1, 2], [3]]),
           rejects=errors.InvalidFusion)

    s = ["--seed", str(seed)]
    x8, t8, o8 = (os.path.join(workdir, f"{name}.json") for name in ("x8", "t8", "o8"))
    for path in (x8, t8, o8):      # a file left by an earlier rep must not stand in
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    _cli(run, "cli.paige_table", ["paige", "table", "--q", "2"] + s, parse=_parse_table)
    _cli(run, "cli.group_scheme", ["scheme", "group-scheme", "--psl2", "8"] + s, x8)
    _cli(run, "cli.compute", ["chartable", "compute", "--scheme", x8] + s, t8)
    _cli(run, "cli.oracle", ["chartable", "oracle-psl2", "--q", "8"] + s, o8)
    _cli(run, "cli.compare", ["chartable", "compare", "--table", t8, "--other", o8] + s)
    _cli(run, "cli.double_coset",
         ["chartable", "double-coset", "--psl2", "5", "--stab", "0"] + s)


def _parse_table(text: str):
    try:
        return table_out(chartab.CharacterTable.from_json(json.loads(text)))
    except (ValueError, errors.ParseError):
        return None


WORKLOADS = {
    "mstar5": mstar5,
    "psl2_16": psl2_16,
    "small_suite": small_suite,
    "mstar8_loop": mstar8_loop,
}

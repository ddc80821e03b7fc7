"""Tests of the benchmark harness itself, on tiny inputs.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import run as bench
from schemeforge import chartab, errors, permgroup, zorn
from spans import Instrumentation, Recorder, Span, self_time_by_name, self_times
from worker import layer_metrics
from workloads import Run, table_out, tables_match

HERE = Path(__file__).resolve().parent


def _span(i, name, start, end, parent):
    return Span(i, name, start, end, parent, "test")


def test_self_time_subtracts_only_direct_children():
    spans = [_span(0, "root", 0.0, 10.0, None),
             _span(1, "a", 1.0, 4.0, 0),
             _span(2, "a.inner", 2.0, 3.0, 1),
             _span(3, "b", 5.0, 6.0, 0)]
    own = self_times(spans)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, "root", 0.0, 4.0, None),
             _span(1, "x", 1.0, 3.0, 0),
             _span(2, "x", 2.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)
    assert self_time_by_name(spans)["x"] == pytest.approx(5.0)


def test_recorder_links_parents_and_run_id():
    rec = Recorder("r1")
    outer = rec.open()
    inner = rec.open()
    rec.close("inner", inner)
    rec.close("outer", outer)
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert {s.run_id for s in rec.spans} == {"r1"}
    assert by_name["outer"].start <= by_name["inner"].start <= by_name["inner"].end


def _boom():
    raise errors.EigensolverFailure("no")


def test_fail_counting_and_expected_rejections():
    run = Run()
    assert run.op("fine", lambda: 3, out=lambda v: v) == 3
    assert run.op("raises", _boom) is None
    assert run.op("bad_certificate", lambda: 0, ok=bool) is None
    run.op("rejected", _boom, rejects=errors.EigensolverFailure)
    run.op("not_rejected", lambda: 1, rejects=errors.InvalidFusion)
    run.op("wrong_rejection", _boom, rejects=errors.InvalidFusion)
    assert run.attempted == 6
    assert run.failed == {"raises", "bad_certificate", "not_rejected",
                          "wrong_rejection"}
    reps = [{"traced": False, "attempted": 6, "failed": 4, "mismatches": [],
             "time_to_certified_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0},
            {"traced": False, "attempted": 6, "failed": 0, "mismatches": [],
             "time_to_certified_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0}]
    summary = bench.summarize(reps, [0.1], trace=False)
    assert (summary["attempted"], summary["failed"]) == (12, 4)
    assert summary["metrics"]["ok_share"]["value"] == pytest.approx(8 / 12)


@pytest.fixture(scope="module")
def mstar2_table():
    from schemeforge import loopcore
    loop = zorn.build_paige_loop(2)
    sch = loopcore.loop_scheme(loop, loopcore.inner_orbits(loop))
    return table_out(chartab.compute_character_table(sch))


def test_gate_flags_a_perturbed_table(mstar2_table):
    want = mstar2_table
    assert tables_match(json.loads(json.dumps(want)), want)
    reordered = dict(want, P=want["P"][::-1], m=want["m"][::-1])
    assert tables_match(reordered, want)
    for i, j in [(0, 0), (1, 2), (2, 1)]:
        bad = json.loads(json.dumps(want))
        bad["P"][i][j][0] += 1e-6
        assert not tables_match(bad, want)
    run = Run()
    run.op("mstar2.table", lambda: bad, out=lambda t: t)
    assert run.gate({"mstar2.table": want}) == ["mstar2.table"]
    assert run.failed == {"mstar2.table"}
    assert "up to 1e-06 from the pinned rows" in run.errors[0]


def test_pinned_outputs_cover_every_workload():
    expected = json.loads((HERE / "expected.json").read_text())
    assert set(expected) == set(bench.WORKLOADS)
    assert expected["mstar8_loop"]["mstar8.build"] == 2_096_640
    assert expected["mstar8_loop"]["mstar8.associativity"] is True
    assert expected["mstar5"]["mstar5.inner_orbits"] == [1, 7875, 15500, 15624]
    assert expected["small_suite"]["fusion.invalid"] == "InvalidFusion"


def test_instrumentation_records_layers_and_restores_modules():
    original = permgroup.closure
    rec = Recorder("t")
    run = Run()
    with Instrumentation(rec):
        assert permgroup.closure is not original
        group = permgroup.psl2(4)
        sch = permgroup.group_scheme(group)
        sch.rel_row(0), sch.rel_col(1)
        table = chartab.compute_character_table(sch)
        assert chartab.verify_orthogonality(table).passed
        loop = zorn.build_paige_loop(2)
        loop.mul(3, 4)
    assert permgroup.closure is original
    metrics = layer_metrics(rec, run)
    for name in ("permgroup.closure_s", "permgroup.classes_s",
                 "permgroup.mul_table_s", "permgroup.group_scheme_s",
                 "scheme.intersection_numbers_s", "chartab.eigensolve_s",
                 "chartab.certify_s", "zorn.build_s", "zorn.mul_vec_s",
                 "gf.field_for_s"):
        assert metrics[name] > 0, name
    assert metrics["permgroup.elements"] == 60
    assert metrics["zorn.mul_vec_calls"] == 1
    assert metrics["zorn.products"] == 1
    assert metrics["scheme.rows_read"] == 2


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(bench.PER_LAYER)
    for m in spec["end_to_end"]:
        assert m["unit"] == bench.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == bench.PER_LAYER[m["name"]]

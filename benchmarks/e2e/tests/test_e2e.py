"""cods-e2e checks itself at ``--smoke`` sizes (< 60 s):

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

from __future__ import annotations

import argparse
import copy
import json
import re

import pytest

import catalog
import compare
import datagen
import procs
import run
from workloads import WORKLOAD_CLASSES

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def smoke_args(workload: str, trace: int, tmp_path=None) -> argparse.Namespace:
    return argparse.Namespace(
        workload=workload, seed=2010, seconds=float(catalog.REFERENCE_SECONDS),
        reps=2, smoke=True, trace=trace,
        trace_dir=str(tmp_path) if tmp_path else None,
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced smoke run of each single-client workload."""
    directory = tmp_path_factory.mktemp("traces")
    return {
        name: run.run_workload(smoke_args(name, 1, directory))
        for name in (catalog.ANALYTIC, catalog.RAW, catalog.OLTP,
                     catalog.EVOLVE)
    }


def counters_of(workload: str) -> dict:
    config = procs.RunConfig(seed=2010, seconds=12.0, smoke=True)
    try:
        rep = WORKLOAD_CLASSES[workload](config).run_rep()
    finally:
        config.cleanup()
    assert rep.failed == 0
    return rep.extras["counters"]


# -- inputs ---------------------------------------------------------------

def test_same_seed_same_inputs_other_seed_other_inputs():
    def inputs(seed):
        f = datagen.generate_f(seed, 3000)
        r = datagen.generate_r(seed, 3000, 30)
        streams = (
            datagen.analytic_stream(seed, f, 3),
            datagen.read_after_write_stream(seed, f, 20),
            datagen.oltp_stream(seed, f, 50),
            datagen.reader_stream(seed, f, 30),
            [op for txn in datagen.writer_transactions(seed, 4) for op in txn],
        )
        return (f.digest(), r.digest(), f.rows()[:50],
                datagen.r_delta_rows(seed, r, 10),
                [datagen.stream_digest(ops) for ops in streams])

    assert inputs(7) == inputs(7)
    first, other = inputs(7), inputs(8)
    assert first[0] != other[0] and first[1] != other[1]
    assert all(a != b for a, b in zip(first[4], other[4]))


def test_generated_tables_keep_the_dependency():
    for table in (datagen.generate_f(3, 4000),
                  datagen.generate_r(3, 4000, 40)):
        addresses = {}
        for row in table.rows():
            assert addresses.setdefault(row[0], row[2]) == row[2]
        assert table.table().nrows == table.nrows


# -- names, schema, BENCHMARK.json -----------------------------------------

def test_catalogue_names_and_units_are_well_formed():
    for name in catalog.WORKLOADS:
        assert NAME.match(name)
    for name, spec in catalog.END_TO_END.items():
        assert NAME.match(name) and UNIT.match(spec[0])
        assert spec[1] in ("lower", "higher") and 0 <= spec[2] <= 0.25
    for name, spec in catalog.PER_LAYER.items():
        assert NAME.match(name) and UNIT.match(spec[0]), name
        assert name.split(".")[0] in (
            "client", "server", "db", "sql", "exec", "delta", "wal",
            "storage", "bitmap", "core", "obs", "bench",
        )
    assert len(catalog.PER_LAYER) <= 128
    operators = {f"core.smo_{op}_ms" for op in datagen.SMO_OPERATORS}
    assert len(operators) == 11 and operators <= set(catalog.PER_LAYER)


def test_benchmark_json_is_the_catalogue_and_within_the_contract():
    path = procs.ROOT / "BENCHMARK.json"
    text = path.read_text()
    document = json.loads(text)
    assert document == catalog.benchmark_json()
    assert len(text.encode()) <= 64 * 1024
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(document["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in document["workloads"])
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    names += [w["name"] for w in document["workloads"]]
    assert len(names) == len(set(names))
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in document["end_to_end"])}]
    runs = 4 + 22 * len(document["workloads"])
    assert isinstance(document["run_seconds"], int)
    assert runs * 30 <= 3420


def test_result_schema_and_driver_lines(traced):
    for name, result in traced.items():
        assert result["correct"], result.get("errors")
        assert result["failed"] == 0 and result["attempted"] >= 1
        for metric, value in result["end_to_end"].items():
            assert metric in catalog.END_TO_END
            assert name in catalog.END_TO_END[metric][3]
            assert {"value", "unit", "n", "min", "max", "spread"} <= set(value)
            assert value["unit"] == catalog.END_TO_END[metric][0]
        assert result["end_to_end"]["failed_ops_frac"]["value"] == 0.0
        for trace, wanted in ((0, catalog.DRIVER_END_TO_END),
                              (1, catalog.PER_LAYER)):
            line = json.loads(run.driver_line(result, bool(trace)))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == list(wanted)
            for metric, value in line["metrics"].items():
                assert set(value) == {"value", "unit"}
                assert isinstance(value["value"], float)
        end_to_end = json.loads(run.driver_line(result, False))["metrics"]
        assert all(value["value"] > 0 for value in end_to_end.values())


# -- what the traced pass must show ----------------------------------------

def test_ladder_residual_and_bypass_predictions(traced):
    for name in (catalog.ANALYTIC, catalog.RAW):
        layer = traced[name]["per_layer"]
        assert layer["exec.ladder_residual_frac"]["value"] <= 0.15
        assert layer["exec.scan_main_ms"]["value"] > 0
    assert traced[catalog.ANALYTIC]["per_layer"]["exec.scan_delta_ms"][
        "value"] == 0.0
    assert traced[catalog.RAW]["per_layer"]["exec.scan_delta_ms"]["value"] > 0
    for name, result in traced.items():
        assert all(result["bypass"].values()), result["bypass"]
        spans = {s.split(".")[0] for s in result["trace"]["stream_span_names"]}
        assert not spans & {"client", "server"}
    assert traced[catalog.EVOLVE]["counters"]["exec.rows_decoded"] == 0
    for name in (catalog.ANALYTIC, catalog.RAW, catalog.EVOLVE):
        assert traced[name]["counters"]["wal.appends"] == 0
    assert traced[catalog.OLTP]["counters"]["wal.appends"] > 0
    assert traced[catalog.OLTP]["lost_acknowledged_writes"] == 0


def test_trace_file_holds_spans(traced):
    path = traced[catalog.OLTP]["trace"]["trace_file"]
    document = json.loads(open(path).read())
    assert document["columns"] == ["name", "start_s", "end_s", "parent",
                                   "request_id"]
    names = {span[0] for span in document["spans"]}
    assert {"db.session", "delta.compact_step", "wal.checkpoint"} <= names
    assert all(span[2] >= span[1] for span in document["spans"])


def test_counters_repeat_exactly(traced):
    again = counters_of(catalog.OLTP)
    for key in ("wal.appends", "wal.bytes", "wal.fsyncs"):
        assert again[key] == traced[catalog.OLTP]["counters"][key] > 0
    for name in (catalog.ANALYTIC, catalog.RAW):
        assert counters_of(name)["exec.rows_decoded"] == \
            traced[name]["counters"]["exec.rows_decoded"] > 0
    first = traced[catalog.EVOLVE]["per_layer"]
    second = run.run_workload(smoke_args(catalog.EVOLVE, 1))["per_layer"]
    for key in ("core.bitmaps_reused", "core.bitmaps_created",
                "core.bitmaps_filtered", "core.columns_decompressed"):
        assert first[key]["value"] == second[key]["value"]
    assert first["core.bitmaps_reused"]["value"] > 0


def test_the_wire_workload_runs_and_checks_out():
    config = procs.RunConfig(seed=2010, seconds=12.0, smoke=True)
    try:
        rep = WORKLOAD_CLASSES[catalog.HTAP](config).run_rep()
    finally:
        config.cleanup()
    assert rep.failed == 0, rep.extras["errors"]
    assert rep.extras["counters"]["server.requests"] > 0
    assert len(rep.latencies["txn"]) >= 2


# -- compare, aa ------------------------------------------------------------

def as_set(traced) -> dict:
    return {"workloads": copy.deepcopy(traced)}


def steady(document: dict) -> dict:
    for result in document["workloads"].values():
        for metric in result["end_to_end"].values():
            metric["spread"] = 0.01
    return document


def scaled(document: dict, workload: str, metric: str, factor: float) -> dict:
    document = copy.deepcopy(document)
    document["workloads"][workload]["end_to_end"][metric]["value"] *= factor
    return document


def verdicts(base, new) -> dict:
    return {(row["workload"], row["metric"]): row["verdict"]
            for row in compare.compare_sets(base, new)}


def test_compare_passes_an_identical_pair_and_flags_a_regression(traced):
    base = steady(as_set(traced))
    rows = compare.compare_sets(base, copy.deepcopy(base))
    assert rows and {row["verdict"] for row in rows} == {"unchanged"}
    # every end-to-end metric is judged (txn_ms_p50 is htap_wire's alone)
    assert {row["metric"] for row in rows} == \
        set(catalog.END_TO_END) - {"txn_ms_p50"}

    # A synthetic 20 % regression, of a latency and of a rate.
    slower = scaled(base, catalog.ANALYTIC, "scan_full_ms_p50", 1.2)
    slower = scaled(slower, catalog.ANALYTIC, "ops_per_s", 1 / 1.2)
    seen = verdicts(base, slower)
    assert seen[(catalog.ANALYTIC, "scan_full_ms_p50")] == "regressed"
    assert seen[(catalog.ANALYTIC, "ops_per_s")] == "regressed"
    assert seen[(catalog.RAW, "ops_per_s")] == "unchanged"
    assert "regressed" in compare.render(compare.compare_sets(base, slower))

    faster = scaled(base, catalog.RAW, "agg_ms_p50", 0.5)
    seen = verdicts(base, faster)
    assert [key for key, value in seen.items() if value == "improved"] == [
        (catalog.RAW, "agg_ms_p50")]

    noisy = copy.deepcopy(base)
    noisy["workloads"][catalog.OLTP]["end_to_end"]["recovery_s"][
        "spread"] = 0.5
    seen = verdicts(base, noisy)
    assert [key[1] for key, value in seen.items()
            if value == "unresolved"] == ["recovery_s"]

    failing = copy.deepcopy(base)
    failing["workloads"][catalog.OLTP]["end_to_end"]["failed_ops_frac"][
        "value"] = 0.01
    assert verdicts(base, failing)[
        (catalog.OLTP, "failed_ops_frac")] == "regressed"


def test_compare_judges_pairs_not_pooled_medians(traced):
    """Ten pairs whose machine drifts +-20 % from pair to pair: both runs
    of a pair drift together, so the ratios hold still."""
    one = steady(as_set(traced))
    key = (catalog.ANALYTIC, "agg_ms_p50")
    drift = [0.8, 1.2, 0.9, 1.1, 1.0, 1.2, 0.8, 1.1, 0.9, 1.0]
    base = {"sets": [scaled(one, *key, d) for d in drift]}
    same = {"sets": [scaled(one, *key, d * 1.01) for d in drift]}
    better = {"sets": [scaled(one, *key, d * 0.85) for d in drift]}
    worse = {"sets": [scaled(one, *key, d * 1.15) for d in drift]}
    assert verdicts(base, same)[key] == "unchanged"
    assert verdicts(base, better)[key] == "improved"
    assert verdicts(base, worse)[key] == "regressed"
    row = [r for r in compare.compare_sets(base, better)
           if (r["workload"], r["metric"]) == key][0]
    assert row["pairs"] == 10 and row["wins"] == 10
    # Unpaired, the same runs are too far apart to tell.
    shuffled = {"sets": better["sets"][5:] + better["sets"][:5]}
    assert verdicts(base, shuffled)[key] == "unresolved"


def test_aa_alternates_sides_and_fails_on_any_row(traced, monkeypatch, tmp_path):
    calls = []
    wobble = {"metric": None}

    def canned(workload, seed, args, trace):
        calls.append(workload)
        result = copy.deepcopy(traced.get(workload, traced[catalog.RAW]))
        result["workload"] = workload
        if wobble["metric"] and workload == catalog.OLTP:
            # the first run of each pair, whichever side that is
            factor = 1.3 if calls.count(workload) % 2 else 1.0
            result["end_to_end"][wobble["metric"]]["value"] *= factor
        return result

    monkeypatch.setattr(run, "spawn_workload", canned)
    out = tmp_path / "aa.json"
    args = argparse.Namespace(seed=7, seconds=12.0, smoke=True, out=str(out))
    assert run.command_aa(args) == 0
    assert len(calls) == 2 * run.AA_PAIRS * len(catalog.WORKLOADS)
    report = json.loads(out.read_text())
    assert report["passed"] and not report["differing"]
    assert len(report["a"]["sets"]) == len(report["b"]["sets"]) == run.AA_PAIRS

    # A metric outside BENCHMARK.json's three that does not hold still
    # fails the command: it is unresolved, not unchanged.
    wobble["metric"] = "recovery_s"
    assert run.command_aa(args) == 1
    report = json.loads(out.read_text())
    assert not report["passed"]
    assert report["differing"] == {"oltp_durable.recovery_s": "unresolved"}

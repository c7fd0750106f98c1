#!/usr/bin/env python3
"""cods-e2e: the layered end-to-end benchmark of the CODS reproduction.

One workload, as the driver of ``BENCHMARK.json`` runs it::

    python3 benchmarks/e2e/run.py --workload analytic_read --seed 7 \\
        --seconds 12 --trace 0

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics every workload has with ``--trace 0``, every
per-layer metric with ``--trace 1`` (0 where the workload bypasses the
layer).  Every workload, untraced pass then traced pass::

    python3 benchmarks/e2e/run.py --all --seed 2010 --out results.json

and ``compare A.json B.json``, ``aa --seed S`` (see README.md).  ``src/`` is found relative to this file; no
``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import catalog  # noqa: E402
import compare  # noqa: E402
import procs  # noqa: E402


def run_workload(args) -> dict:
    """One workload in this process: the untraced pass, then (with
    ``--trace 1``) the traced pass."""
    import layers
    import measure
    from workloads import WORKLOAD_CLASSES

    started = time.perf_counter()
    config = procs.RunConfig(
        seed=args.seed, seconds=args.seconds, reps=args.reps, smoke=args.smoke
    )
    workload = WORKLOAD_CLASSES[args.workload](config)
    try:
        untraced = measure.run_untraced(workload, config.reps)
        result = {
            "benchmark": "cods-e2e",
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "reps": config.reps,
            "smoke": args.smoke,
            "sizes": workload.sizes,
            "clients": catalog.WORKLOADS[args.workload]["clients"],
            "loop": "closed",
            "end_to_end": untraced["end_to_end"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "counters": untraced["reps"][0].extras.get("counters", {}),
        }
        errors = [
            error for rep in untraced["reps"]
            for error in rep.extras.get("errors", ())
        ]
        if errors:
            result["errors"] = errors[:20]
        lost = [
            rep.extras["lost_acknowledged_writes"]
            for rep in untraced["reps"]
            if "lost_acknowledged_writes" in rep.extras
        ]
        if lost:
            result["lost_acknowledged_writes"] = sum(lost)
        if args.trace:
            traced = layers.traced_pass(workload, untraced, args.trace_dir)
            result["attempted"] += traced.pop("attempted")
            result["failed"] += traced.pop("failed")
            result["per_layer"] = per_layer_metrics(
                args.workload, traced.pop("metrics")
            )
            result["trace"] = traced
            result["bypass"] = bypass_facts(args.workload, result)
    finally:
        config.cleanup()
    result["correct"] = result["failed"] == 0 and all(
        result.get("bypass", {}).values()
    )
    result["wall_s"] = time.perf_counter() - started
    return result


def per_layer_metrics(workload: str, measured: dict) -> dict:
    """What the traced pass measured, under the catalogue's names and
    units.  A metric of this workload that could not be given (a
    percentile with too few samples beyond it) is 0 and marked."""
    unknown = set(measured) - set(catalog.PER_LAYER)
    if unknown:
        raise KeyError(f"not in the catalogue: {sorted(unknown)}")
    out = {}
    for name, (unit, _, workloads, _) in catalog.PER_LAYER.items():
        if name in measured:
            out[name] = {"value": float(measured[name]), "unit": unit}
        elif workload in workloads:
            out[name] = {"value": 0.0, "unit": unit, "unsupported": True}
    return out


def bypass_facts(workload: str, result: dict) -> dict:
    """The bypass predictions, checked on this run's own trace."""
    names = result["trace"]["stream_span_names"]
    layers_seen = {name.split(".")[0] for name in names}
    counters = result["counters"]
    layer = result["per_layer"]
    facts = {}
    if workload != catalog.HTAP:
        facts["no client/server spans"] = not (
            layers_seen & {"client", "server"}
        )
    if workload in (catalog.ANALYTIC, catalog.RAW, catalog.EVOLVE):
        facts["wal.appends == 0"] = counters.get("wal.appends", 0) == 0
    if workload == catalog.ANALYTIC:
        facts["exec.scan_delta_ms == 0"] = (
            layer.get("exec.scan_delta_ms", {"value": 0.0})["value"] == 0.0
        )
    if workload == catalog.EVOLVE:
        facts["no exec spans in the timed section"] = (
            "exec" not in layers_seen
            and counters.get("exec.rows_decoded", 0) == 0
        )
    if "exec.ladder_residual_frac" in layer:
        facts["exec.ladder_residual_frac <= 0.15"] = (
            layer["exec.ladder_residual_frac"]["value"] <= 0.15
        )
    return facts


def print_result(result: dict) -> None:
    sizes = ", ".join(f"{k}={v}" for k, v in result["sizes"].items())
    print(f"== {result['workload']}  seed={result['seed']} "
          f"reps={result['reps']} clients={result['clients']} "
          f"loop={result['loop']}  {sizes}")
    for name, metric in result["end_to_end"].items():
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']:6s}"
              f" n={metric['n']:<6d} spread={metric['spread']:.3f}")
    for name, metric in result.get("per_layer", {}).items():
        if not metric.get("unsupported"):
            print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    for error in result.get("errors", ()):
        print(f"  [FAILED] {error}")
    for fact, holds in result.get("bypass", {}).items():
        print(f"  [{'ok' if holds else 'VIOLATED'}] {fact}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"wall={result['wall_s']:.1f}s")


def driver_line(result: dict, trace: bool) -> str:
    """The last line of a workload run, as ``BENCHMARK.json``'s driver
    reads it: every per-layer metric with ``--trace 1`` (0 where the
    layer is bypassed), else the end-to-end metrics every workload has."""
    if trace:
        metrics = {
            name: {
                "value": result["per_layer"].get(name, {"value": 0.0})["value"],
                "unit": unit,
            }
            for name, (unit, _, _, _) in catalog.PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name]["value"],
                   "unit": catalog.END_TO_END[name][0]}
            for name in catalog.DRIVER_END_TO_END
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# --all, aa: sets of workload runs, one subprocess each
# ----------------------------------------------------------------------

def spawn_workload(workload: str, seed: int, args, trace: int) -> dict:
    """One workload in a fresh interpreter — exactly what the driver
    runs, so a set's numbers are the driver's numbers (peak memory and
    import cost included).  Runs are sequential: never more than this
    one load generator (and its server) at a time."""
    directory = procs.WORK_ROOT / f"set-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    out = directory / f"result-{workload}-{seed}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--reps", str(args.reps), "--trace", str(trace), "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace and args.trace_dir:
        command += ["--trace-dir", str(args.trace_dir)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if not out.exists():
            raise SystemExit(
                f"{workload}: run failed with code {done.returncode}"
            )
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            procs.WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there


def print_and_keep(sets: dict, result: dict) -> None:
    print_result(result)
    sets["workloads"][result["workload"]] = result


def new_set(args, seed: int) -> dict:
    return {"benchmark": "cods-e2e", "seed": seed, "seconds": args.seconds,
            "smoke": args.smoke, "workloads": {}}


def command_all(args) -> int:
    """Every workload, untraced pass then traced pass.  ``--out`` adds
    the set to the file's ``sets``: run the base and the change in turn
    into one file each and ``compare`` pairs them up in order."""
    result = new_set(args, args.seed)
    for workload in catalog.WORKLOADS:
        print_and_keep(result, spawn_workload(workload, args.seed, args, 1))
    if args.out:
        path = Path(args.out)
        document = (json.loads(path.read_text()) if path.exists()
                    else {"benchmark": "cods-e2e", "sets": []})
        document["sets"].append(result)
        path.write_text(json.dumps(document, indent=1))
    return 0 if all(r["correct"] for r in result["workloads"].values()) else 1


#: Pairs of sets ``aa`` runs: the ten of the choosing-metrics guide, so
#: that the quartiles of the pair ratios do not hang on one odd run.
AA_PAIRS = 10


def command_aa(args) -> int:
    """:data:`AA_PAIRS` pairs of sets on the same code.  The two runs of
    a pair follow each other workload by workload and the sides take
    turns at running first (A B, B A, ...), so drift hits both alike.
    Fails when an operation failed or any end-to-end row is not
    ``unchanged``: ``regressed`` and ``improved`` are both a difference
    this code cannot have made, ``unresolved`` a bound this machine
    cannot hold."""
    sides: tuple[list, list] = ([], [])
    for pair in range(AA_PAIRS):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        sets = (new_set(args, args.seed), new_set(args, args.seed))
        for workload in catalog.WORKLOADS:
            for side in order:
                print(f"-- pair {pair + 1}/{AA_PAIRS} side {'AB'[side]}")
                print_and_keep(
                    sets[side], spawn_workload(workload, args.seed, args, 0)
                )
        for side, done in zip(sides, sets):
            side.append(done)
    rows = compare.compare_sets({"sets": sides[0]}, {"sets": sides[1]})
    print(compare.render(rows))
    correct = all(
        r["correct"] for side in sides for s in side
        for r in s["workloads"].values()
    )
    differing = {
        f"{row['workload']}.{row['metric']}": row["verdict"]
        for row in rows if row["verdict"] != "unchanged"
    }
    passed = correct and not differing
    if args.out:
        def slim(side):
            return {"sets": [{"workloads": {
                name: {key: result[key] for key in
                       ("end_to_end", "attempted", "failed", "wall_s")}
                for name, result in s["workloads"].items()
            }} for s in side]}

        Path(args.out).write_text(json.dumps({
            "benchmark": "cods-e2e", "command": "aa", "seed": args.seed,
            "pairs": AA_PAIRS, "passed": passed, "correct": correct,
            "differing": differing, "rows": rows,
            "a": slim(sides[0]), "b": slim(sides[1]),
        }, indent=1))
    print("aa:", "passed" if passed else f"FAILED {differing}")
    return 0 if passed else 1


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("command", nargs="?", default="run",
                        choices=("run", "compare", "aa"))
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS))
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.REFERENCE_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=catalog.REPS)
    parser.add_argument("--smoke", action="store_true",
                        help="rows and operations about twentyfold smaller")
    parser.add_argument("--out", help="write the full result as JSON "
                        "(--all: add it to the file's sets)")
    parser.add_argument("--trace-dir", default=None,
                        help="where trace-<workload>.json goes (--trace 1)")
    args = parser.parse_args(argv)

    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare needs two result files")
        first, second = (json.loads(Path(f).read_text()) for f in args.files)
        rows = compare.compare_sets(first, second)
        print(compare.render(rows))
        return 1 if any(row["verdict"] == "regressed" for row in rows) else 0
    if args.command == "aa":
        return command_aa(args)
    if args.all:
        return command_all(args)
    if not args.workload:
        parser.error("give --workload NAME or --all")
    result = run_workload(args)
    print_result(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
    print(driver_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

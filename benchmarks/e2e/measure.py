"""From reps to named metrics: the untraced pass of one workload and
the end-to-end metrics it yields."""

from __future__ import annotations

import catalog
import datagen
import procs
from stats import latency_over_reps, median, over_reps
from workloads import Rep


def run_untraced(workload, reps: int) -> dict:
    """``reps`` reps on fresh state; end-to-end metrics come only from
    here.  Peak memory is read when the pass ends, before any traced
    work can add to it."""
    done = [workload.run_rep() for _ in range(reps)]
    rss = procs.peak_rss_mb() + workload.peak_rss_mb()
    return {
        "reps": done,
        "end_to_end": end_to_end(workload.name, done, rss),
        "attempted": sum(rep.attempted for rep in done),
        "failed": sum(rep.failed for rep in done),
    }


def _class(reps: list[Rep], *classes) -> list[list[float]]:
    """Per rep, the latencies of the given classes pooled."""
    return [
        [s for cls in classes for s in rep.latencies.get(cls, ())]
        for rep in reps
    ]


def _sum_class(reps: list[Rep], *classes) -> list[float]:
    return [sum(samples) for samples in _class(reps, *classes)]


def _mean_of_medians(reps: list[Rep], classes):
    """Mean over statement classes of each class's per-rep median.  A
    median pooled over classes of very different cost sits on the
    boundary between two of them: it jumps when a count shifts and
    does not move when the slowest class does."""
    per_rep = []
    for rep in reps:
        kinds = [
            median(rep.latencies[cls]) * 1e3
            for cls in classes if rep.latencies.get(cls)
        ]
        if kinds:
            per_rep.append(sum(kinds) / len(kinds))
    if not per_rep:
        return None
    n = sum(len(s) for s in _class(reps, *classes))
    return over_reps(per_rep, "ms", n=n)


def end_to_end(name: str, reps: list[Rep], rss_mb: float) -> dict:
    """Every end-to-end metric that applies to workload ``name``."""
    statements = sum(rep.statements for rep in reps)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    candidates = {
        "setup_s": over_reps([rep.setup_s for rep in reps], "s"),
        "ops_per_s": over_reps(
            [rep.statements / rep.timed_s for rep in reps], "1/s",
            n=statements,
        ),
        "peak_rss_mb": over_reps([rss_mb], "MB"),
        "failed_ops_frac": over_reps(
            [failed / attempted if attempted else 1.0], "frac", n=attempted
        ),
        "scan_full_ms_p50": latency_over_reps(_class(reps, "scan_full")),
        "filter_ms_p50": _mean_of_medians(reps, datagen.FILTER_CLASSES),
        "agg_ms_p50": _mean_of_medians(reps, datagen.AGG_CLASSES),
        "insert_ms_p50": latency_over_reps(_class(reps, "insert")),
        "modify_ms_p50": _mean_of_medians(reps, ("update", "delete")),
        "txn_ms_p50": latency_over_reps(_class(reps, "txn")),
        "smo_total_s": over_reps(
            _sum_class(reps, *datagen.SMO_OPERATORS), "s"
        ),
        "decompose_s": over_reps(_sum_class(reps, "decompose"), "s"),
        "merge_s": over_reps(_sum_class(reps, "merge"), "s"),
    }
    for key in ("recovery_s", "stored_bytes_per_user_byte"):
        values = [rep.extras[key] for rep in reps if key in rep.extras]
        if values:
            candidates[key] = over_reps(
                values, catalog.END_TO_END[key][0]
            )
    # A metric not listed for a workload is omitted there, not zero.
    return {
        metric: candidates[metric]
        for metric, spec in catalog.END_TO_END.items()
        if name in spec[3] and candidates.get(metric) is not None
    }

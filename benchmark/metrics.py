"""Metric arithmetic of the benchmark: pure functions over plain numbers.

Everything here is tested on hand-built inputs by test_metrics.py; run.py
only feeds it measurements.
"""

import hashlib
import json
import math
import statistics

# Host-bound side keys of a results record, excluded from its deterministic
# content (the same rule as tools/diff_results.py).
IGNORED_KEYS = ("timing", "fault", "obs")


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sequence."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(s)))
    return s[rank - 1]


def samples_beyond(values, q):
    """How many samples lie strictly above the nearest-rank q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def campaign_efficiency(records):
    """Σ trial_wall_ms_sum ÷ Σ(wall_ms × workers) over results records: the
    share of the worker pool's time spent inside trials."""
    busy = sum(r["timing"]["trial_wall_ms_sum"] for r in records)
    capacity = sum(r["timing"]["wall_ms"] * r["timing"]["workers"] for r in records)
    return busy / capacity if capacity > 0 else 0.0


def fleet_efficiency(records, campaign_wall_s, workers):
    """Σ shard wall ÷ (campaign wall × workers) over fleet campaign records."""
    busy_ms = sum(r["timing"]["wall_ms"] for r in records)
    capacity_ms = campaign_wall_s * 1000.0 * workers
    return busy_ms / capacity_ms if capacity_ms > 0 else 0.0


def job_overhead_ms(records, run_wall_s):
    """(run wall − Σ job wall_ms) ÷ jobs: per-job executor, store and
    process cost outside the campaigns themselves."""
    if not records:
        return 0.0
    inside = sum(r["timing"]["wall_ms"] for r in records)
    return (run_wall_s * 1000.0 - inside) / len(records)


def failed_frac(planned, ok):
    """Share of planned jobs or shards without a successful record."""
    return (planned - ok) / planned if planned > 0 else 1.0


def total_queries(records):
    """Σ oracle queries over attack results records (mean × trials is exact:
    the mean is a sum of integers divided by the trial count)."""
    return sum(round(r["result"]["queries"]["mean"] * r["point"]["trials"]) for r in records)


def deterministic_record(record):
    """A record without its host-bound side keys."""
    return {k: v for k, v in record.items() if k not in IGNORED_KEYS}


def load_records(path):
    """Every parseable JSON line of a results file, in file order."""
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def check_records(records, planned):
    """Output invariants of one results file. Returns (ok_count, problems):
    every planned job or shard appears exactly once and none is job_failed."""
    problems = []
    seen = {}
    for r in records:
        seen[r.get("job")] = seen.get(r.get("job"), 0) + 1
        if r.get("outcome", "ok") != "ok":
            problems.append(f"{r.get('job')}: outcome {r.get('outcome')}")
    dupes = [j for j, n in seen.items() if n > 1]
    if dupes:
        problems.append(f"{len(dupes)} job(s) recorded more than once, e.g. {dupes[0]}")
    if len(seen) != planned:
        problems.append(f"{len(seen)} distinct job(s) recorded, {planned} planned")
    ok = sum(1 for r in records if r.get("outcome", "ok") == "ok" and seen[r.get("job")] == 1)
    return min(ok, planned), problems


def digest(records):
    """SHA-256 over the deterministic content of records, keyed by job ID."""
    canon = sorted(json.dumps(deterministic_record(r), sort_keys=True) for r in records)
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


def first_difference(expected, actual, prefix=""):
    """Path and values of the first differing field, or None when equal."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            path = f"{prefix}.{key}" if prefix else key
            if key not in expected or key not in actual:
                return f"{path}: {expected.get(key)!r} != {actual.get(key)!r}"
            diff = first_difference(expected[key], actual[key], path)
            if diff:
                return diff
        return None
    if expected != actual:
        return f"{prefix or '<record>'}: {expected!r} != {actual!r}"
    return None


def compare_deterministic(expected_records, actual_records):
    """None when both record sets carry the same deterministic content (keyed
    by job ID); otherwise a message naming the first differing field."""
    exp = {r.get("job"): deterministic_record(r) for r in expected_records}
    act = {r.get("job"): deterministic_record(r) for r in actual_records}
    for job in sorted(set(exp) | set(act)):
        if job not in act:
            return f"job {job}: missing from the fresh run"
        if job not in exp:
            return f"job {job}: not in the expected records"
        diff = first_difference(exp[job], act[job])
        if diff:
            return f"job {job}: {diff}"
    return None


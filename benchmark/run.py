#!/usr/bin/env python3
"""The ropuf benchmark: golden gate, untimed checks, timed CLI runs, traced split.

  python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                           [--size full|tiny]
  python3 benchmark/run.py --self-test

Run from the repository root (any copy of it; no git needed). The first run
builds the library, the `ropuf` CLI and the traced driver (benchmark/
CMakeLists.txt, Release) into $CARGO_TARGET_DIR or .bench_build/.

Every run first regenerates the two golden grids through the CLI and compares
their deterministic content with tests/data/golden_*.jsonl; a mismatch prints
the differing field and exits 1 before any timing. Then:

  --trace 0  runs the workload through the CLI with tracing off, one warm-up
             repetition and then repetitions until --seconds have passed, and
             reports the end-to-end metrics as medians over the repetitions.
  --trace 1  runs the workload once through the CLI (untraced, then with
             --obs), once through benchmark/driver (spans around each layer),
             proves the three agree, and reports the per-layer metrics.

The last stdout line is one JSON object {correct, attempted, failed, metrics};
`attempted` counts planned jobs (or fleet shards, per campaign) over all
repetitions and `failed` those without a clean record. Output invariant failures print that
line with "correct": false and exit 1. A provenance-stamped copy of the result
lands in <build dir>/results/. benchmark/METRICS.md defines every metric.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as m  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PLAN_REPEATS = 5  # `ropuf plan` calls per repetition (attack set-up samples)
CAMPAIGN_REPEATS = 3  # fleet campaign passes per enrolled store
MIN_REPS = 3
DEADLINE_S = 170  # every run ends well inside the 180 s budget
MEASURE = None  # bench_measure, set by build()

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s", "cpu_us_per_op": "us",
                    "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """A failure that ends the run without a result."""


class Invariant(Exception):
    """An output-correctness failure: reported as correct=false, exit 1."""


def log(msg):
    print(f"bench: {msg}", flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir, jobs):
    for need in ("CMakeLists.txt", "src/ropuf", "tools/ropuf_cli.cpp", "tests/data"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"not a ropuf source tree: {need} is missing under {ROOT}")
    os.makedirs(bdir, exist_ok=True)
    logf = os.path.join(bdir, "build.log")
    # Configure every time (cheap once cached): a changed build file must be
    # regenerated before the targets are named, or make cannot find new ones.
    steps = [["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", bdir,
              "-DCMAKE_BUILD_TYPE=Release", "-DROPUF_SANITIZE=none"],
             ["cmake", "--build", bdir, "--target", "ropuf_cli", "bench_trace_driver",
              "bench_measure", "-j", str(jobs)]]
    with open(logf, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                raise BenchError(f"build failed ({' '.join(cmd[:2])}); see {logf}")
    global MEASURE
    MEASURE = os.path.join(bdir, "bench_measure")
    return os.path.join(bdir, "ropuf", "ropuf"), os.path.join(bdir, "bench_trace_driver")


def cmake_cache(bdir):
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            match = re.match(r"^([A-Za-z_][A-Za-z0-9_]*):[A-Z]+=(.*)$", line.strip())
            if match:
                cache[match.group(1)] = match.group(2)
    return cache


def source_digest():
    """SHA-256 over the program's sources: the commit stamp when no git."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(bdir, workers, workload, seed, size, trace):
    cache = cmake_cache(bdir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "source_digest": source_digest(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        # ROPUF_SANITIZE, or sanitizer flags passed in by hand.
        "sanitize": " ".join(f for f in cache.get("CMAKE_CXX_FLAGS", "").split()
                             if f.startswith("-fsanitize")) or cache.get("ROPUF_SANITIZE", ""),
        "compiler": version,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "workload": workload,
        "size": size,
        "seed": seed,
        "trace": trace,
    }


def refuse_untimeable(stamp):
    if stamp["build_type"] != "Release" or stamp["sanitize"] != "none":
        raise BenchError(f"refusing to time a {stamp['build_type'] or '?'} build with sanitizer "
                         f"'{stamp['sanitize'] or '?'}': Release without sanitizers only")


# ------------------------------------------------------------- processes

class Proc:
    """One finished command: wall, user+sys CPU and peak RSS, as bench_measure
    (driver/measure.cpp) reports them for the command alone."""

    def __init__(self, cmd, work):
        out_path = os.path.join(work, "stdout.txt")
        usage_path = os.path.join(work, "usage.json")
        with open(out_path, "w") as out, open(os.path.join(work, "stderr.txt"), "w") as err:
            subprocess.call([MEASURE, fresh(usage_path)] + cmd, stdout=out, stderr=err, cwd=work)
        with open(usage_path) as f:
            usage = json.load(f)
        self.code = usage["exit"]
        self.wall = usage["wall_s"]
        self.cpu = usage["cpu_s"]
        self.rss_mb = usage["maxrss_kb"] / 1024.0
        with open(out_path) as f:
            self.stdout = f.read()
        if self.code != 0:
            with open(os.path.join(work, "stderr.txt")) as f:
                tail = f.read().strip().splitlines()[-1:] or [""]
            what = f"{os.path.basename(cmd[0])} {' '.join(cmd[1:3])}"
            self.error = f"{what}: exit {self.code} {tail[0]}"
        else:
            self.error = None


def fresh(path):
    if os.path.exists(path):
        os.remove(path)
    return path


# ----------------------------------------------------------- golden gate

def c_string_constant(source, name):
    with open(os.path.join(ROOT, source)) as f:
        text = f.read()
    match = re.search(name + r"\s*=\s*((?:\s*\"(?:[^\"\\]|\\.)*\")+)\s*;", text)
    if not match:
        raise BenchError(f"{name} not found in {source}")
    pieces = re.findall(r"\"((?:[^\"\\]|\\.)*)\"", match.group(1))
    return "".join(pieces).encode().decode("unicode_escape")


GOLDEN = (("tests/test_xp_store.cpp", "kGoldenSpecText", "tests/data/golden_smoke.jsonl"),
          ("tests/test_defense_matrix.cpp", "kMatrixSpecText", "tests/data/golden_matrix.jsonl"))


def golden_gate(cli, work, workers):
    """Regenerates both golden grids; returns the host stamp (SIMD path and
    hardware_concurrency) of the fresh records' timing key."""
    for source, name, golden in GOLDEN:
        spec = os.path.join(work, name + ".spec")
        with open(spec, "w") as f:
            f.write(c_string_constant(source, name))
        out = fresh(os.path.join(work, name + ".jsonl"))
        proc = Proc([cli, "run", spec, "-o", out, "--workers", str(workers), "--quiet"], work)
        if proc.error:
            raise Invariant(f"golden {golden}: {proc.error}")
        expected = m.load_records(os.path.join(ROOT, golden))
        fresh_records = m.load_records(out)
        diff = m.compare_deterministic(expected, fresh_records)
        if diff:
            raise Invariant(f"golden {golden}: {diff}")
        log(f"golden {golden}: {len(expected)} records reproduce")
    timing = fresh_records[0]["timing"]
    return {"simd": timing.get("simd"), "hardware_concurrency": timing.get("hardware_concurrency")}


# --------------------------------------------------------------- workloads

def attack_rep(ctx, obs=False):
    """One CLI repetition of an attack workload: plan (set-up), then run.
    Timings are sample lists; `records` are the run's results."""
    cli, work, spec = ctx["cli"], ctx["work"], ctx["spec"]
    setup = []
    for _ in range(PLAN_REPEATS):
        plan = Proc([cli, "plan", spec], work)
        if plan.error:
            raise Invariant(plan.error)
        setup.append(plan.wall)
    results = fresh(os.path.join(work, "obs.jsonl" if obs else "results.jsonl"))
    cmd = [cli, "run", spec, "-o", results, "--workers", str(ctx["workers"]), "--quiet"]
    if obs:
        cmd += ["--obs", "--trace-out", fresh(os.path.join(work, "trace.json"))]
    run = Proc(cmd, work)
    records = m.load_records(results) if os.path.exists(results) else []
    ok, problems = m.check_records(records, ctx["planned"])
    if run.error:
        problems.append(run.error)
    return {"wall": [run.wall], "cpu": [run.cpu], "setup": setup, "rss": run.rss_mb,
            "ops": m.total_queries(records), "attempted": ctx["planned"], "ok": ok,
            "problems": problems, "records": records, "digest": m.digest(records)}


def fleet_rep(ctx):
    """One CLI repetition of the fleet workload: enroll (set-up), then
    CAMPAIGN_REPEATS campaigns and the population stats over the store.
    Timings are sample lists; `records` are the last campaign's results."""
    cli, work, spec, workers = ctx["cli"], ctx["work"], ctx["spec"], ctx["workers"]
    store = fresh(os.path.join(work, "population.fleet"))
    enroll = Proc([cli, "fleet", "enroll", spec, "--store", store], work)
    procs, problems, digests, ok_total = [enroll], [], set(), 0
    walls, cpus = [], []
    for _ in range(CAMPAIGN_REPEATS):
        results = fresh(os.path.join(work, "results.jsonl"))
        campaign = Proc([cli, "fleet", "campaign", spec, "--store", store, "-o", results,
                         "--workers", str(workers), "--quiet"], work)
        procs.append(campaign)
        walls.append(campaign.wall)
        cpus.append(campaign.cpu)
        records = m.load_records(results) if os.path.exists(results) else []
        ok, found = m.check_records(records, ctx["planned"])
        ok_total += ok
        problems += found
        digests.add(m.digest(records))
    stats = Proc([cli, "fleet", "stats", store], work)
    procs.append(stats)
    problems += [p.error for p in procs if p.error]
    if len(digests) > 1:
        problems.append("fleet campaign records differ between campaigns over one store")
    store_sha = ""
    if os.path.exists(store):
        with open(store, "rb") as f:
            store_sha = hashlib.sha256(f.read()).hexdigest()
    return {"wall": walls, "cpu": cpus, "setup": [enroll.wall], "stats_wall": stats.wall,
            "rss": max(p.rss_mb for p in procs),
            "ops": sum(r["device_count"] * r["trials"] for r in records),
            "attempted": ctx["planned"] * CAMPAIGN_REPEATS, "ok": ok_total,
            "problems": problems, "records": records, "digest": min(digests) + store_sha,
            "store_sha": store_sha, "stats_text": stats.stdout.split("\n", 1)[-1]}


def timed_reps(ctx, seconds, deadline):
    rep = fleet_rep if ctx["fleet"] else attack_rep
    warm = rep(ctx)
    reps, failed_reps = [], []
    start = time.perf_counter()
    while (len(reps) + len(failed_reps) < MIN_REPS or time.perf_counter() - start < seconds) \
            and time.perf_counter() < deadline:
        r = rep(ctx)
        (failed_reps if r["problems"] else reps).append(r)
    return warm, reps, failed_reps


def end_to_end(reps):
    """Medians over every sample of the timed repetitions."""
    def samples(key):
        return [x for r in reps for x in r[key]]

    ops = reps[0]["ops"]
    return {
        "wall_s": m.median(samples("wall")),
        "cpu_s": m.median(samples("cpu")),
        "ops_per_s": m.median([ops / w for w in samples("wall")]),
        "cpu_us_per_op": m.median([c * 1e6 / ops for c in samples("cpu")]) if ops else 0.0,
        "setup_s": m.median(samples("setup")),
        "peak_rss_mb": m.median([r["rss"] for r in reps]),
    }


# ------------------------------------------------------------- traced run

def trial_durations_ms(trace_path):
    """Durations of the CLI's `trial` trace events (B/E pairs per thread)."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    open_at, out = {}, []
    for e in events:
        if e.get("name") != "trial":
            continue
        if e["ph"] == "B":
            open_at[e["tid"]] = e["ts"]
        elif e["ph"] == "E" and e["tid"] in open_at:
            out.append((e["ts"] - open_at.pop(e["tid"])) / 1000.0)
    return out


def obs_queries_by_defense(records):
    """Σ of the --obs counters oracle.queries{defense=<token>} over records."""
    out = {}
    for r in records:
        for key, value in r.get("obs", {}).get("counters", {}).items():
            match = re.fullmatch(r"oracle\.queries\{defense=(.*)\}", key)
            if match:
                out[match.group(1)] = out.get(match.group(1), 0) + value
    return {k: v for k, v in out.items() if v}


def jsonl_queries_by_defense(records):
    """Σ queries per defense token over records of oracle-stack scenarios
    (fuzzy/reference measures the extractor directly, without an oracle)."""
    out = {}
    for r in records:
        if r["scenario"] != "fuzzy/reference":
            token = r["point"]["defense"] or "none"
            out[token] = out.get(token, 0) + round(r["result"]["queries"]["mean"] *
                                                   r["point"]["trials"])
    return {k: v for k, v in out.items() if v}


def run_driver(ctx, extra):
    summary = fresh(os.path.join(ctx["work"], "driver.json"))
    results = fresh(os.path.join(ctx["work"], "driver.jsonl"))
    mode = "fleet" if ctx["fleet"] else "attack"
    proc = Proc([ctx["driver"], mode, ctx["spec"], "--workers", str(ctx["workers"]),
                 "--results", results, "--summary", summary,
                 "--spans-out", os.path.join(ctx["work"], "spans.tsv")] + extra, ctx["work"])
    if proc.error:
        raise Invariant(f"traced driver: {proc.error}")
    with open(summary) as f:
        data = json.load(f)
    if data["failure_count"]:
        raise Invariant(f"traced driver: {data['failures'][0]}")
    if data["unmirrored_trials"]:
        log(f"{data['unmirrored_trials']} trial(s) not mirrored exactly, their time is "
            f"unattributed; first: {data['unmirrored'][0]}")
    return data, m.load_records(results)


def traced(ctx):
    """One untraced CLI run, (attack) one --obs CLI run, one traced driver
    run; proves they agree and returns (per-layer metrics, untraced rep)."""
    rep = fleet_rep if ctx["fleet"] else attack_rep
    base = rep(ctx)
    if base["problems"]:
        raise Invariant(f"untraced run: {base['problems'][0]}")
    layer = {}
    if ctx["fleet"]:
        store = os.path.join(ctx["work"], "driver.fleet")
        stats_out = os.path.join(ctx["work"], "driver_stats.txt")
        data, records = run_driver(ctx, ["--store", fresh(store), "--stats-out", stats_out])
        with open(store, "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() != base["store_sha"]:
                raise Invariant("traced driver: fleet store bytes differ from the CLI's")
        with open(stats_out) as f:
            same_stats = f.read() == base["stats_text"]
        if not same_stats:
            raise Invariant("traced driver: population stats differ from `ropuf fleet stats`")
        untraced_wall = base["setup"][0] + m.median(base["wall"]) + base["stats_wall"]
        shard_ms = [r["timing"]["wall_ms"] for r in base["records"]]
        layer.update({
            "fleet.efficiency": m.fleet_efficiency(base["records"], base["wall"][-1],
                                                   ctx["workers"]),
            "fleet.stolen_shards": sum(1 for r in base["records"] if r["timing"].get("stolen")),
            "fleet.shard_p50_ms": m.percentile(shard_ms, 50),
            "fleet.shard_p99_ms": m.percentile(shard_ms, 99),
            "fleet.shard_p99_beyond": m.samples_beyond(shard_ms, 99),
        })
    else:
        obs = attack_rep(ctx, obs=True)
        if obs["problems"]:
            raise Invariant(f"--obs run: {obs['problems'][0]}")
        if obs["digest"] != base["digest"]:
            raise Invariant("--obs run: " + (m.compare_deterministic(base["records"],
                                                                     obs["records"]) or "digest"))
        data, records = run_driver(ctx, [])
        c = data["counters"]
        if c["queries"] != base["ops"]:
            raise Invariant(f"traced driver: {c['queries']:.0f} queries, CLI JSONL {base['ops']}")
        jsonl_q = jsonl_queries_by_defense(base["records"])
        obs_q = obs_queries_by_defense(obs["records"])
        if not (jsonl_q == obs_q == data["queries_by_defense"]):
            raise Invariant(f"oracle queries by defense: JSONL {jsonl_q}, --obs {obs_q}, "
                            f"driver {data['queries_by_defense']}")
        untraced_wall = base["wall"][0]
        trials = trial_durations_ms(os.path.join(ctx["work"], "trace.json"))
        layer.update({
            "campaign.efficiency": m.campaign_efficiency(base["records"]),
            "campaign.trial_p50_ms": m.percentile(trials, 50),
            "campaign.trial_p99_ms": m.percentile(trials, 99),
            "campaign.trial_p99_beyond": m.samples_beyond(trials, 99),
            "xp.job_overhead_ms": m.job_overhead_ms(base["records"], base["wall"][0]),
        })
    diff = m.compare_deterministic(base["records"], records)
    if diff:
        raise Invariant(f"traced driver results vs CLI: {diff}")
    layer.update(layer_metrics(data))
    layer["obs.overhead_ratio"] = data["traced_wall_s"] / untraced_wall
    return layer, base


def layer_metrics(data):
    s, c = data["self_s"], data["counters"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "attack.self_s": s["attack"],
        "attack.batches": c["batches"],
        "attack.probes": c["probes"],
        "attack.success_ratio": ratio(c["recovered"], c["trials"]),
        "victim.enroll_s": s["victim.enroll"],
        "core.self_s": s["core.trial"] + s["core.oracle"],
        "oracle.evaluate_s": s["oracle.evaluate"],
        "oracle.queries": c["queries"],
        "oracle.measurements": c["measurements"],
        "oracle.refused": c["refused"],
        "helperdata.parse_s": s["helperdata.parse"],
        "helperdata.store_s": s["helperdata.store"],
        "helperdata.bytes": c["parse_bytes"] + c["store_bytes"],
        "sim.measure_s": s["sim.measure"],
        "sim.scans": c["scans"],
        "sim.measurements_per_s": ratio(c["scan_values"], s["sim.measure"]),
        "ecc.reconstruct_s": s["ecc.reconstruct"],
        "ecc.reconstruct_calls": c["ecc_calls"],
        "ecc.ok_ratio": ratio(c["ecc_ok"], c["ecc_calls"]),
        "defense.self_s": s["defense"],
        "defense.refused_ratio": ratio(c["defended_refused"], c["defended_queries"]),
        "defense.lockouts": c["lockouts"],
        "xp.plan_s": s["xp.plan"],
        "xp.commit_s": s["xp.commit"],
        "xp.read_s": s["xp.read"],
        "fleet.manufacture_s": s["fleet.manufacture"],
        "fleet.measure_s": s["fleet.measure"],
        "fleet.enroll_device_s": s["fleet.enroll_device"],
        "fleet.store_write_s": s["fleet.store_write"],
        "fleet.store_read_s": s["fleet.store_read"],
        "fleet.campaign_s": s["fleet.campaign"],
        "fleet.stats_s": s["fleet.stats"],
        "unattributed_s": data["unattributed_s"],
        "unmirrored_trials": data["unmirrored_trials"],
    }


def per_layer_units():
    """Unit of every per-layer metric, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {x["name"]: x["unit"] for x in spec["per_layer"]}


# ---------------------------------------------------------------- main

def emit(correct, attempted, failed, values, units, stamp, bdir):
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    for name, mv in metrics.items():
        print(f"  {name:28s} {mv['value']:.6g} {mv['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    name = f"{stamp['workload']}-{stamp['size']}-seed{stamp['seed']}-trace{stamp['trace']}.json"
    with open(os.path.join(bdir, "results", name), "w") as f:
        json.dump(dict(result, provenance=stamp), f, indent=1)
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    bdir = build_dir()
    workers = min(4, len(os.sched_getaffinity(0)))
    try:
        cli, driver = build(bdir, workers)
        if args.self_test:
            import unittest
            suite = unittest.defaultTestLoader.discover(os.path.dirname(__file__),
                                                        pattern="test_*.py")
            ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
            return 0 if ok and subprocess.call([driver, "self-test"]) == 0 else 1
        if not args.workload:
            parser.error("--workload is required")
        stamp = provenance(bdir, workers, args.workload, args.seed, args.size, args.trace)
        refuse_untimeable(stamp)
        log("provenance " + json.dumps(stamp, sort_keys=True))
    except BenchError as e:
        print(f"bench: error: {e}", file=sys.stderr)
        return 1

    work = os.path.join(bdir, "work", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    text, planned = workloads.generate(args.workload, args.seed, args.size)
    spec = os.path.join(work, args.workload + ".spec")
    with open(spec, "w") as f:
        f.write(text)
    ctx = {"cli": cli, "driver": driver, "work": work, "spec": spec, "planned": planned,
           "workers": workers, "fleet": args.workload == "fleet_population"}
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    values, attempted, failed = {}, planned, 0
    correct, code = True, 0
    try:
        stamp.update(golden_gate(cli, work, workers))
        if args.trace:
            layer, base = traced(ctx)
            values.update(layer)
            values["failed_frac"] = m.failed_frac(base["attempted"], base["ok"])
        else:
            warm, reps, failed_reps = timed_reps(ctx, args.seconds, deadline)
            all_reps = [warm] + reps + failed_reps
            attempted = sum(r["attempted"] for r in all_reps)
            failed = sum(r["attempted"] - r["ok"] for r in all_reps)
            digests = {r["digest"] for r in all_reps if not r["problems"]}
            problems = [p for r in all_reps for p in r["problems"]]
            if problems:
                raise Invariant(problems[0])
            if len(digests) != 1:
                raise Invariant(f"deterministic content differs across {len(all_reps)} "
                                "repetitions")
            values = end_to_end(reps)
            log(f"{len(reps)} timed repetition(s) after 1 warm-up; {reps[0]['ops']} "
                f"{'device-trials' if ctx['fleet'] else 'probes'} each")
    except Invariant as e:
        print(f"bench: INVARIANT FAILED: {e}", file=sys.stderr)
        correct, code = False, 1
        failed = max(failed, 1)
    except BenchError as e:
        print(f"bench: error: {e}", file=sys.stderr)
        return 1
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    else:
        log(f"work directory kept for inspection: {work}")
    emit(correct, attempted, failed, values, units, stamp, bdir)
    return code


if __name__ == "__main__":
    sys.exit(main())

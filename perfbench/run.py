"""Benchmark of stacky-volumes: four seeded workloads, a closed loop with one
client, each job in its own fresh worker process (one busy core).

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the workload's job list is run in passes until --seconds have
gone by (at least one pass), and the last line of stdout is a JSON object with
the end-to-end metrics: medians over the passes of the summed and of the
largest in-worker job time, the median start-up cost of the CLI, and the
largest worker RSS.  With --trace 1 the jobs run once untraced and twice
traced, and the object carries the per-layer metrics of the first traced pass.
Every job's output is checked (exit code, invariants, golden file); the line
before the result describes the machine and lists every failure.

--update-golden rewrites the golden files from this run's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden")

GOLDEN_MISSING = "golden file missing"
GOLDEN_DIFFERS = "output differs from golden"
SETUP_REPS = 7
RUN_DEADLINE_S = 160.0   # stop starting jobs here, so that a run ends < 180 s

# Spans each workload must produce when traced: the entry points it calls and
# the layer boundaries it exists to load.
EXPECTED_SPANS = {
    "bps": ("cli.bps", "stacky.quiver_bps", "stacky.stacky_counting_function",
            "monoids.stacky_value", "lambdaring.pleth_log", "lambdaring.log_conv",
            "lambdaring.convolve", "scalar.add", "scalar.mul"),
    "limit-formula": ("cli.plid-check", "cli.delta", "stacky.plethystic_identity_residual",
                      "stacky.bps_counting_function", "stacky.weighted_inertia",
                      "stacky.bruteforce", "stacky.gf", "stacky.delta_report",
                      "ehrhart.delta_count.orbits", "ehrhart.delta_limit", "ratfun.fit"),
    "geometry": ("cli.volume", "cli.ehrhart", "stacky.volume_series",
                 "stacky.inertia_points", "stacky.fiber_orbits", "ratfun.fit",
                 "ehrhart.count_dilation", "ehrhart.polytope"),
    "lambda-galois": ("cli.plethystic", "lambdaring.pleth_log", "lambdaring.log_direct",
                      "lambdaring.pleth_sym", "lambdaring.adams", "lambdaring.pushforward",
                      "monoids.fixed_elements", "monoids.trace", "scalar.root_of_unity"),
}

# Counters that must repeat exactly between two traced passes.
COUNTERS = ("scalar.den_ops", "lambdaring.convolve.pairs", "ehrhart.count_dilation.points",
            "ehrhart.count_dilation.box_points", "ratfun.fit.coeffs", "ratfun.fit.no_fit",
            "stacky.inertia_points.points", "stacky.bruteforce.classes",
            "stacky.volume_fit.attempts")


def worker_env():
    env = {k: v for k, v in os.environ.items() if k != "STACKY_THREADS"}
    env.update(PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(env):
    """Median CPU time of a fresh interpreter that imports the CLI (with
    numpy), after one untimed import that fills the bytecode cache.  CPU
    time, as for the jobs (see worker.py)."""
    cmd = [sys.executable, "-c", "import stacky_volumes.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=60)
    times = []
    for _ in range(SETUP_REPS):
        start = children_cpu()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(children_cpu() - start)
    return statistics.median(times)


def golden_path(workload, job):
    key = json.dumps([job["kind"], job["command"], job["params"]], sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:12]
    return os.path.join(GOLDEN, workload, f"{job['name']}-{digest}.json")


class Runner:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = worker_env()
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.jobs = workloads.build(workload, seed)
        for job in self.jobs:
            job["input"] = os.path.join(workdir, job["name"] + ".in.json")
            job["output"] = os.path.join(workdir, job["name"] + ".out.json")
            with open(job["input"], "w") as handle:
                json.dump(job["params"], handle)

    def run_job(self, job, trace):
        rec = {"name": job["name"], "failures": []}
        limit = min(job["limit_s"], self.deadline - time.monotonic())
        if limit <= 0:
            rec["failures"].append("not started: run deadline reached")
            return rec
        if os.path.exists(job["output"]):
            os.remove(job["output"])
        job_file = os.path.join(self.workdir, job["name"] + ".job.json")
        result_file = os.path.join(self.workdir, job["name"] + ".result.json")
        with open(job_file, "w") as handle:
            json.dump(job, handle)
        if os.path.exists(result_file):
            os.remove(result_file)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), job_file, result_file,
               "1" if trace else "0"]
        try:
            proc = subprocess.run(cmd, env=self.env, timeout=limit, cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True)
        except subprocess.TimeoutExpired:
            rec["failures"].append(f"timeout after {limit:.0f} s")
            return rec
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            rec["failures"].append(f"worker exit {proc.returncode}: {tail[0]}")
            return rec
        with open(result_file) as handle:
            result = json.load(handle)
        rec.update(seconds=result["seconds"], wall_s=result["wall_s"],
                   rss_kib=result["rss_kib"], trace=result.get("trace"))
        if result["rc"] != 0:
            rec["failures"].append(f"exit code {result['rc']}")
            return rec
        rec["failures"].extend(f"invariant {c}" for c in result["failed_checks"])
        rec["failures"].extend(self.check_golden(job))
        return rec

    def check_golden(self, job):
        path = golden_path(self.workload, job)
        if not os.path.exists(path):
            if self.seed == workloads.DEFAULT_SEED:
                return [GOLDEN_MISSING]
            return []
        with open(path, "rb") as want, open(job["output"], "rb") as got:
            return [] if want.read() == got.read() else [GOLDEN_DIFFERS]

    def run_pass(self, trace):
        recs = [self.run_job(job, trace) for job in self.jobs]
        by_name = {rec["name"]: rec for rec in recs}
        by_job = {job["name"]: job for job in self.jobs}
        for a, b in workloads.SAME_VALUES.get(self.workload, ()):
            if by_name[a]["failures"] or by_name[b]["failures"]:
                continue
            with open(by_job[a]["output"]) as fa, open(by_job[b]["output"]) as fb:
                if json.load(fa)["values"] != json.load(fb)["values"]:
                    by_name[b]["failures"].append(f"values differ from {a}")
        return recs

    def update_golden(self, recs):
        for job, rec in zip(self.jobs, recs):
            if set(rec["failures"]) - {GOLDEN_MISSING, GOLDEN_DIFFERS}:
                continue
            path = golden_path(self.workload, job)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            shutil.copyfile(job["output"], path)


def pass_jobs_s(recs):
    return sum(rec.get("seconds", 0.0) for rec in recs)


def merge_traces(recs):
    spans, counters = {}, {}
    agg = {"spans": spans, "counters": counters, "scalar_ops_s": 0.0, "n_spans": 0,
           "problems": set(), "missing": set()}
    for rec in recs:
        tr = rec.get("trace")
        if tr is None:
            continue
        for name, row in tr["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, value in tr["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for key in ("scalar_ops_s", "n_spans"):
            agg[key] += tr[key]
        agg["problems"].update(tr["problems"])
        agg["missing"].update(tr["missing"])
    return agg


def layer_metrics(agg, traced_s, untraced_s, fail_frac):
    spans, counters = agg["spans"], agg["counters"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(layer):
        return sum((row[2] for name, row in spans.items() if name.split(".")[0] == layer), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    arith = calls("scalar.add") + calls("scalar.mul") + calls("scalar.div")
    fits = calls("ratfun.fit")
    layers = sum(self_s(layer) for layer in
                 ("scalar", "ratfun", "lambdaring", "monoids", "ehrhart", "stacky", "cli"))
    count, s = "count", "s"
    rows = [
        ("scalar.add.calls", count, calls("scalar.add")),
        ("scalar.mul.calls", count, calls("scalar.mul")),
        ("scalar.div.calls", count, calls("scalar.div")),
        ("scalar.ops.s", s, agg["scalar_ops_s"]),
        ("scalar.self_s", s, self_s("scalar")),
        ("scalar.den_ops", count, counters.get("scalar.den_ops", 0)),
        ("scalar.den_ops_ratio", "ratio", ratio(counters.get("scalar.den_ops", 0), arith)),
        ("scalar.root_of_unity.calls", count, calls("scalar.root_of_unity")),
        ("scalar.eval_numeric.calls", count, calls("scalar.eval_numeric")),
        ("scalar.eval_numeric.s", s, secs("scalar.eval_numeric")),
        ("lambdaring.convolve.calls", count, calls("lambdaring.convolve")),
        ("lambdaring.convolve.s", s, secs("lambdaring.convolve")),
        ("lambdaring.convolve.pairs", count, counters.get("lambdaring.convolve.pairs", 0)),
    ]
    for op in ("log_conv", "pleth_log", "log_direct", "pleth_sym", "exp_conv", "pushforward"):
        rows.append((f"lambdaring.{op}.s", s, secs(f"lambdaring.{op}")))
    rows += [
        ("lambdaring.adams.calls", count, calls("lambdaring.adams")),
        ("lambdaring.self_s", s, self_s("lambdaring")),
        ("monoids.stacky_value.calls", count, calls("monoids.stacky_value")),
        ("monoids.stacky_value.s", s, secs("monoids.stacky_value")),
        ("monoids.fixed_elements.calls", count, calls("monoids.fixed_elements")),
        ("monoids.fixed_elements.s", s, secs("monoids.fixed_elements")),
        ("monoids.trace.calls", count, calls("monoids.trace")),
        ("monoids.self_s", s, self_s("monoids")),
        ("ratfun.fit.calls", count, fits),
        ("ratfun.fit.s", s, secs("ratfun.fit")),
        ("ratfun.fit.no_fit", count, counters.get("ratfun.fit.no_fit", 0)),
        ("ratfun.fit.yield", "ratio", ratio(fits - counters.get("ratfun.fit.no_fit", 0), fits)),
        ("ratfun.fit.coeffs", count, counters.get("ratfun.fit.coeffs", 0)),
        ("ratfun.self_s", s, self_s("ratfun")),
        ("ehrhart.count_dilation.calls", count, calls("ehrhart.count_dilation")),
        ("ehrhart.count_dilation.s", s, secs("ehrhart.count_dilation")),
        ("ehrhart.count_dilation.points", count,
         counters.get("ehrhart.count_dilation.points", 0)),
        ("ehrhart.count_dilation.box_points", count,
         counters.get("ehrhart.count_dilation.box_points", 0)),
        ("ehrhart.count_dilation.hit_ratio", "ratio",
         ratio(counters.get("ehrhart.count_dilation.points", 0),
               counters.get("ehrhart.count_dilation.box_points", 0))),
        ("ehrhart.delta_count.orbits.calls", count, calls("ehrhart.delta_count.orbits")),
        ("ehrhart.delta_count.orbits.s", s, secs("ehrhart.delta_count.orbits")),
        ("ehrhart.delta_count.differences.calls", count,
         calls("ehrhart.delta_count.differences")),
        ("ehrhart.delta_count.differences.s", s, secs("ehrhart.delta_count.differences")),
        ("ehrhart.delta_limit.s", s, secs("ehrhart.delta_limit")),
        ("ehrhart.polytope.s", s, secs("ehrhart.polytope")),
        ("ehrhart.self_s", s, self_s("ehrhart")),
        ("stacky.volume_series.calls", count, calls("stacky.volume_series")),
        ("stacky.volume_series.s", s, secs("stacky.volume_series")),
        ("stacky.volume_fit.attempts", count, counters.get("stacky.volume_fit.attempts", 0)),
        ("stacky.inertia_points.calls", count, calls("stacky.inertia_points")),
        ("stacky.inertia_points.points", count,
         counters.get("stacky.inertia_points.points", 0)),
        ("stacky.fiber_orbits.s", s, secs("stacky.fiber_orbits")),
        ("stacky.weighted_inertia.calls", count, calls("stacky.weighted_inertia")),
        ("stacky.weighted_inertia.s", s, secs("stacky.weighted_inertia")),
        ("stacky.bps_counting_function.s", s, secs("stacky.bps_counting_function")),
        ("stacky.bruteforce.s", s, secs("stacky.bruteforce")),
        ("stacky.bruteforce.classes", count, counters.get("stacky.bruteforce.classes", 0)),
        ("stacky.gf.builds", count, calls("stacky.gf")),
        ("stacky.gf.s", s, secs("stacky.gf")),
    ]
    for fn in ("stacky_counting_function", "quiver_bps", "plethystic_identity_residual",
               "delta_report"):
        rows.append((f"stacky.{fn}.s", s, secs(f"stacky.{fn}")))
    rows.append(("stacky.self_s", s, self_s("stacky")))
    for cmd in ("volume", "ehrhart", "bps", "delta", "plid-check", "plethystic"):
        rows.append((f"cli.{cmd}.s", s, secs(f"cli.{cmd}")))
    rows += [
        ("cli.self_s", s, self_s("cli")),
        ("trace.jobs_s", s, traced_s),
        ("trace.layers_self_s", s, layers),
        ("trace.unattributed_s", s, traced_s - layers),
        ("trace.spans", count, agg["n_spans"]),
        ("trace_overhead", "ratio", ratio(traced_s, untraced_s)),
        ("fail_frac", "ratio", fail_frac),
    ]
    return {name: {"value": value, "unit": unit} for name, unit, value in rows}


def machine_info():
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "git_sha": None, "dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            info["git_sha"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                check=True, timeout=30).stdout.strip()
            info["dirty"] = bool(subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain"], capture_output=True,
                text=True, check=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "stacky_volumes", "cli.py")):
        sys.exit(f"perfbench: no program under {SRC}; run from a full checkout")

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        setup_s = measure_setup(runner.env)
        started = time.monotonic()
        passes = []
        if args.trace:
            passes = [runner.run_pass(False), runner.run_pass(True), runner.run_pass(True)]
        else:
            while True:
                t0 = time.monotonic()
                passes.append(runner.run_pass(False))
                took = time.monotonic() - t0
                if (time.monotonic() - started + took > args.seconds
                        or time.monotonic() + took > runner.deadline):
                    break
        if args.update_golden:
            runner.update_golden(passes[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recs = [rec for p in passes for rec in p]
    failures = [f"{rec['name']}: {f}" for rec in recs for f in rec["failures"]]
    failed = sum(1 for rec in recs if rec["failures"])
    problems, missing = [], []
    if args.trace:
        untraced, traced, again = passes
        agg, agg2 = merge_traces(traced), merge_traces(again)
        problems += sorted(agg["problems"] | agg2["problems"])
        missing = sorted(agg["missing"])
        for name in EXPECTED_SPANS[args.workload]:
            if not agg["spans"].get(name, (0,))[0]:
                problems.append(f"expected span {name} is missing")
        counters = {k: agg["counters"].get(k, 0) for k in COUNTERS}
        counters.update((f"{k}.calls", v[0]) for k, v in agg["spans"].items())
        repeat = {k: agg2["counters"].get(k, 0) for k in COUNTERS}
        repeat.update((f"{k}.calls", v[0]) for k, v in agg2["spans"].items())
        problems += [f"counter {k} differs between traced passes"
                     for k in sorted(set(counters) | set(repeat))
                     if counters.get(k) != repeat.get(k)]
        metrics = layer_metrics(agg, pass_jobs_s(traced), pass_jobs_s(untraced),
                                failed / len(recs))
    else:
        metrics = {
            "jobs_s": {"value": statistics.median(pass_jobs_s(p) for p in passes),
                       "unit": "s"},
            "slowest_job_s": {"value": statistics.median(
                max(rec.get("seconds", 0.0) for rec in p) for p in passes), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": max(rec.get("rss_kib", 0) for rec in recs) / 1024,
                             "unit": "MiB"},
        }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": len(passes), "fail_frac": failed / len(recs),
            "failures": failures, "problems": problems, "trace_targets_missing": missing,
            "machine": machine_info(),
            "job_cpu_wall_s": [{rec["name"]: [rec.get("seconds"), rec.get("wall_s")]
                                for rec in p} for p in passes]}
    print(json.dumps({"perfbench": info}))
    print(json.dumps({"correct": not failures and not problems, "attempted": len(recs),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

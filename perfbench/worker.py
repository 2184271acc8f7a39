"""Run one benchmark job in this fresh interpreter and write its result.

usage: PYTHONPATH=src python3 perfbench/worker.py JOB_FILE RESULT_FILE TRACE

JOB_FILE holds one job from workloads.py plus the paths of its input and
output files.  Only the call into the program is timed: cli.run for a CLI job,
the libjobs function for a library job.  With TRACE=1 the tracer is installed
before the program is imported further, and removed before the checks run.

The job time is CPU time (user + system) of this process and of any children
it waited for.  The program is single-threaded and does no waiting, so on an
idle core this equals its wall time; unlike wall time it leaves out the time
the hypervisor hands the core to other guests, which on a shared virtual
machine swings wall times by tens of percent.  Wall time is recorded too.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def cpu_seconds():
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF,
                                                 resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def main(job_path, result_path, trace):
    with open(job_path) as handle:
        job = json.load(handle)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    from stacky_volumes import cli

    import checks
    import libjobs

    argv = [job["command"], "--input", job["input"], "--output", job["output"]]
    wall, cpu = time.perf_counter(), cpu_seconds()
    if job["kind"] == "cli":
        rc = cli.run(argv)
    else:
        raw = getattr(libjobs, job["command"])(job["params"])
        rc = 0
    cpu, wall = cpu_seconds() - cpu, time.perf_counter() - wall
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"rc": rc, "seconds": cpu, "wall_s": wall, "rss_kib": rss_kib}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()

    failed = []
    if job["kind"] == "lib":
        report = getattr(libjobs, job["command"] + "_report")(raw)
        with open(job["output"], "w") as handle:
            handle.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
        failed = getattr(libjobs, job["command"] + "_check")(raw)
    elif rc == 0:
        with open(job["output"]) as handle:
            report = json.load(handle)
        for name in job["checks"]:
            try:
                ok = checks.CHECKS[name](job, report)
            except Exception as exc:  # a malformed report fails the check
                failed.append(f"{name}: {exc!r}")
                continue
            if not ok:
                failed.append(name)
    result["failed_checks"] = failed
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")

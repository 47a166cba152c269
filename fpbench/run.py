#!/usr/bin/env python3
"""Runs one workload of the FORECAST-task benchmark and prints its result.

Usage, from the root of a checkout:

    python3 fpbench/run.py --workload sample-arima --seed 1 --seconds 10 --trace 0

The first run builds the checkout's own sources offline with sbt (the
benchmark's build in fpbench/ depends on the program's build at the root)
and caches the class path under .bench_build/fpbench; later runs reuse it
while no source file has changed. The workload runs in one JVM. Spark's
log lines go to a file, never to standard output, whose last line is the
result: {"correct", "attempted", "failed", "metrics"}. Each run's task
stream, detailed results and (traced) spans are written next to that log,
under .bench_build/fpbench/runs/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "fpbench")
BUILD = os.path.join(ROOT, ".bench_build", "fpbench")
WORKLOADS = ("sample-arima", "full-lstm", "ingest")

# Sources whose change forces a rebuild.
SOURCES = ["build.sbt", "project", "src/main", "jobs",
           "fpbench/build.sbt", "fpbench/project", "fpbench/src/main"]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Module access Spark needs on Java 17 (as spark-submit passes it).
JAVA_OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
              "java.net", "java.nio", "java.util", "java.util.concurrent",
              "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch",
              "sun.nio.cs", "sun.security.action", "sun.util.calendar"]


def fail(msg, code=1):
    print(f"fpbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            yield rel
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def stamp():
    h = hashlib.sha256()
    for rel in source_files():
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    if not env.get("SBT_OPTS"):
        repos = os.path.expanduser("~/.sbt/repositories")
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true "
                           f"-Dsbt.repository.config={repos} "
                           "-Dsbt.offline=true -Xmx2g")
    return env


def build():
    """Returns the class path, building the checkout first if needed."""
    for rel in ("build.sbt", "src/main/scala", "fpbench/build.sbt"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"{rel} not found: run from the root of a checkout of the program", 2)
    os.makedirs(BUILD, exist_ok=True)
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp_file = os.path.join(BUILD, "stamp.txt")
    want = stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == want:
                with open(cp_file) as g:
                    return g.read().strip()
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(
                ["sbt", "--batch", "-Dsbt.log.noformat=true",
                 "export Runtime/fullClasspath"],
                cwd=BENCH, env=sbt_env(), stdout=subprocess.PIPE, stderr=log,
                stdin=subprocess.DEVNULL, text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build did not finish within {BUILD_TIMEOUT_S} s; see {log_path}")
        log.write(proc.stdout)
    lines = [l.strip() for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        fail(f"build failed (exit {proc.returncode}); see {log_path}")
    with open(cp_file, "w") as f:
        f.write(lines[-1])
    with open(stamp_file, "w") as f:
        f.write(want)
    return lines[-1]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args, classpath):
    out = os.path.join(BUILD, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") \
        if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, "-Xmx2g", "-XX:+IgnoreUnrecognizedVMOptions",
           *[f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JAVA_OPENS],
           "-Dio.netty.tryReflectionSetAccessible=true",
           "-Dspark.driver.host=127.0.0.1",
           f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
           f"-Djava.io.tmpdir={tmp}",
           "-cp", classpath, "fpbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    err_path = os.path.join(out, "stderr.log")
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, text=True,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s; "
                 f"see {err_path}")
    lines = stdout.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict):
        with open(err_path) as f:
            tail = f.readlines()[-15:]
        sys.stderr.write("".join(tail))
        fail(f"workload {args.workload} ended with exit {proc.returncode} and no result; "
             f"see {err_path}")
    want = declared_metrics(args.trace)
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(want) or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result does not match BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        fail(f"workload {args.workload}: {result['failed']} of {result['attempted']} "
             f"failed; see {err_path}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    t0 = time.time()
    classpath = build()
    print(f"fpbench: {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}; "
          f"build ready in {time.time() - t0:.1f} s", file=sys.stderr)
    run(args, classpath)


if __name__ == "__main__":
    main()

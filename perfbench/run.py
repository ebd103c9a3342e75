#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload batch|serve_live|cluster_ab \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the repository's
libraries, the `crf` tool and the `crf_perfbench` binary from source into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's input from
the seed (cached, untimed), runs `crf_perfbench`, and prints one line per metric
followed by a JSON result line. With --trace 0 the result holds the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (machines, days) per workload; batch and serve_live each generate a cell-a
# trace of their size per seed. serve_live stays short: with hour-long ingest
# windows the server recomputes each machine's whole-trace oracle once per
# window, so its cost grows with the square of the trace length.
SIZES = {"batch": (256, 7), "serve_live": (256, 2), "cluster_ab": (256, 4)}
# The smoke test's tiny mode: a few machines, one day.
TINY_SIZES = {"batch": (8, 1), "serve_live": (8, 1), "cluster_ab": (8, 1)}
TRACE_CELL = "a"
# Generated traces kept in the input cache; older ones are evicted.
CACHE_TRACES = 16
BENCH_TIMEOUT_S = 150
GENERATE_TIMEOUT_S = 120


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def die(message):
    log(message)
    sys.exit(2)


def run_checked(command, timeout, **kwargs):
    """Runs a command in its own process group and returns its exit status.

    Whatever the command leaves running in its group (a server that was
    not shut down) is killed and waited for, and so is the whole group on
    timeout.
    """
    process = subprocess.Popen(command, start_new_session=True, **kwargs)
    status = None
    try:
        status = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    finally:
        stop_group(process)
    if status is None:
        die(f"timed out after {timeout} s: {' '.join(command)}")
    return status


def stop_group(process):
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    process.wait()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def tree_hash(paths):
    """sha256 over the relative names and bytes of every file under paths."""
    digest = hashlib.sha256()
    files = []
    for path in paths:
        full = os.path.join(ROOT, path)
        if os.path.isfile(full):
            files.append(path)
        for directory, _, names in os.walk(full):
            files.extend(os.path.relpath(os.path.join(directory, n), ROOT) for n in names)
    for name in sorted(files):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(ROOT, name), "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


def build(build_dir, jobs):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        status = run_checked(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"], 900, stdout=sys.stderr)
        if status != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            die("configure failed")
    status = run_checked(["cmake", "--build", build_dir, "-j", str(jobs), "--target", "crf",
                          "crf_perfbench"], 900, stdout=sys.stderr)
    if status != 0:
        die("build failed")
    return (os.path.join(build_dir, "crf_tools", "crf"),
            os.path.join(build_dir, "crf_perfbench"))


def generated_trace(crf_bin, cache_dir, seed, machines, days, threads):
    """The cell trace for (seed, size), generated once per generator source.

    The key covers the seed, the size and every source the generator
    compiles from, so a generator change never reuses a stale input.
    """
    sources = tree_hash(["src/crf/trace", "src/crf/index", "src/crf/stats", "src/crf/util",
                         "tools/crf_cli.cc"])
    key = hashlib.sha256(f"{TRACE_CELL}|{machines}|{days}|{seed}|{sources}".encode())
    path = os.path.join(cache_dir, f"cell{TRACE_CELL}-{machines}x{days}-seed{seed}-"
                                   f"{key.hexdigest()[:16]}.crftrace")
    if os.path.exists(path):
        os.utime(path)
        return path
    os.makedirs(cache_dir, exist_ok=True)
    partial = path + ".partial"
    status = run_checked([crf_bin, "generate", f"--cell={TRACE_CELL}", f"--days={days}",
                          f"--machines={machines}", f"--seed={seed}", "--binary",
                          f"--threads={threads}", f"--out={partial}"],
                         GENERATE_TIMEOUT_S, stdout=sys.stderr)
    if status != 0:
        die("trace generation failed")
    os.replace(partial, path)
    traces = sorted(glob.glob(os.path.join(cache_dir, "*.crftrace")), key=os.path.getmtime)
    for stale in traces[:-CACHE_TRACES]:
        os.remove(stale)
    return path


def histogram_percentile_us(histogram, q):
    """Percentile of a log2-ns histogram: the mean of the bucket holding it."""
    total = sum(bucket["count"] for bucket in histogram)
    if total == 0:
        return 0.0
    rank = max(1, -(-int(q * total * 1000) // 1000))
    seen = 0
    for bucket in sorted(histogram, key=lambda b: b["log2_ns"]):
        seen += bucket["count"]
        if seen >= rank:
            return bucket["mean"] / 1e3
    return histogram[-1]["mean"] / 1e3


def server_metrics(path):
    """Per-layer metrics read from the server's MetricsSnapshot document."""
    with open(path) as handle:
        snapshot = json.load(handle)
    net = snapshot["net"]
    ops = {op["op"]: op["latency_log2_ns"] for op in net["ops"]}
    return {
        "net.ingest_server_p99_us": (histogram_percentile_us(ops.get("ingest-batch", []), 0.99),
                                     "us"),
        "net.admission_server_p99_us": (
            histogram_percentile_us(ops.get("admission-check", []), 0.99), "us"),
        "net.rejected_frames": (float(net["frames_rejected"]), "count"),
    }


def check_digests(result, digest_dir, seed, machines, days):
    """cluster_ab: the A/B digests of a seed must match every earlier run's.

    Returns the number of digests compared and the mismatches found.
    """
    key = tree_hash(["src", "tools/crf_cli.cc"])[:16]
    path = os.path.join(digest_dir, f"cluster_ab-{machines}x{days}-seed{seed}-{key}.json")
    os.makedirs(digest_dir, exist_ok=True)
    known = {}
    if os.path.exists(path):
        with open(path) as handle:
            known = json.load(handle)
    compared, mismatches = 0, []
    for name in ("group_digest", "placement_digest"):
        value = result["info"].get(name)
        if value is None:
            continue
        if name in known:
            compared += 1
            if known[name] != value:
                mismatches.append(f"{name} {value} differs from an earlier run's {known[name]}")
        known.setdefault(name, value)
    with open(path, "w") as handle:
        json.dump(known, handle)
    return compared, mismatches


def source_id():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "src-sha256:" + tree_hash(["src", "tools"])[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few machines and one day (the smoke test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt every correctness expectation (the smoke test)")
    args = parser.parse_args()

    catalogue_path = os.path.join(ROOT, "BENCHMARK.json")
    for required in ("src/CMakeLists.txt", "tools/CMakeLists.txt", "tools/crf_cli.cc"):
        if not os.path.exists(os.path.join(ROOT, required)):
            die(f"no {required}: run from the root of a checkout of the repository")
    if not os.path.exists(catalogue_path):
        die("no BENCHMARK.json at the root of the checkout")
    with open(catalogue_path) as handle:
        catalogue = json.load(handle)
    wanted = catalogue["per_layer"] if args.trace else catalogue["end_to_end"]

    nproc = os.cpu_count() or 1
    threads = min(4, nproc)
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(os.getcwd(), build_root)
    os.makedirs(build_root, exist_ok=True)
    machines, days = (TINY_SIZES if args.tiny else SIZES)[args.workload]

    # One run at a time per build directory: builds and the input cache are shared.
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Keyed by checkout, so that two checkouts sharing CARGO_TARGET_DIR
        # (a base and a head) never build into, and time, one binary.
        checkout = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
        crf_bin, bench_bin = build(os.path.join(build_root, f"perfbench-{checkout}"), threads)
        trace_path = ""
        if args.workload in ("batch", "serve_live"):
            trace_path = generated_trace(crf_bin, os.path.join(build_root, "perfbench-inputs"),
                                         args.seed, machines, days, threads)

        work_dir = os.path.join(build_root, "perfbench-work", f"{args.workload}-{os.getpid()}")
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        out_path = os.path.join(work_dir, "result.json")
        command = [bench_bin, f"--workload={args.workload}", f"--seed={args.seed}",
                   f"--seconds={args.seconds}", f"--trace={args.trace}",
                   f"--machines={machines}", f"--days={days}", f"--threads={threads}",
                   f"--trace-file={trace_path}", f"--crf={crf_bin}", f"--work-dir={work_dir}",
                   f"--out={out_path}"]
        if args.corrupt:
            command.append("--corrupt")
        started = time.monotonic()
        status = run_checked(command, BENCH_TIMEOUT_S, stdout=sys.stderr)
        if status != 0 or not os.path.exists(out_path):
            die(f"crf_perfbench exited with status {status}")
        with open(out_path) as handle:
            result = json.load(handle)
        log(f"crf_perfbench finished in {time.monotonic() - started:.1f} s")

        metrics = {name: (entry["value"], entry["unit"], entry["samples"])
                   for name, entry in result["metrics"].items()}
        snapshot = result["info"].get("server_metrics")
        if args.trace and snapshot:
            for name, (value, unit) in server_metrics(snapshot).items():
                metrics[name] = (value, unit, 1)
        failures = list(result["failures"])
        attempted, failed = result["attempted"], result["failed"]
        if args.workload == "cluster_ab":
            compared, mismatches = check_digests(
                result, os.path.join(build_root, "perfbench-digests"), args.seed, machines, days)
            attempted += compared
            failures += mismatches
            failed += len(mismatches)
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = max(attempted, failed, 1)
    host = dict(result["info"])
    host.pop("server_metrics", None)
    host["source"] = source_id()
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"size {machines} machines x {days} days")
    for name in sorted(metrics):
        value, unit, samples = metrics[name]
        print(f"  {name:34s} {value:16.6g} {unit:6s} n={samples}")
    print(f"  {'failed_op_frac':34s} {failed / attempted:16.6g} {'ratio':6s} "
          f"n={attempted}")
    for reason in failures:
        print(f"  FAILED: {reason}")

    # Metrics a workload does not exercise (another workload's layers) are 0.
    out = {}
    for metric in wanted:
        name = metric["name"]
        if name == "op_success_frac":
            value = 1.0 - failed / attempted
        else:
            value = metrics.get(name, (0.0,))[0]
        out[name] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

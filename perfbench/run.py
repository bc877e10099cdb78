#!/usr/bin/env python3
"""End-to-end benchmark of the ULBA repository.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-scale-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first run builds `ulba_cli` and the benchmark's binary `ulba_bench` as a
Release build (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, default
`.bench_build`. With `--trace 0` a run repeats one operation of the workload
in fresh processes for `--seconds` seconds and reports the end-to-end
metrics; with `--trace 1` it runs the traced replica once and reports the
per-layer metrics. Every output is verified. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metric table.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = "perfbench"

# Every erosion workload pins the trajectory axes explicitly, so a change of
# a CLI default does not change what is measured. `--exchange` applies only
# to `--ranks` runs (the CLI refuses it otherwise).
PINNED = ["--rng", "counter", "--partitioner", "greedy", "--decomp", "stripes",
          "--alpha", "0.4"]
PAPER_SCALE = ["--pes", "32", "--columns-per-pe", "1000", "--rows", "1000",
               "--rock-radius", "250", "--iterations", "400", "--strong", "1"]

# The workloads BENCHMARK.json lists, plus two that only run by hand:
# `paper-scale` (--threads 4) and `ranks-4` keep every iteration waiting on
# all four CPUs, so on a host whose CPUs are shared their wall time follows
# the neighbours' load (see perfbench/README.md). `ranks-2` takes the
# distributed path with two CPUs to spare.
WORKLOADS = {
    "paper-scale-serial": {
        "kind": "erosion",
        "flags": PAPER_SCALE + ["--threads", "1"] + PINNED,
    },
    "paper-scale": {
        "kind": "erosion",
        "flags": PAPER_SCALE + ["--threads", "4"] + PINNED,
    },
    "many-pe": {
        "kind": "erosion",
        "flags": ["--pes", "512", "--columns-per-pe", "64", "--rows", "96",
                  "--rock-radius", "24", "--iterations", "180",
                  "--strong", "1", "--threads", "1"] + PINNED,
    },
    # Four strong rocks, so that on some seeds a rebalance hands a disc to
    # the other rank.
    "ranks-2": {
        "kind": "erosion",
        "flags": ["--pes", "32", "--columns-per-pe", "500", "--rows", "500",
                  "--rock-radius", "125", "--iterations", "400",
                  "--strong", "4", "--ranks", "2", "--exchange", "neighbor",
                  "--threads", "1"] + PINNED,
    },
    "ranks-4": {
        "kind": "erosion",
        "flags": PAPER_SCALE + ["--ranks", "4", "--exchange", "neighbor",
                                "--threads", "1"] + PINNED,
    },
    "serve-mix": {
        "kind": "serve",
        "flags": ["--clients", "3", "--requests", "800", "--distinct", "256",
                  "--cache-capacity", "128"],
    },
}

MIN_WARM_OPS = 3    # warm operations per run, even past --seconds
SETUP_PROBES = 3    # erosion set-ups timed before each operation
OP_TIMEOUT_S = 150  # one operation; the whole run must end within 180 s

# The lines of `ulba_cli erosion` that carry the virtual-time results.
REPORT_PREFIXES = ("  total time", "  LB calls", "  avg utilization",
                   "  utilization", "==> ULBA gain")


class Refused(Exception):
    """The benchmark cannot produce a trustworthy result here."""


# ---------------------------------------------------------------- build ----

def build_dir(root):
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(root, d)


def build(root):
    """Configure (once) and build the Release binaries; return their paths."""
    for needed in ("CMakeLists.txt", os.path.join("src", "erosion", "app.hpp"),
                   os.path.join(BENCH_DIR, "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, needed)):
            raise Refused(f"no {needed} here: run from the root of a "
                          "checkout of the repository")
    bdir = build_dir(root)
    os.makedirs(bdir, exist_ok=True)
    build_log = os.path.join(bdir, "perfbench-build.log")
    cache = os.path.join(bdir, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", os.path.join(root, BENCH_DIR), "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4", "--target",
                  "ulba_cli_exe", "ulba_bench"])
    with open(build_log, "ab") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                raise Refused(f"build failed: {' '.join(step)} "
                              f"(see {build_log})")
    with open(cache, encoding="utf-8", errors="replace") as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        raise Refused(f"{bdir} is a '{build_type}' build; numbers are "
                      "recorded from Release builds only")
    bins = {"cli": os.path.join(bdir, "ulba", "ulba_cli"),
            "bench": os.path.join(bdir, "ulba_bench")}
    info = json.loads(subprocess.run([bins["bench"], "build-info"], check=True,
                                     capture_output=True, text=True).stdout)
    if info["build_type"] != "Release" or not info["ndebug"]:
        raise Refused(f"ulba_bench reports a non-Release build: {info}")
    Op.bench = bins["bench"]
    return bins, info


def stamp(root, info):
    """Where the numbers come from: machine, toolchain, build, source."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR, "CMakeLists.txt"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names
            if not n.endswith(".pyc"))
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": info["compiler"], "build_type": info["build_type"],
            "commit": commit, "source_sha256": digest.hexdigest()[:16]}


# ----------------------------------------------------------- operations ----

class Op:
    """One finished child process: wall, CPU, peak RSS, exit code, output.

    The child runs under `ulba_bench exec`, which forks it from a small
    process and measures it with wait4 (see src/main.cpp)."""

    bench = None  # path of ulba_bench, set once built

    def __init__(self, argv, out_path):
        usage_path = out_path + ".usage"
        if os.path.exists(usage_path):
            os.remove(usage_path)
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            proc = subprocess.Popen(
                [Op.bench, "exec", "--usage", usage_path, "--"] + argv,
                stdout=out, stderr=err, start_new_session=True)
            timer = threading.Timer(
                OP_TIMEOUT_S, lambda: os.killpg(proc.pid, signal.SIGKILL))
            timer.start()
            try:
                self.code = proc.wait()
            finally:
                timer.cancel()
        try:
            with open(usage_path, encoding="utf-8") as f:
                usage = json.load(f)
        except (OSError, ValueError):
            usage = {"wall_s": 0.0, "cpu_s": 0.0, "maxrss_kb": 0,
                     "code": self.code or 1}
        self.code = usage["code"]
        self.wall_s = usage["wall_s"]
        self.cpu_s = usage["cpu_s"]
        self.rss_mb = usage["maxrss_kb"] / 1024.0  # Linux reports KiB
        with open(out_path, encoding="utf-8", errors="replace") as f:
            self.stdout = f.read()

    def json(self):
        """The last stdout line of a ulba_bench subcommand, or None."""
        lines = self.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except ValueError:
            return None


def serial_flags(flags):
    """The same erosion problem run serially: --threads 1, no ranks."""
    out, i = [], 0
    while i < len(flags):
        if flags[i] in ("--threads", "--ranks", "--exchange"):
            i += 2
        else:
            out.append(flags[i])
            i += 1
    return out + ["--threads", "1"]


def report_lines(text):
    return [line for line in text.splitlines()
            if line.startswith(REPORT_PREFIXES)]


def erosion_output_ok(op_stdout, code, reference):
    """An erosion invocation passes if it exited 0 and printed exactly the
    serial reference's virtual-time results."""
    return code == 0 and bool(reference) and report_lines(op_stdout) == reference


def serve_output_ok(result, code, reference, expected_requests):
    """A serve session passes if it exited 0, answered every request, and
    every answer equals the cold evaluation (provenance masked)."""
    if code != 0 or result is None:
        return False
    if result["checks"].get("requests") != expected_requests:
        return False
    for item in filter(None, result["info"]["answers"].split(",")):
        index, digest, _count = item.split(":")
        if reference.get(index) != digest:
            return False
    return True


def corrupted(text):
    """One wrong value in an operation's output: an erosion report's LB
    count, or the first answer digest of a serve session."""
    if "  LB calls        : " in text:
        return text.replace("  LB calls        : ", "  LB calls        : 1", 1)
    return re.sub(r'("answers": "\d+:)([0-9a-f])',
                  lambda m: m.group(1) + ("1" if m.group(2) != "1" else "2"),
                  text, count=1)


def quantile(values, q):
    """Linear-interpolation quantile, as ulba_bench computes it."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# ------------------------------------------------------------ workloads ----

class Run:
    def __init__(self, name, seed, seconds, out_dir, bins, spec=None,
                 corrupt=False):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.bins = bins
        self.spec = spec or WORKLOADS[name]
        self.corrupt = corrupt  # self-test: corrupt the first warm output
        self.flags = self.spec["flags"] + ["--seed", str(seed)]
        self.metrics = {}   # name -> (value, unit, note)
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def path(self, tag):
        return os.path.join(self.out_dir, f"{self.name}-{self.seed}-{tag}")

    def metric(self, name, value, unit, note=""):
        self.metrics[name] = (value, unit, note)

    def timed_ops(self, argv, verify, setup_probe=None):
        """Repeat one operation in fresh processes for --seconds (at least
        one cold plus MIN_WARM_OPS warm); report the cold one apart, record
        the end-to-end metrics of the warm ones and return those. The set-up
        time of operation k is `setup_probe(k)`, run just ahead of it so its
        samples spread over the run, or else the one `verify` reads from the
        operation's output."""
        ops, start = [], time.perf_counter()
        while (len(ops) < 1 + MIN_WARM_OPS
               or time.perf_counter() - start < self.seconds):
            setup = setup_probe(len(ops)) if setup_probe else None
            op = Op(argv, self.path(f"op{len(ops)}"))
            op.setup_s = setup
            if self.corrupt and len(ops) == 1:
                op.stdout = corrupted(op.stdout)
            ok = verify(op)
            self.attempted += 1
            self.failed += 0 if ok else 1
            if not ok:
                self.notes.append(f"operation {len(ops)} failed verification "
                                  f"(exit {op.code})")
            ops.append(op)
        cold, warm = ops[0], ops[1:]
        cold_setup = ("none" if cold.setup_s is None
                      else f"{cold.setup_s:.5f} s")
        self.notes.append(f"cold first operation: {cold.wall_s:.4f} s wall, "
                          f"set-up {cold_setup} (excluded from the medians); "
                          f"{len(warm)} warm: "
                          + " ".join(f"{o.wall_s:.3f}" for o in warm))
        self.common_metrics(warm)
        return warm

    def common_metrics(self, warm):
        n = len(warm)
        setups = [o.setup_s for o in warm if o.setup_s is not None]
        self.metric("setup_s", statistics.median(setups) if setups else 0.0,
                    "s", f"median over the warm operations, n={len(setups)}")
        self.metric("run_s", statistics.median(o.wall_s for o in warm), "s",
                    f"median, n={n}")
        self.metric("cpu_s", statistics.median(o.cpu_s for o in warm), "s",
                    f"median user+sys, n={n}")
        self.metric("peak_rss_mb", statistics.median(o.rss_mb for o in warm),
                    "MB", f"median, n={n}")

    # -- erosion ---------------------------------------------------------

    def erosion(self):
        ref = Op([self.bins["cli"], "erosion"] + serial_flags(self.flags),
                 self.path("reference"))
        reference = report_lines(ref.stdout)
        if ref.code != 0 or not reference:
            raise Refused(f"serial reference failed (exit {ref.code})")

        def setup_probe(k):
            """The median of SETUP_PROBES set-ups, each in a fresh process."""
            setups = []
            for j in range(SETUP_PROBES):
                op = Op([self.bins["bench"], "setup"] + self.flags,
                        self.path(f"setup{k}-{j}"))
                result = op.json()
                if op.code != 0 or result is None:
                    raise Refused(f"set-up probe failed (exit {op.code})")
                setups.append(result["metrics"]["setup_s"]["value"])
            return statistics.median(setups)

        self.timed_ops(
            [self.bins["cli"], "erosion"] + self.flags,
            lambda op: erosion_output_ok(op.stdout, op.code, reference),
            setup_probe)

    # -- serve -----------------------------------------------------------

    def serve(self):
        ref = Op([self.bins["bench"], "serve-reference"] + self.flags,
                 self.path("reference"))
        ref_json = ref.json()
        if ref.code != 0 or ref_json is None:
            raise Refused(f"cold serve reference failed (exit {ref.code})")
        reference = dict(item.split(":") for item in
                         ref_json["info"]["digests"].split(","))
        f = dict(zip(self.flags[::2], self.flags[1::2]))
        expected = int(f["--clients"]) * int(f["--requests"])

        def verify(op):
            """Also reads the session's set-up time: the median of the world
            starts and pool generations it timed."""
            result = op.json()
            op.result = result
            if result is not None:
                op.setup_s = result["metrics"]["setup_s"]["value"]
            return serve_output_ok(result, op.code, reference, expected)

        warm = self.timed_ops([self.bins["bench"], "serve"] + self.flags,
                              verify)
        warm_results = [o.result for o in warm if o.result is not None]
        latencies = [x for r in warm_results for x in r["series"]["latency_ms"]]
        traffic = sum(r["metrics"]["traffic_s"]["value"] for r in warm_results)
        requests = sum(r["checks"]["requests"] for r in warm_results)
        hits = sum(r["checks"]["cache_hits"] for r in warm_results)
        self.metric("req_per_s", requests / traffic, "1/s",
                    f"{requests} requests over {traffic:.4f} s of traffic")
        self.metric("req_p50_ms", quantile(latencies, 0.5), "ms",
                    f"n={len(latencies)}")
        if len(latencies) >= 1000:
            self.metric("req_p99_ms", quantile(latencies, 0.99), "ms",
                        f"n={len(latencies)}")
        self.notes.append(f"cache hits: {hits} of {requests} requests")

    # -- traced runs -------------------------------------------------------

    def trace(self):
        """One traced operation; its checks compare it with untraced runs."""
        spans = self.path("spans.json")
        command = (["trace"] if self.spec["kind"] == "erosion"
                   else ["serve", "--trace"])
        op = Op([self.bins["bench"]] + command + ["--spans", spans]
                + self.flags, self.path("trace"))
        result = op.json()
        self.attempted += 1
        if op.code != 0 or result is None:
            self.failed += 1
            self.notes.append(f"traced run failed (exit {op.code})")
            return
        bad = {k: v for k, v in result["checks"].items() if v != 0}
        if bad:
            self.failed += 1
            self.notes.append(f"traced run does not match the untraced run: "
                              f"{bad} {result['info']}")
        for name, m in result["metrics"].items():
            self.metric(name, m["value"], m["unit"])
        self.notes.append(f"spans written to {os.path.relpath(spans)}")


def run_workload(args, root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bins, info = build(root)
    out_dir = os.path.join(build_dir(root), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    print("stamp: " + json.dumps(stamp(root, info)), flush=True)
    run = Run(args.workload, args.seed, args.seconds, out_dir, bins)
    kind = run.spec["kind"]
    if args.trace:
        run.trace()
        wanted = spec["per_layer"]
    else:
        (run.erosion if kind == "erosion" else run.serve)()
        wanted = spec["end_to_end"]

    # Every listed metric, by name and unit; a layer the workload does not
    # enter reports 0.
    metrics = {}
    for m in wanted:
        value, _unit, note = run.metrics.get(m["name"], (0.0, m["unit"], ""))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:<12} {m['name']:<24} {value:>16.6g} "
              f"{m['unit']:<6} {note}")
    listed = {m["name"] for m in wanted}
    for name, (value, unit, note) in run.metrics.items():
        if name not in listed:
            print(f"{args.workload:<12} {name:<24} {value:>16.6g} {unit:<6} "
                  f"{note}")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"{args.workload:<12} {'error_rate':<24} {error_rate:>16.6g} "
          f"ratio  {run.failed} failed of {run.attempted} attempted")
    for note in run.notes:
        print(f"{args.workload:<12} note: {note}")
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


# ------------------------------------------------------------ self-test ----

SELF_TEST = {
    "erosion": ["--pes", "4", "--columns-per-pe", "32", "--rows", "48",
                "--rock-radius", "12", "--iterations", "40", "--strong", "1",
                "--threads", "1"] + PINNED,
    "serve": ["--clients", "2", "--requests", "30", "--distinct", "8",
              "--cache-capacity", "4"],
}


def self_test(root):
    """Run each kind of workload twice on a tiny input, once with clean
    outputs and once with one corrupted output: verification must fail
    exactly the corrupted run, and its error rate must rise."""
    bins, _ = build(root)
    out_dir = os.path.join(build_dir(root), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    passed = True
    for kind, flags in SELF_TEST.items():
        for corrupt in (False, True):
            run = Run(f"self-test-{kind}", 5, 0, out_dir, bins,
                      {"kind": kind, "flags": flags}, corrupt)
            (run.erosion if kind == "erosion" else run.serve)()
            rate = run.failed / run.attempted
            ok = (run.failed == 1) if corrupt else (run.failed == 0)
            passed &= ok
            print(f"self-test {'PASS' if ok else 'FAIL'}: {kind}, "
                  f"{'one corrupted output' if corrupt else 'clean outputs'}"
                  f": error_rate {rate:.3g} ({run.failed} of "
                  f"{run.attempted}), correct {run.failed == 0}")
    return 0 if passed else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    root = os.getcwd()
    try:
        if args.self_test:
            return self_test(root)
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        return run_workload(args, root)
    except Refused as e:
        print(f"perfbench: refused: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

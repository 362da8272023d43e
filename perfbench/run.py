#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds trollc and the load process
(perfbench/perfbench.exe) with dune, runs one workload, prints every
metric by name and unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"} -- the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Exits non-zero
when the program cannot be built or run, or when an output is wrong.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = json.load(open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")))
RUN_DIR = ".perfbench_run"
TROLLC = "_build/default/bin/trollc.exe"
LOADER = "_build/default/perfbench/perfbench.exe"

# refine_employee: a cold `trollc refine` at a fixed depth, repeated
REFINE_DEPTH = 6
REFINE_ARGS = ["refine", "examples/specs/employee_abstract.trl",
               "examples/specs/employee_implementation.trl",
               "--abs", "EMPLOYEE", "--conc", "EMPL_IMPL"]
REFINE_SETUP_GROUPS = 5
REFINE_SETUP_EXECS = 20
ACCOUNT_TOLERANCE = 0.25
# the calibration kernel (perfbench/pb_calib.ml): its time on the
# reference host, and how often it is timed during a run
CAL_REFERENCE_NS = 30e6
CAL_EVERY_S = 0.5


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def child_env():
    # the configuration users get on this machine: no TROLLC_JOBS, and
    # no dune cache outside the checkout
    env = {k: v for k, v in os.environ.items() if k != "TROLLC_JOBS"}
    env["DUNE_CACHE"] = "disabled"
    return env


def build(env):
    if shutil.which("dune") is None:
        log("perfbench: dune is not on PATH")
        return False
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/trollc.exe",
                        "./perfbench/perfbench.exe"],
                       stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=880)
    return r.returncode == 0


def timed_run(argv, env):
    """CPU seconds (user + system), peak RSS in kB, exit code and stdout
    of one cold process.  A check is CPU-bound, so its CPU time is its
    wall time less the moments the host did not run the CPU."""
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    p.stdout.close()
    return (usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            os.waitstatus_to_exitcode(status), out.decode())


class Calibration:
    """The calibration kernel, timed in a `perfbench.exe calib`
    coprocess between stretches of measured work."""

    def __init__(self, env):
        self.p = subprocess.Popen([LOADER, "calib"], stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True, env=env)
        self.samples = []
        self.last = 0.0

    def sample(self):
        self.p.stdin.write("k\n")
        self.p.stdin.flush()
        self.samples.append(int(self.p.stdout.readline()))
        self.last = time.perf_counter()

    def due(self):
        if time.perf_counter() >= self.last + CAL_EVERY_S:
            self.sample()

    def scale(self):
        """Measured seconds -> reference seconds."""
        return CAL_REFERENCE_NS / statistics.median(self.samples)

    def close(self):
        self.p.stdin.close()
        self.p.wait()


def pin_to_one_cpu():
    """Runs this process and every child on one CPU, the first allowed.

    Client and server then take turns on that CPU instead of waking each
    other across CPUs, which on a shared host costs a varying wait for
    the host to run the sleeping one; the calibration kernel runs on the
    same CPU.  trollc resolves the same jobs (1) pinned as unpinned on two
    cores."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def nearest_rank(sorted_vals, q):
    i = max(0, min(len(sorted_vals) - 1, int(-(-q * len(sorted_vals) // 1)) - 1))
    return sorted_vals[i]


REPORT = re.compile(r"refinement holds up to bound \((\d+) cases, (\d+) accepted steps\)")


def run_refine(args, env):
    """refine_employee: repeated cold `trollc refine` processes."""
    # set-up: a depth-0 check, timed over groups of execs so that one
    # sample is not a single few-millisecond process; the groups are
    # spread over the run, between stretches of measured checks
    def setup_group():
        cal.sample()
        total = 0.0
        for _ in range(REFINE_SETUP_EXECS):
            dt, _, code, out = timed_run([TROLLC] + REFINE_ARGS + ["--depth", "0"], env)
            if code != 0 or not REPORT.search(out):
                raise RuntimeError("trollc refine --depth 0 failed")
            total += dt
        return total / REFINE_SETUP_EXECS

    cal = Calibration(env)
    setups, times, rss, counts = [], [], [], set()
    elapsed = 0.0
    try:
        for _ in range(REFINE_SETUP_GROUPS):
            setups.append(setup_group())
            stretch = 0.0
            while stretch < args.seconds / REFINE_SETUP_GROUPS:
                cal.due()
                dt, kb, code, out = timed_run([TROLLC] + REFINE_ARGS + ["--depth", str(REFINE_DEPTH)], env)
                m = REPORT.search(out)
                if code != 0 or not m:
                    raise RuntimeError("trollc refine did not report a holding refinement")
                times.append(dt)
                rss.append(kb)
                counts.add((int(m.group(1)), int(m.group(2))))
                stretch += dt
            elapsed += stretch
    finally:
        cal.close()
    # the correctness pin: the CLI's counts against Refinement.check's
    p = subprocess.run([LOADER, "refine", "--depth", str(REFINE_DEPTH)],
                       capture_output=True, text=True, env=env, timeout=120)
    if p.returncode != 0:
        raise RuntimeError("perfbench.exe refine failed: " + p.stderr.strip())
    inproc = json.loads(p.stdout.strip().splitlines()[-1])
    correct = (len(counts) == 1 and inproc["holds"]
               and counts == {(inproc["cases"], inproc["accepted"])})
    if not correct:
        log(f"refine counts differ: CLI {sorted(counts)}, Refinement.check "
            f"({inproc['cases']}, {inproc['accepted']})")
    times_sorted = sorted(times)
    measured = {
        "req_per_s": len(times) / elapsed,
        "rtt_p50_us": nearest_rank(times_sorted, 0.5) * 1e6,
        "setup_s": statistics.median(setups),
    }
    scale = cal.scale()
    e2e = {k: v / scale if k == "req_per_s" else v * scale for k, v in measured.items()}
    e2e["peak_rss_mb"] = max(rss) / 1024.0
    info = {"measured." + k: v for k, v in measured.items()}
    info.update({"calibration.kernel_ms": CAL_REFERENCE_NS / scale / 1e6,
                 "calibration.samples": len(cal.samples),
                 "rtt_p99_us": nearest_rank(times_sorted, 0.99) * 1e6,
                 "refine_s": statistics.median(times) * scale, "refine_runs": len(times),
                 "refine_depth": REFINE_DEPTH, "jobs": inproc["jobs"],
                 "cores": os.cpu_count()})
    layers = {
        "refine.check_s": inproc["check_s"],
        "refine.cases": inproc["cases"],
        "refine.probes": inproc["probes"],
        "refine.ns_per_case": inproc["ns_per_case"],
        "client.rtt_p99_us": info["rtt_p99_us"],
        # one checked case stands for one request
        "gc.minor_words_per_req": inproc["minor_words_per_case"],
        "gc.major_per_1k_req": inproc["major_per_1k_case"],
    }
    return {"correct": correct, "attempted": len(times) + 1,
            "failed": 0 if correct else 1, "e2e": e2e, "info": info,
            "layers": layers, "absent": []}


def run_served(args, env, cpu):
    argv = [LOADER, "serve", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--trollc", TROLLC, "--dir", RUN_DIR,
            "--cpu", str(cpu)]
    # its own process group, so that a timeout also stops the server
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                         env=env, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=170)
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    if p.returncode != 0:
        raise RuntimeError(f"perfbench.exe serve exited with {p.returncode}")
    r = json.loads(out.strip().splitlines()[-1])
    info = r["info"]
    info["cores"] = os.cpu_count()
    r["layers"].update({
        "client.rtt_p99_us": info["rtt_p99_us"],
        "client.write_p50_us": info["write_p50_us"],
        "client.write_p99_us": info["write_p99_us"],
        "client.read_p50_us": info["read_p50_us"],
        "client.read_p99_us": info["read_p99_us"],
        "client.failed_ratio": info["failed_ratio"],
        "wal.bytes_per_commit": info["wal_bytes_per_commit"],
        "recover.cli_s": info["recover_s"],
    })
    return r


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # a terminated run still stops what it started (the finally clauses)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = child_env()
    if not (os.path.isdir("examples/specs") and build(env)):
        log("perfbench: cannot build the program here")
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    cpu = pin_to_one_cpu()
    try:
        if args.workload == "refine_employee":
            r = run_refine(args, env)
        else:
            r = run_served(args, env, cpu)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log(f"perfbench: {args.workload}: {e}")
        return 1

    wanted = BENCH["per_layer"] if args.trace else BENCH["end_to_end"]
    source = r["layers"] if args.trace else r["e2e"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    r["info"]["pinned_cpu"] = cpu
    for k, v in sorted(r["info"].items()):
        print(f"#   {k} = {v}")
    share = r["layers"].get("account.rtt_share")
    if args.trace and share:
        verdict = "accounted" if abs(share - 1) <= ACCOUNT_TOLERANCE else "not accounted"
        print(f"#   traced layers + wire = {share:.2f} of the mean rtt: {verdict} "
              f"(tolerance {ACCOUNT_TOLERANCE}; the rest is queue wait, the "
              f"select loop and the load process's turns on the shared CPU, which "
              f"the replay does not trace)")
    for k in r.get("absent", []):
        print(f"#   absent from stats: {k}")
    metrics = {}
    for m in wanted:
        # a layer this workload does not exercise reads 0
        v = float(source.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']} = {v:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(r["correct"]), "attempted": int(r["attempted"]),
                      "failed": int(r["failed"]), "metrics": metrics}))
    return 0 if r["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

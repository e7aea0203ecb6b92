#!/usr/bin/env python3
"""The repository benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload model1-dyn --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout. It builds `sdft` and the
benchmark's helper (`perfbench/pbh.exe`) with dune, generates the
workload's inputs from the seed, measures, checks every answer against the
program's own in-process analysis, and prints one JSON object as the last
line of standard output. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
BUILD = os.path.join(ROOT, "_build", "default")
SDFT = os.path.join(BUILD, "bin", "main.exe")
PBH = os.path.join(BUILD, "perfbench", "pbh.exe")

WORKLOADS = ("model1-dyn", "medium-dyn", "server-mix")

# Pinned analysis parameters; pbh pins the same (perfbench/inputs.ml).
ANALYZE_FLAGS = ["--engine", "zdd", "--horizon", "24", "--cutoff", "1e-15",
                 "--domains", "1", "--top", "0"]

SETUP_REPS = 21       # Quant_cache.open_disk / daemon starts per run
MIN_ROUNDS = 3        # cold analyses per batch run, at least
WARM_PER_ROUND = 4    # warm analyses after each cold one
# The calibration kernel's time (`pbh calibrate`, perfbench/calib.ml) on
# the host the bounds were measured on. A batch time t measured among
# kernel times c is reported as t * CAL_REF_S / mean(c): seconds at that
# host's usual speed. See README.md, "Host-normalized times".
CAL_REF_S = 0.04
PAUSE_EVERY = 0.5     # seconds a batch sample runs between kernel runs
PROCESS_TIMEOUT = 150  # seconds, for any one child


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- stats

def percentile(samples, p):
    """Nearest-rank percentile p (0 < p <= 100) of the samples."""
    xs = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def beyond(n, p):
    """How many of n samples lie strictly beyond the nearest-rank p-th."""
    return n - max(1, math.ceil(p / 100.0 * n))


def highest_percentile(n, min_beyond=10):
    """The highest whole percentile with at least min_beyond of n samples
    beyond it, or None when there is none."""
    for p in range(99, 0, -1):
        if beyond(n, p) >= min_beyond:
            return p
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- processes

def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isfile(os.path.join(ROOT, "bin", "main.ml"))):
        fail("no sdft sources at %s; run from the root of a checkout" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./bin/main.exe", "./perfbench/pbh.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def pbh(*args, cwd):
    r = subprocess.run([PBH] + list(args), cwd=cwd, capture_output=True,
                       text=True, timeout=PROCESS_TIMEOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("pbh %s failed" % args[0])
    return r.stdout


class Kernel:
    """A `pbh calibrate` process: times the calibration kernel on request,
    on the CPU of the thread that started it."""

    def __init__(self, cwd):
        self.p = subprocess.Popen([PBH, "calibrate"], cwd=cwd,
                                  stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True)

    def time(self):
        """Seconds one run of the kernel takes now."""
        self.p.stdin.write("\n")
        self.p.stdin.flush()
        line = self.p.stdout.readline()
        if not line:
            fail("the calibration kernel stopped")
        return json.loads(line)["cal_s"]

    def close(self):
        self.p.stdin.close()
        self.p.wait()
        self.p.stdout.close()


def normalized(seconds, cals):
    """A time taken among the kernel times cals, in seconds at the
    reference host speed."""
    return seconds * CAL_REF_S / statistics.mean(cals)


def timed_process(argv, out_path, cwd, kernel=None):
    """Run argv to completion. Returns (seconds from spawn to exit,
    exit status, peak RSS in MB, stdout text, kernel times).

    With a kernel, the child is stopped every PAUSE_EVERY seconds while
    the kernel runs once, and the stopped time is not counted."""
    cals = []
    paused = 0.0
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, stdout=out,
                             stderr=subprocess.STDOUT)
        # The timer kills a child that overruns, stopped or not.
        watchdog = threading.Timer(PROCESS_TIMEOUT, p.kill)
        watchdog.start()
        ended = None
        try:
            if kernel is not None:
                exited = os.pidfd_open(p.pid)
                try:
                    while not select.select([exited], [], [], PAUSE_EVERY)[0]:
                        os.kill(p.pid, signal.SIGSTOP)
                        _, status, ru = os.wait4(p.pid, os.WUNTRACED)
                        if not os.WIFSTOPPED(status):
                            ended = (status, ru)
                            break
                        stop = time.perf_counter()
                        cals.append(kernel.time())
                        os.kill(p.pid, signal.SIGCONT)
                        paused += time.perf_counter() - stop
                finally:
                    os.close(exited)
            # A blocking wait, so the benchmark takes no CPU from the child.
            status, ru = ended or os.wait4(p.pid, 0)[1:]
        except BaseException:
            if ended is None:
                p.kill()
                os.wait4(p.pid, 0)
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0 - paused
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    return seconds, p.returncode, ru.ru_maxrss / 1024.0, text, cals


# ---------------------------------------------------------------- batch

def check_cli(text, status, ref, warm):
    """None when an `sdft analyze` run printed the reference answer,
    otherwise why not."""
    if status != 0:
        return "exit status %d" % status
    if "DEGRADED" in text:
        return "degraded"
    for line in ref["printed"]:
        if line not in text.splitlines():
            return "expected %r" % line
    if warm and " / 0 disk misses" not in text:
        return "warm run missed the disk cache"
    return None


def run_batch(workload, seed, seconds, work):
    pbh("gen", "--workload", workload, "--seed", str(seed), "--dir", work,
        cwd=work)
    with open(os.path.join(work, "reference.json")) as f:
        ref = json.load(f)
    if ref["degraded"] or ref["fallbacks"]:
        fail("the reference analysis degraded; the workload is not valid")
    model = os.path.join(work, "model.sdft")
    attempted = failed = 0
    failures = []
    lock = threading.Lock()

    def account(why):
        nonlocal attempted, failed
        with lock:
            attempted += 1
            if why is not None:
                failed += 1
                failures.append(why)

    def analyze(store, tag, kernel):
        return timed_process([SDFT, "analyze", model, "--cache", store]
                             + ANALYZE_FLAGS,
                             os.path.join(work, tag + ".out"), work, kernel)

    # One lane per CPU, at most two. A lane pins itself, and so every
    # process it starts, to its CPU: the host slows each vCPU on its own,
    # so a kernel timed on another CPU would not track its samples.
    cpus = sorted(os.sched_getaffinity(0))[-2:]
    t0 = time.perf_counter()

    def lane(k, cpu, out):
        os.sched_setaffinity(0, {cpu})
        kernel = Kernel(work)
        try:
            lane_rounds(k, kernel, out)
        finally:
            kernel.close()

    def lane_rounds(k, kernel, out):
        out.update(cold=[], cold_raw=[], rss=[], warm=[], warm_raw=[],
                   cals=[])
        cal = kernel.time()

        def sample(store, tag, is_warm):
            nonlocal cal
            seconds_, status, rss, text, cals = analyze(store, tag, kernel)
            account(check_cli(text, status, ref, warm=is_warm))
            after = kernel.time()
            norm = normalized(seconds_, [cal] + cals + [after])
            out["cals"] += cals + [after]
            cal = after
            return seconds_, norm, rss

        # Rounds of one cold run on a fresh store, then WARM_PER_ROUND
        # warm runs on the lane's first store, until --seconds have passed:
        # a round starts if half of it still fits.
        round_s = 0.0
        while (len(out["cold"]) < MIN_ROUNDS
               or time.perf_counter() - t0 + round_s / 2 < seconds):
            r0 = time.perf_counter()
            tag = "cold-%d-%d" % (k, len(out["cold"]) + 1)
            raw, norm, rss = sample(os.path.join(work, tag + ".store"), tag,
                                    False)
            out["cold_raw"].append(raw)
            out["cold"].append(norm)
            out["rss"].append(rss)
            out.setdefault("store", os.path.join(work, tag + ".store"))
            for _ in range(WARM_PER_ROUND):
                raw, norm, _ = sample(out["store"], "warm-%d" % k, True)
                out["warm_raw"].append(raw)
                out["warm"].append(norm)
            round_s = time.perf_counter() - r0

    lanes = [{} for _ in cpus]
    errors = []

    def guarded(k, cpu):
        try:
            lane(k, cpu, lanes[k])
        except BaseException as e:  # also the SystemExit of fail()
            errors.append(e)

    threads = [threading.Thread(target=guarded, args=(k, cpu))
               for k, cpu in enumerate(cpus)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    cold, cold_raw, cold_rss, warm, warm_raw = [], [], [], [], []
    for out in lanes:
        cold += out["cold"]
        cold_raw += out["cold_raw"]
        cold_rss += out["rss"]
        warm += out["warm"]
        warm_raw += out["warm_raw"]
    # Set-up: the warm preload, one fresh process per sample, each
    # normalized by the kernel run just before it in the same process.
    setup = []
    for _ in range(SETUP_REPS):
        out = json.loads(pbh("open-disk", "--store", lanes[0]["store"],
                             cwd=work))
        account(None if out["entries"] == ref["distinct_keys"]
                else "store holds %d entries" % out["entries"])
        setup.append(out["load_s"] * CAL_REF_S / out["cal_s"])

    info = {k: ref[k] for k in ("digest", "cutsets", "distinct_keys")}
    info.update(cold_raw_s=[round(x, 4) for x in cold_raw],
                cold_s=[round(x, 4) for x in cold],
                warm_raw_s=[round(x, 4) for x in warm_raw],
                warm_s=[round(x, 4) for x in warm],
                kernel_median_s=[round(statistics.median(out["cals"]), 4)
                                 for out in lanes])
    # A batch request is one warm analysis: the repeated request for an
    # unchanged model, which the disk cache answers.
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "analysis_s": metric(statistics.mean(cold), "s"),
        "warm_analysis_s": metric(statistics.mean(warm), "s"),
        "requests_per_s": metric(len(warm) / sum(warm), "1/s"),
        "request_p50_s": metric(statistics.median(warm), "s"),
        "request_p90_s": metric(
            statistics.quantiles(warm, n=10, method="inclusive")[-1], "s"),
        "peak_rss_mb": metric(statistics.median(cold_rss), "MB"),
    }
    return info, attempted, failed, failures, metrics


# ---------------------------------------------------------------- server

def run_server(seed, seconds, work):
    pbh("serve-run", "--seed", str(seed), "--seconds", str(seconds),
        "--sdft", SDFT, "--dir", work, "--setups", str(SETUP_REPS), cwd=work)
    with open(os.path.join(work, "samples.json")) as f:
        run = json.load(f)
    samples = run["samples"]
    rtts = [s["rtt"] for s in samples]
    cold = [s["rtt"] for s in samples if s["kind"] == "variant"]
    warm = [s["rtt"] for s in samples if s["kind"] == "repeat"]
    failed = sum(1 for s in samples if not s["ok"])
    p = highest_percentile(len(rtts))
    if p is None or p < 90:
        fail("only %d requests: p90 needs 10 samples beyond it" % len(rtts))
    # Each daemon start is normalized by the kernel run just before it;
    # the loop's times by the kernel runs in its pauses.
    f = CAL_REF_S / statistics.mean(run["kernel_s"])
    setup = [t * CAL_REF_S / c
             for t, c in zip(run["setup_s"], run["setup_cal_s"])]
    rps = sum(1 for s in samples if s["ok"]) / run["wall_s"]
    raw = {"analysis_s": statistics.median(cold),
           "warm_analysis_s": statistics.median(warm),
           "requests_per_s": rps,
           "request_p50_s": percentile(rtts, 50),
           "request_p90_s": percentile(rtts, 90)}
    info = {"digest": run["digest"], "requests": len(samples),
            "fresh_requests": len(cold), "kernels": len(run["kernel_s"]),
            "kernel_factor": f, "raw": raw}
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "analysis_s": metric(raw["analysis_s"] * f, "s"),
        "warm_analysis_s": metric(raw["warm_analysis_s"] * f, "s"),
        "requests_per_s": metric(rps / f, "1/s"),
        "request_p50_s": metric(raw["request_p50_s"] * f, "s"),
        "request_p90_s": metric(raw["request_p90_s"] * f, "s"),
        "peak_rss_mb": metric(run["rss_mb"], "MB"),
    }
    return info, len(samples), failed, run["failures"], metrics


# ---------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    build()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if args.trace:
        out = json.loads(pbh("trace", "--workload", args.workload,
                             "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--sdft", SDFT,
                             "--dir", work, cwd=work).splitlines()[-1])
        attempted, failed, metrics = out["attempted"], out["failed"], out["metrics"]
        print("spans: %s" % os.path.join(work, "spans.jsonl"))
    elif args.workload == "server-mix":
        info, attempted, failed, failures, metrics = run_server(
            args.seed, args.seconds, work)
        print("inputs: %s" % json.dumps(info))
        for why in failures[:5]:
            print("failed: %s" % why)
    else:
        info, attempted, failed, failures, metrics = run_batch(
            args.workload, args.seed, args.seconds, work)
        print("inputs: %s" % json.dumps(info))
        for why in failures[:5]:
            print("failed: %s" % why)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

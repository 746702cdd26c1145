#!/usr/bin/env python3
"""Simulator benchmark: cold-run wall time, memory and set-up per workload.

Run from the root of a pimba checkout:

    python3 perfbench/run.py --workload replay --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 10      # every workload
    python3 perfbench/run.py --pin                            # re-pin digests

The script builds the `pimba` library and the job binary from source
(perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR (default .bench_build),
then starts one fresh job process after another for --seconds seconds and
reports medians. Every job builds fresh simulator objects, so memos start
cold, as in every `pimba run`. wall_s and setup_s are reported at a fixed
host speed (see REFERENCE_PROBE_S); stderr shows the unscaled medians.

Correctness: every job prints a digest of its simulated statistics. A job
fails when its digest differs from the other jobs of the run, from the
pinned digest (perfbench/pinned.json) at a pinned seed, or from its own
warm rerun on the same Fleet (memos must be exact). Before timing, each
run checks the pinned digest at the workload's default seed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(perfbench/NOTES.md maps each layer metric to the end-to-end metric and
workload it should move). The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 1 when
any job failed or any digest mismatched.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned.json")

# Workload and metric names and units come from BENCHMARK.json at the
# repository root, the one place they are declared.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

DEFAULT_SEED = 1
HELDOUT_SEED = 104729

# Layer metrics that are simulated statistics: every job must repeat them
# exactly, so a change in one is a modelling change, never noise.
EXACT = [k for k, u in PER_LAYER.items() if u == "count"] + [
    "engine.avg_block_util"]

# End-to-end timings are reported at a fixed host speed. Every job also
# times a probe that runs no pimba code (job.cpp, HostProbe) in short
# slices before set-up, every 20 ms of the run and after it; a timing t
# is reported as t * REFERENCE_PROBE_S / probe, with probe the job's mean
# slice time. Shared hosts drift by tens of percent within seconds to
# minutes and the probe drifts with them, while a change to the
# simulator leaves the probe alone. This is a slice's time on the 4-vCPU
# host the baseline in NOTES.md was measured on, in its slower state.
REFERENCE_PROBE_S = 0.00097

MIN_JOBS = 3       # timed jobs per run, even past --seconds
JOB_TIMEOUT = 150  # seconds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure and build the job binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("perfbench: run from a pimba checkout (no src/ "
                         "next to perfbench/)")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_job",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_job")


def workload_file(name):
    return os.path.join(HERE, "workloads", name + ".json")


def run_job(binary, mode, workload, seed, extra=()):
    """One job in a fresh process; returns its JSON record or None."""
    out_dir = os.path.join(build_dir(), "out", "%d-%s" % (os.getpid(), mode))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, mode, workload_file(workload), "--seed", str(seed),
           "--out-dir", out_dir, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=JOB_TIMEOUT)
    except subprocess.TimeoutExpired:
        log("perfbench: job timed out: " + " ".join(cmd))
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        log("perfbench: job failed (%d): %s\n%s" %
            (proc.returncode, " ".join(cmd), proc.stderr[-2000:]))
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pinned():
    if not os.path.isfile(PINNED):
        return {}
    with open(PINNED) as f:
        return json.load(f)


def pinned_digest(pinned, workload, seed):
    for entry in pinned.get(workload, {}).values():
        if entry["seed"] == seed:
            return entry["digest"]
    return None


class Tally:
    """Attempted / failed job counts of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("perfbench: FAILED " + why)


def check_pinned(binary, workload, pinned, tally):
    """Default-seed job: pinned digest, and warm rerun equals cold run."""
    rec = run_job(binary, "run", workload, DEFAULT_SEED,
                  ["--setup-reps", "1", "--warm"])
    want = pinned_digest(pinned, workload, DEFAULT_SEED)
    ok = (rec is not None and rec["digest"] == rec["digest_warm"]
          and (want is None or rec["digest"] == want))
    if rec is not None and want is None:
        log("perfbench: no pinned digest for %s (run --pin)" % workload)
    tally.record(ok, "%s pinned check: %s vs pinned %s" %
                 (workload, rec and rec["digest"], want))


def timed_jobs(binary, mode, workload, seed, seconds, tally, pinned):
    """Fresh jobs at @seed for @seconds (at least MIN_JOBS)."""
    want = pinned_digest(pinned, workload, seed)
    records = []
    start = time.monotonic()
    while len(records) < MIN_JOBS or time.monotonic() - start < seconds:
        rec = run_job(binary, mode, workload, seed)
        if rec is None:
            tally.record(False, "%s job did not complete" % workload)
            if tally.failed > 2:
                break
            continue
        ref = want or (records[0]["digest"] if records else rec["digest"])
        ok = rec["digest"] == ref
        if "digest_warm" in rec:
            ok = ok and rec["digest_warm"] == rec["digest"]
        tally.record(ok, "%s digest %s, expected %s (warm %s)" %
                     (workload, rec["digest"], ref, rec.get("digest_warm")))
        records.append(rec)
    return records


def at_reference(rec, key):
    """A job timing at the reference host speed (see REFERENCE_PROBE_S)."""
    return rec[key] * REFERENCE_PROBE_S / rec["probe_s"]


def end_to_end(records):
    return {
        "wall_s": statistics.median(
            at_reference(r, "wall_s") for r in records),
        # Requests simulated to their end, cancelled ones included: the
        # simulator's speed, not the seed's share of missed deadlines.
        "sim_req_per_s": statistics.median(
            r["requests"] / at_reference(r, "wall_s") for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "setup_s": statistics.median(
            at_reference(r, "setup_s") for r in records),
    }


def per_layer(records, tally):
    out = {}
    for name in PER_LAYER:
        values = [r[name] for r in records]
        if name in EXACT and len(set(values)) != 1:
            tally.record(False, "%s differs across jobs: %s" % (name, values))
        out[name] = statistics.median(values)
    return out


def bench_workload(binary, workload, seed, seconds, trace, pinned, tally):
    check_pinned(binary, workload, pinned, tally)
    if trace:
        records = timed_jobs(binary, "layers", workload, seed, seconds,
                             tally, pinned)
        values = per_layer(records, tally) if records else {}
        units = PER_LAYER
    else:
        records = timed_jobs(binary, "run", workload, seed, seconds,
                             tally, pinned)
        values = end_to_end(records) if records else {}
        units = END_TO_END
        if records:
            raw = [statistics.median(r[k] for r in records)
                   for k in ("wall_s", "setup_s", "probe_s")]
            log("perfbench: unscaled medians: wall_s %.6g s, setup_s %.6g s;"
                " host probe %.6g s (reference %g s)" %
                (*raw, REFERENCE_PROBE_S))
    log("perfbench: %s seed %d, %d jobs" % (workload, seed, len(records)))
    for name, value in values.items():
        log("  %-28s %14.6g %s" % (name, value, units[name]))
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def pin(binary):
    """Record the digest of every workload at its default and held-out
    seeds."""
    pinned = {}
    for w in WORKLOADS:
        pinned[w] = {}
        for label, seed in (("default", DEFAULT_SEED),
                            ("heldout", HELDOUT_SEED)):
            rec = run_job(binary, "run", w, seed,
                          ["--setup-reps", "1", "--warm"])
            if rec is None or rec["digest"] != rec["digest_warm"]:
                raise SystemExit("perfbench: cannot pin %s seed %d" %
                                 (w, seed))
            pinned[w][label] = {"seed": seed, "digest": rec["digest"]}
    with open(PINNED, "w") as f:
        json.dump(pinned, f, indent=2)
        f.write("\n")
    log("perfbench: wrote " + PINNED)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="re-pin the digests in perfbench/pinned.json")
    args = ap.parse_args()

    binary = build()
    if args.pin:
        pin(binary)
        return 0
    pinned = load_pinned()
    tally = Tally()
    if args.workload == "all":
        metrics = {}
        for w in WORKLOADS:
            for name, m in bench_workload(binary, w, args.seed, args.seconds,
                                          args.trace, pinned, tally).items():
                metrics[w + "." + name] = m
    else:
        metrics = bench_workload(binary, args.workload, args.seed,
                                 args.seconds, args.trace, pinned, tally)
    ok = tally.failed == 0
    print(json.dumps({"correct": ok, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validate the bounded-memory replay path (docs/trace-format.md).

CI's replay-smoke job runs this against a Release `pimba` binary and
the fleet_replay preset. Two claims are checked, both from ISSUE 9's
acceptance list:

 1. Peak RSS is independent of trace length: a streamed replay of the
    full preset (2M requests) may not use more than --rss-ratio times
    the RSS of a --small-requests prefix replay, plus an absolute
    allocator-noise slack. A leak of even one small struct per request
    adds tens of MB at 2M requests and fails loudly.
 2. Streaming sketch percentiles agree with the exact per-request
    percentile pass to within 1% (plus the table's print-rounding
    quantum) on a --small-requests prefix, and the exactly-maintained
    columns (goodput) match byte-for-byte.

Exit 0 with a summary when both hold; exit 1 listing violations.
"""

import argparse
import os
import sys

# Table columns of the fleet report CSV, by index (tools keep this in
# sync with runFleetStudy's header in src/config/runner.cpp).
COL_GOODPUT = 2
PERCENTILE_COLS = {
    "TTFT p50": 3,
    "TTFT p95": 4,
    "TPOT p50": 5,
    "TPOT p95": 6,
}


def run_measured(args):
    """Run a child to completion; return (peak_rss_bytes, stdout)."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        os.dup2(w, 1)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 2)
        os.execv(args[0], args)
    os.close(w)
    out = b""
    while chunk := os.read(r, 65536):
        out += chunk
    os.close(r)
    _, status, rusage = os.wait4(pid, 0)
    if status != 0:
        print(f"check_replay: {' '.join(args)} exited {status}",
              file=sys.stderr)
        sys.exit(1)
    # ru_maxrss is KiB on Linux.
    return rusage.ru_maxrss * 1024, out.decode()


def data_row(csv_text):
    """The first non-comment, non-header CSV row, split into cells."""
    for line in csv_text.splitlines():
        if not line or line.startswith("#") or line.startswith("fleet,"):
            continue
        return line.split(",")
    print("check_replay: no data row in CSV output", file=sys.stderr)
    sys.exit(1)


def quantum(cell):
    """Half a unit in the last printed decimal place of @p cell."""
    frac = cell.split(".")[1] if "." in cell else ""
    return 0.5 * 10 ** -len(frac)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("pimba", help="path to the pimba CLI binary")
    ap.add_argument("scenario", help="fleet scenario with streaming "
                                     "metrics (scenarios/fleet_replay.json)")
    ap.add_argument("--small-requests", type=int, default=200000,
                    help="prefix length for the RSS baseline and the "
                         "percentile comparison (default 200000)")
    ap.add_argument("--rss-ratio", type=float, default=1.35,
                    help="max full-replay RSS over prefix-replay RSS")
    ap.add_argument("--rss-slack-mb", type=float, default=16.0,
                    help="absolute allocator-noise slack added to the "
                         "ratio bound (MB)")
    opts = ap.parse_args()
    errors = []

    small = str(opts.small_requests)
    rss_small, _ = run_measured(
        [opts.pimba, "replay", opts.scenario, "--requests", small])
    rss_full, _ = run_measured([opts.pimba, "replay", opts.scenario])
    bound = rss_small * opts.rss_ratio + opts.rss_slack_mb * 1e6
    if rss_full > bound:
        errors.append(
            f"peak RSS grows with trace length: full replay "
            f"{rss_full / 1e6:.1f}MB > {bound / 1e6:.1f}MB "
            f"({opts.rss_ratio}x the {rss_small / 1e6:.1f}MB of the "
            f"{small}-request prefix + {opts.rss_slack_mb}MB slack)")

    _, streamed_csv = run_measured(
        [opts.pimba, "replay", opts.scenario, "--requests", small,
         "--csv"])
    _, exact_csv = run_measured(
        [opts.pimba, "replay", opts.scenario, "--requests", small,
         "--exact-metrics", "--csv"])
    streamed = data_row(streamed_csv)
    exact = data_row(exact_csv)

    if streamed[COL_GOODPUT] != exact[COL_GOODPUT]:
        errors.append(
            f"goodput is exact under streaming but differs: "
            f"streamed {streamed[COL_GOODPUT]} vs exact "
            f"{exact[COL_GOODPUT]}")
    for name, col in PERCENTILE_COLS.items():
        s, e = float(streamed[col]), float(exact[col])
        tol = 0.01 * max(abs(s), abs(e)) + quantum(streamed[col]) \
            + quantum(exact[col])
        if abs(s - e) > tol:
            errors.append(
                f"{name}: streamed {s} vs exact {e} disagree beyond "
                f"1% + print rounding ({tol:.6f})")

    if errors:
        for e in errors:
            print(f"check_replay: {e}", file=sys.stderr)
        return 1
    print(f"check_replay: ok (full replay {rss_full / 1e6:.1f}MB peak "
          f"RSS vs {rss_small / 1e6:.1f}MB at {small} requests; "
          f"percentiles within 1%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

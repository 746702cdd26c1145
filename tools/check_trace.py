#!/usr/bin/env python3
"""Validate a pimba Chrome trace-event JSON (docs/observability.md).

CI's trace-smoke job runs this against the artifact `pimba run
--trace` writes, so a malformed trace fails the build instead of
failing silently when someone finally loads it into Perfetto.

Checks, in order:

 1. The document parses and has a non-empty "traceEvents" array.
 2. Every event carries integer "pid" and "tid" members and a known
    phase ("ph" in M, X, B, E, i, C).
 3. Non-metadata events have a numeric, non-negative "ts"; "X" events
    also a non-negative "dur". Timestamps are globally monotonic
    (non-decreasing) in file order — the renderer sorts by ts, so any
    regression here is an emitter bug.
 4. "B"/"E" events pair up as a well-formed stack per (pid, tid):
    no "E" without an open "B", nothing left open at EOF.
 5. With --require-lifecycle: at least one request lane opened and
    closed (B/E pair whose name starts with "req "), plus at least one
    "admitted" and "first token" instant and one slice on a thread
    named "iterations".
 6. With --require-phases: at least one "X" slice on a thread named
    gpu, pim, and sync — across *all* processes, because a GPU-only
    system legitimately emits nothing on its pim/sync lanes while a
    hybrid in the same study does.

With --equivalent OLD NEW it instead checks that NEW draws the same
run as OLD, where NEW may fold quiet decode runs into one slice each
and write counters only when they change (docs/observability.md,
"Quiet passes"):

 a. Metadata, and every event that is not a counter sample or a slice
    on an engine's iterations/gpu/pim/sync lane (request lanes,
    interconnect ships), match one for one, in file order.
 b. Every counter track (pid, name) has the same step function: the
    samples with each run of equal values cut to its first. The one
    exception is `outstanding tokens` inside a quiet pass (a NEW
    iteration slice carrying an `iterations` arg): OLD's samples
    strictly inside one are dropped before the comparison, and each
    NEW sample must be one of OLD's, with the same ts and value.
 c. Each process's iterations lane covers the same busy intervals
    (adjacent slices merged, endpoints equal to within the
    renderer's 9 significant digits), and its slices' `iterations`
    args (1 where absent) sum to the same count.
 d. Every gpu/pim/sync slice in NEW is one of OLD's.

--self-test checks the checker on synthetic traces and, given TRACE,
on a real one: a trace is equivalent to itself and to its folded
form, and not to a copy with one counter value edited or one
iteration slice dropped.

Exit 0 and a one-line summary when valid; exit 1 with every violation
(capped) on stderr otherwise.
"""

import argparse
import bisect
import collections
import copy
import json
import sys

KNOWN_PHASES = {"M", "X", "B", "E", "i", "C"}
MAX_REPORTED = 20
PHASE_LANES = {"gpu", "pim", "sync"}
# The one counter a quiet pass writes only at its end.
PASS_COUNTER = "outstanding tokens"


def fail(errors):
    for e in errors[:MAX_REPORTED]:
        print(f"check_trace: {e}", file=sys.stderr)
    if len(errors) > MAX_REPORTED:
        print(f"check_trace: ... and {len(errors) - MAX_REPORTED} more",
              file=sys.stderr)
    return 1


def validate(opts):
    try:
        with open(opts.trace, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail([f"{opts.trace}: {e}"])

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail([f"{opts.trace}: missing or empty traceEvents"])

    errors = []
    # (pid, tid) -> stack of open "B" names.
    stacks = {}
    # thread_name label -> set of (pid, tid) carrying it. The same
    # label recurs once per process (every engine names its own
    # gpu/pim/sync lanes).
    thread_names = {}
    last_ts = None
    lanes_opened = 0
    lanes_closed = 0
    instant_names = set()
    # (pid, tid) -> count of X slices, to resolve per-named-thread.
    x_slices = {}

    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            errors.append(f"{where}: unknown ph {ph!r}")
            continue
        pid, tid = ev.get("pid"), ev.get("tid")
        if not isinstance(pid, int) or not isinstance(tid, int):
            errors.append(f"{where}: pid/tid missing or non-integer")
            continue
        name = ev.get("name", "")

        if ph == "M":
            if name == "thread_name":
                label = ev.get("args", {}).get("name", "")
                thread_names.setdefault(label, set()).add((pid, tid))
            continue

        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: ts missing or negative: {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            errors.append(
                f"{where}: ts {ts} regresses below {last_ts}")
        last_ts = ts

        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(
                    f"{where}: X event needs non-negative dur, "
                    f"got {dur!r}")
            key = (pid, tid)
            x_slices[key] = x_slices.get(key, 0) + 1
        elif ph == "B":
            stacks.setdefault((pid, tid), []).append(name)
            if name.startswith("req "):
                lanes_opened += 1
        elif ph == "E":
            stack = stacks.get((pid, tid), [])
            if not stack:
                errors.append(
                    f"{where}: E without open B on pid={pid} tid={tid}")
            else:
                opened = stack.pop()
                if opened.startswith("req "):
                    lanes_closed += 1
        elif ph == "i":
            instant_names.add(name)
        elif ph == "C":
            if not isinstance(ev.get("args", {}).get("value"),
                              (int, float)):
                errors.append(f"{where}: counter without numeric value")

    for (pid, tid), stack in sorted(stacks.items()):
        for name in stack:
            errors.append(
                f"unclosed B {name!r} on pid={pid} tid={tid} at EOF")

    def named_slices(label):
        return sum(x_slices.get(k, 0)
                   for k in thread_names.get(label, ()))

    if opts.require_lifecycle:
        if lanes_opened == 0 or lanes_closed == 0:
            errors.append(
                "lifecycle: no completed request lane (B/E pair named "
                f"'req N'); opened={lanes_opened} closed={lanes_closed}")
        for needed in ("admitted", "first token"):
            if not any(n.startswith(needed) for n in instant_names):
                errors.append(
                    f"lifecycle: no {needed!r} instant event")
        if named_slices("iterations") == 0:
            errors.append(
                "lifecycle: no slices on any 'iterations' thread")

    if opts.require_phases:
        for phase in ("gpu", "pim", "sync"):
            if phase not in thread_names:
                errors.append(
                    f"phases: no thread named {phase!r} (metadata)")
            elif named_slices(phase) == 0:
                errors.append(
                    f"phases: no X slices on any {phase!r} thread")

    if errors:
        return fail(errors)

    print(f"check_trace: ok — {len(events)} events, "
          f"{len(stacks)} B/E tracks, {lanes_closed} request lanes, "
          f"{named_slices('iterations')} iteration slices")
    return 0


def load_events(path):
    """The traceEvents of @path, or raise ValueError naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"{path}: {e}") from e
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or not events:
        raise ValueError(f"{path}: missing or empty traceEvents")
    return events


def canon(ev):
    return json.dumps(ev, sort_keys=True, separators=(",", ":"))


class Digest:
    """What --equivalent compares of one trace's events."""

    def __init__(self, events):
        lanes = {}
        self.metadata = []
        for ev in events:
            if ev.get("ph") == "M":
                self.metadata.append(canon(ev))
                if ev.get("name") == "thread_name":
                    lanes[(ev.get("pid"), ev.get("tid"))] = \
                        ev.get("args", {}).get("name")
        self.other = []
        self.counters = {}  # (pid, name) -> [(ts, value)]
        self.slices = {}    # pid -> [(ts, dur, iterations arg or None)]
        self.phases = collections.Counter()
        for ev in events:
            ph = ev.get("ph")
            if ph == "M":
                continue
            pid = ev.get("pid")
            lane = lanes.get((pid, ev.get("tid")))
            args = ev.get("args", {})
            if ph == "C":
                self.counters.setdefault((pid, ev.get("name")), []).append(
                    (ev["ts"], args.get("value")))
            elif ph == "X" and lane == "iterations":
                self.slices.setdefault(pid, []).append(
                    (ev["ts"], ev["dur"], args.get("iterations")))
            elif ph == "X" and lane in PHASE_LANES:
                self.phases[canon(ev)] += 1
            else:
                self.other.append(canon(ev))

    def passes(self, pid):
        """Sorted (start, end) of the quiet passes on @pid's lane."""
        return sorted((ts, ts + dur) for ts, dur, k
                      in self.slices.get(pid, ()) if k is not None)


def slack(x):
    """How far apart two renderings of one instant @x may lie: a few
    units of the 9th significant digit, plus a picosecond near 0."""
    return 2e-8 * abs(x) + 1e-6


def steps(samples):
    """A counter's step function: each run of equal values cut to its
    first sample."""
    out = []
    for ts, value in samples:
        if not out or out[-1][1] != value:
            out.append((ts, value))
    return out


def busy(slices):
    """Merged [start, end] intervals an iterations lane covers."""
    out = []
    for ts, dur, _ in sorted(slices):
        end = ts + dur
        if out and ts <= out[-1][1] + slack(out[-1][1]):
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([ts, end])
    return out


def first_difference(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"#{i}: {x} vs {y}"
    return f"lengths {len(a)} vs {len(b)}"


def equivalent(old_events, new_events):
    """Violations of NEW drawing the run OLD draws (module docstring,
    checks a-d); empty when equivalent."""
    old, new = Digest(old_events), Digest(new_events)
    errors = []
    if old.metadata != new.metadata:
        errors.append("metadata differs at "
                      + first_difference(old.metadata, new.metadata))
    if old.other != new.other:
        errors.append("request-lane events differ at "
                      + first_difference(old.other, new.other))

    for track in sorted(set(old.counters) | set(new.counters),
                        key=lambda t: (t[0], str(t[1]))):
        pid, name = track
        was = old.counters.get(track, [])
        now = new.counters.get(track, [])
        if name == PASS_COUNTER:
            passes = new.passes(pid)
            starts = [s for s, _ in passes]

            def inside(ts):
                i = bisect.bisect_right(starts, ts) - 1
                if i < 0:
                    return False
                start, end = passes[i]
                return start + slack(start) < ts < end - slack(end)

            known = set(was)
            strays = [s for s in now if s not in known]
            if strays:
                errors.append(f"counter {name!r} pid={pid}: NEW sample "
                              f"{strays[0]} is not one of OLD's")
            was = [s for s in was if not inside(s[0])]
        if steps(was) != steps(now):
            errors.append(f"counter {name!r} pid={pid}: step functions "
                          "differ at "
                          + first_difference(steps(was), steps(now)))

    for pid in sorted(set(old.slices) | set(new.slices)):
        was = old.slices.get(pid, [])
        now = new.slices.get(pid, [])
        a, b = busy(was), busy(now)
        same = len(a) == len(b) and all(
            abs(x - y) <= slack(x)
            for p, q in zip(a, b) for x, y in zip(p, q))
        if not same:
            errors.append(f"iterations pid={pid}: busy intervals differ "
                          f"({len(a)} vs {len(b)}) at "
                          + first_difference([tuple(p) for p in a],
                                             [tuple(q) for q in b]))
        count = [sum(1 if k is None else k for _, _, k in s)
                 for s in (was, now)]
        if count[0] != count[1]:
            errors.append(f"iterations pid={pid}: {count[0]} iterations "
                          f"in OLD, {count[1]} in NEW")

    extra = new.phases - old.phases
    if extra:
        errors.append(f"{sum(extra.values())} gpu/pim/sync slices of NEW "
                      f"are not in OLD, e.g. {next(iter(extra))}")
    return errors


def check_equivalent(old_path, new_path):
    try:
        old_events = load_events(old_path)
        new_events = load_events(new_path)
    except ValueError as e:
        return fail([str(e)])
    errors = equivalent(old_events, new_events)
    if errors:
        return fail(errors)
    print(f"check_trace: equivalent — {len(old_events)} events in "
          f"{old_path}, {len(new_events)} in {new_path}")
    return 0


def synthetic(folded):
    """A one-request engine trace of eight 10 us decode iterations, as
    the per-iteration path (@folded false) or with iterations 2-6 as
    one quiet pass and counters written on change (@folded true)."""
    events = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": "engine"}},
        {"ph": "M", "pid": 1, "tid": 100, "name": "thread_name",
         "args": {"name": "req 0"}},
    ]
    for tid, label in enumerate(("iterations", "gpu", "pim", "sync"), 1):
        events.append({"ph": "M", "pid": 1, "tid": tid,
                       "name": "thread_name", "args": {"name": label}})
    body = [{"ph": "B", "pid": 1, "tid": 100, "ts": 50, "name": "req 0",
             "cat": "request", "args": {"input_len": 4}},
            {"ph": "i", "pid": 1, "tid": 100, "ts": 100,
             "name": "admitted", "cat": "request", "s": "t"}]
    last = {}

    def counters(ts, i):
        for name, value in (("queue depth", 1), (PASS_COUNTER, 100 - i),
                            ("running", 1), ("block util", 0.5)):
            if not folded or last.get(name) != value:
                body.append({"ph": "C", "pid": 1, "tid": 0, "ts": ts,
                             "name": name, "args": {"value": value}})
                last[name] = value

    for i in range(8):
        start = 100 + 10 * i
        if folded and 2 <= i <= 6:
            if i == 6:
                body.append({"ph": "X", "pid": 1, "tid": 1, "ts": 120,
                             "dur": 50, "name": "decode",
                             "cat": "iteration",
                             "args": {"batch": 1, "decode_batch": 1,
                                      "iterations": 5}})
                counters(start + 10, i)
            continue
        body.append({"ph": "X", "pid": 1, "tid": 1, "ts": start,
                     "dur": 10, "name": "decode", "cat": "iteration",
                     "args": {"batch": 1, "decode_batch": 1,
                              "prefill_tokens": 0}})
        body.append({"ph": "X", "pid": 1, "tid": 2, "ts": start,
                     "dur": 6, "name": "decode", "cat": "gpu"})
        body.append({"ph": "X", "pid": 1, "tid": 3, "ts": start + 6,
                     "dur": 4, "name": "decode", "cat": "pim"})
        counters(start + 10, i)
    body.append({"ph": "E", "pid": 1, "tid": 100, "ts": 180})
    return events + sorted(body, key=lambda ev: ev["ts"])


def edit_counter(events):
    """@events with the first counter sample's value raised by one."""
    out = copy.deepcopy(events)
    ev = next(e for e in out if e.get("ph") == "C")
    ev["args"]["value"] += 1
    return out


def drop_iteration(events):
    """@events without the last slice on an iterations lane."""
    lanes = {(e["pid"], e["tid"]) for e in events
             if e.get("ph") == "M" and e.get("name") == "thread_name"
             and e.get("args", {}).get("name") == "iterations"}
    at = max(i for i, e in enumerate(events) if e.get("ph") == "X"
             and (e["pid"], e["tid"]) in lanes)
    return events[:at] + events[at + 1:]


def self_test(path):
    old, new = synthetic(False), synthetic(True)
    cases = [("synthetic vs itself", old, old, True),
             ("synthetic vs its folded form", old, new, True),
             ("folded form vs itself", new, new, True),
             ("an edited counter", old, edit_counter(new), False),
             ("a dropped iteration slice", old, drop_iteration(new),
              False)]
    wrong_sum = copy.deepcopy(new)
    for ev in wrong_sum:
        if "iterations" in ev.get("args", {}):
            ev["args"]["iterations"] = 4
    cases.append(("a wrong iterations arg", old, wrong_sum, False))
    moved = copy.deepcopy(new)
    next(e for e in moved if e.get("name") == "admitted")["ts"] = 101
    cases.append(("a moved request instant", old, moved, False))
    stray = new + [{"ph": "X", "pid": 1, "tid": 2, "ts": 131, "dur": 6,
                    "name": "decode", "cat": "gpu"}]
    cases.append(("an extra gpu slice", old, stray, False))
    if path:
        try:
            real = load_events(path)
        except ValueError as e:
            return fail([str(e)])
        cases += [(f"{path} vs itself", real, real, True),
                  (f"{path} with an edited counter", real,
                   edit_counter(real), False),
                  (f"{path} with a dropped iteration slice", real,
                   drop_iteration(real), False)]
    errors = []
    for label, a, b, want in cases:
        got = equivalent(a, b)
        if (not got) != want:
            errors.append(f"self-test: {label}: expected "
                          f"{'equivalent' if want else 'a violation'}, "
                          f"got {got[:2] if got else 'equivalent'}")
    if errors:
        return fail(errors)
    print(f"check_trace: self-test ok — {len(cases)} cases")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", nargs="?",
                    help="trace JSON written by pimba --trace")
    ap.add_argument("--require-lifecycle", action="store_true",
                    help="insist on request lanes + admission/first-token"
                         "/iteration events")
    ap.add_argument("--require-phases", action="store_true",
                    help="insist on gpu/pim/sync phase slices")
    ap.add_argument("--equivalent", nargs=2, metavar=("OLD", "NEW"),
                    help="check that NEW draws the same run as OLD")
    ap.add_argument("--self-test", action="store_true",
                    help="check --equivalent on synthetic traces and "
                         "on TRACE when given")
    opts = ap.parse_args()
    if opts.self_test:
        return self_test(opts.trace)
    if opts.equivalent:
        return check_equivalent(*opts.equivalent)
    if not opts.trace:
        ap.error("a trace, --equivalent or --self-test is required")
    return validate(opts)


if __name__ == "__main__":
    sys.exit(main())

/**
 * @file
 * One benchmark job in one fresh process: load a fleet workload, run it
 * once with cold memos, and print one JSON object of timings, counters
 * and a digest of the simulated statistics on stdout. perfbench/run.py
 * starts many of these and reports medians.
 *
 *   perfbench_job run    <workload.json> --seed N [--setup-reps K]
 *                        [--warm] [--out-dir DIR]
 *   perfbench_job layers <workload.json> --seed N [--out-dir DIR]
 *
 * `run` times what a user of `pimba run` waits for: set-up (scenario
 * load, Fleet and arrival-source construction, repeated K times, 21 by
 * default, and reported as the median), then one cold run from the
 * first simulated event to the final report, including the trace and
 * timeline files when the workload enables them. `--warm` adds a second
 * run on the same Fleet and reports its digest, so memo exactness is
 * checked from outside.
 *
 * `layers` times calls into each module's public functions from here,
 * never from inside the library: spans around loadScenarioFile and the
 * Fleet constructor, an ArrivalSource decorator around next(), a cold
 * run against a warm rerun on the same Fleet, cold step and PIM-kernel
 * calls on fresh objects, router calls over synthetic snapshots, and a
 * traced against an untraced run of the workload's first kObsRequests
 * requests. The set-up spans and the step and kernel probes are repeated
 * kLayerReps times and reported as the median.
 */

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/router.h"
#include "config/json.h"
#include "config/scenario.h"
#include "core/lfsr.h"
#include "obs/timeline.h"
#include "obs/tracer.h"
#include "pim/pim_compute.h"
#include "serving/metrics.h"
#include "serving/trace_io.h"
#include "sim/serving_sim.h"
#include "sim/system.h"

using namespace pimba;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Trace seed of benchmark seed @p s (splitmix64 finalizer; never 0, so
/// the LFSR never falls back to its default seed).
uint32_t
traceSeed(uint64_t s)
{
    uint64_t z = s + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    auto out = static_cast<uint32_t>(z);
    return out ? out : 1u;
}

/// Repetitions of the set-up spans and the step and kernel probes in a
/// layers job.
constexpr int kLayerReps = 15;
/// Requests of the traced-against-untraced comparison in a layers job.
constexpr int kObsRequests = 5000;

struct Options
{
    std::string mode;
    std::string workload;
    uint64_t seed = 1;
    int setupReps = 21;
    bool warm = false;
    std::string outDir = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_job: %s\n"
                 "usage: perfbench_job run|layers <workload.json> "
                 "--seed N [--setup-reps K] [--warm] [--out-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 3)
        usage("missing mode or workload");
    Options o;
    o.mode = argv[1];
    o.workload = argv[2];
    if (o.mode != "run" && o.mode != "layers")
        usage("mode must be run or layers");
    for (int i = 3; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--setup-reps")
            o.setupReps = std::max(1, std::stoi(value()));
        else if (a == "--warm")
            o.warm = true;
        else if (a == "--out-dir")
            o.outDir = value();
        else
            usage(("unknown argument " + a).c_str());
    }
    return o;
}

/// The workload file with the benchmark seed applied to its trace.
Scenario
loadWorkload(const Options &o)
{
    Scenario sc = loadScenarioFile(o.workload);
    auto *fs = std::get_if<FleetScenario>(&sc.spec);
    if (!fs || fs->cases.size() != 1)
        throw ConfigError(o.workload +
                          ": a benchmark workload is one fleet case");
    fs->trace.seed = traceSeed(o.seed);
    return sc;
}

const FleetScenario &
fleetSpec(const Scenario &sc)
{
    return std::get<FleetScenario>(sc.spec);
}

/// Simulated statistics of one run, summed over replicas.
struct Stats
{
    uint64_t requests = 0; ///< arrivals served (completed + cancelled)
    uint64_t completed = 0;
    uint64_t cancelled = 0;
    uint64_t generated = 0;
    uint64_t recomputed = 0;
    uint64_t iterations = 0;
    uint64_t preemptions = 0;
    uint64_t prefillChunks = 0;
    uint64_t wasted = 0;
    int peakBatch = 0;
    double avgBlockUtil = 0.0;
    uint64_t digest = 0;
};

void
fnv(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ull;
    }
}

Stats
statsOf(const FleetReport &r)
{
    Stats s;
    s.completed = r.metrics.requests;
    s.generated = r.metrics.generatedTokens;
    for (const ServingReport &rep : r.replicas) {
        s.cancelled += rep.cancelledRequests;
        s.recomputed += rep.recomputedTokens;
        s.iterations += rep.iterations;
        s.preemptions += rep.preemptions;
        s.prefillChunks += rep.prefillChunks;
        s.wasted += rep.wastedTokens;
        s.peakBatch = std::max(s.peakBatch, rep.peakBatch);
        s.avgBlockUtil += rep.avgBlockUtil;
    }
    if (!r.replicas.empty())
        s.avgBlockUtil /= static_cast<double>(r.replicas.size());
    s.requests = s.completed + s.cancelled;

    uint64_t h = 0xCBF29CE484222325ull;
    for (uint64_t v : {s.completed, s.cancelled, s.generated, s.recomputed,
                       s.iterations, s.preemptions})
        fnv(h, v);
    for (double v : {r.makespan.value(), r.metrics.ttft.p50,
                     r.metrics.ttft.p99, r.metrics.tpot.p50,
                     r.metrics.tpot.p99})
        fnv(h, std::bit_cast<uint64_t>(v));
    s.digest = h;
    return s;
}

/// Decorator timing every next() of the wrapped source.
class TimedSource : public ArrivalSource
{
  public:
    explicit TimedSource(std::unique_ptr<ArrivalSource> inner_)
        : inner(std::move(inner_))
    {}

    bool
    next(Request &out) override
    {
        Clock::time_point t0 = Clock::now();
        bool ok = inner->next(out);
        seconds += since(t0);
        produced += ok ? 1 : 0;
        return ok;
    }

    double seconds = 0.0;
    uint64_t produced = 0;

  private:
    std::unique_ptr<ArrivalSource> inner;
};

/// Tracer + timeline of a traced run, writing where the workload's
/// observability block says, under the job's output directory.
struct ObsSinks
{
    std::optional<Tracer> tracer;
    std::optional<TimelineSampler> timeline;
    std::string tracePath;
    std::string timelinePath;
    TimelineFormat timelineFormat = TimelineFormat::Csv;

    ObsSinks(const ObservabilityConfig &oc, const std::string &outDir)
    {
        auto base = [](const std::string &p) {
            size_t slash = p.find_last_of('/');
            return slash == std::string::npos ? p : p.substr(slash + 1);
        };
        if (oc.tracing()) {
            tracer.emplace();
            tracePath = outDir + "/" + base(oc.tracePath);
        }
        if (oc.timelining()) {
            timeline.emplace(oc.timelineInterval);
            timelinePath = outDir + "/" + base(oc.timelinePath);
            timelineFormat = oc.timelineFormat;
        }
    }

    bool any() const { return tracer || timeline; }

    FleetObservers
    observers(const FleetCase &c)
    {
        FleetObservers fo;
        fo.labelPrefix = c.label + " [" + routerName(c.fleet.router) + "] ";
        fo.tracer = tracer ? &*tracer : nullptr;
        fo.timeline = timeline ? &*timeline : nullptr;
        fo.pidBase = 1;
        fo.interconnectPid = 1 + static_cast<int>(c.fleet.replicas.size());
        return fo;
    }

    /// Write the trace; returns the seconds writeFile took.
    double
    writeTrace() const
    {
        if (!tracer)
            return 0.0;
        Clock::time_point t0 = Clock::now();
        if (!tracer->writeFile(tracePath))
            throw ConfigError("cannot write " + tracePath);
        return since(t0);
    }

    void
    writeTimeline() const
    {
        if (!timeline)
            return;
        std::string body = timelineFormat == TimelineFormat::Json
                               ? timeline->renderJson()
                               : timeline->renderCsv();
        FILE *f = std::fopen(timelinePath.c_str(), "w");
        bool ok = f && std::fwrite(body.data(), 1, body.size(), f) ==
                           body.size();
        if (f)
            ok = std::fclose(f) == 0 && ok;
        if (!ok)
            throw ConfigError("cannot write " + timelinePath);
    }
};

/// One flat JSON object, printed as the job's only stdout line.
class JsonOut
{
  public:
    void
    num(const std::string &k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        add(k, buf);
    }
    void
    count(const std::string &k, uint64_t v)
    {
        add(k, std::to_string(v));
    }
    void
    hex(const std::string &k, uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "\"%016llx\"",
                      static_cast<unsigned long long>(v));
        add(k, buf);
    }
    void
    print() const
    {
        std::printf("{%s}\n", body.c_str());
    }

  private:
    void
    add(const std::string &k, const std::string &v)
    {
        if (!body.empty())
            body += ", ";
        body += "\"" + k + "\": " + v;
    }

    std::string body;
};

/// Host-speed probe that runs no pimba code, taken in short fixed slices
/// before set-up, during the run and after it: a node-based hash map
/// churned with pseudo-random keys, then a branchy timing-table walk, the
/// two access patterns the simulator spends its time in. A shared host's
/// speed drifts by tens of percent within seconds to minutes; slices
/// spread through the run see the same host the simulator sees, where
/// one probe at each end of the run does not. run.py reports job timings
/// at the reference slice time.
class HostProbe
{
  public:
    HostProbe() { map.reserve(1u << 12); }

    /// Run one slice.
    void
    slice()
    {
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < 10000; ++i) {
            uint64_t key = next() & 0xFFF;
            auto it = map.find(key);
            if (it == map.end()) {
                map.emplace(key, x);
            } else {
                acc += it->second;
                if (acc & 1)
                    map.erase(it);
            }
        }
        for (int i = 0; i < 70000; ++i) {
            uint64_t r = next();
            uint64_t ready = bank[r & 15] + (r >> 60);
            busyUntil = ready > busyUntil ? ready : busyUntil + 1;
            bank[r & 15] = busyUntil + ((r >> 8) & 7);
        }
        last = Clock::now();
        seconds += std::chrono::duration<double>(last - t0).count();
        ++slices;
        if (acc + busyUntil == 0x5EED) // keeps both loops observable
            std::fputs("", stderr);
    }

    /// Run a slice when the last one ended kInterval ago or more.
    void
    tick()
    {
        if (Clock::now() - last >= kInterval)
            slice();
    }

    double meanSeconds() const { return seconds / slices; }

    /// Seconds spent in slices so far, to take out of a span they ran in.
    double seconds = 0.0;

  private:
    static constexpr std::chrono::milliseconds kInterval{20};

    uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }

    uint64_t x = 0x9E3779B97F4A7C15ull;
    uint64_t acc = 0;
    uint64_t busyUntil = 0;
    uint64_t bank[16] = {};
    std::unordered_map<uint64_t, uint64_t> map;
    Clock::time_point last = Clock::now();
    int slices = 0;
};

/// Decorator that lets the host probe tick on every next() of the run.
class ProbedSource : public ArrivalSource
{
  public:
    ProbedSource(ArrivalSource &inner_, HostProbe &probe_)
        : inner(inner_), probe(probe_)
    {}

    bool
    next(Request &out) override
    {
        probe.tick();
        return inner.next(out);
    }

  private:
    ArrivalSource &inner;
    HostProbe &probe;
};

/// Peak resident memory of this process image. VmHWM belongs to the
/// address space exec() created; getrusage's ru_maxrss would also count
/// the parent's pages that the pre-exec fork copied.
double
peakRssMb()
{
    if (FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long kib = 0;
        bool found = false;
        while (!found && std::fgets(line, sizeof line, f))
            found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
        std::fclose(f);
        if (found)
            return static_cast<double>(kib) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
putStats(JsonOut &out, const Stats &s)
{
    out.count("requests", s.requests);
    out.count("completed", s.completed);
    out.count("cancelled", s.cancelled);
    out.count("generated", s.generated);
    out.count("recomputed", s.recomputed);
    out.count("iterations", s.iterations);
    out.count("preemptions", s.preemptions);
    out.count("prefill_chunks", s.prefillChunks);
    out.count("wasted", s.wasted);
    out.count("peak_batch", static_cast<uint64_t>(s.peakBatch));
    out.num("avg_block_util", s.avgBlockUtil);
    out.hex("digest", s.digest);
}

// ------------------------------------------------------------------ run

int
runJob(const Options &o)
{
    // Set-up, repeated; the last repetition's objects serve the run.
    std::vector<double> setups;
    std::optional<Scenario> sc;
    std::unique_ptr<ObsSinks> sinks; // outlives the fleet pointing at it
    std::unique_ptr<Fleet> fleet;
    std::unique_ptr<ArrivalSource> arrivals;
    HostProbe probe;
    probe.slice();
    for (int i = 0; i < o.setupReps; ++i) {
        arrivals.reset();
        fleet.reset();
        sinks.reset();
        sc.reset();
        Clock::time_point t0 = Clock::now();
        sc.emplace(loadWorkload(o));
        const FleetScenario &fs = fleetSpec(*sc);
        fleet = std::make_unique<Fleet>(fs.model, fs.cases[0].fleet);
        sinks = std::make_unique<ObsSinks>(sc->obs, o.outDir);
        if (sinks->any())
            fleet->attachObservers(sinks->observers(fs.cases[0]));
        arrivals = openArrivalSource(fs.trace);
        setups.push_back(since(t0));
    }
    const FleetCase &fc = fleetSpec(*sc).cases[0];

    // The slices that run inside the timed span are taken out of wall_s.
    StreamingMetrics stream(fc.fleet.slo);
    ProbedSource probed(*arrivals, probe);
    const double sliced = probe.seconds;
    Clock::time_point t0 = Clock::now();
    FleetReport rep = fleet->runStreamed(probed, stream);
    probe.tick();
    sinks->writeTrace();
    probe.tick();
    sinks->writeTimeline();
    probe.slice();
    const double wall = since(t0) - (probe.seconds - sliced);

    JsonOut out;
    out.num("setup_s", median(setups));
    out.num("wall_s", wall);
    out.num("probe_s", probe.meanSeconds());
    putStats(out, statsOf(rep));
    if (sinks->tracer)
        out.count("trace_events", sinks->tracer->eventCount());
    if (o.warm) {
        fleet->attachObservers(FleetObservers{});
        auto again = openArrivalSource(fleetSpec(*sc).trace);
        StreamingMetrics stream2(fc.fleet.slo);
        out.hex("digest_warm",
                statsOf(fleet->runStreamed(*again, stream2)).digest);
    }
    out.num("peak_rss_mb", peakRssMb());
    out.print();
    return 0;
}

// --------------------------------------------------------------- layers

/// Pinned per-model shapes for the cold step and kernel probes.
constexpr int kProbeBatch = 32;
constexpr uint64_t kProbeSeq = 1024;

StateUpdateShape
probeStateShape(const ModelConfig &m)
{
    StateUpdateShape s;
    s.instances = static_cast<uint64_t>(kProbeBatch) *
                  static_cast<uint64_t>(std::max(m.suHeads, 1));
    if (m.dimHead > 0)
        s.dimHead = m.dimHead;
    if (m.dimState > 0)
        s.dimState = m.dimState;
    return s;
}

AttentionShape
probeAttnShape(const ModelConfig &m)
{
    AttentionShape a;
    a.instances = static_cast<uint64_t>(kProbeBatch) *
                  static_cast<uint64_t>(m.attnHeads > 0 ? m.attnHeads : 32);
    if (m.attnDimHead > 0)
        a.dimHead = m.attnDimHead;
    a.seqLen = kProbeSeq;
    return a;
}

/// Mean microseconds per call of generationStep, prefillStep and
/// mixedStep, each on a freshly built simulator (cold memos).
double
coldStepUs(const SystemConfig &sys, const ModelConfig &m, double &sink)
{
    double total = 0.0;
    for (int k = 0; k < 3; ++k) {
        ServingSimulator sim(sys);
        Clock::time_point t0 = Clock::now();
        StepResult r =
            k == 0   ? sim.generationStep(m, kProbeBatch, kProbeSeq)
            : k == 1 ? sim.prefillStep(m, 512, 0)
                     : sim.mixedStep(m, kProbeBatch, kProbeSeq, 256, 128);
        total += since(t0);
        sink += r.seconds.value();
    }
    return total / 3.0 * 1e6;
}

/// Mean microseconds per uncached state-update, score and attend call.
double
pimKernelUs(const HbmConfig &hbm, const PimDesign &design,
            const ModelConfig &m, double &sink)
{
    double total = 0.0;
    for (int k = 0; k < 3; ++k) {
        PimComputeModel pim(hbm, design);
        Clock::time_point t0 = Clock::now();
        PimKernelResult r =
            k == 0   ? pim.stateUpdate(probeStateShape(m))
            : k == 1 ? pim.attentionScore(probeAttnShape(m))
                     : pim.attentionAttend(probeAttnShape(m));
        total += since(t0);
        sink += r.seconds.value();
    }
    return total / 3.0 * 1e6;
}

/// Mean microseconds per route() over @p n seeded snapshots.
double
routeUs(RouterPolicy policy, size_t n, uint64_t seed, double &sink)
{
    Lfsr32 rng(traceSeed(seed ^ 0xA5A5u));
    std::vector<ReplicaSnapshot> pool(n);
    for (ReplicaSnapshot &s : pool) {
        s.queueDepth = rng.next() % 64;
        s.outstandingTokens = rng.next() % 100000;
    }
    auto router = makeRouter(policy);
    Request r;
    const size_t calls = std::max<size_t>(20000, 4000000 / n);
    size_t picked = 0;
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < calls; ++i) {
        r.id = i;
        r.classId = static_cast<uint32_t>(i & 1);
        size_t k = router->route(pool, r);
        picked += k;
        pool[k].queueDepth += 1;
        pool[(k + 1) % n].queueDepth -= pool[(k + 1) % n].queueDepth ? 1 : 0;
    }
    double us = since(t0) / static_cast<double>(calls) * 1e6;
    sink += static_cast<double>(picked);
    return us;
}

struct RunTiming
{
    double wall = 0.0;
    double nextSeconds = 0.0;
    uint64_t produced = 0;
    Stats stats;
};

RunTiming
timedRun(Fleet &fleet, const FleetScenario &fs)
{
    TimedSource src(openArrivalSource(fs.trace));
    StreamingMetrics stream(fs.cases[0].fleet.slo);
    Clock::time_point t0 = Clock::now();
    FleetReport rep = fleet.runStreamed(src, stream);
    RunTiming t;
    t.wall = since(t0);
    t.nextSeconds = src.seconds;
    t.produced = src.produced;
    t.stats = statsOf(rep);
    return t;
}

int
layersJob(const Options &o)
{
    JsonOut out;
    double sink = 0.0;

    std::vector<double> loads, builds;
    std::optional<Scenario> sc;
    for (int i = 0; i < kLayerReps; ++i) {
        sc.reset();
        Clock::time_point t0 = Clock::now();
        sc.emplace(loadWorkload(o));
        loads.push_back(since(t0));
    }
    const FleetScenario &fs = fleetSpec(*sc);
    const FleetCase &fc = fs.cases[0];
    std::unique_ptr<Fleet> fleet;
    for (int i = 0; i < kLayerReps; ++i) {
        fleet.reset();
        Clock::time_point t0 = Clock::now();
        fleet = std::make_unique<Fleet>(fs.model, fc.fleet);
        builds.push_back(since(t0));
    }
    out.num("config.load_s", median(loads));
    out.num("cluster.build_s", median(builds));

    // Cold run, then a warm rerun on the same Fleet (memos filled).
    RunTiming cold = timedRun(*fleet, fs);
    RunTiming warm = timedRun(*fleet, fs);
    const double fill = cold.wall - warm.wall;
    out.num("trace.next_us",
            cold.nextSeconds / static_cast<double>(cold.produced) * 1e6);
    out.num("step.fill_s", fill);
    out.num("step.fill_share", fill / cold.wall);
    out.num("cluster.warm_run_s", warm.wall);
    out.num("cluster.warm_us_per_req",
            warm.wall / static_cast<double>(warm.produced) * 1e6);
    out.num("engine.warm_ns_per_iter",
            warm.wall / static_cast<double>(warm.stats.iterations) * 1e9);
    out.count("engine.iterations", cold.stats.iterations);
    out.count("engine.prefill_chunks", cold.stats.prefillChunks);
    out.count("engine.preemptions", cold.stats.preemptions);
    out.count("engine.recomputed_tokens", cold.stats.recomputed);
    out.count("engine.cancelled", cold.stats.cancelled);
    out.count("engine.wasted_tokens", cold.stats.wasted);
    out.count("engine.peak_batch",
              static_cast<uint64_t>(cold.stats.peakBatch));
    out.num("engine.avg_block_util", cold.stats.avgBlockUtil);
    out.hex("digest", cold.stats.digest);
    out.hex("digest_warm", warm.stats.digest);
    fleet.reset();

    // Cold step and kernel probes at the workload's first replica.
    const ReplicaConfig &rc = fc.fleet.replicas[0];
    SystemConfig sys = makeSystem(rc.kind, rc.nGpus);
    PimDesign design = sys.pim().value_or(pimbaDesign());
    std::vector<double> steps, kernels;
    for (int i = 0; i < kLayerReps; ++i) {
        steps.push_back(coldStepUs(sys, fs.model, sink));
        kernels.push_back(pimKernelUs(sys.hbm, design, fs.model, sink));
    }
    out.num("sim.cold_step_us", median(steps));
    out.num("pim.kernel_us", median(kernels));

    std::vector<double> routes;
    for (int i = 0; i < 5; ++i)
        routes.push_back(routeUs(fc.fleet.router, fc.fleet.replicas.size(),
                                 o.seed + static_cast<uint64_t>(i), sink));
    out.num("router.route_us", median(routes));

    // Traced vs untraced cold runs over the first M requests.
    FleetScenario slice = fs;
    slice.trace.numRequests =
        std::min(slice.trace.numRequests, kObsRequests);
    ObservabilityConfig oc = sc->obs;
    if (oc.tracePath.empty())
        oc.tracePath = "trace.json";
    if (oc.timelinePath.empty())
        oc.timelinePath = "timeline.csv";
    double untraced = 0.0;
    {
        Fleet f(slice.model, fc.fleet);
        untraced = timedRun(f, slice).wall;
    }
    {
        ObsSinks sinks(oc, o.outDir);
        Fleet f(slice.model, fc.fleet);
        f.attachObservers(sinks.observers(fc));
        RunTiming traced = timedRun(f, slice);
        double render = sinks.writeTrace();
        Clock::time_point t0 = Clock::now();
        sinks.writeTimeline();
        double timelineWrite = since(t0);
        out.count("obs.events", sinks.tracer->eventCount());
        out.num("obs.render_s", render);
        out.num("obs.traced_ratio",
                (traced.wall + render + timelineWrite) / untraced);
    }

    out.num("peak_rss_mb", peakRssMb());
    out.num("sink", sink);
    out.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    try {
        return o.mode == "run" ? runJob(o) : layersJob(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_job: %s\n", e.what());
        return 1;
    }
}

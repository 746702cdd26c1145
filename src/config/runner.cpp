#include "config/runner.h"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <utility>

#include "serving/step_cost_store.h"
#include "serving/trace_io.h"
#include "sim/serving_sim.h"

namespace pimba {

namespace {

/// One engine run over the @p trace template at Poisson/fixed rate
/// @p rate under @p policy, costing its steps in @p costs (and running
/// in the store's execution mode), in a session with @p sink.
ServingReport
servePoint(std::shared_ptr<StepCostStore> costs, const TraceConfig &trace,
           EngineConfig ec, SchedulerPolicy policy, double rate,
           const EngineObservers &eo, CompletionSink *sink)
{
    TraceConfig tc = trace;
    tc.ratePerSec = rate;
    ec.policy = policy;
    ec.executionMode = costs->simulator().system().executionMode;
    ServingEngine engine(std::move(costs), ec);
    engine.attachObservers(eo);
    return engine.run(generateTrace(tc), sink);
}

} // namespace

std::string
ScenarioReport::renderText() const
{
    std::string out = "=== " + title + " ===\n";
    for (const ReportSection &sec : sections) {
        if (!sec.heading.empty())
            out += "--- " + sec.heading + " ---\n";
        if (sec.table)
            out += sec.table->str();
        for (const std::string &line : sec.lines)
            out += line + "\n";
        out += "\n";
    }
    return out;
}

std::string
ScenarioReport::renderCsv() const
{
    std::string out = "# " + title + "\n";
    for (const ReportSection &sec : sections) {
        if (!sec.heading.empty())
            out += "# " + sec.heading + "\n";
        if (sec.table)
            out += sec.table->csv();
        for (const std::string &line : sec.lines)
            out += "# " + line + "\n";
    }
    return out;
}

ServingReport
runServingPoint(const ServingScenario &sc, SystemKind kind,
                SchedulerPolicy policy, ExecutionMode mode, double rate,
                const EngineObservers &eo, CompletionSink *sink)
{
    return servePoint(std::make_shared<StepCostStore>(
                          ServingSimulator(makeSystem(kind, sc.nGpus)),
                          sc.model, mode),
                      sc.trace, sc.engine, policy, rate, eo, sink);
}

FleetReport
runFleetCase(StepCostStores &stores, const FleetScenario &sc,
             const FleetCase &c, std::optional<RouterPolicy> router,
             const FleetObservers &fo, StreamingMetrics *stream)
{
    FleetConfig cfg = c.fleet;
    if (router)
        cfg.router = *router;
    Fleet fleet(stores, cfg);
    fleet.attachObservers(fo);
    auto arrivals = openArrivalSource(sc.trace);
    return stream ? fleet.runStreamed(*arrivals, *stream)
                  : fleet.run(*arrivals);
}

namespace {

/// Write @p body to @p path, throwing a located-enough ConfigError on
/// failure (observability outputs are explicit user requests — a
/// silently dropped file would look like a successful run).
void
writeTextFile(const std::string &path, const std::string &body)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw ConfigError("cannot open \"" + path + "\" for writing");
    size_t written = std::fwrite(body.data(), 1, body.size(), f);
    int rc = std::fclose(f);
    if (written != body.size() || rc != 0)
        throw ConfigError("short write to \"" + path + "\"");
}

/// Flush the run's trace/timeline files and append an "observability"
/// section describing what was emitted. No-op (and no section) when
/// every surface is off — reports of undisturbed runs stay
/// byte-identical to a build without the subsystem.
void
emitObsOutputs(const ObservabilityConfig &oc, const Tracer *tracer,
               const TimelineSampler *timeline, ScenarioReport &rep)
{
    if (!tracer && !timeline && !oc.streamMetrics)
        return;
    ReportSection sec;
    sec.heading = "observability";
    if (oc.streamMetrics)
        sec.lines.push_back(
            "metrics: streaming quantile sketches (relative accuracy " +
            fmt(QuantileSketch::kDefaultAccuracy * 100.0, 1) + "%)");
    if (tracer) {
        if (!tracer->writeFile(oc.tracePath))
            throw ConfigError("cannot write trace file \"" +
                              oc.tracePath + "\"");
        sec.lines.push_back("trace: " + oc.tracePath + " (" +
                            std::to_string(tracer->eventCount()) +
                            " events)");
    }
    if (timeline) {
        writeTextFile(oc.timelinePath,
                      oc.timelineFormat == TimelineFormat::Json
                          ? timeline->renderJson()
                          : timeline->renderCsv());
        sec.lines.push_back("timeline: " + oc.timelinePath + " (" +
                            std::to_string(timeline->rows().size()) +
                            " samples over " +
                            std::to_string(timeline->trackCount()) +
                            " tracks)");
    }
    rep.sections.push_back(std::move(sec));
}

/// Execution modes one (system, scenario) row set actually sweeps:
/// autoModes expands to blocked plus overlapped where a PIM exists.
std::vector<ExecutionMode>
modesFor(const ServingScenario &sc, SystemKind kind)
{
    if (!sc.autoModes)
        return sc.modes;
    std::vector<ExecutionMode> modes = {ExecutionMode::Blocked};
    if (makeSystem(kind).pim().has_value())
        modes.push_back(ExecutionMode::Overlapped);
    return modes;
}

/// One system's value in a step cell: its tokens/s (throughput
/// report), or its step total or @p category of it (latency, energy).
double
cellValue(StepReport report, const StepResult &step, int batch,
          std::optional<BreakdownKey> category = {})
{
    switch (report) {
      case StepReport::Throughput:
        return (Tokens(batch) / step.seconds).value();
      case StepReport::Latency:
        return category ? step.latency.get(*category)
                        : step.seconds.value();
      case StepReport::Energy:
        return category ? step.energy.get(*category)
                        : step.energy.total();
    }
    return 0.0;
}

/**
 * Step study: per grid, one generationStep per (model, batch, system)
 * at the scenario's position. A throughput table has one row per
 * (model, batch) and one normalized column per system. A latency or
 * energy table has one row per (model, batch, system): leading model,
 * system and batch columns (each left out when its axis holds one
 * value in the table), the step total, and the report's categories
 * normalized to the baseline system's total.
 */
ScenarioReport
runStep(const Scenario &scenario, bool quiet)
{
    const auto &st = std::get<StepScenario>(scenario.spec);
    const bool breakdown = st.report != StepReport::Throughput;
    ScenarioReport rep;

    // (mean, max) ratio accumulators per summary, over all grid cells.
    std::vector<Accumulator> ratios(st.summaries.size());

    for (const StepGrid &grid : st.grids) {
        const bool byModel = !breakdown || grid.models.size() > 1;
        const bool bySystem = breakdown && st.systems.size() > 1;
        const bool byBatch = !breakdown || grid.batches.size() > 1;
        auto lead = [&](std::string model, std::string system,
                        std::string batch) {
            std::vector<std::string> row;
            if (byModel)
                row.push_back(std::move(model));
            if (bySystem)
                row.push_back(std::move(system));
            if (byBatch)
                row.push_back(std::move(batch));
            return row;
        };
        std::vector<std::string> header = lead("model", "system", "batch");
        if (breakdown) {
            header.push_back(st.report == StepReport::Latency ? "total(ms)"
                                                              : "total(J)");
            for (const StepColumn &col : stepColumns(st.report))
                header.push_back(col.header);
        } else {
            for (SystemKind kind : st.systems)
                header.push_back(systemName(kind));
        }
        Table t(header);
        for (const ModelConfig &model : grid.models) {
            for (int batch : grid.batches) {
                std::vector<StepResult> steps;
                for (SystemKind kind : st.systems) {
                    SystemConfig sys = makeSystem(kind, grid.nGpus,
                                                  grid.gpu, grid.hbm);
                    sys.executionMode = st.executionMode;
                    steps.push_back(ServingSimulator(sys).generationStep(
                        model, batch, st.position));
                }
                const double base = cellValue(st.report, steps[0], batch);
                if (breakdown) {
                    for (size_t i = 0; i < steps.size(); ++i) {
                        std::vector<std::string> row =
                            lead(model.name, systemName(st.systems[i]),
                                 std::to_string(batch));
                        const double total =
                            cellValue(st.report, steps[i], batch);
                        row.push_back(st.report == StepReport::Latency
                                          ? fmt(total * 1e3, 2)
                                          : fmt(total, 3));
                        for (const StepColumn &col : stepColumns(st.report))
                            row.push_back(
                                fmt(cellValue(st.report, steps[i], batch,
                                              col.key) /
                                        base,
                                    3));
                        t.addRow(row);
                    }
                } else {
                    std::vector<std::string> row =
                        lead(model.name, "", std::to_string(batch));
                    for (const StepResult &step : steps)
                        row.push_back(
                            fmt(cellValue(st.report, step, batch) / base,
                                2));
                    t.addRow(row);
                }
                for (size_t s = 0; s < st.summaries.size(); ++s) {
                    const StepSummary &sum = st.summaries[s];
                    if (sum.batch && *sum.batch != batch)
                        continue;
                    double mine = 0.0, theirs = 0.0;
                    for (size_t i = 0; i < st.systems.size(); ++i) {
                        if (st.systems[i] == sum.system)
                            mine = cellValue(st.report, steps[i], batch,
                                             sum.category);
                        if (st.systems[i] == sum.versus)
                            theirs = cellValue(st.report, steps[i], batch,
                                               sum.category);
                    }
                    if (mine > 0.0 && theirs > 0.0)
                        ratios[s].add(breakdown ? theirs / mine
                                                : mine / theirs);
                }
            }
            if (!quiet)
                fprintf(stderr, "  %s done\n", model.name.c_str());
        }
        rep.sections.push_back(
            ReportSection{grid.label, std::move(t), {}});
    }

    if (!st.summaries.empty()) {
        ReportSection sec;
        for (size_t s = 0; s < st.summaries.size(); ++s) {
            const StepSummary &sum = st.summaries[s];
            std::string line =
                systemName(sum.system) + " vs " + systemName(sum.versus);
            if (sum.category)
                line += std::string(" ") + breakdownKeyName(*sum.category);
            if (sum.batch)
                line += " at batch " + std::to_string(*sum.batch);
            line += ": avg " + fmtRatio(ratios[s].mean()) + ", max " +
                    fmtRatio(ratios[s].max());
            if (!sum.note.empty())
                line += " (" + sum.note + ")";
            sec.lines.push_back(std::move(line));
        }
        rep.sections.push_back(std::move(sec));
    }
    return rep;
}

ScenarioReport
runServing(const Scenario &scenario, bool quiet)
{
    const auto &sc = std::get<ServingScenario>(scenario.spec);
    const ObservabilityConfig &oc = scenario.obs;
    ScenarioReport rep;
    Table t({"system", "policy", "mode", "rate", "tok/s", "goodput",
             "TTFT p50", "TTFT p95", "TPOT p95", "preempt",
             "blk util"});
    // Per-system saturation knee: the highest swept rate still served
    // almost entirely within the SLO (only meaningful for rate sweeps).
    Table knees({"system", "policy", "mode", "saturation req/s",
                 "peak tok/s"});
    // One trace "process" / timeline track per (system, policy, mode,
    // rate) run, all sharing this study's sinks.
    std::optional<Tracer> tracer;
    std::optional<TimelineSampler> timeline;
    if (oc.tracing())
        tracer.emplace();
    if (oc.timelining())
        timeline.emplace(oc.timelineInterval);
    int nextPid = 1;
    for (SystemKind kind : sc.systems) {
        for (SchedulerPolicy policy : sc.policies) {
            for (ExecutionMode mode : modesFor(sc, kind)) {
                double knee_rate = 0.0, peak_tok = 0.0;
                for (double rate : sc.rates) {
                    const std::string label =
                        systemName(kind) + " " + policyName(policy) +
                        " " + executionModeName(mode) +
                        " rate=" + fmt(rate, 0);
                    EngineObservers eo;
                    StreamingMetrics stream(sc.engine.slo);
                    if (tracer) {
                        eo.tracer = &*tracer;
                        eo.pid = nextPid++;
                        tracer->processName(eo.pid, label);
                    }
                    if (timeline) {
                        eo.timeline = &*timeline;
                        eo.timelineTrack = timeline->registerTrack(label);
                    }
                    ServingReport r = runServingPoint(
                        sc, kind, policy, mode, rate, eo,
                        oc.streamMetrics ? &stream : nullptr);
                    const ServingMetrics m =
                        oc.streamMetrics ? stream.finalize(r.makespan)
                                         : r.metrics;
                    t.addRow({systemName(kind), policyName(policy),
                              executionModeName(mode), fmt(rate, 0),
                              fmt(m.tokensPerSec.value(), 1),
                              fmt(m.goodput.value(), 2),
                              fmt(m.ttft.p50, 3),
                              fmt(m.ttft.p95, 3), fmt(m.tpot.p95, 4),
                              fmt(static_cast<double>(r.preemptions),
                                  0),
                              fmt(r.peakBlockUtil, 3)});
                    peak_tok =
                        std::max(peak_tok, m.tokensPerSec.value());
                    if (sustainsSlo(m, 0.9))
                        knee_rate = rate;
                }
                knees.addRow({systemName(kind), policyName(policy),
                              executionModeName(mode),
                              fmt(knee_rate, 0), fmt(peak_tok, 0)});
            }
        }
        if (!quiet)
            fprintf(stderr, "  %s done\n", systemName(kind).c_str());
    }
    rep.sections.push_back(ReportSection{"", std::move(t), {}});
    if (sc.rates.size() > 1)
        rep.sections.push_back(
            ReportSection{"saturation knees", std::move(knees), {}});
    emitObsOutputs(oc, tracer ? &*tracer : nullptr,
                   timeline ? &*timeline : nullptr, rep);
    return rep;
}

/**
 * Fleet study: one row per (case, router). Every study shares the
 * first seven columns (tools/check_replay.py reads goodput/TTFT/TPOT by
 * index). A study with a control plane on any case adds the
 * control-plane outcome — SLO attainment, cancellations, wasted tokens,
 * the provisioned replica range, and the replica-second bill; its
 * control-plane-off cases are the static baselines, billed simply
 * replicas x makespan, putting both policies on one cost axis. Any
 * other study adds queueing, load imbalance and the disaggregation
 * transfer breakdown.
 */
ScenarioReport
runFleetStudy(const Scenario &scenario, bool quiet)
{
    const auto &sc = std::get<FleetScenario>(scenario.spec);
    const ObservabilityConfig &oc = scenario.obs;
    const bool control =
        std::any_of(sc.cases.begin(), sc.cases.end(),
                    [](const FleetCase &c) {
                        return c.fleet.controlPlane.anyEnabled();
                    });
    ScenarioReport rep;
    std::vector<std::string> header = {"fleet", "router", "goodput",
                                       "TTFT p50", "TTFT p95",
                                       "TPOT p50", "TPOT p95"};
    if (control)
        header.insert(header.end(), {"SLO att", "cancelled", "wasted tok",
                                     "replicas", "replica-sec"});
    else
        header.insert(header.end(),
                      {"queue p95", "req imbal", "tok imbal",
                       "xfer MB/req", "xfer p95 ms", "TTFT share"});
    Table t(header);
    std::optional<Tracer> tracer;
    std::optional<TimelineSampler> timeline;
    if (oc.tracing())
        tracer.emplace();
    if (oc.timelining())
        timeline.emplace(oc.timelineInterval);
    // Each case claims a contiguous pid block: one pid per replica
    // plus one for its interconnect.
    int nextPid = 1;
    // Every row of the study costs its steps in one set of stores, so
    // rows over the same (kind, nGpus, mode) fill each store once.
    StepCostStores stores(sc.model);
    auto addRow = [&](const FleetCase &c,
                      std::optional<RouterPolicy> router) {
        FleetObservers fo;
        fo.labelPrefix = c.label + " [" +
                         routerName(router ? *router : c.fleet.router) +
                         "] ";
        fo.tracer = tracer ? &*tracer : nullptr;
        fo.timeline = timeline ? &*timeline : nullptr;
        fo.pidBase = nextPid;
        fo.interconnectPid =
            nextPid + static_cast<int>(c.fleet.replicas.size());
        nextPid += static_cast<int>(c.fleet.replicas.size()) + 1;
        StreamingMetrics stream(c.fleet.slo);
        const FleetReport r =
            runFleetCase(stores, sc, c, router, fo,
                         oc.streamMetrics ? &stream : nullptr);
        const ServingMetrics &m = r.metrics;
        std::vector<std::string> row = {
            c.label, routerName(router ? *router : c.fleet.router),
            fmt(m.goodput.value(), 2), fmt(m.ttft.p50, 3),
            fmt(m.ttft.p95, 3), fmt(m.tpot.p50, 4), fmt(m.tpot.p95, 4)};
        if (control) {
            size_t minProv = c.fleet.replicas.size();
            size_t maxProv = minProv;
            double replicaSec =
                static_cast<double>(c.fleet.replicas.size()) *
                r.makespan.value();
            if (r.controlPlane.enabled &&
                !r.controlPlane.trajectory.empty()) {
                minProv = maxProv =
                    r.controlPlane.trajectory[0].provisioned;
                for (const ScaleEvent &e : r.controlPlane.trajectory) {
                    minProv = std::min(minProv, e.provisioned);
                    maxProv = std::max(maxProv, e.provisioned);
                }
                replicaSec = r.controlPlane.replicaSeconds.value();
            }
            const double attainment =
                m.requests > 0
                    ? static_cast<double>(m.requests - m.sloViolations) /
                          static_cast<double>(m.requests)
                    : 0.0;
            row.insert(row.end(),
                       {fmtPercent(attainment),
                        fmt(static_cast<double>(m.cancelledRequests), 0),
                        fmt(static_cast<double>(m.wastedTokens), 0),
                        std::to_string(minProv) + ".." +
                            std::to_string(maxProv),
                        fmt(replicaSec, 1)});
        } else {
            std::string mb_per_req = "-", xfer_p95 = "-",
                        ttft_share = "-";
            if (r.transfer.transfers > 0) {
                mb_per_req = fmt(r.transfer.totalBytes.value() /
                                     static_cast<double>(
                                         r.transfer.transfers) /
                                     1e6,
                                 2);
                xfer_p95 = fmt(r.transfer.perTransfer.p95 * 1e3, 3);
                ttft_share = fmtPercent(r.transfer.meanTtftShare);
            }
            row.insert(row.end(), {fmt(m.queueing.p95, 3),
                                   fmt(r.load.requestImbalance, 3),
                                   fmt(r.load.tokenImbalance, 3),
                                   mb_per_req, xfer_p95, ttft_share});
        }
        t.addRow(row);
    };
    for (const FleetCase &c : sc.cases) {
        if (sc.routers.empty()) {
            addRow(c, {});
        } else {
            for (RouterPolicy router : sc.routers)
                addRow(c, router);
        }
        if (!quiet)
            fprintf(stderr, "  %s done\n", c.label.c_str());
    }
    ReportSection sec{"", std::move(t), {}};
    if (control)
        sec.lines.push_back(
            "\"replica-sec\": replica-seconds billed — the autoscaler's "
            "trajectory integral, or replicas x makespan for a static "
            "fleet.");
    rep.sections.push_back(std::move(sec));
    emitObsOutputs(oc, tracer ? &*tracer : nullptr,
                   timeline ? &*timeline : nullptr, rep);
    return rep;
}

// ------------------------------------------------- saturation search

/// Metrics of one saturation probe at @p rate, costed in @p costs —
/// the one store of this system kind, shared by every gallop and
/// bisection probe of every policy.
ServingMetrics
saturationPoint(const SaturationScenario &sc,
                const std::shared_ptr<StepCostStore> &costs,
                SchedulerPolicy policy, double rate)
{
    return servePoint(costs, sc.trace, sc.engine, policy, rate,
                      EngineObservers{}, nullptr)
        .metrics;
}

/// Highest rate in [startRate, maxRate] sustaining the SLO fraction:
/// geometric gallop up from startRate, then bisect the knee. @p at_knee
/// gets the metrics of the last passing probe — the returned rate's —
/// or of the failing startRate probe when the result is 0.
double
saturationRate(const SaturationScenario &sc,
               const std::shared_ptr<StepCostStore> &costs,
               SchedulerPolicy policy, ServingMetrics &at_knee)
{
    double lo = sc.startRate;
    at_knee = saturationPoint(sc, costs, policy, lo);
    if (!sustainsSlo(at_knee, sc.sloFraction))
        return 0.0;
    auto passes = [&](double rate) {
        ServingMetrics m = saturationPoint(sc, costs, policy, rate);
        if (!sustainsSlo(m, sc.sloFraction))
            return false;
        at_knee = std::move(m);
        return true;
    };
    double hi = lo;
    while (hi < sc.maxRate) {
        // Clamp the gallop so no probe (and no reported rate) ever
        // exceeds the configured search ceiling.
        hi = std::min(hi * 2.0, sc.maxRate);
        if (!passes(hi))
            break;
        lo = hi;
    }
    for (int i = 0; i < sc.bisectSteps; ++i) {
        double mid = 0.5 * (lo + hi);
        if (passes(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

ScenarioReport
runSaturation(const Scenario &scenario, bool quiet)
{
    const auto &sc = std::get<SaturationScenario>(scenario.spec);
    ScenarioReport rep;
    Table t({"system", "policy", "saturation req/s", "tok/s",
             "TTFT p95", "TPOT p95"});
    double gpu_fcfs_rate = 0.0;
    StepCostStores stores(sc.model);
    for (SystemKind kind : sc.systems) {
        // Probes run on one GPU, Blocked unless the engine sets a mode.
        std::shared_ptr<StepCostStore> costs =
            stores.get(kind, /*nGpus=*/1, sc.engine.executionMode);
        for (SchedulerPolicy policy : sc.policies) {
            ServingMetrics knee;
            double rate = saturationRate(sc, costs, policy, knee);
            if (kind == SystemKind::GPU &&
                policy == SchedulerPolicy::FCFS)
                gpu_fcfs_rate = rate;
            t.addRow({systemName(kind), policyName(policy),
                      fmt(rate, 2), fmt(knee.tokensPerSec.value(), 0),
                      fmt(knee.ttft.p95, 3), fmt(knee.tpot.p95, 4)});
        }
        if (!quiet)
            fprintf(stderr, "  %s done\n", systemName(kind).c_str());
    }
    ReportSection sec{"", std::move(t), {}};
    if (gpu_fcfs_rate > 0.0)
        sec.lines.push_back("(rates relative to GPU fcfs = 1.00x at " +
                            fmt(gpu_fcfs_rate, 2) + " req/s)");
    rep.sections.push_back(std::move(sec));
    return rep;
}

// ---------------------------------------------------- fleet planning

/// True if an n-replica homogeneous fleet of @p kind meets the SLO;
/// its metrics then go to @p passed.
bool
plannerMeetsSlo(const PlannerScenario &sc, StepCostStores &stores,
                SystemKind kind, size_t n, const std::vector<Request> &trace,
                ServingMetrics &passed)
{
    FleetConfig cfg = homogeneousFleet(kind, n, sc.engine);
    cfg.router = sc.router;
    FleetReport rep = Fleet(stores, cfg).run(trace);
    if (!sustainsSlo(rep.metrics, sc.sloFraction))
        return false;
    passed = std::move(rep.metrics);
    return true;
}

/// Smallest replica count in [1, maxReplicas] meeting the SLO, or 0.
/// @p at_min gets that fleet's metrics: every probe that passes sets
/// the upper bound, so the last one is the answer's.
size_t
plannerMinReplicas(const PlannerScenario &sc, StepCostStores &stores,
                   SystemKind kind, const std::vector<Request> &trace,
                   ServingMetrics &at_min)
{
    // Gallop to a passing upper bound, clamped to maxReplicas so the
    // ceiling itself is probed even when it is not a power of two,
    // then bisect the first passing count in (last failure, hi].
    size_t lo = 1, hi = 1;
    bool found = false;
    while (true) {
        if (plannerMeetsSlo(sc, stores, kind, hi, trace, at_min)) {
            found = true;
            break;
        }
        if (hi >= sc.maxReplicas)
            break;
        lo = hi + 1;
        hi = std::min(hi * 2, sc.maxReplicas);
    }
    if (!found)
        return 0;
    while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (plannerMeetsSlo(sc, stores, kind, mid, trace, at_min))
            hi = mid;
        else
            lo = mid + 1;
    }
    return hi;
}

ScenarioReport
runPlanner(const Scenario &scenario, bool quiet)
{
    const auto &sc = std::get<PlannerScenario>(scenario.spec);
    ScenarioReport rep;
    std::vector<Request> trace = generateTrace(sc.trace);
    // One store per system kind across every probe fleet.
    StepCostStores stores(sc.model);

    Table t({"system", "min replicas", "goodput", "TTFT p95",
             "vs Pimba"});
    size_t pimba_count = 0;
    std::vector<std::tuple<SystemKind, size_t, ServingMetrics>> results;
    for (SystemKind kind : sc.systems) {
        ServingMetrics m;
        size_t n = plannerMinReplicas(sc, stores, kind, trace, m);
        if (kind == SystemKind::PIMBA)
            pimba_count = n;
        results.emplace_back(kind, n, std::move(m));
        if (!quiet)
            fprintf(stderr, "  %s done\n", systemName(kind).c_str());
    }
    for (const auto &[kind, n, m] : results) {
        if (n == 0) {
            t.addRow({systemName(kind),
                      "> " + std::to_string(sc.maxReplicas), "-", "-",
                      "-"});
            continue;
        }
        t.addRow({systemName(kind), fmt(static_cast<double>(n), 0),
                  fmt(m.goodput.value(), 2), fmt(m.ttft.p95, 3),
                  pimba_count > 0
                      ? fmtRatio(static_cast<double>(n) /
                                 static_cast<double>(pimba_count))
                      : "-"});
    }
    ReportSection sec{"", std::move(t), {}};
    sec.lines.push_back(
        "\"vs Pimba\": replica-count ratio against the Pimba fleet — "
        "the devices one Pimba device replaces at equal SLO.");
    rep.sections.push_back(std::move(sec));
    return rep;
}

} // namespace

ScenarioReport
runScenario(const Scenario &sc, bool quiet)
{
    ScenarioReport rep;
    switch (sc.kind()) {
      case ScenarioKind::Step:
        rep = runStep(sc, quiet);
        break;
      case ScenarioKind::Serving:
        rep = runServing(sc, quiet);
        break;
      case ScenarioKind::Fleet:
        rep = runFleetStudy(sc, quiet);
        break;
      case ScenarioKind::Saturation:
        rep = runSaturation(sc, quiet);
        break;
      case ScenarioKind::Planner:
        rep = runPlanner(sc, quiet);
        break;
    }
    rep.title = sc.description.empty() ? sc.name : sc.description;
    return rep;
}

} // namespace pimba

#include "config/scenario.h"

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <limits>

namespace pimba {

std::string
scenarioKindName(ScenarioKind kind)
{
    switch (kind) {
      case ScenarioKind::Throughput: return "throughput";
      case ScenarioKind::Serving: return "serving";
      case ScenarioKind::Fleet: return "fleet";
      case ScenarioKind::Saturation: return "saturation";
      case ScenarioKind::Planner: return "planner";
      case ScenarioKind::ControlPlane: return "control";
    }
    return "unknown";
}

namespace {

[[noreturn]] void
failAt(const JsonValue &v, const std::string &msg)
{
    throw ConfigError(msg, v.line(), v.column());
}

std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    return out;
}

/// Reject members outside @p allowed so typos are caught, not ignored.
void
checkKeys(const JsonValue &obj,
          std::initializer_list<const char *> allowed)
{
    for (const auto &[key, value] : obj.members()) {
        bool ok = false;
        for (const char *name : allowed)
            if (key == name)
                ok = true;
        if (!ok) {
            std::string names;
            for (const char *name : allowed)
                names += std::string(names.empty() ? "" : ", ") + name;
            failAt(value, "unknown key \"" + key +
                              "\" (expected one of: " + names + ")");
        }
    }
}

double
getNumber(const JsonValue &obj, const char *key, double fallback)
{
    const JsonValue *v = obj.find(key);
    return v ? v->asNumber() : fallback;
}

int64_t
getInt(const JsonValue &obj, const char *key, int64_t fallback)
{
    const JsonValue *v = obj.find(key);
    return v ? v->asInt() : fallback;
}

/// Integer member destined for an unsigned config field: a negative
/// value must fail here, located — a static_cast would wrap it past
/// every downstream validator.
uint64_t
getUint(const JsonValue &obj, const char *key, uint64_t fallback)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    int64_t n = v->asInt();
    if (n < 0)
        failAt(*v, std::string("\"") + key +
                       "\" must be >= 0, got " + std::to_string(n));
    return static_cast<uint64_t>(n);
}

std::string
getString(const JsonValue &obj, const char *key,
          const std::string &fallback)
{
    const JsonValue *v = obj.find(key);
    return v ? v->asString() : fallback;
}

/// 32-bit seed member: values past 2^32 - 1 must fail here, located —
/// truncation would silently alias distinct seeds onto one stream.
uint32_t
getSeed(const JsonValue &obj, const char *key, uint32_t fallback)
{
    uint64_t n = getUint(obj, key, fallback);
    if (n > 0xFFFFFFFFull)
        failAt(*obj.find(key),
               std::string("\"") + key +
                   "\" must fit in 32 bits, got " + std::to_string(n));
    return static_cast<uint32_t>(n);
}

/// Integer member destined for an `int` field: values outside int's
/// range must fail here, located — a static_cast would silently wrap.
int
getInt32(const JsonValue &obj, const char *key, int fallback)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    int64_t n = v->asInt();
    if (n < std::numeric_limits<int>::min() ||
        n > std::numeric_limits<int>::max())
        failAt(*v, std::string("\"") + key + "\" is out of int range: " +
                       std::to_string(n));
    return static_cast<int>(n);
}

bool
getBool(const JsonValue &obj, const char *key, bool fallback)
{
    const JsonValue *v = obj.find(key);
    return v ? v->asBool() : fallback;
}

/// The optional "observability" block of serving and fleet scenarios
/// (docs/scenarios.md): telemetry switches, all off when absent.
ObservabilityConfig
parseObservability(const JsonValue &doc)
{
    ObservabilityConfig obs;
    const JsonValue *v = doc.find("observability");
    if (!v)
        return obs;
    if (!v->isObject())
        failAt(*v, "\"observability\" must be an object");
    checkKeys(*v, {"streamMetrics", "trace", "timeline",
                   "timelineFormat", "timelineInterval"});
    obs.streamMetrics = getBool(*v, "streamMetrics", false);
    obs.tracePath = getString(*v, "trace", "");
    obs.timelinePath = getString(*v, "timeline", "");
    if (const JsonValue *fmt = v->find("timelineFormat")) {
        std::string name = lowered(fmt->asString());
        if (name == "csv")
            obs.timelineFormat = TimelineFormat::Csv;
        else if (name == "json")
            obs.timelineFormat = TimelineFormat::Json;
        else
            failAt(*fmt, "unknown timeline format \"" + fmt->asString() +
                             "\" (expected csv, json)");
    }
    obs.timelineInterval =
        Seconds(getNumber(*v, "timelineInterval",
                          obs.timelineInterval.value()));
    if (obs.timelineInterval < Seconds(0.0))
        failAt(*v->find("timelineInterval"),
               "\"timelineInterval\" must be >= 0 seconds (0 samples "
               "every iteration)");
    return obs;
}

SystemKind
parseSystemKind(const JsonValue &v)
{
    std::string name = lowered(v.asString());
    if (name == "gpu")
        return SystemKind::GPU;
    if (name == "gpu+q" || name == "gpu_q")
        return SystemKind::GPU_Q;
    if (name == "gpu+pim" || name == "gpu_pim")
        return SystemKind::GPU_PIM;
    if (name == "pimba")
        return SystemKind::PIMBA;
    if (name == "neupims")
        return SystemKind::NEUPIMS;
    failAt(v, "unknown system \"" + v.asString() +
                  "\" (expected gpu, gpu+q, gpu+pim, pimba, neupims)");
}

std::vector<SystemKind>
parseSystems(const JsonValue &obj, const JsonValue &root)
{
    const JsonValue *v = obj.find("systems");
    if (!v)
        failAt(root, "missing required key \"systems\"");
    std::vector<SystemKind> out;
    for (const JsonValue &item : v->items())
        out.push_back(parseSystemKind(item));
    if (out.empty())
        failAt(*v, "\"systems\" must name at least one system");
    return out;
}

SchedulerPolicy
parsePolicy(const JsonValue &v)
{
    std::string name = lowered(v.asString());
    if (name == "fcfs")
        return SchedulerPolicy::FCFS;
    if (name == "sjf")
        return SchedulerPolicy::SJF;
    if (name == "sarathi")
        return SchedulerPolicy::Sarathi;
    failAt(v, "unknown scheduler policy \"" + v.asString() +
                  "\" (expected fcfs, sjf, sarathi)");
}

RouterPolicy
parseRouter(const JsonValue &v)
{
    std::string name = lowered(v.asString());
    if (name == "rr" || name == "round-robin")
        return RouterPolicy::RoundRobin;
    if (name == "jsq")
        return RouterPolicy::JoinShortestQueue;
    if (name == "lot")
        return RouterPolicy::LeastOutstandingTokens;
    if (name == "p2c")
        return RouterPolicy::PowerOfTwoChoices;
    if (name == "cache-affinity" || name == "cache")
        return RouterPolicy::CacheAffinity;
    failAt(v, "unknown router \"" + v.asString() +
                  "\" (expected rr, jsq, lot, p2c, cache-affinity)");
}

ExecutionMode
parseMode(const JsonValue &v)
{
    std::string name = lowered(v.asString());
    if (name == "blocked")
        return ExecutionMode::Blocked;
    if (name == "overlapped")
        return ExecutionMode::Overlapped;
    failAt(v, "unknown execution mode \"" + v.asString() +
                  "\" (expected blocked, overlapped)");
}

/// One model entry: a preset name or {"base", "scaleTo", "name"}.
ModelConfig
parseModelValue(const JsonValue &v)
{
    if (v.isString()) {
        try {
            return modelPreset(v.asString());
        } catch (const ConfigError &e) {
            failAt(v, e.what());
        }
    }
    if (!v.isObject())
        failAt(v, "expected a model name or object");
    checkKeys(v, {"base", "scaleTo", "name"});
    const JsonValue *base = v.find("base");
    if (!base)
        failAt(v, "a model object needs a \"base\" preset name");
    ModelConfig m;
    try {
        m = modelPreset(base->asString());
    } catch (const ConfigError &e) {
        failAt(*base, e.what());
    }
    if (const JsonValue *scale = v.find("scaleTo")) {
        std::string base_name = m.name;
        m = scaleModel(m, scale->asNumber());
        m.name = base_name; // keep the family name, as the figures do
    }
    m.name = getString(v, "name", m.name);
    return m;
}

ModelConfig
parseModel(const JsonValue &obj, const JsonValue &root)
{
    const JsonValue *v = obj.find("model");
    if (!v)
        failAt(root, "missing required key \"model\"");
    return parseModelValue(*v);
}

LengthDistribution
parseLengthDistribution(const JsonValue &v)
{
    std::string name = lowered(v.asString());
    if (name == "fixed")
        return LengthDistribution::Fixed;
    if (name == "uniform")
        return LengthDistribution::Uniform;
    failAt(v, "unknown length distribution \"" + v.asString() +
                  "\" (expected fixed, uniform)");
}

/**
 * @param allowReplayFile fleet scenarios may name a pimba-trace-v1
 *        replay file; the sweep kinds re-generate the trace per swept
 *        rate, so a fixed file would silently ignore the sweep variable
 *        — rejected up front instead.
 */
TraceConfig
parseTrace(const JsonValue &obj, const JsonValue &root,
           bool require = true, bool allowReplayFile = false)
{
    TraceConfig tc;
    const JsonValue *v = obj.find("trace");
    if (!v) {
        if (require)
            failAt(root, "missing required key \"trace\"");
        return tc;
    }
    checkKeys(*v, {"arrivals", "rate", "numRequests", "lengths",
                   "inputLen", "inputLenMax", "outputLen",
                   "outputLenMax", "seed", "diurnal", "mmpp", "classes",
                   "file"});
    if (const JsonValue *a = v->find("arrivals")) {
        std::string name = lowered(a->asString());
        if (name == "poisson")
            tc.arrivals = ArrivalProcess::Poisson;
        else if (name == "fixed")
            tc.arrivals = ArrivalProcess::Fixed;
        else if (name == "diurnal")
            tc.arrivals = ArrivalProcess::Diurnal;
        else if (name == "mmpp")
            tc.arrivals = ArrivalProcess::Mmpp;
        else
            failAt(*a, "unknown arrival process \"" + a->asString() +
                           "\" (expected poisson, fixed, diurnal, "
                           "mmpp)");
    }
    tc.ratePerSec = getNumber(*v, "rate", tc.ratePerSec);
    tc.numRequests = getInt32(*v, "numRequests", tc.numRequests);
    tc.inputLen = getUint(*v, "inputLen", tc.inputLen);
    tc.outputLen = getUint(*v, "outputLen", tc.outputLen);
    tc.inputLenMax = getUint(*v, "inputLenMax", 0);
    tc.outputLenMax = getUint(*v, "outputLenMax", 0);
    tc.seed = getSeed(*v, "seed", tc.seed);
    if (const JsonValue *l = v->find("lengths")) {
        tc.lengths = parseLengthDistribution(*l);
    } else if (tc.inputLenMax > 0 || tc.outputLenMax > 0) {
        tc.lengths = LengthDistribution::Uniform;
    }
    if (const JsonValue *d = v->find("diurnal")) {
        checkKeys(*d, {"periodSec", "peakToTrough"});
        tc.diurnal.period = Seconds(
            getNumber(*d, "periodSec", tc.diurnal.period.value()));
        tc.diurnal.peakToTrough =
            getNumber(*d, "peakToTrough", tc.diurnal.peakToTrough);
    }
    if (const JsonValue *m = v->find("mmpp")) {
        checkKeys(*m, {"burstMultiplier", "burstMeanSec",
                       "idleMeanSec"});
        tc.mmpp.burstMultiplier = getNumber(*m, "burstMultiplier",
                                            tc.mmpp.burstMultiplier);
        tc.mmpp.burstMean = Seconds(
            getNumber(*m, "burstMeanSec", tc.mmpp.burstMean.value()));
        tc.mmpp.idleMean = Seconds(
            getNumber(*m, "idleMeanSec", tc.mmpp.idleMean.value()));
    }
    if (const JsonValue *cs = v->find("classes")) {
        for (const JsonValue &cv : cs->items()) {
            checkKeys(cv, {"name", "weight", "lengths", "inputLen",
                           "inputLenMax", "outputLen", "outputLenMax"});
            TraceClass c;
            c.name = getString(cv, "name", "");
            c.weight = getNumber(cv, "weight", c.weight);
            c.inputLen = getUint(cv, "inputLen", c.inputLen);
            c.outputLen = getUint(cv, "outputLen", c.outputLen);
            c.inputLenMax = getUint(cv, "inputLenMax", 0);
            c.outputLenMax = getUint(cv, "outputLenMax", 0);
            if (const JsonValue *l = cv.find("lengths"))
                c.lengths = parseLengthDistribution(*l);
            else if (c.inputLenMax > 0 || c.outputLenMax > 0)
                c.lengths = LengthDistribution::Uniform;
            tc.classes.push_back(std::move(c));
        }
        if (tc.classes.empty())
            failAt(*cs, "\"classes\" must hold at least one class "
                        "(omit the key for a single-class trace)");
    }
    if (const JsonValue *f = v->find("file")) {
        if (!allowReplayFile)
            failAt(*f, "\"file\" replay is supported for fleet "
                       "scenarios only (rate sweeps re-generate their "
                       "trace per swept rate)");
        tc.file = f->asString();
        if (tc.file.empty())
            failAt(*f, "\"file\" must name a pimba-trace-v1 file "
                       "(omit the key to generate the trace)");
        // For a replay numRequests is the prefix cap, not the trace
        // size; left unset it means "all of the file", not the
        // generator's default 64.
        if (!v->find("numRequests"))
            tc.numRequests = 0;
    }
    if (std::string err = validateTraceConfig(tc); !err.empty())
        failAt(*v, err);
    return tc;
}

SloConfig
parseSlo(const JsonValue &obj, SloConfig fallback)
{
    const JsonValue *v = obj.find("slo");
    if (!v)
        return fallback;
    checkKeys(*v, {"ttft", "tpot"});
    SloConfig slo = fallback;
    slo.ttft = Seconds(getNumber(*v, "ttft", slo.ttft.value()));
    slo.tpot = Seconds(getNumber(*v, "tpot", slo.tpot.value()));
    return slo;
}

EngineConfig
parseEngine(const JsonValue &obj)
{
    EngineConfig ec;
    const JsonValue *v = obj.find("engine");
    if (!v)
        return ec;
    checkKeys(*v, {"maxBatch", "prefillChunk", "memoryBudget",
                   "blockTokens", "iterTokenBudget", "policy",
                   "executionMode", "slo"});
    ec.maxBatch = getInt32(*v, "maxBatch", ec.maxBatch);
    ec.prefillChunk =
        Tokens(getUint(*v, "prefillChunk", ec.prefillChunk.value()));
    ec.memoryBudget =
        Bytes(getNumber(*v, "memoryBudget", ec.memoryBudget.value()));
    ec.blockTokens =
        Tokens(getUint(*v, "blockTokens", ec.blockTokens.value()));
    ec.iterTokenBudget = Tokens(
        getUint(*v, "iterTokenBudget", ec.iterTokenBudget.value()));
    if (const JsonValue *p = v->find("policy"))
        ec.policy = parsePolicy(*p);
    if (const JsonValue *m = v->find("executionMode"))
        ec.executionMode = parseMode(*m);
    ec.slo = parseSlo(*v, ec.slo);
    if (std::string err = validateEngineConfig(ec); !err.empty())
        failAt(*v, err);
    return ec;
}

LinkConfig
parseLink(const JsonValue &v)
{
    if (v.isString()) {
        std::string name = lowered(v.asString());
        if (name == "nvlink")
            return nvlinkLink();
        if (name == "infiniband")
            return infinibandLink();
        failAt(v, "unknown link preset \"" + v.asString() +
                      "\" (expected nvlink, infiniband, or an object)");
    }
    checkKeys(v, {"name", "bandwidth", "efficiency", "setupLatency",
                  "energyPerBit"});
    LinkConfig link;
    link.name = getString(v, "name", link.name);
    link.bandwidth = BytesPerSecond(
        getNumber(v, "bandwidth", link.bandwidth.value()));
    link.efficiency = getNumber(v, "efficiency", link.efficiency);
    link.setupLatency = Seconds(
        getNumber(v, "setupLatency", link.setupLatency.value()));
    link.energyPerBit = getNumber(v, "energyPerBit", link.energyPerBit);
    return link;
}

std::vector<ReplicaConfig>
parseReplicas(const JsonValue &v)
{
    std::vector<ReplicaConfig> out;
    for (const JsonValue &item : v.items()) {
        checkKeys(item, {"system", "count", "nGpus", "engine"});
        const JsonValue *sys = item.find("system");
        if (!sys)
            failAt(item, "a replica entry needs a \"system\"");
        ReplicaConfig rc;
        rc.kind = parseSystemKind(*sys);
        rc.nGpus = getInt32(item, "nGpus", rc.nGpus);
        rc.engine = parseEngine(item);
        int64_t count = getInt(item, "count", 1);
        if (count < 1 || count > (1 << 16))
            failAt(item, "replica \"count\" must be in [1, 65536], "
                         "got " +
                             std::to_string(count));
        for (int64_t i = 0; i < count; ++i)
            out.push_back(rc);
    }
    return out;
}

/// The per-fleet "controlPlane" block (docs/control-plane.md): the
/// autoscaler knobs plus per-class synthetic prefix lengths. The
/// priority/deadline arrays live beside it at the fleet level
/// ("priorities", "deadlines") since they are per request class, not
/// autoscaler policy.
void
parseControlPlane(const JsonValue &v, ControlPlaneConfig &cp)
{
    checkKeys(v, {"enabled", "minReplicas", "maxReplicas",
                  "initialReplicas", "intervalSec", "scaleUpQueueDepth",
                  "scaleDownQueueDepth", "scaleUpWaitSec", "warmupSec",
                  "prefixTokens"});
    AutoscalerConfig &as = cp.autoscaler;
    as.enabled = getBool(v, "enabled", as.enabled);
    as.minReplicas =
        static_cast<size_t>(getUint(v, "minReplicas", as.minReplicas));
    as.maxReplicas =
        static_cast<size_t>(getUint(v, "maxReplicas", as.maxReplicas));
    as.initialReplicas = static_cast<size_t>(
        getUint(v, "initialReplicas", as.initialReplicas));
    as.interval =
        Seconds(getNumber(v, "intervalSec", as.interval.value()));
    as.scaleUpQueueDepth =
        getNumber(v, "scaleUpQueueDepth", as.scaleUpQueueDepth);
    as.scaleDownQueueDepth =
        getNumber(v, "scaleDownQueueDepth", as.scaleDownQueueDepth);
    as.scaleUpWait =
        Seconds(getNumber(v, "scaleUpWaitSec", as.scaleUpWait.value()));
    as.warmup = Seconds(getNumber(v, "warmupSec", as.warmup.value()));
    if (const JsonValue *pt = v.find("prefixTokens"))
        for (const JsonValue &item : pt->items()) {
            int64_t n = item.asInt();
            if (n < 0)
                failAt(item, "\"prefixTokens\" entries must be >= 0 "
                             "tokens (0 = no shared prefix)");
            cp.prefixTokensByClass.push_back(
                static_cast<uint64_t>(n));
        }
}

FleetConfig
parseFleetConfig(const JsonValue &v)
{
    checkKeys(v, {"label", "router", "routerSeed", "mode",
                  "prefillReplicas", "link", "slo", "replicas",
                  "controlPlane", "priorities", "deadlines"});
    FleetConfig cfg;
    const JsonValue *reps = v.find("replicas");
    if (!reps)
        failAt(v, "a fleet needs a \"replicas\" array");
    cfg.replicas = parseReplicas(*reps);
    if (const JsonValue *r = v.find("router"))
        cfg.router = parseRouter(*r);
    cfg.routerSeed = getSeed(v, "routerSeed", cfg.routerSeed);
    if (const JsonValue *cp = v.find("controlPlane"))
        parseControlPlane(*cp, cfg.controlPlane);
    if (const JsonValue *p = v.find("priorities"))
        for (const JsonValue &item : p->items()) {
            int64_t tier = item.asInt();
            if (tier < 0 || tier > 255)
                failAt(item, "\"priorities\" tiers must be in "
                             "[0, 255], got " +
                                 std::to_string(tier));
            cfg.controlPlane.tierByClass.push_back(
                static_cast<int>(tier));
        }
    if (const JsonValue *ds = v.find("deadlines"))
        for (const JsonValue &item : ds->items()) {
            checkKeys(item, {"ttftSec", "totalSec"});
            ClassDeadline d;
            d.ttft = Seconds(getNumber(item, "ttftSec", d.ttft.value()));
            d.total =
                Seconds(getNumber(item, "totalSec", d.total.value()));
            cfg.controlPlane.deadlines.push_back(d);
        }
    if (const JsonValue *m = v.find("mode")) {
        std::string name = lowered(m->asString());
        if (name == "colocated")
            cfg.mode = FleetMode::Colocated;
        else if (name == "disaggregated")
            cfg.mode = FleetMode::Disaggregated;
        else
            failAt(*m, "unknown fleet mode \"" + m->asString() +
                           "\" (expected colocated, disaggregated)");
    }
    cfg.prefillReplicas = static_cast<size_t>(
        getUint(v, "prefillReplicas", cfg.prefillReplicas));
    if (const JsonValue *l = v.find("link"))
        cfg.link = parseLink(*l);
    cfg.slo = parseSlo(v, cfg.slo);
    if (std::string err = validateFleetConfig(cfg); !err.empty())
        failAt(v, err);
    return cfg;
}

GpuConfig
parseGpuPreset(const JsonValue &v, HbmConfig &hbm)
{
    std::string name = lowered(v.asString());
    if (name == "a100") {
        hbm = hbm2eConfig();
        return a100Config();
    }
    if (name == "h100") {
        hbm = hbm3Config();
        return h100Config();
    }
    failAt(v, "unknown GPU preset \"" + v.asString() +
                  "\" (expected a100, h100)");
}

std::vector<ModelConfig>
parseModelList(const JsonValue &v)
{
    std::vector<ModelConfig> out;
    for (const JsonValue &item : v.items())
        out.push_back(parseModelValue(item));
    return out;
}

ThroughputScenario
parseThroughput(const JsonValue &root)
{
    ThroughputScenario ts;
    ts.systems = parseSystems(root, root);
    ts.inputLen = getUint(root, "inputLen", ts.inputLen);
    ts.outputLen = getUint(root, "outputLen", ts.outputLen);
    if (const JsonValue *m = root.find("executionMode"))
        ts.executionMode = parseMode(*m);
    const JsonValue *grids = root.find("grids");
    if (!grids)
        failAt(root, "a throughput scenario needs a \"grids\" array");
    for (const JsonValue &g : grids->items()) {
        checkKeys(g, {"label", "gpu", "nGpus", "models", "batches"});
        ThroughputGrid grid;
        grid.label = getString(g, "label", "");
        grid.hbm = hbm2eConfig();
        grid.gpu = a100Config();
        if (const JsonValue *gpu = g.find("gpu"))
            grid.gpu = parseGpuPreset(*gpu, grid.hbm);
        grid.nGpus = getInt32(g, "nGpus", 1);
        if (grid.nGpus < 1)
            failAt(g, "\"nGpus\" must be >= 1, got " +
                          std::to_string(grid.nGpus));
        const JsonValue *models = g.find("models");
        if (!models)
            failAt(g, "a grid needs a \"models\" array");
        grid.models = parseModelList(*models);
        const JsonValue *batches = g.find("batches");
        if (!batches)
            failAt(g, "a grid needs a \"batches\" array");
        for (const JsonValue &b : batches->items()) {
            int64_t batch = b.asInt();
            if (batch < 1 || batch > (1 << 20))
                failAt(b, "batch sizes must be in [1, 1048576], got " +
                              std::to_string(batch));
            grid.batches.push_back(static_cast<int>(batch));
        }
        if (grid.models.empty() || grid.batches.empty())
            failAt(g, "a grid needs at least one model and one batch");
        ts.grids.push_back(std::move(grid));
    }
    if (ts.grids.empty())
        failAt(*grids, "\"grids\" must hold at least one grid");
    if (const JsonValue *sums = root.find("summaries")) {
        for (const JsonValue &s : sums->items()) {
            checkKeys(s, {"system", "versus", "note"});
            ThroughputSummary sum;
            if (const JsonValue *sys = s.find("system"))
                sum.system = parseSystemKind(*sys);
            if (const JsonValue *vs = s.find("versus"))
                sum.versus = parseSystemKind(*vs);
            sum.note = getString(s, "note", "");
            ts.summaries.push_back(std::move(sum));
        }
    }
    return ts;
}

ServingScenario
parseServing(const JsonValue &root)
{
    ServingScenario sc;
    sc.systems = parseSystems(root, root);
    sc.nGpus = getInt32(root, "nGpus", sc.nGpus);
    if (sc.nGpus < 1)
        failAt(root, "\"nGpus\" must be >= 1, got " +
                         std::to_string(sc.nGpus));
    if (const JsonValue *p = root.find("policies")) {
        sc.policies.clear();
        for (const JsonValue &item : p->items())
            sc.policies.push_back(parsePolicy(item));
        if (sc.policies.empty())
            failAt(*p, "\"policies\" must name at least one policy");
    }
    if (const JsonValue *m = root.find("modes")) {
        if (m->isString()) {
            if (lowered(m->asString()) != "auto")
                failAt(*m, "\"modes\" must be \"auto\" or an array of "
                           "mode names");
            sc.autoModes = true;
        } else {
            sc.modes.clear();
            for (const JsonValue &item : m->items())
                sc.modes.push_back(parseMode(item));
            if (sc.modes.empty())
                failAt(*m, "\"modes\" must name at least one mode");
        }
    }
    if (const JsonValue *r = root.find("rates")) {
        // Accepting both and silently preferring one would break the
        // schema's no-silent-behavior posture.
        if (const JsonValue *r1 = root.find("rate"))
            failAt(*r1, "\"rate\" and \"rates\" are mutually "
                        "exclusive — keep only one");
        for (const JsonValue &item : r->items()) {
            double rate = item.asNumber();
            if (!(rate > 0.0))
                failAt(item, "rates must be positive req/s");
            sc.rates.push_back(rate);
        }
        if (sc.rates.empty())
            failAt(*r, "\"rates\" must hold at least one rate");
    } else if (const JsonValue *r1 = root.find("rate")) {
        double rate = r1->asNumber();
        if (!(rate > 0.0))
            failAt(*r1, "\"rate\" must be positive req/s");
        sc.rates.push_back(rate);
    } else {
        failAt(root, "a serving scenario needs \"rates\" or \"rate\"");
    }
    sc.model = parseModel(root, root);
    sc.engine = parseEngine(root);
    sc.trace = parseTrace(root, root);
    if (std::string err =
            validateEngineAcrossPolicies(sc.engine, sc.policies);
        !err.empty()) {
        const JsonValue *ev = root.find("engine");
        failAt(ev ? *ev : root, err);
    }
    return sc;
}

FleetScenario
parseFleet(const JsonValue &root)
{
    FleetScenario sc;
    sc.model = parseModel(root, root);
    sc.trace = parseTrace(root, root, /*require=*/true,
                          /*allowReplayFile=*/true);
    if (const JsonValue *r = root.find("routers")) {
        for (const JsonValue &item : r->items())
            sc.routers.push_back(parseRouter(item));
        if (sc.routers.empty())
            failAt(*r, "\"routers\" must name at least one router "
                       "(omit the key to use each fleet's own)");
    }
    if (const JsonValue *fleets = root.find("fleets")) {
        for (const JsonValue &f : fleets->items()) {
            FleetCase c;
            c.label = getString(f, "label",
                                "fleet " +
                                    std::to_string(sc.cases.size()));
            c.fleet = parseFleetConfig(f);
            sc.cases.push_back(std::move(c));
        }
    } else if (const JsonValue *fleet = root.find("fleet")) {
        FleetCase c;
        c.label = getString(*fleet, "label", "fleet");
        c.fleet = parseFleetConfig(*fleet);
        sc.cases.push_back(std::move(c));
    } else {
        failAt(root, "a fleet scenario needs \"fleet\" or \"fleets\"");
    }
    if (sc.cases.empty())
        failAt(root, "\"fleets\" must hold at least one fleet");
    return sc;
}

SaturationScenario
parseSaturation(const JsonValue &root)
{
    SaturationScenario sc;
    sc.systems = parseSystems(root, root);
    if (const JsonValue *p = root.find("policies")) {
        sc.policies.clear();
        for (const JsonValue &item : p->items())
            sc.policies.push_back(parsePolicy(item));
        if (sc.policies.empty())
            failAt(*p, "\"policies\" must name at least one policy");
    }
    sc.model = parseModel(root, root);
    sc.engine = parseEngine(root);
    sc.trace = parseTrace(root, root);
    if (std::string err =
            validateEngineAcrossPolicies(sc.engine, sc.policies);
        !err.empty()) {
        const JsonValue *ev = root.find("engine");
        failAt(ev ? *ev : root, err);
    }
    sc.startRate = getNumber(root, "startRate", sc.startRate);
    sc.maxRate = getNumber(root, "maxRate", sc.maxRate);
    sc.bisectSteps = getInt32(root, "bisectSteps", sc.bisectSteps);
    sc.sloFraction = getNumber(root, "sloFraction", sc.sloFraction);
    if (!(sc.startRate > 0.0) || sc.maxRate < sc.startRate)
        failAt(root, "saturation search needs 0 < startRate <= "
                     "maxRate");
    if (sc.bisectSteps < 0)
        failAt(root, "\"bisectSteps\" must be >= 0");
    if (!(sc.sloFraction > 0.0) || sc.sloFraction > 1.0)
        failAt(root, "\"sloFraction\" must be in (0, 1]");
    return sc;
}

PlannerScenario
parsePlanner(const JsonValue &root)
{
    PlannerScenario sc;
    sc.systems = parseSystems(root, root);
    sc.model = parseModel(root, root);
    sc.engine = parseEngine(root);
    sc.trace = parseTrace(root, root);
    if (const JsonValue *r = root.find("router"))
        sc.router = parseRouter(*r);
    sc.sloFraction = getNumber(root, "sloFraction", sc.sloFraction);
    int64_t max_replicas = getInt(
        root, "maxReplicas", static_cast<int64_t>(sc.maxReplicas));
    if (max_replicas < 1)
        failAt(root, "\"maxReplicas\" must be >= 1");
    sc.maxReplicas = static_cast<size_t>(max_replicas);
    if (!(sc.sloFraction > 0.0) || sc.sloFraction > 1.0)
        failAt(root, "\"sloFraction\" must be in (0, 1]");
    return sc;
}

} // namespace

std::string
validateEngineAcrossPolicies(const EngineConfig &engine,
                             const std::vector<SchedulerPolicy> &policies)
{
    for (SchedulerPolicy policy : policies) {
        EngineConfig ec = engine;
        ec.policy = policy;
        if (std::string err = validateEngineConfig(ec); !err.empty())
            return err + " (with policy " + policyName(policy) + ")";
    }
    return "";
}

ModelConfig
modelPreset(const std::string &name)
{
    std::string key = lowered(name);
    if (key == "retnet-2.7b")
        return retnet2p7b();
    if (key == "gla-2.7b")
        return gla2p7b();
    if (key == "hgrn2-2.7b")
        return hgrn2_2p7b();
    if (key == "mamba2-2.7b")
        return mamba2_2p7b();
    if (key == "zamba2-7b")
        return zamba2_7b();
    if (key == "opt-7b")
        return opt7b();
    if (key == "opt-2.7b")
        return opt2p7b();
    throw ConfigError(
        "unknown model preset \"" + name +
        "\" (expected retnet-2.7b, gla-2.7b, hgrn2-2.7b, mamba2-2.7b, "
        "zamba2-7b, opt-7b, opt-2.7b)");
}

Scenario
parseScenario(const JsonValue &root, bool smoke)
{
    if (!root.isObject())
        failAt(root, "a scenario must be a JSON object");
    JsonValue doc = root;
    if (smoke) {
        if (const JsonValue *overlay = root.find("smoke"))
            doc = mergeJson(root, *overlay);
    }
    // The merged document still carries the "smoke" member; it is an
    // allowed (and already consumed) key for every kind.
    static const std::initializer_list<const char *> kByKind[] = {
        /* throughput */
        {"name", "description", "kind", "smoke", "systems", "inputLen",
         "outputLen", "executionMode", "grids", "summaries"},
        /* serving */
        {"name", "description", "kind", "smoke", "systems", "nGpus",
         "policies", "modes", "rates", "rate", "model", "engine",
         "trace", "observability"},
        /* fleet */
        {"name", "description", "kind", "smoke", "model", "trace",
         "routers", "fleet", "fleets", "observability"},
        /* saturation */
        {"name", "description", "kind", "smoke", "systems", "policies",
         "model", "engine", "trace", "startRate", "maxRate",
         "bisectSteps", "sloFraction"},
        /* planner */
        {"name", "description", "kind", "smoke", "systems", "model",
         "engine", "trace", "router", "sloFraction", "maxReplicas"},
        /* control (fleet schema; control-plane keys live per fleet) */
        {"name", "description", "kind", "smoke", "model", "trace",
         "routers", "fleet", "fleets", "observability"},
    };

    Scenario sc;
    sc.name = getString(doc, "name", "scenario");
    sc.description = getString(doc, "description", "");
    const JsonValue *kind = doc.find("kind");
    if (!kind)
        failAt(doc, "missing required key \"kind\" (throughput, "
                    "serving, fleet, saturation, planner, control)");
    std::string kind_name = lowered(kind->asString());
    if (kind_name == "throughput")
        sc.kind = ScenarioKind::Throughput;
    else if (kind_name == "serving")
        sc.kind = ScenarioKind::Serving;
    else if (kind_name == "fleet")
        sc.kind = ScenarioKind::Fleet;
    else if (kind_name == "saturation")
        sc.kind = ScenarioKind::Saturation;
    else if (kind_name == "planner")
        sc.kind = ScenarioKind::Planner;
    else if (kind_name == "control")
        sc.kind = ScenarioKind::ControlPlane;
    else
        failAt(*kind, "unknown scenario kind \"" + kind->asString() +
                          "\" (expected throughput, serving, fleet, "
                          "saturation, planner, control)");
    checkKeys(doc, kByKind[static_cast<size_t>(sc.kind)]);
    switch (sc.kind) {
      case ScenarioKind::Throughput:
        sc.spec = parseThroughput(doc);
        break;
      case ScenarioKind::Serving:
        sc.spec = parseServing(doc);
        sc.obs = parseObservability(doc);
        break;
      case ScenarioKind::Fleet:
        sc.spec = parseFleet(doc);
        sc.obs = parseObservability(doc);
        break;
      case ScenarioKind::Saturation:
        sc.spec = parseSaturation(doc);
        break;
      case ScenarioKind::Planner:
        sc.spec = parsePlanner(doc);
        break;
      case ScenarioKind::ControlPlane:
        sc.spec = parseFleet(doc);
        sc.obs = parseObservability(doc);
        break;
    }
    return sc;
}

Scenario
parseScenarioText(const std::string &text, bool smoke)
{
    return parseScenario(parseJson(text), smoke);
}

Scenario
loadScenarioFile(const std::string &path, bool smoke)
{
    try {
        return parseScenario(loadJsonFile(path), smoke);
    } catch (const ConfigError &e) {
        throw ConfigError(path + ": " + e.what());
    }
}

} // namespace pimba

#include "config/scenario.h"

#include <algorithm>
#include <initializer_list>
#include <limits>

#include "serving/step_memo.h"

namespace pimba {

TraceConfig *
traceOf(Scenario &sc)
{
    return std::visit(
        [](auto &spec) -> TraceConfig * {
            if constexpr (requires { spec.trace; })
                return &spec.trace;
            else
                return nullptr;
        },
        sc.spec);
}

std::span<const StepColumn>
stepColumns(StepReport report)
{
    // The headers of the paper's Fig. 13 and Fig. 14 legends.
    static constexpr StepColumn kLatency[] = {
        {BreakdownKey::StateUpdate, "StateUpdate"},
        {BreakdownKey::Attention, "Attention"},
        {BreakdownKey::Discretization, "Discretization"},
        {BreakdownKey::CausalConv, "CausalConv"},
        {BreakdownKey::GEMM, "GEMM"},
        {BreakdownKey::Communication, "Communication"},
        {BreakdownKey::Others, "Others"},
    };
    static constexpr StepColumn kEnergy[] = {
        {BreakdownKey::StateUpdateIo, "SU I/O"},
        {BreakdownKey::StateUpdateCompute, "SU Comp"},
        {BreakdownKey::AttentionIo, "Attn I/O"},
        {BreakdownKey::AttentionCompute, "Attn Comp"},
        {BreakdownKey::GEMM, "GEMM"},
        {BreakdownKey::Others, "Others"},
    };
    switch (report) {
      case StepReport::Latency: return kLatency;
      case StepReport::Energy: return kEnergy;
      case StepReport::Throughput: break;
    }
    return {};
}

namespace {

constexpr Named<ModelConfig (*)()> kModelPresets[] = {
    {retnet2p7b, "retnet-2.7b"}, {gla2p7b, "gla-2.7b"},
    {hgrn2_2p7b, "hgrn2-2.7b"},  {mamba2_2p7b, "mamba2-2.7b"},
    {zamba2_7b, "zamba2-7b"},    {opt7b, "opt-7b"},
    {opt2p7b, "opt-2.7b"},
};

[[noreturn]] void
failAt(const JsonValue &v, const std::string &msg)
{
    throw ConfigError(msg, v.line(), v.column());
}

std::string
lowered(std::string s)
{
    std::ranges::transform(s, s.begin(), asciiLower);
    return s;
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

/// The value string @p v names in @p table (core/names.h); @p what
/// names the enum in the error.
template <class T, size_t N>
T
parseName(const JsonValue &v, const char *what, const Named<T> (&table)[N])
{
    if (std::optional<T> value = lookupName(table, v.asString()))
        return *value;
    failAt(v, std::string("unknown ") + what + " \"" + v.asString() +
                  "\" (expected " + nameList(table) + ")");
}

/// A non-empty array of names from @p table.
template <class T, size_t N>
std::vector<T>
parseNames(const JsonValue &v, const char *what, const Named<T> (&table)[N],
           const char *emptyError)
{
    std::vector<T> out;
    for (const JsonValue &item : v.items())
        out.push_back(parseName(item, what, table));
    if (out.empty())
        failAt(v, emptyError);
    return out;
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
    if (const JsonValue *fmt = v->find("timelineFormat"))
        obs.timelineFormat =
            parseName(*fmt, "timeline format", kTimelineFormatNames);
    obs.timelineInterval =
        Seconds(getNumber(*v, "timelineInterval",
                          obs.timelineInterval.value()));
    if (obs.timelineInterval < Seconds(0.0))
        failAt(*v->find("timelineInterval"),
               "\"timelineInterval\" must be >= 0 seconds (0 samples "
               "every iteration)");
    return obs;
}

std::vector<SystemKind>
parseSystems(const JsonValue &root)
{
    const JsonValue *v = root.find("systems");
    if (!v)
        failAt(root, "missing required key \"systems\"");
    return parseNames(*v, "system", kSystemNames,
                      "\"systems\" must name at least one system");
}

/// One model entry: a preset name or {"base", "scaleTo", "name"}.
ModelConfig
parseModelValue(const JsonValue &v)
{
    if (v.isString())
        return parseName(v, "model preset", kModelPresets)();
    if (!v.isObject())
        failAt(v, "expected a model name or object");
    checkKeys(v, {"base", "scaleTo", "name"});
    const JsonValue *base = v.find("base");
    if (!base)
        failAt(v, "a model object needs a \"base\" preset name");
    ModelConfig m = parseName(*base, "model preset", kModelPresets)();
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
    if (const JsonValue *a = v->find("arrivals"))
        tc.arrivals = parseName(*a, "arrival process", kArrivalProcessNames);
    tc.ratePerSec = getNumber(*v, "rate", tc.ratePerSec);
    tc.numRequests = getInt32(*v, "numRequests", tc.numRequests);
    tc.inputLen = getUint(*v, "inputLen", tc.inputLen);
    tc.outputLen = getUint(*v, "outputLen", tc.outputLen);
    tc.inputLenMax = getUint(*v, "inputLenMax", 0);
    tc.outputLenMax = getUint(*v, "outputLenMax", 0);
    tc.seed = getSeed(*v, "seed", tc.seed);
    if (const JsonValue *l = v->find("lengths")) {
        tc.lengths = parseName(*l, "length distribution",
                               kLengthDistributionNames);
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
                c.lengths = parseName(*l, "length distribution",
                                      kLengthDistributionNames);
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
        ec.policy = parseName(*p, "scheduler policy", kSchedulerPolicyNames);
    if (const JsonValue *m = v->find("executionMode"))
        ec.executionMode =
            parseName(*m, "execution mode", kExecutionModeNames);
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
        rc.kind = parseName(*sys, "system", kSystemNames);
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
        cfg.router = parseName(*r, "router", kRouterNames);
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
    if (const JsonValue *m = v.find("mode"))
        cfg.mode = parseName(*m, "fleet mode", kFleetModeNames);
    cfg.prefillReplicas = static_cast<size_t>(
        getUint(v, "prefillReplicas", cfg.prefillReplicas));
    if (const JsonValue *l = v.find("link"))
        cfg.link = parseLink(*l);
    cfg.slo = parseSlo(v, cfg.slo);
    if (std::string err = validateFleetConfig(cfg); !err.empty())
        failAt(v, err);
    return cfg;
}

/// A GPU preset and the HBM generation it pairs with.
GpuConfig
parseGpuPreset(const JsonValue &v, HbmConfig &hbm)
{
    using Preset = std::pair<GpuConfig (*)(), HbmConfig (*)()>;
    static constexpr Named<Preset> kPresets[] = {
        {{a100Config, hbm2eConfig}, "a100"},
        {{h100Config, hbm3Config}, "h100"},
    };
    auto [gpu, mem] = parseName(v, "GPU preset", kPresets);
    hbm = mem();
    return gpu();
}

std::vector<ModelConfig>
parseModelList(const JsonValue &v)
{
    std::vector<ModelConfig> out;
    for (const JsonValue &item : v.items())
        out.push_back(parseModelValue(item));
    return out;
}

/// A summary's breakdown category: one of @p report's columns.
BreakdownKey
parseCategory(const JsonValue &v, StepReport report)
{
    std::string name = lowered(v.asString());
    std::string names;
    for (const StepColumn &col : stepColumns(report)) {
        if (name == lowered(breakdownKeyName(col.key)))
            return col.key;
        names += std::string(names.empty() ? "" : ", ") +
                 breakdownKeyName(col.key);
    }
    if (names.empty())
        failAt(v, "a throughput report has no \"category\"");
    failAt(v, "unknown category \"" + v.asString() +
                  "\" for this report (expected one of: " + names + ")");
}

/// A summary's @p key system (@p fallback when absent): one of the
/// scenario's @p systems, or the summary would compare no cells.
SystemKind
parseSummarySystem(const JsonValue &summary, const char *key,
                   const std::vector<SystemKind> &systems,
                   SystemKind fallback)
{
    const JsonValue *v = summary.find(key);
    SystemKind kind = v ? parseName(*v, "system", kSystemNames) : fallback;
    if (std::ranges::count(systems, kind) > 0)
        return kind;
    std::string names;
    for (SystemKind s : systems)
        names += (names.empty() ? "" : ", ") + lowered(systemName(s));
    failAt(v ? *v : summary,
           std::string("summary \"") + key + "\" " +
               lowered(systemName(kind)) + (v ? "" : " (the default)") +
               " is not one of this scenario's systems (" + names + ")");
}

StepScenario
parseStep(const JsonValue &root)
{
    StepScenario st;
    st.systems = parseSystems(root);
    const JsonValue *pos = root.find("position");
    if (!pos)
        failAt(root, "a step scenario needs a \"position\" (the cache "
                     "position every step is costed at)");
    int64_t position = pos->asInt();
    if (position < 0 || static_cast<uint64_t>(position) > kMemoMaxPosition)
        failAt(*pos, "\"position\" must be in [0, " +
                         std::to_string(kMemoMaxPosition) + "], got " +
                         std::to_string(position));
    st.position = static_cast<uint64_t>(position);
    if (const JsonValue *m = root.find("executionMode"))
        st.executionMode =
            parseName(*m, "execution mode", kExecutionModeNames);
    if (const JsonValue *r = root.find("report"))
        st.report = parseName(*r, "report", kStepReportNames);
    const JsonValue *grids = root.find("grids");
    if (!grids)
        failAt(root, "a step scenario needs a \"grids\" array");
    for (const JsonValue &g : grids->items()) {
        checkKeys(g, {"label", "gpu", "nGpus", "models", "batches"});
        StepGrid grid;
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
        st.grids.push_back(std::move(grid));
    }
    if (st.grids.empty())
        failAt(*grids, "\"grids\" must hold at least one grid");
    if (const JsonValue *sums = root.find("summaries")) {
        for (const JsonValue &s : sums->items()) {
            checkKeys(s, {"system", "versus", "category", "batch", "note"});
            StepSummary sum;
            sum.system = parseSummarySystem(s, "system", st.systems,
                                            sum.system);
            sum.versus = parseSummarySystem(s, "versus", st.systems,
                                            sum.versus);
            if (const JsonValue *c = s.find("category"))
                sum.category = parseCategory(*c, st.report);
            if (const JsonValue *b = s.find("batch")) {
                int batch = getInt32(s, "batch", 0);
                auto holds = [&](const StepGrid &grid) {
                    return std::ranges::count(grid.batches, batch) > 0;
                };
                if (std::ranges::none_of(st.grids, holds))
                    failAt(*b, "no grid holds batch " +
                                   std::to_string(batch));
                sum.batch = batch;
            }
            sum.note = getString(s, "note", "");
            st.summaries.push_back(std::move(sum));
        }
    }
    return st;
}

ServingScenario
parseServing(const JsonValue &root)
{
    ServingScenario sc;
    sc.systems = parseSystems(root);
    sc.nGpus = getInt32(root, "nGpus", sc.nGpus);
    if (sc.nGpus < 1)
        failAt(root, "\"nGpus\" must be >= 1, got " +
                         std::to_string(sc.nGpus));
    if (const JsonValue *p = root.find("policies"))
        sc.policies =
            parseNames(*p, "scheduler policy", kSchedulerPolicyNames,
                       "\"policies\" must name at least one policy");
    if (const JsonValue *m = root.find("modes")) {
        if (m->isString()) {
            if (lowered(m->asString()) != "auto")
                failAt(*m, "\"modes\" must be \"auto\" or an array of "
                           "mode names");
            sc.autoModes = true;
        } else {
            sc.modes = parseNames(*m, "execution mode", kExecutionModeNames,
                                  "\"modes\" must name at least one mode");
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
    return sc;
}

FleetScenario
parseFleet(const JsonValue &root)
{
    FleetScenario sc;
    sc.model = parseModel(root, root);
    sc.trace = parseTrace(root, root, /*require=*/true,
                          /*allowReplayFile=*/true);
    if (const JsonValue *r = root.find("routers"))
        sc.routers = parseNames(*r, "router", kRouterNames,
                                "\"routers\" must name at least one "
                                "router (omit the key to use each "
                                "fleet's own)");
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
    sc.systems = parseSystems(root);
    if (const JsonValue *p = root.find("policies"))
        sc.policies =
            parseNames(*p, "scheduler policy", kSchedulerPolicyNames,
                       "\"policies\" must name at least one policy");
    sc.model = parseModel(root, root);
    sc.engine = parseEngine(root);
    sc.trace = parseTrace(root, root);
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
    sc.systems = parseSystems(root);
    sc.model = parseModel(root, root);
    sc.engine = parseEngine(root);
    sc.trace = parseTrace(root, root);
    if (const JsonValue *r = root.find("router"))
        sc.router = parseName(*r, "router", kRouterNames);
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

ModelConfig
modelPreset(const std::string &name)
{
    if (std::optional preset = lookupName(kModelPresets, name))
        return (*preset)();
    throw ConfigError("unknown model preset \"" + name + "\" (expected " +
                      nameList(kModelPresets) + ")");
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
        /* step */
        {"name", "description", "kind", "smoke", "systems", "position",
         "executionMode", "report", "grids", "summaries"},
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
    };

    Scenario sc;
    sc.name = getString(doc, "name", "scenario");
    sc.description = getString(doc, "description", "");
    const JsonValue *kind_value = doc.find("kind");
    if (!kind_value)
        failAt(doc, "missing required key \"kind\" (" +
                        nameList(kScenarioKindNames) + ")");
    ScenarioKind kind =
        parseName(*kind_value, "scenario kind", kScenarioKindNames);
    checkKeys(doc, kByKind[static_cast<size_t>(kind)]);
    switch (kind) {
      case ScenarioKind::Step:
        sc.spec = parseStep(doc);
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

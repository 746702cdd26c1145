/**
 * @file
 * Declarative scenario registry: a typed description of everything the
 * simulator stack can currently express — step-level throughput grids
 * (the paper's Fig. 12/16 shape), request-level serving runs over
 * synthetic traces, cluster fleets (router shootouts, colocated vs.
 * disaggregated pools, execution-mode mixes), saturation-point searches,
 * and fleet-capacity planning — loaded from JSON with located schema
 * errors. The checked-in studies are the JSON presets in scenarios/.
 *
 * Six scenario kinds:
 *
 *  - `throughput`: generationThroughput over grids of (model, batch),
 *    one column per system, normalized to the first system.
 *  - `serving`: one ServingEngine run per (system x policy x mode x
 *    rate) combination on a shared seeded trace.
 *  - `fleet`: one Fleet run per labelled fleet case (optionally
 *    expanded across a router list).
 *  - `saturation`: per (system x policy), bisect the highest Poisson
 *    rate that still meets the SLO-attainment fraction.
 *  - `planner`: per system, bisect the minimum replica count whose
 *    homogeneous fleet meets the SLO-attainment fraction.
 *  - `control`: fleet cases with the SLO-aware control plane enabled
 *    (autoscaling, priority tiers, deadlines, prefix affinity; see
 *    docs/control-plane.md) — same schema as `fleet` plus the
 *    per-fleet "controlPlane" / "priorities" / "deadlines" blocks,
 *    reported with cancellation and replica-second columns.
 *
 * A scenario file may carry a `"smoke"` member: a partial overlay
 * deep-merged over the document when the caller asks for smoke mode
 * (CI-sized runs), so the shrink is declared next to the full-size
 * experiment instead of hard-coded in harness binaries.
 *
 * Determinism contract: a Scenario is a pure value; running the same
 * scenario (same seeds included) always reproduces the same report,
 * byte for byte, at any sweep thread count.
 */

#ifndef PIMBA_CONFIG_SCENARIO_H
#define PIMBA_CONFIG_SCENARIO_H

#include <string>
#include <variant>
#include <vector>

#include "cluster/fleet.h"
#include "config/json.h"
#include "obs/observability.h"
#include "serving/trace.h"

namespace pimba {

/// The experiment shapes a scenario can describe.
enum class ScenarioKind
{
    Throughput, ///< step-level normalized-throughput grids (Fig. 12/16)
    Serving,    ///< request-level engine runs over a trace
    Fleet,      ///< multi-replica fleet cases on one trace
    Saturation, ///< highest SLO-sustaining Poisson rate per config
    Planner,    ///< minimum replica count per system at a target rate
    /// Control-plane fleet study (autoscaler / tiers / deadlines /
    /// prefix affinity). Shares FleetScenario as its spec type —
    /// appended at the enum's end so every existing kind keeps its
    /// parse-table index.
    ControlPlane,
};

/// Lower-case kind name ("throughput", "serving", ...).
std::string scenarioKindName(ScenarioKind kind);

/// One (platform, models, batches) grid of a throughput scenario.
struct ThroughputGrid
{
    std::string label;            ///< section heading in the report
    GpuConfig gpu;                ///< platform ("a100" / "h100")
    HbmConfig hbm;                ///< paired HBM generation
    int nGpus = 1;                ///< tensor-parallel degree
    std::vector<ModelConfig> models;
    std::vector<int> batches;
};

/// One summary line: mean/max ratio of @c system over @c versus across
/// every grid cell, with an optional paper-anchor note.
struct ThroughputSummary
{
    SystemKind system = SystemKind::PIMBA;
    SystemKind versus = SystemKind::GPU;
    std::string note; ///< appended in parentheses when non-empty
};

/// Fig. 12/16-shaped study: systems x models x batches, normalized.
struct ThroughputScenario
{
    /// Compared systems; the first is the normalization baseline.
    std::vector<SystemKind> systems;
    uint64_t inputLen = 2048;  ///< prompt length of the decode window
    uint64_t outputLen = 2048; ///< generated length of the decode window
    ExecutionMode executionMode = ExecutionMode::Blocked;
    std::vector<ThroughputGrid> grids;
    std::vector<ThroughputSummary> summaries;
};

/// Request-level engine study: systems x policies x modes x rates.
struct ServingScenario
{
    std::vector<SystemKind> systems;
    int nGpus = 1;
    std::vector<SchedulerPolicy> policies = {SchedulerPolicy::FCFS};
    /// Execution modes per row. When @c autoModes is set the list is
    /// ignored and each system runs blocked plus — if it has a PIM to
    /// overlap — overlapped.
    std::vector<ExecutionMode> modes = {ExecutionMode::Blocked};
    bool autoModes = false;
    std::vector<double> rates; ///< one engine run per rate (>= 1 entry)
    ModelConfig model;
    EngineConfig engine;
    /// Trace template; ratePerSec is overridden per swept rate.
    TraceConfig trace;
};

/// One labelled fleet configuration of a fleet scenario.
struct FleetCase
{
    std::string label;
    FleetConfig fleet;
};

/// Cluster study: every case (x router, when a router list is given)
/// serves the same trace.
struct FleetScenario
{
    ModelConfig model;
    TraceConfig trace;
    /// Non-empty: run every case once per listed router (shootouts).
    std::vector<RouterPolicy> routers;
    std::vector<FleetCase> cases; ///< >= 1
};

/// Saturation search: the highest rate sustaining the SLO fraction.
struct SaturationScenario
{
    std::vector<SystemKind> systems;
    std::vector<SchedulerPolicy> policies = {SchedulerPolicy::FCFS};
    ModelConfig model;
    EngineConfig engine;
    TraceConfig trace; ///< ratePerSec is the search variable, ignored
    double startRate = 0.5; ///< galloping starts here (must sustain)
    double maxRate = 512.0; ///< search ceiling
    int bisectSteps = 6;
    double sloFraction = 0.95; ///< required SLO-attainment fraction
};

/// Capacity planning: minimum replicas per system at the trace rate.
struct PlannerScenario
{
    std::vector<SystemKind> systems;
    ModelConfig model;
    EngineConfig engine;
    TraceConfig trace;
    RouterPolicy router = RouterPolicy::JoinShortestQueue;
    double sloFraction = 0.9;
    size_t maxReplicas = 32; ///< report "> max" beyond this
};

/// One fully-resolved experiment description.
struct Scenario
{
    std::string name;
    std::string description;
    ScenarioKind kind = ScenarioKind::Serving;
    std::variant<ThroughputScenario, ServingScenario, FleetScenario,
                 SaturationScenario, PlannerScenario>
        spec;
    /// Telemetry switches (serving and fleet kinds; all off by
    /// default). Parsed from the `"observability"` block, overridable
    /// by the pimba CLI's --trace/--timeline/--stream-metrics flags.
    ObservabilityConfig obs;
};

/**
 * Map a parsed JSON document onto a Scenario. Unknown keys, wrong
 * types, unknown enum names, and values rejected by the layer
 * validators (validateTraceConfig / validateEngineConfig /
 * validateFleetConfig) all raise ConfigError carrying the line/column
 * of the offending value.
 *
 * @param smoke apply the document's optional `"smoke"` overlay before
 *        mapping (deep merge: objects merge, scalars/arrays replace).
 */
Scenario parseScenario(const JsonValue &root, bool smoke = false);

/// parseScenario over in-memory JSON text (tests).
Scenario parseScenarioText(const std::string &text, bool smoke = false);

/// parseScenario over a JSON file.
Scenario loadScenarioFile(const std::string &path, bool smoke = false);

/**
 * Model-zoo lookup by preset name ("retnet-2.7b", "gla-2.7b",
 * "hgrn2-2.7b", "mamba2-2.7b", "zamba2-7b", "opt-7b", "opt-2.7b").
 * Throws ConfigError listing the valid names on a miss.
 */
ModelConfig modelPreset(const std::string &name);

/**
 * validateEngineConfig once per policy in @p policies. Serving and
 * saturation scenarios override EngineConfig::policy per run, so
 * policy-dependent bounds (the Sarathi memo limits) must be checked
 * against every policy the scenario will actually execute — not just
 * the one written inside the engine block. Returns the first failing
 * message, or the empty string.
 */
std::string
validateEngineAcrossPolicies(const EngineConfig &engine,
                             const std::vector<SchedulerPolicy> &policies);

} // namespace pimba

#endif // PIMBA_CONFIG_SCENARIO_H

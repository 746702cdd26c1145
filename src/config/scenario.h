/**
 * @file
 * Declarative scenario registry: a typed description of everything the
 * simulator stack can currently express — step-level grids (the
 * paper's Figs. 3, 12, 13, 14 and 16), request-level serving runs over
 * synthetic traces, cluster fleets (router shootouts, colocated vs.
 * disaggregated pools, execution-mode mixes), saturation-point searches,
 * and fleet-capacity planning — loaded from JSON with located schema
 * errors. The checked-in studies are the JSON presets in scenarios/.
 *
 * Five scenario kinds:
 *
 *  - `step`: one generationStep per (grid, model, batch, system) at a
 *    fixed cache position, reported as throughput (one column per
 *    system), or as the latency or energy breakdown (one row per
 *    system), normalized to the first system.
 *  - `serving`: one ServingEngine run per (system x policy x mode x
 *    rate) combination on a shared seeded trace.
 *  - `fleet`: one Fleet run per labelled fleet case (optionally
 *    expanded across a router list). A case may carry the SLO-aware
 *    control plane (autoscaling, priority tiers, deadlines, prefix
 *    affinity; see docs/control-plane.md) in its per-fleet
 *    "controlPlane" / "priorities" / "deadlines" blocks; a study with
 *    one on any case is reported with cancellation and replica-second
 *    columns.
 *  - `saturation`: per (system x policy), bisect the highest Poisson
 *    rate that still meets the SLO-attainment fraction.
 *  - `planner`: per system, bisect the minimum replica count whose
 *    homogeneous fleet meets the SLO-attainment fraction.
 *
 * Keys that name an enum value (systems, policies, routers, ...) read
 * the one name table beside that enum (core/names.h lists where each
 * lives): a name matches in any case and has exactly one spelling.
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

#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "cluster/fleet.h"
#include "config/json.h"
#include "core/names.h"
#include "core/stats.h"
#include "obs/observability.h"
#include "serving/trace.h"

namespace pimba {

/// The experiment shapes a scenario can describe.
enum class ScenarioKind
{
    Step,       ///< step-level grids (Figs. 3, 12, 13, 14, 16)
    Serving,    ///< request-level engine runs over a trace
    Fleet,      ///< multi-replica fleet cases on one trace
    Saturation, ///< highest SLO-sustaining Poisson rate per config
    Planner,    ///< minimum replica count per system at a target rate
};

inline constexpr Named<ScenarioKind> kScenarioKindNames[] = {
    {ScenarioKind::Step, "step"},
    {ScenarioKind::Serving, "serving"},
    {ScenarioKind::Fleet, "fleet"},
    {ScenarioKind::Saturation, "saturation"},
    {ScenarioKind::Planner, "planner"},
};

inline std::string
scenarioKindName(ScenarioKind kind)
{
    return std::string(nameOf(kScenarioKindNames, kind));
}

/// What a step scenario's tables print per grid cell.
enum class StepReport
{
    Throughput, ///< per (model, batch): each system's tokens/s
    Latency,    ///< per (model, batch, system): step latency breakdown
    Energy,     ///< per (model, batch, system): step energy breakdown
};

inline constexpr Named<StepReport> kStepReportNames[] = {
    {StepReport::Throughput, "throughput"},
    {StepReport::Latency, "latency"},
    {StepReport::Energy, "energy"},
};

/// One (platform, models, batches) grid of a step scenario.
struct StepGrid
{
    std::string label;            ///< section heading in the report
    GpuConfig gpu;                ///< platform ("a100" / "h100")
    HbmConfig hbm;                ///< paired HBM generation
    int nGpus = 1;                ///< tensor-parallel degree
    std::vector<ModelConfig> models;
    std::vector<int> batches;
};

/// One breakdown column of a latency or energy report.
struct StepColumn
{
    BreakdownKey key;
    const char *header;
};

/// The breakdown columns @p report prints, in order (none for the
/// throughput report). A summary's category must be one of them.
std::span<const StepColumn> stepColumns(StepReport report);

/// One summary line: mean/max advantage of @c system over @c versus
/// across the grid cells where both values are positive, with an
/// optional paper-anchor note. The value is tokens/s (throughput
/// report; ratio system/versus) or the step total or one @c category
/// of its breakdown (latency/energy reports; ratio versus/system).
struct StepSummary
{
    SystemKind system = SystemKind::PIMBA;
    SystemKind versus = SystemKind::GPU;
    std::optional<BreakdownKey> category;
    std::optional<int> batch; ///< only cells at this batch
    std::string note;         ///< appended in parentheses when non-empty
};

/// Step-level study (Figs. 3, 12, 13, 14, 16): every cell of every
/// grid is one generationStep(model, batch, position) per system.
struct StepScenario
{
    /// Compared systems; the first is the normalization baseline.
    std::vector<SystemKind> systems;
    uint64_t position = 0; ///< cache position every step is costed at
    ExecutionMode executionMode = ExecutionMode::Blocked;
    StepReport report = StepReport::Throughput;
    std::vector<StepGrid> grids;
    std::vector<StepSummary> summaries;
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
    /// Alternatives in ScenarioKind order: kind() is the index.
    std::variant<StepScenario, ServingScenario, FleetScenario,
                 SaturationScenario, PlannerScenario>
        spec;
    /// Telemetry switches (serving and fleet kinds; all off by
    /// default). Parsed from the `"observability"` block, overridable
    /// by the pimba CLI's --trace/--timeline/--stream-metrics flags.
    ObservabilityConfig obs;

    ScenarioKind kind() const
    {
        return static_cast<ScenarioKind>(spec.index());
    }
};

// kind() reads the variant index: pin the variant's order to the enum's.
template <ScenarioKind K, class Spec>
constexpr bool kSpecAt =
    std::is_same_v<std::variant_alternative_t<static_cast<size_t>(K),
                                              decltype(Scenario::spec)>,
                   Spec>;
static_assert(kSpecAt<ScenarioKind::Step, StepScenario> &&
              kSpecAt<ScenarioKind::Serving, ServingScenario> &&
              kSpecAt<ScenarioKind::Fleet, FleetScenario> &&
              kSpecAt<ScenarioKind::Saturation, SaturationScenario> &&
              kSpecAt<ScenarioKind::Planner, PlannerScenario> &&
              std::variant_size_v<decltype(Scenario::spec)> ==
                  std::extent_v<decltype(kScenarioKindNames)>);

/// The request trace @p sc carries, or null for the trace-free step
/// kind.
TraceConfig *traceOf(Scenario &sc);

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
 * Model-zoo lookup by preset name ("mamba2-2.7b", "opt-7b", ...; any
 * case). Throws ConfigError listing the valid names on a miss.
 */
ModelConfig modelPreset(const std::string &name);

} // namespace pimba

#endif // PIMBA_CONFIG_SCENARIO_H

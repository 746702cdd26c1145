/**
 * @file
 * Scenario execution: turn a declarative Scenario into the table/CSV
 * report `pimba run` prints.
 *
 * A ScenarioReport is a pure value — title, ordered sections, each an
 * optional table plus free-form note lines — rendered to aligned text
 * (renderText) or CSV (renderCsv). Running the same scenario always
 * yields the same report bytes; the sweep layer relies on this to give
 * its any-thread-count determinism guarantee.
 *
 * runServingPoint / runFleetCase are the two primitive executions the
 * higher-level kinds compose; they are exported so the round-trip tests
 * can pin "scenario run == equivalent hand-constructed run" exactly.
 */

#ifndef PIMBA_CONFIG_RUNNER_H
#define PIMBA_CONFIG_RUNNER_H

#include <optional>
#include <string>
#include <vector>

#include "config/scenario.h"
#include "core/table.h"

namespace pimba {

/// One titled block of a report: a table, note lines, or both.
struct ReportSection
{
    std::string heading; ///< omitted when empty
    std::optional<Table> table;
    std::vector<std::string> lines; ///< printed after the table
};

/// Full outcome of one scenario (or sweep) execution.
struct ScenarioReport
{
    std::string title;
    std::vector<ReportSection> sections;

    /// Aligned-table rendering, the `pimba run` stdout format.
    std::string renderText() const;
    /// CSV rendering; headings/notes become `#`-prefixed comments.
    std::string renderCsv() const;
};

/**
 * Execute @p sc and build its report. Progress for long grids goes to
 * stderr unless @p quiet (sweeps run points concurrently, where
 * unlabelled interleaved progress is noise); the returned report is a
 * pure function of the scenario either way.
 */
ScenarioReport runScenario(const Scenario &sc, bool quiet = false);

/**
 * One serving-engine run of a serving scenario: @p kind under
 * (@p policy, @p mode) at Poisson/fixed rate @p rate over the
 * scenario's seeded trace template, with @p eo attached to the engine
 * before the run. With @p sink, completions go to it and the report
 * keeps no per-request records (ServingEngine::begin()).
 */
ServingReport runServingPoint(const ServingScenario &sc,
                              SystemKind kind, SchedulerPolicy policy,
                              ExecutionMode mode, double rate,
                              const EngineObservers &eo = {},
                              CompletionSink *sink = nullptr);

/**
 * One fleet run of a fleet scenario, costing its steps in @p stores
 * (shared by every row of a fleet study), with @p fo attached to the
 * fleet before the run. @p router overrides the case's configured
 * router when set (router-shootout expansion). Arrivals stream straight
 * from the scenario's trace config (generator or replay file, never
 * materialized). With @p stream set it is the bounded-memory run
 * (Fleet::runStreamed): completions fold into @p stream, so peak memory
 * is independent of trace length — the shape million-request replays
 * need.
 */
FleetReport runFleetCase(StepCostStores &stores, const FleetScenario &sc,
                         const FleetCase &c,
                         std::optional<RouterPolicy> router = {},
                         const FleetObservers &fo = {},
                         StreamingMetrics *stream = nullptr);

} // namespace pimba

#endif // PIMBA_CONFIG_RUNNER_H

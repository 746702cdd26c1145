/**
 * @file
 * Observability configuration: which of the three telemetry surfaces
 * (event tracer, timeline sampler, streaming metrics) a run enables
 * and where file-emitting surfaces write. Carried on a Scenario
 * (parsed from the `"observability"` JSON block of serving and fleet
 * scenarios — docs/scenarios.md) and overridable from the pimba CLI
 * (`--trace`, `--timeline`, `--stream-metrics`).
 *
 * The default-constructed config disables everything; with it, runs
 * are byte-identical to a build without the observability layer (the
 * goldens in tests/golden/ pin this).
 */

#ifndef PIMBA_OBS_OBSERVABILITY_H
#define PIMBA_OBS_OBSERVABILITY_H

#include <string>

#include "core/names.h"
#include "core/units.h"

namespace pimba {

/// Timeline file format.
enum class TimelineFormat
{
    Csv,
    Json,
};

inline constexpr Named<TimelineFormat> kTimelineFormatNames[] = {
    {TimelineFormat::Csv, "csv"},
    {TimelineFormat::Json, "json"},
};

/// Per-run observability switches (all off by default).
struct ObservabilityConfig
{
    /// Derive the report's displayed metrics through the streaming
    /// sketch collectors instead of the exact sample-vector path.
    bool streamMetrics = false;
    /// Non-empty: write a Chrome trace-event JSON file here.
    std::string tracePath;
    /// Non-empty: write the sampled load timeline here.
    std::string timelinePath;
    TimelineFormat timelineFormat = TimelineFormat::Csv;
    /// Minimum simulated time between timeline samples per replica.
    Seconds timelineInterval{0.05};

    bool tracing() const { return !tracePath.empty(); }
    bool timelining() const { return !timelinePath.empty(); }
    bool enabled() const
    {
        return streamMetrics || tracing() || timelining();
    }
};

} // namespace pimba

#endif // PIMBA_OBS_OBSERVABILITY_H

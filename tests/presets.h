/**
 * @file
 * The checked-in scenario presets as test fixtures. A test that needs a
 * fleet, trace or open-loop shape loads it from the scenarios/ file that
 * defines it, so each shape has exactly one definition: the one
 * `pimba run` executes. everyNth() cuts a trace into the sub-traces a
 * round-robin pool deals its replicas.
 */

#ifndef PIMBA_TESTS_PRESETS_H
#define PIMBA_TESTS_PRESETS_H

#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "config/scenario.h"

namespace pimba {

/// The spec of preset @p file, e.g.
/// preset<FleetScenario>("cluster_routers.json"): full size, or with
/// @p smoke the CI-sized run of `pimba run --smoke`.
template <class Spec>
Spec
preset(const std::string &file, bool smoke = false)
{
    return std::get<Spec>(
        loadScenarioFile(std::string(PIMBA_SCENARIO_DIR) + "/" + file,
                         smoke)
            .spec);
}

/// The fleet of @p sc's case labelled @p label.
inline FleetConfig
presetCase(const FleetScenario &sc, const std::string &label)
{
    for (const FleetCase &c : sc.cases)
        if (c.label == label)
            return c.fleet;
    throw std::out_of_range("no fleet case \"" + label + "\"");
}

/// @p n Pimba replicas behind join-shortest-queue: the colocated fleet
/// of cluster_disaggregation.json ("colocated 4") at any size.
inline FleetConfig
pimbaJsqFleet(size_t n)
{
    FleetConfig fc = homogeneousFleet(SystemKind::PIMBA, n);
    fc.router = RouterPolicy::JoinShortestQueue;
    return fc;
}

/// @p sc's seeded trace at @p rate with @p n requests.
inline std::vector<Request>
presetTrace(const FleetScenario &sc, double rate, int n)
{
    TraceConfig tc = sc.trace;
    tc.ratePerSec = rate;
    tc.numRequests = n;
    return generateTrace(tc);
}

/// Requests i, i + n, i + 2n, ... of @p trace: what replica i of an
/// n-replica round-robin pool receives.
inline std::vector<Request>
everyNth(const std::vector<Request> &trace, size_t i, size_t n)
{
    std::vector<Request> out;
    for (size_t k = i; k < trace.size(); k += n)
        out.push_back(trace[k]);
    return out;
}

} // namespace pimba

#endif // PIMBA_TESTS_PRESETS_H

#include "config/sweep.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "core/logging.h"

namespace pimba {

namespace {

double
parseGridNumber(const std::string &token, const std::string &spec)
{
    try {
        size_t used = 0;
        double v = std::stod(token, &used);
        if (used != token.size())
            throw std::invalid_argument(token);
        return v;
    } catch (const std::exception &) {
        throw ConfigError("malformed grid value '" + token + "' in '" +
                          spec + "'");
    }
}

/// Stable value label for headings: integral values print without an
/// exponent ("3000000000", not "3e+09"), fractional ones as "%g".
std::string
gridValueLabel(double v)
{
    char buf[64];
    if (std::nearbyint(v) == v && std::abs(v) < 9.0e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

} // namespace

GridAxis
parseGridSpec(const std::string &spec)
{
    size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size())
        throw ConfigError("grid spec must look like param=1..32, "
                          "param=1..32:step, or param=1,2,4; got '" +
                          spec + "'");
    GridAxis axis;
    axis.param = spec.substr(0, eq);
    std::string rest = spec.substr(eq + 1);

    if (size_t dots = rest.find(".."); dots != std::string::npos) {
        std::string lo_tok = rest.substr(0, dots);
        std::string hi_tok = rest.substr(dots + 2);
        double step = 1.0;
        bool geometric = false;
        if (size_t colon = hi_tok.find(':');
            colon != std::string::npos) {
            std::string step_tok = hi_tok.substr(colon + 1);
            hi_tok = hi_tok.substr(0, colon);
            if (!step_tok.empty() &&
                (step_tok[0] == 'x' || step_tok[0] == 'X')) {
                geometric = true;
                step_tok = step_tok.substr(1);
            }
            step = parseGridNumber(step_tok, spec);
        }
        double lo = parseGridNumber(lo_tok, spec);
        double hi = parseGridNumber(hi_tok, spec);
        if (hi < lo)
            throw ConfigError("grid range is inverted in '" + spec +
                              "'");
        if (geometric ? step <= 1.0 : step <= 0.0)
            throw ConfigError(
                std::string("grid step must be ") +
                (geometric ? "> 1 (geometric)" : "positive") +
                " in '" + spec + "'");
        if (geometric && lo <= 0.0)
            throw ConfigError("a geometric grid needs a positive "
                              "lower bound in '" +
                              spec + "' (multiplying " +
                              gridValueLabel(lo) + " never advances)");
        // Half-step tolerance absorbs float drift at the top end.
        double tolerance = geometric ? hi * 1e-9 : step * 0.5;
        for (double v = lo; v <= hi + tolerance;
             v = geometric ? v * step : v + step)
            axis.values.push_back(std::min(v, hi));
    } else {
        size_t pos = 0;
        while (pos <= rest.size()) {
            size_t comma = rest.find(',', pos);
            std::string token =
                rest.substr(pos, comma == std::string::npos
                                     ? std::string::npos
                                     : comma - pos);
            axis.values.push_back(parseGridNumber(token, spec));
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }
    if (axis.values.empty())
        throw ConfigError("grid '" + spec + "' produced no values");
    return axis;
}

void
applyGridParam(Scenario &sc, const std::string &param, double value)
{
    auto integral = [&](const char *what) {
        double rounded = std::nearbyint(value);
        if (rounded != value || rounded < 1.0 ||
            rounded > 2147483647.0)
            throw ConfigError("grid parameter '" + param +
                              "' needs a positive int-range integer " +
                              what + ", got " + gridValueLabel(value));
        return static_cast<int64_t>(rounded);
    };
    auto inapplicable = [&] {
        return ConfigError("grid parameter '" + param +
                           "' does not apply to a " +
                           scenarioKindName(sc.kind()) + " scenario");
    };

    if (param == "rate") {
        if (!(value > 0.0))
            throw ConfigError("grid rate must be positive, got " +
                              gridValueLabel(value));
        if (auto *ss = std::get_if<ServingScenario>(&sc.spec)) {
            ss->rates = {value};
            ss->trace.ratePerSec = value;
        } else if (auto *fs = std::get_if<FleetScenario>(&sc.spec)) {
            fs->trace.ratePerSec = value;
        } else if (auto *ps = std::get_if<PlannerScenario>(&sc.spec)) {
            ps->trace.ratePerSec = value;
        } else {
            throw inapplicable();
        }
        return;
    }
    if (param == "requests") {
        int64_t n = integral("request count");
        TraceConfig *tc = traceOf(sc);
        if (!tc)
            throw inapplicable();
        tc->numRequests = static_cast<int>(n);
        return;
    }
    if (param == "seed") {
        // Seeds span the full uint32 range (0 included) — wider than
        // integral()'s int bounds, matching the JSON schema's getSeed.
        double rounded = std::nearbyint(value);
        if (rounded != value || rounded < 0.0 ||
            rounded > 4294967295.0)
            throw ConfigError("grid parameter 'seed' needs an integer "
                              "in [0, 4294967295], got " +
                              gridValueLabel(value));
        TraceConfig *tc = traceOf(sc);
        if (!tc)
            throw inapplicable();
        tc->seed = static_cast<uint32_t>(rounded);
        return;
    }
    if (param == "maxBatch") {
        int64_t batch = integral("batch cap");
        EngineConfig *engine = nullptr;
        if (auto *ss = std::get_if<ServingScenario>(&sc.spec))
            engine = &ss->engine;
        else if (auto *sat = std::get_if<SaturationScenario>(&sc.spec))
            engine = &sat->engine;
        else if (auto *ps = std::get_if<PlannerScenario>(&sc.spec))
            engine = &ps->engine;
        else
            throw inapplicable();
        engine->maxBatch = static_cast<int>(batch);
        // Re-validate here: a bad value must be a located grid error,
        // not a fatal abort inside a worker thread that discards the
        // whole sweep.
        if (std::string err = validateEngineConfig(*engine); !err.empty())
            throw ConfigError("grid maxBatch=" +
                              gridValueLabel(value) +
                              " makes the engine config invalid: " +
                              err);
        return;
    }
    if (param == "replicas") {
        int64_t n = integral("replica count");
        auto *fs = std::get_if<FleetScenario>(&sc.spec);
        if (!fs)
            throw ConfigError("grid parameter 'replicas' only applies "
                              "to fleet scenarios");
        for (FleetCase &c : fs->cases) {
            ReplicaConfig proto = c.fleet.replicas.front();
            c.fleet.replicas.assign(static_cast<size_t>(n), proto);
            // Surface an impossible resize (e.g. a disaggregated case
            // whose prefill pool no longer fits) as a located grid
            // error rather than a fatal abort on a worker thread.
            if (std::string err = validateFleetConfig(c.fleet);
                !err.empty())
                throw ConfigError("grid replicas=" +
                                  gridValueLabel(value) + " makes \"" +
                                  c.label + "\" invalid: " + err);
        }
        return;
    }
    throw ConfigError("unknown grid parameter '" + param +
                      "' (expected rate, requests, seed, maxBatch, "
                      "replicas)");
}

ScenarioReport
runSweep(const Scenario &sc, const GridAxis &axis, int threads)
{
    std::vector<Scenario> points;
    points.reserve(axis.values.size());
    bool stripped_files = false;
    for (double v : axis.values) {
        Scenario point = sc;
        applyGridParam(point, axis.param, v);
        // Every point would write the same trace/timeline path from
        // its own worker thread — drop the file surfaces rather than
        // let the points race on (and overwrite) one file. Streaming
        // metrics are per-point and deterministic, so they stay.
        if (point.obs.tracing() || point.obs.timelining()) {
            stripped_files = true;
            point.obs.tracePath.clear();
            point.obs.timelinePath.clear();
        }
        points.push_back(std::move(point));
    }
    if (stripped_files)
        PIMBA_WARN("sweep: trace/timeline files are disabled for swept "
                   "points (all points would write the same path); run "
                   "a single point with --trace/--timeline instead");

    size_t workers = threads >= 1
                         ? static_cast<size_t>(threads)
                         : std::max(1u,
                                    std::thread::hardware_concurrency());
    workers = std::min(workers, points.size());

    std::vector<ScenarioReport> results(points.size());
    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto work = [&]() {
        while (true) {
            size_t i = next.fetch_add(1);
            if (i >= points.size())
                return;
            try {
                // quiet: concurrent unlabelled progress is noise.
                results[i] = runScenario(points[i], /*quiet=*/true);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    if (workers <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (size_t i = 0; i < workers; ++i)
            pool.emplace_back(work);
        for (std::thread &t : pool)
            t.join();
    }
    if (first_error)
        std::rethrow_exception(first_error);

    // Merge in grid order: the report is a pure function of the
    // (scenario, axis) pair, independent of the worker count.
    ScenarioReport merged;
    merged.title = (sc.description.empty() ? sc.name : sc.description) +
                   " — sweep over " + axis.param;
    for (size_t i = 0; i < points.size(); ++i) {
        ReportSection marker;
        marker.heading =
            axis.param + " = " + gridValueLabel(axis.values[i]);
        merged.sections.push_back(std::move(marker));
        for (ReportSection &sec : results[i].sections)
            merged.sections.push_back(std::move(sec));
    }
    return merged;
}

} // namespace pimba

/**
 * @file
 * `pimba` — the scenario CLI. Runs declarative JSON experiment
 * descriptions (see docs/scenarios.md) through the scenario registry:
 *
 *     pimba run scenarios/fig12_throughput.json
 *     pimba run scenarios/serving_rate_sweep.json --smoke --csv
 *     pimba run scenarios/serving_rate_sweep.json --smoke \
 *         --trace trace.json --timeline load.csv --stream-metrics
 *     pimba sweep scenarios/policy_shootout.json --grid rate=1..32:x2
 *     pimba run scenarios/fleet_planner.json
 *     pimba trace scenarios/fleet_replay.json --requests 5000 --out a.trace
 *     pimba run scenarios/fleet_replay.json --trace-file a.trace
 *     pimba validate scenarios/cluster_routers.json
 *
 * `run` executes any scenario kind; `sweep` fans one grid axis across
 * a thread pool (same scenario + seed => byte-identical report at any
 * thread count); `trace` saves a scenario's arrival trace as a
 * pimba-trace-v1 file, which `run --trace-file` replays into a fleet;
 * `validate` parses and type-checks without running. `--requests n`
 * (run, trace) is the sweep's `requests` parameter, validated the same
 * way. Schema errors print as `file: line L, column C: message`.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "config/sweep.h"
#include "core/args.h"
#include "serving/trace_io.h"

using namespace pimba;

namespace {

void
printTopLevelHelp()
{
    fputs(
        "usage: pimba <command> <scenario.json> [options]\n"
        "\n"
        "Declarative scenario runner for the Pimba serving simulator.\n"
        "\n"
        "commands:\n"
        "  run       execute a scenario and print its report\n"
        "  sweep     run a scenario once per grid point, in parallel\n"
        "  trace     save a scenario's arrival trace as a "
        "pimba-trace-v1 file\n"
        "  validate  parse and type-check a scenario without running\n"
        "\n"
        "common options:\n"
        "  --smoke       apply the scenario's \"smoke\" overlay "
        "(CI-sized run)\n"
        "  --csv         emit CSV instead of aligned tables\n"
        "  --grid <p=v>  sweep axis, e.g. rate=1..32:x2 (sweep only)\n"
        "  --threads <n> sweep worker threads, 0 = all cores "
        "(sweep only)\n"
        "  --trace <f>   write a Perfetto/Chrome trace JSON "
        "(run only)\n"
        "  --timeline <f> write the sampled load timeline "
        "(run only)\n"
        "  --stream-metrics  streaming quantile-sketch metrics "
        "(run only)\n"
        "  --requests <n>    keep the trace's first n requests "
        "(run, trace)\n"
        "  --trace-file <f>  replay a pimba-trace-v1 file into a "
        "fleet (run only)\n"
        "  --help        this message, or per-command usage\n",
        stdout);
}

int
runCommand(const std::string &command, int argc, char **argv)
{
    std::string path, grid;
    bool smoke = false, csv = false;
    int threads = 1;
    std::string tracePath, timelinePath, traceFile;
    bool streamMetrics = false;
    double requests = 0;

    ArgParser args("pimba " + command,
                   command == "sweep"
                       ? "Run a scenario once per grid point across a "
                         "worker pool."
                       : command == "validate"
                             ? "Parse and type-check a scenario without "
                               "running it."
                             : "Execute a scenario and print its report.");
    args.positional("scenario.json", "scenario description to load",
                    &path);
    args.flag("--smoke", "apply the scenario's \"smoke\" overlay",
              &smoke);
    if (command != "validate")
        args.flag("--csv", "emit CSV instead of aligned tables", &csv);
    if (command == "sweep") {
        args.option("--grid", "param=spec",
                    "sweep axis (rate=1..32, rate=1..32:x2, "
                    "rate=1,2,4)",
                    &grid);
        args.option("--threads", "n",
                    "worker threads; 0 selects all cores", &threads);
    }
    if (command == "run") {
        args.option("--trace", "file",
                    "write a Chrome trace-event JSON (Perfetto) here",
                    &tracePath);
        args.option("--timeline", "file",
                    "write the sampled load timeline here (.json for "
                    "JSON, else CSV)",
                    &timelinePath);
        args.flag("--stream-metrics",
                  "derive report metrics through streaming quantile "
                  "sketches",
                  &streamMetrics);
        args.option("--requests", "n",
                    "keep only the first n requests of the trace",
                    &requests);
        args.option("--trace-file", "file",
                    "replay this pimba-trace-v1 file instead of the "
                    "scenario's own trace (fleet only; all of it unless "
                    "--requests caps it)",
                    &traceFile);
    }
    if (!args.parse(argc, argv))
        return args.exitCode();

    try {
        Scenario sc = loadScenarioFile(path, smoke);
        if (!traceFile.empty()) {
            auto *fs = std::get_if<FleetScenario>(&sc.spec);
            if (!fs)
                throw ConfigError("--trace-file needs a fleet scenario; " +
                                  path + " is a " +
                                  scenarioKindName(sc.kind()) +
                                  " scenario");
            fs->trace.file = traceFile;
            // The scenario's generation-side request count must not
            // silently truncate the substituted file.
            fs->trace.numRequests = 0;
        }
        if (args.given("--requests"))
            applyGridParam(sc, "requests", requests);
        // CLI observability flags override (or enable) the scenario's
        // "observability" block. Only the serving and fleet kinds run
        // engines to observe.
        if (!tracePath.empty())
            sc.obs.tracePath = tracePath;
        if (!timelinePath.empty()) {
            sc.obs.timelinePath = timelinePath;
            if (timelinePath.size() >= 5 &&
                timelinePath.compare(timelinePath.size() - 5, 5,
                                     ".json") == 0)
                sc.obs.timelineFormat = TimelineFormat::Json;
        }
        if (streamMetrics)
            sc.obs.streamMetrics = true;
        if (sc.obs.enabled() && sc.kind() != ScenarioKind::Serving &&
            sc.kind() != ScenarioKind::Fleet) {
            fprintf(stderr,
                    "pimba %s: observability applies to serving and "
                    "fleet scenarios; %s is a %s scenario\n",
                    command.c_str(), path.c_str(),
                    scenarioKindName(sc.kind()).c_str());
            return 1;
        }
        if (command == "validate") {
            // Check both the plain document and its smoke overlay — a
            // typo inside "smoke" must not survive validation only to
            // abort CI's --smoke run.
            loadScenarioFile(path, !smoke);
            printf("%s: ok (%s scenario \"%s\")\n", path.c_str(),
                   scenarioKindName(sc.kind()).c_str(), sc.name.c_str());
            return 0;
        }
        ScenarioReport rep;
        if (command == "sweep") {
            if (grid.empty()) {
                fprintf(stderr, "pimba sweep: --grid param=spec is "
                                "required (try --help)\n");
                return 1;
            }
            rep = runSweep(sc, parseGridSpec(grid), threads);
        } else {
            rep = runScenario(sc);
        }
        fputs(csv ? rep.renderCsv().c_str() : rep.renderText().c_str(),
              stdout);
        return 0;
    } catch (const ConfigError &e) {
        fprintf(stderr, "pimba %s: %s\n", command.c_str(), e.what());
        return 1;
    }
}

int
traceCommand(int argc, char **argv)
{
    std::string path, out;
    bool smoke = false;
    double requests = 0;

    ArgParser args("pimba trace",
                   "Generate a scenario's arrival trace and save it as "
                   "a pimba-trace-v1 file (docs/trace-format.md).");
    args.positional("scenario.json", "scenario whose trace to save",
                    &path);
    args.option("--out", "file",
                "write the pimba-trace-v1 file here (required)", &out);
    args.flag("--smoke", "apply the scenario's \"smoke\" overlay",
              &smoke);
    args.option("--requests", "n",
                "override the trace's request count", &requests);
    if (!args.parse(argc, argv))
        return args.exitCode();
    if (out.empty()) {
        fprintf(stderr,
                "pimba trace: --out <file> is required (try --help)\n");
        return 1;
    }

    try {
        Scenario sc = loadScenarioFile(path, smoke);
        TraceConfig *tc = traceOf(sc);
        if (!tc) {
            fprintf(stderr,
                    "pimba trace: %s is a %s scenario, which has no "
                    "request trace\n",
                    path.c_str(), scenarioKindName(sc.kind()).c_str());
            return 1;
        }
        if (!tc->file.empty()) {
            fprintf(stderr,
                    "pimba trace: %s already replays \"%s\" — saving "
                    "it again would only copy the file\n",
                    path.c_str(), tc->file.c_str());
            return 1;
        }
        if (args.given("--requests"))
            applyGridParam(sc, "requests", requests);
        std::vector<Request> trace = generateTrace(*tc);
        saveTrace(out, trace);
        printf("wrote %s (%zu requests, last arrival %.3fs)\n",
               out.c_str(), trace.size(),
               trace.empty() ? 0.0 : trace.back().arrival.value());
        return 0;
    } catch (const ConfigError &e) {
        fprintf(stderr, "pimba trace: %s\n", e.what());
        return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "-h") == 0) {
        printTopLevelHelp();
        return argc < 2 ? 1 : 0;
    }
    std::string command = argv[1];
    if (command == "trace")
        return traceCommand(argc - 1, argv + 1);
    if (command != "run" && command != "sweep" && command != "validate") {
        fprintf(stderr, "pimba: unknown command '%s' (try --help)\n",
                command.c_str());
        return 1;
    }
    return runCommand(command, argc - 1, argv + 1);
}

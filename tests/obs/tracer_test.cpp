/**
 * @file
 * Event-tracer tests: trace-event structure (metadata first, globally
 * monotonic timestamps, nested B/E lanes), the spill-and-merge order
 * of traces longer than one in-memory run, the renderer's text contract
 * (numbers as printf's %.9g, writeFile() streaming the exact bytes of
 * renderJson(), labels escaped into valid JSON), and the engine
 * integration — a traced run must emit the full request lifecycle and
 * phase lanes while leaving the simulated report bit-identical to an
 * untraced run (the zero-perturbation contract CI's trace-smoke job
 * re-checks on whole presets).
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bit_equal.h"
#include "config/json.h"
#include "config/runner.h"
#include "core/lfsr.h"
#include "obs/json_text.h"
#include "obs/tracer.h"
#include "serving/engine.h"
#include "serving/trace.h"

namespace pimba {
namespace {

/// Occurrences of @p needle in @p hay.
size_t
countOf(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST(Tracer, RenderEmitsMetadataFirstAndSortsEventsByTimestamp)
{
    Tracer t;
    // Record deliberately out of timestamp order.
    t.complete(1, kTraceIterTid, Seconds(0.002), Seconds(0.001), "late",
               "iteration");
    t.processName(1, "engine under test");
    t.threadName(1, kTraceIterTid, "iterations");
    t.complete(1, kTraceIterTid, Seconds(0.001), Seconds(0.001),
               "early", "iteration");
    EXPECT_EQ(t.eventCount(), 2u); // metadata not counted

    std::string json = t.renderJson();
    EXPECT_LT(json.find("process_name"), json.find("\"late\""));
    EXPECT_LT(json.find("thread_name"), json.find("\"late\""));
    // Sorted: the 1000 us event precedes the 2000 us one.
    EXPECT_LT(json.find("\"early\""), json.find("\"late\""));
}

TEST(Tracer, BeginEndInstantCounterRenderTheirPhases)
{
    Tracer t;
    t.begin(3, requestLane(7), Seconds(0.5), "req 7", "request",
            {{"input_len", 64.0}});
    t.instant(3, requestLane(7), Seconds(0.75), "admitted", "request");
    t.counter(3, Seconds(0.8), "queue depth", 5.0);
    t.end(3, requestLane(7), Seconds(1.0));

    std::string json = t.renderJson();
    EXPECT_EQ(countOf(json, "\"ph\":\"B\""), 1u);
    EXPECT_EQ(countOf(json, "\"ph\":\"E\""), 1u);
    EXPECT_EQ(countOf(json, "\"ph\":\"i\""), 1u);
    EXPECT_EQ(countOf(json, "\"ph\":\"C\""), 1u);
    // Instants carry thread scope; counters carry their value arg.
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":5"), std::string::npos);
    EXPECT_NE(json.find("\"input_len\":64"), std::string::npos);
}

TEST(Tracer, RequestLanesStayExactPastThirtyTwoBits)
{
    // pimba-trace-v1 ids are 64-bit; a 32-bit lane would wrap them
    // negative (or onto another request's lane).
    const uint64_t big = (uint64_t{1} << 31) + 5;
    const uint64_t huge = uint64_t{1} << 40;
    EXPECT_EQ(requestLane(big), int64_t{2147483753});
    EXPECT_EQ(requestLane(huge), int64_t{1099511627876});

    Tracer t;
    t.begin(3, requestLane(big), Seconds(0.5), "req big", "request");
    t.end(3, requestLane(big), Seconds(1.0));
    t.instant(3, requestLane(huge), Seconds(0.75), "admitted",
              "request");
    std::string json = t.renderJson();
    EXPECT_EQ(countOf(json, "\"tid\":2147483753,"), 2u);
    EXPECT_EQ(countOf(json, "\"tid\":1099511627876,"), 1u);
    EXPECT_EQ(countOf(json, "\"tid\":-"), 0u);
}

TEST(Tracer, SpilledRunsMergeIntoTheStableTimestampOrder)
{
    // More than three spilled runs, timestamps from a small set so
    // ties cross run boundaries, every event kind, and metadata
    // interleaved. Each event carries its insertion index ("E" cannot
    // carry args, so it is matched by position against the expected
    // order instead).
    struct Recorded
    {
        int tsMs;
        char ph;
        int64_t tid;
        double index;
    };
    std::vector<Recorded> recorded;
    Tracer t;
    Lfsr32 rng(0x5eedu);
    constexpr int kStamps = 16;
    constexpr int kLanes = 48;
    std::vector<int> laneClock(kLanes, 0), laneDepth(kLanes, 0);
    size_t metadataCount = 0;
    const size_t total = 3 * Tracer::kRunEvents + 5000;
    for (size_t i = 0; i < total; ++i) {
        const double idx = static_cast<double>(i);
        const uint32_t pick = rng.next() % 10;
        int tsMs = static_cast<int>(rng.next() % kStamps);
        const int lane = static_cast<int>(rng.next() % kLanes);
        const int64_t tid = requestLane(static_cast<uint64_t>(lane));
        if (pick < 4) {
            // A lane's B/E stream never goes back in time, so a stable
            // sort keeps it nested.
            if (rng.next() % 64 == 0 && laneClock[lane] + 1 < kStamps)
                ++laneClock[lane];
            tsMs = laneClock[lane];
            if (laneDepth[lane] > 0 && (pick < 2 || laneDepth[lane] > 3)) {
                t.end(2, tid, Seconds(tsMs * 1e-3));
                --laneDepth[lane];
                recorded.push_back({tsMs, 'E', tid, -1.0});
            } else {
                t.begin(2, tid, Seconds(tsMs * 1e-3), "span", "request",
                        {{"i", idx}, {"depth", 1.0 * laneDepth[lane]}});
                ++laneDepth[lane];
                recorded.push_back({tsMs, 'B', tid, idx});
            }
        } else if (pick < 7) {
            t.complete(1, kTraceIterTid, Seconds(tsMs * 1e-3),
                       Seconds(2e-4), "decode", "iteration",
                       {{"i", idx}, {"batch", 3.0}, {"tokens", 0.5}});
            recorded.push_back({tsMs, 'X', kTraceIterTid, idx});
        } else if (pick < 9) {
            t.instant(2, tid, Seconds(tsMs * 1e-3), "admitted", "request",
                      {{"i", idx}});
            recorded.push_back({tsMs, 'i', tid, idx});
        } else {
            t.counter(1, Seconds(tsMs * 1e-3), "queue depth", idx);
            recorded.push_back({tsMs, 'C', 0, idx});
        }
        if (i % 997 == 0) {
            t.threadName(2, tid, "req " + std::to_string(lane));
            ++metadataCount;
        }
        if (i % 20011 == 0) {
            t.processName(1, "engine " + std::to_string(i));
            ++metadataCount;
        }
    }
    for (int lane = 0; lane < kLanes; ++lane)
        for (; laneDepth[lane] > 0; --laneDepth[lane]) {
            const int64_t tid = requestLane(static_cast<uint64_t>(lane));
            t.end(2, tid, Seconds((kStamps - 1) * 1e-3));
            recorded.push_back({kStamps - 1, 'E', tid, -1.0});
        }
    ASSERT_EQ(t.eventCount(), recorded.size());

    std::vector<Recorded> expected = recorded;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Recorded &a, const Recorded &b) {
                         return a.tsMs < b.tsMs;
                     });

    const std::string json = t.renderJson();
    const JsonValue doc = parseJson(json);
    const std::vector<JsonValue> &events = doc.find("traceEvents")->items();
    ASSERT_EQ(events.size(), metadataCount + expected.size());
    for (size_t m = 0; m < metadataCount; ++m)
        ASSERT_EQ(events[m].find("ph")->asString(), "M") << "event " << m;
    std::map<int64_t, int> depth;
    for (size_t k = 0; k < expected.size(); ++k) {
        const JsonValue &e = events[metadataCount + k];
        const Recorded &want = expected[k];
        const std::string ph = e.find("ph")->asString();
        ASSERT_EQ(ph, std::string(1, want.ph)) << "event " << k;
        ASSERT_EQ(e.find("ts")->asNumber(), want.tsMs * 1e3)
            << "event " << k;
        ASSERT_EQ(e.find("tid")->asNumber(), static_cast<double>(want.tid))
            << "event " << k;
        if (want.ph != 'E') {
            const JsonValue &args = *e.find("args");
            const JsonValue *index =
                args.find(want.ph == 'C' ? "value" : "i");
            ASSERT_EQ(index->asNumber(), want.index) << "event " << k;
        }
        if (want.ph == 'B')
            ++depth[want.tid];
        if (want.ph == 'E') {
            ASSERT_GT(depth[want.tid]--, 0) << "unmatched E, event " << k;
        }
    }
    for (const auto &[tid, open] : depth)
        EXPECT_EQ(open, 0) << "lane " << tid;

    // Rendering reads the spill file without consuming it.
    EXPECT_TRUE(t.renderJson() == json);
    const std::string path = testing::TempDir() + "tracer_spill.json";
    ASSERT_TRUE(t.writeFile(path));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    EXPECT_TRUE(buf.str() == json) << "writeFile wrote " << buf.str().size()
                                   << " bytes, renderJson " << json.size();
}

/// printf("%.9g", v), the format every rendered number must match.
std::string
printf9g(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string
formatted(double v)
{
    std::string out;
    appendNumber(out, v);
    return out;
}

TEST(TraceText, NumbersMatchPrintfNineSignificantDigits)
{
    const double cases[] = {
        0.0, -0.0, 5e-324, 1e-7, 0.1, 1.0 / 3.0, 123456789.125,
        3.6e9, // one simulated hour in microseconds
        1e21, 42.0, -42.0, 999999999.0, 1e9, 123456789.0, 2.5e-5,
        -1.0 / 7.0, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity()};
    for (double v : cases)
        EXPECT_EQ(formatted(v), printf9g(v)) << "value " << v;

    // A seeded sweep over magnitudes, whole numbers (the integer fast
    // path) and their halves.
    Lfsr32 rng(0x9e3779b9u);
    for (int i = 0; i < 20000; ++i) {
        const double mant =
            rng.nextUnit() + rng.nextUnit() / 4294967296.0;
        const double v = std::ldexp(mant, static_cast<int>(rng.next() %
                                                          160) -
                                              80);
        const double whole = std::floor(v);
        for (double x : {v, -v, whole, whole + 0.5, -whole})
            ASSERT_EQ(formatted(x), printf9g(x)) << "value " << x;
    }
}

TEST(TraceText, EscapesQuotesBackslashesAndControlBytes)
{
    std::string out;
    // Includes an embedded NUL; DEL (0x7f) and above pass through.
    appendJsonEscaped(out, std::string("q\"b\\t\tn\nr\r\x01\x1f\x7f") +
                               std::string(1, '\0') + "z");
    EXPECT_EQ(out, "q\\\"b\\\\t\\tn\\nr\\r\\u0001\\u001f\x7f\\u0000z");
}

TEST(Tracer, WriteFileStreamsTheRenderedBytes)
{
    // Large enough to pass the flush buffer several times.
    Tracer t;
    t.processName(1, "engine \"one\"");
    for (int i = 0; i < 40000; ++i) {
        const int64_t lane = requestLane(static_cast<uint64_t>(i % 97));
        t.complete(1, kTraceIterTid, Seconds(1e-4 * (i % 1000)),
                   Seconds(1e-5), "decode", "iteration",
                   {{"batch", static_cast<double>(i % 13)}, {"decode_batch", 0.25 * i}});
        t.instant(1, lane, Seconds(3e-4 * (i % 777)), "admitted",
                  "request", {{"queueing", 1.0 / (i + 1)}});
        t.counter(1, Seconds(2e-4 * (i % 500)), "queue depth",
                  static_cast<double>(i));
    }
    const std::string json = t.renderJson();
    ASSERT_GT(json.size(), 3 * Tracer::kFlushBytes);

    const std::string path = testing::TempDir() + "tracer_stream.json";
    ASSERT_TRUE(t.writeFile(path));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_TRUE(buf.str() == json) << "writeFile wrote " << buf.str().size()
                                   << " bytes, renderJson " << json.size();
    std::remove(path.c_str());

    // An empty tracer renders (and writes) the bare document.
    Tracer empty;
    EXPECT_EQ(empty.renderJson(), "{\n\"displayTimeUnit\": \"ms\",\n"
                                  "\"traceEvents\": [\n\n]\n}\n");
    EXPECT_FALSE(empty.writeFile(testing::TempDir() +
                                 "no-such-dir/trace.json"));
}

TEST(TracerDeathTest, RejectsMoreThanThreeArgs)
{
    Tracer t;
    EXPECT_DEATH(t.instant(1, kTraceIterTid, Seconds(0.0), "crowded",
                           "request",
                           {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}}),
                 "trace event \"crowded\" has 4 args; an event holds at "
                 "most 3");
}

/// Records one event more than a run under a file-size cap well below
/// one run (but above the death message gtest captures in a file), so
/// the first spill's write fails.
void
spillUnderFileCap()
{
    std::signal(SIGXFSZ, SIG_IGN); // EFBIG instead of the signal
    const rlimit cap{64 << 10, 64 << 10};
    setrlimit(RLIMIT_FSIZE, &cap);
    Tracer t;
    for (size_t i = 0; i <= Tracer::kRunEvents; ++i)
        t.counter(1, Seconds(1e-3 * (i % 7)), "queue depth", 1.0);
}

TEST(TracerDeathTest, FailedSpillWriteIsFatal)
{
    EXPECT_EXIT(spillUnderFileCap(), testing::ExitedWithCode(1),
                "short write to the trace spill file");
}

/// Replace the first @p from in @p text with @p to.
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// RFC 4180 records of @p text: fields split at commas outside quotes,
/// records at CRLF or LF outside quotes, doubled quotes unescaped.
std::vector<std::vector<std::string>>
csvRecords(const std::string &text)
{
    std::vector<std::vector<std::string>> records;
    std::vector<std::string> fields(1);
    bool quoted = false;
    for (size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quoted) {
            if (c == '"' && i + 1 < text.size() && text[i + 1] == '"')
                fields.back().push_back(text[++i]);
            else if (c == '"')
                quoted = false;
            else
                fields.back().push_back(c);
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            fields.emplace_back();
        } else if (c == '\n') {
            records.push_back(std::move(fields));
            fields.assign(1, std::string());
        } else if (c != '\r') {
            fields.back().push_back(c);
        }
    }
    EXPECT_FALSE(quoted) << "unterminated quoted field";
    if (fields.size() > 1 || !fields[0].empty())
        records.push_back(std::move(fields));
    return records;
}

TEST(TracerScenario, ControlCharactersInLabelsStayValidJson)
{
    // A fleet label with a tab and a newline lands in every replica's
    // process name and timeline track label.
    std::string preset =
        readFile(std::string(PIMBA_SCENARIO_DIR) + "/cluster_routers.json");
    Scenario sc = parseScenarioText(
        replaced(preset, "\"label\": \"2x Pimba + 2x GPU\"",
                 "\"label\": \"a\\tb\\nc\""),
        /*smoke=*/true);
    sc.obs.tracePath = testing::TempDir() + "ctrl_label.trace.json";
    sc.obs.timelinePath = testing::TempDir() + "ctrl_label.timeline.json";
    sc.obs.timelineFormat = TimelineFormat::Json;
    runScenario(sc, /*quiet=*/true);

    // Every label string parses back to the exact label.
    auto labelsOf = [](const JsonValue &rows, const char *key) {
        std::vector<std::string> out;
        for (const JsonValue &row : rows.items()) {
            const JsonValue *v = row.find(key);
            if (v && v->isObject())
                v = v->find("name");
            if (v && v->isString())
                out.push_back(v->asString());
        }
        return out;
    };
    const char *label = "a\tb\nc";
    for (const std::string &path :
         {sc.obs.tracePath, sc.obs.timelinePath}) {
        const std::string text = readFile(path);
        std::remove(path.c_str());
        ASSERT_FALSE(text.empty()) << path;
        // The only raw control byte is the layout's own newline, which
        // never falls inside a label.
        for (char c : text)
            ASSERT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
                << path << " holds raw byte " << static_cast<int>(c);
        JsonValue doc;
        ASSERT_NO_THROW(doc = parseJson(text)) << path;
        const bool isTrace = path == sc.obs.tracePath;
        std::vector<std::string> labels =
            isTrace ? labelsOf(*doc.find("traceEvents"), "args")
                    : labelsOf(doc, "label");
        size_t withLabel = 0;
        for (const std::string &l : labels)
            withLabel += l.find(label) != std::string::npos;
        EXPECT_GE(withLabel, 4u) << path; // one per replica at least
    }

    // The CSV timeline quotes the label (RFC 4180), so a reader splits
    // every record into the header's 7 fields.
    sc.obs.timelinePath = testing::TempDir() + "ctrl_label.timeline.csv";
    sc.obs.timelineFormat = TimelineFormat::Csv;
    runScenario(sc, /*quiet=*/true);
    const std::string csv = readFile(sc.obs.timelinePath);
    std::remove(sc.obs.timelinePath.c_str());
    std::vector<std::vector<std::string>> records = csvRecords(csv);
    ASSERT_GT(records.size(), 1u);
    size_t withLabel = 0;
    for (const std::vector<std::string> &fields : records) {
        ASSERT_EQ(fields.size(), 7u) << "record " << fields[0];
        withLabel += fields[2].find(label) != std::string::npos;
    }
    EXPECT_GE(withLabel, 4u);
}

TraceConfig
tracedTrace()
{
    TraceConfig tc;
    tc.arrivals = ArrivalProcess::Poisson;
    tc.ratePerSec = 16.0;
    tc.numRequests = 24;
    tc.inputLen = 128;
    tc.outputLen = 16;
    tc.seed = 99;
    return tc;
}

TEST(TracerEngine, TracedRunEmitsLifecycleAndPhaseLanes)
{
    auto trace = generateTrace(tracedTrace());
    ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    ServingEngine engine(sim, mamba2_2p7b(), {});

    Tracer tracer;
    EngineObservers eo;
    eo.tracer = &tracer;
    eo.pid = 1;
    engine.attachObservers(eo);
    ServingReport rep = engine.run(trace);
    ASSERT_EQ(rep.completed.size(), trace.size());

    std::string json = tracer.renderJson();
    // One lifecycle lane per request, opened and closed.
    EXPECT_EQ(countOf(json, "\"ph\":\"B\""), trace.size());
    EXPECT_EQ(countOf(json, "\"ph\":\"E\""), trace.size());
    // Every request is admitted and produces a first token.
    EXPECT_EQ(countOf(json, "\"admitted\""), trace.size());
    EXPECT_EQ(countOf(json, "\"first token\""), trace.size());
    // Iteration slices cover the run (cat "iteration", one per engine
    // iteration); phase lanes are populated (the Pimba system does SSM
    // state update on PIM, so both gpu and pim lanes carry slices).
    EXPECT_EQ(countOf(json, "\"iteration\""),
              static_cast<size_t>(rep.iterations));
    EXPECT_NE(json.find("\"name\":\"gpu\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"pim\""), std::string::npos);
    EXPECT_GE(countOf(json, "\"cat\":\"gpu\""), 1u);
    EXPECT_GE(countOf(json, "\"cat\":\"pim\""), 1u);
}

TEST(TracerEngine, TracingDoesNotPerturbTheReport)
{
    // The traced run takes the per-iteration path; the untraced one
    // fast-forwards quiet runs. Both must be the same simulation, bit
    // for bit. OPT's KV growth cuts quiet runs at block boundaries,
    // Mamba-2's only at completions; Sarathi costs fused steps.
    auto trace = generateTrace(tracedTrace());
    const std::pair<const char *, ModelConfig> models[] = {
        {"mamba2", mamba2_2p7b()}, {"opt", opt2p7b()}};
    for (const auto &[modelName, model] : models) {
        for (SchedulerPolicy policy : allPolicies()) {
            SCOPED_TRACE(std::string(modelName) + " " + policyName(policy));
            EngineConfig ec;
            ec.policy = policy;
            ServingSimulator sim(makeSystem(SystemKind::PIMBA));
            ServingEngine plain(sim, model, ec);
            ServingReport a = plain.run(trace);

            ServingEngine traced(sim, model, ec);
            Tracer tracer;
            EngineObservers eo;
            eo.tracer = &tracer;
            traced.attachObservers(eo);
            ServingReport b = traced.run(trace);

            EXPECT_GT(tracer.eventCount(), 0u);
            EXPECT_GT(a.fastForwardedIterations, 0u);
            EXPECT_EQ(b.fastForwardedIterations, 0u);
            expectBitEqual(a, b);
        }
    }
}

} // namespace
} // namespace pimba

/**
 * @file
 * pimba-trace-v1 save/load tests: exact (bit-for-bit) round trips,
 * format pinning, streaming-reader limits, and the loader's located
 * rejections — bad version header, missing declared count, unsorted
 * arrivals, duplicate ids, truncation, malformed rows.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "config/json.h"
#include "serving/trace.h"
#include "serving/trace_io.h"

namespace pimba {
namespace {

/** Write @p body to a fresh file under the gtest temp dir and return
 *  its path. @p name must be unique per test. */
std::string
writeFile(const std::string &name, const std::string &body)
{
    std::string path = ::testing::TempDir() + "pimba_" + name;
    FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    return path;
}

/** Expect that constructing/consuming a reader over @p body throws a
 *  ConfigError whose message contains @p needle, at line @p line. */
void
expectRejected(const std::string &name, const std::string &body,
               const std::string &needle, int line)
{
    std::string path = writeFile(name, body);
    try {
        loadTrace(path);
        FAIL() << "expected ConfigError containing \"" << needle << "\"";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
        EXPECT_EQ(e.line(), line) << e.what();
    }
    std::remove(path.c_str());
}

TEST(TraceIo, RoundTripIsBitExact)
{
    // Arrivals print with 17 significant digits, so every binary64
    // bit survives the text round trip — the property the replay
    // equivalence guarantee rests on.
    TraceConfig cfg;
    cfg.arrivals = ArrivalProcess::Poisson;
    cfg.ratePerSec = 7.3;
    cfg.lengths = LengthDistribution::Uniform;
    cfg.inputLen = 17;
    cfg.inputLenMax = 4099;
    cfg.outputLen = 3;
    cfg.outputLenMax = 977;
    cfg.numRequests = 2000;
    cfg.classes.push_back(TraceClass{"a", 1.0,
                                     LengthDistribution::Fixed, 64, 16,
                                     0, 0});
    cfg.classes.push_back(TraceClass{"b", 2.0,
                                     LengthDistribution::Uniform, 256,
                                     32, 512, 64});
    auto trace = generateTrace(cfg);
    std::string path = writeFile("roundtrip.csv", renderTrace(trace));
    auto loaded = loadTrace(path);
    ASSERT_EQ(loaded.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded[i].id, trace[i].id);
        // Bit-exact, not just close:
        EXPECT_EQ(loaded[i].arrival.value(), trace[i].arrival.value());
        EXPECT_EQ(loaded[i].inputLen, trace[i].inputLen);
        EXPECT_EQ(loaded[i].outputLen, trace[i].outputLen);
        EXPECT_EQ(loaded[i].classId, trace[i].classId);
    }
    // And rendering the loaded trace reproduces the file byte-for-byte.
    EXPECT_EQ(renderTrace(loaded), renderTrace(trace));
    std::remove(path.c_str());
}

TEST(TraceIo, RenderedFormatIsPinned)
{
    std::vector<Request> trace(2);
    trace[0] = Request{0, Seconds(0.0), 512, 128};
    trace[1] = Request{1, Seconds(0.5), 256, 64};
    trace[1].classId = 3;
    EXPECT_EQ(renderTrace(trace),
              "# pimba-trace-v1\n"
              "# requests: 2\n"
              "# columns: id,arrival_seconds,input_tokens,output_tokens,"
              "class\n"
              "0,0,512,128,0\n"
              "1,0.5,256,64,3\n");
}

TEST(TraceIo, StreamingReaderHonorsLimitAndReportsHeader)
{
    TraceConfig cfg;
    cfg.numRequests = 50;
    auto trace = generateTrace(cfg);
    std::string path = writeFile("limit.csv", renderTrace(trace));
    TraceFileReader reader(path, 10);
    EXPECT_EQ(reader.declaredRequests(), 50u);
    Request r;
    uint64_t n = 0;
    while (reader.next(r))
        ++n;
    EXPECT_EQ(n, 10u);
    EXPECT_EQ(reader.produced(), 10u);
    EXPECT_FALSE(reader.next(r)); // stays exhausted
    std::remove(path.c_str());
}

TEST(TraceIo, MaterializeTraceLoadsNamedFileWithPrefixLimit)
{
    TraceConfig gen;
    gen.numRequests = 20;
    auto trace = generateTrace(gen);
    std::string path = writeFile("materialize.csv", renderTrace(trace));

    auto count = [](const TraceConfig& cfg) {
        auto src = openArrivalSource(cfg);
        Request r;
        size_t n = 0;
        while (src->next(r))
            ++n;
        return n;
    };
    TraceConfig replay;
    replay.file = path;
    replay.numRequests = 0; // all of the file
    EXPECT_EQ(count(replay), 20u);
    replay.numRequests = 5; // prefix
    EXPECT_EQ(count(replay), 5u);
    std::remove(path.c_str());
}

TEST(TraceIo, OpenArrivalSourcePicksReaderOrGenerator)
{
    TraceConfig gen;
    gen.numRequests = 8;
    auto trace = generateTrace(gen);
    std::string path = writeFile("source.csv", renderTrace(trace));

    TraceConfig replay;
    replay.file = path;
    auto src = openArrivalSource(replay);
    Request r;
    size_t i = 0;
    while (src->next(r)) {
        EXPECT_EQ(r.id, trace[i].id);
        EXPECT_EQ(r.arrival.value(), trace[i].arrival.value());
        ++i;
    }
    EXPECT_EQ(i, trace.size());

    auto genSrc = openArrivalSource(gen);
    i = 0;
    while (genSrc->next(r))
        ++i;
    EXPECT_EQ(i, trace.size());
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileIsALocatedError)
{
    EXPECT_THROW(loadTrace("/nonexistent/pimba-no-such.csv"),
                 ConfigError);
}

TEST(TraceIo, RejectsWrongVersionHeader)
{
    expectRejected("badversion.csv",
                   "# pimba-trace-v9\n# requests: 1\n0,0,1,1,0\n",
                   "pimba-trace-v1", 1);
}

TEST(TraceIo, RejectsMissingRequestsLine)
{
    expectRejected("noreqs.csv", "# pimba-trace-v1\n0,0,1,1,0\n",
                   "requests", 2);
}

TEST(TraceIo, RejectsUnsortedArrivals)
{
    expectRejected("unsorted.csv",
                   "# pimba-trace-v1\n# requests: 2\n"
                   "0,5.0,1,1,0\n1,4.0,1,1,0\n",
                   "non-decreasing", 4);
}

TEST(TraceIo, RejectsNonIncreasingIds)
{
    expectRejected("dupid.csv",
                   "# pimba-trace-v1\n# requests: 2\n"
                   "0,0,1,1,0\n0,1.0,1,1,0\n",
                   "increasing", 4);
}

TEST(TraceIo, RejectsTruncatedFile)
{
    expectRejected("trunc.csv",
                   "# pimba-trace-v1\n# requests: 3\n"
                   "0,0,1,1,0\n1,1.0,1,1,0\n",
                   "truncated", 4);
}

TEST(TraceIo, RejectsExtraRowsBeyondDeclaredCount)
{
    expectRejected("extra.csv",
                   "# pimba-trace-v1\n# requests: 1\n"
                   "0,0,1,1,0\n1,1.0,1,1,0\n",
                   "declared", 4);
}

TEST(TraceIo, RejectsMalformedRows)
{
    const std::string hdr = "# pimba-trace-v1\n# requests: 1\n";
    expectRejected("fields.csv", hdr + "0,0,1,1\n",
                   "5 comma-separated fields", 3);
    expectRejected("badnum.csv", hdr + "x,0,1,1,0\n", "id", 3);
    expectRejected("badarr.csv", hdr + "0,zebra,1,1,0\n", "arrival", 3);
    expectRejected("negarr.csv", hdr + "0,-1.0,1,1,0\n", "arrival", 3);
    expectRejected("zerolen.csv", hdr + "0,0,0,1,0\n", "input", 3);
}

TEST(TraceIo, RejectsRequestsLongerThanTheBound)
{
    // Past kMaxRequestTokens a cache position would overflow the step
    // memo key mid-run; the loader rejects the row instead.
    const std::string hdr = "# pimba-trace-v1\n# requests: 2\n";
    const std::string bound =
        "must each be <= " + std::to_string(kMaxRequestTokens) + " tokens";
    expectRejected("longin.csv",
                   hdr + "0,0,64,8,0\n1,1.0,5000000000,8,0\n",
                   bound + ", got 5000000000 and 8", 4);
    expectRejected("longout.csv", hdr + "0,0,64,5000000000,0\n",
                   bound + ", got 64 and 5000000000", 3);
}

} // namespace
} // namespace pimba

/**
 * @file
 * Timeline-sampler tests: per-track cadence gating, unconditional
 * record(), and both render formats (the CSV header contract
 * tools/plotting depends on, and JSON parseability by shape).
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/timeline.h"

namespace pimba {
namespace {

TEST(TimelineSampler, CadenceGatesPerTrack)
{
    TimelineSampler tl(Seconds(0.1));
    int a = tl.registerTrack("replica A");
    int b = tl.registerTrack("replica B");
    ASSERT_NE(a, b);

    // Offer track A samples every 10 ms over one second: only every
    // 100 ms one may land.
    for (int i = 0; i <= 100; ++i)
        tl.sample(a, Seconds(0.01 * i), 1, 10, 1, 0.5);
    // Track B's cadence is independent of A's.
    tl.sample(b, Seconds(0.005), 2, 20, 2, 0.25);

    size_t a_rows = 0, b_rows = 0;
    for (const TimelineRow &r : tl.rows())
        (r.track == a ? a_rows : b_rows) += 1;
    EXPECT_EQ(b_rows, 1u);
    EXPECT_GE(a_rows, 10u);
    EXPECT_LE(a_rows, 11u);

    // Samples inside the holdoff were dropped, not queued.
    Seconds prev(-1.0);
    for (const TimelineRow &r : tl.rows()) {
        if (r.track != a)
            continue;
        if (prev >= Seconds(0.0)) {
            EXPECT_GE((r.time - prev).value(), 0.1 - 1e-12);
        }
        prev = r.time;
    }
}

TEST(TimelineSampler, DueAnswersWhatSampleWouldDo)
{
    // Engines skip their queue walks unless a sample is due, so due()
    // must agree with sample()'s gate at every offer.
    TimelineSampler tl(Seconds(0.05));
    int t = tl.registerTrack("engine");
    for (int i = 0; i <= 40; ++i) {
        const Seconds now(0.007 * i);
        const size_t before = tl.rows().size();
        const bool due = tl.due(t, now);
        tl.sample(t, now, 1, 1, 1, 0.0);
        EXPECT_EQ(due, tl.rows().size() > before) << "offer " << i;
    }
    EXPECT_GT(tl.rows().size(), 1u);
}

TEST(TimelineSampler, RecordBypassesTheCadence)
{
    TimelineSampler tl(Seconds(10.0));
    int t = tl.registerTrack("engine");
    tl.sample(t, Seconds(0.0), 1, 1, 1, 0.1);
    tl.sample(t, Seconds(1.0), 2, 2, 2, 0.2); // gated away
    tl.record(t, Seconds(1.5), 3, 3, 3, 0.3); // forced (run-final)
    ASSERT_EQ(tl.rows().size(), 2u);
    EXPECT_EQ(tl.rows().back().queueDepth, 3u);
    EXPECT_DOUBLE_EQ(tl.rows().back().blockUtil, 0.3);
}

TEST(TimelineSampler, NonPositiveIntervalRecordsEveryOffer)
{
    TimelineSampler tl(Seconds(0.0));
    int t = tl.registerTrack("dense");
    for (int i = 0; i < 5; ++i)
        tl.sample(t, Seconds(0.001 * i), 1, 1, 1, 0.0);
    EXPECT_EQ(tl.rows().size(), 5u);
}

TEST(TimelineSampler, CsvHasHeaderAndEscapesLabelCommas)
{
    TimelineSampler tl(Seconds(0.0));
    int t = tl.registerTrack("replica 0 (Pimba x1, prefill)");
    tl.sample(t, Seconds(0.25), 4, 128, 3, 0.75);

    std::string csv = tl.renderCsv();
    EXPECT_EQ(csv.find("time_s,track,label,queue_depth,"
                       "outstanding_tokens,running,block_util"),
              0u);
    // The label's comma must not add a CSV column: RFC 4180 quotes it.
    EXPECT_NE(csv.find(",\"replica 0 (Pimba x1, prefill)\","),
              std::string::npos);
    EXPECT_NE(csv.find("0.25"), std::string::npos);
    EXPECT_NE(csv.find(",4,128,3,"), std::string::npos);
}

TEST(TimelineSampler, JsonCarriesTrackLabelsAndValues)
{
    TimelineSampler tl(Seconds(0.0));
    int t = tl.registerTrack("engine");
    tl.sample(t, Seconds(1.5), 7, 256, 5, 0.5);
    std::string json = tl.renderJson();
    EXPECT_NE(json.find("\"label\""), std::string::npos);
    EXPECT_NE(json.find("engine"), std::string::npos);
    EXPECT_NE(json.find("256"), std::string::npos);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), '\n');
}

} // namespace
} // namespace pimba

/**
 * @file
 * Step-cost store sharing: replicas of one (kind, nGpus, execution
 * mode) cost their steps in one StepCostStore, and sharing must not
 * move a single bit of any report.
 *
 *  - RR split: a colocated N-replica round-robin fleet, whose replicas
 *    share one store, equals N standalone engines with private stores,
 *    each fed the i-mod-N sub-trace — every ServingReport field,
 *    bit-exact, on Poisson, diurnal and MMPP arrivals under FCFS, SJF
 *    and Sarathi, on Mamba-2 and on an OPT-2.7B budget tight enough
 *    to evict.
 *  - Store keys: blocked and overlapped replicas of one kind, and
 *    replicas of different kinds, never share a store.
 *  - Memo counters: a shared store misses each key exactly once, so
 *    its misses never exceed what private stores miss in total, while
 *    both see the same lookups; tracing adds no misses.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bit_equal.h"
#include "cluster/fleet.h"
#include "obs/tracer.h"
#include "presets.h"

namespace pimba {
namespace {

/// A seeded trace at @p rate with @p process arrivals.
std::vector<Request>
seededTrace(ArrivalProcess process, double rate, int n, uint32_t seed)
{
    TraceConfig tc;
    tc.arrivals = process;
    tc.ratePerSec = rate;
    tc.numRequests = n;
    tc.lengths = LengthDistribution::Uniform;
    tc.inputLen = 256;
    tc.inputLenMax = 768;
    tc.outputLen = 128;
    tc.outputLenMax = 384;
    tc.mmpp.burstMean = Seconds(1.0);
    tc.mmpp.idleMean = Seconds(3.0);
    tc.diurnal.period = Seconds(4.0);
    tc.diurnal.peakToTrough = 3.0;
    tc.seed = seed;
    return generateTrace(tc);
}

/// The sum of the private stores' counters of one memo.
MemoCounts
operator+(MemoCounts a, const MemoCounts &b)
{
    a.lookups += b.lookups;
    a.misses += b.misses;
    return a;
}

TEST(StepCostStore, RoundRobinSplitEqualsStandaloneEngines)
{
    // One scheduler policy per arrival process: Sarathi on the MMPP
    // runs exercises fused steps. OPT-2.7B runs under a budget of four
    // 768-token footprints past the weights, so KV growth evicts.
    const ServingSimulator sim(makeSystem(SystemKind::PIMBA));
    uint64_t optEvictions = 0;
    for (bool opt : {false, true}) {
        const ModelConfig model = opt ? opt2p7b() : mamba2_2p7b();
        for (size_t n : {2u, 3u, 4u}) {
            for (ArrivalProcess process :
                 {ArrivalProcess::Poisson, ArrivalProcess::Diurnal,
                  ArrivalProcess::Mmpp}) {
                EngineConfig ec;
                ec.maxBatch = 32;
                ec.policy = process == ArrivalProcess::Mmpp
                                ? SchedulerPolicy::Sarathi
                            : process == ArrivalProcess::Diurnal
                                ? SchedulerPolicy::SJF
                                : SchedulerPolicy::FCFS;
                if (opt)
                    ec.memoryBudget =
                        sim.weightFootprint(model) +
                        4.0 * sim.requestFootprint(model, 512 + 256);
                for (uint32_t seed : {0x5EED0001u, 0xC0FFEEu, 0xBADA55u}) {
                    const auto trace = seededTrace(
                        process, 14.0 * static_cast<double>(n),
                        40 * static_cast<int>(n), seed);
                    Fleet fleet(model,
                                homogeneousFleet(SystemKind::PIMBA, n, ec));
                    for (size_t i = 1; i < n; ++i)
                        ASSERT_EQ(&fleet.replica(i).costStore(),
                                  &fleet.replica(0).costStore());
                    FleetReport shared = fleet.run(trace);
                    ASSERT_EQ(shared.replicas.size(), n);
                    for (size_t i = 0; i < n; ++i) {
                        SCOPED_TRACE(
                            model.name + " n=" + std::to_string(n) +
                            " seed=" + std::to_string(seed) +
                            " process=" +
                            std::to_string(static_cast<int>(process)) +
                            " replica " + std::to_string(i));
                        ServingEngine alone(sim, model, ec);
                        expectBitEqual(shared.replicas[i],
                                       alone.run(everyNth(trace, i, n)));
                        if (opt)
                            optEvictions += shared.replicas[i].preemptions;
                    }
                }
            }
        }
    }
    // The OPT runs only cover the eviction path if it ran.
    EXPECT_GT(optEvictions, 0u);
}

TEST(StepCostStore, ReplicasShareOnlyStoresOfTheSameKindAndMode)
{
    // Half blocked, half overlapped: two stores, one per mode.
    Fleet modes(mamba2_2p7b(),
                presetCase(preset<FleetScenario>(
                               "cluster_execution_modes.json"),
                           "mixed 2+2"));
    EXPECT_EQ(&modes.replica(0).costStore(), &modes.replica(1).costStore());
    EXPECT_EQ(&modes.replica(2).costStore(), &modes.replica(3).costStore());
    EXPECT_NE(&modes.replica(0).costStore(), &modes.replica(2).costStore());
    EXPECT_EQ(modes.replica(0).simulator().system().executionMode,
              ExecutionMode::Blocked);
    EXPECT_EQ(modes.replica(2).simulator().system().executionMode,
              ExecutionMode::Overlapped);

    // 2x Pimba + 2x GPU: one store per kind.
    Fleet kinds(mamba2_2p7b(),
                preset<FleetScenario>("cluster_routers.json").cases[0].fleet);
    EXPECT_EQ(&kinds.replica(0).costStore(), &kinds.replica(1).costStore());
    EXPECT_EQ(&kinds.replica(2).costStore(), &kinds.replica(3).costStore());
    EXPECT_NE(&kinds.replica(0).costStore(), &kinds.replica(2).costStore());

    // An unset mode resolves to the system's default (Blocked).
    StepCostStores stores(mamba2_2p7b());
    auto inherit = stores.get(SystemKind::PIMBA, 1, std::nullopt);
    EXPECT_EQ(inherit, stores.get(SystemKind::PIMBA, 1,
                                  ExecutionMode::Blocked));
    EXPECT_NE(inherit, stores.get(SystemKind::PIMBA, 1,
                                  ExecutionMode::Overlapped));
    EXPECT_NE(inherit, stores.get(SystemKind::PIMBA, 2, std::nullopt));
}

TEST(StepCostStore, SharedStoreMissesEachKeyOnce)
{
    const ModelConfig model = mamba2_2p7b();
    const size_t n = 4;
    const auto trace = seededTrace(ArrivalProcess::Poisson, 56.0, 160,
                                   0x5EED0001u);
    EngineConfig ec;
    ec.maxBatch = 32;
    Fleet fleet(model, homogeneousFleet(SystemKind::PIMBA, n, ec));
    fleet.run(trace);
    const MemoCounts cold = fleet.replica(0).costStore().stats();

    // A rerun finds every key filled: lookups double, misses stay.
    fleet.run(trace);
    const MemoCounts warm = fleet.replica(0).costStore().stats();
    EXPECT_EQ(warm.lookups, 2 * cold.lookups);
    EXPECT_EQ(warm.misses, cold.misses);

    // The same work on private stores (the RR split) looks up exactly
    // as often, but misses each key once per engine that meets it.
    MemoCounts alone;
    for (size_t i = 0; i < n; ++i) {
        ServingEngine engine(ServingSimulator(makeSystem(SystemKind::PIMBA)),
                             model, ec);
        engine.run(everyNth(trace, i, n));
        alone = alone + engine.costStore().stats();
        EXPECT_LE(engine.costStore().stats().misses, cold.misses);
    }
    EXPECT_EQ(alone.lookups, cold.lookups);
    EXPECT_GT(alone.misses, cold.misses);

    // Pinned counts: a change that re-costs filled keys, or stops
    // bucketing, moves these. No prefill chunk here lands on a decode
    // step's call, so the misses are the 143 decode and 138 prefill
    // keys of the per-kind memos this store replaced.
    EXPECT_EQ(cold.lookups, 2685u);
    EXPECT_EQ(cold.misses, 281u);
    EXPECT_EQ(alone.misses, 430u);

    // The tracer cuts its phase slices from the memo entries the
    // costing already copied: a traced run on a fresh store walks the
    // cost model, and looks up the memo, exactly as often as the
    // untraced one.
    Fleet traced(model, homogeneousFleet(SystemKind::PIMBA, n, ec));
    Tracer tracer;
    FleetObservers fo;
    fo.tracer = &tracer;
    traced.attachObservers(fo);
    traced.run(trace);
    ASSERT_GT(tracer.eventCount(), 0u);
    const MemoCounts seen = traced.replica(0).costStore().stats();
    EXPECT_EQ(seen.misses, cold.misses);
    EXPECT_EQ(seen.lookups, cold.lookups);
}

} // namespace
} // namespace pimba

/**
 * @file
 * Block-ledger invariants: demand quantization via BlockMapper, the
 * counting pool's allocate/grow/release accounting, over-commit
 * refusal, the over-release panic, freed == allocated at drain, and
 * the engine's per-request side of the ledger (RequestState::
 * heldBlocks) returning every block through evictions, cancels and
 * prefilled imports.
 */

#include <gtest/gtest.h>

#include "serving/block_manager.h"
#include "serving/engine.h"

namespace pimba {
namespace {

TEST(BlockMapper, QuantizesFixedAndPerTokenDemand)
{
    // 1 MiB of fixed state, 64 KiB per token, 16-token blocks.
    BlockMapper m = BlockMapper::make(Bytes(1 << 20), Bytes(1 << 16),
                                      Tokens(16));
    EXPECT_EQ(m.blockTokens, Tokens(16));
    EXPECT_DOUBLE_EQ(m.blockBytes.value(), 16.0 * (1 << 16));
    EXPECT_EQ(m.fixedBlocks, Blocks(1)); // ceil(1MiB / 1MiB)
    EXPECT_EQ(m.blocksFor(Tokens(0)), Blocks(1));
    EXPECT_EQ(m.blocksFor(Tokens(1)), Blocks(2));
    EXPECT_EQ(m.blocksFor(Tokens(16)), Blocks(2));
    EXPECT_EQ(m.blocksFor(Tokens(17)), Blocks(3));
    EXPECT_EQ(m.blocksFor(Tokens(160)), Blocks(11));
}

TEST(BlockMapper, PureSsmCostsOneStateBlockRegardlessOfLength)
{
    BlockMapper m = BlockMapper::make(Bytes(1 << 20), Bytes(0.0),
                                      Tokens(16));
    EXPECT_EQ(m.blockTokens, Tokens(0));
    EXPECT_DOUBLE_EQ(m.blockBytes.value(), static_cast<double>(1 << 20));
    EXPECT_EQ(m.blocksFor(Tokens(0)), Blocks(1));
    EXPECT_EQ(m.blocksFor(Tokens(100000)), Blocks(1));
}

TEST(BlockManager, AllocateGrowReleaseAccounting)
{
    BlockManager bm(Blocks(10));
    EXPECT_EQ(bm.totalBlocks(), Blocks(10));
    EXPECT_EQ(bm.freeBlocks(), Blocks(10));

    ASSERT_TRUE(bm.allocate(Blocks(3)));
    EXPECT_EQ(bm.usedBlocks(), Blocks(3));
    EXPECT_DOUBLE_EQ(bm.utilization(), 0.3);

    ASSERT_TRUE(bm.grow(Blocks(2)));
    EXPECT_EQ(bm.usedBlocks(), Blocks(5));
    EXPECT_EQ(bm.freeBlocks(), Blocks(5));

    // Growing by nothing is a no-op, not an error.
    ASSERT_TRUE(bm.grow(Blocks(0)));
    EXPECT_EQ(bm.usedBlocks(), Blocks(5));

    bm.release(Blocks(5));
    EXPECT_EQ(bm.usedBlocks(), Blocks(0));
    EXPECT_EQ(bm.freeBlocks(), Blocks(10));
}

TEST(BlockManager, RefusesOverCommitWithoutSideEffects)
{
    BlockManager bm(Blocks(8));
    ASSERT_TRUE(bm.allocate(Blocks(6)));
    EXPECT_FALSE(bm.allocate(Blocks(3))); // only 2 free
    EXPECT_EQ(bm.usedBlocks(), Blocks(6));
    EXPECT_FALSE(bm.grow(Blocks(3))); // would exceed the pool
    EXPECT_EQ(bm.usedBlocks(), Blocks(6));
    ASSERT_TRUE(bm.allocate(Blocks(2)));
    EXPECT_EQ(bm.freeBlocks(), Blocks(0));
    EXPECT_FALSE(bm.grow(Blocks(1)));
    EXPECT_EQ(bm.usedBlocks(), Blocks(8));
}

TEST(BlockManager, FreedEqualsAllocatedAtDrain)
{
    BlockManager bm(Blocks(64));
    uint64_t allocated = 0;
    for (uint64_t n = 1; n <= 8; ++n) {
        ASSERT_TRUE(bm.allocate(Blocks(n)));
        allocated += n;
    }
    EXPECT_EQ(bm.usedBlocks(), Blocks(allocated));
    for (uint64_t n = 1; n <= 8; ++n)
        bm.release(Blocks(n));
    EXPECT_EQ(bm.usedBlocks(), Blocks(0));
    EXPECT_EQ(bm.freeBlocks(), bm.totalBlocks());
}

TEST(BlockManagerDeathTest, DoubleFreePanics)
{
    // The pool cannot tell requests apart, so a double free shows up
    // as returning more blocks than are in use.
    BlockManager bm(Blocks(4));
    ASSERT_TRUE(bm.allocate(Blocks(2)));
    bm.release(Blocks(2));
    EXPECT_DEATH(bm.release(Blocks(2)), "over-release");
}

TEST(BlockManagerDeathTest, ZeroBlockAllocationPanics)
{
    BlockManager bm(Blocks(4));
    EXPECT_DEATH(bm.allocate(Blocks(0)), "zero-block allocation");
}

Request
ledgerRequest(uint64_t id, double arrival)
{
    Request r;
    r.id = id;
    r.arrival = Seconds(arrival);
    r.inputLen = 64;
    r.outputLen = 256;
    return r;
}

TEST(BlockLedger, EngineDrainsToEmptyPool)
{
    // The engine's side of the ledger: every resident returns exactly
    // its heldBlocks on completion, eviction and cancel, so the pool
    // is empty at drain. OPT-2.7B keeps KV per token, so decode growth
    // on a budget of three 320-token footprints must evict; every
    // fourth request is a prefilled import that lands with its whole
    // prompt's blocks at once.
    ModelConfig model = opt2p7b();
    ServingSimulator sim(makeSystem(SystemKind::GPU));
    EngineConfig ec;
    ec.memoryBudget = sim.weightFootprint(model) +
                      3.0 * sim.requestFootprint(model, 320);
    ServingEngine engine(sim, model, ec);
    engine.begin();
    const uint64_t n = 12;
    for (uint64_t id = 1; id <= n; ++id) {
        Request r = ledgerRequest(id, 0.001 * static_cast<double>(id));
        if (id % 4 == 0)
            engine.submitPrefilled(r);
        else
            engine.submit(r);
    }
    engine.advanceTo(Seconds(0.5));
    ASSERT_GT(engine.queueDepth(), engine.waitingCount()); // residents
    ASSERT_GT(engine.waitingCount(), 0u);
    EXPECT_GT(engine.usedBlocks(), Blocks(0));

    // The last arrival is still queued: cancelling it frees nothing.
    const size_t waiting = engine.waitingCount();
    const Blocks used = engine.usedBlocks();
    EXPECT_TRUE(engine.cancel(n, engine.now(), false));
    EXPECT_EQ(engine.waitingCount(), waiting - 1);
    EXPECT_EQ(engine.usedBlocks(), used);

    // The first admission is never an eviction victim (victims are
    // the most recently admitted) and is still decoding: cancelling
    // it returns its blocks.
    const size_t depth = engine.queueDepth();
    EXPECT_TRUE(engine.cancel(1, engine.now(), false));
    EXPECT_EQ(engine.queueDepth(), depth - 1);
    EXPECT_EQ(engine.waitingCount(), waiting - 1);
    EXPECT_LT(engine.usedBlocks(), used);

    engine.drain();
    EXPECT_EQ(engine.usedBlocks(), Blocks(0));
    ServingReport rep = engine.finish();
    EXPECT_GT(rep.preemptions, 0u);
    EXPECT_EQ(rep.cancelledRequests, 2u);
    EXPECT_EQ(rep.completedRequests, n - 2);
}

} // namespace
} // namespace pimba

#include "serving/block_manager.h"

#include <cmath>

#include "core/logging.h"
#include "core/units.h"

namespace pimba {

BlockMapper
BlockMapper::make(Bytes fixed_bytes, Bytes bytes_per_token,
                  Tokens block_tokens)
{
    PIMBA_ASSERT(fixed_bytes > Bytes(0.0) ||
                     bytes_per_token > Bytes(0.0),
                 "request footprint is zero");
    PIMBA_ASSERT(block_tokens >= Tokens(1), "block size must be positive");
    BlockMapper m;
    if (bytes_per_token > Bytes(0.0)) {
        m.blockTokens = block_tokens;
        m.blockBytes =
            bytes_per_token * static_cast<double>(block_tokens.value());
        m.fixedBlocks = Blocks(static_cast<uint64_t>(
            std::ceil(fixed_bytes.value() / m.blockBytes.value())));
    } else {
        // Pure SSM: the whole per-request footprint is length-independent
        // state, so one block holds exactly one request's state.
        m.blockTokens = Tokens(0);
        m.blockBytes = fixed_bytes;
        m.fixedBlocks = Blocks(1);
    }
    return m;
}

Blocks
BlockMapper::blocksFor(Tokens cached_tokens) const
{
    Blocks kv{blockTokens > Tokens(0)
                  ? ceilDiv(cached_tokens.value(), blockTokens.value())
                  : 0};
    return fixedBlocks + kv;
}

BlockManager::BlockManager(Blocks total_blocks) : total(total_blocks)
{
    PIMBA_ASSERT(total >= Blocks(1), "empty block pool");
}

double
BlockManager::utilization() const
{
    return used / total;
}

bool
BlockManager::allocate(Blocks blocks)
{
    PIMBA_ASSERT(blocks >= Blocks(1), "zero-block allocation");
    return grow(blocks);
}

bool
BlockManager::grow(Blocks blocks)
{
    if (blocks > freeBlocks())
        return false;
    used += blocks;
    return true;
}

void
BlockManager::release(Blocks blocks)
{
    PIMBA_ASSERT(blocks <= used, "over-release: returning ",
                 blocks.value(), " blocks with only ", used.value(),
                 " in use");
    used -= blocks;
}

} // namespace pimba

/**
 * @file
 * Paged KV/state block manager for the serving engine.
 *
 * Instead of reserving each request's peak footprint at admission, the
 * engine allocates fixed-size memory blocks on demand as tokens are
 * cached (vLLM-style paged allocation). A BlockMapper translates a
 * request's cached-token count into a block demand for one model +
 * system — the per-request fixed bytes (recurrent state + transient
 * activations) plus per-token KV bytes, quantized to blocks — and the
 * BlockManager counts how many blocks of the pool are in use.
 *
 * The per-request side of the ledger lives with the request, not here:
 * each resident RequestState carries its own heldBlocks, the way vLLM
 * keeps a sequence's block table with the sequence. The engine reads
 * that field when it sums admission pledges and growth demand, and
 * hands the pool only counts — allocate(n) on admission, grow(n) when
 * tokens are cached, release(n) with the resident's heldBlocks on
 * completion, eviction or cancellation. The engine's debug build checks
 * that the two sides agree after every iteration and cancel.
 *
 * The manager is pure bookkeeping (block counts, not addresses): the
 * simulator has no real memory, so fragmentation is not modeled and a
 * request either gets its blocks or triggers preemption in the engine.
 */

#ifndef PIMBA_SERVING_BLOCK_MANAGER_H
#define PIMBA_SERVING_BLOCK_MANAGER_H

#include "core/units.h"

namespace pimba {

/** Token-count to block-demand mapping for one model + system. */
struct BlockMapper
{
    Bytes blockBytes;   ///< bytes of pool one block represents
    Tokens blockTokens; ///< KV tokens per block (0: no per-token cost)
    Blocks fixedBlocks; ///< state + activation blocks per request

    /**
     * Build a mapper from a request's fixed footprint (recurrent state +
     * transient activations, bytes) and its per-cached-token KV bytes.
     * Pure-SSM models have @p bytes_per_token == 0; their requests cost a
     * constant @c fixedBlocks regardless of sequence length.
     */
    static BlockMapper make(Bytes fixed_bytes, Bytes bytes_per_token,
                            Tokens block_tokens);

    /** Blocks a request needs with @p cached_tokens tokens resident. */
    Blocks blocksFor(Tokens cached_tokens) const;
};

/**
 * Counting allocator over a fixed pool of equally-sized blocks. It
 * knows only how many blocks are in use; which request holds them is
 * RequestState::heldBlocks. Over-commit is refused without side
 * effects; releasing more blocks than are in use is an invariant
 * violation (panic), not a recoverable error.
 */
class BlockManager
{
  public:
    explicit BlockManager(Blocks total_blocks);

    Blocks totalBlocks() const { return total; }
    Blocks usedBlocks() const { return used; }
    Blocks freeBlocks() const { return total - used; }
    /** Fraction of the pool currently allocated, in [0, 1]. */
    double utilization() const;

    /**
     * Take @p blocks (>= 1) blocks for a newly admitted request.
     * Returns false, allocating nothing, when the pool cannot cover
     * them.
     */
    bool allocate(Blocks blocks);

    /**
     * Take @p blocks more blocks for residents whose cached tokens
     * grew (0 is a no-op). Returns false, allocating nothing, when the
     * pool cannot cover the growth.
     */
    bool grow(Blocks blocks);

    /** Return @p blocks blocks (completion, eviction or cancel). */
    void release(Blocks blocks);

  private:
    Blocks total;
    Blocks used{0};
};

} // namespace pimba

#endif // PIMBA_SERVING_BLOCK_MANAGER_H

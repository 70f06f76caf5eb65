/**
 * @file
 * Two-tier (GPU / CPU) KV-cache pool of one serving instance.
 *
 * Token-granular accounting with whole-request residency: a request's
 * KV cache lives either fully in GPU HBM or fully in CPU DRAM (the
 * offload target), mirroring vLLM's swap-based preemption. The pool
 * enforces the GPU capacity invariant and tracks the peak usage that
 * the oracle-capacity experiments need.
 */

#ifndef PASCAL_MODEL_KV_POOL_HH
#define PASCAL_MODEL_KV_POOL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/types.hh"

namespace pascal
{
namespace model
{

/** Where a request's KV cache currently resides. */
enum class KvTier
{
    None, //!< No KV allocated (not yet prefilled, or released).
    Gpu,  //!< Resident in GPU HBM; the request is decodable.
    Cpu,  //!< Offloaded to host DRAM; must be reloaded first.
};

/** Compact per-pool allocation handle (see KvPool). */
using KvSlot = std::int32_t;

/** "No KV tracked" sentinel (Request::kvSlot default). */
constexpr KvSlot kNoKvSlot = -1;

/**
 * KV allocation bookkeeping for one instance.
 *
 * Allocation is block-granular, mirroring vLLM's PagedAttention: a
 * request's KV charge is its token count rounded up to whole blocks of
 * @ref blockSize tokens, so a request holding 1 token of a 16-token
 * block still occupies the block. Pass block_size_tokens = 1 for exact
 * token-granular accounting.
 *
 * Allocations are keyed by a compact per-pool KvSlot handle that
 * alloc*() returns and the caller carries (the engine stores it in
 * Request::kvSlot). Slots index a dense table and are recycled through
 * a free list on release, so the per-iteration hot calls (the swap
 * moves, and one chargeGrowth() per decode step) are branch-cheap
 * O(1) array indexing with no hashing, and the table is bounded by the
 * peak number of *live* requests instead of growing with the largest
 * RequestId the instance ever hosted (the old dense-by-id table cost
 * ~16 B x max-id per instance on million-request sweeps).
 */
class KvPool
{
  public:
    /**
     * @param gpu_capacity_tokens GPU KV capacity in tokens (> 0).
     * @param block_size_tokens Paged-allocation block size (>= 1).
     */
    explicit KvPool(TokenCount gpu_capacity_tokens,
                    TokenCount block_size_tokens = 1);

    TokenCount gpuCapacity() const { return gpuCapacityTokens; }
    TokenCount gpuUsed() const { return gpuUsedTokens; }
    TokenCount gpuFree() const { return gpuCapacityTokens - gpuUsedTokens; }
    TokenCount cpuUsed() const { return cpuUsedTokens; }
    TokenCount blockSize() const { return blockSizeTokens; }

    /**
     * Charged (block-rounded) tokens for a logical KV of @p tokens.
     * Schedulers budget in charged units so their arithmetic agrees
     * with the pool's. Inline: the greedy selection walk calls it for
     * every candidate every iteration.
     */
    TokenCount
    chargeFor(TokenCount tokens) const
    {
        if (tokens <= 0)
            return 0;
        TokenCount blocks =
            (tokens + blockSizeTokens - 1) / blockSizeTokens;
        return blocks * blockSizeTokens;
    }

    /** Largest GPU occupancy ever observed (tokens). */
    TokenCount peakGpuUsed() const { return peakGpuTokens; }

    /** True if @p slot currently tracks a KV allocation. */
    bool
    tracks(KvSlot slot) const
    {
        return slot >= 0 &&
               static_cast<std::size_t>(slot) < entries.size() &&
               entries[static_cast<std::size_t>(slot)].tier !=
                   KvTier::None;
    }

    /** Residency tier of @p slot (None if untracked). */
    KvTier
    tierOf(KvSlot slot) const
    {
        return tracks(slot)
                   ? entries[static_cast<std::size_t>(slot)].tier
                   : KvTier::None;
    }

    /** Logical KV tokens held by @p slot (0 if untracked). */
    TokenCount
    tokensOf(KvSlot slot) const
    {
        return tracks(slot)
                   ? entries[static_cast<std::size_t>(slot)].tokens
                   : 0;
    }

    /** RequestId the slot was allocated for (kNoRequest if
     *  untracked). Diagnostic: panics name the offending request. */
    RequestId
    ownerOf(KvSlot slot) const
    {
        return tracks(slot)
                   ? entries[static_cast<std::size_t>(slot)].owner
                   : kNoRequest;
    }

    /** Charged (block-rounded) KV tokens held by @p slot. */
    TokenCount
    chargedTokensOf(KvSlot slot) const
    {
        return chargeFor(tokensOf(slot));
    }

    /** True if a KV of @p tokens (logical) can be allocated on the
     *  GPU, accounting for block rounding. */
    bool
    canAllocGpu(TokenCount tokens) const
    {
        return chargeFor(tokens) <= gpuFree();
    }

    /** Allocate a fresh GPU-resident KV of @p tokens for @p id.
     *  @return The compact slot handle for all further calls. */
    KvSlot allocGpu(RequestId id, TokenCount tokens);

    /** Allocate a fresh CPU-resident KV (e.g. migration landing in a
     *  full instance). @return The slot handle. */
    KvSlot allocCpu(RequestId id, TokenCount tokens);

    /** Grow a GPU-resident KV by @p delta tokens. */
    void
    growGpu(KvSlot slot, TokenCount delta)
    {
        Entry& e = lookup(slot);
        if (delta < 0 || e.tier != KvTier::Gpu)
            growGpuPanic(e, delta);
        TokenCount extra = chargeFor(e.tokens + delta) - chargeFor(e.tokens);
        if (extra > gpuFree())
            growGpuPanic(e, delta);
        e.tokens += delta;
        gpuUsedTokens += extra;
        if (gpuUsedTokens > peakGpuTokens)
            peakGpuTokens = gpuUsedTokens;
    }

    /**
     * Charge @p tokens of block growth that GPU-resident entries made
     * without growGpu(): the engine grows a whole decode batch by one
     * token per step and charges the blocks it opened at once. The
     * grown entries' logical sizes lag until syncTokens().
     */
    void
    chargeGrowth(TokenCount tokens)
    {
        if (tokens < 0 || tokens > gpuFree())
            chargeGrowthPanic(tokens);
        gpuUsedTokens += tokens;
        if (gpuUsedTokens > peakGpuTokens)
            peakGpuTokens = gpuUsedTokens;
    }

    /** Set @p slot's logical size to @p tokens, whose growth was
     *  already charged (chargeGrowth()); owed before the entry moves
     *  or is released. */
    void
    syncTokens(KvSlot slot, TokenCount tokens)
    {
        lookup(slot).tokens = tokens;
    }

    /** Charged tokens summed over the GPU-resident entries: gpuUsed()
     *  recomputed from scratch (audits; O(table)). */
    TokenCount chargedGpuTokens() const;

    /** Offload @p slot's KV from GPU to CPU. */
    void moveToCpu(KvSlot slot);

    /** Reload @p slot's KV from CPU to GPU. */
    void moveToGpu(KvSlot slot);

    /** Drop @p slot's KV entirely (request finished or migrated
     *  away); the slot is recycled by a later alloc. */
    void release(KvSlot slot);

    /** Total KV tokens across both tiers (the paper's m_i, in tokens). */
    TokenCount totalFootprintTokens() const
    {
        return gpuUsedTokens + cpuUsedTokens;
    }

    /** Number of requests with KV in either tier. */
    std::size_t numTracked() const { return trackedCount; }

    /** Number of GPU-resident allocations. The greedy selection walk
     *  uses it to stop as soon as every resident has been accounted
     *  and nothing further can be admitted. */
    std::size_t numGpuResident() const { return gpuResidentCount; }

    /** Dense-table length: the peak number of simultaneously live
     *  allocations (memory-bounding invariant under test). */
    std::size_t tableSize() const { return entries.size(); }

  private:
    struct Entry
    {
        TokenCount tokens = 0;       //!< Logical token count.
        RequestId owner = kNoRequest; //!< For diagnostics only.
        KvTier tier = KvTier::None;
    };

    /** Lookup @p slot or panic: misuse is a simulator bug. */
    Entry&
    lookup(KvSlot slot)
    {
        if (!tracks(slot))
            lookupPanic(slot);
        return entries[static_cast<std::size_t>(slot)];
    }

    /** Cold panic paths kept out of line so the inlined hot calls
     *  stay small. */
    [[noreturn]] void lookupPanic(KvSlot slot) const;
    [[noreturn]] void growGpuPanic(const Entry& e,
                                   TokenCount delta) const;
    [[noreturn]] void chargeGrowthPanic(TokenCount tokens) const;

    /** Pop a recycled slot or append a fresh one. */
    KvSlot acquireSlot(RequestId id, TokenCount tokens);

    TokenCount gpuCapacityTokens;
    TokenCount blockSizeTokens;
    TokenCount gpuUsedTokens = 0; //!< Charged (block-rounded) usage.
    TokenCount cpuUsedTokens = 0; //!< Charged (block-rounded) usage.
    TokenCount peakGpuTokens = 0;
    std::size_t trackedCount = 0;
    std::size_t gpuResidentCount = 0;
    std::vector<Entry> entries;  //!< Indexed by KvSlot.
    std::vector<KvSlot> freeSlots; //!< Released slots awaiting reuse.
};

} // namespace model
} // namespace pascal

#endif // PASCAL_MODEL_KV_POOL_HH

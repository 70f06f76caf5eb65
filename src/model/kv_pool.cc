#include "src/model/kv_pool.hh"

#include <algorithm>
#include <string>

#include "src/common/log.hh"

namespace pascal
{
namespace model
{

KvPool::KvPool(TokenCount gpu_capacity_tokens,
               TokenCount block_size_tokens)
    : gpuCapacityTokens(gpu_capacity_tokens),
      blockSizeTokens(block_size_tokens)
{
    if (gpu_capacity_tokens <= 0)
        fatal("KvPool capacity must be positive, got " +
              std::to_string(gpu_capacity_tokens));
    if (block_size_tokens <= 0)
        fatal("KvPool block size must be positive, got " +
              std::to_string(block_size_tokens));
}

void
KvPool::lookupPanic(KvSlot slot) const
{
    panic("KvPool: untracked slot " + std::to_string(slot));
}

void
KvPool::growGpuPanic(const Entry& e, TokenCount delta) const
{
    if (delta < 0)
        panic("KvPool::growGpu negative delta");
    if (e.tier != KvTier::Gpu)
        panic("KvPool::growGpu: request " + std::to_string(e.owner) +
              " not GPU-resident");
    panic("KvPool::growGpu: over capacity for request " +
          std::to_string(e.owner));
}

void
KvPool::chargeGrowthPanic(TokenCount tokens) const
{
    panic("KvPool::chargeGrowth: " + std::to_string(tokens) +
          " tokens of growth do not fit in " +
          std::to_string(gpuFree()) + " free");
}

TokenCount
KvPool::chargedGpuTokens() const
{
    TokenCount sum = 0;
    for (const Entry& e : entries) {
        if (e.tier == KvTier::Gpu)
            sum += chargeFor(e.tokens);
    }
    return sum;
}

KvSlot
KvPool::acquireSlot(RequestId id, TokenCount tokens)
{
    if (id < 0)
        panic("KvPool: negative request id " + std::to_string(id));
    if (tokens < 0)
        panic("KvPool: negative KV size for request " +
              std::to_string(id));
    KvSlot slot;
    if (!freeSlots.empty()) {
        slot = freeSlots.back();
        freeSlots.pop_back();
    } else {
        slot = static_cast<KvSlot>(entries.size());
        entries.emplace_back();
    }
    Entry& e = entries[static_cast<std::size_t>(slot)];
    e.tokens = tokens;
    e.owner = id;
    ++trackedCount;
    return slot;
}

KvSlot
KvPool::allocGpu(RequestId id, TokenCount tokens)
{
    if (!canAllocGpu(tokens))
        panic("KvPool::allocGpu: over capacity for request " +
              std::to_string(id));
    KvSlot slot = acquireSlot(id, tokens);
    entries[static_cast<std::size_t>(slot)].tier = KvTier::Gpu;
    gpuUsedTokens += chargeFor(tokens);
    peakGpuTokens = std::max(peakGpuTokens, gpuUsedTokens);
    ++gpuResidentCount;
    return slot;
}

KvSlot
KvPool::allocCpu(RequestId id, TokenCount tokens)
{
    KvSlot slot = acquireSlot(id, tokens);
    entries[static_cast<std::size_t>(slot)].tier = KvTier::Cpu;
    cpuUsedTokens += chargeFor(tokens);
    return slot;
}

void
KvPool::moveToCpu(KvSlot slot)
{
    Entry& e = lookup(slot);
    if (e.tier != KvTier::Gpu)
        panic("KvPool::moveToCpu: request " + std::to_string(e.owner) +
              " not GPU-resident");
    e.tier = KvTier::Cpu;
    gpuUsedTokens -= chargeFor(e.tokens);
    cpuUsedTokens += chargeFor(e.tokens);
    --gpuResidentCount;
}

void
KvPool::moveToGpu(KvSlot slot)
{
    Entry& e = lookup(slot);
    if (e.tier != KvTier::Cpu)
        panic("KvPool::moveToGpu: request " + std::to_string(e.owner) +
              " not CPU-resident");
    if (chargeFor(e.tokens) > gpuFree())
        panic("KvPool::moveToGpu: over capacity for request " +
              std::to_string(e.owner));
    e.tier = KvTier::Gpu;
    cpuUsedTokens -= chargeFor(e.tokens);
    gpuUsedTokens += chargeFor(e.tokens);
    peakGpuTokens = std::max(peakGpuTokens, gpuUsedTokens);
    ++gpuResidentCount;
}

void
KvPool::release(KvSlot slot)
{
    Entry& e = lookup(slot);
    if (e.tier == KvTier::Gpu) {
        gpuUsedTokens -= chargeFor(e.tokens);
        --gpuResidentCount;
    } else if (e.tier == KvTier::Cpu) {
        cpuUsedTokens -= chargeFor(e.tokens);
    }
    e = Entry{};
    --trackedCount;
    freeSlots.push_back(slot);
}

} // namespace model
} // namespace pascal

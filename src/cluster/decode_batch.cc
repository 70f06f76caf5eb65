#include "src/cluster/decode_batch.hh"

#include <string>

#include "src/common/log.hh"

namespace pascal
{
namespace cluster
{

using workload::Request;

DecodeBatch::DecodeBatch(model::KvPool& pool)
    : pool(pool), blockSize(pool.blockSize()),
      kvOffsets(static_cast<std::size_t>(pool.blockSize()), 0)
{}

void
DecodeBatch::countKv(const Request* r, int sign)
{
    const TokenCount kv = r->kvTokens();
    kvOffsets[offsetBucket(kv)] += static_cast<std::uint32_t>(sign);
    kvTokens += sign * kv;
}

void
DecodeBatch::beginStep(Time t0)
{
    if (eager) {
        for (auto* r : batch)
            r->stampAccrual(t0, workload::BucketKind::Executed);
    } else if (!batch.empty() && t0 != loggedThrough) {
        logStep(t0, false);
    }
}

void
DecodeBatch::reshape(const std::vector<Request*>& decode, Time t0,
                     std::vector<Request*>& leavers,
                     std::vector<Request*>& joiners)
{
    for (std::size_t i = 0; i < decode.size(); ++i) {
        Request* r = decode[i];
        if (r->batchPos == workload::kNotInBatch) {
            r->stampAccrual(t0, workload::BucketKind::Executed);
            r->stretchStart = len;
            countKv(r, 1);
            joiners.push_back(r);
        }
        r->batchPos = static_cast<std::uint32_t>(i);
    }
    // A member that stays now indexes itself in the decode list; a
    // leaver still holds its old index.
    for (auto* r : batch) {
        if (r->batchPos < decode.size() && decode[r->batchPos] == r)
            continue;
        settle(r);
        pool.syncTokens(r->kvSlot, r->kvTokens());
        countKv(r, -1);
        r->batchPos = workload::kNotInBatch;
        leavers.push_back(r);
    }
    batch.assign(decode.begin(), decode.end());
}

void
DecodeBatch::leave(Request* r)
{
    settle(r);
    // Mid-step (a crash) the entry already holds the in-flight token.
    pool.syncTokens(r->kvSlot, r->kvTokens() + (growing ? 1 : 0));
    countKv(r, -1);
    const std::uint32_t pos = r->batchPos;
    batch[pos] = batch.back();
    batch[pos]->batchPos = pos;
    batch.pop_back();
    r->batchPos = workload::kNotInBatch;
}

void
DecodeBatch::clear()
{
    while (!batch.empty())
        leave(batch.back());
}

void
DecodeBatch::growStep()
{
    // A member opens a block iff its KV sits on a block boundary, i.e.
    // (kv - decodeSteps) + decodeSteps == 0 (mod blockSize).
    const auto b = static_cast<std::uint64_t>(blockSize);
    const auto crossing = static_cast<std::size_t>((b - decodeSteps % b) % b);
    pool.chargeGrowth(blockSize *
                      static_cast<TokenCount>(kvOffsets[crossing]));
    growing = true;
}

void
DecodeBatch::logStep(Time end, bool decoded)
{
    if (decoded) {
        ++decodeSteps;
        kvTokens += static_cast<TokenCount>(batch.size());
        growing = false;
    }
    loggedThrough = end;
    if (batch.empty() || eager) {
        len = 0; // Nothing references the log.
        return;
    }
    endTime[len] = end;
    decodedBefore[len + 1] = decodedBefore[len] + (decoded ? 1 : 0);
    if (++len < kLogCapacity)
        return;
    // Full: settle every stretch through this step (whose tokens the
    // members' progress already counts) and start over.
    settleAll();
    for (auto* r : batch)
        r->stretchStart = 0;
    len = 0;
}

void
DecodeBatch::settleAll()
{
    for (auto* r : batch)
        settle(r);
}

void
DecodeBatch::verifyStep(const std::vector<Request*>& decode, InstanceId id)
{
    auto fail = [id](const std::string& what) {
        panic("decode batch of instance " + std::to_string(id) + ": " +
              what);
    };
    if (decode.size() != batch.size())
        fail("holds " + std::to_string(batch.size()) + " members, the "
             "step decodes " + std::to_string(decode.size()));
    TokenCount kv = 0;
    for (auto* r : decode) {
        if (r->batchPos >= batch.size() || batch[r->batchPos] != r)
            fail("request " + std::to_string(r->id()) + " decodes "
                 "outside the batch");
        kv += r->kvTokens();
        pool.syncTokens(r->kvSlot, r->kvTokens() + 1);
    }
    if (kv != kvTokens)
        fail("running KV sum " + std::to_string(kvTokens) + " != " +
             std::to_string(kv));
    if (pool.chargedGpuTokens() != pool.gpuUsed())
        fail("pool charges " + std::to_string(pool.gpuUsed()) +
             " tokens, its entries " +
             std::to_string(pool.chargedGpuTokens()));
}

} // namespace cluster
} // namespace pascal

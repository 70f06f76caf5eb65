/**
 * @file
 * An instance's running decode batch, advanced as a unit.
 *
 * The engine keeps every member's integer progress eager (generated
 * and quantum tokens, one tight loop per step), but the batch's other
 * per-member work is paid per batch or per stretch:
 *
 * - **KV growth.** Each step grows every member's KV by one token; it
 *   opens a block exactly for the members whose KV sits on a block
 *   boundary. A histogram of the members' KV offsets, stored relative
 *   to a step counter (the arithmetic of IntraScheduler's
 *   blockOffsetHist), counts them in O(1), and the pool is charged
 *   once per step (KvPool::chargeGrowth()). A member's pool entry
 *   syncs its logical size when it leaves the batch.
 * - **The KV sum** the step latency model reads is a running total.
 * - **Float state.** A member's accrual buckets and QoE folds settle
 *   from a fixed-capacity step log: each step's end time and whether
 *   it decoded (a prefill pass stalls the batch, which then waits as
 *   Executed without emitting). A member's stretch is the span of
 *   logged steps since it last settled, all Executed and in one phase.
 *   Request::settleStretch() replays it with today's per-step
 *   arithmetic, so settling late changes no bit.
 *
 * A stretch ends, and settles, when its member leaves the batch, at
 * its milestone tokens (</think>, the first answering token, the
 * last), when the log fills, and on request (scoring, the eager
 * reference twin). Members join and leave only at plan builds, their
 * milestones, detaches and crashes, so a reused step costs O(1) here.
 */

#ifndef PASCAL_CLUSTER_DECODE_BATCH_HH
#define PASCAL_CLUSTER_DECODE_BATCH_HH

#include <cstdint>
#include <vector>

#include "src/common/types.hh"
#include "src/model/kv_pool.hh"
#include "src/workload/request.hh"

namespace pascal
{
namespace cluster
{

/** The decode batch of one instance (see file comment). */
class DecodeBatch
{
  public:
    /** Steps the log holds before every stretch is settled. */
    static constexpr std::uint32_t kLogCapacity = 256;

    /** @param pool The instance's KV pool (must outlive the batch). */
    explicit DecodeBatch(model::KvPool& pool);

    /**
     * The eager reference twin (PASCAL_FORCE_ACCRUE): the engine books
     * every member's wall time and token at every step with the calls
     * the log replays (Request::settleAccrual(), foldDecodedToken()),
     * so the log records nothing and a stall is stamped at the start
     * of the step after it.
     */
    void setEager(bool on) { eager = on; }

    /** Members, in no particular order. */
    const std::vector<workload::Request*>& members() const
    {
        return batch;
    }

    /** True if @p r is a member of some decode batch (a request is a
     *  member of its home instance's only). */
    static bool
    contains(const workload::Request* r)
    {
        return r->batchPos != workload::kNotInBatch;
    }

    /**
     * A step starts at @p t0. Log the time since the last logged step
     * as a stall (the members waited, Executed, without emitting), so
     * each member's wall time keeps its per-interval rounding.
     */
    void beginStep(Time t0);

    /**
     * A plan build's decoding step makes @p decode the batch: members
     * outside it leave (appended to @p leavers, settled and synced)
     * and newcomers join (appended to @p joiners) under the Executed
     * stamp at @p t0. Call after beginStep().
     */
    void reshape(const std::vector<workload::Request*>& decode, Time t0,
                 std::vector<workload::Request*>& leavers,
                 std::vector<workload::Request*>& joiners);

    /** @p r leaves the batch: settle its stretch and sync its pool
     *  entry. */
    void leave(workload::Request* r);

    /** Every member leaves. */
    void clear();

    /** Summed KV tokens of the members (the step latency model's
     *  batch KV). */
    TokenCount kvSum() const { return kvTokens; }

    /** A step that decodes the batch starts: charge the pool for the
     *  blocks it opens. Until the step logs (logStep()) or is
     *  abandoned, each member's KV entry holds one more token than its
     *  progress shows. */
    void growStep();

    /** The step that started at beginStep() ended at @p end; @p decoded
     *  says whether the members emitted (each already advanced its
     *  progress by one). */
    void logStep(Time end, bool decoded);

    /** The abandoned step (crash) will never log. */
    void abandonStep() { growing = false; }

    /** Settle @p r's stretch through the last logged step. */
    void
    settle(workload::Request* r)
    {
        r->settleStretch(endTime.data(), decodedBefore.data(),
                         r->stretchStart, len);
        r->stretchStart = len;
    }

    /** Settle every member through the last logged step. */
    void settleAll();

    /**
     * Eager reference check of a decoding step whose growth was just
     * charged (the PASCAL_FORCE_ACCRUE twin): the batch is exactly
     * @p decode, the running KV sum equals the members' summed KV,
     * and, with every member's pool entry synced to its grown size,
     * the pool's charge recomputed entry by entry equals its charged
     * total. Panics naming instance @p id otherwise.
     */
    void verifyStep(const std::vector<workload::Request*>& decode,
                    InstanceId id);

  private:
    /** Histogram bucket of a member with @p kv tokens now. */
    std::size_t
    offsetBucket(TokenCount kv) const
    {
        const auto b = static_cast<std::uint64_t>(blockSize);
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(kv) % b + b - decodeSteps % b) % b);
    }

    /** Count @p r in (or, @p sign -1, out of) the KV histogram and
     *  sum. */
    void countKv(const workload::Request* r, int sign);

    model::KvPool& pool;
    const TokenCount blockSize;

    std::vector<workload::Request*> batch;

    /** Members by (KV - decodeSteps) mod blockSize. */
    std::vector<std::uint32_t> kvOffsets;
    /** Decoding steps completed (the histogram's phase). */
    std::uint64_t decodeSteps = 0;
    TokenCount kvTokens = 0;
    bool growing = false;
    bool eager = false;

    /** @name Step log */
    /** @{ */
    std::vector<Time> endTime = std::vector<Time>(kLogCapacity);
    /** decodedBefore[i]: decoding steps among the first i. */
    std::vector<std::uint32_t> decodedBefore =
        std::vector<std::uint32_t>(kLogCapacity + 1);
    std::uint32_t len = 0;
    /** End of the last logged step (or stall). */
    Time loggedThrough = 0.0;
    /** @} */
};

} // namespace cluster
} // namespace pascal

#endif // PASCAL_CLUSTER_DECODE_BATCH_HH

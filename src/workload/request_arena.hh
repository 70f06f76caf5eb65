/**
 * @file
 * RequestArena: contiguous ownership of a run's Request objects.
 *
 * A simulated run materializes one mutable Request per trace spec. The
 * original per-request unique_ptr heap nodes made every grid point of
 * a sweep pay one allocation (plus pointer-chasing cache misses) per
 * request — the dominant setup cost on million-request grids. The
 * arena instead constructs each submitted trace's Requests in a single
 * contiguous chunk sized up front, so submission is one allocation per
 * trace and every metrics pass walks memory linearly.
 *
 * Pointer stability: each chunk is reserved to its final size before
 * any Request is constructed and never grows afterwards, so raw
 * Request* handed to instances/schedulers stay valid for the arena's
 * lifetime (chunks are only destroyed with the arena, or explicitly
 * recycled once the owner proves every request in them is finished
 * and will never be dereferenced again).
 *
 * Recycling: a long-lived cluster that ingests thousands of traces
 * would otherwise hold every Request (and its per-token emission
 * vector) until teardown. recycleChunk() frees a fully-finished
 * chunk's storage so resident memory stays bounded by *live*
 * requests; the owner is responsible for harvesting anything it still
 * needs (the Cluster scores a chunk into compact RequestMetrics rows
 * first).
 */

#ifndef PASCAL_WORKLOAD_REQUEST_ARENA_HH
#define PASCAL_WORKLOAD_REQUEST_ARENA_HH

#include <cstddef>
#include <vector>

#include "src/workload/request.hh"
#include "src/workload/trace.hh"

namespace pascal
{
namespace workload
{

/** Chunked contiguous Request storage (see file comment). */
class RequestArena
{
  public:
    /**
     * Construct one Request per spec of @p trace in a fresh
     * contiguous chunk. @return The chunk, for arrival-event wiring;
     * element pointers are stable for the arena's lifetime.
     */
    std::vector<Request>&
    addChunk(const Trace& trace)
    {
        chunks.emplace_back();
        std::vector<Request>& chunk = chunks.back();
        chunk.reserve(trace.size());
        for (const auto& spec : trace.requests)
            chunk.emplace_back(spec);
        total += chunk.size();
        return chunk;
    }

    /** Total requests across all chunks (recycled ones included). */
    std::size_t size() const { return total; }

    /** Number of submitted traces. */
    std::size_t numChunks() const { return chunks.size(); }

    /** Requests of chunk @p idx (empty once recycled). */
    const std::vector<Request>&
    chunk(std::size_t idx) const
    {
        return chunks[idx];
    }

    std::vector<Request>&
    chunk(std::size_t idx)
    {
        return chunks[idx];
    }

    /**
     * Free chunk @p idx's storage (all its Requests are destroyed).
     * The caller must guarantee no pointer into the chunk is ever
     * dereferenced again. Idempotent.
     */
    void
    recycleChunk(std::size_t idx)
    {
        if (chunks[idx].empty())
            return;
        // swap-with-empty actually releases the capacity (clear()
        // would keep it).
        std::vector<Request>().swap(chunks[idx]);
        ++recycled;
    }

    /** Chunks released by recycleChunk() (memory-bounding stat). */
    std::size_t numRecycledChunks() const { return recycled; }

  private:
    std::vector<std::vector<Request>> chunks;
    std::size_t total = 0;
    std::size_t recycled = 0;
};

} // namespace workload
} // namespace pascal

#endif // PASCAL_WORKLOAD_REQUEST_ARENA_HH

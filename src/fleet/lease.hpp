/**
 * @file
 * The fleet's persisted lease table (DESIGN.md §15): one sealed JSON
 * file per chunk shard, every transition serialized by a flock on
 * leases/LOCK and made durable by temp-file-plus-rename — the same
 * crash discipline as the corpus store, so a lease file is never
 * observable half-written.
 *
 * Lifecycle: available → claimed (epoch++) → done. A claimed lease
 * returns to the pool two ways: its owner pid is dead (coordinator
 * reap, or observed dead at claim time), or its age exceeded
 * kLeaseTtlMs (backstop for unreapable owners). Every claim increments
 * the epoch, and complete() refuses a payload whose epoch is stale —
 * the fencing that keeps a TTL reclaim harmless even when it races a
 * slow but live owner. (Results are deterministic, so whichever
 * completion wins carries the same bytes; fencing just keeps the
 * authority unambiguous.)
 *
 * The done payload carries everything the merge needs from the lease:
 * the campaign.* counter *deltas* its run contributed, the summed
 * stage microseconds, and the findings in its chunk range — so the
 * merged campaign is a pure fold over done leases, independent of
 * which worker (or how many) ran them.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "corpus/store.hpp"

namespace dce::fleet {

enum class LeaseState { Available, Claimed, Done };

/** A claimed lease older than this is runnable even if its owner
 * still looks alive — the crash backstop for owners the coordinator
 * cannot reap (e.g. after a coordinator restart). */
constexpr uint64_t kLeaseTtlMs = 120000;

const char *leaseStateName(LeaseState state);

/** A finding located by plan position (chunk, slot) — enough to
 * rebuild the StoredFinding deterministically at merge time. */
struct LeaseFinding {
    uint64_t chunk = 0;
    uint64_t slot = 0;
    uint64_t seed = 0;
    unsigned marker = 0;
};

struct Lease {
    uint64_t index = 0;
    uint64_t beginChunk = 0; ///< inclusive
    uint64_t endChunk = 0;   ///< exclusive
    uint64_t epoch = 0;      ///< bumped by every claim
    LeaseState state = LeaseState::Available;
    int64_t ownerPid = 0;
    std::string store;   ///< claiming worker's store name
    uint64_t claimMs = 0; ///< monotonicMs() at claim

    //===-- done payload -----------------------------------------------===//

    /** campaign.* counter deltas this lease's run contributed (sorted
     * by key; zero deltas kept so key sets match across leases). */
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<LeaseFinding> findings;
};

/**
 * The on-disk lease table. Stateless handle — every operation reads
 * the lease files fresh under the table flock, so any number of
 * processes can hold a LeaseTable on the same fleet directory.
 */
class LeaseTable {
  public:
    /** Create leases/ and any missing lease files covering
     * [0, num_chunks) in granules of @p lease_chunks. Existing lease
     * files are left untouched (resume keeps done work). */
    static bool init(const std::string &fleet_dir, uint64_t num_chunks,
                     uint64_t lease_chunks,
                     corpus::StoreError *error = nullptr);

    explicit LeaseTable(std::string fleet_dir)
        : fleetDir_(std::move(fleet_dir))
    {
    }

    /** Snapshot every lease, sorted by index. */
    std::optional<std::vector<Lease>>
    list(corpus::StoreError *error = nullptr) const;

    /**
     * Claim the lowest-index runnable lease for (@p pid, @p store):
     * available, claimed by a dead pid, or claimed longer ago than
     * kLeaseTtlMs. nullopt with error Ok when nothing is runnable
     * right now.
     */
    std::optional<Lease> claim(int64_t pid, const std::string &store,
                               corpus::StoreError *error = nullptr);

    /**
     * Mark @p lease done with its payload — unless the table's copy
     * has moved past @p lease's epoch (stolen), in which case the
     * payload is discarded and *stolen is set. Returns false only on
     * table I/O failure.
     */
    bool complete(const Lease &lease, bool *stolen = nullptr,
                  corpus::StoreError *error = nullptr);

    /** Return every lease claimed by @p pid to the pool (coordinator
     * reap path). Returns the number reclaimed. */
    std::optional<size_t>
    reclaimOwnedBy(int64_t pid, corpus::StoreError *error = nullptr);

  private:
    std::string fleetDir_;
};

} // namespace dce::fleet

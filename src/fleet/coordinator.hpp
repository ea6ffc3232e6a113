/**
 * @file
 * The fleet coordinator (DESIGN.md §15): shards a CampaignPlan into
 * the persisted lease table, spawns N worker *processes*, supervises
 * them (SIGCHLD-aware reaping via a self-pipe; a crashed worker's
 * leases return to the pool and a replacement is spawned with a fresh
 * store), and — once every lease is done — runs the deterministic
 * merge. Each lease scan sets the campaign.progress gauges in
 * FleetOptions::metrics from the done leases, as runCheckpointed does
 * at a checkpoint. Implements serve::FleetOpsSource so the ops server
 * fronts the whole fleet: /metrics and /progress fold the workers'
 * registry dumps into that registry, /fleet lists workers and leases.
 *
 * Respawned workers always get a *fresh* store (worker.<seq> with a
 * monotonically increasing seq): a dead worker's store may hold a
 * checkpoint that already covers part of a reclaimed lease, and
 * re-running against it would make that lease's counter deltas
 * reflect only the missing chunks. A fresh store makes every lease
 * delta complete; the dead store's durable chunks are simply re-run
 * (the price of a crash, same as the single-process resume contract).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "corpus/checkpoint.hpp"
#include "fleet/fleet.hpp"
#include "fleet/lease.hpp"
#include "fleet/merge.hpp"
#include "serve/ops_server.hpp"

namespace dce::fleet {

struct FleetOptions {
    unsigned workers = 2;
    /** Chunks per lease; 0 = auto (aim for ~4 leases per worker so
     * a straggler leaves work for idle workers). */
    uint64_t leaseChunks = 0;
    unsigned workerCheckpointEveryChunks = 4;
    /**
     * Spawn workers by fork+exec of this argv (the fleet dir and
     * store name are appended); empty = fork and run the worker loop
     * in-process, which is safe because ThreadPool(1) runs inline —
     * a forked worker never touches inherited threads.
     */
    std::vector<std::string> workerExecArgv;
    /** Crash drill: the first spawned worker dies by SIGKILL after
     * this many chunk commits mid-lease (fork mode only). */
    uint64_t crashFirstWorkerAfterChunks = 0;
    /** Registry for the fleet.* counters and the fleet-wide
     * campaign.progress gauges; null = none recorded. */
    support::MetricsRegistry *metrics = nullptr;
    /** Fleet-wide tracing (DESIGN.md §17): persisted into PLAN.json so
     * every worker traces itself; after the run the coordinator folds
     * traces/ into mergedTracePath() with mergeTraces(). */
    bool trace = false;
    /** Sink for supervision log lines (worker died, lease reclaimed);
     * null = silent. */
    std::function<void(const std::string &)> logLine;
};

struct FleetResult {
    corpus::CheckpointedCampaign merged;
    std::string mergedStoreDir;
    uint64_t leases = 0;
    uint64_t workersSpawned = 0;
    uint64_t workersCrashed = 0;
    uint64_t leasesReclaimed = 0;
    /** When tracing: mergedTracePath() and how many per-process trace
     * files landed in it. Empty path / 0 when tracing was off or the
     * merge found nothing usable (the run itself still succeeds). */
    std::string mergedTracePath;
    uint64_t traceFiles = 0;
};

class FleetCoordinator final : public serve::FleetOpsSource {
  public:
    FleetCoordinator(std::string fleet_dir, corpus::CampaignPlan plan,
                     FleetOptions options = {});
    ~FleetCoordinator() override;

    FleetCoordinator(const FleetCoordinator &) = delete;
    FleetCoordinator &operator=(const FleetCoordinator &) = delete;

    /**
     * Run the fleet to completion: init PLAN.json + leases (resuming
     * an existing fleet directory iff its plan matches — PlanMismatch
     * otherwise), spawn + supervise workers, merge. nullopt +
     * classified @p error on failure (including a stalled fleet whose
     * respawn budget ran out).
     */
    std::optional<FleetResult>
    run(corpus::StoreError *error = nullptr);

    const FleetConfig &config() const { return config_; }

    //===-- serve::FleetOpsSource --------------------------------------===//

    void
    mergeWorkerMetrics(support::MetricsRegistry &into) const override;
    std::string fleetJson() const override;

  private:
    struct WorkerProc {
        pid_t pid = -1;
        std::string store;
        bool alive = false;
        bool crashed = false;
    };

    bool initFleetDir(corpus::StoreError *error);
    bool spawnWorker(uint64_t crash_after_chunks,
                     corpus::StoreError *error);
    void recordScan(const std::vector<Lease> &leases);
    void log(const std::string &line) const;

    std::string fleetDir_;
    corpus::CampaignPlan plan_;
    FleetOptions options_;
    FleetConfig config_;
    std::string planJson_;

    // Shared with ops-server handler threads.
    mutable std::mutex mutex_;
    std::vector<Lease> lastLeases_;
    std::vector<WorkerProc> workers_;
    uint64_t nextWorkerSeq_ = 0;
    uint64_t spawned_ = 0;
    uint64_t crashed_ = 0;
    uint64_t reclaimed_ = 0;
};

} // namespace dce::fleet

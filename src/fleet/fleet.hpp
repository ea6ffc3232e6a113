/**
 * @file
 * Shared state of a multi-process campaign fleet (DESIGN.md §15): the
 * sealed PLAN.json every fleet process reads, and the directory layout
 * that ties a coordinator, its worker processes, and the merge step to
 * one on-disk fleet.
 *
 * Layout under the fleet directory:
 *
 *     PLAN.json            sealed FleetConfig (plan + shard geometry)
 *     leases/LOCK          flock serializing every lease transition
 *     leases/lease.<k>.json  one sealed lease per chunk shard
 *     worker.<seq>/store/  that worker process's private CorpusStore
 *     worker.<seq>/metrics.json  its latest sealed registry dump
 *     merged/              the merged store (written by mergeFleet)
 *
 * PLAN.json is written once by the coordinator and is immutable for
 * the fleet's lifetime; a coordinator restarted on an existing fleet
 * directory must present the same plan (PlanMismatch otherwise), the
 * same contract runCheckpointed enforces per store.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "corpus/checkpoint.hpp"
#include "corpus/store.hpp"

namespace dce::fleet {

/**
 * Everything that determines a fleet's sharding — persisted so worker
 * processes and late merges reconstruct the exact shard geometry from
 * the fleet directory alone. The campaign plan rides along verbatim;
 * the remaining fields are fleet-level knobs that must agree across
 * every process touching the fleet.
 */
struct FleetConfig {
    corpus::CampaignPlan plan;
    /** Chunks per lease (the shard granule). */
    uint64_t leaseChunks = 1;
    /** CheckpointRunOptions::checkpointEveryChunks for workers. */
    unsigned workerCheckpointEveryChunks = 4;
    /** Fleet-wide tracing (DESIGN.md §17): every worker enables its
     * global Tracer tagged with its real pid + worker name and writes
     * traces/<store>.trace.json at exit; the coordinator writes its
     * own span file and folds them with mergeTraces(). Persisted so
     * fork+exec workers pick it up from PLAN.json alone. */
    bool trace = false;

    uint64_t numLeases() const;
};

std::string planPath(const std::string &fleet_dir);
std::string leasesDir(const std::string &fleet_dir);
std::string leasePath(const std::string &fleet_dir, uint64_t index);
std::string leaseLockPath(const std::string &fleet_dir);
std::string workerDir(const std::string &fleet_dir,
                      const std::string &store_name);
std::string workerStoreDir(const std::string &fleet_dir,
                           const std::string &store_name);
std::string workerMetricsPath(const std::string &fleet_dir,
                              const std::string &store_name);
std::string mergedStoreDir(const std::string &fleet_dir);
/** <fleet-dir>/traces — per-process Chrome trace files. */
std::string tracesDir(const std::string &fleet_dir);
std::string workerTracePath(const std::string &fleet_dir,
                            const std::string &store_name);
std::string coordinatorTracePath(const std::string &fleet_dir);
/** The mergeTraces() output: one Perfetto-loadable timeline. */
std::string mergedTracePath(const std::string &fleet_dir);

/** CLOCK_MONOTONIC milliseconds — lease ages are compared across
 * processes on one host, where the monotonic clock is shared. */
uint64_t monotonicMs();

/** Write PLAN.json (sealed, through corpus::writeFileAtomic). */
bool writeFleetConfig(const std::string &fleet_dir,
                      const FleetConfig &config,
                      corpus::StoreError *error = nullptr);

/** Read + verify PLAN.json. Classified NotFound when absent, Corrupt
 * on seal/shape damage. */
std::optional<FleetConfig>
readFleetConfig(const std::string &fleet_dir,
                corpus::StoreError *error = nullptr);

} // namespace dce::fleet

/**
 * @file
 * The fleet worker loop (DESIGN.md §15): claim a lease, run exactly
 * its chunk range against this worker's private store via
 * CheckpointRunOptions::chunkFilter, record the lease's campaign.*
 * counter deltas + findings as the done payload, publish a metrics
 * dump, repeat until every lease is done.
 *
 * Runs in-process after a fork (the test path — ThreadPool(1) runs
 * inline, so a forked worker never touches inherited threads) or as
 * the body of a dedicated exec'd process (longrun's hidden
 * `fleet-worker` mode).
 */
#pragma once

#include <cstdint>
#include <string>

namespace dce::fleet {

struct FleetWorkerOptions {
    /**
     * Crash drill hook: after this many chunk commits in the first
     * lease run, die by SIGKILL *without* completing the lease —
     * byte-for-byte what a mid-lease machine crash leaves behind
     * (claimed lease, half-checkpointed store). 0 = run normally.
     */
    uint64_t crashAfterChunks = 0;
};

/**
 * Run the worker loop for the fleet at @p fleet_dir, using
 * worker.<store_name>/ for its store and metrics dump. Returns a
 * process exit code: 0 once every lease is done, 1 on any classified
 * failure (printed to stderr).
 */
int runFleetWorker(const std::string &fleet_dir,
                   const std::string &store_name,
                   const FleetWorkerOptions &options = {});

} // namespace dce::fleet

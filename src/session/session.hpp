/**
 * @file
 * One campaign session (DESIGN.md §22): the long-running campaign as
 * a library call. Session::run opens and locks the store and pins its
 * plan, starts the event log, the one report::Liveness sampler and,
 * when asked, the ops server, and runs one of two backends:
 * in-process corpus::runCheckpointed against the store at `dir`, or —
 * when fleetWorkers > 0 — a fleet::FleetCoordinator that shards the
 * plan across worker processes under the fleet directory `dir` and
 * merges their stores (DESIGN.md §15). One tail then reads only the
 * result store (the single one, or the fleet's merged one): the
 * metamorphic analysis and its triage, the event log, the campaign
 * report and the deterministic summary, which is flushed before a
 * serveWait hold begins. A merged store is indistinguishable from a
 * single-process one, so both backends print the same summary and
 * render the same report, metamorphic block included.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "corpus/checkpoint.hpp"

namespace dce::session {

enum class Mode {
    Full,   ///< run the plan to completion
    Run,    ///< run, optionally halting after haltChunks (crash drill)
    Resume, ///< continue the plan the store's checkpoint pins
};

/** One field per `longrun` value (examples/longrun.cpp). Every field
 * has a default member initializer, so callers can name only the
 * fields they set. */
struct SessionOptions {
    Mode mode = Mode::Full;
    /** The store directory, or the fleet directory under a fleet. */
    std::string dir = {};
    /** Mode::Run: stop after this many chunk commits (0 = never). */
    uint64_t haltChunks = 0;
    /** Deterministic event log (JSONL); in-process only, since a
     * fleet's campaign events happen in its worker processes. */
    std::string eventsPath = {};
    /** Liveness JSONL: one metrics snapshot per sample. */
    std::string metricsPath = {};
    /** report.md, report.html and dossiers, rendered from the store. */
    std::string reportDir = {};
    /** Chrome-trace spans; a fleet traces every process and copies the
     * merged timeline here. */
    std::string tracePath = {};
    /** Liveness cadence. */
    uint64_t sampleMs = 500;
    /** Add the wall-clock "Pipeline latency" report section, which is
     * NOT byte-reproducible. */
    bool latencyReport = false;
    /** Serve the ops endpoints on loopback servePort (0 = ephemeral,
     * printed on stderr). */
    bool serve = false;
    uint16_t servePort = 0;
    /** After the summary, hold the endpoints until GET /quitquitquit. */
    bool serveWait = false;
    /** > 0: the fleet backend with this many worker processes. */
    unsigned fleetWorkers = 0;
    /** > 0: once the campaign completes, the metamorphic analysis with
     * this many variants per program. */
    unsigned equivVariants = 0;
};

struct Session {
    /** Pinned into a fresh store; a resume runs the checkpoint's. */
    corpus::CampaignPlan plan;
    SessionOptions options;
    /** How the fleet starts a worker (the fleet dir and store name are
     * appended); empty = fork and run the worker loop in-process. */
    std::vector<std::string> workerArgv = {};

    /** Run the session, printing the summary (or a "halted after N
     * chunks" line) to @p out and errors to stderr. Returns the exit
     * code: 0 on success, a halted run included; 1 on failure,
     * classified into @p error when the store is at fault. */
    int run(std::FILE *out = stdout,
            corpus::StoreError *error = nullptr) const;
};

} // namespace dce::session

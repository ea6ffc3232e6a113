/**
 * @file
 * Crash-safe campaign checkpoint/resume on top of CorpusStore
 * (DESIGN.md §11). A CampaignPlan pins everything that determines the
 * campaign's output — seed derivation, builds, generator config,
 * chunk granule — and runCheckpointed executes it chunk by chunk,
 * committing each finished chunk's records to the store and
 * periodically writing a checkpoint naming the completed chunks, the
 * RNG stream state at the contiguous watermark, the deterministic
 * campaign counters, and the findings so far.
 *
 * The recovery contract: kill the process at any point, run the plan
 * the store's checkpoint pins (readCheckpointState) against the same
 * store, and the finished campaign — records, findings list,
 * killer-pass histograms, deterministic metrics summary — is
 * byte-identical to an uninterrupted run at any thread count. That
 * holds because (a) chunks are pure functions of the plan, (b) a
 * chunk's metrics are confined to a chunk-local registry until its
 * commit, so checkpointed counters reflect exactly the committed
 * chunks, and (c) the store flushes before each checkpoint, so a
 * checkpoint never names undurable state. Chunks committed after the
 * last checkpoint are simply re-run on resume.
 */
#pragma once

#include <climits>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"
#include "core/triage.hpp"
#include "corpus/store.hpp"
#include "support/events.hpp"
#include "support/json.hpp"

namespace dce::corpus {

/**
 * Everything that determines a checkpointable campaign's output.
 * Serialized into every checkpoint; resuming against a store whose
 * checkpoint pins a different plan is a PlanMismatch error.
 */
struct CampaignPlan {
    /** Seed derivation: sequential [firstSeed, firstSeed + count), or
     * — when randomSeeds — count draws from an Rng(streamSeed)
     * stream, which exercises the checkpointed RNG state. */
    uint64_t firstSeed = 0;
    uint64_t count = 0;
    bool randomSeeds = false;
    uint64_t streamSeed = 0;
    /** Scheduling granule in seeds. Part of the plan (not a tuning
     * knob): chunk identity is the unit of commitment and resume. */
    unsigned chunkSize = 16;

    std::vector<core::BuildSpec> builds;
    bool computePrimary = true;
    bool collectRemarks = false;
    gen::GenConfig generator;

    /** Finding extraction pair (indices into builds); SIZE_MAX
     * disables extraction. */
    size_t missedByBuild = SIZE_MAX;
    size_t referenceBuild = SIZE_MAX;
    unsigned maxFindings = UINT_MAX;

    /** Chunks covering the plan (a chunkSize of 0 counts as 1). */
    uint64_t numChunks() const;
};

/** Canonical JSON form of @p plan (checkpoint field / equality). */
std::string serializePlan(const CampaignPlan &plan);
std::optional<CampaignPlan> readPlan(const support::JsonValue &value);

/**
 * Raise counter `name{label}` in @p registry to @p target (monotonic
 * set-to-value; a lower target is a no-op). The campaign.progress
 * gauges ride the counter machinery: runCheckpointed sets them at each
 * checkpoint and the fleet coordinator at each lease scan, and they
 * are the registry's live progress that /metrics and /progress read
 * (DESIGN.md §14).
 */
void bumpCounterTo(support::MetricsRegistry &registry,
                   std::string_view name, std::string_view label,
                   uint64_t target);

struct CheckpointRunOptions {
    /** Worker threads; 1 = serial, 0 = one per hardware thread.
     * Never affects the result. */
    unsigned threads = 1;
    /** Checkpoint cadence in committed chunks. */
    unsigned checkpointEveryChunks = 4;
    /**
     * Test hook simulating a crash: stop claiming chunks after this
     * many commits this run (0 = run to completion). The returned
     * result has completed = false; a subsequent run picks up from
     * the last checkpoint exactly as a killed process would.
     */
    uint64_t haltAfterChunks = 0;
    /** Registry for campaign.* / corpus.* metrics; null = a fresh
     * internal registry (resume restores checkpointed counters into
     * it, so passing the global would double-count). */
    support::MetricsRegistry *metrics = nullptr;
    /**
     * Sink for the structured event log (DESIGN.md §12):
     * campaign_started, finding_discovered, chunk_committed,
     * checkpoint_written, campaign_finished. Every event is keyed by
     * plan position, so a complete run's log is byte-identical across
     * thread counts. Null = no events.
     */
    support::EventSink *events = nullptr;
    /**
     * Restrict this run to the chunks the filter accepts — how a
     * fleet worker runs exactly its leased chunk range against its
     * own store (DESIGN.md §15). Chunks outside the filter are
     * neither executed nor waited for: the run writes its final
     * checkpoint once every *eligible* chunk (filter-accepted plus
     * already-committed) is committed, so a filtered run still ends
     * checkpoint-consistent. Null = every chunk, exactly the
     * pre-fleet behaviour. Determinism is untouched — a chunk's
     * output never depends on which run (or process) computed it.
     */
    std::function<bool(uint64_t)> chunkFilter;
};

/** A finding plus where it came from (checkpoint bookkeeping). */
struct StoredFinding {
    uint64_t chunk = 0;
    uint64_t slot = 0;
    core::Finding finding;
};

/**
 * Everything a checkpoint pins, parsed back out of checkpoint.json.
 * This is the state runCheckpointed resumes from, exposed so the
 * report layer can reconstruct a campaign — plan, findings,
 * deterministic counters — from a store alone (even one whose run was
 * killed and never resumed).
 */
struct CheckpointState {
    CampaignPlan plan;
    std::set<uint64_t> completed; ///< committed chunk indices
    uint64_t watermark = 0; ///< contiguous completed-chunk prefix
    uint64_t rngState = 0;  ///< Rng stream state at the watermark
    /** The checkpointed campaign.* counters (deterministic subset). */
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<StoredFinding> findings;
};

/**
 * Parse the store's checkpoint. Classified NoCheckpoint when none
 * exists, Corrupt when it fails its checksum or shape.
 */
std::optional<CheckpointState>
readCheckpointState(CorpusStore &store, StoreError *error = nullptr);

/**
 * Build (and CRC-seal) the checkpoint line naming the given committed
 * state — byte-for-byte the line runCheckpointed writes. Exposed so
 * the fleet merge can give a merged store a checkpoint
 * indistinguishable from a single-process run's: same field order,
 * same campaign.*-only counter filter (sorted by key), same sealed
 * framing. @p findings is keyed by chunk; entries serialize in
 * (chunk, slot) order.
 */
std::string encodeCheckpointJson(
    const std::string &plan_json, const std::set<uint64_t> &completed,
    uint64_t watermark, uint64_t rng_state,
    const support::MetricsRegistry &registry,
    const std::map<uint64_t, std::vector<StoredFinding>> &findings);

struct CheckpointedCampaign {
    core::Campaign campaign;
    std::vector<core::Finding> findings;
    bool resumed = false;   ///< started from an existing checkpoint
    bool completed = false; ///< false after a haltAfterChunks stop
    uint64_t chunksLoaded = 0; ///< restored from the store
    uint64_t chunksRun = 0;    ///< executed this run
    /** The registry the run recorded into: the caller's, or the
     * internally-created one when options.metrics was null. */
    support::MetricsRegistry *metrics = nullptr;
    std::shared_ptr<support::MetricsRegistry> ownedMetrics;
};

/**
 * Run (or continue) @p plan against @p store. Picks up from the
 * store's checkpoint when one exists — PlanMismatch if it pins a
 * different plan. nullopt + classified @p error on store failure.
 */
std::optional<CheckpointedCampaign>
runCheckpointed(CorpusStore &store, const CampaignPlan &plan,
                const CheckpointRunOptions &options = {},
                StoreError *error = nullptr);

/**
 * Deterministic summary of a finished campaign: build names, corpus
 * totals, findings, per-build killer histograms, and the campaign.*
 * counters — everything the resume bit-identity contract covers, and
 * nothing timing-dependent. Byte-equal across kill/resume schedules
 * and thread counts; the CI kill-and-resume step diffs exactly this.
 */
std::string summaryText(const CheckpointedCampaign &result);

} // namespace dce::corpus

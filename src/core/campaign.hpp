/**
 * @file
 * Campaign driver: runs the whole Figure-1 pipeline — generate,
 * instrument, execute for ground truth, compile under a set of
 * compiler builds, and collect alive/missed/primary marker sets — over
 * a seeded corpus. The benches build every table of the paper's §4
 * from the records this produces.
 *
 * The execution engine (CampaignRunner) shards the seed range across a
 * thread pool. Each seed is a pure function of (seed, builds, options)
 * and writes its ProgramRecord into a pre-sized slot, so results are
 * bit-identical to a serial run regardless of thread count or
 * scheduling (DESIGN.md §8). Per-build results are addressed by
 * BuildId handles — indices into the campaign's build list — instead
 * of compiler-name strings.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis.hpp"
#include "gen/generator.hpp"
#include "support/events.hpp"
#include "support/metrics.hpp"

namespace dce::core {

/** One compiler build participating in a campaign. */
struct BuildSpec {
    compiler::CompilerId id;
    compiler::OptLevel level;
    size_t commit = SIZE_MAX; ///< SIZE_MAX = head

    compiler::Compiler
    make() const
    {
        return compiler::Compiler(id, level, commit);
    }
    /** The commit index with SIZE_MAX resolved to the head commit. */
    size_t resolvedCommit() const;
    /** e.g. "alpha-O3@a3f9c21"; computed from the spec tables without
     * constructing a Compiler. Equals make().describe(). */
    std::string name() const;

    friend bool
    operator==(const BuildSpec &a, const BuildSpec &b)
    {
        return a.id == b.id && a.level == b.level &&
               a.resolvedCommit() == b.resolvedCommit();
    }
};

/**
 * Handle to one build of a campaign: its index in the campaign's build
 * list. Obtained from Campaign::findBuild / Campaign::idOf or by
 * position in the vector passed to the runner; valid only against the
 * campaign (or runner) it came from.
 */
struct BuildId {
    size_t index = SIZE_MAX;

    bool valid() const { return index != SIZE_MAX; }
    friend bool operator==(BuildId, BuildId) = default;
};

/**
 * Why a seed's program was excluded from the corpus. Classified from
 * the ground-truth execution (plus an after-the-fact verifier check on
 * the failure path only, so the valid-seed hot path pays nothing).
 */
enum class InvalidReason {
    None,           ///< the program is valid
    Timeout,        ///< exceeded the interpreter step budget
    Trap,           ///< undefined behaviour during execution
    NoEntry,        ///< no runnable main (generator bug)
    VerifierReject, ///< the O0 lowering failed IR verification
};

/** Stable label for @p reason (metrics key / reports). */
const char *invalidReasonName(InvalidReason reason);

/**
 * One attributed marker elimination: which pass removed the last call
 * to the marker, and where in the pipeline it sat. `pass` is
 * "lowering" (passIndex 0) for markers the front end already dropped
 * at O0 — no optimization pass ever saw them.
 */
struct MarkerKill {
    unsigned marker = 0;
    std::string pass;
    unsigned passIndex = 0;

    friend bool
    operator==(const MarkerKill &, const MarkerKill &) = default;
};

/** Everything recorded about one corpus program. */
struct ProgramRecord {
    uint64_t seed = 0;
    unsigned markerCount = 0;
    bool valid = false; ///< executed cleanly; only valid records count
    /** Why the record is invalid; None when valid. */
    InvalidReason invalidReason = InvalidReason::None;
    std::set<unsigned> trueAlive;
    std::set<unsigned> trueDead;
    /** Alive-in-assembly sets, indexed by BuildId. */
    std::vector<std::set<unsigned>> alive;
    /** Missed dead markers per build, indexed by BuildId. */
    std::vector<std::set<unsigned>> missed;
    /** Primary missed subset per build; empty vector unless the
     * campaign ran with computePrimary. */
    std::vector<std::set<unsigned>> primary;
    /** Killer-pass attribution per build for every marker the build
     * eliminated (trueDead ∖ missed), sorted by marker; empty vector
     * unless the campaign ran with collectRemarks. */
    std::vector<std::vector<MarkerKill>> kills;

    const std::set<unsigned> &
    aliveFor(BuildId build) const
    {
        return alive[build.index];
    }
    const std::set<unsigned> &
    missedFor(BuildId build) const
    {
        return missed[build.index];
    }
    const std::set<unsigned> &
    primaryFor(BuildId build) const
    {
        return primary[build.index];
    }
    const std::vector<MarkerKill> &
    killsFor(BuildId build) const
    {
        return kills[build.index];
    }

    friend bool
    operator==(const ProgramRecord &, const ProgramRecord &) = default;
};

/**
 * Progress snapshot delivered to a campaign observer. Observers are
 * invoked under a lock, after each completed seed, from whichever
 * worker finished it; seedsDone increases by exactly one per call.
 */
struct CampaignProgress {
    uint64_t seedsDone = 0;  ///< completed so far (this call included)
    uint64_t seedsTotal = 0; ///< corpus size
    uint64_t invalidPrograms = 0; ///< failed ground-truth execution
    uint64_t cacheHits = 0;       ///< lowering-cache hits so far
    uint64_t cacheMisses = 0;     ///< lowering-cache misses so far
};

using CampaignObserver = std::function<void(const CampaignProgress &)>;

/**
 * Timing summary for one finished campaign. Everything else that used
 * to live here — invalid counts, cache accounting, per-stage wall time
 * — is recorded in the campaign's MetricsRegistry under the
 * `campaign.*` keys (DESIGN.md §9):
 *
 *   campaign.seeds                       seeds processed
 *   campaign.invalid{<reason>}           invalid seeds by InvalidReason
 *   campaign.cache_hits / cache_misses   lowering-cache accounting
 *   campaign.stage_us{<stage>}           histogram, per-seed stage µs
 *   campaign.markers_eliminated{<build>} trueDead ∖ missed per build
 */
struct CampaignMetrics {
    uint64_t seedsDone = 0;
    double wallSeconds = 0; ///< end-to-end, not summed across workers

    double
    seedsPerSecond() const
    {
        return wallSeconds > 0 ? double(seedsDone) / wallSeconds : 0;
    }
};

struct CampaignOptions {
    bool computePrimary = false;
    /** Collect per-build killer-pass attribution (ProgramRecord::
     * kills) from optimization remarks. Off by default: the remark
     * census walks the module after every pass. */
    bool collectRemarks = false;
    gen::GenConfig generator;
    /** Worker threads; 1 = serial (fully inline), 0 = one per
     * hardware thread. Thread count never changes the records. */
    unsigned threads = 1;
    /** Seeds per scheduling chunk; 0 picks a size that gives each
     * worker several chunks for load balancing. */
    unsigned chunkSize = 0;
    /** Optional progress callback; see CampaignProgress. */
    CampaignObserver observer;
    /** Registry receiving the campaign.* metrics; null = the process
     * global. Tests that assert exact totals pass their own. */
    support::MetricsRegistry *metrics = nullptr;
    /** Sink for campaign_started / campaign_finished events
     * (DESIGN.md §12). Null = no events. Per-seed events are the
     * checkpointing runner's job — it owns chunk identity. */
    support::EventSink *events = nullptr;
};

/** A finished campaign over a corpus. */
struct Campaign {
    /** The builds, in the order given to the runner; BuildId indexes
     * this vector (and each record's per-build vectors). */
    std::vector<BuildSpec> builds;
    std::vector<ProgramRecord> programs;
    CampaignMetrics metrics;

    /** BuildSpec::name() of every build, in BuildId order. */
    std::vector<std::string> buildNames() const;
    /** Handle for the build named @p name, if present. */
    std::optional<BuildId> findBuild(std::string_view name) const;
    /** Handle for @p spec's build, if present. */
    std::optional<BuildId> findBuild(const BuildSpec &spec) const;
    /** findBuild or an invalid (never-matching) handle. */
    BuildId idOf(std::string_view name) const;

    uint64_t totalMarkers() const;
    uint64_t totalDead() const;
    uint64_t totalAlive() const;
    /** Sum of |missed| for one build across the corpus. */
    uint64_t totalMissed(BuildId build) const;
    uint64_t totalPrimaryMissed(BuildId build) const;
    /** Markers missed by @p by but eliminated by @p reference. */
    uint64_t totalMissedVersus(BuildId by, BuildId reference) const;
};

/** Regenerate + instrument the program for @p seed (deterministic). */
instrument::Instrumented makeProgram(
    uint64_t seed, const gen::GenConfig &config = {});

/** Per-seed cache/validity tallies returned by SeedProcessor::process
 * so callers can maintain progress snapshots; the campaign.* metric
 * instruments are updated internally. */
struct SeedCounters {
    uint64_t invalid = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
};

/**
 * The per-seed pipeline behind CampaignRunner, exposed so other
 * schedulers — the corpus layer's checkpointing runner in particular —
 * can drive it with their own chunking and metrics scoping. Resolves
 * its campaign.* instruments once against @p registry at construction,
 * so process() stays lock-free on the metrics path; a processor bound
 * to a chunk-local registry confines a chunk's metrics until the chunk
 * commits.
 *
 * process() is pure in (seed, builds, options) and thread-safe: one
 * processor may serve every worker, or each worker may build its own —
 * the records are identical either way. @p builds, @p options, and
 * @p registry must outlive the processor.
 */
class SeedProcessor {
  public:
    SeedProcessor(const std::vector<BuildSpec> &builds,
                  const CampaignOptions &options,
                  support::MetricsRegistry &registry);
    ~SeedProcessor();

    SeedProcessor(const SeedProcessor &) = delete;
    SeedProcessor &operator=(const SeedProcessor &) = delete;

    /**
     * Run the full pipeline for @p seed. Folds the seed's cache /
     * invalid tallies into @p counters (adds, never resets). When
     * @p canonical_text is non-null it receives the instrumented
     * program's canonical source text (lang::printUnit) — the corpus
     * store's content-address input.
     */
    ProgramRecord process(uint64_t seed, SeedCounters &counters,
                          std::string *canonical_text = nullptr) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * The campaign execution engine. Configure once with the build list
 * and options, then run over any seed range:
 *
 *   CampaignRunner runner(builds, {.threads = 0});
 *   Campaign campaign = runner.run(1000, 300);
 *
 * Determinism contract: for fixed (first_seed, count, builds,
 * generator, computePrimary), the builds and programs of the returned
 * Campaign are identical for every thread/chunk configuration; only
 * metrics (timings) and observer interleaving vary.
 */
class CampaignRunner {
  public:
    explicit CampaignRunner(std::vector<BuildSpec> builds,
                            CampaignOptions options = {});

    const std::vector<BuildSpec> &builds() const { return builds_; }
    const CampaignOptions &options() const { return options_; }

    Campaign run(uint64_t first_seed, unsigned count) const;

  private:
    std::vector<BuildSpec> builds_;
    CampaignOptions options_;
};

/**
 * Run the campaign: seeds [first_seed, first_seed + count) against
 * every build. Programs that fail ground-truth execution are recorded
 * with valid = false and excluded from the totals. Convenience wrapper
 * over CampaignRunner.
 */
Campaign runCampaign(uint64_t first_seed, unsigned count,
                     const std::vector<BuildSpec> &builds,
                     const CampaignOptions &options = {});

} // namespace dce::core

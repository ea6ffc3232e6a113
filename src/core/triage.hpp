/**
 * @file
 * Report triage — the measurable skeleton of §4.3 (Table 5). For each
 * differential finding we reduce the test case (C-Reduce stand-in),
 * derive a root-cause *signature* (which post-head fix commit makes
 * the reduced case optimize, or which capability difference explains
 * it), deduplicate by signature, and classify:
 *
 *  - reported:   findings submitted (after reduction);
 *  - confirmed:  unique root causes that reproduce on the reduced case;
 *  - duplicate:  signature already reported earlier;
 *  - fixed:      a fix commit past HEAD resolves the reduced case.
 *
 * The human parts of bug reporting (developer dialogue) are outside
 * the simulation; everything counted here is mechanically derived.
 */
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.hpp"

namespace dce::core {

/**
 * Per-build "killer pass" statistics, aggregated from the optimization
 * remarks a collectRemarks campaign attributed to each eliminated
 * marker (ProgramRecord::kills). Turns the paper's component
 * categorization from heuristic into measured: the histogram says
 * *which pass actually removed* each truly dead marker.
 */
struct KillerHistogram {
    /** Eliminations per killing pass ("simplifycfg", "globaldce",
     * "lowering" for front-end drops), sorted by pass name. */
    std::map<std::string, uint64_t> byPass;
    uint64_t totalEliminated = 0;

    bool empty() const { return byPass.empty(); }
};

/**
 * Aggregate the killer histogram for @p build over every valid record
 * of @p campaign. Only markers in trueDead ∖ missed contribute (each
 * exactly once). Empty unless the campaign ran with collectRemarks.
 */
KillerHistogram killerHistogram(const Campaign &campaign,
                                BuildId build);

/** One missed-optimization finding to report. */
struct Finding {
    uint64_t seed = 0;
    unsigned marker = 0;
    BuildSpec missedBy;   ///< the build that failed to eliminate
    BuildSpec reference;  ///< a build that succeeded (feasibility)
};

/**
 * Why a reduction candidate was rejected by the interestingness test,
 * in gate order. Distinguishing the interpreter failing (TrapTimeout)
 * from the marker genuinely executing (Executed) is what makes a
 * stuck reduction diagnosable: a reduction drowning in trap-timeouts
 * is shrinking programs into ones the interpreter cannot decide, not
 * into uninteresting ones.
 */
enum class RejectReason {
    ParseFail,       ///< candidate no longer parses / type-checks
    MarkerAbsent,    ///< the marker function is gone from the source
    TrapTimeout,     ///< ground-truth execution trapped or timed out
    Executed,        ///< the marker ran — it is not dead here
    NotDifferential, ///< builds agree (missed-by eliminates it, or
                     ///< the reference misses it too)
};

/** Stable label for @p reason (`reduce.reject{<reason>}` metric key). */
const char *rejectReasonName(RejectReason reason);

/**
 * The reduction predicate: the candidate parses, the marker is truly
 * dead, the reporting build misses it, and the reference build
 * eliminates it. When the finding's reference *is* the missed-by build
 * (metamorphic findings: the feasibility evidence is an equivalent
 * program, not a second build), the reference probe is vacuous and
 * skipped — the predicate degrades to "this build misses this truly
 * dead marker". One parse / lowering / execution per candidate; the
 * two differential builds run over clones of that single lowering via
 * Compiler::eliminates, which stops each pipeline once the marker's
 * fate is fixed (DESIGN.md §21). Every rejection is classified
 * (RejectReason) and counted under `reduce.reject{<reason>}`; each
 * differential pipeline run bumps `reduce.compiles`.
 *
 * Immutable after construction, so one instance is safe to call
 * concurrently from every speculation worker of a ParallelReducer.
 * Satisfies reduce::Predicate via operator().
 */
class InterestingnessTest {
  public:
    /** @param metrics registry for the reject/compile counters;
     * null = the process global. */
    InterestingnessTest(unsigned marker, const BuildSpec &missed_by,
                        const BuildSpec &reference,
                        support::MetricsRegistry *metrics = nullptr);

    /** Full check; when @p why is non-null it receives the reason on
     * rejection (untouched on acceptance). */
    bool test(const std::string &candidate,
              RejectReason *why = nullptr) const;

    bool
    operator()(const std::string &candidate) const
    {
        return test(candidate);
    }

  private:
    support::Counter &rejectCounter(RejectReason reason) const;

    unsigned marker_;
    std::string markerName_;
    BuildSpec missedBy_;
    BuildSpec reference_;
    bool sameBuild_ = false; ///< reference == missedBy (equiv findings)
    /** Reject counters in RejectReason order, plus the pipeline
     * counter — resolved once so the per-candidate path is lock-free. */
    std::vector<support::Counter *> rejects_;
    support::Counter *compiles_;
};

/**
 * Identity of a finding's root cause for pre-reduction deduplication:
 * the content hash of the canonical program text, the finding's marker
 * set, and the differential build pair. Two findings with equal keys
 * reduce to the same root cause by construction (same program, same
 * markers, same builds), so one verdict serves both — this is what
 * lets a long-running service never re-reduce a duplicate, within a
 * batch and across campaign runs alike (DESIGN.md §11).
 */
struct VerdictKey {
    /** support::fnv1a64Hex of the canonical (printed) program text. */
    std::string programHash;
    /** Sorted markers the finding covers (a singleton for
     * collectFindings output). */
    std::vector<unsigned> markers;
    std::string missedBy;  ///< BuildSpec::name() of the missing build
    std::string reference; ///< BuildSpec::name() of the eliminating one

    /** Stable textual form — the store's signature-index key. */
    std::string fingerprint() const;
};

/** A cached triage verdict: everything reduction + signaturing would
 * recompute for a finding with a known key. */
struct CachedVerdict {
    std::string reducedSource;
    std::string signature;
    bool fixed = false;
    /** testsRun of the original reduction; replayed into the report so
     * warm-cache summaries are byte-identical to cold ones. */
    unsigned reductionTests = 0;
};

/**
 * Verdict lookup/store interface consulted by triageFindings before
 * reducing each finding. Implementations must be thread-safe (stage 1
 * fans out over workers); corpus::CorpusStore provides the persistent
 * one, corpus::MemoryVerdictCache an in-process one.
 */
class VerdictCache {
  public:
    virtual ~VerdictCache() = default;
    virtual std::optional<CachedVerdict>
    lookup(const VerdictKey &key) = 0;
    virtual void store(const VerdictKey &key,
                       const CachedVerdict &verdict) = 0;
};

/** A triaged (reduced + classified) report. */
struct Report {
    Finding finding;
    std::string reducedSource;
    std::string signature;
    bool confirmed = false;
    bool duplicate = false;
    bool fixed = false;
    unsigned reductionTests = 0;
};

struct TriageSummary {
    std::vector<Report> reports;

    unsigned
    count(compiler::CompilerId id, bool Report::*flag) const
    {
        unsigned total = 0;
        for (const Report &report : reports) {
            if (report.finding.missedBy.id == id && report.*flag)
                ++total;
        }
        return total;
    }

    unsigned
    reported(compiler::CompilerId id) const
    {
        unsigned total = 0;
        for (const Report &report : reports)
            total += report.finding.missedBy.id == id ? 1 : 0;
        return total;
    }
};

/**
 * Extract findings from a finished campaign: for each program, each
 * *primary* missed marker of @p missed_by that @p reference
 * eliminated becomes one finding (capped at @p max_findings).
 * The campaign must have been run with computePrimary.
 */
std::vector<Finding> collectFindings(const Campaign &campaign,
                                     const BuildSpec &missed_by,
                                     const BuildSpec &reference,
                                     unsigned max_findings,
                                     const gen::GenConfig &config = {});

/**
 * The finding collectFindings would extract from one record (at most
 * one per program, like the paper), or nullopt. Exposed so the corpus
 * layer's checkpointing runner can extract findings chunk-by-chunk
 * with identical semantics.
 */
std::optional<Finding> findingForRecord(const ProgramRecord &record,
                                        BuildId by, BuildId ref,
                                        const BuildSpec &missed_by,
                                        const BuildSpec &reference);

/** Knobs for the reduce/triage pipeline. */
struct TriageOptions {
    gen::GenConfig generator;
    /** Same-signature findings per compiler that still get "reported"
     * (and end up marked duplicate) — models the paper's imperfect
     * manual dedup; see triageFindings. */
    unsigned reportedDuplicateAllowance = 1;
    /** Findings reduced + signatured concurrently; 1 = serial, 0 =
     * one per hardware thread. The summary is identical for every
     * thread count (reductions are per-finding pure; deduplication
     * runs serially in findings order afterwards). */
    unsigned threads = 1;
    /** Speculation width inside each finding's reduction
     * (reduce::ReduceOptions::workers). */
    unsigned reduceWorkers = 1;
    /** Per-finding reduction budget (canonical candidate decisions). */
    unsigned maxTests = 800;
    /** Registry receiving the reduce.* metrics; null = the global. */
    support::MetricsRegistry *metrics = nullptr;
    /**
     * Source of each finding's program text. Default (unset): the
     * deterministic regeneration makeProgram(finding.seed, generator).
     * The metamorphic pipeline sets this — its findings live in
     * *derived variants* whose text no seed regenerates (src/equiv).
     * Must be pure and thread-safe: called once per finding, from a
     * parallel pre-pass before keying and reduction.
     */
    std::function<std::string(const Finding &finding, size_t index)>
        sourceFor;
    /**
     * Optional verdict cache. When set, findings are keyed by
     * VerdictKey before stage 1: cache hits (and same-key duplicates
     * within the batch) skip reduction entirely and replay the cached
     * verdict — `reduce.tests` drops, the summary does not change, and
     * no finding disappears from it. Hits land in
     * `reduce.verdict_cache_hits`, within-batch reuse in
     * `reduce.findings_deduped`. Fresh verdicts are stored in findings
     * order, each as soon as every finding before it is done, so a
     * kill mid-batch keeps the finished prefix (DESIGN.md §20).
     */
    VerdictCache *verdictCache = nullptr;
    /**
     * Sink for the triage events (DESIGN.md §12): verdict_cached,
     * reduction_finished, finding_classified — one each per finding,
     * keyed by the finding's batch index, so the log is identical for
     * every thread count. Null = no events.
     */
    support::EventSink *events = nullptr;
};

/**
 * Reduce, signature, deduplicate, and classify @p findings. The
 * reduce + signature stage fans out over options.threads workers with
 * a per-finding "reduce"/"signature" TraceSpan each, handing out
 * findings longest program text first; classification
 * and deduplication stay serial in findings order, so the summary
 * never depends on scheduling. Like the paper's workflow, duplicates
 * found during pre-report deduplication are *dropped*;
 * options.reportedDuplicateAllowance models the imperfect manual
 * dedup (the paper reported 5 GCC duplicates, one of which a
 * developer had already filed) — that many same-signature findings
 * per compiler are still "reported" and end up marked duplicate.
 */
TriageSummary triageFindings(const std::vector<Finding> &findings,
                             const TriageOptions &options);

/** Serial convenience overload (threads = reduceWorkers = 1). */
TriageSummary triageFindings(const std::vector<Finding> &findings,
                             const gen::GenConfig &config = {},
                             unsigned reported_duplicate_allowance = 1);

} // namespace dce::core

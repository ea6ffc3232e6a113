#include "core/triage.hpp"

#include <algorithm>
#include <mutex>
#include <set>

#include "instrument/instrument.hpp"
#include "ir/lowering.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "reduce/reducer.hpp"
#include "support/hash.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace dce::core {

KillerHistogram
killerHistogram(const Campaign &campaign, BuildId build)
{
    KillerHistogram histogram;
    if (!build.valid())
        return histogram;
    for (const ProgramRecord &record : campaign.programs) {
        if (!record.valid || record.kills.empty())
            continue;
        for (const MarkerKill &kill : record.killsFor(build)) {
            ++histogram.byPass[kill.pass];
            ++histogram.totalEliminated;
        }
    }
    return histogram;
}

std::string
VerdictKey::fingerprint() const
{
    std::string out = "prog:" + programHash + "|markers:";
    for (size_t i = 0; i < markers.size(); ++i) {
        if (i > 0)
            out += ',';
        out += std::to_string(markers[i]);
    }
    out += "|by:" + missedBy + "|ref:" + reference;
    return out;
}

//===------------------------------------------------------------------===//
// InterestingnessTest
//===------------------------------------------------------------------===//

const char *
rejectReasonName(RejectReason reason)
{
    switch (reason) {
    case RejectReason::ParseFail:
        return "parse-fail";
    case RejectReason::MarkerAbsent:
        return "marker-absent";
    case RejectReason::TrapTimeout:
        return "trap-timeout";
    case RejectReason::Executed:
        return "executed";
    case RejectReason::NotDifferential:
        return "not-differential";
    }
    return "unknown";
}

InterestingnessTest::InterestingnessTest(
    unsigned marker, const BuildSpec &missed_by,
    const BuildSpec &reference, support::MetricsRegistry *metrics)
    : marker_(marker), markerName_(instrument::markerName(marker)),
      missedBy_(missed_by), reference_(reference),
      sameBuild_(missed_by == reference)
{
    support::MetricsRegistry &registry =
        metrics ? *metrics : support::MetricsRegistry::global();
    for (RejectReason reason :
         {RejectReason::ParseFail, RejectReason::MarkerAbsent,
          RejectReason::TrapTimeout, RejectReason::Executed,
          RejectReason::NotDifferential}) {
        rejects_.push_back(&registry.counter(
            "reduce.reject", rejectReasonName(reason)));
    }
    compiles_ = &registry.counter("reduce.compiles");
}

support::Counter &
InterestingnessTest::rejectCounter(RejectReason reason) const
{
    return *rejects_[static_cast<size_t>(reason)];
}

bool
InterestingnessTest::test(const std::string &candidate,
                          RejectReason *why) const
{
    auto reject = [&](RejectReason reason) {
        rejectCounter(reason).add();
        if (why)
            *why = reason;
        return false;
    };

    DiagnosticEngine diags;
    auto unit = lang::parseAndCheck(candidate, diags);
    if (!unit)
        return reject(RejectReason::ParseFail);
    if (!unit->findFunction(markerName_))
        return reject(RejectReason::MarkerAbsent);

    // One lowering serves the ground-truth execution and — cloned by
    // Compiler::compileLowered — both differential builds.
    auto lowered = ir::lowerToIr(*unit);
    interp::ExecResult run = interp::execute(*lowered);
    if (!run.ok())
        return reject(RejectReason::TrapTimeout);
    if (run.calledExternals.count(markerName_))
        return reject(RejectReason::Executed);

    // Differential: missed by one build, eliminated by the other. The
    // missed-by side runs first — shrinking candidates most often stop
    // being missed, so the second pipeline is frequently skipped. Each
    // pipeline stops once the marker's fate is fixed (DESIGN.md §21).
    compiles_->add();
    if (missedBy_.make().eliminates(*lowered, marker_))
        return reject(RejectReason::NotDifferential);
    // Equiv findings set reference == missedBy: the same build cannot
    // both miss and eliminate the marker, so the probe is vacuous.
    if (sameBuild_)
        return true;
    compiles_->add();
    if (!reference_.make().eliminates(*lowered, marker_))
        return reject(RejectReason::NotDifferential);
    return true;
}

namespace {

/** Root-cause signature of a reduced case: the first post-HEAD fix
 * commit that resolves it, or a capability tag. */
std::string
signatureOf(const std::string &reduced_source, const Finding &finding,
            bool &fixed)
{
    DiagnosticEngine diags;
    auto unit = lang::parseAndCheck(reduced_source, diags);
    if (!unit) {
        fixed = false;
        return "invalid";
    }
    // One lowering probed by every fix commit and capability level.
    auto lowered = ir::lowerToIr(*unit);
    const compiler::CompilerSpec &spec =
        compiler::spec(finding.missedBy.id);
    for (size_t commit = spec.headIndex() + 1;
         commit < spec.history().size(); ++commit) {
        compiler::Compiler fixed_build(finding.missedBy.id,
                                       finding.missedBy.level, commit);
        if (fixed_build.eliminates(*lowered, finding.marker)) {
            fixed = true;
            return "fixedby:" + spec.history()[commit].hash;
        }
    }
    fixed = false;
    // No fix commit resolves it: classify by which levels of the same
    // compiler eliminate the marker — a capability fingerprint.
    std::string fingerprint = "capability:";
    for (compiler::OptLevel level : compiler::allOptLevels()) {
        compiler::Compiler probe(finding.missedBy.id, level);
        fingerprint += probe.eliminates(*lowered, finding.marker) ? 'e' : 'm';
    }
    return fingerprint;
}

/** Per-finding output of the parallel reduce + signature stage. */
struct ReducedFinding {
    reduce::ReduceResult reduction;
    std::string signature;
    bool fixed = false;
    bool fresh = false; ///< reduced in this batch, not a cached verdict
};

/** A finding replayed a verdict instead of reducing: @p via is "store"
 * (verdict cache hit) or "batch" (same-key leader in this batch). */
void
emitVerdictCached(support::EventSink *events, size_t index,
                  const Finding &finding, const VerdictKey &key,
                  const char *via)
{
    if (!events)
        return;
    support::Event event("verdict_cached",
                         {support::kPhaseTriage, index, 0});
    event.num("finding", index)
        .num("seed", finding.seed)
        .str("fingerprint", key.fingerprint())
        .str("via", via);
    events->emit(std::move(event));
}

void
emitClassified(support::EventSink *events, size_t index,
               const Finding &finding, const Report &report,
               bool reported)
{
    if (!events)
        return;
    support::Event event("finding_classified",
                         {support::kPhaseTriage, index, 2});
    event.num("finding", index)
        .num("seed", finding.seed)
        .num("marker", finding.marker)
        .str("signature", report.signature)
        .num("reported", reported ? 1 : 0)
        .num("confirmed", report.confirmed ? 1 : 0)
        .num("duplicate", report.duplicate ? 1 : 0)
        .num("fixed", report.fixed ? 1 : 0);
    events->emit(std::move(event));
}

} // namespace

TriageSummary
triageFindings(const std::vector<Finding> &findings,
               const TriageOptions &options)
{
    support::MetricsRegistry *registry =
        options.metrics ? options.metrics
                        : &support::MetricsRegistry::global();

    support::ThreadPool pool(options.threads);

    // Stage 0a — every finding's program text, once, in parallel (each
    // is pure in its finding and writes its own slot).
    std::vector<std::string> sources(findings.size());
    pool.forChunks(findings.size(), 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            sources[i] = options.sourceFor
                             ? options.sourceFor(findings[i], i)
                             : lang::printUnit(*makeProgram(
                                                    findings[i].seed,
                                                    options.generator)
                                                    .unit);
        }
    });

    // Stage 0b — when a verdict cache is attached, key every finding
    // (canonical program text hash + marker set + build pair) and
    // group same-key findings: only each group's leader reduces, the
    // followers replay its verdict. Serial, so leader choice — and
    // with it the whole summary — never depends on scheduling. An
    // event sink also forces keying (events carry the fingerprint)
    // but never enables the batch dedup by itself.
    const bool keyed = options.verdictCache || options.events;
    std::vector<VerdictKey> keys(keyed ? findings.size() : 0);
    std::vector<size_t> leaderOf(findings.size());
    for (size_t i = 0; i < findings.size(); ++i)
        leaderOf[i] = i;
    if (keyed) {
        std::map<std::string, size_t> first_with_key;
        for (size_t i = 0; i < findings.size(); ++i) {
            const Finding &finding = findings[i];
            keys[i].programHash = support::fnv1a64Hex(sources[i]);
            keys[i].markers = {finding.marker};
            keys[i].missedBy = finding.missedBy.name();
            keys[i].reference = finding.reference.name();
            if (!options.verdictCache)
                continue;
            auto [it, fresh] = first_with_key.emplace(
                keys[i].fingerprint(), i);
            if (!fresh) {
                leaderOf[i] = it->second;
                registry->counter("reduce.findings_deduped").add();
            }
        }
    }

    // Stage 1 — reduce + signature every leader finding, concurrently.
    // Each finding is pure in (finding, options), writes its own slot,
    // and the per-finding reduction itself is deterministic regardless
    // of reduceWorkers, so the stage commutes with any schedule. The
    // pool draws leaders longest source first (ties by index): a
    // finding's reduction time grows with its text, so the longest
    // ones start early instead of leaving threads idle at the tail.
    std::vector<size_t> order;
    for (size_t i = 0; i < findings.size(); ++i) {
        if (leaderOf[i] == i)
            order.push_back(i); // followers are replayed after the barrier
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (sources[a].size() != sources[b].size())
            return sources[a].size() > sources[b].size();
        return a < b;
    });
    std::vector<ReducedFinding> slots(findings.size());
    // Fresh verdicts reach the cache in findings order, each as soon as
    // every finding before it is done (followers need nothing), so the
    // store sees the same sequence for every thread count and hand-out
    // order, and a kill mid-batch keeps the finished prefix. store()
    // runs under the mutex because that sequence is the contract.
    std::mutex store_mutex;
    std::vector<char> complete(findings.size(), 0);
    size_t stored_end = 0; ///< findings before it are stored or need not be
    auto finished = [&](size_t i) {
        if (!options.verdictCache)
            return;
        std::lock_guard<std::mutex> lock(store_mutex);
        complete[i] = 1;
        for (; stored_end < findings.size(); ++stored_end) {
            const size_t j = stored_end;
            if (leaderOf[j] != j)
                continue;
            if (!complete[j])
                break;
            if (slots[j].fresh) {
                options.verdictCache->store(
                    keys[j], {slots[j].reduction.source, slots[j].signature,
                              slots[j].fixed, slots[j].reduction.testsRun});
            }
        }
    };
    pool.forChunks(
        order.size(), 1, [&](size_t begin, size_t end) {
            for (size_t k = begin; k < end; ++k) {
                const size_t i = order[k];
                const Finding &finding = findings[i];
                if (options.verdictCache) {
                    if (std::optional<CachedVerdict> cached =
                            options.verdictCache->lookup(keys[i])) {
                        slots[i].reduction.source =
                            cached->reducedSource;
                        slots[i].reduction.testsRun =
                            cached->reductionTests;
                        slots[i].signature = cached->signature;
                        slots[i].fixed = cached->fixed;
                        registry
                            ->counter("reduce.verdict_cache_hits")
                            .add();
                        emitVerdictCached(options.events, i, finding,
                                          keys[i], "store");
                        finished(i);
                        continue;
                    }
                }
                InterestingnessTest interesting(
                    finding.marker, finding.missedBy,
                    finding.reference, registry);
                reduce::ReduceOptions reduce_options;
                reduce_options.maxTests = options.maxTests;
                reduce_options.workers = options.reduceWorkers;
                reduce_options.metrics = registry;
                {
                    support::TraceSpan span("reduce", "triage");
                    span.setArg("seed", finding.seed);
                    slots[i].reduction =
                        reduce::ParallelReducer(reduce_options)
                            .reduce(sources[i], interesting);
                }
                support::TraceSpan span("signature", "triage");
                span.setArg("seed", finding.seed);
                slots[i].signature = signatureOf(
                    slots[i].reduction.source, finding, slots[i].fixed);
                slots[i].fresh = true;
                if (options.events) {
                    support::Event done(
                        "reduction_finished",
                        {support::kPhaseTriage, i, 1});
                    done.num("finding", i)
                        .num("seed", finding.seed)
                        .num("marker", finding.marker)
                        .num("tests", slots[i].reduction.testsRun)
                        .num("lines_before",
                             slots[i].reduction.linesBefore)
                        .num("lines_after",
                             slots[i].reduction.linesAfter)
                        .num("reduce_passes", slots[i].reduction.passes)
                        .str("fingerprint", keys[i].fingerprint());
                    options.events->emit(std::move(done));
                }
                finished(i);
            }
        });

    // Replay leader verdicts into follower slots (testsRun included, so
    // warm and cold summaries are byte-identical), in findings order.
    for (size_t i = 0; i < findings.size(); ++i) {
        if (leaderOf[i] != i) {
            slots[i] = slots[leaderOf[i]];
            emitVerdictCached(options.events, i, findings[i], keys[i],
                              "batch");
        }
    }

    // Stage 2 — classify and deduplicate, serially in findings order
    // (deduplication is the one cross-finding dependency).
    TriageSummary summary;
    std::set<std::pair<int, std::string>> seen_signatures;
    std::map<int, unsigned> duplicate_budget;
    duplicate_budget[static_cast<int>(compiler::CompilerId::Alpha)] =
        options.reportedDuplicateAllowance;
    duplicate_budget[static_cast<int>(compiler::CompilerId::Beta)] =
        options.reportedDuplicateAllowance;

    for (size_t i = 0; i < findings.size(); ++i) {
        const Finding &finding = findings[i];
        ReducedFinding &reduced = slots[i];

        Report report;
        report.finding = finding;
        report.reducedSource = reduced.reduction.source;
        report.reductionTests = reduced.reduction.testsRun;
        report.signature = std::move(reduced.signature);
        report.fixed = reduced.fixed;

        auto key = std::make_pair(
            static_cast<int>(finding.missedBy.id), report.signature);
        report.duplicate = !seen_signatures.insert(key).second;
        if (report.duplicate) {
            // Pre-report deduplication drops most same-root-cause
            // findings; a small allowance slips through and gets
            // marked duplicate by the "developers".
            unsigned &budget =
                duplicate_budget[static_cast<int>(finding.missedBy.id)];
            if (budget == 0) {
                // Deduplicated away, never reported.
                emitClassified(options.events, i, finding, report,
                               false);
                continue;
            }
            --budget;
            report.fixed = false; // counted once, on the original
        }
        report.confirmed = !report.duplicate &&
                           report.signature != "invalid";
        emitClassified(options.events, i, finding, report, true);
        summary.reports.push_back(std::move(report));
    }
    return summary;
}

std::optional<Finding>
findingForRecord(const ProgramRecord &record, BuildId by, BuildId ref,
                 const BuildSpec &missed_by, const BuildSpec &reference)
{
    // Needs the primary sets, so skip campaigns (or invalid records)
    // that never computed them.
    if (!record.valid || record.primary.empty())
        return std::nullopt;
    for (unsigned marker : setMinus(record.primaryFor(by),
                                    record.missedFor(ref))) {
        // At most one report per program (like the paper).
        return Finding{record.seed, marker, missed_by, reference};
    }
    return std::nullopt;
}

std::vector<Finding>
collectFindings(const Campaign &campaign, const BuildSpec &missed_by,
                const BuildSpec &reference, unsigned max_findings,
                const gen::GenConfig &config)
{
    (void)config;
    std::vector<Finding> findings;
    std::optional<BuildId> by_id = campaign.findBuild(missed_by);
    std::optional<BuildId> ref_id = campaign.findBuild(reference);
    if (!by_id || !ref_id)
        return findings;
    for (const ProgramRecord &record : campaign.programs) {
        if (findings.size() >= max_findings)
            break;
        if (std::optional<Finding> finding = findingForRecord(
                record, *by_id, *ref_id, missed_by, reference))
            findings.push_back(*finding);
    }
    return findings;
}

TriageSummary
triageFindings(const std::vector<Finding> &findings,
               const gen::GenConfig &config,
               unsigned reported_duplicate_allowance)
{
    TriageOptions options;
    options.generator = config;
    options.reportedDuplicateAllowance = reported_duplicate_allowance;
    return triageFindings(findings, options);
}

} // namespace dce::core

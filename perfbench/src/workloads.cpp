#include "workloads.hpp"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "compiler/compilation.hpp"
#include "core/analysis.hpp"
#include "core/campaign.hpp"
#include "core/triage.hpp"
#include "corpus/checkpoint.hpp"
#include "corpus/serialize.hpp"
#include "corpus/store.hpp"
#include "equiv/engine.hpp"
#include "gen/generator.hpp"
#include "instrument/instrument.hpp"
#include "interp/interpreter.hpp"
#include "ir/clone.hpp"
#include "ir/lowering.hpp"
#include "ir/verifier.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace perfbench {

using namespace dce;
namespace fs = std::filesystem;

namespace {

/** Seeds per campaign job: about half a second at 4 threads. */
constexpr uint64_t kCampaignSeeds = 480;
/** The warm-up campaign run as the campaign workload's set-up. */
constexpr uint64_t kCampaignSetupSeeds = 240;
/** Plan chunk granule and checkpoint cadence (runCheckpointed's). */
constexpr unsigned kChunkSize = 16;
constexpr unsigned kCheckpointEvery = 4;
/** One campaign seed in this many is re-executed after optimization. */
constexpr uint64_t kValidateEvery = 16;
/** Campaign behind each part of the triage findings: ~0.27 findings
 * per seed, so three parts give about 1,000 findings. */
constexpr uint64_t kTriageSeeds = 1200;
/** Findings per triage job (one triageFindings call). */
constexpr size_t kTriageSlice = 40;
/** Findings per triageFindings call in the traced shape, which keeps
 * the span buffer to a few tens of MB. */
constexpr size_t kTracedTriageBatch = 12;
/** Each set-up part builds kEquivStoresPerPart stores; equiv jobs cycle
 * over all of them. K variants per program. */
constexpr uint64_t kEquivStoresPerPart = 4;
constexpr uint64_t kEquivSeedsPerStore = 128;
constexpr unsigned kEquivVariants = 2;

const std::vector<core::BuildSpec> &
headBuilds()
{
    static const std::vector<core::BuildSpec> builds = {
        {compiler::CompilerId::Alpha, compiler::OptLevel::O3, SIZE_MAX},
        {compiler::CompilerId::Beta, compiler::OptLevel::O3, SIZE_MAX},
    };
    return builds;
}

/** First program seed of a workload; job windows follow it. */
uint64_t
baseSeed(uint64_t seed)
{
    return (seed + 1) * 1'000'000;
}

corpus::CampaignPlan
campaignPlan(uint64_t first_seed, uint64_t count)
{
    corpus::CampaignPlan plan;
    plan.firstSeed = first_seed;
    plan.count = count;
    plan.chunkSize = kChunkSize;
    plan.builds = headBuilds();
    plan.computePrimary = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

std::unique_ptr<corpus::CorpusStore>
freshStore(const fs::path &dir, support::MetricsRegistry *metrics)
{
    fs::remove_all(dir);
    corpus::StoreError error;
    corpus::OpenOptions options;
    options.metrics = metrics;
    auto store = corpus::CorpusStore::open(dir.string(), &error, options);
    if (!store)
        throw std::runtime_error("cannot open store " + dir.string() +
                                 ": " + error.message);
    return store;
}

corpus::CheckpointedCampaign
runCampaign(corpus::CorpusStore &store, const corpus::CampaignPlan &plan,
            unsigned threads, support::MetricsRegistry *metrics)
{
    corpus::CheckpointRunOptions options;
    options.threads = threads;
    options.checkpointEveryChunks = kCheckpointEvery;
    options.metrics = metrics;
    corpus::StoreError error;
    auto result = corpus::runCheckpointed(store, plan, options, &error);
    if (!result || !result->completed)
        throw std::runtime_error("campaign failed: " + error.message);
    return std::move(*result);
}

bool
subset(const std::set<unsigned> &inner, const std::set<unsigned> &outer)
{
    return std::includes(outer.begin(), outer.end(), inner.begin(),
                         inner.end());
}

bool
sameFinding(const core::Finding &a, const core::Finding &b)
{
    return a.seed == b.seed && a.marker == b.marker &&
           a.missedBy == b.missedBy && a.reference == b.reference;
}

void
addRegistryCounters(LayerFold &fold, const support::MetricsRegistry &registry)
{
    for (const auto &[key, value] : registry.counters()) {
        // "name{label}" becomes "name.label", the metric naming.
        std::string name = key;
        std::replace(name.begin(), name.end(), '{', '.');
        name.erase(std::remove(name.begin(), name.end(), '}'), name.end());
        fold.add(name, double(value));
    }
}

//===------------------------------------------------------------------===//
// campaign
//===------------------------------------------------------------------===//

/** Layer counters of the stage-by-stage drive, summed per chunk. */
struct SeedStats {
    uint64_t invalid = 0;
    uint64_t markers = 0;
    uint64_t dead = 0;
    uint64_t loweredInstrs = 0;
    uint64_t eliminated[2] = {0, 0};
    uint64_t instrsOut[2] = {0, 0};

    void
    merge(const SeedStats &other)
    {
        invalid += other.invalid;
        markers += other.markers;
        dead += other.dead;
        loweredInstrs += other.loweredInstrs;
        for (size_t b = 0; b < 2; ++b) {
            eliminated[b] += other.eliminated[b];
            instrsOut[b] += other.instrsOut[b];
        }
    }
};

class CampaignWorkload : public Workload {
  public:
    CampaignWorkload(uint64_t seed, unsigned threads, fs::path workdir)
        : base_(baseSeed(seed)), threads_(threads),
          workdir_(std::move(workdir))
    {
        for (const core::BuildSpec &spec : headBuilds())
            compilers_.push_back(spec.make());
        for (const char *label : kBuildLabels)
            optimizeSpans_.push_back(std::string("stage.optimize.") + label);
    }

    const char *itemName() const override { return "seeds"; }

    void
    setUp(unsigned part) override
    {
        // No input to prepare beyond a store: a short warm-up campaign
        // (page cache, allocator, thread start-up) stands in for it.
        support::MetricsRegistry registry;
        auto store = freshStore(workdir_ / "setup", &registry);
        runCampaign(*store,
                    campaignPlan(base_ - (part + 1) * kCampaignSetupSeeds,
                                 kCampaignSetupSeeds),
                    threads_, &registry);
    }

    uint64_t
    runJob(unsigned index) override
    {
        support::MetricsRegistry registry;
        auto store = freshStore(jobDir(), &registry);
        corpus::CheckpointedCampaign result =
            runCampaign(*store, planFor(index), threads_, &registry);
        records_ = std::move(result.campaign.programs);
        findings_ = std::move(result.findings);
        lastIndex_ = index;
        traced_ = false;
        return records_.size();
    }

    uint64_t
    runTracedJob(unsigned index, LayerFold *fold) override
    {
        support::MetricsRegistry registry;
        auto store = freshStore(jobDir(), &registry);
        SeedStats stats = driveStages(*store, planFor(index), registry);
        lastIndex_ = index;
        traced_ = true;
        if (fold) {
            fold->add("gen.invalid", double(stats.invalid));
            fold->add("instrument.markers", double(stats.markers));
            fold->add("core.markers_dead", double(stats.dead));
            fold->add("ir.lowered_instrs", double(stats.loweredInstrs));
            for (size_t b = 0; b < 2; ++b) {
                fold->add(std::string("core.eliminated.") + kBuildLabels[b],
                          double(stats.eliminated[b]));
                fold->add(std::string("compiler.instrs_out.") +
                              kBuildLabels[b],
                          double(stats.instrsOut[b]));
            }
            fold->add("corpus.bytes",
                      double(registry.counterValue("corpus.bytes")));
        }
        return records_.size();
    }

    void
    check(Checks &checks) override
    {
        const corpus::CampaignPlan plan = planFor(lastIndex_);
        checks.expect(records_.size() == plan.count, "campaign record count");
        for (const core::ProgramRecord &record : records_) {
            if (!record.valid)
                continue;
            for (size_t b = 0; b < compilers_.size(); ++b) {
                checks.expect(subset(record.trueAlive, record.alive[b]),
                              "seed " + std::to_string(record.seed) +
                                  ": an executed marker was eliminated");
                checks.expect(subset(record.missed[b], record.trueDead),
                              "seed " + std::to_string(record.seed) +
                                  ": a missed marker is not truly dead");
            }
        }
        std::vector<uint64_t> sample;
        for (size_t slot = 0; slot < records_.size(); slot += kValidateEvery)
            if (records_[slot].valid)
                sample.push_back(records_[slot].seed);
        std::vector<Checks> sampled(sample.size());
        support::ThreadPool pool(threads_);
        pool.forChunks(sample.size(), 1, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                validateAgainstInterpreter(sample[i], plan, sampled[i]);
        });
        for (const Checks &result : sampled) {
            checks.attempted += result.attempted;
            checks.failed += result.failed;
        }
        if (traced_ && !engineCompared_) {
            // The stage-by-stage drive must reproduce the engine.
            engineCompared_ = true;
            std::vector<core::ProgramRecord> staged = std::move(records_);
            std::vector<core::Finding> staged_findings = std::move(findings_);
            runJob(lastIndex_);
            checks.expect(staged.size() == records_.size(),
                          "stage-by-stage record count");
            for (size_t i = 0; i < staged.size() && i < records_.size(); ++i)
                checks.compareRepeat(staged[i] == records_[i],
                                     "seed " + std::to_string(staged[i].seed) +
                                         ": stage-by-stage record differs "
                                         "from runCheckpointed's");
            bool same = staged_findings.size() == findings_.size();
            for (size_t i = 0; same && i < findings_.size(); ++i)
                same = sameFinding(staged_findings[i], findings_[i]);
            checks.compareRepeat(same, "stage-by-stage findings differ from "
                                       "runCheckpointed's");
        }
        fs::remove_all(jobDir());
    }

  private:
    fs::path jobDir() const { return workdir_ / "job"; }

    corpus::CampaignPlan
    planFor(unsigned index) const
    {
        return campaignPlan(base_ + uint64_t(index) * kCampaignSeeds,
                            kCampaignSeeds);
    }

    /** The oracle is the interpreter: each build's optimized module must
     * behave exactly like the O0 lowering. */
    void
    validateAgainstInterpreter(uint64_t seed,
                               const corpus::CampaignPlan &plan,
                               Checks &checks) const
    {
        instrument::Instrumented prog = core::makeProgram(seed, plan.generator);
        std::unique_ptr<ir::Module> lowered = ir::lowerToIr(*prog.unit);
        interp::ExecResult expected = interp::execute(*lowered);
        checks.expect(expected.ok(), "seed " + std::to_string(seed) +
                                         ": valid record but O0 run fails");
        for (const compiler::Compiler &comp : compilers_) {
            compiler::Compilation compiled = comp.compileLowered(*lowered);
            checks.expect(compiled.ok() &&
                              interp::observablyEqual(
                                  expected,
                                  interp::execute(compiled.module())),
                          comp.describe() + " miscompiled seed " +
                              std::to_string(seed));
        }
    }

    /**
     * What runCheckpointed does for a fresh store, one layer call at a
     * time with a span around each: per seed, generate → instrument →
     * lower → ground truth → (clone → optimize → survival) per build →
     * primary; per chunk, commit programs and records, and every
     * kCheckpointEvery chunks a checkpoint.
     */
    SeedStats
    driveStages(corpus::CorpusStore &store, const corpus::CampaignPlan &plan,
                const support::MetricsRegistry &registry)
    {
        const std::string plan_json = corpus::serializePlan(plan);
        const uint64_t num_chunks = (plan.count + kChunkSize - 1) / kChunkSize;
        records_.assign(plan.count, {});
        std::map<uint64_t, std::vector<corpus::StoredFinding>> found;
        std::set<uint64_t> completed;
        uint64_t watermark = 0;
        unsigned since_checkpoint = 0;
        SeedStats total;
        std::mutex commit_mutex;

        support::ThreadPool pool(threads_);
        pool.forChunks(plan.count, kChunkSize, [&](size_t begin, size_t end) {
            const uint64_t chunk = begin / kChunkSize;
            SeedStats stats;
            std::vector<core::ProgramRecord> chunk_records;
            std::vector<std::string> texts(end - begin);
            for (size_t slot = begin; slot < end; ++slot)
                chunk_records.push_back(driveSeed(plan.firstSeed + slot,
                                                  plan, texts[slot - begin],
                                                  stats));

            std::lock_guard<std::mutex> lock(commit_mutex);
            support::TraceSpan span("stage.commit", "bench");
            total.merge(stats);
            for (size_t slot = begin; slot < end; ++slot) {
                const std::string &text = texts[slot - begin];
                std::string hash = corpus::programHash(text);
                store.putProgram(hash, text);
                store.putRecord(chunk_records[slot - begin], slot, chunk, hash);
                records_[slot] = std::move(chunk_records[slot - begin]);
                if (auto finding = core::findingForRecord(
                        records_[slot], core::BuildId{0}, core::BuildId{1},
                        plan.builds[0], plan.builds[1]))
                    found[chunk].push_back({chunk, slot, *finding});
            }
            completed.insert(chunk);
            while (completed.count(watermark))
                ++watermark;
            if (++since_checkpoint >= kCheckpointEvery ||
                completed.size() == num_chunks) {
                since_checkpoint = 0;
                store.writeCheckpoint(corpus::encodeCheckpointJson(
                    plan_json, completed, watermark, 0, registry, found));
            }
        });

        findings_.clear();
        for (const auto &[chunk, list] : found)
            for (const corpus::StoredFinding &entry : list)
                findings_.push_back(entry.finding);
        return total;
    }

    core::ProgramRecord
    driveSeed(uint64_t seed, const corpus::CampaignPlan &plan,
              std::string &text, SeedStats &stats) const
    {
        using support::TraceSpan;
        TraceSpan seed_span("stage.seed", "bench");
        core::ProgramRecord record;
        record.seed = seed;

        std::unique_ptr<lang::TranslationUnit> unit;
        {
            TraceSpan span("stage.generate", "bench");
            unit = gen::generateProgram(seed, plan.generator);
        }
        instrument::Instrumented prog;
        {
            TraceSpan span("stage.instrument", "bench");
            prog = instrument::instrumentUnit(*unit);
        }
        record.markerCount = prog.markerCount();
        {
            TraceSpan span("stage.canonical", "bench");
            text = lang::printUnit(*prog.unit);
        }
        std::unique_ptr<ir::Module> lowered;
        {
            TraceSpan span("stage.lower", "bench");
            lowered = ir::lowerToIr(*prog.unit);
            stats.loweredInstrs += equiv::countInstructions(*lowered);
        }
        core::GroundTruth truth;
        {
            TraceSpan span("stage.ground_truth", "bench");
            truth = core::groundTruthFor(*lowered, record.markerCount);
            if (!truth.valid)
                record.invalidReason = invalidReason(*lowered, truth.status);
        }
        stats.markers += record.markerCount;
        record.valid = truth.valid;
        if (!record.valid) {
            ++stats.invalid;
            return record;
        }
        record.trueAlive = truth.aliveMarkers;
        record.trueDead = truth.deadMarkers;
        stats.dead += record.trueDead.size();

        const size_t builds = compilers_.size();
        record.alive.resize(builds);
        record.missed.resize(builds);
        record.primary.resize(builds);
        std::optional<core::PrimaryAnalysis> primary;
        for (size_t b = 0; b < builds; ++b) {
            std::unique_ptr<ir::Module> module;
            {
                TraceSpan span("stage.clone", "bench");
                module = ir::cloneModule(*lowered);
            }
            {
                TraceSpan span(optimizeSpans_[b], "bench");
                compilers_[b].optimize(*module);
            }
            {
                TraceSpan span("stage.survival", "bench");
                record.alive[b] = compiler::survivingMarkersInIr(*module);
                record.missed[b] = core::missedMarkers(record.alive[b], truth);
                stats.instrsOut[b] += equiv::countInstructions(*module);
            }
            stats.eliminated[b] +=
                record.trueDead.size() - record.missed[b].size();
            if (!record.missed[b].empty()) {
                TraceSpan span("stage.primary", "bench");
                if (!primary)
                    primary.emplace(*lowered);
                record.primary[b] = primary->primary(record.missed[b]);
            }
        }
        return record;
    }

    /** core::SeedProcessor's classification of a failed ground truth. */
    static core::InvalidReason
    invalidReason(const ir::Module &lowered, interp::ExecStatus status)
    {
        if (!ir::verifyModule(lowered).ok())
            return core::InvalidReason::VerifierReject;
        switch (status) {
        case interp::ExecStatus::Timeout:
            return core::InvalidReason::Timeout;
        case interp::ExecStatus::Trap:
            return core::InvalidReason::Trap;
        case interp::ExecStatus::NoEntry:
            return core::InvalidReason::NoEntry;
        case interp::ExecStatus::Ok:
            break;
        }
        return core::InvalidReason::None;
    }

    const uint64_t base_;
    const unsigned threads_;
    const fs::path workdir_;
    std::vector<compiler::Compiler> compilers_;
    /** Span names must outlive their spans. */
    std::vector<std::string> optimizeSpans_;

    std::vector<core::ProgramRecord> records_;
    std::vector<core::Finding> findings_;
    unsigned lastIndex_ = 0;
    bool traced_ = false;
    bool engineCompared_ = false;
};

//===------------------------------------------------------------------===//
// triage
//===------------------------------------------------------------------===//

class TriageWorkload : public Workload {
  public:
    TriageWorkload(uint64_t seed, unsigned threads, fs::path workdir)
        : base_(baseSeed(seed)), threads_(threads),
          workdir_(std::move(workdir))
    {
    }

    const char *itemName() const override { return "findings"; }

    void
    setUp(unsigned part) override
    {
        // The primary findings of a fresh campaign, in both directions,
        // added to those of earlier parts and dealt round-robin into
        // slices of about kTriageSlice.
        support::MetricsRegistry registry;
        corpus::CampaignPlan plan =
            campaignPlan(base_ + part * kTriageSeeds, kTriageSeeds);
        plan.missedByBuild = SIZE_MAX; // collected below, both ways
        auto store = freshStore(workdir_ / "setup", &registry);
        core::Campaign campaign =
            runCampaign(*store, plan, threads_, &registry).campaign;
        const core::BuildSpec &alpha = plan.builds[0];
        const core::BuildSpec &beta = plan.builds[1];
        const std::pair<core::BuildSpec, core::BuildSpec> directions[] = {
            {alpha, beta}, {beta, alpha}};
        for (const auto &[by, ref] : directions) {
            std::vector<core::Finding> found =
                core::collectFindings(campaign, by, ref, UINT_MAX);
            findings_.insert(findings_.end(), found.begin(), found.end());
        }
        if (findings_.empty())
            throw std::runtime_error("triage set-up produced no findings");
        slices_.assign(std::max<size_t>(1, findings_.size() / kTriageSlice),
                       {});
        for (size_t i = 0; i < findings_.size(); ++i)
            slices_[i % slices_.size()].push_back(findings_[i]);
    }

    uint64_t
    runJob(unsigned index) override
    {
        select(index, false);
        support::MetricsRegistry registry;
        reports_ = core::triageFindings(slices_[slice_], options(registry))
                       .reports;
        return slices_[slice_].size();
    }

    uint64_t
    runTracedJob(unsigned index, LayerFold *fold) override
    {
        select(index, true);
        const std::vector<core::Finding> &findings = slices_[slice_];
        reports_.clear();
        for (size_t begin = 0; begin < findings.size();
             begin += kTracedTriageBatch) {
            size_t end = std::min(begin + kTracedTriageBatch, findings.size());
            std::vector<core::Finding> batch(findings.begin() + begin,
                                             findings.begin() + end);
            support::MetricsRegistry registry;
            core::TriageSummary summary =
                core::triageFindings(batch, options(registry));
            reports_.insert(reports_.end(), summary.reports.begin(),
                            summary.reports.end());
            if (fold) {
                fold->drain();
                addRegistryCounters(*fold, registry);
            }
        }
        return findings.size();
    }

    void
    check(Checks &checks) override
    {
        checks.expect(!reports_.empty(), "triage produced no reports");
        support::MetricsRegistry scratch;
        for (const core::Report &report : reports_) {
            const core::Finding &finding = report.finding;
            const std::string seed = "seed " + std::to_string(finding.seed);
            // A reduction is a subset of the original's lines that still
            // parses and still calls the marker.
            DiagnosticEngine diags;
            auto unit = lang::parseAndCheck(report.reducedSource, diags);
            checks.expect(unit && unit->findFunction(
                                      instrument::markerName(finding.marker)),
                          seed + ": reduced source lost its marker");
            checks.expect(report.reducedSource.size() <=
                              lang::printUnit(*core::makeProgram(finding.seed)
                                                   .unit)
                                  .size(),
                          seed + ": reduced source grew");
            // The predicate runs compiles, so running it again is a
            // repeat of the reducer's last accepted test.
            if (report.confirmed) {
                core::InterestingnessTest test(finding.marker,
                                               finding.missedBy,
                                               finding.reference, &scratch);
                checks.compareRepeat(test.test(report.reducedSource),
                                     seed + ": confirmed reduction is not "
                                            "interesting when tested again");
            }
        }
        // A slice triaged again must give the same summary. Batching
        // changes which duplicates are dropped, so each shape keeps its
        // own reference.
        auto [it, first] =
            references_.try_emplace({slice_, batched_}, reports_);
        if (first)
            return;
        const std::vector<core::Report> &reference = it->second;
        bool same = reports_.size() == reference.size();
        for (size_t i = 0; same && i < reports_.size(); ++i) {
            const core::Report &now = reports_[i], &ref = reference[i];
            same = now.finding.seed == ref.finding.seed &&
                   now.finding.marker == ref.finding.marker &&
                   now.reducedSource == ref.reducedSource &&
                   now.signature == ref.signature &&
                   now.confirmed == ref.confirmed &&
                   now.duplicate == ref.duplicate && now.fixed == ref.fixed;
        }
        checks.compareRepeat(same, "triage summary of slice " +
                                       std::to_string(slice_) +
                                       " differs from its first run");
    }

  private:
    void
    select(unsigned index, bool batched)
    {
        slice_ = index % slices_.size();
        batched_ = batched;
    }

    core::TriageOptions
    options(support::MetricsRegistry &registry) const
    {
        core::TriageOptions options;
        options.threads = threads_;
        options.metrics = &registry;
        return options;
    }

    const uint64_t base_;
    const unsigned threads_;
    const fs::path workdir_;
    std::vector<core::Finding> findings_;
    std::vector<std::vector<core::Finding>> slices_;
    size_t slice_ = 0;
    bool batched_ = false;
    std::vector<core::Report> reports_;
    std::map<std::pair<size_t, bool>, std::vector<core::Report>> references_;
};

//===------------------------------------------------------------------===//
// equiv
//===------------------------------------------------------------------===//

class EquivWorkload : public Workload {
  public:
    EquivWorkload(uint64_t seed, unsigned threads, fs::path workdir)
        : seed_(seed), base_(baseSeed(seed)), threads_(threads),
          workdir_(std::move(workdir))
    {
    }

    const char *itemName() const override { return "variants"; }

    void
    setUp(unsigned part) override
    {
        support::MetricsRegistry registry;
        for (uint64_t k = part * kEquivStoresPerPart;
             k < (part + 1) * kEquivStoresPerPart; ++k) {
            corpus::CampaignPlan plan = campaignPlan(
                base_ + k * kEquivSeedsPerStore, kEquivSeedsPerStore);
            plan.computePrimary = false;
            plan.missedByBuild = SIZE_MAX;
            stores_.push_back(freshStore(
                workdir_ / ("store" + std::to_string(k)), nullptr));
            runCampaign(*stores_.back(), plan, threads_, &registry);
        }
    }

    uint64_t
    runJob(unsigned index) override
    {
        support::MetricsRegistry registry;
        return analyze(index, registry).variants;
    }

    uint64_t
    runTracedJob(unsigned index, LayerFold *fold) override
    {
        support::MetricsRegistry registry;
        const equiv::EquivSummary *summary = nullptr;
        {
            support::TraceSpan span("equiv.job", "bench");
            summary = &analyze(index, registry);
        }
        {
            // The engine's store reads happen inside the call, with no
            // span; replay exactly those reads to time the corpus layer.
            support::TraceSpan span("corpus.read", "bench");
            corpus::CorpusStore &store = *stores_[store_];
            corpus::readCheckpointState(store);
            for (const corpus::StoredRecord &stored : store.loadRecords())
                if (stored.record.valid)
                    store.getProgram(stored.programHash);
        }
        if (fold) {
            fold->add("equiv.programs", double(summary->programs));
            fold->add("equiv.variants", double(summary->variants));
            for (const auto &[reason, count] : summary->rejects)
                fold->add("equiv.reject." + reason, double(count));
        }
        return summary->variants;
    }

    void
    check(Checks &checks) override
    {
        checks.expect(summary_->variants > 0, "equiv proved no variants");
        // Every analysis of a store must repeat its first one. Program,
        // variant and reject counts come from the transforms and the
        // interpreter and must match exactly; the summary text and the
        // findings also depend on the optimizer.
        auto [it, first] = references_.try_emplace(store_, *summary_);
        if (first)
            return;
        const equiv::EquivSummary &ref = it->second;
        checks.expect(summary_->programs == ref.programs &&
                          summary_->variants == ref.variants &&
                          summary_->rejects == ref.rejects,
                      "equiv variant counts differ from the store's first "
                      "analysis");
        checks.compareRepeat(equiv::equivSummaryText(*summary_) ==
                                 equiv::equivSummaryText(ref),
                             "equiv summary text of store " +
                                 std::to_string(store_) +
                                 " differs from its first analysis");
        checks.compareRepeat(equiv::serializeEquivSummary(*summary_) ==
                                 equiv::serializeEquivSummary(ref),
                             "equiv findings of store " +
                                 std::to_string(store_) +
                                 " differ from its first analysis");
    }

  private:
    const equiv::EquivSummary &
    analyze(unsigned index, support::MetricsRegistry &registry)
    {
        store_ = index % stores_.size();
        equiv::EquivOptions options;
        options.variantsPerProgram = kEquivVariants;
        options.maxChainLength = 3;
        options.threads = threads_;
        options.seed = seed_;
        options.metrics = &registry;
        summary_ = equiv::runEquivAnalysis(*stores_[store_], options);
        if (!summary_)
            throw std::runtime_error("equiv analysis found no checkpoint");
        return *summary_;
    }

    const uint64_t seed_;
    const uint64_t base_;
    const unsigned threads_;
    const fs::path workdir_;
    std::vector<std::unique_ptr<corpus::CorpusStore>> stores_;
    size_t store_ = 0;
    std::optional<equiv::EquivSummary> summary_;
    /** Per store: the summary of its first analysis. */
    std::map<size_t, equiv::EquivSummary> references_;
};

} // namespace

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    if (++failed <= 10)
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void
Checks::compareRepeat(bool same, const std::string &what)
{
    ++repeats;
    if (same)
        return;
    if (++repeatsDiffering <= 10)
        std::fprintf(stderr, "repeat differs: %s\n", what.c_str());
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, unsigned threads,
             const std::string &workdir)
{
    fs::path dir(workdir);
    if (name == "campaign")
        return std::make_unique<CampaignWorkload>(seed, threads, dir);
    if (name == "triage")
        return std::make_unique<TriageWorkload>(seed, threads, dir);
    if (name == "equiv")
        return std::make_unique<EquivWorkload>(seed, threads, dir);
    return nullptr;
}

} // namespace perfbench

#include "equiv/engine.hpp"

#include <algorithm>
#include <array>

#include "core/analysis.hpp"
#include "corpus/checkpoint.hpp"
#include "gen/canon.hpp"
#include "instrument/instrument.hpp"
#include "interp/interpreter.hpp"
#include "ir/clone.hpp"
#include "ir/lowering.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "support/hash.hpp"
#include "support/thread_pool.hpp"

namespace dce::equiv {

uint64_t
EquivSummary::rejected() const
{
    uint64_t total = 0;
    for (const auto &[reason, count] : rejects)
        total += count;
    return total;
}

uint64_t
countInstructions(const ir::Module &module)
{
    uint64_t total = 0;
    for (const auto &fn : module.functions()) {
        for (const auto &block : fn->blocks())
            total += block->size();
    }
    return total;
}

namespace {

/** Reject-reason labels (equiv.rejects{<reason>} metric keys). */
constexpr const char *kRejectMissingProgram = "missing-program";
constexpr const char *kRejectBaseInvalid = "base-invalid";
constexpr const char *kRejectNoEdit = "no-edit";
constexpr const char *kRejectStale = "stale";
constexpr const char *kRejectTrapTimeout = "trap-timeout";
constexpr const char *kRejectNotEquivalent = "not-equivalent";

/** splitmix64 finalizer — the per-variant seed must decorrelate
 * (options.seed, slot, k) without any shared-stream state. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

uint64_t
variantSeed(uint64_t stream, uint64_t slot, uint64_t index)
{
    return mix64(stream ^ mix64(slot ^ mix64(index)));
}

std::string
chainNames(const std::vector<TransformKind> &chain)
{
    std::string out;
    for (TransformKind kind : chain) {
        if (!out.empty())
            out += '+';
        out += transformKindName(kind);
    }
    return out;
}

/** Missed-marker count per marker-site kind — the shape the witness
 * rule compares across re-instrumentation (marker *indices* do not
 * correspond between base and variant; site kinds do). */
std::array<uint64_t, 8>
siteHistogram(const std::vector<instrument::MarkerInfo> &markers,
              const std::set<unsigned> &missed)
{
    std::array<uint64_t, 8> hist{};
    for (const instrument::MarkerInfo &info : markers) {
        if (missed.count(info.index))
            ++hist[static_cast<size_t>(info.site)];
    }
    return hist;
}

/**
 * The finding's witness marker: the smallest missed variant marker
 * from a site kind whose missed count grew over the base's — the kind
 * the regression actually touched. Falls back to the smallest missed
 * variant marker when no single kind grew (pure reshuffle).
 * @pre missed_variant is non-empty.
 */
unsigned
witnessMarker(const std::vector<instrument::MarkerInfo> &base_markers,
              const std::set<unsigned> &missed_base,
              const std::vector<instrument::MarkerInfo> &variant_markers,
              const std::set<unsigned> &missed_variant)
{
    std::array<uint64_t, 8> base_hist =
        siteHistogram(base_markers, missed_base);
    std::array<uint64_t, 8> variant_hist =
        siteHistogram(variant_markers, missed_variant);
    unsigned best = ~0u;
    for (size_t site = 0; site < variant_hist.size(); ++site) {
        if (variant_hist[site] <= base_hist[site])
            continue;
        for (const instrument::MarkerInfo &info : variant_markers) {
            if (static_cast<size_t>(info.site) == site &&
                missed_variant.count(info.index))
                best = std::min(best, info.index);
        }
    }
    return best != ~0u ? best : *missed_variant.begin();
}

/** Everything one record slot contributed, merged serially in slot
 * order afterwards. */
struct SlotOutcome {
    bool processed = false; ///< base parsed + executed cleanly
    uint64_t variants = 0;  ///< variants proven equivalent
    std::map<std::string, uint64_t> rejects;
    std::vector<EquivFinding> findings;
    std::vector<EquivOutlier> outliers;
};

/** One build's view of one (instrumented, lowered) program. */
struct BuildView {
    std::set<unsigned> missed; ///< truly dead but surviving
    uint64_t instrs = 0;
};

BuildView
buildView(const compiler::Compiler &comp, const ir::Module &lowered,
          const core::GroundTruth &truth)
{
    compiler::Compilation compiled = comp.compileLowered(lowered);
    BuildView view;
    view.missed =
        core::setIntersect(compiled.survivingMarkers(), truth.deadMarkers);
    view.instrs = countInstructions(compiled.module());
    return view;
}

void
analyzeRecord(const corpus::StoredRecord &stored,
              const std::string &base_text,
              const std::vector<core::BuildSpec> &builds,
              const std::vector<compiler::Compiler> &compilers,
              const EquivOptions &options, SlotOutcome &out)
{
    // The store holds canonical instrumented text; strip it back to
    // the program the transforms operate on, then re-canonicalize so
    // the base goes through byte-for-byte the same instrument + print
    // path every variant will.
    std::unique_ptr<lang::TranslationUnit> stripped =
        gen::parseStripped(base_text);
    if (!stripped) {
        ++out.rejects[kRejectBaseInvalid];
        return;
    }
    gen::Canonical base = gen::canonicalize(*stripped);

    std::unique_ptr<ir::Module> stripped_lowered =
        ir::lowerToIr(*stripped);
    interp::ExecResult base_behavior = interp::execute(*stripped_lowered);
    if (!base_behavior.ok()) {
        ++out.rejects[kRejectBaseInvalid];
        return;
    }
    std::unique_ptr<ir::Module> base_lowered =
        ir::lowerToIr(*base.program.unit);
    core::GroundTruth base_truth = core::groundTruthFor(
        *base_lowered, base.program.markerCount());
    if (!base_truth.valid) {
        ++out.rejects[kRejectBaseInvalid];
        return;
    }
    out.processed = true;

    std::vector<BuildView> base_views;
    base_views.reserve(compilers.size());
    for (const compiler::Compiler &comp : compilers)
        base_views.push_back(buildView(comp, *base_lowered, base_truth));

    // First regressing/outlying variant wins per (record, build):
    // one witness per contract violation, not one per derivation.
    std::vector<bool> found(compilers.size(), false);
    std::vector<bool> outlying(compilers.size(), false);

    for (unsigned k = 0; k < options.variantsPerProgram; ++k) {
        uint64_t vseed = variantSeed(options.seed, stored.slot, k);
        std::vector<TransformKind> chain;
        std::unique_ptr<lang::TranslationUnit> variant = deriveVariant(
            *stripped, vseed, options.maxChainLength, &chain);
        if (!variant) {
            ++out.rejects[kRejectNoEdit];
            continue;
        }
        gen::Canonical canon = gen::canonicalize(*variant);
        if (canon.hash == base.hash) {
            ++out.rejects[kRejectStale];
            continue;
        }

        // The equivalence check is the oracle's soundness: a transform
        // bug must surface here as a counted reject, never downstream
        // as a finding.
        std::unique_ptr<ir::Module> variant_stripped_lowered =
            ir::lowerToIr(*variant);
        interp::ExecResult variant_behavior =
            interp::execute(*variant_stripped_lowered);
        if (variant_behavior.status == interp::ExecStatus::Timeout ||
            variant_behavior.status == interp::ExecStatus::Trap) {
            ++out.rejects[kRejectTrapTimeout];
            continue;
        }
        if (!interp::observablyEqual(base_behavior, variant_behavior)) {
            ++out.rejects[kRejectNotEquivalent];
            continue;
        }

        std::unique_ptr<ir::Module> variant_lowered =
            ir::lowerToIr(*canon.program.unit);
        core::GroundTruth variant_truth = core::groundTruthFor(
            *variant_lowered, canon.program.markerCount());
        if (!variant_truth.valid) {
            ++out.rejects[kRejectTrapTimeout];
            continue;
        }
        ++out.variants;

        for (size_t b = 0; b < compilers.size(); ++b) {
            BuildView view =
                buildView(compilers[b], *variant_lowered, variant_truth);
            if (!found[b] &&
                view.missed.size() > base_views[b].missed.size()) {
                found[b] = true;
                EquivFinding finding;
                finding.slot = stored.slot;
                finding.seed = stored.record.seed;
                finding.baseHash = base.hash;
                finding.variantHash = canon.hash;
                finding.variantIndex = k;
                finding.chain = chain;
                finding.spec = builds[b];
                finding.build = builds[b].name();
                finding.buildIndex = b;
                finding.marker = witnessMarker(
                    base.program.markers, base_views[b].missed,
                    canon.program.markers, view.missed);
                finding.missedBase =
                    static_cast<unsigned>(base_views[b].missed.size());
                finding.missedVariant =
                    static_cast<unsigned>(view.missed.size());
                finding.variantText = canon.text;
                out.findings.push_back(std::move(finding));
            }
            if (!outlying[b] &&
                base_views[b].instrs >= options.outlierMinInstrs &&
                view.instrs * options.outlierDenominator >=
                    base_views[b].instrs * options.outlierNumerator) {
                outlying[b] = true;
                EquivOutlier outlier;
                outlier.slot = stored.slot;
                outlier.baseHash = base.hash;
                outlier.variantHash = canon.hash;
                outlier.variantIndex = k;
                outlier.chain = chain;
                outlier.build = builds[b].name();
                outlier.baseInstrs = base_views[b].instrs;
                outlier.variantInstrs = view.instrs;
                out.outliers.push_back(std::move(outlier));
            }
        }
    }
}

} // namespace

std::optional<EquivSummary>
runEquivAnalysis(corpus::CorpusStore &store, const EquivOptions &options)
{
    std::optional<corpus::CheckpointState> state =
        corpus::readCheckpointState(store);
    if (!state)
        return std::nullopt;

    std::vector<corpus::StoredRecord> records = store.loadRecords();
    std::vector<compiler::Compiler> compilers;
    compilers.reserve(state->plan.builds.size());
    for (const core::BuildSpec &spec : state->plan.builds)
        compilers.push_back(spec.make());

    support::emitEvent(
        options.events,
        support::Event("equiv_started", {support::kPhaseEquiv, 0, 0})
            .num("records", records.size())
            .num("variants_per_program", options.variantsPerProgram)
            .num("seed", options.seed));

    // Fan out per record slot; every slot is a pure function of
    // (record, plan, options), so the merge below sees the same slot
    // contents for every thread count.
    std::vector<SlotOutcome> slots(records.size());
    support::ThreadPool pool(options.threads);
    pool.forChunks(records.size(), 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            const corpus::StoredRecord &stored = records[i];
            if (!stored.record.valid) {
                ++slots[i].rejects[kRejectBaseInvalid];
                continue;
            }
            std::optional<std::string> text =
                store.getProgram(stored.programHash);
            if (!text) {
                ++slots[i].rejects[kRejectMissingProgram];
                continue;
            }
            analyzeRecord(stored, *text, state->plan.builds, compilers,
                          options, slots[i]);
        }
    });

    // Serial merge in slot order: counters, cap, events.
    EquivSummary summary;
    summary.variantsPerProgram = options.variantsPerProgram;
    summary.seed = options.seed;
    const size_t nbuilds = std::max<size_t>(1, compilers.size());
    for (size_t i = 0; i < slots.size(); ++i) {
        SlotOutcome &slot = slots[i];
        summary.programs += slot.processed ? 1 : 0;
        summary.variants += slot.variants;
        for (const auto &[reason, count] : slot.rejects)
            summary.rejects[reason] += count;
        for (EquivFinding &finding : slot.findings) {
            if (summary.findings.size() >= options.maxFindings)
                break;
            support::emitEvent(
                options.events,
                support::Event(
                    "equiv_finding",
                    {support::kPhaseEquiv, finding.slot + 1,
                     (uint64_t(finding.variantIndex) * nbuilds +
                      finding.buildIndex) *
                         2})
                    .num("slot", finding.slot)
                    .num("seed", finding.seed)
                    .str("build", finding.build)
                    .num("marker", finding.marker)
                    .num("missed_base", finding.missedBase)
                    .num("missed_variant", finding.missedVariant)
                    .str("base", finding.baseHash)
                    .str("variant", finding.variantHash)
                    .str("chain", chainNames(finding.chain)));
            summary.findings.push_back(std::move(finding));
        }
        for (EquivOutlier &outlier : slot.outliers) {
            support::emitEvent(
                options.events,
                support::Event(
                    "equiv_outlier",
                    {support::kPhaseEquiv, outlier.slot + 1,
                     (uint64_t(outlier.variantIndex) * nbuilds) * 2 + 1})
                    .num("slot", outlier.slot)
                    .str("build", outlier.build)
                    .num("base_instrs", outlier.baseInstrs)
                    .num("variant_instrs", outlier.variantInstrs)
                    .str("chain", chainNames(outlier.chain)));
            summary.outliers.push_back(std::move(outlier));
        }
    }

    support::MetricsRegistry &registry =
        options.metrics ? *options.metrics
                        : support::MetricsRegistry::global();
    registry.counter("equiv.programs").add(summary.programs);
    registry.counter("equiv.variants").add(summary.variants);
    for (const auto &[reason, count] : summary.rejects)
        registry.counter("equiv.rejects", reason).add(count);
    registry.counter("equiv.findings").add(summary.findings.size());
    registry.counter("equiv.outliers").add(summary.outliers.size());

    support::emitEvent(
        options.events,
        support::Event("equiv_finished",
                       {support::kPhaseEquiv, ~uint64_t{0}, 0})
            .num("programs", summary.programs)
            .num("variants", summary.variants)
            .num("rejects", summary.rejected())
            .num("findings", summary.findings.size())
            .num("outliers", summary.outliers.size()));
    return summary;
}

//===------------------------------------------------------------------===//
// checkEquivPair — the positive-control hook
//===------------------------------------------------------------------===//

namespace {

/** Per-side state of a pair probe. */
struct PairSide {
    bool valid = false;
    instrument::Instrumented program;
    std::unique_ptr<ir::Module> plainLowered; ///< un-instrumented
    std::unique_ptr<ir::Module> lowered;      ///< instrumented
    interp::ExecResult behavior;              ///< of the plain lowering
    core::GroundTruth truth;
};

PairSide
probeSide(const std::string &source)
{
    PairSide side;
    DiagnosticEngine diags;
    std::unique_ptr<lang::TranslationUnit> unit =
        lang::parseAndCheck(source, diags);
    if (!unit)
        return side;
    side.plainLowered = ir::lowerToIr(*unit);
    side.behavior = interp::execute(*side.plainLowered);
    if (!side.behavior.ok())
        return side;
    side.program = instrument::instrumentUnit(*unit);
    side.lowered = ir::lowerToIr(*side.program.unit);
    side.truth = core::groundTruthFor(*side.lowered,
                                      side.program.markerCount());
    side.valid = side.truth.valid;
    return side;
}

std::pair<std::set<unsigned>, uint64_t>
optimizeWith(const ir::Module &lowered, const opt::PassConfig &config,
             compiler::OptLevel level, const core::GroundTruth &truth)
{
    std::unique_ptr<ir::Module> module = ir::cloneModule(lowered);
    opt::PassManager pm(compiler::adjustForLevel(config, level));
    compiler::buildPipeline(pm, level);
    pm.run(*module);
    return {core::setIntersect(compiler::survivingMarkersInIr(*module),
                               truth.deadMarkers),
            countInstructions(*module)};
}

} // namespace

PairOutcome
checkEquivPair(const std::string &base_source,
               const std::string &variant_source,
               const opt::PassConfig &config, compiler::OptLevel level)
{
    PairOutcome outcome;
    PairSide base = probeSide(base_source);
    PairSide variant = probeSide(variant_source);
    if (!base.valid || !variant.valid)
        return outcome;
    outcome.valid = true;
    outcome.equivalent =
        interp::observablyEqual(base.behavior, variant.behavior);
    if (!outcome.equivalent)
        return outcome;
    outcome.missedBase =
        optimizeWith(*base.lowered, config, level, base.truth).first;
    outcome.missedVariant =
        optimizeWith(*variant.lowered, config, level, variant.truth)
            .first;
    if (outcome.missedVariant.size() > outcome.missedBase.size()) {
        outcome.findingMarker = witnessMarker(
            base.program.markers, outcome.missedBase,
            variant.program.markers, outcome.missedVariant);
    }
    return outcome;
}

//===------------------------------------------------------------------===//
// Persistence
//===------------------------------------------------------------------===//

namespace {

void
writeChain(support::JsonWriter &json,
           const std::vector<TransformKind> &chain)
{
    json.beginArray();
    for (TransformKind kind : chain)
        json.value(transformKindName(kind));
    json.endArray();
}

std::vector<TransformKind>
readChain(const support::JsonValue *value)
{
    std::vector<TransformKind> chain;
    if (!value || !value->isArray())
        return chain;
    for (const support::JsonValue &item : value->items) {
        if (std::optional<TransformKind> kind =
                transformKindFromName(item.text))
            chain.push_back(*kind);
    }
    return chain;
}

} // namespace

std::string
serializeEquivSummary(const EquivSummary &summary)
{
    support::JsonWriter json;
    json.beginObject();
    json.field("version", uint64_t{1});
    json.field("k", summary.variantsPerProgram);
    json.field("seed", summary.seed);
    json.field("programs", summary.programs);
    json.field("variants", summary.variants);
    json.key("rejects");
    json.beginObject();
    for (const auto &[reason, count] : summary.rejects)
        json.field(reason, count);
    json.endObject();
    json.key("findings");
    json.beginArray();
    for (const EquivFinding &finding : summary.findings) {
        json.beginObject();
        json.field("slot", finding.slot);
        json.field("seed", finding.seed);
        json.field("base", finding.baseHash);
        json.field("variant", finding.variantHash);
        json.field("index", finding.variantIndex);
        json.key("chain");
        writeChain(json, finding.chain);
        json.field("build", finding.build);
        json.field("build_index", uint64_t{finding.buildIndex});
        json.field("compiler",
                   uint64_t(static_cast<int>(finding.spec.id)));
        json.field("level",
                   uint64_t(static_cast<int>(finding.spec.level)));
        json.field("commit", uint64_t{finding.spec.commit});
        json.field("marker", finding.marker);
        json.field("missed_base", finding.missedBase);
        json.field("missed_variant", finding.missedVariant);
        json.field("text", finding.variantText);
        json.field("signature", finding.signature);
        json.field("confirmed", finding.confirmed);
        json.field("duplicate", finding.duplicate);
        json.field("fixed", finding.fixed);
        json.field("tests", finding.reductionTests);
        json.endObject();
    }
    json.endArray();
    json.key("outliers");
    json.beginArray();
    for (const EquivOutlier &outlier : summary.outliers) {
        json.beginObject();
        json.field("slot", outlier.slot);
        json.field("base", outlier.baseHash);
        json.field("variant", outlier.variantHash);
        json.field("index", outlier.variantIndex);
        json.key("chain");
        writeChain(json, outlier.chain);
        json.field("build", outlier.build);
        json.field("base_instrs", outlier.baseInstrs);
        json.field("variant_instrs", outlier.variantInstrs);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return support::sealJsonLine(json.take());
}

std::optional<EquivSummary>
readEquivSummary(std::string_view line)
{
    std::optional<support::JsonValue> value =
        support::unsealJsonLine(line);
    if (!value || !value->isObject() || value->getU64("version") != 1)
        return std::nullopt;
    EquivSummary summary;
    summary.variantsPerProgram =
        static_cast<unsigned>(value->getU64("k"));
    summary.seed = value->getU64("seed");
    summary.programs = value->getU64("programs");
    summary.variants = value->getU64("variants");
    if (const support::JsonValue *rejects = value->get("rejects")) {
        for (const auto &[reason, count] : rejects->members)
            summary.rejects[reason] = count.asU64();
    }
    if (const support::JsonValue *findings = value->get("findings")) {
        for (const support::JsonValue &item : findings->items) {
            EquivFinding finding;
            finding.slot = item.getU64("slot");
            finding.seed = item.getU64("seed");
            finding.baseHash = item.getString("base");
            finding.variantHash = item.getString("variant");
            finding.variantIndex =
                static_cast<unsigned>(item.getU64("index"));
            finding.chain = readChain(item.get("chain"));
            finding.build = item.getString("build");
            finding.buildIndex =
                static_cast<size_t>(item.getU64("build_index"));
            finding.spec.id = static_cast<compiler::CompilerId>(
                item.getU64("compiler"));
            finding.spec.level = static_cast<compiler::OptLevel>(
                item.getU64("level"));
            finding.spec.commit =
                static_cast<size_t>(item.getU64("commit"));
            finding.marker =
                static_cast<unsigned>(item.getU64("marker"));
            finding.missedBase =
                static_cast<unsigned>(item.getU64("missed_base"));
            finding.missedVariant =
                static_cast<unsigned>(item.getU64("missed_variant"));
            finding.variantText = item.getString("text");
            finding.signature = item.getString("signature");
            finding.confirmed = item.getBool("confirmed");
            finding.duplicate = item.getBool("duplicate");
            finding.fixed = item.getBool("fixed");
            finding.reductionTests =
                static_cast<unsigned>(item.getU64("tests"));
            summary.findings.push_back(std::move(finding));
        }
    }
    if (const support::JsonValue *outliers = value->get("outliers")) {
        for (const support::JsonValue &item : outliers->items) {
            EquivOutlier outlier;
            outlier.slot = item.getU64("slot");
            outlier.baseHash = item.getString("base");
            outlier.variantHash = item.getString("variant");
            outlier.variantIndex =
                static_cast<unsigned>(item.getU64("index"));
            outlier.chain = readChain(item.get("chain"));
            outlier.build = item.getString("build");
            outlier.baseInstrs = item.getU64("base_instrs");
            outlier.variantInstrs = item.getU64("variant_instrs");
            summary.outliers.push_back(std::move(outlier));
        }
    }
    return summary;
}

std::string
equivSummaryText(const EquivSummary &summary)
{
    std::string out = "== metamorphic ==\n";
    out += "programs analysed: " + std::to_string(summary.programs) +
           "\n";
    out += "variants (K=" +
           std::to_string(summary.variantsPerProgram) +
           ", seed=" + std::to_string(summary.seed) +
           "): " + std::to_string(summary.variants) + " equivalent, " +
           std::to_string(summary.rejected()) + " rejected\n";
    for (const auto &[reason, count] : summary.rejects) {
        out += "  reject " + std::string(reason) + ": " +
               std::to_string(count) + "\n";
    }
    out += "equiv findings: " + std::to_string(summary.findings.size()) +
           "\n";
    for (const EquivFinding &finding : summary.findings) {
        out += "  slot " + std::to_string(finding.slot) + " build " +
               finding.build + " marker " +
               std::to_string(finding.marker) + ": missed " +
               std::to_string(finding.missedBase) + " -> " +
               std::to_string(finding.missedVariant) + " (chain " +
               chainNames(finding.chain) + ")";
        if (!finding.signature.empty())
            out += " [" + finding.signature + "]";
        out += "\n";
    }
    out += "instruction outliers: " +
           std::to_string(summary.outliers.size()) + "\n";
    for (const EquivOutlier &outlier : summary.outliers) {
        out += "  slot " + std::to_string(outlier.slot) + " build " +
               outlier.build + " instrs " +
               std::to_string(outlier.baseInstrs) + " -> " +
               std::to_string(outlier.variantInstrs) + " (chain " +
               chainNames(outlier.chain) + ")\n";
    }
    return out;
}

//===------------------------------------------------------------------===//
// Triage bridge
//===------------------------------------------------------------------===//

std::vector<core::Finding>
toTriageFindings(const EquivSummary &summary)
{
    std::vector<core::Finding> findings;
    findings.reserve(summary.findings.size());
    for (const EquivFinding &finding : summary.findings) {
        // reference == missedBy: feasibility evidence is the base
        // program, so the reference-eliminates probe is skipped.
        findings.push_back(core::Finding{finding.seed, finding.marker,
                                         finding.spec, finding.spec});
    }
    return findings;
}

core::TriageSummary
triageEquivFindings(EquivSummary &summary, core::TriageOptions options)
{
    options.sourceFor = [&summary](const core::Finding &,
                                   size_t index) {
        return summary.findings[index].variantText;
    };
    std::vector<core::Finding> findings = toTriageFindings(summary);
    core::TriageSummary triaged =
        core::triageFindings(findings, options);

    // Reports come back in findings order (duplicates beyond the
    // allowance dropped); match them up sequentially.
    size_t next = 0;
    for (const core::Report &report : triaged.reports) {
        while (next < summary.findings.size() &&
               !(summary.findings[next].seed == report.finding.seed &&
                 summary.findings[next].marker ==
                     report.finding.marker &&
                 summary.findings[next].spec == report.finding.missedBy))
            ++next;
        if (next == summary.findings.size())
            break;
        EquivFinding &finding = summary.findings[next];
        finding.signature = report.signature;
        finding.confirmed = report.confirmed;
        finding.duplicate = report.duplicate;
        finding.fixed = report.fixed;
        finding.reductionTests = report.reductionTests;
        ++next;
    }
    return triaged;
}

} // namespace dce::equiv

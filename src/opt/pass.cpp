#include "opt/pass.hpp"

#include <algorithm>

#include "ir/cfg.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "support/markers.hpp"
#include "support/trace.hpp"

namespace dce::opt {

namespace {

/**
 * Snapshot of the module used by the marker-elimination census: total
 * instruction count plus the number of live calls per marker index.
 * Declarations have no blocks, so markers themselves contribute
 * nothing; only call sites in defined functions are counted.
 */
struct ModuleCensus {
    uint64_t instrs = 0;
    std::vector<unsigned> markerCalls;
};

ModuleCensus
takeCensus(const ir::Module &module)
{
    ModuleCensus census;
    for (const auto &fn : module.functions()) {
        for (const auto &block : fn->blocks()) {
            census.instrs += block->instrs().size();
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() != ir::Opcode::Call)
                    continue;
                auto index = support::markerIndex(instr->callee->name());
                if (!index)
                    continue;
                if (*index >= census.markerCalls.size())
                    census.markerCalls.resize(*index + 1, 0);
                ++census.markerCalls[*index];
            }
        }
    }
    return census;
}

bool
holdsCallTo(const ir::Function &fn, const ir::Function *callee)
{
    for (const auto &block : fn.blocks()) {
        for (const auto &instr : block->instrs()) {
            if (instr->opcode() == ir::Opcode::Call &&
                instr->callee == callee)
                return true;
        }
    }
    return false;
}

} // namespace

bool
erasableWhenUncalled(const ir::Function &fn)
{
    return fn.isInternal() && !fn.isDeclaration() &&
           fn.name() != "main" && !fn.noDce();
}

bool
callsDoomed(const ir::Module &module, const ir::Function *callee,
            bool globaldce_ahead)
{
    // The functions holding a call to the callee: each must be one the
    // GlobalDCE ahead erases...
    std::vector<const ir::Function *> holders;
    for (const auto &fn : module.functions()) {
        if (!holdsCallTo(*fn, callee))
            continue;
        if (!globaldce_ahead || !erasableWhenUncalled(*fn))
            return false;
        holders.push_back(fn.get());
    }
    // ...and nothing may call it. No pass calls a function that has no
    // call left, so an uncalled holder stays uncalled until then.
    for (const auto &fn : module.functions()) {
        for (const auto &block : fn->blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() == ir::Opcode::Call &&
                    std::find(holders.begin(), holders.end(),
                              instr->callee) != holders.end())
                    return false;
            }
        }
    }
    return true;
}

unsigned
removeUnreachableBlocks(ir::Function &fn, const std::string &pass_name,
                        const PassContext &ctx, const char *why)
{
    if (!ctx.wantRemarks())
        return ir::removeUnreachableBlocks(fn);
    return ir::removeUnreachableBlocks(fn, [&](const ir::BasicBlock &block) {
        for (const auto &instr : block.instrs()) {
            if (instr->opcode() != ir::Opcode::Call)
                continue;
            auto index = support::markerIndex(instr->callee->name());
            if (!index)
                continue;
            ctx.remark(support::RemarkKind::MarkerCallRemoved, pass_name,
                       *index,
                       std::string("call in unreachable block '") +
                           block.name() + "' of '" + fn.name() +
                           "' removed (" + why + ")");
        }
    });
}

void
PassManager::add(std::unique_ptr<Pass> pass)
{
    // The pass class stands for its name: one class per pass.
    const Pass &added = *pass;
    if (added.name() == "globaldce")
        globalDceEnd_ = passes_.size() + 1;
    std::pair<std::type_index, std::string> key{typeid(added),
                                                added.flavour()};
    auto it = std::find(keys_.begin(), keys_.end(), key);
    keyOf_.push_back(static_cast<unsigned>(it - keys_.begin()));
    if (it == keys_.end())
        keys_.push_back(std::move(key));
    passes_.push_back(std::move(pass));
}

namespace {

/** Checking mode: why the pass's report disagrees with what it did to
 * the module, or empty. */
std::string
misreport(const ir::Module &module, bool skipped, bool changed,
          bool remarked, unsigned ids_before,
          const std::string &printed_before)
{
    if (skipped && (changed || remarked)) {
        return "skipped as unchanged but its run changed the module or "
               "emitted a remark";
    }
    if (!changed && (module.valueIdBound() != ids_before ||
                     ir::printModule(module) != printed_before))
        return "returned false but changed the module";
    return {};
}

} // namespace

bool
PassManager::run(ir::Module &module, bool verify_each,
                 const ir::Function *watched)
{
    stoppedEarly_ = false;
    // Is a globaldce still ahead once the passes before @p next ran?
    auto globaldce_ahead = [&](size_t next) {
        return config_.globalDce && globalDceEnd_ > next;
    };
    // The early exit: the watched callee's fate is fixed.
    auto doomed = [&](size_t next) {
        return watched && !verify_each &&
               callsDoomed(module, watched, globaldce_ahead(next));
    };
    // Checking mode: each marker the rule declared doomed, with where.
    std::vector<std::pair<const ir::Function *, std::string>> declared;
    auto declare = [&](size_t next, const std::string &where) {
        for (const auto &fn : module.functions()) {
            const ir::Function *marker = fn.get();
            auto known = [&](const auto &entry) {
                return entry.first == marker;
            };
            if (marker->isDeclaration() &&
                support::markerIndex(marker->name()) &&
                std::none_of(declared.begin(), declared.end(), known) &&
                callsDoomed(module, marker, globaldce_ahead(next)))
                declared.emplace_back(marker, where);
        }
    };
    if (doomed(0)) {
        stoppedEarly_ = true;
        return false;
    }
    if (verify_each)
        declare(0, "before the first pass");

    // The census (and the per-pass instruction deltas riding on it)
    // only runs when an observability sink is attached, and only after
    // a pass that changed the module.
    const bool census_wanted = remarks_ != nullptr ||
                               metrics_ != nullptr;
    ModuleCensus before;
    if (census_wanted)
        before = takeCensus(module);

    PassContext ctx(/*checking=*/verify_each);
    ctx.remarks = remarks_;
    ctx.metrics = metrics_;

    // Change-driven skipping. version counts the passes that changed
    // the module; clean_at[key] is the version at which the last pass
    // with that key returned false without emitting a remark. Running
    // it again before anything changes would repeat the same
    // deterministic no-op, so it is skipped.
    constexpr uint64_t kNever = ~uint64_t{0};
    uint64_t version = 0;
    std::vector<uint64_t> clean_at(keys_.size(), kNever);

    bool changed = false;
    for (size_t i = 0; i < passes_.size(); ++i) {
        Pass &pass = *passes_[i];
        const unsigned key = keyOf_[i];
        ctx.passIndex = static_cast<unsigned>(i);
        const bool skip = clean_at[key] == version;
        if (skip && !verify_each)
            continue;

        std::string printed_before;
        unsigned ids_before = 0;
        if (verify_each) {
            printed_before = ir::printModule(module);
            ids_before = module.valueIdBound();
        }
        const size_t remarks_before = remarks_ ? remarks_->size() : 0;

        // Pass names are cheap ("sccp") but must outlive the span;
        // keep the string on the stack for the duration.
        std::string pass_name;
        bool pass_changed;
        if (skip) {
            // Checking mode only: the skipped pass runs unrecorded.
            pass_changed = pass.run(module, config_, ctx);
        } else {
            support::Tracer &tracer = support::Tracer::global();
            if (tracer.enabled())
                pass_name = pass.name();
            support::TraceSpan span(pass_name.empty()
                                        ? std::string_view("pass")
                                        : std::string_view(pass_name),
                                    "pass");
            pass_changed = pass.run(module, config_, ctx);
        }
        const bool remarked =
            remarks_ != nullptr && remarks_->size() != remarks_before;

        if (verify_each) {
            std::string problem = misreport(module, skip, pass_changed,
                                            remarked, ids_before,
                                            printed_before);
            if (problem.empty())
                problem = ctx.analyses.error();
            if (problem.empty()) {
                ir::VerifyResult result = ir::verifyModule(module);
                if (!result.ok())
                    problem = result.str();
            }
            if (!problem.empty()) {
                lastError_ = "after pass '" + pass.name() + "':\n" +
                             problem;
                return changed;
            }
            if (skip)
                continue;
        }

        if (!pass_changed) {
            if (!remarked)
                clean_at[key] = version;
            continue;
        }
        ++version;
        changed = true;
        ctx.analyses.invalidateModule();

        if (census_wanted) {
            ModuleCensus after = takeCensus(module);
            // Authoritative attribution: a marker whose live-call
            // count went >0 → 0 died during this pass. Counts cannot
            // come back (inlining only clones existing calls), so this
            // fires at most once per marker.
            for (unsigned marker = 0;
                 remarks_ && marker < before.markerCalls.size(); ++marker) {
                if (before.markerCalls[marker] == 0 ||
                    (marker < after.markerCalls.size() &&
                     after.markerCalls[marker] != 0))
                    continue;
                if (pass_name.empty())
                    pass_name = pass.name();
                remarks_->emit(support::RemarkKind::MarkerEliminated,
                               pass_name, ctx.passIndex, marker,
                               "last call to " +
                                   support::markerName(marker) +
                                   " eliminated");
            }
            if (metrics_ && after.instrs != before.instrs) {
                if (pass_name.empty())
                    pass_name = pass.name();
                if (after.instrs < before.instrs) {
                    metrics_->counter("pass.instrs_removed", pass_name)
                        .add(before.instrs - after.instrs);
                } else {
                    metrics_->counter("pass.instrs_added", pass_name)
                        .add(after.instrs - before.instrs);
                }
            }
            before = std::move(after);
        }
        if (verify_each)
            declare(i + 1, "after pass '" + pass.name() + "'");
        if (doomed(i + 1)) {
            stoppedEarly_ = true;
            return changed;
        }
    }
    for (const auto &[marker, where] : declared) {
        for (const auto &fn : module.functions()) {
            if (!holdsCallTo(*fn, marker))
                continue;
            lastError_ = where + ":\n" + marker->name() +
                         " was declared doomed, but a call to it "
                         "survives the pipeline in '" + fn->name() + "'";
            return changed;
        }
    }
    return changed;
}

} // namespace dce::opt

/**
 * @file
 * GlobalOpt: interprocedural value analysis of internal globals. This
 * pass is where the paper's flagship GCC-vs-LLVM divergence lives
 * (Listings 4a/6a; DESIGN.md D1/D4/R7):
 *
 *  - D1  foldNeverStoredGlobals: a non-escaping internal global with no
 *        stores anywhere keeps its initializer forever; loads fold.
 *        (Both compilers have this.)
 *  - D4  foldStoredEqualsInitGlobals: loads also fold when every store
 *        writes a value equal to the initializer (LLVM globalopt's
 *        "stored once same value"). GCC's flow-insensitive analysis
 *        lacks this — `if (a) dead(); a = 0;` stays unoptimized there.
 *  - R7  flowSensitiveGlobalLoads: loads in main that provably execute
 *        before any store fold regardless of the stored value (LLVM
 *        <= 3.7). Its removal is the regression behind Listing 6a.
 *  - D6  foldUniformZeroArrays: loads with a variable index from a
 *        never-stored all-zero array fold to 0 (Listing 9f). Constant
 *        in-bounds indices always fold under D1. (Folding a non-zero
 *        uniform array at a variable index would be unsound under
 *        MiniC's defined out-of-bounds-reads-zero semantics, so only
 *        the zero case exists.)
 */
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/cfg.hpp"
#include "ir/loop_info.hpp"
#include "opt/alias.hpp"
#include "opt/pass.hpp"

namespace dce::opt {

using ir::BasicBlock;
using ir::Constant;
using ir::Function;
using ir::GlobalInit;
using ir::GlobalVar;
using ir::Instr;
using ir::IrType;
using ir::Module;
using ir::Opcode;
using ir::Value;

namespace {

class GlobalOpt : public Pass {
  public:
    std::string name() const override { return "globalopt"; }

    bool
    run(Module &module, const PassConfig &config,
        PassContext &ctx) override
    {
        if (!config.foldNeverStoredGlobals)
            return false;
        module_ = &module;
        config_ = &config;
        ctx_ = &ctx;
        const EscapeInfo &escape = ctx.analyses.escapeInfo(module);
        const MemorySummary &summary = ctx.analyses.memorySummary(module);

        bool changed = false;
        bucketAccesses();
        for (size_t i = 0; i < module.globals().size(); ++i) {
            const GlobalVar &global = *module.globals()[i];
            if (!global.isInternal() || escape.escapes(&global))
                continue;
            changed |= analyzeGlobal(global, i, summary);
        }
        buckets_.clear();
        if (config.localizeGlobals) {
            // Loop-restricted register promotion (the LICM scalar
            // promotion family): only globals with an access inside a
            // loop of main are worth (and, empirically in GCC/LLVM,
            // eligible for) promotion. Promoting straight-line-only
            // globals would erase the flow-(in)sensitivity differences
            // the paper documents (Listings 4a/6a).
            std::unordered_set<const BasicBlock *> loop_blocks;
            Function *main_fn = module.getFunction("main");
            if (main_fn && !main_fn->isDeclaration()) {
                const ir::LoopInfo &loops =
                    ctx.analyses.loopInfo(*main_fn);
                for (const auto &loop : loops.loops()) {
                    loop_blocks.insert(loop->blocks.begin(),
                                       loop->blocks.end());
                }
            }
            for (const auto &global : module.globals()) {
                if (global->isInternal() &&
                    !escape.escapes(global.get())) {
                    changed |= localize(*global, loop_blocks);
                }
            }
        }
        return changed;
    }

    /** Turn a scalar internal global accessed by exactly one function
     * into an alloca of that function (initialized explicitly), so
     * mem2reg can promote it to SSA. */
    bool
    localize(GlobalVar &g,
             const std::unordered_set<const BasicBlock *> &loop_blocks)
    {
        if (g.isArray() || g.count() != 1)
            return false;
        if (g.elementType().isPtr() && !g.init.empty() &&
            g.init[0].isAddress()) {
            return false; // address initializer: keep it in memory
        }
        Function *only_user = nullptr;
        for (const Instr *user : g.users()) {
            Function *fn = user->parent()->parent();
            if (only_user && fn != only_user)
                return false;
            only_user = fn;
            // Only direct load/store addresses qualify (non-escaping
            // already rules the rest out, but stay defensive).
            bool direct =
                (user->opcode() == Opcode::Load &&
                 user->operand(0) == &g) ||
                (user->opcode() == Opcode::Store &&
                 user->operand(1) == &g && user->operand(0) != &g);
            if (!direct)
                return false;
        }
        if (!only_user || only_user->name() != "main")
            return false; // conservatively only main (executes once)
        bool accessed_in_loop = false;
        for (const Instr *user : g.users())
            accessed_in_loop |= loop_blocks.count(user->parent()) != 0;
        if (!accessed_in_loop)
            return false;
        // Materialize: alloca + initializing store at entry top.
        BasicBlock *entry = only_user->entry();
        auto alloca_instr = module_->newInstr(Opcode::Alloca,
                                                    IrType::ptrTy());
        alloca_instr->allocatedType = g.elementType();
        alloca_instr->setId(module_->nextValueId());
        Instr *slot = entry->insertBefore(0, std::move(alloca_instr));

        int64_t init_value = g.init.empty() ? 0 : g.init[0].value;
        Value *init_const =
            g.elementType().isPtr()
                ? module_->constant(IrType::ptrTy(), 0)
                : module_->constant(g.elementType(), init_value);
        auto store = module_->newInstr(Opcode::Store,
                                             IrType::voidTy());
        store->addOperand(init_const);
        store->addOperand(slot);
        entry->insertBefore(1, std::move(store));

        g.replaceAllUsesWith(slot);
        return true;
    }

  private:
    /** Replace @p load by @p replacement. */
    void
    eraseLoad(Instr *load, Value *replacement)
    {
        // A pointer load's users may now resolve to a global.
        if (load->type().isPtr())
            bucketsValid_ = false;
        load->replaceAllUsesWith(replacement);
        load->parent()->erase(load);
    }

    /** The initializer value of slot @p index (missing slots are 0). */
    GlobalInit
    initOf(const GlobalVar &g, uint64_t index) const
    {
        if (index < g.init.size())
            return g.init[index];
        return GlobalInit::intValue(0);
    }

    /** All loads/stores in the module whose pointer resolves to @p g. */
    struct Accesses {
        std::vector<Instr *> loads;
        std::vector<Instr *> stores;
        bool sawUnresolvedStoreOffset = false;
    };

    /** Bucket every global's loads and stores (module order within a
     * bucket) in one walk. Analyzing a global edits only its own loads,
     * so the other buckets stay exact until a pointer load is replaced
     * (eraseLoad then marks them stale and accessesOf rebuilds). */
    void
    bucketAccesses()
    {
        const PointerIndex<GlobalVar> index(module_->globals());
        buckets_.assign(module_->globals().size(), Accesses{});
        bucketsValid_ = true;
        for (const auto &fn : module_->functions()) {
            for (const auto &block : fn->blocks()) {
                for (const auto &instr : block->instrs()) {
                    bool is_load = instr->opcode() == Opcode::Load;
                    if (!is_load && instr->opcode() != Opcode::Store)
                        continue;
                    PtrBase base =
                        resolvePtrBase(instr->operand(is_load ? 0 : 1));
                    if (base.kind != PtrBase::Kind::Global)
                        continue;
                    Accesses &bucket = buckets_[static_cast<size_t>(
                        index.find(static_cast<const GlobalVar *>(
                            base.object)))];
                    (is_load ? bucket.loads : bucket.stores)
                        .push_back(instr.get());
                }
            }
        }
    }

    /** Accesses of the global at position @p index, re-bucketing
     * first if a replaced pointer load made the buckets inexact. */
    Accesses
    accessesOf(size_t index)
    {
        if (!bucketsValid_)
            bucketAccesses();
        Accesses result = std::move(buckets_[index]);
        for (const Instr *store : result.stores) {
            if (!resolvePtrBase(store->operand(1)).offset)
                result.sawUnresolvedStoreOffset = true;
        }
        return result;
    }

    /** True if every store writes the slot's initializer value. */
    bool
    storesMatchInit(const GlobalVar &g,
                    const std::vector<Instr *> &stores) const
    {
        for (const Instr *store : stores) {
            PtrBase base = resolvePtrBase(store->operand(1));
            if (!base.offset)
                return false;
            GlobalInit init = initOf(g, static_cast<uint64_t>(
                                            *base.offset));
            const Value *value = store->operand(0);
            if (g.elementType().isPtr()) {
                if (value->isConstant()) {
                    // Storing null: matches a null initializer.
                    if (init.isAddress())
                        return false;
                    continue;
                }
                PtrBase stored = resolvePtrBase(value);
                if (stored.kind != PtrBase::Kind::Global ||
                    !stored.offset || !init.isAddress() ||
                    stored.object != init.base ||
                    *stored.offset != init.value) {
                    return false;
                }
            } else {
                if (!value->isConstant())
                    return false;
                if (static_cast<const Constant *>(value)->value() !=
                    init.value) {
                    return false;
                }
            }
        }
        return true;
    }

    /** Replace @p load with the constant content of slot @p init.
     * Pointer slots materialize (gep @base, offset). */
    bool
    replaceLoadWithInit(Instr *load, const GlobalInit &init)
    {
        IrType type = load->type();
        Value *replacement = nullptr;
        if (init.isAddress()) {
            if (!type.isPtr())
                return false;
            GlobalVar *base = module_->getGlobal(init.base->name());
            if (init.value == 0) {
                replacement = base;
            } else {
                auto gep = module_->newInstr(Opcode::Gep,
                                                   IrType::ptrTy());
                gep->addOperand(base);
                gep->addOperand(module_->constant(
                    IrType::i64(), init.value));
                gep->gepElemSize = base->elementType().sizeInBytes();
                gep->setId(module_->nextValueId());
                BasicBlock *block = load->parent();
                replacement = block->insertBefore(block->indexOf(load),
                                                  std::move(gep));
            }
        } else {
            if (type.isPtr())
                replacement = module_->constant(IrType::ptrTy(), 0);
            else
                replacement = module_->constant(type, init.value);
        }
        eraseLoad(load, replacement);
        return true;
    }

    bool
    foldLoadsFromConstantGlobal(const GlobalVar &g,
                                const std::vector<Instr *> &loads)
    {
        bool changed = false;
        for (Instr *load : loads) {
            PtrBase base = resolvePtrBase(load->operand(0));
            if (base.offset) {
                int64_t index = *base.offset;
                GlobalInit init =
                    (index >= 0 &&
                     static_cast<uint64_t>(index) < g.count())
                        ? initOf(g, static_cast<uint64_t>(index))
                        : GlobalInit::intValue(0); // OOB reads as zero
                changed |= replaceLoadWithInit(load, init);
                continue;
            }
            // Variable index: only the all-zero case folds (D6), since
            // an out-of-bounds read is defined to yield 0.
            if (!config_->foldUniformZeroArrays)
                continue;
            if (g.elementType().isPtr())
                continue;
            bool all_zero = true;
            for (uint64_t i = 0; i < g.count() && all_zero; ++i)
                all_zero = initOf(g, i).value == 0;
            if (all_zero) {
                eraseLoad(load, module_->constant(load->type(), 0));
                changed = true;
            }
        }
        return changed;
    }

    /** R7: fold loads in the entry function that execute before any
     * possible store to @p g. */
    bool
    foldFlowSensitiveLoads(const GlobalVar &g, const Accesses &accesses,
                           const MemorySummary &summary)
    {
        Function *main_fn = module_->getFunction("main");
        if (!main_fn || main_fn->isDeclaration())
            return false;

        auto writesG = [&](const Instr &instr) {
            if (instr.opcode() == Opcode::Store) {
                PtrBase base = resolvePtrBase(instr.operand(1));
                // Non-escaping global: only resolved pointers reach it.
                return base.kind == PtrBase::Kind::Global &&
                       base.object == &g;
            }
            if (instr.opcode() == Opcode::Call)
                return summary.mayWrite(instr.callee, &g);
            return false;
        };

        // Forward dataflow: is the *start* of each block reachable only
        // through store-free paths?
        std::unordered_map<const BasicBlock *, bool> clean_in;
        auto preds = ir::predecessorMap(*main_fn);
        for (const auto &block : main_fn->blocks())
            clean_in[block.get()] = true;
        bool iterate = true;
        while (iterate) {
            iterate = false;
            for (const auto &block : main_fn->blocks()) {
                bool clean = block.get() == main_fn->entry();
                if (!clean) {
                    clean = !preds.at(block.get()).empty();
                    for (const BasicBlock *pred : preds.at(block.get())) {
                        bool pred_out = clean_in.at(pred);
                        if (pred_out) {
                            for (const auto &instr : pred->instrs()) {
                                if (writesG(*instr)) {
                                    pred_out = false;
                                    break;
                                }
                            }
                        }
                        clean = clean && pred_out;
                    }
                }
                if (clean != clean_in.at(block.get())) {
                    clean_in[block.get()] = clean;
                    iterate = true;
                }
            }
        }

        bool changed = false;
        for (Instr *load : accesses.loads) {
            if (load->parent()->parent() != main_fn)
                continue;
            if (!clean_in.at(load->parent()))
                continue;
            // Check the block prefix before the load.
            bool clean = true;
            for (const auto &instr : load->parent()->instrs()) {
                if (instr.get() == load)
                    break;
                if (writesG(*instr)) {
                    clean = false;
                    break;
                }
            }
            if (!clean)
                continue;
            PtrBase base = resolvePtrBase(load->operand(0));
            if (!base.offset)
                continue;
            int64_t index = *base.offset;
            GlobalInit init =
                (index >= 0 && static_cast<uint64_t>(index) < g.count())
                    ? initOf(g, static_cast<uint64_t>(index))
                    : GlobalInit::intValue(0);
            changed |= replaceLoadWithInit(load, init);
        }
        return changed;
    }

    bool
    analyzeGlobal(const GlobalVar &g, size_t index,
                  const MemorySummary &summary)
    {
        Accesses accesses = accessesOf(index);
        bool constant_content =
            accesses.stores.empty() ||
            (config_->foldStoredEqualsInitGlobals &&
             !accesses.sawUnresolvedStoreOffset &&
             storesMatchInit(g, accesses.stores));

        if (constant_content)
            return foldLoadsFromConstantGlobal(g, accesses.loads);

        if (config_->flowSensitiveGlobalLoads)
            return foldFlowSensitiveLoads(g, accesses, summary);
        return false;
    }

    Module *module_ = nullptr;
    const PassConfig *config_ = nullptr;
    PassContext *ctx_ = nullptr;
    /// Per global position, its accesses (see bucketAccesses).
    std::vector<Accesses> buckets_;
    bool bucketsValid_ = false;
};

} // namespace

std::unique_ptr<Pass>
createGlobalOptPass()
{
    return std::make_unique<GlobalOpt>();
}

} // namespace dce::opt

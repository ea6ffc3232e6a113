/**
 * @file
 * Dead store elimination, two flavours:
 *
 *  - Intra-block: a store overwritten by a later MustAlias store with
 *    no possibly-aliasing read (or opaque call) in between is dead.
 *  - Exit DSE (D3 `dseAtExit`): a store to a non-escaping *internal*
 *    global is dead when no load of that global can execute between
 *    the store and program exit. This is what removes the trailing
 *    `c = 0;` of the paper's Listing 1 — GCC's missing capability
 *    (`movl $0, c(%rip)` survives in its assembly).
 *
 * Exit DSE is sound in our setting because internal globals are
 * unobservable after main returns (see interp's snapshot policy).
 */
#include <unordered_map>

#include "ir/cfg.hpp"
#include "opt/alias.hpp"
#include "opt/pass.hpp"

namespace dce::opt {

using ir::BasicBlock;
using ir::Function;
using ir::GlobalVar;
using ir::Instr;
using ir::Module;
using ir::Opcode;
using ir::Value;

namespace {

class Dse : public Pass {
  public:
    explicit Dse(bool allow_exit_dse) : allowExitDse_(allow_exit_dse) {}

    std::string name() const override { return "dse"; }
    std::string flavour() const override
    {
        return allowExitDse_ ? "exit" : "";
    }

    bool
    run(Module &module, const PassConfig &config,
        PassContext &ctx) override
    {
        bool exit_dse = config.dseAtExit && allowExitDse_;
        if (!config.dseIntraBlock && !exit_dse)
            return false;
        const EscapeInfo &escape = ctx.analyses.escapeInfo(module);
        const MemorySummary &summary = ctx.analyses.memorySummary(module);

        bool changed = false;
        if (config.dseIntraBlock) {
            for (const auto &fn : module.functions()) {
                for (const auto &block : fn->blocks())
                    changed |= intraBlock(*block, summary);
            }
        }
        if (exit_dse) {
            Function *main_fn = module.getFunction("main");
            if (main_fn && !main_fn->isDeclaration()) {
                for (const auto &global : module.globals()) {
                    if (global->isInternal() &&
                        !escape.escapes(global.get())) {
                        changed |= exitDse(*main_fn, *global, summary);
                    }
                }
            }
        }
        return changed;
    }

  private:
    bool allowExitDse_;

    bool
    intraBlock(BasicBlock &block, const MemorySummary &summary)
    {
        bool changed = false;
        for (size_t i = 0; i < block.size(); ++i) {
            Instr *store = block.instrs()[i].get();
            if (store->opcode() != Opcode::Store)
                continue;
            Value *ptr = store->operand(1);
            // Scan forward for an overwriting store.
            for (size_t j = i + 1; j < block.size(); ++j) {
                Instr *later = block.instrs()[j].get();
                if (later->opcode() == Opcode::Load) {
                    if (alias(later->operand(0), ptr) !=
                        AliasResult::NoAlias) {
                        break; // value may be read: store is live
                    }
                } else if (later->opcode() == Opcode::Call) {
                    if (callMayReadPtr(*later, ptr, summary))
                        break;
                } else if (later->opcode() == Opcode::Store) {
                    AliasResult overlap =
                        alias(later->operand(1), ptr);
                    if (overlap == AliasResult::MustAlias) {
                        block.erase(store);
                        changed = true;
                        --i; // indices shifted left
                        break;
                    }
                    // MayAlias store: neither kills nor reads; keep
                    // scanning (a read would still break out).
                } else if (later->isTerminator()) {
                    break;
                }
            }
        }
        return changed;
    }

    static bool
    callMayReadPtr(const Instr &call, const Value *ptr,
                   const MemorySummary &summary)
    {
        PtrBase base = resolvePtrBase(ptr);
        if (base.kind == PtrBase::Kind::Global) {
            const auto *g = static_cast<const GlobalVar *>(base.object);
            return summary.mayRead(call.callee, g) ||
                   summary.readsUnknown(call.callee);
        }
        // Unknown or alloca bases: be conservative.
        return true;
    }

    /** May any instruction from @p block's start to program exit read
     * @p g? Computed per block with a backward fixpoint. */
    bool
    exitDse(Function &main_fn, const GlobalVar &g,
            const MemorySummary &summary)
    {
        auto readsG = [&](const Instr &instr) {
            if (instr.opcode() == Opcode::Load) {
                PtrBase base = resolvePtrBase(instr.operand(0));
                // g does not escape: only resolved pointers reach it.
                return base.kind == PtrBase::Kind::Global &&
                       base.object == &g;
            }
            if (instr.opcode() == Opcode::Call)
                return summary.mayRead(instr.callee, &g);
            return false;
        };

        std::unordered_map<const BasicBlock *, bool> read_from_start;
        for (const auto &block : main_fn.blocks())
            read_from_start[block.get()] = false;
        bool iterate = true;
        while (iterate) {
            iterate = false;
            for (const auto &block : main_fn.blocks()) {
                bool reads = false;
                for (const auto &instr : block->instrs()) {
                    if (readsG(*instr)) {
                        reads = true;
                        break;
                    }
                }
                if (!reads) {
                    for (BasicBlock *succ : block->successors())
                        reads |= read_from_start.at(succ);
                }
                if (reads != read_from_start.at(block.get())) {
                    read_from_start[block.get()] = reads;
                    iterate = true;
                }
            }
        }

        bool changed = false;
        for (const auto &block : main_fn.blocks()) {
            for (size_t i = 0; i < block->size();) {
                Instr *store = block->instrs()[i].get();
                bool erased = false;
                if (store->opcode() == Opcode::Store) {
                    PtrBase base = resolvePtrBase(store->operand(1));
                    if (base.kind == PtrBase::Kind::Global &&
                        base.object == &g &&
                        !readAfter(*block, i + 1, readsG,
                                   read_from_start)) {
                        block->erase(store);
                        changed = true;
                        erased = true;
                    }
                }
                if (!erased)
                    ++i;
            }
        }
        return changed;
    }

    template <typename ReadsFn>
    static bool
    readAfter(const BasicBlock &block, size_t from, ReadsFn &&reads_g,
              const std::unordered_map<const BasicBlock *, bool>
                  &read_from_start)
    {
        for (size_t i = from; i < block.size(); ++i) {
            if (reads_g(*block.instrs()[i]))
                return true;
        }
        for (BasicBlock *succ : block.successors()) {
            if (read_from_start.at(succ))
                return true;
        }
        return false;
    }
};

} // namespace

std::unique_ptr<Pass>
createDsePass(bool allow_exit_dse)
{
    return std::make_unique<Dse>(allow_exit_dse);
}

} // namespace dce::opt

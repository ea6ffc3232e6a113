/**
 * @file
 * Global DCE: delete internal functions with no remaining call sites
 * and internal globals with no remaining references. An uncalled
 * internal function is still emitted by the backend, so any markers in
 * it would read as "missed" — which is exactly GCC's uncleaned IPA
 * clone bug (Listing 9b / PR100034) that the `globalDce` knob turns
 * back on and off.
 */
#include <set>
#include <vector>

#include "opt/alias.hpp"
#include "opt/pass.hpp"
#include "support/markers.hpp"

namespace dce::opt {

using ir::Function;
using ir::GlobalVar;
using ir::Instr;
using ir::Module;
using ir::Opcode;

namespace {

class GlobalDce : public Pass {
  public:
    std::string name() const override { return "globaldce"; }

    bool
    run(Module &module, const PassConfig &config,
        PassContext &ctx) override
    {
        if (!config.globalDce)
            return false;
        // Functions no call targets (main and noDce ones stay)...
        bool changed = eraseUnreferenced(
            module.functions(),
            [](const Function &fn, auto &&visit) {
                for (const auto &block : fn.blocks()) {
                    for (const auto &instr : block->instrs()) {
                        if (instr->opcode() == Opcode::Call)
                            visit(instr->callee);
                    }
                }
            },
            [](const Function &fn) { return erasableWhenUncalled(fn); },
            [&](Function *fn) {
                if (ctx.wantRemarks())
                    reportErasedMarkerCalls(*fn, ctx);
                ctx.analyses.invalidate(*fn);
                module.eraseFunction(fn);
            });
        // ...then globals with no users that no initializer names.
        changed |= eraseUnreferenced(
            module.globals(),
            [](const GlobalVar &global, auto &&visit) {
                for (const ir::GlobalInit &init : global.init) {
                    if (init.isAddress())
                        visit(init.base);
                }
            },
            [](const GlobalVar &global) {
                return global.isInternal() && !global.hasUsers();
            },
            [&](GlobalVar *global) { module.eraseGlobal(global); });
        return changed;
    }

  private:
    /**
     * Erase the items of @p owned that nothing references and
     * @p erasable admits. Erasing one drops the references it makes
     * (@p for_each_ref), which can orphan others, so reference counts
     * are kept and each step erases the first dead item in module
     * order — exactly the order of a rescan after every erase, without
     * the rescans.
     */
    template <typename T, typename ForEachRef, typename Erasable,
              typename Erase>
    static bool
    eraseUnreferenced(const std::vector<std::unique_ptr<T>> &owned,
                      ForEachRef &&for_each_ref, Erasable &&erasable,
                      Erase &&erase)
    {
        const PointerIndex<T> index(owned);
        std::vector<T *> order;
        for (const auto &item : owned)
            order.push_back(item.get());
        std::vector<unsigned> refs(order.size(), 0);
        for (const T *item : order) {
            for_each_ref(*item, [&](const T *target) {
                ++refs[static_cast<size_t>(index.find(target))];
            });
        }

        std::set<size_t> dead;
        for (size_t i = 0; i < order.size(); ++i) {
            if (refs[i] == 0 && erasable(*order[i]))
                dead.insert(i);
        }
        const bool changed = !dead.empty();
        while (!dead.empty()) {
            T *item = order[*dead.begin()];
            dead.erase(dead.begin());
            for_each_ref(*item, [&](const T *target) {
                size_t i = static_cast<size_t>(index.find(target));
                if (--refs[i] == 0 && erasable(*order[i]))
                    dead.insert(i);
            });
            erase(item);
        }
        return changed;
    }

    /** Detail remarks for marker calls inside an uncalled internal
     * function about to be erased — these calls vanish with it. */
    void
    reportErasedMarkerCalls(const Function &fn, PassContext &ctx)
    {
        for (const auto &block : fn.blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() != Opcode::Call)
                    continue;
                auto index =
                    support::markerIndex(instr->callee->name());
                if (!index)
                    continue;
                ctx.remark(support::RemarkKind::MarkerCallRemoved,
                           name(), *index,
                           "call in erased uncalled function '" +
                               fn.name() + "'");
            }
        }
    }
};

} // namespace

std::unique_ptr<Pass>
createGlobalDcePass()
{
    return std::make_unique<GlobalDce>();
}

} // namespace dce::opt

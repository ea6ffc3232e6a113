#include "compiler/compilation.hpp"

#include "support/markers.hpp"

namespace dce::compiler {

std::set<unsigned>
survivingMarkersInIr(const ir::Module &module)
{
    std::set<unsigned> alive;
    for (const auto &fn : module.functions()) {
        if (fn->isDeclaration())
            continue; // declarations emit no code
        for (const auto &block : fn->blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() != ir::Opcode::Call)
                    continue;
                const ir::Function *callee = instr->callee;
                if (!callee || !callee->isDeclaration())
                    continue;
                if (auto index = support::markerIndex(callee->name()))
                    alive.insert(*index);
            }
        }
    }
    return alive;
}

} // namespace dce::compiler

#include "ir/verifier.hpp"

#include <algorithm>
#include <unordered_map>

#include "ir/cfg.hpp"
#include "ir/dominators.hpp"
#include "ir/printer.hpp"

namespace dce::ir {

std::string
VerifyResult::str() const
{
    std::string out;
    for (const std::string &error : errors) {
        out += error;
        out += "\n";
    }
    return out;
}

namespace {

class FunctionVerifier {
  public:
    FunctionVerifier(const Function &fn, VerifyResult &result)
        : fn_(fn), result_(result)
    {
    }

    void
    run()
    {
        if (fn_.isDeclaration())
            return;
        checkBlocks();
        if (!result_.ok())
            return; // structural breakage makes SSA checks unsafe
        checkPhis();
        checkUses();
        checkDominance();
    }

  private:
    void
    error(const std::string &message)
    {
        result_.errors.push_back("@" + fn_.name() + ": " + message);
    }

    void
    checkBlocks()
    {
        for (const auto &block : fn_.blocks()) {
            if (block->empty()) {
                error("block " + block->name() + " is empty");
                continue;
            }
            Instr *term = block->terminator();
            if (!term) {
                error("block " + block->name() + " lacks a terminator");
                continue;
            }
            bool seen_non_phi = false;
            for (const auto &instr : block->instrs()) {
                if (instr->parent() != block.get())
                    error("instruction with wrong parent in " +
                          block->name());
                if (instr->isTerminator() && instr.get() != term)
                    error("terminator in the middle of " + block->name());
                if (instr->opcode() == Opcode::Phi) {
                    if (seen_non_phi)
                        error("phi after non-phi in " + block->name());
                } else {
                    seen_non_phi = true;
                }
                checkInstrTypes(*instr);
            }
            for (BasicBlock *succ : block->successors()) {
                if (fn_.indexOfBlock(succ) >= fn_.numBlocks())
                    error("successor not in function from " +
                          block->name());
            }
        }
    }

    void
    checkInstrTypes(const Instr &instr)
    {
        auto expectInt = [&](const Value *value, const char *what) {
            if (!value->type().isInt())
                error(std::string(what) + " must be an integer in: " +
                      printInstr(instr));
        };
        auto expectPtr = [&](const Value *value, const char *what) {
            if (!value->type().isPtr())
                error(std::string(what) + " must be a pointer in: " +
                      printInstr(instr));
        };
        switch (instr.opcode()) {
          case Opcode::Load:
            expectPtr(instr.operand(0), "load address");
            if (instr.type().isVoid())
                error("load of void");
            break;
          case Opcode::Store:
            expectPtr(instr.operand(1), "store address");
            if (instr.operand(0)->type().isVoid())
                error("store of void value");
            break;
          case Opcode::Bin:
            expectInt(instr.operand(0), "bin lhs");
            expectInt(instr.operand(1), "bin rhs");
            if (!(instr.operand(0)->type() == instr.type()))
                error("bin result type != lhs type in: " +
                      printInstr(instr));
            if (!(instr.operand(0)->type() ==
                  instr.operand(1)->type()))
                error("bin operand types differ in: " +
                      printInstr(instr));
            break;
          case Opcode::Cmp: {
            IrType lhs = instr.operand(0)->type();
            IrType rhs = instr.operand(1)->type();
            if (!(lhs == rhs))
                error("cmp operand types differ in: " +
                      printInstr(instr));
            if (!(instr.type() == IrType::i32()))
                error("cmp result must be i32");
            break;
          }
          case Opcode::Cast: {
            IrType from = instr.operand(0)->type();
            IrType to = instr.type();
            if (!from.isInt() || !to.isInt()) {
                error("cast requires integer operand and result");
                break;
            }
            switch (instr.castOp) {
              case CastOp::Trunc:
                if (from.bits <= to.bits)
                    error("trunc must narrow: " + printInstr(instr));
                break;
              case CastOp::Sext:
              case CastOp::Zext:
                if (from.bits >= to.bits)
                    error("ext must widen: " + printInstr(instr));
                break;
              case CastOp::Bitcast:
                if (from.bits != to.bits)
                    error("bitcast must keep width: " +
                          printInstr(instr));
                break;
            }
            break;
          }
          case Opcode::Gep:
            expectPtr(instr.operand(0), "gep base");
            expectInt(instr.operand(1), "gep index");
            break;
          case Opcode::Freeze:
            if (!(instr.operand(0)->type() == instr.type()))
                error("freeze must preserve its operand type");
            break;
          case Opcode::Select:
            expectInt(instr.operand(0), "select condition");
            if (!(instr.operand(1)->type() == instr.operand(2)->type()))
                error("select arm types differ");
            break;
          case Opcode::Call: {
            if (!instr.callee) {
                error("call without callee");
                break;
            }
            if (!(instr.type() == instr.callee->returnType()))
                error("call result type mismatch for @" +
                      instr.callee->name());
            if (instr.numOperands() != instr.callee->params().size()) {
                error("call arity mismatch for @" +
                      instr.callee->name());
                break;
            }
            for (size_t i = 0; i < instr.numOperands(); ++i) {
                if (!(instr.operand(i)->type() ==
                      instr.callee->params()[i]->type()))
                    error("call argument type mismatch for @" +
                          instr.callee->name());
            }
            break;
          }
          case Opcode::Ret: {
            bool has_value = instr.numOperands() == 1;
            if (fn_.returnType().isVoid() == has_value)
                error("ret value does not match function return type");
            if (has_value &&
                !(instr.operand(0)->type() == fn_.returnType()))
                error("ret operand type mismatch");
            break;
          }
          case Opcode::CondBr:
            expectInt(instr.operand(0), "condbr condition");
            break;
          case Opcode::Switch:
            expectInt(instr.operand(0), "switch value");
            if (instr.caseValues.size() + 1 !=
                instr.blockOperands().size())
                error("switch case/target count mismatch");
            break;
          default:
            break;
        }
    }

    void
    checkPhis()
    {
        auto preds = predecessorMap(fn_);
        for (const auto &block : fn_.blocks()) {
            // Multi-edges (same pred twice) require one entry per edge;
            // we compare sorted lists.
            std::vector<const BasicBlock *> pred_list(
                preds.at(block.get()).begin(),
                preds.at(block.get()).end());
            std::sort(pred_list.begin(), pred_list.end());
            for (Instr *phi : block->phis()) {
                std::vector<const BasicBlock *> incoming(
                    phi->blockOperands().begin(),
                    phi->blockOperands().end());
                std::sort(incoming.begin(), incoming.end());
                if (incoming != pred_list) {
                    error("phi incoming blocks do not match predecessors"
                          " in " + block->name() + ": " +
                          printInstr(*phi));
                }
                for (size_t i = 0; i < phi->numOperands(); ++i) {
                    if (!(phi->operand(i)->type() == phi->type()))
                        error("phi incoming type mismatch: " +
                              printInstr(*phi));
                }
            }
        }
    }

    void
    checkUses()
    {
        // Every operand's use-list must mention the user exactly as
        // many times as it appears in the operand list. Constants are
        // exempt: they intentionally track no users (see Value::users).
        for (const auto &block : fn_.blocks()) {
            for (const auto &instr : block->instrs()) {
                for (Value *operand : instr->operands()) {
                    if (operand->isConstant())
                        continue;
                    size_t in_operands = static_cast<size_t>(
                        std::count(instr->operands().begin(),
                                   instr->operands().end(), operand));
                    size_t in_users = static_cast<size_t>(std::count(
                        operand->users().begin(), operand->users().end(),
                        instr.get()));
                    if (in_operands != in_users) {
                        error("use-list out of sync for operand of: " +
                              printInstr(*instr));
                    }
                }
            }
        }
    }

    void
    checkDominance()
    {
        DominatorTree domtree(fn_);
        for (const auto &block : fn_.blocks()) {
            if (!domtree.isReachable(block.get()))
                continue;
            for (const auto &instr : block->instrs()) {
                for (Value *operand : instr->operands()) {
                    if (!operand->isInstruction())
                        continue;
                    const auto *def = static_cast<const Instr *>(operand);
                    if (!domtree.valueDominatesUse(def, instr.get())) {
                        error("def does not dominate use: " +
                              printInstr(*instr) + " uses " +
                              printInstr(*def));
                    }
                }
            }
        }
    }

    const Function &fn_;
    VerifyResult &result_;
};

/** The interpreter's dense frames and global table index by value id
 * (DESIGN.md §19): every global and every non-void instruction needs a
 * non-zero id that no other of them in the module shares. Void
 * instructions keep id 0. */
void
checkValueIds(const Module &module, VerifyResult &result)
{
    std::vector<uint8_t> seen(module.valueIdBound(), 0);
    auto claim = [&](const Value &value, const std::string &where) {
        unsigned id = value.id();
        if (id == 0) {
            result.errors.push_back(where + ": value without an id");
            return;
        }
        if (id >= seen.size())
            seen.resize(id + 1, 0);
        if (seen[id]) {
            result.errors.push_back(where + ": duplicate value id " +
                                    std::to_string(id));
        }
        seen[id] = 1;
    };
    for (const auto &global : module.globals())
        claim(*global, "@" + global->name());
    for (const auto &fn : module.functions()) {
        for (const auto &block : fn->blocks()) {
            for (const auto &instr : block->instrs()) {
                if (!instr->type().isVoid())
                    claim(*instr, "@" + fn->name() + ": " + block->name());
            }
        }
    }
}

} // namespace

VerifyResult
verifyFunction(const Function &fn)
{
    VerifyResult result;
    FunctionVerifier(fn, result).run();
    return result;
}

VerifyResult
verifyModule(const Module &module)
{
    VerifyResult result;
    for (const auto &fn : module.functions()) {
        FunctionVerifier(*fn, result).run();
    }
    checkValueIds(module, result);
    return result;
}

} // namespace dce::ir

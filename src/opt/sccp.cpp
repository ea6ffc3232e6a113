/**
 * @file
 * Sparse conditional constant propagation (Wegman-Zadeck). Tracks a
 * three-level lattice per SSA value and edge executability, so
 * constants propagate *through* branches that they themselves prove
 * dead. Rewrites proven values to constants; SimplifyCFG then folds
 * the resulting constant branches and deletes the dead arms.
 *
 * Freeze participates only when `foldFreezeOfConstant` is set — with it
 * off, a freeze is an opaque fence exactly like LLVM's, which is what
 * makes the unswitch-inserted freezes of R1 block elimination.
 */
#include <vector>

#include "opt/pass.hpp"
#include "support/ints.hpp"
#include "support/markers.hpp"

namespace dce::opt {

using ir::BasicBlock;
using ir::BinOp;
using ir::CmpPred;
using ir::Constant;
using ir::Function;
using ir::Instr;
using ir::IrType;
using ir::Module;
using ir::Opcode;
using ir::Value;
using ir::ValueKind;

namespace {

/** Lattice element. */
struct LatticeValue {
    enum class State { Top, Const, Bottom } state = State::Top;
    int64_t value = 0;

    bool isConst() const { return state == State::Const; }
    bool isBottom() const { return state == State::Bottom; }
    bool isTop() const { return state == State::Top; }

    static LatticeValue
    constant(int64_t value)
    {
        return {State::Const, value};
    }
    static LatticeValue
    bottom()
    {
        return {State::Bottom, 0};
    }
};

class Sccp : public Pass {
  public:
    std::string name() const override { return "sccp"; }

    bool
    run(Module &module, const PassConfig &config,
        PassContext &ctx) override
    {
        if (!config.sccp)
            return false;
        config_ = &config;
        ctx_ = &ctx;
        bool changed = false;
        for (const auto &fn : module.functions()) {
            if (!fn->isDeclaration())
                changed |= runOnFunction(*fn, module);
        }
        ctx_ = nullptr;
        return changed;
    }

  private:
    LatticeValue
    operandLattice(const Value *value) const
    {
        switch (value->valueKind()) {
          case ValueKind::Constant: {
            const auto *c = static_cast<const Constant *>(value);
            if (c->type().isPtr())
                return LatticeValue::bottom(); // pointers not tracked
            return LatticeValue::constant(c->value());
          }
          case ValueKind::Global:
          case ValueKind::Param:
            // Globals are memory; parameters are unknown inputs
            // (intraprocedural analysis).
            return LatticeValue::bottom();
          case ValueKind::Instruction:
            return lattice_[value->id()];
        }
        return LatticeValue::bottom();
    }

    bool
    edgeExecutable(const BasicBlock *from, const BasicBlock *to) const
    {
        for (const BasicBlock *succ : executableSuccs_[from->indexInFn()]) {
            if (succ == to)
                return true;
        }
        return false;
    }

    /** Raise @p value to at least @p incoming; queue users on change. */
    void
    raise(const Value *value, LatticeValue incoming)
    {
        LatticeValue &current = lattice_[value->id()];
        if (current.isBottom())
            return;
        if (current.isTop())
            raised_.push_back(value->id());
        bool changed = false;
        if (incoming.isBottom()) {
            current = LatticeValue::bottom();
            changed = true;
        } else if (incoming.isConst()) {
            if (current.isTop()) {
                current = incoming;
                changed = true;
            } else if (current.isConst() &&
                       current.value != incoming.value) {
                current = LatticeValue::bottom();
                changed = true;
            }
        }
        if (changed)
            ssaWorklist_.push_back(value);
    }

    void
    markEdge(const BasicBlock *from, const BasicBlock *to)
    {
        if (edgeExecutable(from, to))
            return;
        executableSuccs_[from->indexInFn()].push_back(to);
        unsigned char &live = executableBlocks_[to->indexInFn()];
        if (!live) {
            live = 1;
            blockWorklist_.push_back(to);
        } else {
            // New edge into an already-live block: phis must re-merge.
            for (const auto &instr : to->instrs()) {
                if (instr->opcode() != Opcode::Phi)
                    break;
                visit(*instr);
            }
        }
    }

    LatticeValue
    evalBin(const Instr &instr, LatticeValue a, LatticeValue b) const
    {
        IrType type = instr.type();
        if (a.isBottom() || b.isBottom()) {
            // A few operations have absorbing constants.
            if (instr.binOp == BinOp::Mul &&
                ((a.isConst() && a.value == 0) ||
                 (b.isConst() && b.value == 0))) {
                return LatticeValue::constant(0);
            }
            if (instr.binOp == BinOp::And &&
                ((a.isConst() && a.value == 0) ||
                 (b.isConst() && b.value == 0))) {
                return LatticeValue::constant(0);
            }
            return LatticeValue::bottom();
        }
        if (a.isTop() || b.isTop())
            return {};
        int64_t result;
        unsigned bits = type.bits;
        bool is_signed = type.isSigned;
        switch (instr.binOp) {
          case BinOp::Add: result = addInt(a.value, b.value, bits, is_signed); break;
          case BinOp::Sub: result = subInt(a.value, b.value, bits, is_signed); break;
          case BinOp::Mul: result = mulInt(a.value, b.value, bits, is_signed); break;
          case BinOp::Div: result = divInt(a.value, b.value, bits, is_signed); break;
          case BinOp::Rem: result = remInt(a.value, b.value, bits, is_signed); break;
          case BinOp::Shl: result = shlInt(a.value, b.value, bits, is_signed); break;
          case BinOp::Shr: result = shrInt(a.value, b.value, bits, is_signed); break;
          case BinOp::And: result = wrapInt(a.value & b.value, bits, is_signed); break;
          case BinOp::Or: result = wrapInt(a.value | b.value, bits, is_signed); break;
          case BinOp::Xor: result = wrapInt(a.value ^ b.value, bits, is_signed); break;
          default: return LatticeValue::bottom();
        }
        return LatticeValue::constant(result);
    }

    LatticeValue
    evalCmp(const Instr &instr, LatticeValue a, LatticeValue b) const
    {
        if (instr.operand(0)->type().isPtr())
            return LatticeValue::bottom();
        if (a.isBottom() || b.isBottom())
            return LatticeValue::bottom();
        if (a.isTop() || b.isTop())
            return {};
        bool result;
        switch (instr.cmpPred) {
          case CmpPred::Eq: result = a.value == b.value; break;
          case CmpPred::Ne: result = a.value != b.value; break;
          case CmpPred::Slt: result = a.value < b.value; break;
          case CmpPred::Sle: result = a.value <= b.value; break;
          case CmpPred::Sgt: result = a.value > b.value; break;
          case CmpPred::Sge: result = a.value >= b.value; break;
          case CmpPred::Ult:
            result = static_cast<uint64_t>(a.value) <
                     static_cast<uint64_t>(b.value);
            break;
          case CmpPred::Ule:
            result = static_cast<uint64_t>(a.value) <=
                     static_cast<uint64_t>(b.value);
            break;
          case CmpPred::Ugt:
            result = static_cast<uint64_t>(a.value) >
                     static_cast<uint64_t>(b.value);
            break;
          default:
            result = static_cast<uint64_t>(a.value) >=
                     static_cast<uint64_t>(b.value);
            break;
        }
        return LatticeValue::constant(result ? 1 : 0);
    }

    void
    visit(const Instr &instr)
    {
        switch (instr.opcode()) {
          case Opcode::Phi: {
            LatticeValue merged; // Top
            for (size_t i = 0; i < instr.numOperands(); ++i) {
                const BasicBlock *pred = instr.blockOperands()[i];
                if (!edgeExecutable(pred, instr.parent()))
                    continue;
                LatticeValue incoming =
                    operandLattice(instr.operand(i));
                if (incoming.isBottom()) {
                    merged = LatticeValue::bottom();
                    break;
                }
                if (incoming.isTop())
                    continue;
                if (merged.isTop()) {
                    merged = incoming;
                } else if (merged.isConst() &&
                           merged.value != incoming.value) {
                    merged = LatticeValue::bottom();
                    break;
                }
            }
            if (instr.type().isPtr())
                merged = LatticeValue::bottom();
            raise(&instr, merged);
            break;
          }
          case Opcode::Bin:
            raise(&instr, evalBin(instr, operandLattice(instr.operand(0)),
                                  operandLattice(instr.operand(1))));
            break;
          case Opcode::Cmp:
            raise(&instr, evalCmp(instr, operandLattice(instr.operand(0)),
                                  operandLattice(instr.operand(1))));
            break;
          case Opcode::Cast: {
            LatticeValue sub = operandLattice(instr.operand(0));
            if (sub.isConst()) {
                IrType to = instr.type();
                raise(&instr, LatticeValue::constant(
                                  wrapInt(sub.value, to.bits,
                                          to.isSigned)));
            } else if (sub.isBottom()) {
                raise(&instr, LatticeValue::bottom());
            }
            break;
          }
          case Opcode::Freeze: {
            LatticeValue sub = operandLattice(instr.operand(0));
            if (config_->foldFreezeOfConstant) {
                raise(&instr, sub);
            } else {
                // Opaque: never a known constant.
                raise(&instr, LatticeValue::bottom());
            }
            break;
          }
          case Opcode::Select: {
            LatticeValue cond = operandLattice(instr.operand(0));
            if (instr.type().isPtr()) {
                raise(&instr, LatticeValue::bottom());
                break;
            }
            if (cond.isConst()) {
                raise(&instr, operandLattice(instr.operand(
                                  cond.value != 0 ? 1 : 2)));
            } else if (cond.isBottom()) {
                LatticeValue a = operandLattice(instr.operand(1));
                LatticeValue b = operandLattice(instr.operand(2));
                if (a.isConst() && b.isConst() && a.value == b.value)
                    raise(&instr, a);
                else if (a.isBottom() || b.isBottom() ||
                         (a.isConst() && b.isConst()))
                    raise(&instr, LatticeValue::bottom());
            }
            break;
          }
          case Opcode::Load:
          case Opcode::Call:
          case Opcode::Alloca:
          case Opcode::Gep:
            if (!instr.type().isVoid())
                raise(&instr, LatticeValue::bottom());
            break;
          case Opcode::Br:
            markEdge(instr.parent(), instr.blockOperands()[0]);
            break;
          case Opcode::CondBr: {
            LatticeValue cond = operandLattice(instr.operand(0));
            if (cond.isConst()) {
                markEdge(instr.parent(),
                         instr.blockOperands()[cond.value != 0 ? 0 : 1]);
            } else if (cond.isBottom()) {
                markEdge(instr.parent(), instr.blockOperands()[0]);
                markEdge(instr.parent(), instr.blockOperands()[1]);
            }
            break;
          }
          case Opcode::Switch: {
            LatticeValue selector = operandLattice(instr.operand(0));
            if (selector.isConst()) {
                const BasicBlock *target = instr.blockOperands()[0];
                for (size_t i = 0; i < instr.caseValues.size(); ++i) {
                    if (instr.caseValues[i] == selector.value) {
                        target = instr.blockOperands()[i + 1];
                        break;
                    }
                }
                markEdge(instr.parent(), target);
            } else if (selector.isBottom()) {
                for (BasicBlock *succ : instr.blockOperands())
                    markEdge(instr.parent(), succ);
            }
            break;
          }
          case Opcode::Store:
          case Opcode::Ret:
          case Opcode::Unreachable:
            break;
        }
    }

    bool
    runOnFunction(Function &fn, Module &module)
    {
        // Flat side tables: the lattice is indexed by value id (only
        // instructions are ever stored — constants, globals, and
        // params resolve directly in operandLattice), executability by
        // block index. SCCP is a monotone framework, so the fixpoint
        // is unique regardless of worklist order.
        // lattice_ is all-Top between functions: only the entries
        // raised here are reset afterwards, so a function's run costs
        // its own size, not the module's value count.
        if (lattice_.size() < module.valueIdBound())
            lattice_.resize(module.valueIdBound());
        executableSuccs_.assign(fn.numBlocks(), {});
        executableBlocks_.assign(fn.numBlocks(), 0);
        ssaWorklist_.clear();
        blockWorklist_.clear();

        executableBlocks_[fn.entry()->indexInFn()] = 1;
        blockWorklist_.push_back(fn.entry());

        while (!blockWorklist_.empty() || !ssaWorklist_.empty()) {
            while (!blockWorklist_.empty()) {
                const BasicBlock *block = blockWorklist_.back();
                blockWorklist_.pop_back();
                for (const auto &instr : block->instrs())
                    visit(*instr);
            }
            while (!ssaWorklist_.empty()) {
                const Value *value = ssaWorklist_.back();
                ssaWorklist_.pop_back();
                for (const Instr *user : value->users()) {
                    if (executableBlocks_[user->parent()->indexInFn()])
                        visit(*user);
                }
            }
        }

        // Detail remarks: a marker call in a block the solver proved
        // non-executable is dead — SimplifyCFG will do the mechanical
        // deletion later, but SCCP supplied the proof.
        if (ctx_ && ctx_->wantRemarks()) {
            for (const auto &block : fn.blocks()) {
                if (executableBlocks_[block->indexInFn()])
                    continue;
                for (const auto &instr : block->instrs()) {
                    if (instr->opcode() != Opcode::Call)
                        continue;
                    if (auto index = support::markerIndex(
                            instr->callee->name())) {
                        ctx_->remark(
                            support::RemarkKind::MarkerProvedDead,
                            name(), *index,
                            "block '" + block->name() + "' of '" +
                                fn.name() +
                                "' proved non-executable");
                    }
                }
            }
        }

        // Rewrite proven constants.
        bool changed = false;
        for (const auto &block : fn.blocks()) {
            for (size_t i = 0; i < block->size();) {
                Instr *instr = block->instrs()[i].get();
                LatticeValue proved = lattice_[instr->id()];
                if (proved.isConst() && instr->type().isInt() &&
                    !instr->hasSideEffects()) {
                    instr->replaceAllUsesWith(
                        module.constant(instr->type(), proved.value));
                    if (!instr->hasUsers()) {
                        block->erase(instr);
                        changed = true;
                        continue;
                    }
                }
                ++i;
            }
        }
        for (unsigned id : raised_)
            lattice_[id] = LatticeValue{};
        raised_.clear();
        return changed;
    }

    const PassConfig *config_ = nullptr;
    PassContext *ctx_ = nullptr;
    std::vector<LatticeValue> lattice_;
    /// Ids whose lattice entry left Top during the current function.
    std::vector<unsigned> raised_;
    std::vector<support::SmallVector<const BasicBlock *, 2>>
        executableSuccs_;
    std::vector<unsigned char> executableBlocks_;
    std::vector<const Value *> ssaWorklist_;
    std::vector<const BasicBlock *> blockWorklist_;
};

} // namespace

std::unique_ptr<Pass>
createSccpPass()
{
    return std::make_unique<Sccp>();
}

} // namespace dce::opt

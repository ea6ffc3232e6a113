#include "interp/interpreter.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "support/ints.hpp"
#include "support/trace.hpp"

namespace dce::interp {

using ir::BasicBlock;
using ir::BinOp;
using ir::CastOp;
using ir::CmpPred;
using ir::Constant;
using ir::Function;
using ir::GlobalVar;
using ir::Instr;
using ir::IrType;
using ir::Module;
using ir::Opcode;
using ir::Param;
using ir::Value;
using ir::ValueKind;

namespace {

/** One memory object (global, or an executed alloca): `count` slots of
 * the machine's memory starting at `first`. */
struct MemObject {
    size_t first = 0;
    uint64_t count = 0;
    IrType elementType;
};

/** Thrown internally to unwind on timeout/trap. */
struct ExecStop {
    ExecStatus status;
};

/** Frame layout of one function, computed on its first call. Every
 * non-void instruction owns slot `id() - base`; ir::verifyModule keeps
 * those ids non-zero and unique within a module (DESIGN.md §19). */
struct FrameShape {
    unsigned base = 0;
    unsigned span = 0;
    /** Blocks entered, by BasicBlock::indexInFn() (recordBlocks only). */
    std::vector<uint8_t> entered;
};

/** One activation's view of the frame stack: its arguments, then its
 * instruction slots. Raw pointers, so refresh after every call — the
 * callee's push may move the stack. */
struct Frame {
    IValue *args;
    IValue *slots;
    unsigned base;

    IValue &operator[](const Instr *instr) const
    {
        return slots[instr->id() - base];
    }
};

class Machine {
  public:
    Machine(const Module &module, const ExecLimits &limits)
        : module_(module), limits_(limits)
    {
        initGlobals();
    }

    ExecResult
    run(const std::string &entry)
    {
        ExecResult result;
        const Function *fn = module_.getFunction(entry);
        if (!fn || fn->isDeclaration()) {
            result.status = ExecStatus::NoEntry;
            return result;
        }
        try {
            growStack(fn->params().size());
            IValue ret = callFunction(*fn, 0);
            result.status = ExecStatus::Ok;
            result.exitValue = ret.i;
        } catch (ExecStop &stop) {
            result.status = stop.status;
        }
        result.steps = steps_;
        for (const auto &[function, shape] : shapes_) {
            for (size_t i = 0; i < shape.entered.size(); ++i) {
                if (shape.entered[i])
                    result.executedBlocks.insert(
                        function->blocks()[i].get());
            }
        }
        result.callTrace.reserve(callTrace_.size());
        for (const Function *callee : callTrace_)
            result.callTrace.push_back(callee->name());
        std::sort(callTrace_.begin(), callTrace_.end());
        callTrace_.erase(std::unique(callTrace_.begin(), callTrace_.end()),
                         callTrace_.end());
        for (const Function *callee : callTrace_)
            result.calledExternals.insert(callee->name());
        snapshotGlobals(result);
        return result;
    }

  private:
    void
    initGlobals()
    {
        // Global i is object i. Two passes: allocate all objects, then
        // fill address inits.
        unsigned id_bound = 0;
        for (const auto &global : module_.globals())
            id_bound = std::max(id_bound, global->id() + 1);
        globalObject_.assign(id_bound, -1);
        for (const auto &global : module_.globals()) {
            globalObject_[global->id()] =
                allocate(global->elementType(), global->count());
        }
        for (const auto &global : module_.globals()) {
            const MemObject &object = objects_[static_cast<size_t>(
                globalObject_[global->id()])];
            IValue *slots = memory_.data() + object.first;
            for (size_t i = 0;
                 i < global->init.size() && i < object.count; ++i) {
                const ir::GlobalInit &init = global->init[i];
                if (init.isAddress()) {
                    PtrVal ptr;
                    ptr.obj = globalObject_[init.base->id()];
                    ptr.index = init.value;
                    slots[i] = IValue::ptrValue(ptr);
                } else if (global->elementType().isPtr()) {
                    assert(init.value == 0 && "int init of pointer slot");
                    slots[i] = IValue::ptrValue(PtrVal{});
                } else {
                    slots[i] = IValue::intValue(
                        wrapInt(init.value, global->elementType().bits,
                                global->elementType().isSigned));
                }
            }
        }
    }

    static IValue
    zeroOf(IrType type)
    {
        if (type.isPtr())
            return IValue::ptrValue(PtrVal{});
        return IValue::intValue(0);
    }

    /** A fresh zero-filled object of @p count slots; its id. */
    int32_t
    allocate(IrType type, uint64_t count)
    {
        objects_.push_back({memory_.size(), count, type});
        memory_.resize(memory_.size() + count, zeroOf(type));
        return static_cast<int32_t>(objects_.size() - 1);
    }

    void
    snapshotGlobals(ExecResult &result) const
    {
        for (const auto &global : module_.globals()) {
            // Internal (C "static") globals are unobservable once main
            // returns; optimizations may legally drop final stores to
            // them (that is what dead-store elimination on Listing 1's
            // `c = 0;` does). Only external globals are part of the
            // observable behaviour.
            if (global->isInternal())
                continue;
            const MemObject &object = objects_[static_cast<size_t>(
                globalObject_[global->id()])];
            // Pointer slots are normalized to *name-rank* object ids:
            // two modules optimized differently (global DCE may have
            // removed unused internals) number their objects
            // differently, but a pointer to @g4 must compare equal
            // across them. Non-global targets (allocas) normalize to a
            // sentinel; MiniC programs cannot observe local addresses
            // after main returns anyway.
            const IValue *first = memory_.data() + object.first;
            std::vector<IValue> slots(first, first + object.count);
            for (IValue &slot : slots) {
                if (!slot.isPtr || slot.p.isNull())
                    continue;
                slot.p.obj = nameRankOf(slot.p.obj);
            }
            result.finalGlobals[global->name()] = std::move(slots);
        }
    }

    /** Stable cross-module id for a pointed-to object: an FNV-1a hash
     * of the global's name (module-independent), or -2 for non-global
     * objects. Optimized modules may have fewer globals than the
     * baseline, so any per-module numbering would not compare. */
    int32_t
    nameRankOf(int32_t object_id) const
    {
        if (static_cast<size_t>(object_id) >= module_.globals().size())
            return -2; // an alloca or other non-global object
        uint32_t hash = 2166136261u;
        for (char c : module_.globals()[static_cast<size_t>(object_id)]
                          ->name()) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 16777619u;
        }
        // Keep it positive so it can never collide with the null (-1)
        // or non-global (-2) sentinels.
        return static_cast<int32_t>(hash & 0x7fffffffu);
    }

    void
    tick()
    {
        if (++steps_ > limits_.maxSteps)
            throw ExecStop{ExecStatus::Timeout};
    }

    FrameShape &
    shapeOf(const Function &fn)
    {
        auto [it, inserted] = shapes_.try_emplace(&fn);
        FrameShape &shape = it->second;
        if (!inserted)
            return shape;
        unsigned low = ~0u, high = 0;
        for (const auto &block : fn.blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->type().isVoid())
                    continue;
                low = std::min(low, instr->id());
                high = std::max(high, instr->id());
            }
        }
        if (low <= high) {
            shape.base = low;
            shape.span = high - low + 1;
        }
        if (limits_.recordBlocks)
            shape.entered.assign(fn.numBlocks(), 0);
        return shape;
    }

    /** Make [0, top) of the frame stack addressable. */
    void
    growStack(size_t top)
    {
        top_ = top;
        if (top > stack_.size())
            stack_.resize(std::max(top, 2 * stack_.size()));
    }

    Frame
    frameAt(size_t args_at, size_t slots_at, unsigned base)
    {
        return {stack_.data() + args_at, stack_.data() + slots_at, base};
    }

    IValue
    evalOperand(const Value *value, const Frame &frame) const
    {
        switch (value->valueKind()) {
          case ValueKind::Instruction:
            return frame[static_cast<const Instr *>(value)];
          case ValueKind::Param:
            return frame.args[static_cast<const Param *>(value)->index()];
          case ValueKind::Constant: {
            const auto *c = static_cast<const Constant *>(value);
            if (c->type().isPtr())
                return IValue::ptrValue(PtrVal{});
            return IValue::intValue(c->value());
          }
          case ValueKind::Global: {
            PtrVal ptr;
            ptr.obj = globalObject_[value->id()];
            return IValue::ptrValue(ptr);
          }
        }
        return IValue::intValue(0);
    }

    IValue
    loadFrom(PtrVal ptr, IrType type) const
    {
        if (ptr.isNull())
            return zeroOf(type);
        const MemObject &object = objects_[static_cast<size_t>(ptr.obj)];
        if (ptr.index < 0 ||
            static_cast<uint64_t>(ptr.index) >= object.count) {
            return zeroOf(type); // OOB load: defined as zero
        }
        IValue slot =
            memory_[object.first + static_cast<size_t>(ptr.index)];
        if (type.isPtr())
            return slot.isPtr ? slot : IValue::ptrValue(PtrVal{});
        int64_t raw = slot.isPtr ? 0 : slot.i;
        return IValue::intValue(wrapInt(raw, type.bits, type.isSigned));
    }

    void
    storeTo(PtrVal ptr, IValue value)
    {
        if (ptr.isNull())
            return; // dropped, defined
        const MemObject &object = objects_[static_cast<size_t>(ptr.obj)];
        if (ptr.index < 0 ||
            static_cast<uint64_t>(ptr.index) >= object.count) {
            return; // OOB store: dropped
        }
        // Canonicalize integers to the slot's element type so memory
        // always holds values in slot-typed form.
        if (!value.isPtr && object.elementType.isInt()) {
            value.i = wrapInt(value.i, object.elementType.bits,
                              object.elementType.isSigned);
        }
        memory_[object.first + static_cast<size_t>(ptr.index)] = value;
    }

    static int64_t
    evalBin(BinOp op, int64_t a, int64_t b, IrType type)
    {
        unsigned bits = type.bits;
        bool is_signed = type.isSigned;
        switch (op) {
          case BinOp::Add: return addInt(a, b, bits, is_signed);
          case BinOp::Sub: return subInt(a, b, bits, is_signed);
          case BinOp::Mul: return mulInt(a, b, bits, is_signed);
          case BinOp::Div: return divInt(a, b, bits, is_signed);
          case BinOp::Rem: return remInt(a, b, bits, is_signed);
          case BinOp::Shl: return shlInt(a, b, bits, is_signed);
          case BinOp::Shr: return shrInt(a, b, bits, is_signed);
          case BinOp::And: return wrapInt(a & b, bits, is_signed);
          case BinOp::Or: return wrapInt(a | b, bits, is_signed);
          case BinOp::Xor: return wrapInt(a ^ b, bits, is_signed);
        }
        return 0;
    }

    static bool
    evalCmpInt(CmpPred pred, int64_t a, int64_t b)
    {
        switch (pred) {
          case CmpPred::Eq: return a == b;
          case CmpPred::Ne: return a != b;
          case CmpPred::Slt: return a < b;
          case CmpPred::Sle: return a <= b;
          case CmpPred::Sgt: return a > b;
          case CmpPred::Sge: return a >= b;
          case CmpPred::Ult:
            return static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
          case CmpPred::Ule:
            return static_cast<uint64_t>(a) <= static_cast<uint64_t>(b);
          case CmpPred::Ugt:
            return static_cast<uint64_t>(a) > static_cast<uint64_t>(b);
          case CmpPred::Uge:
            return static_cast<uint64_t>(a) >= static_cast<uint64_t>(b);
        }
        return false;
    }

    /** Pointer comparison: total deterministic order by (obj, index);
     * distinct objects never compare equal (MiniC rule). */
    static bool
    evalCmpPtr(CmpPred pred, PtrVal a, PtrVal b)
    {
        bool eq = a == b;
        auto less = [&] {
            if (a.obj != b.obj)
                return a.obj < b.obj;
            return a.index < b.index;
        };
        switch (pred) {
          case CmpPred::Eq: return eq;
          case CmpPred::Ne: return !eq;
          case CmpPred::Slt:
          case CmpPred::Ult: return less();
          case CmpPred::Sle:
          case CmpPred::Ule: return less() || eq;
          case CmpPred::Sgt:
          case CmpPred::Ugt: return !less() && !eq;
          case CmpPred::Sge:
          case CmpPred::Uge: return !less();
        }
        return false;
    }

    /** Run @p fn on the arguments at stack_[args_at, +params). */
    IValue
    callFunction(const Function &fn, size_t args_at)
    {
        if (++callDepth_ > limits_.maxCallDepth)
            throw ExecStop{ExecStatus::Trap};

        FrameShape &shape = shapeOf(fn);
        const size_t slots_at = args_at + fn.params().size();
        growStack(slots_at + shape.span);
        Frame frame = frameAt(args_at, slots_at, shape.base);
        uint8_t *entered =
            limits_.recordBlocks ? shape.entered.data() : nullptr;

        const BasicBlock *block = fn.entry();
        const BasicBlock *previous = nullptr;
        IValue return_value = zeroOf(fn.returnType());

        for (;;) {
            if (entered)
                entered[block->indexInFn()] = 1;
            const std::vector<ir::InstrPtr> &instrs = block->instrs();
            // Phi nodes evaluate simultaneously on block entry: read
            // every incoming value before writing any.
            size_t at = 0;
            for (; at < instrs.size() &&
                   instrs[at]->opcode() == Opcode::Phi;
                 ++at) {
                Value *incoming = instrs[at]->incomingValueFor(previous);
                assert(incoming && "phi has no incoming for pred");
                if (at == phiValues_.size())
                    phiValues_.emplace_back();
                phiValues_[at] = evalOperand(incoming, frame);
            }
            for (size_t i = 0; i < at; ++i)
                frame[instrs[i].get()] = phiValues_[i];

            const BasicBlock *next = nullptr;
            for (; !next && at < instrs.size(); ++at) {
                const Instr *instr = instrs[at].get();
                tick();
                switch (instr->opcode()) {
                  case Opcode::Alloca: {
                    PtrVal ptr;
                    ptr.obj = allocate(instr->allocatedType,
                                       instr->allocatedCount);
                    frame[instr] = IValue::ptrValue(ptr);
                    break;
                  }
                  case Opcode::Load: {
                    PtrVal ptr = evalOperand(instr->operand(0), frame).p;
                    frame[instr] = loadFrom(ptr, instr->type());
                    break;
                  }
                  case Opcode::Store: {
                    IValue value = evalOperand(instr->operand(0), frame);
                    PtrVal ptr = evalOperand(instr->operand(1), frame).p;
                    storeTo(ptr, value);
                    break;
                  }
                  case Opcode::Bin: {
                    int64_t a = evalOperand(instr->operand(0), frame).i;
                    int64_t b = evalOperand(instr->operand(1), frame).i;
                    frame[instr] = IValue::intValue(
                        evalBin(instr->binOp, a, b, instr->type()));
                    break;
                  }
                  case Opcode::Cmp: {
                    IValue a = evalOperand(instr->operand(0), frame);
                    IValue b = evalOperand(instr->operand(1), frame);
                    bool result;
                    if (a.isPtr || b.isPtr)
                        result = evalCmpPtr(instr->cmpPred, a.p, b.p);
                    else
                        result = evalCmpInt(instr->cmpPred, a.i, b.i);
                    frame[instr] = IValue::intValue(result ? 1 : 0);
                    break;
                  }
                  case Opcode::Cast: {
                    int64_t value =
                        evalOperand(instr->operand(0), frame).i;
                    IrType to = instr->type();
                    frame[instr] = IValue::intValue(
                        wrapInt(value, to.bits, to.isSigned));
                    break;
                  }
                  case Opcode::Gep: {
                    IValue base = evalOperand(instr->operand(0), frame);
                    int64_t index =
                        evalOperand(instr->operand(1), frame).i;
                    PtrVal ptr = base.p;
                    if (!ptr.isNull())
                        ptr.index += index;
                    frame[instr] = IValue::ptrValue(ptr);
                    break;
                  }
                  case Opcode::Freeze:
                    frame[instr] = evalOperand(instr->operand(0), frame);
                    break;
                  case Opcode::Select: {
                    int64_t cond =
                        evalOperand(instr->operand(0), frame).i;
                    frame[instr] = evalOperand(
                        instr->operand(cond != 0 ? 1 : 2), frame);
                    break;
                  }
                  case Opcode::Call: {
                    const Function *callee = instr->callee;
                    if (callee->isDeclaration()) {
                        callTrace_.push_back(callee);
                        if (!instr->type().isVoid())
                            frame[instr] = zeroOf(instr->type());
                        break;
                    }
                    // The callee's arguments go right above this frame.
                    const size_t call_args_at = top_;
                    growStack(call_args_at + instr->numOperands());
                    frame = frameAt(args_at, slots_at, shape.base);
                    for (size_t i = 0; i < instr->numOperands(); ++i)
                        stack_[call_args_at + i] =
                            evalOperand(instr->operand(i), frame);
                    IValue result = callFunction(*callee, call_args_at);
                    frame = frameAt(args_at, slots_at, shape.base);
                    if (!instr->type().isVoid())
                        frame[instr] = result;
                    break;
                  }
                  case Opcode::Ret:
                    if (instr->numOperands() == 1)
                        return_value =
                            evalOperand(instr->operand(0), frame);
                    --callDepth_;
                    top_ = args_at;
                    return return_value;
                  case Opcode::Br:
                    next = instr->blockOperands()[0];
                    break;
                  case Opcode::CondBr: {
                    IValue cond = evalOperand(instr->operand(0), frame);
                    bool taken = cond.isPtr ? !cond.p.isNull()
                                            : cond.i != 0;
                    next = instr->blockOperands()[taken ? 0 : 1];
                    break;
                  }
                  case Opcode::Switch: {
                    int64_t value =
                        evalOperand(instr->operand(0), frame).i;
                    next = instr->blockOperands()[0]; // default
                    for (size_t i = 0; i < instr->caseValues.size();
                         ++i) {
                        if (instr->caseValues[i] == value) {
                            next = instr->blockOperands()[i + 1];
                            break;
                        }
                    }
                    break;
                  }
                  case Opcode::Unreachable:
                    // Defined in MiniC as an immediate trap; correct
                    // programs never execute one.
                    throw ExecStop{ExecStatus::Trap};
                  case Opcode::Phi:
                    break; // handled on block entry
                }
            }
            assert(next && "block fell through without terminator");
            previous = block;
            block = next;
        }
    }

    const Module &module_;
    ExecLimits limits_;
    std::vector<MemObject> objects_;
    /** Every object's slots, back to back. */
    std::vector<IValue> memory_;
    /** Object of each global, by GlobalVar::id(). */
    std::vector<int32_t> globalObject_;
    /** Called declarations, in order; named once at the end. */
    std::vector<const Function *> callTrace_;
    /** Node-based, so a FrameShape stays put while callees are added. */
    std::unordered_map<const Function *, FrameShape> shapes_;
    /** Every live activation's arguments and slots, innermost last. */
    std::vector<IValue> stack_;
    size_t top_ = 0;
    /** Scratch for one block's simultaneous phi reads. */
    std::vector<IValue> phiValues_;
    uint64_t steps_ = 0;
    unsigned callDepth_ = 0;
};

} // namespace

ExecResult
execute(const Module &module, const std::string &entry,
        const ExecLimits &limits)
{
    support::TraceSpan span("execute", "interp");
    Machine machine(module, limits);
    return machine.run(entry);
}

bool
observablyEqual(const ExecResult &a, const ExecResult &b)
{
    return a.status == b.status && a.exitValue == b.exitValue &&
           a.callTrace == b.callTrace && a.finalGlobals == b.finalGlobals;
}

std::string
explainDifference(const ExecResult &a, const ExecResult &b)
{
    std::string out;
    if (a.status != b.status) {
        out += "status differs: " +
               std::to_string(static_cast<int>(a.status)) + " vs " +
               std::to_string(static_cast<int>(b.status)) + "\n";
    }
    if (a.exitValue != b.exitValue) {
        out += "exit value differs: " + std::to_string(a.exitValue) +
               " vs " + std::to_string(b.exitValue) + "\n";
    }
    if (a.callTrace != b.callTrace) {
        out += "call trace differs (" +
               std::to_string(a.callTrace.size()) + " vs " +
               std::to_string(b.callTrace.size()) + " calls)\n";
        size_t limit = std::min(a.callTrace.size(), b.callTrace.size());
        for (size_t i = 0; i < limit; ++i) {
            if (a.callTrace[i] != b.callTrace[i]) {
                out += "  first divergence at call " + std::to_string(i) +
                       ": " + a.callTrace[i] + " vs " + b.callTrace[i] +
                       "\n";
                break;
            }
        }
    }
    if (a.finalGlobals != b.finalGlobals) {
        for (const auto &[name, slots] : a.finalGlobals) {
            auto it = b.finalGlobals.find(name);
            if (it == b.finalGlobals.end()) {
                out += "global @" + name + " missing on one side\n";
                continue;
            }
            if (slots != it->second) {
                out += "global @" + name + " differs";
                if (!slots.empty() && !it->second.empty() &&
                    !slots[0].isPtr) {
                    out += ": [0] = " + std::to_string(slots[0].i) +
                           " vs " + std::to_string(it->second[0].i);
                }
                out += "\n";
            }
        }
    }
    return out;
}

} // namespace dce::interp

#include "backend/codegen.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/cfg.hpp"
#include "support/markers.hpp"
#include "support/trace.hpp"

namespace dce::backend {

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
using ir::Value;
using ir::ValueKind;

//===------------------------------------------------------------------===//
// Phi demotion
//===------------------------------------------------------------------===//

void
demotePhis(Module &module)
{
    for (const auto &fn : module.functions()) {
        if (fn->isDeclaration())
            continue;
        // Collect all phis first: demotion adds instructions.
        std::vector<Instr *> phis;
        for (const auto &block : fn->blocks()) {
            for (Instr *phi : block->phis())
                phis.push_back(phi);
        }
        if (phis.empty())
            continue;

        std::unordered_map<Instr *, Instr *> slot_of;
        for (Instr *phi : phis) {
            auto slot = module.newInstr(Opcode::Alloca,
                                                IrType::ptrTy());
            slot->allocatedType = phi->type();
            slot->setId(module.nextValueId());
            slot_of[phi] = fn->entry()->insertBefore(0, std::move(slot));
        }

        // Per (block, predecessor) edge: read the *old* slot values of
        // any same-block phi sources first, then perform all stores —
        // phis assign in parallel, and interleaving loads with stores
        // would corrupt swap patterns (p1 <- p2, p2 <- p1).
        std::unordered_map<BasicBlock *, std::vector<Instr *>> by_block;
        for (Instr *phi : phis)
            by_block[phi->parent()].push_back(phi);
        for (auto &[block, block_phis] : by_block) {
            std::unordered_set<BasicBlock *> seen;
            for (size_t i = 0;
                 i < block_phis[0]->blockOperands().size(); ++i) {
                BasicBlock *pred = block_phis[0]->blockOperands()[i];
                if (!seen.insert(pred).second)
                    continue; // multi-edge: one copy per pred suffices
                size_t insert_at = pred->indexOf(pred->terminator());
                std::vector<std::pair<Value *, Instr *>> copies;
                for (Instr *phi : block_phis) {
                    Value *incoming = phi->incomingValueFor(pred);
                    Value *source = incoming;
                    if (incoming->isInstruction()) {
                        auto *inc = static_cast<Instr *>(incoming);
                        if (inc->opcode() == Opcode::Phi &&
                            inc->parent() == block) {
                            auto load = module.newInstr(
                                Opcode::Load, inc->type());
                            load->addOperand(slot_of.at(inc));
                            load->setId(module.nextValueId());
                            source = pred->insertBefore(
                                insert_at++, std::move(load));
                        }
                    }
                    copies.emplace_back(source, slot_of.at(phi));
                }
                for (auto &[source, slot] : copies) {
                    auto store = module.newInstr(
                        Opcode::Store, IrType::voidTy());
                    store->addOperand(source);
                    store->addOperand(slot);
                    pred->insertBefore(insert_at++, std::move(store));
                }
            }
        }

        // Replace each phi with a load at its block's start.
        for (Instr *phi : phis) {
            BasicBlock *block = phi->parent();
            auto load = module.newInstr(Opcode::Load,
                                                phi->type());
            load->addOperand(slot_of.at(phi));
            load->setId(module.nextValueId());
            Instr *placed = block->insertBefore(block->indexOf(phi),
                                                std::move(load));
            // Remove incoming operands before RAUW in case the phi
            // references itself.
            while (phi->numOperands() > 0)
                phi->removeIncoming(phi->numOperands() - 1);
            phi->replaceAllUsesWith(placed);
            block->erase(phi);
        }
    }
}

//===------------------------------------------------------------------===//
// Register allocation
//===------------------------------------------------------------------===//

namespace {

constexpr unsigned kNumRegs = 8;
const char *kRegNames[kNumRegs] = {"%r8",  "%r9",  "%r10", "%r11",
                                   "%r12", "%r13", "%r14", "%r15"};

/** Where a value lives at emission time. */
struct Location {
    enum class Kind { None, Reg, Stack } kind = Kind::None;
    unsigned index = 0; ///< register number or frame slot

    static Location
    reg(unsigned r)
    {
        return {Kind::Reg, r};
    }
    static Location
    stack(unsigned slot)
    {
        return {Kind::Stack, slot};
    }
};

struct Interval {
    const Instr *value;
    size_t start;
    size_t end;
};

/** Liveness-driven linear scan over one function. */
class Allocator {
  public:
    explicit Allocator(const Function &fn) { run(fn); }

    Location
    locationOf(const Instr *value) const
    {
        auto it = locations_.find(value);
        return it == locations_.end() ? Location{} : it->second;
    }

    /** Frame slots used (spills); allocas are separate. */
    unsigned spillSlots() const { return nextSlot_; }

  private:
    void
    run(const Function &fn)
    {
        // Linearize.
        std::unordered_map<const Instr *, size_t> index;
        std::unordered_map<const BasicBlock *, std::pair<size_t, size_t>>
            block_range;
        size_t counter = 0;
        for (const auto &block : fn.blocks()) {
            size_t begin = counter;
            for (const auto &instr : block->instrs())
                index[instr.get()] = counter++;
            block_range[block.get()] = {begin, counter - 1};
        }

        // Block-level liveness (gen/kill over instruction values).
        std::unordered_map<const BasicBlock *,
                           std::unordered_set<const Instr *>>
            live_out;
        bool iterate = true;
        while (iterate) {
            iterate = false;
            for (const auto &block : fn.blocks()) {
                std::unordered_set<const Instr *> live;
                for (BasicBlock *succ : block->successors()) {
                    // live-in(succ) = (live-out(succ) - defs) + uses;
                    // approximate with upward-exposed scan below by
                    // unioning live-out(succ) plus succ's own uses of
                    // outside values.
                    for (const Instr *value : live_out[succ])
                        live.insert(value);
                    for (const auto &instr : succ->instrs()) {
                        for (const Value *op : instr->operands()) {
                            if (!op->isInstruction())
                                continue;
                            const auto *def =
                                static_cast<const Instr *>(op);
                            if (def->parent() != succ)
                                live.insert(def);
                        }
                    }
                }
                // Remove values defined in the successors themselves is
                // unnecessary: they cannot be live here (defs dominate
                // uses and phis are gone).
                auto &slot = live_out[block.get()];
                size_t before = slot.size();
                slot.insert(live.begin(), live.end());
                iterate |= slot.size() != before;
            }
        }

        // Intervals.
        std::vector<Interval> intervals;
        for (const auto &block : fn.blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->type().isVoid())
                    continue;
                size_t start = index.at(instr.get());
                size_t end = start;
                for (const Instr *user : instr->users())
                    end = std::max(end, index.at(user));
                intervals.push_back({instr.get(), start, end});
            }
        }
        for (const auto &[block, live] : live_out) {
            size_t block_end = block_range.at(block).second;
            for (const Instr *value : live) {
                for (Interval &interval : intervals) {
                    if (interval.value == value)
                        interval.end =
                            std::max(interval.end, block_end);
                }
            }
        }
        std::sort(intervals.begin(), intervals.end(),
                  [](const Interval &a, const Interval &b) {
                      return a.start < b.start;
                  });

        // Linear scan.
        std::vector<std::pair<size_t, unsigned>> active; // (end, reg)
        std::vector<unsigned> free_regs;
        for (unsigned r = 0; r < kNumRegs; ++r)
            free_regs.push_back(kNumRegs - 1 - r);
        for (const Interval &interval : intervals) {
            // Expire.
            for (size_t i = active.size(); i-- > 0;) {
                if (active[i].first < interval.start) {
                    free_regs.push_back(active[i].second);
                    active.erase(active.begin() +
                                 static_cast<ptrdiff_t>(i));
                }
            }
            if (interval.value->opcode() == Opcode::Alloca) {
                // Allocas are frame objects, not register values; their
                // "value" (the address) is rematerialized by lea.
                continue;
            }
            if (!free_regs.empty()) {
                unsigned reg = free_regs.back();
                free_regs.pop_back();
                locations_[interval.value] = Location::reg(reg);
                active.emplace_back(interval.end, reg);
            } else {
                locations_[interval.value] =
                    Location::stack(nextSlot_++);
            }
        }
    }

    std::unordered_map<const Instr *, Location> locations_;
    unsigned nextSlot_ = 0;
};

//===------------------------------------------------------------------===//
// Emission
//===------------------------------------------------------------------===//

class Emitter {
  public:
    explicit Emitter(Module &module) : module_(module) {}

    std::string
    run()
    {
        emitGlobals();
        out_ << "\t.text\n";
        for (const auto &fn : module_.functions()) {
            if (!fn->isDeclaration())
                emitFunction(*fn);
        }
        return out_.str();
    }

  private:
    void
    emitGlobals()
    {
        if (module_.globals().empty())
            return;
        out_ << "\t.data\n";
        for (const auto &g : module_.globals()) {
            if (!g->isInternal())
                out_ << "\t.globl " << g->name() << "\n";
            out_ << g->name() << ":\n";
            uint64_t size = g->elementType().sizeInBytes();
            for (uint64_t i = 0; i < g->count(); ++i) {
                ir::GlobalInit init = i < g->init.size()
                                          ? g->init[i]
                                          : ir::GlobalInit::intValue(0);
                if (init.isAddress()) {
                    out_ << "\t.quad " << init.base->name();
                    if (init.value != 0)
                        out_ << "+" << init.value * static_cast<int64_t>(
                                           init.base->elementType()
                                               .sizeInBytes());
                    out_ << "\n";
                } else {
                    const char *directive =
                        size == 1 ? ".byte"
                        : size == 2 ? ".value"
                        : size == 4 ? ".long"
                                    : ".quad";
                    out_ << "\t" << directive << " " << init.value
                         << "\n";
                }
            }
        }
    }

    std::string
    blockLabel(const Function &fn, const BasicBlock *block) const
    {
        return ".L" + fn.name() + "_" + block->name();
    }

    void
    emitFunction(Function &fn)
    {
        Allocator alloc(fn);

        // Frame layout: allocas first, then spill slots.
        std::unordered_map<const Instr *, unsigned> alloca_offset;
        unsigned frame = 0;
        for (const auto &block : fn.blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() == Opcode::Alloca) {
                    frame += static_cast<unsigned>(
                        instr->allocatedCount *
                        std::max<uint64_t>(
                            instr->allocatedType.sizeInBytes(), 1));
                    frame = (frame + 7) & ~7u;
                    alloca_offset[instr.get()] = frame;
                }
            }
        }
        unsigned spill_base = frame;
        frame += alloc.spillSlots() * 8;
        frame = (frame + 15) & ~15u;

        if (!fn.isInternal())
            out_ << "\t.globl " << fn.name() << "\n";
        out_ << fn.name() << ":\n";
        out_ << "\tpushq %rbp\n";
        out_ << "\tmovq %rsp, %rbp\n";
        if (frame > 0)
            out_ << "\tsubq $" << frame << ", %rsp\n";

        auto slotAddr = [&](unsigned slot) {
            return "-" + std::to_string(spill_base + (slot + 1) * 8) +
                   "(%rbp)";
        };

        /** Materialize @p value into scratch register @p reg. */
        auto fetch = [&](const Value *value, const char *reg) {
            switch (value->valueKind()) {
              case ValueKind::Constant: {
                const auto *c = static_cast<const Constant *>(value);
                out_ << "\tmovq $" << c->value() << ", " << reg << "\n";
                return;
              }
              case ValueKind::Global:
                out_ << "\tleaq "
                     << static_cast<const GlobalVar *>(value)->name()
                     << "(%rip), " << reg << "\n";
                return;
              case ValueKind::Param: {
                // Args land in the frame at fixed offsets (emitted by
                // the call sequence contract below).
                const auto *param =
                    static_cast<const ir::Param *>(value);
                static const char *arg_regs[6] = {"%rdi", "%rsi",
                                                  "%rdx", "%rcx",
                                                  "%rbx", "%rax"};
                if (param->index() < 6) {
                    out_ << "\tmovq " << arg_regs[param->index()]
                         << ", " << reg << "\n";
                }
                return;
              }
              case ValueKind::Instruction: {
                const auto *instr = static_cast<const Instr *>(value);
                if (instr->opcode() == Opcode::Alloca) {
                    out_ << "\tleaq -" << alloca_offset.at(instr)
                         << "(%rbp), " << reg << "\n";
                    return;
                }
                Location loc = alloc.locationOf(instr);
                if (loc.kind == Location::Kind::Reg) {
                    out_ << "\tmovq " << kRegNames[loc.index] << ", "
                         << reg << "\n";
                } else if (loc.kind == Location::Kind::Stack) {
                    out_ << "\tmovq " << slotAddr(loc.index) << ", "
                         << reg << "\n";
                }
                return;
              }
            }
        };

        /** Write %rax into @p instr's home. */
        auto retire = [&](const Instr *instr) {
            Location loc = alloc.locationOf(instr);
            if (loc.kind == Location::Kind::Reg)
                out_ << "\tmovq %rax, " << kRegNames[loc.index] << "\n";
            else if (loc.kind == Location::Kind::Stack)
                out_ << "\tmovq %rax, " << slotAddr(loc.index) << "\n";
        };

        for (const auto &block : fn.blocks()) {
            out_ << blockLabel(fn, block.get()) << ":\n";
            for (const auto &owned : block->instrs()) {
                const Instr *instr = owned.get();
                emitInstr(fn, *instr, fetch, retire);
            }
        }
        out_ << "\n";
    }

    template <typename Fetch, typename Retire>
    void
    emitInstr(const Function &fn, const Instr &instr, Fetch &&fetch,
              Retire &&retire)
    {
        switch (instr.opcode()) {
          case Opcode::Alloca:
            break; // frame object; address rematerialized on use
          case Opcode::Load:
            fetch(instr.operand(0), "%rax");
            out_ << "\tmov" << widthSuffix(instr.type())
                 << " (%rax), " << narrowReg("%rax", instr.type())
                 << "\n";
            retire(&instr);
            break;
          case Opcode::Store:
            fetch(instr.operand(0), "%rax");
            fetch(instr.operand(1), "%rcx");
            out_ << "\tmov" << widthSuffix(instr.operand(0)->type())
                 << " " << narrowReg("%rax", instr.operand(0)->type())
                 << ", (%rcx)\n";
            break;
          case Opcode::Bin: {
            fetch(instr.operand(0), "%rax");
            fetch(instr.operand(1), "%rcx");
            switch (instr.binOp) {
              case BinOp::Add: out_ << "\taddq %rcx, %rax\n"; break;
              case BinOp::Sub: out_ << "\tsubq %rcx, %rax\n"; break;
              case BinOp::Mul: out_ << "\timulq %rcx, %rax\n"; break;
              case BinOp::Div:
                out_ << "\tcqto\n\tidivq %rcx\n";
                break;
              case BinOp::Rem:
                out_ << "\tcqto\n\tidivq %rcx\n\tmovq %rdx, %rax\n";
                break;
              case BinOp::Shl:
                out_ << "\tmovq %rcx, %rcx\n\tshlq %cl, %rax\n";
                break;
              case BinOp::Shr:
                out_ << (instr.type().isSigned ? "\tsarq %cl, %rax\n"
                                               : "\tshrq %cl, %rax\n");
                break;
              case BinOp::And: out_ << "\tandq %rcx, %rax\n"; break;
              case BinOp::Or: out_ << "\torq %rcx, %rax\n"; break;
              case BinOp::Xor: out_ << "\txorq %rcx, %rax\n"; break;
            }
            retire(&instr);
            break;
          }
          case Opcode::Cmp: {
            fetch(instr.operand(0), "%rax");
            fetch(instr.operand(1), "%rcx");
            out_ << "\tcmpq %rcx, %rax\n";
            out_ << "\tset" << setcc(instr.cmpPred) << " %al\n";
            out_ << "\tmovzbq %al, %rax\n";
            retire(&instr);
            break;
          }
          case Opcode::Cast: {
            fetch(instr.operand(0), "%rax");
            // Canonical-form values: re-extension is a masked move.
            out_ << "\t# " << ir::castOpName(instr.castOp) << " to "
                 << instr.type().str() << "\n";
            retire(&instr);
            break;
          }
          case Opcode::Freeze:
            fetch(instr.operand(0), "%rax");
            retire(&instr);
            break;
          case Opcode::Gep: {
            fetch(instr.operand(0), "%rax");
            fetch(instr.operand(1), "%rcx");
            uint64_t size = instr.gepElemSize;
            if (size == 1 || size == 2 || size == 4 || size == 8) {
                out_ << "\tleaq (%rax,%rcx," << size << "), %rax\n";
            } else {
                out_ << "\timulq $" << size
                     << ", %rcx, %rcx\n\taddq %rcx, %rax\n";
            }
            retire(&instr);
            break;
          }
          case Opcode::Select:
            fetch(instr.operand(2), "%rdx");
            fetch(instr.operand(1), "%rcx");
            fetch(instr.operand(0), "%rax");
            out_ << "\ttestq %rax, %rax\n";
            out_ << "\tcmovzq %rdx, %rcx\n";
            out_ << "\tmovq %rcx, %rax\n";
            retire(&instr);
            break;
          case Opcode::Call: {
            static const char *arg_regs[6] = {"%rdi", "%rsi", "%rdx",
                                              "%rcx", "%rbx", "%rax"};
            for (size_t i = 0; i < instr.numOperands() && i < 6; ++i)
                fetch(instr.operand(i), arg_regs[i]);
            out_ << "\tcall " << instr.callee->name() << "\n";
            if (!instr.type().isVoid())
                retire(&instr);
            break;
          }
          case Opcode::Ret:
            if (instr.numOperands() == 1)
                fetch(instr.operand(0), "%rax");
            else
                out_ << "\txorl %eax, %eax\n";
            out_ << "\tleave\n\tret\n";
            break;
          case Opcode::Br:
            out_ << "\tjmp " << blockLabel(fn, instr.blockOperands()[0])
                 << "\n";
            break;
          case Opcode::CondBr:
            fetch(instr.operand(0), "%rax");
            out_ << "\ttestq %rax, %rax\n";
            out_ << "\tjne " << blockLabel(fn, instr.blockOperands()[0])
                 << "\n";
            out_ << "\tjmp " << blockLabel(fn, instr.blockOperands()[1])
                 << "\n";
            break;
          case Opcode::Switch: {
            fetch(instr.operand(0), "%rax");
            for (size_t i = 0; i < instr.caseValues.size(); ++i) {
                out_ << "\tcmpq $" << instr.caseValues[i]
                     << ", %rax\n";
                out_ << "\tje "
                     << blockLabel(fn, instr.blockOperands()[i + 1])
                     << "\n";
            }
            out_ << "\tjmp " << blockLabel(fn, instr.blockOperands()[0])
                 << "\n";
            break;
          }
          case Opcode::Unreachable:
            out_ << "\tud2\n";
            break;
          case Opcode::Phi:
            assert(false && "phis must be demoted before emission");
            break;
        }
    }

    static const char *
    widthSuffix(IrType type)
    {
        if (type.isPtr())
            return "q";
        switch (type.bits) {
          case 8: return "b";
          case 16: return "w";
          case 32: return "l";
          default: return "q";
        }
    }

    static std::string
    narrowReg(const std::string &reg64, IrType type)
    {
        // Only the scratch registers are narrowed; map %rax/%rcx.
        if (type.isPtr() || type.bits == 64)
            return reg64;
        std::string base = reg64 == "%rax" ? "a" : "c";
        switch (type.bits) {
          case 8: return "%" + base + "l";
          case 16: return "%" + base + "x";
          default: return "%e" + base + "x";
        }
    }

    static const char *
    setcc(CmpPred pred)
    {
        switch (pred) {
          case CmpPred::Eq: return "e";
          case CmpPred::Ne: return "ne";
          case CmpPred::Slt: return "l";
          case CmpPred::Sle: return "le";
          case CmpPred::Sgt: return "g";
          case CmpPred::Sge: return "ge";
          case CmpPred::Ult: return "b";
          case CmpPred::Ule: return "be";
          case CmpPred::Ugt: return "a";
          case CmpPred::Uge: return "ae";
        }
        return "e";
    }

    Module &module_;
    std::ostringstream out_;
};

} // namespace

std::string
emitAssembly(Module &module)
{
    support::TraceSpan span("codegen", "compile");
    demotePhis(module);
    Emitter emitter(module);
    return emitter.run();
}

std::set<std::string>
calledSymbols(const std::string &assembly)
{
    std::set<std::string> symbols;
    size_t pos = 0;
    while (pos < assembly.size()) {
        size_t eol = assembly.find('\n', pos);
        if (eol == std::string::npos)
            eol = assembly.size();
        std::string_view line(assembly.data() + pos, eol - pos);
        // Lines look like "\tcall <symbol>".
        size_t call = line.find("call ");
        if (call != std::string::npos &&
            (call == 0 || line[call - 1] == '\t' ||
             line[call - 1] == ' ')) {
            std::string_view rest = line.substr(call + 5);
            size_t end = rest.find_first_of(" \t");
            symbols.emplace(rest.substr(0, end));
        }
        pos = eol + 1;
    }
    return symbols;
}

std::set<unsigned>
aliveMarkersInAsm(const std::string &assembly)
{
    std::set<unsigned> alive;
    for (const std::string &symbol : calledSymbols(assembly)) {
        if (auto index = support::markerIndex(symbol))
            alive.insert(*index);
    }
    return alive;
}

bool
containsCall(const std::string &assembly, const std::string &symbol)
{
    return calledSymbols(assembly).count(symbol) != 0;
}

} // namespace dce::backend

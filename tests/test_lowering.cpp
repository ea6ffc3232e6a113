/** @file Tests for AST-to-IR lowering: structure, verification, and
 * front-end constant-branch folding. */
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "ir/cfg.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace dce::ir {
namespace {

using dce::test::lowerOk;

/** Count instructions with @p opcode across the whole module. */
size_t
countOpcode(const Module &module, Opcode opcode)
{
    size_t count = 0;
    for (const auto &fn : module.functions()) {
        for (const auto &block : fn->blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() == opcode)
                    ++count;
            }
        }
    }
    return count;
}

TEST(Lowering, GlobalsBecomeMemoryObjects)
{
    auto module = lowerOk(R"(
        int a = 5;
        static char b[3];
        char *p = &b[1];
        static int z[2] = {7, 8};
    )");
    ASSERT_TRUE(module);
    GlobalVar *a = module->getGlobal("a");
    ASSERT_TRUE(a);
    EXPECT_FALSE(a->isInternal());
    ASSERT_EQ(a->init.size(), 1u);
    EXPECT_EQ(a->init[0].value, 5);

    GlobalVar *b = module->getGlobal("b");
    ASSERT_TRUE(b);
    EXPECT_TRUE(b->isInternal());
    EXPECT_TRUE(b->isArray());
    EXPECT_EQ(b->count(), 3u);

    GlobalVar *p = module->getGlobal("p");
    ASSERT_TRUE(p);
    ASSERT_EQ(p->init.size(), 1u);
    EXPECT_TRUE(p->init[0].isAddress());
    EXPECT_EQ(p->init[0].base, b);
    EXPECT_EQ(p->init[0].value, 1);

    GlobalVar *z = module->getGlobal("z");
    ASSERT_TRUE(z);
    ASSERT_EQ(z->init.size(), 2u);
    EXPECT_EQ(z->init[1].value, 8);
}

TEST(Lowering, DeclarationsStayOpaque)
{
    auto module = lowerOk(R"(
        void DCEMarker0(void);
        int main() { DCEMarker0(); return 0; }
    )");
    ASSERT_TRUE(module);
    Function *marker = module->getFunction("DCEMarker0");
    ASSERT_TRUE(marker);
    EXPECT_TRUE(marker->isDeclaration());
    EXPECT_EQ(countOpcode(*module, Opcode::Call), 1u);
}

TEST(Lowering, IfProducesDiamond)
{
    auto module = lowerOk(R"(
        int a;
        int main() { if (a) { a = 1; } else { a = 2; } return a; }
    )");
    ASSERT_TRUE(module);
    Function *main_fn = module->getFunction("main");
    // entry, then, else, join.
    EXPECT_EQ(main_fn->numBlocks(), 4u);
    EXPECT_EQ(countOpcode(*module, Opcode::CondBr), 1u);
}

TEST(Lowering, ConstantConditionFoldsAtLowering)
{
    // Front-end DCE: `if (0)` never emits the dead arm, so the marker
    // call disappears even at -O0 — the paper's §4.1 observation.
    auto module = lowerOk(R"(
        void DCEMarker0(void);
        int main() { if (0) { DCEMarker0(); } return 0; }
    )");
    ASSERT_TRUE(module);
    EXPECT_EQ(countOpcode(*module, Opcode::Call), 0u);
    EXPECT_EQ(countOpcode(*module, Opcode::CondBr), 0u);
}

TEST(Lowering, NonConstantConditionSurvivesLowering)
{
    auto module = lowerOk(R"(
        void DCEMarker0(void);
        static int c = 0;
        int main() { if (c) { DCEMarker0(); } return 0; }
    )");
    ASSERT_TRUE(module);
    // The front end does not know c's stored value: marker call stays.
    EXPECT_EQ(countOpcode(*module, Opcode::Call), 1u);
}

TEST(Lowering, CodeAfterReturnIsDropped)
{
    auto module = lowerOk(R"(
        void DCEMarker0(void);
        int main() { return 0; DCEMarker0(); }
    )");
    ASSERT_TRUE(module);
    EXPECT_EQ(countOpcode(*module, Opcode::Call), 0u);
}

TEST(Lowering, LoopsProduceBackEdges)
{
    auto module = lowerOk(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 3; i++) { s += i; }
            return s;
        }
    )");
    ASSERT_TRUE(module);
    Function *main_fn = module->getFunction("main");
    auto preds = predecessorMap(*main_fn);
    // Some block (the for.cond header) must have two predecessors.
    bool has_join = false;
    for (const auto &block : main_fn->blocks())
        has_join |= preds.at(block.get()).size() >= 2;
    EXPECT_TRUE(has_join);
}

TEST(Lowering, ShortCircuitBranches)
{
    auto module = lowerOk(R"(
        int a; int b;
        int main() { if (a && b) { a = 1; } return a; }
    )");
    ASSERT_TRUE(module);
    EXPECT_GE(countOpcode(*module, Opcode::CondBr), 2u);
}

TEST(Lowering, SwitchLowersToSwitchInstr)
{
    auto module = lowerOk(R"(
        int a;
        int main() {
            switch (a) {
              case 1:
                a = 10;
                break;
              case 2:
                a = 20;
                break;
              default:
                a = 30;
                break;
            }
            return a;
        }
    )");
    ASSERT_TRUE(module);
    EXPECT_EQ(countOpcode(*module, Opcode::Switch), 1u);
}

TEST(Lowering, AllAllocasInEntryBlock)
{
    auto module = lowerOk(R"(
        int main() {
            int a = 1;
            for (int i = 0; i < 2; i++) {
                int inner = i;
                a += inner;
            }
            return a;
        }
    )");
    ASSERT_TRUE(module);
    Function *main_fn = module->getFunction("main");
    for (const auto &block : main_fn->blocks()) {
        for (const auto &instr : block->instrs()) {
            if (instr->opcode() == Opcode::Alloca)
                EXPECT_EQ(block.get(), main_fn->entry());
        }
    }
}

TEST(Lowering, CompoundAssignWidensThenNarrows)
{
    auto module = lowerOk(R"(
        char c;
        int main() { c += 300; return c; }
    )");
    ASSERT_TRUE(module);
    // i8 load -> sext to i32 -> add -> trunc -> store.
    EXPECT_GE(countOpcode(*module, Opcode::Cast), 2u);
}

TEST(Lowering, ParamsGetStackSlots)
{
    auto module = lowerOk(R"(
        int add(int x, int y) { return x + y; }
        int main() { return add(1, 2); }
    )");
    ASSERT_TRUE(module);
    Function *add_fn = module->getFunction("add");
    size_t allocas = 0;
    for (const auto &instr : add_fn->entry()->instrs()) {
        if (instr->opcode() == Opcode::Alloca)
            ++allocas;
    }
    EXPECT_EQ(allocas, 2u);
}

TEST(Verifier, RejectsDuplicateAndMissingValueIds)
{
    auto module = lowerOk(R"(
        int g;
        int main() { int x = g; int y = x + 1; return x * y; }
    )");
    ASSERT_TRUE(module);
    ASSERT_TRUE(verifyModule(*module).ok());
    std::vector<Instr *> valued;
    for (const auto &instr : module->getFunction("main")->entry()->instrs()) {
        if (!instr->type().isVoid())
            valued.push_back(instr.get());
    }
    ASSERT_GE(valued.size(), 2u);

    // A second non-void instruction claiming the first one's id.
    unsigned original = valued[1]->id();
    valued[1]->setId(valued[0]->id());
    VerifyResult duplicate = verifyModule(*module);
    ASSERT_FALSE(duplicate.ok());
    EXPECT_NE(duplicate.str().find("duplicate value id"), std::string::npos)
        << duplicate.str();

    // A global colliding with an instruction is rejected too.
    valued[1]->setId(original);
    unsigned global_id = module->getGlobal("g")->id();
    module->getGlobal("g")->setId(valued[0]->id());
    EXPECT_FALSE(verifyModule(*module).ok());
    module->getGlobal("g")->setId(global_id);

    // A non-void instruction without an id.
    valued[0]->setId(0);
    VerifyResult missing = verifyModule(*module);
    ASSERT_FALSE(missing.ok());
    EXPECT_NE(missing.str().find("value without an id"), std::string::npos)
        << missing.str();
}

} // namespace
} // namespace dce::ir

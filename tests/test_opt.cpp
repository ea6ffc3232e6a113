/** @file Optimizer tests: per-pass behaviour, translation validation
 * against the interpreter, and the engineered capability knobs. */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "compiler/compiler.hpp"
#include "gen/generator.hpp"
#include "helpers.hpp"
#include "instrument/instrument.hpp"
#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "ir/lowering.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "lang/parser.hpp"
#include "opt/pass.hpp"
#include "support/remarks.hpp"

namespace dce {
namespace {

using compiler::Compiler;
using compiler::CompilerId;
using compiler::OptLevel;
using test::lowerOk;
using test::parseOk;

size_t
countOpcode(const ir::Module &module, ir::Opcode opcode)
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

bool
callsFunction(const ir::Module &module, const std::string &name)
{
    for (const auto &fn : module.functions()) {
        for (const auto &block : fn->blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() == ir::Opcode::Call &&
                    instr->callee->name() == name) {
                    return true;
                }
            }
        }
    }
    return false;
}

/** Compile @p source with @p compiler (verifying after every pass) and
 * check the optimized module behaves exactly like the -O0 build. */
std::unique_ptr<ir::Module>
compileValidated(const std::string &source, const Compiler &comp)
{
    auto unit = parseOk(source);
    if (!unit)
        return nullptr;
    compiler::Compilation result = comp.compile(*unit, /*verify_each=*/true);
    EXPECT_TRUE(result.ok())
        << comp.describe() << " verification failure:\n"
        << result.error() << "\nsource:\n"
        << source << "\nIR:\n"
        << ir::printModule(result.module());
    auto optimized = result.takeModule();
    auto baseline_module = ir::lowerToIr(*unit);
    interp::ExecResult expected = interp::execute(*baseline_module);
    interp::ExecResult actual = interp::execute(*optimized);
    EXPECT_TRUE(interp::observablyEqual(expected, actual))
        << comp.describe() << " miscompiled:\n"
        << interp::explainDifference(expected, actual) << "source:\n"
        << source << "\noptimized IR:\n"
        << ir::printModule(*optimized);
    return optimized;
}

//===------------------------------------------------------------------===//
// Individual pass behaviour (via the full pipelines)
//===------------------------------------------------------------------===//

TEST(Opt, Mem2RegRemovesScalarAllocas)
{
    Compiler comp(CompilerId::Beta, OptLevel::O1);
    auto module = compileValidated(R"(
        int main() {
            int a = 3;
            int b = a + 4;
            return b;
        }
    )",
                                   comp);
    ASSERT_TRUE(module);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Alloca), 0u);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Load), 0u);
}

TEST(Opt, ConstantsFoldToReturn)
{
    Compiler comp(CompilerId::Beta, OptLevel::O1);
    auto module = compileValidated(
        "int main() { int a = 3; int b = 4; return a * b + 2; }", comp);
    ASSERT_TRUE(module);
    // main should be a single block returning the constant 14.
    ir::Function *main_fn = module->getFunction("main");
    EXPECT_EQ(main_fn->numBlocks(), 1u);
    EXPECT_EQ(countOpcode(*module, ir::Opcode::Bin), 0u);
}

TEST(Opt, SccpFoldsThroughBranches)
{
    Compiler comp(CompilerId::Beta, OptLevel::O1);
    auto module = compileValidated(R"(
        void DCEMarker0(void);
        int main() {
            int a = 1;
            int b;
            if (a) { b = 2; } else { b = 3; }
            if (b == 3) { DCEMarker0(); }
            return b;
        }
    )",
                                   comp);
    ASSERT_TRUE(module);
    EXPECT_FALSE(callsFunction(*module, "DCEMarker0"));
}

TEST(Opt, DeadLoopsDisappear)
{
    Compiler comp(CompilerId::Beta, OptLevel::O2);
    auto module = compileValidated(R"(
        void DCEMarker0(void);
        int main() {
            int a = 0;
            while (a) { DCEMarker0(); }
            return 0;
        }
    )",
                                   comp);
    ASSERT_TRUE(module);
    EXPECT_FALSE(callsFunction(*module, "DCEMarker0"));
}

TEST(Opt, MarkersInLiveCodeSurviveEveryLevel)
{
    for (CompilerId id : {CompilerId::Alpha, CompilerId::Beta}) {
        for (OptLevel level : compiler::allOptLevels()) {
            Compiler comp(id, level);
            auto module = compileValidated(R"(
                void DCEMarker0(void);
                int a = 1;
                int main() {
                    if (a) { DCEMarker0(); }
                    return 0;
                }
            )",
                                           comp);
            ASSERT_TRUE(module);
            EXPECT_TRUE(callsFunction(*module, "DCEMarker0"))
                << comp.describe()
                << " removed a live marker (unsound!)";
        }
    }
}

TEST(Opt, InlinerSeesThroughHelpers)
{
    Compiler comp(CompilerId::Beta, OptLevel::O2);
    auto module = compileValidated(R"(
        void DCEMarker0(void);
        static int five(void) { return 5; }
        int main() {
            if (five() != 5) { DCEMarker0(); }
            return 0;
        }
    )",
                                   comp);
    ASSERT_TRUE(module);
    EXPECT_FALSE(callsFunction(*module, "DCEMarker0"));
    // The helper itself is gone too (inlined + globaldce).
    EXPECT_EQ(module->getFunction("five"), nullptr);
}

TEST(Opt, GlobalOptFoldsNeverStoredGlobals)
{
    for (CompilerId id : {CompilerId::Alpha, CompilerId::Beta}) {
        Compiler comp(id, OptLevel::O2);
        auto module = compileValidated(R"(
            void DCEMarker0(void);
            static int g = 0;
            int main() {
                if (g) { DCEMarker0(); }
                return 0;
            }
        )",
                                       comp);
        ASSERT_TRUE(module);
        EXPECT_FALSE(callsFunction(*module, "DCEMarker0"))
            << comp.describe();
    }
}

TEST(Opt, StoredEqualsInitDivergence)
{
    // Listing 4a: `static int a = 0; if (a) dead(); a = 0;`
    // beta folds (stored value == initializer), alpha does not (its
    // global value analysis is flow-insensitive). The paper's flagship
    // GCC miss (PR99357).
    const std::string source = R"(
        void DCEMarker0(void);
        static int a = 0;
        int main() {
            if (a) { DCEMarker0(); }
            a = 0;
            return 0;
        }
    )";
    Compiler beta(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta);
    ASSERT_TRUE(beta_module);
    EXPECT_FALSE(callsFunction(*beta_module, "DCEMarker0"));

    Compiler alpha(CompilerId::Alpha, OptLevel::O3);
    auto alpha_module = compileValidated(source, alpha);
    ASSERT_TRUE(alpha_module);
    EXPECT_TRUE(callsFunction(*alpha_module, "DCEMarker0"));
}

TEST(Opt, StoredNotEqualInitMissedByBothAtHead)
{
    // Listing 6a: `a = 1` at the end — beta's old flow-sensitive
    // analysis handled it; the R7 commit regressed it.
    const std::string source = R"(
        void DCEMarker0(void);
        static int a = 0;
        int main() {
            if (a) { DCEMarker0(); }
            a = 1;
            return 0;
        }
    )";
    Compiler beta_head(CompilerId::Beta, OptLevel::O3);
    auto head_module = compileValidated(source, beta_head);
    ASSERT_TRUE(head_module);
    EXPECT_TRUE(callsFunction(*head_module, "DCEMarker0"));

    // Pre-regression build (before commit 65c02df91e4).
    Compiler beta_old(CompilerId::Beta, OptLevel::O3, 1);
    auto old_module = compileValidated(source, beta_old);
    ASSERT_TRUE(old_module);
    EXPECT_FALSE(callsFunction(*old_module, "DCEMarker0"));
}

TEST(Opt, PtrCmpOffsetDivergence)
{
    // Listing 3: &a == &b[1]. alpha folds any constant offset; beta
    // only offset 0 (LLVM PR49434).
    const std::string source = R"(
        void DCEMarker0(void);
        char a;
        char b[2];
        int main() {
            char *c = &a;
            char *d = &b[1];
            if (c == d) { DCEMarker0(); }
            return 0;
        }
    )";
    Compiler alpha(CompilerId::Alpha, OptLevel::O3);
    auto alpha_module = compileValidated(source, alpha);
    ASSERT_TRUE(alpha_module);
    EXPECT_FALSE(callsFunction(*alpha_module, "DCEMarker0"));

    Compiler beta(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta);
    ASSERT_TRUE(beta_module);
    EXPECT_TRUE(callsFunction(*beta_module, "DCEMarker0"));

    // The b[0] variant folds for both — the paper notes changing the
    // index to 0 lets EarlyCSE manage.
    const std::string zero_variant = R"(
        void DCEMarker0(void);
        char a;
        char b[2];
        int main() {
            char *c = &a;
            char *d = &b[0];
            if (c == d) { DCEMarker0(); }
            return 0;
        }
    )";
    auto beta_zero = compileValidated(zero_variant, beta);
    ASSERT_TRUE(beta_zero);
    EXPECT_FALSE(callsFunction(*beta_zero, "DCEMarker0"));
}

TEST(Opt, UniformZeroArrayDivergence)
{
    // Listing 9f: b[a] with b = {0, 0}. beta folds, alpha misses
    // (GCC PR99419, duplicate of developer-reported PR80603).
    const std::string source = R"(
        void DCEMarker0(void);
        int a;
        static int b[2] = {0, 0};
        int main() {
            if (b[a]) { DCEMarker0(); }
            return 0;
        }
    )";
    Compiler beta(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta);
    ASSERT_TRUE(beta_module);
    EXPECT_FALSE(callsFunction(*beta_module, "DCEMarker0"));

    Compiler alpha(CompilerId::Alpha, OptLevel::O3);
    auto alpha_module = compileValidated(source, alpha);
    ASSERT_TRUE(alpha_module);
    EXPECT_TRUE(callsFunction(*alpha_module, "DCEMarker0"));
}

TEST(Opt, ExitDseDivergence)
{
    // Listing 1's trailing `c = 0;`: beta removes the dead store,
    // alpha emits it (movl $0, c(%rip) in the paper's GCC output).
    const std::string source = R"(
        static int c = 0;
        int main() {
            c = 5;
            c = 0;
            return 0;
        }
    )";
    Compiler beta(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta);
    ASSERT_TRUE(beta_module);
    EXPECT_EQ(countOpcode(*beta_module, ir::Opcode::Store), 0u);
}

TEST(Opt, UnswitchFreezeRegression)
{
    // Listing 7: beta at -O2 eliminates dead(), at -O3 the unswitch
    // regression (freeze) blocks it.
    const std::string source = R"(
        void dead(void);
        int a, c;
        static int b;
        int main() {
            b = 0;
            while (a) { while (c) { if (b) { dead(); } } }
            return 0;
        }
    )";
    Compiler beta_o2(CompilerId::Beta, OptLevel::O2);
    auto o2_module = compileValidated(source, beta_o2);
    ASSERT_TRUE(o2_module);
    EXPECT_FALSE(callsFunction(*o2_module, "dead"))
        << ir::printModule(*o2_module);

    Compiler beta_o3(CompilerId::Beta, OptLevel::O3);
    auto o3_module = compileValidated(source, beta_o3);
    ASSERT_TRUE(o3_module);
    EXPECT_TRUE(callsFunction(*o3_module, "dead"))
        << ir::printModule(*o3_module);
}

TEST(Opt, VrpRemRegression)
{
    // Listing 8b essence: equality facts folding through %.
    const std::string source = R"(
        void dead(void);
        int x;
        int main() {
            int v = x;
            if (v == 7) {
                if (v % 3 == 0) { dead(); }
            }
            return 0;
        }
    )";
    Compiler beta_o2(CompilerId::Beta, OptLevel::O2);
    auto o2_module = compileValidated(source, beta_o2);
    ASSERT_TRUE(o2_module);
    EXPECT_FALSE(callsFunction(*o2_module, "dead"));

    Compiler beta_o3(CompilerId::Beta, OptLevel::O3);
    auto o3_module = compileValidated(source, beta_o3);
    ASSERT_TRUE(o3_module);
    EXPECT_TRUE(callsFunction(*o3_module, "dead"));

    // The post-head fix commit restores it.
    Compiler beta_fixed(CompilerId::Beta, OptLevel::O3,
                        compiler::spec(CompilerId::Beta).latestIndex());
    auto fixed_module = compileValidated(source, beta_fixed);
    ASSERT_TRUE(fixed_module);
    EXPECT_FALSE(callsFunction(*fixed_module, "dead"));
}

TEST(Opt, ShiftNonzeroRelationDivergence)
{
    // Listing 9a essence: (x << y) != 0 implies x != 0.
    const std::string source = R"(
        void dead(void);
        int x, y;
        int main() {
            if (x << y) {
                if (x == 0) { dead(); }
            }
            return 0;
        }
    )";
    Compiler beta(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta);
    ASSERT_TRUE(beta_module);
    EXPECT_FALSE(callsFunction(*beta_module, "dead"));

    Compiler alpha(CompilerId::Alpha, OptLevel::O3);
    auto alpha_module = compileValidated(source, alpha);
    ASSERT_TRUE(alpha_module);
    EXPECT_TRUE(callsFunction(*alpha_module, "dead"));

    // alpha's post-head fix commit adds the relation.
    Compiler alpha_fixed(
        CompilerId::Alpha, OptLevel::O3,
        compiler::spec(CompilerId::Alpha).headIndex() + 1);
    auto fixed_module = compileValidated(source, alpha_fixed);
    ASSERT_TRUE(fixed_module);
    EXPECT_FALSE(callsFunction(*fixed_module, "dead"));
}

TEST(Opt, LoopUnrollEnablesForwarding)
{
    // Listing 9e shape with static globals: the loop stores &a[1] into
    // c[0] and c[1]; `!c[0]` is then false.
    const std::string source = R"(
        void dead(void);
        static int a[2];
        static int b;
        static int *c[2];
        int main() {
            for (b = 0; b < 2; b++) {
                c[b] = &a[1];
            }
            if (!c[0]) { dead(); }
            return 0;
        }
    )";
    // beta at O3: clean unroll + forwarding eliminates the call.
    Compiler beta(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta);
    ASSERT_TRUE(beta_module);
    EXPECT_FALSE(callsFunction(*beta_module, "dead"))
        << ir::printModule(*beta_module);

    // alpha at O1 also eliminates (no vectorizer); at O3 the
    // store-rewrite regression (freeze) blocks the fold.
    Compiler alpha_o1(CompilerId::Alpha, OptLevel::O1);
    auto o1_module = compileValidated(source, alpha_o1);
    ASSERT_TRUE(o1_module);

    Compiler alpha_o3(CompilerId::Alpha, OptLevel::O3);
    auto o3_module = compileValidated(source, alpha_o3);
    ASSERT_TRUE(o3_module);
    EXPECT_TRUE(callsFunction(*o3_module, "dead"))
        << ir::printModule(*o3_module);
}

TEST(Opt, InlinedHuskRegression)
{
    // Listing 9b essence: at O2+, alpha's IPA-clone commit keeps the
    // husk of an inlined static alive; markers inside survive.
    const std::string source = R"(
        void dead(void);
        static int g = 0;
        static void helper(void) {
            if (g) { dead(); }
        }
        int main() {
            helper();
            return 0;
        }
    )";
    Compiler alpha_o1(CompilerId::Alpha, OptLevel::O1);
    auto o1_module = compileValidated(source, alpha_o1);
    ASSERT_TRUE(o1_module);

    Compiler alpha_o3(CompilerId::Alpha, OptLevel::O3);
    auto o3_module = compileValidated(source, alpha_o3);
    ASSERT_TRUE(o3_module);
    // The husk remains as a function in the module even though main no
    // longer calls it.
    EXPECT_NE(o3_module->getFunction("helper"), nullptr);

    Compiler beta_o3(CompilerId::Beta, OptLevel::O3);
    auto beta_module = compileValidated(source, beta_o3);
    ASSERT_TRUE(beta_module);
    EXPECT_EQ(beta_module->getFunction("helper"), nullptr);
}

TEST(Opt, AliasForwardingRegression)
{
    // Listing 9c essence: forwarding a global's value across stores
    // through provably-unrelated pointers. alpha-O3's alias regression
    // clobbers everything; O1 forwards.
    const std::string source = R"(
        void dead(void);
        static char b;
        static int c;
        int main() {
            b = 0;
            int *g = &c;
            *g = 5;
            if (b != 0) { dead(); }
            return 0;
        }
    )";
    Compiler alpha_o1(CompilerId::Alpha, OptLevel::O1);
    auto o1_module = compileValidated(source, alpha_o1);
    ASSERT_TRUE(o1_module);
    EXPECT_FALSE(callsFunction(*o1_module, "dead"))
        << ir::printModule(*o1_module);

    Compiler alpha_o3(CompilerId::Alpha, OptLevel::O3);
    auto o3_module = compileValidated(source, alpha_o3);
    ASSERT_TRUE(o3_module);
    EXPECT_TRUE(callsFunction(*o3_module, "dead"))
        << ir::printModule(*o3_module);
}

//===------------------------------------------------------------------===//
// Translation validation sweep: every compiler/level must preserve
// behaviour on a battery of semantically-interesting programs.
//===------------------------------------------------------------------===//

const char *kValidationPrograms[] = {
    R"(int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; })",
    R"(int a = 7; int b = 0; int main() { return a / b + a % b; })",
    R"(char c; int main() { c = 200; return c >> 2; })",
    R"(unsigned u = 3000000000; int main() { return u > 2000000000; })",
    R"(int g; void bump(void) { g += 3; } int main() { bump(); bump(); return g; })",
    R"(void M(void); int a = 2; int main() { switch (a) { case 1: M(); break; case 2: a = 9; break; default: break; } return a; })",
    R"(int a[4] = {1,2,3,4}; int main() { int s = 0; for (int i = 0; i < 4; i++) { s += a[i]; } return s; })",
    R"(static int x = 5; int main() { int *p = &x; *p = 6; return x; })",
    R"(int main() { int a = 1, b = 2; return (a < b ? a : b) + (a && b) + (a || b); })",
    R"(void M(void); int n = 3; int main() { while (n) { M(); n--; } return n; })",
    R"(static short e; static long a = 78240; int main() { short g = a; e = a; return (e == a) ^ g; })",
    R"(int a; int main() { int r = 0; do { r++; a++; } while (a < 5); return r; })",
    R"(static int a, b; int main() { for (a = 0; a < 3; a++) { for (b = 0; b < 2; b++) { } } return a * 10 + b; })",
    R"(int f(int n) { if (n <= 1) { return 1; } return n * f(n - 1); } int main() { return f(5); })",
    R"(char b[2]; int main() { char *e = &b[1]; *e = 7; return b[1]; })",
};

class ValidationSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ValidationSweep, OptimizedBehaviourMatchesO0)
{
    auto [compiler_index, program_index] = GetParam();
    CompilerId id = compiler_index == 0 ? CompilerId::Alpha
                                        : CompilerId::Beta;
    const char *source = kValidationPrograms[program_index];
    for (OptLevel level : compiler::allOptLevels()) {
        Compiler comp(id, level);
        compileValidated(source, comp);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, ValidationSweep,
    ::testing::Combine(
        ::testing::Range(0, 2),
        ::testing::Range(0, static_cast<int>(
                                std::size(kValidationPrograms)))));

//===------------------------------------------------------------------===//
// Determinism, the analysis cache and the change-driven pipeline
//===------------------------------------------------------------------===//

std::unique_ptr<ir::Module>
lowerGenerated(uint64_t seed)
{
    auto unit = gen::generateProgram(seed);
    instrument::Instrumented prog = instrument::instrumentUnit(*unit);
    return ir::lowerToIr(*prog.unit);
}

/** Allocate and free blocks of assorted sizes, keeping every third
 * alive, so later allocations land at different addresses. */
std::vector<std::unique_ptr<char[]>>
churnHeap(uint64_t seed)
{
    std::vector<std::unique_ptr<char[]>> kept;
    uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    for (int i = 0; i < 3000; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        auto block = std::make_unique<char[]>(16 + (state >> 33) % 4096);
        block[0] = static_cast<char>(i);
        if (i % 3 == 0)
            kept.push_back(std::move(block));
    }
    return kept;
}

TEST(OptDeterminism, SameModuleCompilesIdenticallyAcrossHeapLayouts)
{
    for (uint64_t seed = 8000; seed < 8200; ++seed) {
        std::unique_ptr<ir::Module> lowered = lowerGenerated(seed);
        for (CompilerId id : {CompilerId::Alpha, CompilerId::Beta}) {
            Compiler comp(id, OptLevel::O3);
            std::string first =
                ir::printModule(comp.compileLowered(*lowered).module());
            auto churn = churnHeap(seed);
            std::string second =
                ir::printModule(comp.compileLowered(*lowered).module());
            ASSERT_EQ(first, second)
                << comp.describe() << " seed " << seed
                << " compiled differently after heap churn";
        }
    }
}

/** Checking mode over generated programs: every cached analysis is
 * recomputed on each hit, every skipped pass runs anyway, and every
 * pass that reports no change must change nothing. */
class CheckingSweep
    : public ::testing::TestWithParam<std::tuple<CompilerId, OptLevel>> {};

TEST_P(CheckingSweep, NoStaleAnalysisAndNoUnsoundSkip)
{
    auto [id, level] = GetParam();
    Compiler comp(id, level);
    for (uint64_t seed = 9000; seed < 9200; ++seed) {
        std::unique_ptr<ir::Module> lowered = lowerGenerated(seed);
        compiler::Compilation result =
            comp.compileLowered(*lowered, /*verify_each=*/true);
        ASSERT_TRUE(result.ok())
            << comp.describe() << " seed " << seed << ":\n"
            << result.error();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Builds, CheckingSweep,
    ::testing::Combine(::testing::Values(CompilerId::Alpha,
                                         CompilerId::Beta),
                       ::testing::Values(OptLevel::O1, OptLevel::Os,
                                         OptLevel::O2, OptLevel::O3)));

/** main: entry -> exit, returning 0; exit is blocks()[1]. */
std::unique_ptr<ir::Module>
twoBlockMain()
{
    auto module = std::make_unique<ir::Module>();
    ir::Function *main_fn = module->addFunction(
        "main", ir::IrType::i32(), /*internal=*/false);
    ir::BasicBlock *entry = main_fn->addBlock("entry");
    ir::BasicBlock *exit = main_fn->addBlock("exit");
    ir::IrBuilder builder(*module);
    builder.setInsertionBlock(entry);
    builder.br(exit);
    builder.setInsertionBlock(exit);
    builder.ret(module->i32Const(0));
    return module;
}

/** Reroutes entry -> exit through a new block after reading the
 * dominator tree, then reads it again unless @p rpo_after is null. */
class RerouteEntryPass : public opt::Pass {
  public:
    RerouteEntryPass(bool invalidate, size_t *rpo_after)
        : invalidate_(invalidate), rpoAfter_(rpo_after)
    {
    }
    std::string name() const override { return "reroute"; }

    bool
    run(ir::Module &module, const opt::PassConfig &,
        opt::PassContext &ctx) override
    {
        ir::Function &fn = *module.getFunction("main");
        EXPECT_EQ(ctx.analyses.domtree(fn).rpo().size(), 2u);
        ir::BasicBlock *exit = fn.blocks()[1].get();
        ir::BasicBlock *mid = fn.addBlock("mid");
        ir::IrBuilder builder(module);
        builder.setInsertionBlock(mid);
        builder.br(exit);
        fn.entry()->terminator()->replaceSuccessor(exit, mid);
        if (invalidate_)
            ctx.analyses.invalidate(fn);
        if (rpoAfter_)
            *rpoAfter_ = ctx.analyses.domtree(fn).rpo().size();
        return true;
    }

  private:
    bool invalidate_;
    size_t *rpoAfter_;
};

TEST(AnalysisCache, MutatingPassMustInvalidateBeforeRequerying)
{
    for (bool invalidate : {false, true}) {
        for (bool checking : {false, true}) {
            auto module = twoBlockMain();
            size_t rpo_after = 0;
            opt::PassManager pm{opt::PassConfig{}};
            pm.add(std::make_unique<RerouteEntryPass>(invalidate,
                                                      &rpo_after));
            pm.run(*module, checking);
            // Without invalidate() the cache hands back the tree of
            // the two-block CFG; checking mode catches it.
            EXPECT_EQ(rpo_after, invalidate ? 3u : 2u);
            if (checking && !invalidate) {
                // The predecessor lists under the tree go stale first.
                EXPECT_NE(pm.lastError().find(
                              "stale cached predecessor lists of 'main'"),
                          std::string::npos)
                    << pm.lastError();
            } else {
                EXPECT_EQ(pm.lastError(), "");
            }
        }
    }
}

/** Records the size of main's dominator-tree RPO. */
class DomtreeReaderPass : public opt::Pass {
  public:
    explicit DomtreeReaderPass(size_t *rpo_size) : rpoSize_(rpo_size) {}
    std::string name() const override { return "domreader"; }

    bool
    run(ir::Module &module, const opt::PassConfig &,
        opt::PassContext &ctx) override
    {
        *rpoSize_ =
            ctx.analyses.domtree(*module.getFunction("main")).rpo().size();
        return false;
    }

  private:
    size_t *rpoSize_;
};

TEST(AnalysisCache, CfgAnalysesOutliveChangingPassesOnlyIfInvalidated)
{
    // CFG analyses survive a pass that returns true; the pass that
    // edited the CFG must have invalidated the function.
    for (bool invalidate : {false, true}) {
        for (bool checking : {false, true}) {
            auto module = twoBlockMain();
            size_t before = 0;
            size_t after = 0;
            opt::PassManager pm{opt::PassConfig{}};
            pm.add(std::make_unique<DomtreeReaderPass>(&before));
            pm.add(std::make_unique<RerouteEntryPass>(invalidate, nullptr));
            pm.add(std::make_unique<DomtreeReaderPass>(&after));
            pm.run(*module, checking);
            EXPECT_EQ(before, 2u);
            EXPECT_EQ(after, invalidate ? 3u : 2u);
            if (checking && !invalidate) {
                EXPECT_NE(pm.lastError().find(
                              "stale cached predecessor lists of 'main'"),
                          std::string::npos)
                    << pm.lastError();
            } else {
                EXPECT_EQ(pm.lastError(), "");
            }
        }
    }
}

/** Counts its runs; reports `reports` and, when `mutates`, appends an
 * unused instruction to main's entry whatever it reports. */
class ProbePass : public opt::Pass {
  public:
    ProbePass(unsigned *runs, bool reports, std::string flavour = "",
              bool mutates = false)
        : runs_(runs), reports_(reports), flavour_(std::move(flavour)),
          mutates_(mutates)
    {
    }
    std::string name() const override { return "probe"; }
    std::string flavour() const override { return flavour_; }

    bool
    run(ir::Module &module, const opt::PassConfig &,
        opt::PassContext &) override
    {
        ++*runs_;
        if (mutates_) {
            ir::BasicBlock *entry = module.getFunction("main")->entry();
            auto add = module.newInstr(ir::Opcode::Bin, ir::IrType::i32());
            add->addOperand(module.i32Const(1));
            add->addOperand(module.i32Const(2));
            add->setId(module.nextValueId());
            entry->insertBefore(0, std::move(add));
        }
        return reports_;
    }

  private:
    unsigned *runs_;
    bool reports_;
    std::string flavour_;
    bool mutates_;
};

TEST(ChangeDrivenPipeline, SkipsRepeatsOnlyWhileNothingChanges)
{
    struct Case {
        const char *what;
        std::vector<std::pair<bool, std::string>> probes;
        unsigned runs;
    };
    const std::vector<Case> cases = {
        {"repeat at the same version", {{false, ""}, {false, ""}}, 1},
        {"a change in between",
         {{false, ""}, {true, "x"}, {false, ""}},
         3},
        {"another flavour", {{false, "a"}, {false, "b"}}, 2},
    };
    for (const Case &c : cases) {
        for (bool checking : {false, true}) {
            auto module = twoBlockMain();
            unsigned runs = 0;
            opt::PassManager pm{opt::PassConfig{}};
            for (const auto &[reports, flavour] : c.probes)
                pm.add(std::make_unique<ProbePass>(&runs, reports,
                                                   flavour));
            pm.run(*module, checking);
            EXPECT_EQ(pm.lastError(), "") << c.what;
            // Checking mode runs the skipped pass anyway.
            EXPECT_EQ(runs, checking ? c.probes.size() : c.runs)
                << c.what << (checking ? " (checking)" : "");
        }
    }
}

TEST(ChangeDrivenPipeline, CheckingModeCatchesUnderReportingPasses)
{
    auto module = twoBlockMain();
    unsigned runs = 0;
    opt::PassManager pm{opt::PassConfig{}};
    pm.add(std::make_unique<ProbePass>(&runs, /*reports=*/false, "",
                                       /*mutates=*/true));
    pm.run(*module, /*verify_each=*/true);
    EXPECT_NE(pm.lastError().find("returned false but changed the module"),
              std::string::npos)
        << pm.lastError();
}

TEST(ChangeDrivenPipeline, CheckingModeCatchesUnsoundSkips)
{
    // The second probe shares the first's key but changes the module:
    // a pass that is not a function of (module, config).
    auto module = twoBlockMain();
    unsigned runs = 0;
    opt::PassManager pm{opt::PassConfig{}};
    pm.add(std::make_unique<ProbePass>(&runs, /*reports=*/false));
    pm.add(std::make_unique<ProbePass>(&runs, /*reports=*/true, "",
                                       /*mutates=*/true));
    pm.run(*module, /*verify_each=*/true);
    EXPECT_NE(pm.lastError().find("skipped as unchanged"),
              std::string::npos)
        << pm.lastError();
}

TEST(ChangeDrivenPipeline, Mem2RegReportsUnreachableBlockRemoval)
{
    // No allocas to promote, but an unreachable block to drop.
    auto module = twoBlockMain();
    ir::Function *main_fn = module->getFunction("main");
    ir::BasicBlock *orphan = main_fn->addBlock("orphan");
    ir::IrBuilder builder(*module);
    builder.setInsertionBlock(orphan);
    builder.br(main_fn->blocks()[1].get());

    opt::PassManager pm{opt::PassConfig{}};
    pm.add(opt::createMem2RegPass());
    EXPECT_TRUE(pm.run(*module, /*verify_each=*/true)) << pm.lastError();
    EXPECT_EQ(pm.lastError(), "");
    EXPECT_EQ(main_fn->numBlocks(), 2u);
}

TEST(GlobalDce, ErasesOrphanChainsInRescanOrder)
{
    // f0 is uncalled and calls f2; f2 calls f1. A rescan after every
    // erase removes f0, then f2, then f1; each holds a marker call, so
    // the remark stream records that order.
    ir::Module module;
    ir::Function *main_fn =
        module.addFunction("main", ir::IrType::i32(), false);
    std::vector<ir::Function *> fns;
    for (int i = 0; i < 3; ++i) {
        fns.push_back(module.addFunction("f" + std::to_string(i),
                                         ir::IrType::voidTy(), true));
    }
    ir::IrBuilder builder(module);
    auto body = [&](ir::Function *fn, unsigned marker,
                    ir::Function *callee) {
        builder.setInsertionBlock(fn->addBlock("entry"));
        builder.call(module.addFunction("DCEMarker" +
                                            std::to_string(marker),
                                        ir::IrType::voidTy(), false),
                     {});
        if (callee)
            builder.call(callee, {});
        builder.retVoid();
    };
    body(fns[0], 0, fns[2]);
    body(fns[1], 1, nullptr);
    body(fns[2], 2, fns[1]);
    builder.setInsertionBlock(main_fn->addBlock("entry"));
    builder.ret(module.i32Const(0));

    support::RemarkCollector remarks;
    opt::PassManager pm{opt::PassConfig{}};
    pm.add(opt::createGlobalDcePass());
    pm.setRemarks(&remarks);
    EXPECT_TRUE(pm.run(module, /*verify_each=*/true)) << pm.lastError();
    EXPECT_EQ(module.getFunction("f0"), nullptr);
    EXPECT_EQ(module.getFunction("f1"), nullptr);
    EXPECT_EQ(module.getFunction("f2"), nullptr);
    std::vector<unsigned> removed;
    for (const support::Remark &remark : remarks.remarks()) {
        if (remark.kind == support::RemarkKind::MarkerCallRemoved)
            removed.push_back(remark.marker);
    }
    EXPECT_EQ(removed, (std::vector<unsigned>{0, 2, 1}));
}

} // namespace
} // namespace dce

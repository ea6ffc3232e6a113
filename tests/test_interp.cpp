/** @file End-to-end interpreter tests: language semantics, marker
 * traces, limits, and the paper's example programs. */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "helpers.hpp"

#include "compiler/compiler.hpp"
#include "gen/generator.hpp"
#include "instrument/instrument.hpp"
#include "ir/builder.hpp"
#include "ir/lowering.hpp"
#include "ir/verifier.hpp"
#include "lang/parser.hpp"

namespace dce::interp {
namespace {

using dce::test::runSource;

/** Shorthand: run and expect a clean exit with the given value. */
void
expectExit(const std::string &source, int64_t expected)
{
    ExecResult result = runSource(source);
    ASSERT_EQ(result.status, ExecStatus::Ok);
    EXPECT_EQ(result.exitValue, expected) << source;
}

TEST(Interp, ReturnsConstant)
{
    expectExit("int main() { return 42; }", 42);
}

TEST(Interp, ArithmeticAndPrecedence)
{
    expectExit("int main() { return 2 + 3 * 4 - 6 / 2; }", 11);
}

TEST(Interp, SafeDivisionByZero)
{
    expectExit("int a = 7; int b = 0; int main() { return a / b; }", 7);
    expectExit("int a = 9; int b = 0; int main() { return a % b; }", 9);
}

TEST(Interp, SignedOverflowWraps)
{
    expectExit(
        "int a = 2147483647; int main() { return a + 1 == -2147483647 - 1; }",
        1);
}

TEST(Interp, NarrowingAssignmentWraps)
{
    expectExit("char c; int main() { c = 300; return c; }", 44);
    expectExit("char c; int main() { c = 200; return c; }", -56);
}

TEST(Interp, UnsignedComparison)
{
    expectExit("unsigned u = 0; int main() { return u - 1 > 100; }", 1);
}

TEST(Interp, ShiftSemantics)
{
    expectExit("int main() { int a = 1; return a << 33; }", 2);
    expectExit("int main() { int a = -8; return a >> 1; }", -4);
}

TEST(Interp, GlobalsInitializeAndPersist)
{
    expectExit(R"(
        int a = 5;
        void bump(void) { a += 2; }
        int main() { bump(); bump(); return a; }
    )",
               9);
}

TEST(Interp, LocalsZeroInitialized)
{
    expectExit("int main() { int x; return x; }", 0);
}

TEST(Interp, LoopsAccumulate)
{
    expectExit(R"(
        int main() {
            int g = 0;
            for (int f = 0; f < 10; f++) { g += f; }
            return g;
        }
    )",
               45);
}

TEST(Interp, WhileAndDoWhile)
{
    expectExit(R"(
        int main() {
            int n = 5, s = 0;
            while (n) { s += n; n--; }
            do { s++; } while (0);
            return s;
        }
    )",
               16);
}

TEST(Interp, BreakAndContinue)
{
    expectExit(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 10; i++) {
                if (i == 3) { continue; }
                if (i == 6) { break; }
                s += i;
            }
            return s;
        }
    )",
               0 + 1 + 2 + 4 + 5);
}

TEST(Interp, SwitchDispatch)
{
    expectExit(R"(
        int pick(int v) {
            int r = 0;
            switch (v) {
              case 1:
                r = 10;
                break;
              case 2:
                r = 20;
                break;
              default:
                r = 30;
                break;
            }
            return r;
        }
        int main() { return pick(1) + pick(2) + pick(9); }
    )",
               60);
}

TEST(Interp, ShortCircuitSkipsSideEffects)
{
    expectExit(R"(
        int calls = 0;
        int bump(void) { calls++; return 1; }
        int main() {
            int r = 0 && bump();
            r = r + (1 || bump());
            return calls * 10 + r;
        }
    )",
               1);
}

TEST(Interp, TernaryChoosesLazily)
{
    expectExit(R"(
        int calls = 0;
        int bump(void) { calls++; return 7; }
        int main() {
            int r = 1 ? 3 : bump();
            return calls * 10 + r;
        }
    )",
               3);
}

TEST(Interp, PointersReadAndWriteThrough)
{
    expectExit(R"(
        int c;
        int main() {
            int *g = &c;
            *g = 12;
            return c;
        }
    )",
               12);
}

TEST(Interp, PointerToPointer)
{
    expectExit(R"(
        int a = 3, *f, **d = &f;
        int main() {
            f = &a;
            **d = 9;
            return a;
        }
    )",
               9);
}

TEST(Interp, DistinctObjectsCompareUnequal)
{
    // The Listing-3 shape: &a == &b[1] must be false.
    expectExit(R"(
        char a;
        char b[2];
        int main() {
            char *c = &a;
            char *d = &b[1];
            return c == d;
        }
    )",
               0);
}

TEST(Interp, ArraysIndexAndAlias)
{
    expectExit(R"(
        int a[4] = {1, 2, 3, 4};
        int main() {
            int *p = &a[1];
            p[1] = 30; // writes a[2]
            return a[0] + a[2];
        }
    )",
               31);
}

TEST(Interp, PointerGlobalInitializer)
{
    expectExit(R"(
        static int a[2];
        static int *c = &a[1];
        int main() {
            *c = 5;
            return a[1];
        }
    )",
               5);
}

TEST(Interp, OutOfBoundsIsDefined)
{
    expectExit(R"(
        int a[2] = {1, 2};
        int main() {
            int i = 5;
            a[i] = 99;      // dropped
            return a[i];    // 0
        }
    )",
               0);
}

TEST(Interp, MarkerCallsAreTraced)
{
    ExecResult result = runSource(R"(
        void DCEMarker0(void);
        void DCEMarker1(void);
        int a = 1;
        int main() {
            if (a) { DCEMarker0(); }
            if (!a) { DCEMarker1(); }
            return 0;
        }
    )");
    ASSERT_EQ(result.status, ExecStatus::Ok);
    EXPECT_EQ(result.calledExternals.count("DCEMarker0"), 1u);
    EXPECT_EQ(result.calledExternals.count("DCEMarker1"), 0u);
    ASSERT_EQ(result.callTrace.size(), 1u);
    EXPECT_EQ(result.callTrace[0], "DCEMarker0");
}

TEST(Interp, TraceKeepsCallOrderAndMultiplicity)
{
    ExecResult result = runSource(R"(
        void M(void);
        int main() {
            for (int i = 0; i < 3; i++) { M(); }
            return 0;
        }
    )");
    ASSERT_EQ(result.status, ExecStatus::Ok);
    EXPECT_EQ(result.callTrace.size(), 3u);
}

TEST(Interp, InfiniteLoopTimesOut)
{
    DiagnosticEngine diags;
    auto unit = lang::parseAndCheck("int main() { while (1) { } return 0; }",
                                    diags);
    ASSERT_TRUE(unit != nullptr);
    auto module = ir::lowerToIr(*unit);
    ExecLimits limits;
    limits.maxSteps = 10000;
    ExecResult result = execute(*module, "main", limits);
    EXPECT_EQ(result.status, ExecStatus::Timeout);
}

TEST(Interp, RunawayRecursionTraps)
{
    ExecResult result = runSource(R"(
        int f(int n) { return f(n + 1); }
        int main() { return f(0); }
    )");
    EXPECT_TRUE(result.status == ExecStatus::Trap ||
                result.status == ExecStatus::Timeout);
}

TEST(Interp, FinalGlobalsCaptureExternalsOnly)
{
    ExecResult result = runSource(R"(
        int visible = 1;
        static int hidden = 2;
        int main() { visible = 10; hidden = 20; return 0; }
    )");
    ASSERT_EQ(result.status, ExecStatus::Ok);
    ASSERT_EQ(result.finalGlobals.count("visible"), 1u);
    EXPECT_EQ(result.finalGlobals.count("hidden"), 0u);
    EXPECT_EQ(result.finalGlobals.at("visible")[0].i, 10);
}

TEST(Interp, PaperListing1ComputesCorrectly)
{
    // Listing 1a without the printf; both ifs are dead.
    ExecResult result = runSource(R"(
        void DCECheck0(void);
        void DCECheck1(void);
        void DCECheck2(void);
        char a;
        char b[2];
        static int c = 0;
        int main() {
            char *d = &a;
            char *e = &b[1];
            if (d == e) {
                DCECheck0();
                int f = 0;
                int g = 0;
                for (; f < 10; f++) {
                    DCECheck1();
                    g += f;
                }
            }
            if (c) {
                DCECheck2();
                b[0] = 1;
                b[1] = 1;
            }
            c = 0;
            return 0;
        }
    )");
    ASSERT_EQ(result.status, ExecStatus::Ok);
    EXPECT_TRUE(result.callTrace.empty());
    EXPECT_EQ(result.exitValue, 0);
}

TEST(Interp, PaperListing8bComputesCorrectly)
{
    ExecResult result = runSource(R"(
        void dead(void);
        static long a = 78240;
        static int b, d;
        static short e;
        static short c(short f, short h) {
            return h == 0 || (f && h == 1) ? f : f % h;
        }
        int main() {
            short g = a;
            for (b = 0; b < 1; b++) {
                e = a;
                d = c((e == a) ^ g, a);
            }
            if (d) {
                dead();
                for (; a; a++) { }
            }
            return 0;
        }
    )");
    ASSERT_EQ(result.status, ExecStatus::Ok);
    EXPECT_TRUE(result.callTrace.empty()) << "dead() must not execute";
}

TEST(Interp, ObservablyEqualComparesTraces)
{
    ExecResult a = runSource(R"(
        void M(void);
        int main() { M(); return 1; }
    )");
    ExecResult b = runSource(R"(
        void M(void);
        int main() { M(); return 1; }
    )");
    ExecResult c = runSource(R"(
        void M(void);
        int main() { M(); M(); return 1; }
    )");
    EXPECT_TRUE(observablyEqual(a, b));
    EXPECT_FALSE(observablyEqual(a, c));
    EXPECT_FALSE(explainDifference(a, c).empty());
}

//===------------------------------------------------------------------===//
// Frames: recursion, parallel phi copies, and a moving frame stack
//===------------------------------------------------------------------===//

/** Run @p source at O0 and after alpha-O3 and beta-O3; every run must
 * exit cleanly with @p expected. */
void
expectExitAtEveryBuild(const std::string &source, int64_t expected)
{
    DiagnosticEngine diags;
    auto unit = lang::parseAndCheck(source, diags);
    ASSERT_TRUE(unit != nullptr) << diags.str();
    auto lowered = ir::lowerToIr(*unit);
    ExecResult base = execute(*lowered);
    ASSERT_EQ(base.status, ExecStatus::Ok);
    EXPECT_EQ(base.exitValue, expected);
    for (compiler::CompilerId id :
         {compiler::CompilerId::Alpha, compiler::CompilerId::Beta}) {
        compiler::Compiler comp(id, compiler::OptLevel::O3);
        compiler::Compilation result = comp.compileLowered(*lowered);
        ExecResult optimized = execute(result.module());
        ASSERT_EQ(optimized.status, ExecStatus::Ok) << comp.describe();
        EXPECT_EQ(optimized.exitValue, expected) << comp.describe();
    }
}

TEST(InterpFrames, RecursionKeepsEachDepthsValues)
{
    // `n * 3` is an SSA temporary evaluated before the recursive call
    // and read after it returns: every depth must see its own copy.
    expectExitAtEveryBuild(R"(
        int f(int n) {
            if (n <= 0) return 1;
            return n * 3 + f(n - 1) * 2 - n;
        }
        int main() { return f(6); }
    )",
                           [] {
                               int64_t v = 1;
                               for (int n = 1; n <= 6; ++n)
                                   v = n * 3 + v * 2 - n;
                               return v;
                           }());
}

TEST(InterpFrames, MutualRecursionReentersAtSeveralDepths)
{
    expectExitAtEveryBuild(R"(
        int odd(int n);
        int even(int n) { if (n == 0) return 1; return odd(n - 1); }
        int odd(int n) { if (n == 0) return 0; return even(n - 1) + 0; }
        int main() { return even(10) * 10 + odd(7); }
    )",
                           11);
}

TEST(InterpFrames, CallerValuesSurviveTheStackGrowing)
{
    // Each level holds many live temporaries across a deep call, so
    // the callee's frame push outgrows (and moves) the frame stack
    // while the caller still has values to read.
    expectExitAtEveryBuild(R"(
        int deep(int n, int k) {
            int a = n + k;
            int b = a * 2;
            int c = b - n;
            int d = c ^ a;
            if (n == 0) return d;
            return a + b + c + d + deep(n - 1, k + 1) - a - b - c;
        }
        int main() { return deep(100, 1); }
    )",
                           [] {
                               // deep(n, k) = d(n, k) + deep(n-1, k+1)
                               int64_t total = 0;
                               for (int n = 100, k = 1; n >= 0; --n, ++k) {
                                   int64_t a = n + k, b = a * 2,
                                           c = b - n, d = c ^ a;
                                   total += d;
                               }
                               return total;
                           }());
}

TEST(InterpFrames, PhisOnABackEdgeCopyInParallel)
{
    // loop: a = phi [1, entry], [b, loop]
    //       b = phi [2, entry], [a, loop]   -- a swap cycle
    //       i = phi [0, entry], [i1, loop]
    // Sequential copies would turn (a, b) into (2, 2) on the first
    // back edge; parallel ones swap them.
    ir::Module module;
    ir::Function *fn = module.addFunction("main", ir::IrType::i32(), false);
    ir::BasicBlock *entry = fn->addBlock("entry");
    ir::BasicBlock *loop = fn->addBlock("loop");
    ir::BasicBlock *exit = fn->addBlock("exit");
    ir::IrBuilder builder(module);
    builder.setInsertionBlock(entry);
    builder.br(loop);
    builder.setInsertionBlock(loop);
    ir::Instr *a = builder.phi(ir::IrType::i32());
    ir::Instr *b = builder.phi(ir::IrType::i32());
    ir::Instr *i = builder.phi(ir::IrType::i32());
    ir::Instr *next = builder.bin(ir::BinOp::Add, i, module.i32Const(1));
    ir::Instr *more =
        builder.cmp(ir::CmpPred::Slt, next, module.i32Const(4));
    builder.condBr(more, loop, exit);
    a->addIncoming(module.i32Const(1), entry);
    a->addIncoming(b, loop);
    b->addIncoming(module.i32Const(2), entry);
    b->addIncoming(a, loop);
    i->addIncoming(module.i32Const(0), entry);
    i->addIncoming(next, loop);
    builder.setInsertionBlock(exit);
    ir::Instr *tens = builder.bin(ir::BinOp::Mul, a, module.i32Const(10));
    builder.ret(builder.bin(ir::BinOp::Add, tens, b));
    ASSERT_TRUE(ir::verifyModule(module).ok())
        << ir::verifyModule(module).str();

    ExecResult result = execute(module);
    ASSERT_EQ(result.status, ExecStatus::Ok);
    // Four passes through the loop swap (1, 2) three times.
    EXPECT_EQ(result.exitValue, 21);
}

//===------------------------------------------------------------------===//
// Golden results: generated programs at O0 and O3 under three limits
//===------------------------------------------------------------------===//

/** FNV-1a over everything observable about one execution plus its
 * executed-block count. */
uint64_t
digestOf(const ExecResult &result)
{
    uint64_t hash = 14695981039346656037ull;
    auto byte = [&](unsigned char c) {
        hash ^= c;
        hash *= 1099511628211ull;
    };
    auto word = [&](uint64_t value) {
        for (int shift = 0; shift < 64; shift += 8)
            byte(static_cast<unsigned char>(value >> shift));
    };
    auto text = [&](const std::string &value) {
        word(value.size());
        for (char c : value)
            byte(static_cast<unsigned char>(c));
    };
    word(static_cast<uint64_t>(result.status));
    word(static_cast<uint64_t>(result.exitValue));
    word(result.steps);
    word(result.callTrace.size());
    for (const std::string &name : result.callTrace)
        text(name);
    word(result.calledExternals.size());
    for (const std::string &name : result.calledExternals)
        text(name);
    word(result.finalGlobals.size());
    for (const auto &[name, slots] : result.finalGlobals) {
        text(name);
        word(slots.size());
        for (const IValue &slot : slots) {
            word(slot.isPtr);
            word(static_cast<uint64_t>(slot.i));
            word(static_cast<uint64_t>(slot.p.obj));
            word(static_cast<uint64_t>(slot.p.index));
        }
    }
    word(result.executedBlocks.size());
    return hash;
}

constexpr uint64_t kGoldenFirstSeed = 6'000'000;
constexpr size_t kGoldenSeeds = 200;

/** The expected digests, recorded with the hash-map interpreter this
 * one replaced: per seed, per module (O0, alpha-O3, beta-O3), per
 * limit set (default, tiny, recordBlocks). */
constexpr uint64_t kGoldenDigests[] = {
#include "interp_golden.inc"
};

TEST(InterpGolden, GeneratedProgramsMatchRecordedResults)
{
    ExecLimits tiny;
    tiny.maxSteps = 500;
    tiny.maxCallDepth = 3;
    ExecLimits blocks;
    blocks.recordBlocks = true;
    const ExecLimits limit_sets[] = {ExecLimits{}, tiny, blocks};
    const char *limit_names[] = {"default", "tiny", "recordBlocks"};
    const char *module_names[] = {"O0", "alpha-O3", "beta-O3"};

    // Regeneration: DCE_INTERP_GOLDEN_OUT=<file> writes the table
    // instead of checking it. Only ever regenerate from a trusted
    // interpreter; the table is what the interpreter is checked by.
    const char *out_path = std::getenv("DCE_INTERP_GOLDEN_OUT");
    std::FILE *out = out_path ? std::fopen(out_path, "w") : nullptr;
    if (!out) {
        ASSERT_EQ(std::size(kGoldenDigests), kGoldenSeeds * 9);
    }

    size_t index = 0;
    for (uint64_t seed = kGoldenFirstSeed;
         seed < kGoldenFirstSeed + kGoldenSeeds; ++seed) {
        auto unit = gen::generateProgram(seed);
        instrument::Instrumented prog = instrument::instrumentUnit(*unit);
        auto lowered = ir::lowerToIr(*prog.unit);
        compiler::Compilation alpha =
            compiler::Compiler(compiler::CompilerId::Alpha,
                               compiler::OptLevel::O3)
                .compileLowered(*lowered);
        compiler::Compilation beta =
            compiler::Compiler(compiler::CompilerId::Beta,
                               compiler::OptLevel::O3)
                .compileLowered(*lowered);
        const ir::Module *modules[] = {lowered.get(), &alpha.module(),
                                       &beta.module()};
        for (size_t m = 0; m < 3; ++m) {
            for (size_t l = 0; l < 3; ++l, ++index) {
                ExecResult result =
                    execute(*modules[m], "main", limit_sets[l]);
                uint64_t digest = digestOf(result);
                if (out) {
                    std::fprintf(out, "0x%016llxull,%s",
                                 static_cast<unsigned long long>(digest),
                                 l == 2 ? "\n" : " ");
                    continue;
                }
                EXPECT_EQ(digest, kGoldenDigests[index])
                    << "seed " << seed << " " << module_names[m] << " "
                    << limit_names[l] << ": status "
                    << static_cast<int>(result.status) << ", exit "
                    << result.exitValue << ", steps " << result.steps;
            }
        }
    }
    if (out)
        std::fclose(out);
}

} // namespace
} // namespace dce::interp

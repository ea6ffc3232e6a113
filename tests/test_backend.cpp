/** @file Backend tests: phi demotion, assembly structure, and the
 * marker-preservation contract the whole methodology relies on. */
#include <gtest/gtest.h>

#include "backend/codegen.hpp"
#include "compiler/compiler.hpp"
#include "helpers.hpp"
#include "interp/interpreter.hpp"
#include "ir/lowering.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace dce::backend {
namespace {

using compiler::Compiler;
using compiler::CompilerId;
using compiler::OptLevel;
using dce::test::lowerOk;
using dce::test::parseOk;

TEST(Backend, CalledSymbolsScannerFindsCalls)
{
    std::string assembly = "main:\n"
                           "\tpushq %rbp\n"
                           "\tcall helper0\n"
                           "\tmovq %rax, %r8\n"
                           "\tcall DCEMarker3\n"
                           "\tleave\n\tret\n";
    std::set<std::string> symbols = calledSymbols(assembly);
    EXPECT_EQ(symbols,
              (std::set<std::string>{"helper0", "DCEMarker3"}));
    EXPECT_TRUE(containsCall(assembly, "helper0"));
    EXPECT_FALSE(containsCall(assembly, "helper1"));
}

TEST(Backend, DemotePhisRemovesAllPhis)
{
    // Optimize to produce phis, then demote.
    auto unit = parseOk(R"(
        int a;
        int main() {
            int b;
            if (a) { b = 2; } else { b = 3; }
            return b;
        }
    )");
    ASSERT_TRUE(unit);
    Compiler comp(CompilerId::Beta, OptLevel::O2);
    auto module = comp.compile(*unit).takeModule();

    interp::ExecResult before = interp::execute(*module);
    demotePhis(*module);
    ir::VerifyResult verify = ir::verifyModule(*module);
    EXPECT_TRUE(verify.ok()) << verify.str();
    for (const auto &fn : module->functions()) {
        for (const auto &block : fn->blocks()) {
            for (const auto &instr : block->instrs())
                EXPECT_NE(instr->opcode(), ir::Opcode::Phi);
        }
    }
    // Demotion must preserve behaviour.
    interp::ExecResult after = interp::execute(*module);
    EXPECT_TRUE(interp::observablyEqual(before, after))
        << interp::explainDifference(before, after);
}

TEST(Backend, DemotePhisHandlesSwapPattern)
{
    // Classic parallel-copy hazard: two phis exchanging values.
    auto unit = parseOk(R"(
        int n = 5;
        int main() {
            int a = 1, b = 2;
            while (n) {
                int t = a;
                a = b;
                b = t;
                n--;
            }
            return a * 10 + b;
        }
    )");
    ASSERT_TRUE(unit);
    Compiler comp(CompilerId::Beta, OptLevel::O2);
    auto module = comp.compile(*unit).takeModule();
    interp::ExecResult before = interp::execute(*module);
    ASSERT_EQ(before.status, interp::ExecStatus::Ok);
    demotePhis(*module);
    interp::ExecResult after = interp::execute(*module);
    EXPECT_TRUE(interp::observablyEqual(before, after))
        << interp::explainDifference(before, after);
    EXPECT_EQ(after.exitValue, before.exitValue);
}

TEST(Backend, AssemblyHasExpectedStructure)
{
    auto module = lowerOk(R"(
        int g = 3;
        static char h[2];
        int main() { return g; }
    )");
    ASSERT_TRUE(module);
    std::string assembly = emitAssembly(*module);
    EXPECT_NE(assembly.find("\t.data"), std::string::npos);
    EXPECT_NE(assembly.find("g:"), std::string::npos);
    EXPECT_NE(assembly.find("\t.globl g"), std::string::npos);
    // Internal globals are not exported.
    EXPECT_EQ(assembly.find(".globl h"), std::string::npos);
    EXPECT_NE(assembly.find("main:"), std::string::npos);
    EXPECT_NE(assembly.find("\tret"), std::string::npos);
}

TEST(Backend, MarkerPreservationContract)
{
    // The load-bearing property: a call instruction in the final IR
    // appears in the assembly exactly once per call site, and a
    // removed call leaves no trace.
    auto unit = parseOk(R"(
        void DCEMarker0(void);
        void DCEMarker1(void);
        static int a = 1;
        int main() {
            if (a) { DCEMarker0(); }
            if (!a) { DCEMarker1(); }
            return 0;
        }
    )");
    ASSERT_TRUE(unit);
    Compiler comp(CompilerId::Beta, OptLevel::O3);
    std::string assembly = emitAssembly(comp.compile(*unit).module());
    EXPECT_TRUE(containsCall(assembly, "DCEMarker0"));
    EXPECT_FALSE(containsCall(assembly, "DCEMarker1"));
}

TEST(Backend, DeadInternalFunctionsStillEmitWhenKept)
{
    // O0: nothing removes the uncalled static; its marker call must be
    // present in the assembly (that is why husk regressions matter).
    auto module = lowerOk(R"(
        void DCEMarker0(void);
        static void never(void) { DCEMarker0(); }
        int main() { return 0; }
    )");
    ASSERT_TRUE(module);
    std::string assembly = emitAssembly(*module);
    EXPECT_TRUE(containsCall(assembly, "DCEMarker0"));
    EXPECT_NE(assembly.find("never:"), std::string::npos);
}

} // namespace
} // namespace dce::backend

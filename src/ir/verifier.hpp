/**
 * @file
 * Structural and SSA well-formedness checking. Run after lowering and
 * after every optimization pass in checked builds/tests, keeping 20+
 * passes honest: type agreement, terminator discipline, phi/predecessor
 * consistency, use-list integrity, defs dominating uses, and (module
 * level) unique value ids.
 */
#pragma once

#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace dce::ir {

/** Result of verification; empty errors = valid. */
struct VerifyResult {
    std::vector<std::string> errors;

    bool ok() const { return errors.empty(); }
    std::string str() const;
};

VerifyResult verifyModule(const Module &module);
VerifyResult verifyFunction(const Function &fn);

} // namespace dce::ir

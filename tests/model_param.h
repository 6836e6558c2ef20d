// Shared pieces of the suites parameterized by `const oemu::MemoryModel*`.
//
// gtest prints a pointer parameter as its address, which ASLR moves on every
// start, so the `# GetParam() = ...` part of each ctest name changed from run
// to run. PrintTo prints the model's name instead, the way tests/scenarios.h
// prints a Scenario, so the names stay the same from build to build.
#ifndef OZZ_TESTS_MODEL_PARAM_H_
#define OZZ_TESTS_MODEL_PARAM_H_

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "src/oemu/memory_model.h"

namespace ozz::oemu {

inline void PrintTo(const MemoryModel* model, std::ostream* os) { *os << model->name(); }

// Test-name suffix for INSTANTIATE_TEST_SUITE_P: the model's name.
inline std::string ModelParamName(const ::testing::TestParamInfo<const MemoryModel*>& info) {
  return info.param->name();
}

}  // namespace ozz::oemu

#endif  // OZZ_TESTS_MODEL_PARAM_H_

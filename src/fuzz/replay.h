// Crash-report serialization and replay.
//
// OZZ's reports are replayable: a crash is fully determined by (program,
// concurrent pair, scheduling hint). This module serializes an MtiSpec to a
// stable text format and reconstructs it in a fresh process. Instruction
// identities are serialized as source positions (file:line#occurrence) —
// InstrIds are process-local, but call sites are stable — and re-resolved by
// profiling the program once on load.
//
// Format (one item per line, '#' comments allowed):
//   call <name> <arg>...            -- args: literal ints or rN (result refs)
//   pair <a> <b>                    -- indices of the concurrent calls
//                                      (<a> <a> for an irq test)
//   test store|load|irq             -- hypothetical barrier test type, or an
//                                      interrupt injected at the sched point
//   sched <file>:<line>#<occ> before|after
//   reorder <file>:<line>#<occ>     -- none for an irq test
#ifndef OZZ_SRC_FUZZ_REPLAY_H_
#define OZZ_SRC_FUZZ_REPLAY_H_

#include <string>

#include "src/fuzz/executor.h"
#include "src/osk/syscall.h"

namespace ozz::fuzz {

std::string SerializeMtiSpec(const MtiSpec& spec);

// Parses `text` against `table` (for syscall names) and re-resolves the
// hint's source positions by profiling the parsed program under `config`.
// Returns false (with *error set) on malformed input or unresolvable
// positions.
bool ParseMtiSpec(const std::string& text, const osk::SyscallTable& table,
                  const osk::KernelConfig& config, MtiSpec* spec, std::string* error);

}  // namespace ozz::fuzz

#endif  // OZZ_SRC_FUZZ_REPLAY_H_

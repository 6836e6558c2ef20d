// Coverage-guided corpus (§4.2): programs that contributed new instruction
// coverage are kept and later mutated, the standard syzkaller loop.
#ifndef OZZ_SRC_FUZZ_CORPUS_H_
#define OZZ_SRC_FUZZ_CORPUS_H_

#include <set>
#include <vector>

#include "src/base/rng.h"
#include "src/fuzz/syslang.h"

namespace ozz::fuzz {

class Corpus {
 public:
  // Adds `prog` if its coverage contains instructions never seen before.
  // Returns true when the program was kept.
  bool Add(Prog prog, const std::set<InstrId>& coverage);

  bool empty() const { return progs_.empty(); }
  std::size_t size() const { return progs_.size(); }
  std::size_t coverage_size() const { return covered_.size(); }

  // Uniform pick.
  const Prog& Pick(base::Rng& rng) const;

 private:
  std::vector<Prog> progs_;
  std::set<InstrId> covered_;
};

}  // namespace ozz::fuzz

#endif  // OZZ_SRC_FUZZ_CORPUS_H_

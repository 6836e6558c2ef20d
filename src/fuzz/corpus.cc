#include "src/fuzz/corpus.h"

#include "src/base/check.h"

namespace ozz::fuzz {

bool Corpus::Add(Prog prog, const std::set<InstrId>& coverage) {
  bool fresh = false;
  for (InstrId id : coverage) {
    if (covered_.insert(id).second) {
      fresh = true;
    }
  }
  if (fresh) {
    progs_.push_back(std::move(prog));
  }
  return fresh;
}

const Prog& Corpus::Pick(base::Rng& rng) const {
  OZZ_CHECK(!progs_.empty());
  return progs_[static_cast<std::size_t>(rng.Below(progs_.size()))];
}

}  // namespace ozz::fuzz

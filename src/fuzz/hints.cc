#include "src/fuzz/hints.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/axiomatic.h"
#include "src/obs/prof.h"
#include "src/oemu/instr.h"

namespace ozz::fuzz {
namespace {

bool RangesOverlap(uptr a, u32 asz, uptr b, u32 bsz) {
  return a < b + bsz && b < a + asz;
}

DynAccess ToDyn(const oemu::Event& e) {
  return DynAccess{e.instr, e.occurrence, e.access};
}

analysis::AccessKey ToKey(const DynAccess& d) {
  return analysis::AccessKey{d.instr, d.occurrence, d.type};
}

// A hint is provably a no-op when every reorder member is proven: for the
// store test each delay-store spec either cannot take effect (undelayable)
// or cannot be observed (coherence/lockset); likewise for read-old specs in
// the load test. An MTI run of such a hint degenerates to the plain in-order
// interleaving, which the fuzzer covers anyway.
bool HintProvenNoop(const analysis::PairAnalysis& pa, const SchedHint& h) {
  for (const DynAccess& m : h.reorder) {
    bool proven = h.store_test ? pa.StoreMemberProven(ToKey(m), ToKey(h.sched))
                               : pa.LoadMemberProven(ToKey(h.sched), ToKey(m));
    if (!proven) {
      return false;
    }
  }
  return !h.reorder.empty();
}

// Second-tier prune: bounded model checking of the reorder pairs the static
// proofs left open. A delay-store spec moves the member's commit past every
// access between it and the scheduling point (where the observer runs), and
// a read-old spec moves the member's read up to the window start right
// before the scheduling point — so a member is discharged only when EVERY
// pair it forms across that interval is statically proven (tier 1 on) or
// refuted exactly by the axiomatic engine. A bounded-out verdict never
// discharges. Hints whose members are all discharged are dropped; hints
// containing a witnessed pair are flagged so the sort schedules them first.
// Verdicts are memoized per trace-index pair within one ComputeHints call —
// hints of one group share most of their pairs.
void PruneAxiomatic(const analysis::PairAnalysis& pa, const HintOptions& options,
                    std::vector<SchedHint>* hints, HintStats* stats) {
  analysis::AxOptions ax;
  // Candidate executions per pair check: the fuzzer hot path uses a tight
  // budget (ozz_analyze and the benches use more).
  ax.max_executions = 4096;
  std::map<std::pair<std::size_t, std::size_t>, analysis::AxVerdict> memo;
  auto check = [&](std::size_t fi, std::size_t si) {
    auto [it, fresh] =
        memo.try_emplace(std::make_pair(fi, si), analysis::AxVerdict::kBoundedOut);
    if (fresh) {
      analysis::AxSlice slice;
      std::string reason;
      if (analysis::BuildSlice(pa, fi, si, ax, &slice, &reason)) {
        it->second = analysis::CheckSlice(slice, ax).verdict;
      }
      if (stats != nullptr) {
        switch (it->second) {
          case analysis::AxVerdict::kWitnessed:
            stats->pairs_witnessed++;
            break;
          case analysis::AxVerdict::kRefutedExact:
            stats->pairs_refuted++;
            break;
          case analysis::AxVerdict::kBoundedOut:
            stats->pairs_bounded++;
            break;
        }
      }
    }
    return it->second;
  };

  const oemu::Trace& trace = pa.reorder_trace();
  std::size_t kept = 0;
  std::size_t before = hints->size();
  for (SchedHint& h : *hints) {
    auto is_member = [&h](const oemu::Event& e) {
      for (const DynAccess& m : h.reorder) {
        if (m.instr == e.instr && m.occurrence == e.occurrence) {
          return true;
        }
      }
      return false;
    };
    bool all_discharged = !h.reorder.empty();
    std::ptrdiff_t sched_idx = pa.EventIndexOf(ToKey(h.sched));
    for (const DynAccess& m : h.reorder) {
      std::ptrdiff_t member_idx = pa.EventIndexOf(ToKey(m));
      bool discharged = member_idx >= 0 && sched_idx >= 0;
      if (discharged) {
        // po interval the member moves across: (member, sched] for the store
        // test (delay), [sched, member) for the load test (read-old).
        std::size_t lo = static_cast<std::size_t>(h.store_test ? member_idx : sched_idx);
        std::size_t hi = static_cast<std::size_t>(h.store_test ? sched_idx : member_idx);
        if (lo >= hi) {
          discharged = false;  // inverted order: never prune
        }
        // Scan the whole interval even once discharge fails: a witnessed
        // pair anywhere must still flag the hint for ranking.
        for (std::size_t k = lo + 1; k <= hi && (discharged || !h.witnessed); ++k) {
          std::size_t fi = h.store_test ? lo : k - 1;
          std::size_t si = h.store_test ? k : hi;
          if (fi == si || !trace[h.store_test ? si : fi].IsAccess()) {
            continue;
          }
          // Fellow reorder members keep their relative order (the store
          // buffer drains in FIFO order; read-old loads share one window),
          // so member-vs-member pairs cannot invert.
          if (is_member(trace[h.store_test ? si : fi])) {
            continue;
          }
          if (options.static_prune) {
            bool proven = h.store_test
                              ? pa.ClassifyStorePair(fi, si) != analysis::OrderEdge::kNone
                              : pa.ClassifyLoadPair(fi, si) != analysis::OrderEdge::kNone;
            if (proven) {
              continue;
            }
          }
          switch (check(fi, si)) {
            case analysis::AxVerdict::kWitnessed:
              h.witnessed = true;
              discharged = false;
              break;
            case analysis::AxVerdict::kRefutedExact:
              break;
            case analysis::AxVerdict::kBoundedOut:
              discharged = false;
              break;
          }
        }
      }
      if (!discharged) {
        all_discharged = false;
      }
    }
    if (!all_discharged || h.witnessed) {
      if (&(*hints)[kept] != &h) {  // guard the self-move when nothing was pruned yet
        (*hints)[kept] = std::move(h);
      }
      kept++;
    }
  }
  hints->resize(kept);
  if (stats != nullptr) {
    stats->hints_pruned_axiomatic += before - kept;
  }
}

}  // namespace

std::string SchedHint::ToString() const {
  std::ostringstream os;
  if (irq_test) {
    os << "irq-injection-test fire@" << oemu::InstrRegistry::Describe(sched.instr) << "#"
       << sched.occurrence;
    return os.str();
  }
  os << (store_test ? "store-barrier-test" : "load-barrier-test") << " sched@"
     << oemu::InstrRegistry::Describe(sched.instr) << "#" << sched.occurrence << " reorder{";
  for (std::size_t i = 0; i < reorder.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << oemu::InstrRegistry::Describe(reorder[i].instr) << "#" << reorder[i].occurrence;
  }
  os << "}";
  if (suffix_shape) {
    os << " [suffix]";
  }
  return os.str();
}

std::vector<SchedHint> ComputeIrqHints(const oemu::Trace& trace, std::size_t max_hints) {
  std::vector<SchedHint> hints;
  for (const oemu::Event& ev : trace) {
    if (!ev.IsAccess()) {
      continue;
    }
    if (hints.size() >= max_hints) {
      break;
    }
    SchedHint hint;
    hint.irq_test = true;
    hint.store_test = ev.access == oemu::AccessType::kStore;
    hint.sched.instr = ev.instr;
    hint.sched.occurrence = ev.occurrence;
    hint.sched.type = ev.access;
    hint.sched_phase = rt::SwitchWhen::kAfterAccess;
    hints.push_back(std::move(hint));
  }
  return hints;
}

// Algorithm 2 (filter_out): keep only accesses to ranges that both syscalls
// touch with at least one store; a memory access that never races cannot
// contribute to an OOO bug.
oemu::Trace FilterShared(const oemu::Trace& trace, const oemu::Trace& other) {
  struct Range {
    uptr addr;
    u32 size;
  };
  std::vector<Range> shared;
  for (const oemu::Event& a : trace) {
    if (!a.IsAccess()) {
      continue;
    }
    for (const oemu::Event& b : other) {
      if (!b.IsAccess()) {
        continue;
      }
      if (!a.IsStore() && !b.IsStore()) {
        continue;  // two loads never race
      }
      if (RangesOverlap(a.addr, a.size, b.addr, b.size)) {
        shared.push_back(Range{a.addr, a.size});
        break;
      }
    }
  }
  oemu::Trace out;
  for (const oemu::Event& e : trace) {
    if (e.IsBarrier()) {
      out.push_back(e);
      continue;
    }
    if (!e.IsAccess()) {
      continue;  // commits are irrelevant to hint construction
    }
    for (const Range& r : shared) {
      if (RangesOverlap(e.addr, e.size, r.addr, r.size)) {
        out.push_back(e);
        break;
      }
    }
  }
  return out;
}

std::vector<SchedHint> ComputeHints(const oemu::Trace& reorder_trace,
                                    const oemu::Trace& other_trace,
                                    const HintOptions& options, HintStats* stats) {
  obs::PhaseTimer phase_timer(obs::Phase::kHintCompute);
  const oemu::MemoryModel& model = oemu::MemoryModel::Resolve(options.model);
  const oemu::Trace filtered = FilterShared(reorder_trace, other_trace);
  std::vector<SchedHint> hints;

  for (int pass = 0; pass < 2; ++pass) {
    const bool store_test = pass == 0;
    if ((store_test && !options.store_tests) || (!store_test && !options.load_tests)) {
      continue;
    }
    // A model that never emulates the tested reordering class makes every
    // hint of this pass a guaranteed no-op — the specs are inert under it.
    if (store_test ? !model.StoresDelayable() : !model.LoadsVersionable()) {
      continue;
    }
    // Step 2: group accesses between barriers of the tested type.
    std::vector<std::vector<oemu::Event>> groups;
    std::vector<oemu::Event> group;
    for (const oemu::Event& e : filtered) {
      if (e.IsAccess()) {
        group.push_back(e);
        continue;
      }
      oemu::BarrierClass cls = model.EffectOf(e.barrier);
      const bool splits = store_test ? cls.orders_stores : cls.orders_loads;
      if (splits && !group.empty()) {
        groups.push_back(std::move(group));
        group.clear();
      }
    }
    if (!group.empty()) {
      groups.push_back(std::move(group));
    }

    // Step 3: hints per group.
    for (const std::vector<oemu::Event>& g : groups) {
      if (g.size() < 2) {
        continue;
      }
      if (store_test) {
        // The reorderable accesses are the group's stores; the scheduling
        // point is the group's last access (switch after it — right before
        // the actual barrier, Fig. 5a).
        std::vector<oemu::Event> stores;
        for (const oemu::Event& e : g) {
          if (e.IsStore()) {
            stores.push_back(e);
          }
        }
        if (stores.empty()) {
          continue;
        }
        // Exclude the final store from reorder sets when it is also the
        // scheduling point (it must commit so the observer sees the
        // "overtaking" access).
        std::size_t n = stores.size();
        bool last_is_sched = stores.back().instr == g.back().instr &&
                             stores.back().occurrence == g.back().occurrence;
        std::size_t delayable = last_is_sched ? n - 1 : n;
        if (delayable == 0) {
          continue;
        }
        SchedHint base;
        base.store_test = true;
        base.sched = ToDyn(g.back());
        base.sched_phase = rt::SwitchWhen::kAfterAccess;
        // Prefixes (the paper's moving hypothetical barrier).
        for (std::size_t k = delayable; k >= 1; --k) {
          SchedHint h = base;
          for (std::size_t i = 0; i < k; ++i) {
            h.reorder.push_back(ToDyn(stores[i]));
          }
          hints.push_back(std::move(h));
        }
        // Suffixes (extension: non-FIFO store buffer drained a prefix).
        if (options.suffix_store_hints) {
          for (std::size_t k = 1; k < delayable; ++k) {
            SchedHint h = base;
            h.suffix_shape = true;
            for (std::size_t i = k; i < delayable; ++i) {
              h.reorder.push_back(ToDyn(stores[i]));
            }
            hints.push_back(std::move(h));
          }
        }
      } else {
        // Load test: scheduling point is the group's first access (switch
        // before it — right after the actual barrier, Fig. 5b); reorder sets
        // are suffixes of the group's loads.
        std::vector<oemu::Event> loads;
        for (const oemu::Event& e : g) {
          if (e.IsLoad()) {
            loads.push_back(e);
          }
        }
        if (loads.size() < 2) {
          continue;
        }
        SchedHint base;
        base.store_test = false;
        base.sched = ToDyn(g.front());
        base.sched_phase = rt::SwitchWhen::kBeforeAccess;
        for (std::size_t k = 1; k < loads.size(); ++k) {
          SchedHint h = base;
          for (std::size_t i = k; i < loads.size(); ++i) {
            h.reorder.push_back(ToDyn(loads[i]));
          }
          hints.push_back(std::move(h));
        }
      }
    }
  }

  // Prune tiers (and their accounting). The analysis runs on the raw traces:
  // lock events and commit adjacency are stripped by FilterShared.
  if (options.static_prune || options.axiomatic_prune || stats != nullptr) {
    analysis::PairAnalysis pa(reorder_trace, other_trace, &model);
    if (stats != nullptr) {
      stats->hints_generated += hints.size();
      stats->pairs.Add(pa.ComputeStats());
    }
    if (options.static_prune) {
      obs::PhaseTimer prune_timer(obs::Phase::kStaticPrune);
      std::size_t before = hints.size();
      std::erase_if(hints, [&pa](const SchedHint& h) { return HintProvenNoop(pa, h); });
      if (stats != nullptr) {
        stats->hints_pruned_static += before - hints.size();
      }
    }
    if (options.axiomatic_prune) {
      obs::PhaseTimer axiomatic_timer(obs::Phase::kAxiomatic);
      PruneAxiomatic(pa, options, &hints, stats);
    }
  }

  // The search heuristic: witnessed hints first (the axiomatic engine proved
  // the inversion observable), then the hints that deviate most from
  // sequential order (largest reorder set first); stable within equal keys.
  std::stable_sort(hints.begin(), hints.end(), [](const SchedHint& a, const SchedHint& b) {
    if (a.witnessed != b.witnessed) {
      return a.witnessed;
    }
    return a.reorder.size() > b.reorder.size();
  });
  if (hints.size() > options.max_hints) {
    hints.resize(options.max_hints);
  }
  return hints;
}

}  // namespace ozz::fuzz

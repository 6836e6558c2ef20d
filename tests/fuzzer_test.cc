// End-to-end tests for the OZZ pipeline (§4): profiling, hint calculation,
// MTI execution, and bug discovery on the canonical scenarios.
#include "src/fuzz/fuzzer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/base/log.h"
#include "src/fuzz/profile.h"

namespace ozz::fuzz {
namespace {

FuzzerOptions OptionsFor(const std::string& subsystem_seed, osk::KernelConfig config = {}) {
  FuzzerOptions options;
  options.seed = 12345;
  options.max_mti_runs = 2000;
  options.stop_after_bugs = 1;
  options.kernel_config = std::move(config);
  (void)subsystem_seed;
  return options;
}

CampaignResult HuntIn(const std::string& subsystem, osk::KernelConfig config = {},
                      bool reordering = true) {
  FuzzerOptions options = OptionsFor(subsystem, std::move(config));
  options.reordering = reordering;
  Fuzzer fuzzer(options);
  Prog seed = SeedProgramFor(fuzzer.table(), subsystem);
  return fuzzer.RunProg(seed);
}

TEST(FuzzerTest, FindsWatchQueueStoreBug) {
  CampaignResult result = HuntIn("watch_queue");
  ASSERT_EQ(result.bugs.size(), 1u);
  EXPECT_NE(result.bugs[0].report.title.find("pipe_read"), std::string::npos)
      << result.bugs[0].report.title;
  EXPECT_EQ(result.bugs[0].report.subsystem, "watch_queue");
}

TEST(FuzzerTest, WatchQueueBugInvisibleInOrder) {
  CampaignResult result = HuntIn("watch_queue", {}, /*reordering=*/false);
  EXPECT_TRUE(result.bugs.empty())
      << "an interleaving-only fuzzer must not see the OOO bug: "
      << result.bugs[0].report.title;
}

TEST(FuzzerTest, WatchQueueFixedKernelIsClean) {
  osk::KernelConfig config;
  config.fixed.insert("watch_queue");
  CampaignResult result = HuntIn("watch_queue", config);
  EXPECT_TRUE(result.bugs.empty()) << result.bugs[0].report.title;
}

TEST(FuzzerTest, FindsTlsSetsockoptBug) {
  CampaignResult result = HuntIn("tls");
  ASSERT_EQ(result.bugs.size(), 1u);
  EXPECT_NE(result.bugs[0].report.title.find("tls_setsockopt"), std::string::npos)
      << result.bugs[0].report.title;
}

TEST(FuzzerTest, FindsRdsCustomLockBug) {
  CampaignResult result = HuntIn("rds");
  ASSERT_EQ(result.bugs.size(), 1u);
  EXPECT_NE(result.bugs[0].report.title.find("rds_loop_xmit"), std::string::npos)
      << result.bugs[0].report.title;
}

TEST(FuzzerTest, ReportsHypotheticalBarrier) {
  CampaignResult result = HuntIn("watch_queue");
  ASSERT_EQ(result.bugs.size(), 1u);
  const BugReport& report = result.bugs[0].report;
  EXPECT_FALSE(report.hypothetical_barrier.empty());
  EXPECT_FALSE(report.reordered_accesses.empty());
  EXPECT_NE(FormatBugReport(report).find("hypothetical barrier"), std::string::npos);
}

TEST(FuzzerTest, CampaignOverSeedsFindsMultipleBugs) {
  FuzzerOptions options;
  options.seed = 7;
  options.max_mti_runs = 4000;
  options.stop_after_bugs = 5;
  Fuzzer fuzzer(options);
  CampaignResult result = fuzzer.Run();
  EXPECT_GE(result.bugs.size(), 3u);
  EXPECT_GT(result.coverage, 0u);
}

// FNV-1a over the ordered (title, found_at_test) discovery list.
u64 DiscoveryHash(const CampaignResult& result) {
  u64 hash = 14695981039346656037ull;
  auto mix = [&](const std::string& text) {
    for (unsigned char c : text) {
      hash = (hash ^ c) * 1099511628211ull;
    }
  };
  for (const FoundBug& bug : result.bugs) {
    mix(bug.report.title);
    mix("@" + std::to_string(bug.found_at_test) + "\n");
  }
  return hash;
}

std::string Fingerprint(u64 seed, const CampaignResult& r) {
  std::ostringstream os;
  os << "{" << seed << ", " << r.mti_runs << ", " << r.sti_runs << ", "
     << r.hint_stats.hints_generated << ", " << r.hint_stats.hints_pruned_static << ", "
     << r.hint_stats.hints_pruned_axiomatic << ", " << r.corpus_size << ", " << r.coverage
     << ", 0x" << std::hex << DiscoveryHash(r) << "ull}";
  return os.str();
}

// Pins the experiment stream: which MTIs a campaign runs, in which order,
// and what they find. A change to the campaign loop, the corpus, hint
// calculation or the prune tiers that moves any of these rows changes the
// experiments themselves, not just their speed. Rows are
// {seed, mti_runs, sti_runs, hints_generated, pruned_static,
// pruned_axiomatic, corpus_size, coverage, discovery hash}; a failure
// prints the new row.
TEST(FuzzerTest, CampaignFingerprint) {
  struct Variant {
    const char* model;
    bool seed_programs;
    const char* golden[10];  // seeds 1..10
  };
  const Variant variants[] = {
      {"lkmm", true,
       {
           "{1, 300, 54, 390, 141, 29, 24, 188, 0x328e9d87ca0da882ull}",
           "{2, 300, 64, 417, 130, 24, 24, 188, 0xe451f98155632b34ull}",
           "{3, 300, 85, 437, 103, 52, 24, 188, 0xa0fd3b08e47f9841ull}",
           "{4, 300, 65, 393, 88, 29, 24, 188, 0xa0fd3b08e47f9841ull}",
           "{5, 300, 76, 364, 141, 15, 24, 188, 0x170b678171c3ba28ull}",
           "{6, 300, 95, 423, 151, 25, 24, 188, 0x5d7ed98199fec73full}",
           "{7, 300, 61, 434, 121, 25, 24, 188, 0xa0fd3b08e47f9841ull}",
           "{8, 300, 64, 433, 174, 21, 24, 188, 0x700ddc87ed2145ccull}",
           "{9, 300, 77, 382, 82, 18, 24, 188, 0xa0fd3b08e47f9841ull}",
           "{10, 300, 80, 376, 129, 18, 24, 188, 0x89379987fb263ddfull}",
       }},
      {"armv8x", false,
       {
           "{1, 300, 55, 488, 270, 12, 16, 67, 0x929c9fc594ed6bcaull}",
           "{2, 300, 127, 418, 92, 26, 29, 132, 0x91296fb0c76e70d8ull}",
           "{3, 300, 88, 486, 161, 24, 27, 120, 0x1f088315d927ca56ull}",
           "{4, 300, 102, 532, 306, 12, 26, 113, 0x5acf3532309fa360ull}",
           "{5, 300, 119, 415, 165, 28, 32, 146, 0x32e72dad9ab05329ull}",
           "{6, 300, 81, 449, 101, 53, 20, 109, 0x7b70b72e975fb503ull}",
           "{7, 300, 82, 482, 245, 19, 22, 99, 0x8dbd225ae2ff74beull}",
           "{8, 300, 62, 576, 304, 25, 19, 104, 0x3a504ed9807a13dull}",
           "{9, 300, 135, 619, 360, 15, 31, 136, 0xe81a907fe4f84597ull}",
           "{10, 300, 82, 382, 168, 3, 24, 123, 0xf2c046ea0077ad68ull}",
       }},
  };
  for (const Variant& v : variants) {
    for (u64 seed = 1; seed <= 10; ++seed) {
      FuzzerOptions options;
      options.seed = seed;
      options.max_mti_runs = 300;
      options.model = oemu::MemoryModel::ByName(v.model);
      options.use_seed_programs = v.seed_programs;
      Fuzzer fuzzer(options);
      EXPECT_EQ(Fingerprint(seed, fuzzer.Run()), v.golden[seed - 1]) << v.model;
    }
  }
}

}  // namespace
}  // namespace ozz::fuzz

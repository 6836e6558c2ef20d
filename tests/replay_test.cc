// Tests for crash-spec serialization and replay.
#include "src/fuzz/replay.h"

#include <gtest/gtest.h>

#include "src/base/number.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/profile.h"

namespace ozz::fuzz {
namespace {

class ReplayTest : public ::testing::Test {
 protected:
  // Finds the canonical watch_queue crash and returns its spec. The program
  // borrows descriptors, so it is built against the long-lived TemplateKernel.
  MtiSpec FindCrashSpec() {
    Prog seed = SeedProgramFor(TemplateKernel().table(), "watch_queue");
    ProgProfile profile = ProfileProg(seed, {});
    std::vector<SchedHint> hints =
        ComputeHints(profile.calls[0].trace, profile.calls[1].trace, HintOptions{});
    for (const SchedHint& hint : hints) {
      MtiSpec spec;
      spec.prog = seed;
      spec.call_a = 0;
      spec.call_b = 1;
      spec.hint = hint;
      if (RunMti(spec).crashed) {
        return spec;
      }
    }
    ADD_FAILURE() << "no crashing hint found";
    return MtiSpec{};
  }

  osk::Kernel& TemplateKernel() {
    static osk::Kernel* kernel = [] {
      auto* k = new osk::Kernel();
      osk::InstallDefaultSubsystems(*k);
      return k;
    }();
    return *kernel;
  }
};

TEST_F(ReplayTest, RoundTripReproducesTheCrash) {
  MtiSpec original = FindCrashSpec();
  std::string text = SerializeMtiSpec(original);
  EXPECT_NE(text.find("call wq$post"), std::string::npos) << text;
  EXPECT_NE(text.find("pair 0 1"), std::string::npos);
  EXPECT_NE(text.find("sched watch_queue.cc:"), std::string::npos);

  MtiSpec replayed;
  std::string error;
  ASSERT_TRUE(ParseMtiSpec(text, TemplateKernel().table(), {}, &replayed, &error)) << error;
  MtiResult result = RunMti(replayed);
  ASSERT_TRUE(result.crashed) << "replayed spec must reproduce the crash";
  EXPECT_NE(result.crash.title.find("pipe_read"), std::string::npos) << result.crash.title;
}

TEST_F(ReplayTest, SerializedFormIsStableText) {
  MtiSpec spec = FindCrashSpec();
  EXPECT_EQ(SerializeMtiSpec(spec), SerializeMtiSpec(spec));
}

TEST_F(ReplayTest, RejectsUnknownSyscall) {
  MtiSpec spec;
  std::string error;
  EXPECT_FALSE(ParseMtiSpec("call nope$nope\npair 0 1\n", TemplateKernel().table(), {}, &spec,
                            &error));
  EXPECT_NE(error.find("unknown syscall"), std::string::npos);
}

TEST_F(ReplayTest, RejectsBadPair) {
  std::string text = "call wq$post 1\ncall wq$read\npair 0 0\n";
  MtiSpec spec;
  std::string error;
  EXPECT_FALSE(ParseMtiSpec(text, TemplateKernel().table(), {}, &spec, &error));
}

TEST_F(ReplayTest, RejectsUnreachablePosition) {
  std::string text =
      "call wq$post 1\ncall wq$read\npair 0 1\ntest store\nsched nowhere.cc:1#1 after\n";
  MtiSpec spec;
  std::string error;
  EXPECT_FALSE(ParseMtiSpec(text, TemplateKernel().table(), {}, &spec, &error));
  EXPECT_NE(error.find("not reached"), std::string::npos);
}

TEST_F(ReplayTest, CommentsAndArityChecked) {
  std::string text = "# comment\ncall wq$post\n";  // wq$post takes 1 arg
  MtiSpec spec;
  std::string error;
  EXPECT_FALSE(ParseMtiSpec(text, TemplateKernel().table(), {}, &spec, &error));
  EXPECT_NE(error.find("arity"), std::string::npos);
}

// Every malformed spec is rejected with an error naming its line (0: the
// spec as a whole), never read as something else and never an abort.
TEST_F(ReplayTest, RejectsMalformedSpecLines) {
  const std::string calls = "call wq$post 1\ncall wq$read\n";  // lines 1-2
  const struct {
    std::string text;
    std::string error;
  } cases[] = {
      {"call wq$post 1x\n", "line 1: malformed argument 1x"},
      {"call wq$post 1\ncall wq$read r\n", "line 2: malformed argument r"},
      {calls + "pair 0 1x\n", "line 3: malformed pair"},
      {calls + "pair 0\n", "line 3: missing operand for pair"},
      {calls + "pair 0 1 2\n", "line 3: trailing token 2"},
      {calls + "pair 0 1\ntest stroe\n", "line 4: unknown test stroe (store, load or irq)"},
      {calls + "pair 0 1\ntest store load\n", "line 4: trailing token load"},
      {calls + "pair 0 1\ntest store\nsched watch_queue.cc:84#x after\n",
       "line 5: malformed position watch_queue.cc:84#x"},
      {calls + "pair 0 1\ntest store\nsched watch_queue.cc:84#1\n",
       "line 5: missing operand for sched"},
      {calls + "pair 0 1\ntest store\nsched watch_queue.cc:84#1 later\n",
       "line 5: unknown sched phase later (before or after)"},
      {calls + "pair 0 1\ntest store\nsched watch_queue.cc:84#1 after now\n",
       "line 5: trailing token now"},
      {calls + "pair 0 1\ntest store\nreorder watch_queue.cc:84#1 extra\n",
       "line 5: trailing token extra"},
      {calls + "pair 0 1\nbarrier\n", "line 4: unknown directive barrier"},
      {calls + "pair 0 1\ntest store\n", "spec needs calls, a pair and a sched position"},
      {calls + "pair 0 2\nsched nowhere.cc:1#1 after\n", "line 3: pair indices out of range"},
      {calls + "pair 0 0\ntest store\nsched nowhere.cc:1#1 after\n",
       "line 3: pair needs two distinct calls"},
      {calls + "pair 0 1\ntest irq\nsched nowhere.cc:1#1 after\n",
       "line 3: an irq test pairs a call with itself"},
      {calls + "pair 0 0\ntest irq\nreorder nowhere.cc:1#1\nsched nowhere.cc:1#1 after\n",
       "line 5: an irq test has no reorder set"},
      {calls + "# comment\npair 0 1\ntest store\nsched nowhere.cc:1#1 after\n",
       "line 6: position nowhere.cc:1 not reached by the reordering call"},
  };
  for (const auto& c : cases) {
    MtiSpec spec;
    std::string error;
    EXPECT_FALSE(ParseMtiSpec(c.text, TemplateKernel().table(), {}, &spec, &error)) << c.text;
    EXPECT_EQ(error, c.error) << c.text;
  }
}

// Interrupt-injection crashes replay too: the spec says `test irq` and pairs
// the interrupted call with itself.
TEST_F(ReplayTest, IrqRoundTripReproducesTheTimerwheelCrash) {
  Prog prog = SeedProgramFor(TemplateKernel().table(), "timerwheel");
  ASSERT_EQ(prog.calls.size(), 2u);
  prog.calls[1].args[0].value = 204278;  // a new expiry, so a torn pair is visible
  ProgProfile profile = ProfileProg(prog, {});
  ASSERT_TRUE(profile.calls[1].irq_armed);
  MtiSpec original;
  for (const SchedHint& hint : ComputeIrqHints(profile.calls[1].trace, 64)) {
    MtiSpec spec{prog, 1, 1, hint};
    if (RunMti(spec).crashed) {
      original = spec;
      break;
    }
  }
  ASSERT_TRUE(original.hint.irq_test) << "no interrupt point tears the expiry";

  const std::string text = SerializeMtiSpec(original);
  EXPECT_NE(text.find("pair 1 1\ntest irq\nsched timerwheel.cc:"), std::string::npos) << text;
  MtiSpec replayed;
  std::string error;
  ASSERT_TRUE(ParseMtiSpec(text, TemplateKernel().table(), {}, &replayed, &error)) << error;
  EXPECT_EQ(SerializeMtiSpec(replayed), text);
  MtiResult result = RunMti(replayed);
  ASSERT_TRUE(result.crashed) << "replayed irq spec must reproduce the crash";
  EXPECT_NE(result.crash.title.find("timerwheel expiry tore"), std::string::npos)
      << result.crash.title;
}

// Numbers in specs and in command-line flags parse as whole tokens.
TEST(ParseNumberTest, AcceptsOnlyWholeInRangeTokens) {
  u64 u = 7;
  EXPECT_TRUE(base::ParseNumber("1000", &u));
  EXPECT_EQ(u, 1000u);
  for (const char* bad : {"1O00", "x", "", " 1", "1 ", "-1", "+1", "18446744073709551616"}) {
    EXPECT_FALSE(base::ParseNumber(bad, &u)) << "'" << bad << "'";
    EXPECT_EQ(u, 1000u) << "a failed parse must not write";
  }
  long l = 0;
  EXPECT_TRUE(base::ParseNumber("-1", &l));
  EXPECT_EQ(l, -1);
  double d = 0;
  EXPECT_TRUE(base::ParseNumber("0.25", &d));
  EXPECT_EQ(d, 0.25);
  EXPECT_FALSE(base::ParseNumber("0.25s", &d));
}

TEST(ParseNumberDeathTest, BadFlagValueExitsTwoNamingTheFlag) {
  EXPECT_EXIT(base::FlagNumber<std::size_t>("ozz_fuzz", "--budget", "1O00"),
              ::testing::ExitedWithCode(2), "ozz_fuzz: --budget expects a number, got '1O00'");
}

}  // namespace
}  // namespace ozz::fuzz

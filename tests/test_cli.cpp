// Tests for the flag parser used by bench/example binaries.
#include <gtest/gtest.h>

#include <stdexcept>

#include "cli/args.hpp"

namespace rdp {
namespace {

Args make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Args, EqualsForm) {
  const Args a = make({"prog", "--alpha=1.5", "--m=8"});
  EXPECT_DOUBLE_EQ(a.get("alpha", 0.0), 1.5);
  EXPECT_EQ(a.get("m", std::int64_t{0}), 8);
}

TEST(Args, SpaceForm) {
  const Args a = make({"prog", "--alpha", "2.0"});
  EXPECT_DOUBLE_EQ(a.get("alpha", 0.0), 2.0);
}

TEST(Args, BooleanSwitch) {
  const Args a = make({"prog", "--verbose", "--quiet=false"});
  EXPECT_TRUE(a.get("verbose", false));
  EXPECT_FALSE(a.get("quiet", true));
}

TEST(Args, DefaultsWhenMissing) {
  const Args a = make({"prog"});
  EXPECT_DOUBLE_EQ(a.get("alpha", 1.25), 1.25);
  EXPECT_EQ(a.get("name", std::string("x")), "x");
  EXPECT_FALSE(a.has("alpha"));
}

TEST(Args, Positionals) {
  const Args a = make({"prog", "input.csv", "--k=2", "more"});
  ASSERT_EQ(a.positionals().size(), 2u);
  EXPECT_EQ(a.positionals()[0], "input.csv");
  EXPECT_EQ(a.positionals()[1], "more");
  EXPECT_EQ(a.program(), "prog");
}

TEST(Args, MalformedNumberThrows) {
  const Args a = make({"prog", "--alpha=abc"});
  EXPECT_THROW((void)a.get("alpha", 0.0), std::invalid_argument);
  EXPECT_THROW((void)a.get("alpha", std::int64_t{0}), std::invalid_argument);
}

TEST(Args, NumbersMustUseTheWholeValue) {
  const Args a = make({"prog", "--seeds=3e3", "--rel-tol=0.2x", "--n=12 ",
                       "--empty="});
  EXPECT_THROW((void)a.get("seeds", std::int64_t{0}), std::invalid_argument);
  EXPECT_THROW((void)a.get("rel-tol", 0.0), std::invalid_argument);
  EXPECT_THROW((void)a.get("n", std::int64_t{0}), std::invalid_argument);
  EXPECT_THROW((void)a.get("n", 0.0), std::invalid_argument);
  EXPECT_THROW((void)a.get("empty", 0.0), std::invalid_argument);
  EXPECT_THROW((void)a.get("empty", std::int64_t{0}), std::invalid_argument);
}

TEST(Args, SpaceFormNumbersAreStrictToo) {
  const Args a = make({"prog", "--seeds", "3e3", "--rel-tol", "0.2x",
                       "--alpha", "0.25"});
  EXPECT_THROW((void)a.get("seeds", std::int64_t{0}), std::invalid_argument);
  EXPECT_THROW((void)a.get("rel-tol", 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(a.get("alpha", 0.0), 0.25);
}

TEST(Args, DoublesMustBeFinite) {
  const Args a = make({"prog", "--a=nan", "--b=inf", "--c=-inf", "--d=1e999"});
  for (const char* key : {"a", "b", "c", "d"}) {
    EXPECT_THROW((void)a.get(key, 0.0), std::invalid_argument) << key;
  }
}

TEST(Args, IntegerOverflowThrows) {
  const Args a = make({"prog", "--n=99999999999999999999"});
  EXPECT_THROW((void)a.get("n", std::int64_t{0}), std::invalid_argument);
}

// The spellings bench/e2e/run.py passes (Python int and float reprs).
TEST(Args, PythonNumberReprsParse) {
  const Args a = make({"prog", "--seconds=3.75", "--s2=15.0", "--s3=1e-05",
                       "--seed=7", "--neg=-2"});
  EXPECT_DOUBLE_EQ(a.get("seconds", 0.0), 3.75);
  EXPECT_DOUBLE_EQ(a.get("s2", 0.0), 15.0);
  EXPECT_DOUBLE_EQ(a.get("s3", 0.0), 1e-05);
  EXPECT_EQ(a.get("seed", std::int64_t{0}), 7);
  EXPECT_EQ(a.get("neg", std::int64_t{0}), -2);
  EXPECT_DOUBLE_EQ(a.get("seed", 0.0), 7.0);
}

TEST(Args, MalformedBoolThrows) {
  const Args a = make({"prog", "--flag=maybe"});
  EXPECT_THROW((void)a.get("flag", false), std::invalid_argument);
}

TEST(Args, BareDoubleDashRejected) {
  EXPECT_THROW(make({"prog", "--"}), std::invalid_argument);
}

TEST(Args, StringGetter) {
  const Args a = make({"prog", "--mode=fast"});
  EXPECT_EQ(a.get("mode", std::string("slow")), "fast");
}

}  // namespace
}  // namespace rdp

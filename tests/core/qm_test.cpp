#include "core/qm.h"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.h"

namespace wbist::core {
namespace {

TEST(Qm, CubeCovers) {
  // x1' · x2 over 3 vars: value = 0b100? variable 1 negative, variable 2
  // positive -> value bit1=0, bit2=1; care = 0b110.
  const Cube c{0b100, 0b110};
  EXPECT_TRUE(c.covers(0b100));
  EXPECT_TRUE(c.covers(0b101));
  EXPECT_FALSE(c.covers(0b110));
  EXPECT_FALSE(c.covers(0b000));
  EXPECT_EQ(c.literal_count(), 2u);
}

TEST(Qm, CubeStr) {
  EXPECT_EQ((Cube{0, 0}).str(3), "-");
  const Cube c{0b100, 0b110};
  const std::string s = c.str(3);
  EXPECT_NE(s.find("x1'"), std::string::npos);
  EXPECT_NE(s.find("x2"), std::string::npos);
}

TEST(Qm, ConstantZero) {
  const Cover cover = minimize(3, {}, {});
  EXPECT_TRUE(cover.cubes.empty());
  EXPECT_FALSE(cover.evaluates(0));
}

TEST(Qm, ConstantOne) {
  std::vector<std::uint32_t> onset;
  for (std::uint32_t m = 0; m < 8; ++m) onset.push_back(m);
  const Cover cover = minimize(3, onset, {});
  ASSERT_EQ(cover.cubes.size(), 1u);
  EXPECT_EQ(cover.cubes[0].care, 0u);
}

TEST(Qm, ConstantOneViaDontCares) {
  // Onset {0}, dc = everything else: single don't-care-absorbing cube.
  std::vector<std::uint32_t> dc;
  for (std::uint32_t m = 1; m < 8; ++m) dc.push_back(m);
  const Cover cover = minimize(3, {0}, dc);
  ASSERT_EQ(cover.cubes.size(), 1u);
  EXPECT_EQ(cover.cubes[0].care, 0u);
}

TEST(Qm, SingleMinterm) {
  const Cover cover = minimize(2, {0b10}, {});
  ASSERT_EQ(cover.cubes.size(), 1u);
  EXPECT_EQ(cover.cubes[0].literal_count(), 2u);
  EXPECT_TRUE(cover.evaluates(0b10));
  EXPECT_FALSE(cover.evaluates(0b00));
}

TEST(Qm, XorNeedsTwoCubes) {
  const Cover cover = minimize(2, {0b01, 0b10}, {});
  EXPECT_EQ(cover.cubes.size(), 2u);
  EXPECT_TRUE(cover.evaluates(0b01));
  EXPECT_TRUE(cover.evaluates(0b10));
  EXPECT_FALSE(cover.evaluates(0b00));
  EXPECT_FALSE(cover.evaluates(0b11));
}

TEST(Qm, ClassicTextbookExample) {
  // f = Σ(0,1,2,5,6,7) over 3 vars minimizes to 3 cubes of 2 literals.
  const Cover cover = minimize(3, {0, 1, 2, 5, 6, 7}, {});
  for (std::uint32_t m : {0u, 1u, 2u, 5u, 6u, 7u}) EXPECT_TRUE(cover.evaluates(m));
  for (std::uint32_t m : {3u, 4u}) EXPECT_FALSE(cover.evaluates(m));
  EXPECT_LE(cover.cubes.size(), 3u);
  for (const Cube& c : cover.cubes) EXPECT_LE(c.literal_count(), 2u);
}

TEST(Qm, DontCaresEnlargeCubes) {
  // Onset {1}, dc {0,3,5,7}: a single-literal cube (x0) suffices.
  const Cover cover = minimize(3, {1}, {3, 5, 7});
  ASSERT_GE(cover.cubes.size(), 1u);
  EXPECT_EQ(cover.cubes[0].literal_count(), 1u);
}

TEST(Qm, ZeroVariableFunctions) {
  const Cover one = minimize(0, {0}, {});
  EXPECT_TRUE(one.evaluates(0));
  const Cover zero = minimize(0, {}, {});
  EXPECT_FALSE(zero.evaluates(0));
}

TEST(Qm, TooManyVariablesRejected) {
  EXPECT_THROW(minimize(21, {0}, {}), std::invalid_argument);
}

struct QmPropertyCase {
  unsigned n_vars;
  std::uint64_t seed;
};

// Without this, gtest prints the case as raw bytes, including the padding
// after `n_vars`, and the discovered ctest names are not reproducible.
void PrintTo(const QmPropertyCase& c, std::ostream* os) {
  *os << "n_vars=" << c.n_vars << " seed=" << c.seed;
}

class QmProperty : public testing::TestWithParam<QmPropertyCase> {};

TEST_P(QmProperty, CoverIsCorrectAndPrime) {
  const auto [n_vars, seed] = GetParam();
  util::Rng rng(seed);
  const std::uint32_t space = 1u << n_vars;

  for (int iteration = 0; iteration < 40; ++iteration) {
    std::set<std::uint32_t> onset, dcset;
    for (std::uint32_t m = 0; m < space; ++m) {
      const auto roll = rng.below(4);
      if (roll == 0) onset.insert(m);
      else if (roll == 1) dcset.insert(m);
    }
    const std::vector<std::uint32_t> on(onset.begin(), onset.end());
    const std::vector<std::uint32_t> dc(dcset.begin(), dcset.end());
    const Cover cover = minimize(n_vars, on, dc);

    for (std::uint32_t m = 0; m < space; ++m) {
      const bool val = cover.evaluates(m);
      if (onset.count(m) != 0) {
        EXPECT_TRUE(val) << "onset minterm " << m << " not covered";
      } else if (dcset.count(m) == 0) {
        EXPECT_FALSE(val) << "offset minterm " << m << " covered";
      }
    }
    // Every cube must be an implicant of onset ∪ dc.
    for (const Cube& c : cover.cubes) {
      for (std::uint32_t m = 0; m < space; ++m) {
        if (c.covers(m)) {
          EXPECT_TRUE(onset.count(m) != 0 || dcset.count(m) != 0)
              << "cube covers offset minterm " << m;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, QmProperty,
    testing::Values(QmPropertyCase{1, 11}, QmPropertyCase{2, 22},
                    QmPropertyCase{3, 33}, QmPropertyCase{4, 44},
                    QmPropertyCase{5, 55}, QmPropertyCase{6, 66}),
    [](const testing::TestParamInfo<QmPropertyCase>& info) {
      return "vars" + std::to_string(info.param.n_vars);
    });

}  // namespace
}  // namespace wbist::core

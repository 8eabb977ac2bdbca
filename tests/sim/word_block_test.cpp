#include "sim/word_block.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "sim/logic.h"
#include "util/rng.h"

namespace wbist::sim {
namespace {

using netlist::GateType;

/// A random word whose lanes are valid three-valued encodings (never the
/// forbidden one=0/zero=0 state).
Word3 random_word3(util::Rng& rng) {
  const std::uint64_t one = rng.next_u64();
  const std::uint64_t x_lanes = rng.next_u64();
  return {one | x_lanes, ~one | x_lanes};
}

template <unsigned N>
Word3Block<N> random_block(util::Rng& rng) {
  Word3Block<N> b;
  for (unsigned k = 0; k < N; ++k) {
    const Word3 w = random_word3(rng);
    b.one[k] = w.one;
    b.zero[k] = w.zero;
  }
  return b;
}

template <unsigned N>
Word3 word_of(const Word3Block<N>& b, unsigned k) {
  return {b.one[k], b.zero[k]};
}

/// Every block operation must equal the scalar Word3 operation applied to
/// each 64-lane word independently (lanes never interact).
template <unsigned N>
void check_ops_match_scalar(std::uint64_t seed) {
  util::Rng rng(seed);
  for (int rep = 0; rep < 50; ++rep) {
    const Word3Block<N> a = random_block<N>(rng);
    const Word3Block<N> b = random_block<N>(rng);
    const Word3Block<N> r_and = and3(a, b);
    const Word3Block<N> r_or = or3(a, b);
    const Word3Block<N> r_not = not3(a);
    const Word3Block<N> r_xor = xor3(a, b);
    for (unsigned k = 0; k < N; ++k) {
      EXPECT_EQ(word_of(r_and, k), and3(word_of(a, k), word_of(b, k)));
      EXPECT_EQ(word_of(r_or, k), or3(word_of(a, k), word_of(b, k)));
      EXPECT_EQ(word_of(r_not, k), not3(word_of(a, k)));
      EXPECT_EQ(word_of(r_xor, k), xor3(word_of(a, k), word_of(b, k)));
    }
  }
}

TEST(Word3Block, OpsMatchScalarPerWord) {
  check_ops_match_scalar<1>(11);
  check_ops_match_scalar<4>(33);
}

TEST(Word3Block, WidthOneMatchesWord3Layout) {
  // A Word3Block<1> is layout-identical to Word3: one word then zero word.
  static_assert(sizeof(Word3Block<1>) == sizeof(Word3));
  static_assert(sizeof(Word3Block<4>) == 8 * sizeof(std::uint64_t));
  util::Rng rng(5);
  const Word3 w = random_word3(rng);
  const Word3Block<1> b = splat_block<1>(w);
  for (unsigned l = 0; l < 64; ++l) EXPECT_EQ(lane(b, l), lane(w, l));
}

TEST(Word3Block, BroadcastSplatAndLaneMapping) {
  for (const Val3 v : {Val3::kZero, Val3::kOne, Val3::kX}) {
    const Word3Block<4> b = broadcast_block<4>(v);
    for (unsigned l = 0; l < 256; l += 17) EXPECT_EQ(lane(b, l), v);
  }
  util::Rng rng(9);
  const Word3 w = random_word3(rng);
  const Word3Block<4> s = splat_block<4>(w);
  for (unsigned l = 0; l < 256; ++l) EXPECT_EQ(lane(s, l), lane(w, l % 64));
}

TEST(Word3Block, ForceTouchesOnlySelectedLanes) {
  util::Rng rng(13);
  const Word3Block<4> b = random_block<4>(rng);
  const unsigned word = 2;
  const std::uint64_t mask = 0xF0F0F0F0F0F0F0F0ull;
  const Word3Block<4> f1 = force(b, word, mask, true);
  const Word3Block<4> f0 = force(b, word, mask, false);
  for (unsigned l = 0; l < 256; ++l) {
    const bool hit = l / 64 == word && ((mask >> (l % 64)) & 1) != 0;
    EXPECT_EQ(lane(f1, l), hit ? Val3::kOne : lane(b, l));
    EXPECT_EQ(lane(f0, l), hit ? Val3::kZero : lane(b, l));
  }
}

template <unsigned N>
void check_eval_gate_matches(std::uint64_t seed) {
  util::Rng rng(seed);
  const GateType types[] = {GateType::kBuf,  GateType::kNot, GateType::kAnd,
                            GateType::kNand, GateType::kOr,  GateType::kNor,
                            GateType::kXor,  GateType::kXnor};
  for (const GateType t : types) {
    const std::size_t arity =
        (t == GateType::kBuf || t == GateType::kNot) ? 1 : 3;
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<Word3Block<N>> in;
      for (std::size_t i = 0; i < arity; ++i) in.push_back(random_block<N>(rng));
      const Word3Block<N> out =
          eval_gate_block<N>(t, std::span<const Word3Block<N>>(in));
      for (unsigned k = 0; k < N; ++k) {
        std::vector<Word3> scalar_in;
        for (const auto& b : in) scalar_in.push_back(word_of(b, k));
        EXPECT_EQ(word_of(out, k), eval_gate(t, scalar_in))
            << "gate " << static_cast<int>(t) << " word " << k;
      }
    }
  }
}

TEST(Word3Block, EvalGateMatchesScalarPerWord) {
  check_eval_gate_matches<1>(101);
  check_eval_gate_matches<4>(404);
}

}  // namespace
}  // namespace wbist::sim

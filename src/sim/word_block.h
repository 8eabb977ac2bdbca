// N x 64 three-valued machines: the block-widened form of sim::Word3.
//
// A Word3Block<N> packs 64*N machines into 2*N 64-bit planes laid out as
// one[0..N) followed by zero[0..N). The layout is standard-layout and
// contiguous, so a buffer of blocks is exactly the flat plane array the
// evaluation kernel (sim/kernel.h) operates on: node k's planes live at
// offset k * 2N, 'one' words first. Lane l of a block maps to bit (l % 64)
// of word (l / 64).
//
// All operations are per-lane and lanes never interact, so every operation
// over Word3Block<N> is bit-identical to running the scalar Word3 operation
// independently on each of the N words.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/logic.h"

namespace wbist::sim {

/// Block width of the fault simulator's groups: 4 x 64 = 256 faulty
/// machines. The only other width in use is 1 (the good machine).
inline constexpr unsigned kFaultBlockWords = 4;

template <unsigned N>
struct Word3Block {
  static_assert(N == 1 || N == kFaultBlockWords);

  std::array<std::uint64_t, N> one{};
  std::array<std::uint64_t, N> zero{};

  friend bool operator==(const Word3Block&, const Word3Block&) = default;
};

/// All 64*N lanes set to the scalar value `v`.
template <unsigned N>
inline Word3Block<N> broadcast_block(Val3 v) {
  const Word3 w = broadcast(v);
  Word3Block<N> b;
  for (unsigned k = 0; k < N; ++k) {
    b.one[k] = w.one;
    b.zero[k] = w.zero;
  }
  return b;
}

/// Widen one 64-lane word into every word of the block.
template <unsigned N>
inline Word3Block<N> splat_block(Word3 w) {
  Word3Block<N> b;
  for (unsigned k = 0; k < N; ++k) {
    b.one[k] = w.one;
    b.zero[k] = w.zero;
  }
  return b;
}

/// Extract machine `lane` (0 <= lane < 64*N).
template <unsigned N>
inline Val3 lane(const Word3Block<N>& b, unsigned lane_index) {
  const Word3 w{b.one[lane_index / 64], b.zero[lane_index / 64]};
  return lane(w, lane_index % 64);
}

template <unsigned N>
inline Word3Block<N> and3(const Word3Block<N>& a, const Word3Block<N>& b) {
  Word3Block<N> r;
  for (unsigned k = 0; k < N; ++k) {
    r.one[k] = a.one[k] & b.one[k];
    r.zero[k] = a.zero[k] | b.zero[k];
  }
  return r;
}

template <unsigned N>
inline Word3Block<N> or3(const Word3Block<N>& a, const Word3Block<N>& b) {
  Word3Block<N> r;
  for (unsigned k = 0; k < N; ++k) {
    r.one[k] = a.one[k] | b.one[k];
    r.zero[k] = a.zero[k] & b.zero[k];
  }
  return r;
}

template <unsigned N>
inline Word3Block<N> not3(const Word3Block<N>& a) {
  Word3Block<N> r;
  for (unsigned k = 0; k < N; ++k) {
    r.one[k] = a.zero[k];
    r.zero[k] = a.one[k];
  }
  return r;
}

template <unsigned N>
inline Word3Block<N> xor3(const Word3Block<N>& a, const Word3Block<N>& b) {
  Word3Block<N> r;
  for (unsigned k = 0; k < N; ++k) {
    r.one[k] = (a.one[k] & b.zero[k]) | (a.zero[k] & b.one[k]);
    r.zero[k] = (a.one[k] & b.one[k]) | (a.zero[k] & b.zero[k]);
  }
  return r;
}

/// Force the lanes selected by `mask` within plane word `word` to `value`
/// (stuck-at injection; other words untouched).
template <unsigned N>
inline Word3Block<N> force(Word3Block<N> b, unsigned word, std::uint64_t mask,
                           bool value) {
  if (value) {
    b.one[word] |= mask;
    b.zero[word] &= ~mask;
  } else {
    b.one[word] &= ~mask;
    b.zero[word] |= mask;
  }
  return b;
}

/// Evaluate one combinational gate over fanin blocks (reference semantics
/// for the evaluation kernel; mirrors sim::eval_gate lane for lane).
template <unsigned N>
inline Word3Block<N> eval_gate_block(netlist::GateType type,
                                     std::span<const Word3Block<N>> in) {
  using netlist::GateType;
  Word3Block<N> acc = in[0];
  switch (type) {
    case GateType::kBuf:
      return acc;
    case GateType::kNot:
      return not3(acc);
    case GateType::kAnd:
    case GateType::kNand:
      for (std::size_t i = 1; i < in.size(); ++i) acc = and3(acc, in[i]);
      return type == GateType::kNand ? not3(acc) : acc;
    case GateType::kOr:
    case GateType::kNor:
      for (std::size_t i = 1; i < in.size(); ++i) acc = or3(acc, in[i]);
      return type == GateType::kNor ? not3(acc) : acc;
    case GateType::kXor:
    case GateType::kXnor:
      for (std::size_t i = 1; i < in.size(); ++i) acc = xor3(acc, in[i]);
      return type == GateType::kXnor ? not3(acc) : acc;
    case GateType::kInput:
    case GateType::kDff:
      break;
  }
  return acc;  // unreachable for valid logic gates
}

}  // namespace wbist::sim

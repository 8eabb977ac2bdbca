// Internal: the definition of the templated block evaluation loop
// eval_core<N>, instantiated once per width in kernel.cpp. Not part of the
// public sim API — include sim/kernel.h instead.
#pragma once

#include <cstring>

#include "sim/kernel.h"

namespace wbist::sim::detail {

/// Fold one gate over its fanin plane slots. `at(k)` returns the 2N-word
/// slot of fanin k; the result lands in `out` (2N words). The accumulator
/// lives in fixed-size locals so the compiler fully unrolls the per-word
/// loops and keeps the planes in registers.
template <unsigned N, typename FaninAt>
inline void fold_planes(netlist::GateType type, const FaninAt& at,
                        std::uint32_t count, std::uint64_t* out) {
  using netlist::GateType;
  std::uint64_t acc1[N];  // 'one' plane
  std::uint64_t acc0[N];  // 'zero' plane
  {
    const std::uint64_t* a = at(0);
    for (unsigned w = 0; w < N; ++w) {
      acc1[w] = a[w];
      acc0[w] = a[N + w];
    }
  }
  bool negate = false;
  switch (type) {
    case GateType::kBuf:
      break;
    case GateType::kNot:
      negate = true;
      break;
    case GateType::kAnd:
    case GateType::kNand:
      for (std::uint32_t k = 1; k < count; ++k) {
        const std::uint64_t* b = at(k);
        for (unsigned w = 0; w < N; ++w) {
          acc1[w] &= b[w];
          acc0[w] |= b[N + w];
        }
      }
      negate = type == GateType::kNand;
      break;
    case GateType::kOr:
    case GateType::kNor:
      for (std::uint32_t k = 1; k < count; ++k) {
        const std::uint64_t* b = at(k);
        for (unsigned w = 0; w < N; ++w) {
          acc1[w] |= b[w];
          acc0[w] &= b[N + w];
        }
      }
      negate = type == GateType::kNor;
      break;
    default:  // kXor / kXnor
      for (std::uint32_t k = 1; k < count; ++k) {
        const std::uint64_t* b = at(k);
        for (unsigned w = 0; w < N; ++w) {
          const std::uint64_t one =
              (acc1[w] & b[N + w]) | (acc0[w] & b[w]);
          const std::uint64_t zero =
              (acc1[w] & b[w]) | (acc0[w] & b[N + w]);
          acc1[w] = one;
          acc0[w] = zero;
        }
      }
      negate = type == GateType::kXnor;
      break;
  }
  if (negate) {
    for (unsigned w = 0; w < N; ++w) {
      out[w] = acc0[w];
      out[N + w] = acc1[w];
    }
  } else {
    for (unsigned w = 0; w < N; ++w) {
      out[w] = acc1[w];
      out[N + w] = acc0[w];
    }
  }
}

/// Evaluate one gate that carries injections: stage the fanin slots in
/// `fanin_buf`, apply pin injections there, fold, then apply stem
/// injections (stuck-at or one-cycle delay) on the output slot.
template <unsigned N>
inline void eval_injected_gate(const GateRec& g,
                               const netlist::NodeId* fanin,
                               const InjectionIndex& inj_index,
                               std::int32_t head, const std::uint64_t* vals,
                               std::uint64_t* out, std::uint64_t* fanin_buf,
                               std::uint64_t* memory) {
  constexpr std::size_t kStride = 2 * N;
  for (std::uint32_t k = 0; k < g.fanin_count; ++k)
    std::memcpy(fanin_buf + k * kStride, vals + fanin[k] * kStride,
                kStride * sizeof(std::uint64_t));
  for (std::int32_t link = head; link >= 0; link = inj_index.next(link)) {
    const Injection& inj = inj_index.injection(link);
    if (inj.pin != kInjectStem)
      inject<N>(fanin_buf + static_cast<std::size_t>(inj.pin) * kStride, inj,
                memory);
  }
  fold_planes<N>(
      g.type,
      [&](std::uint32_t k) { return fanin_buf + k * kStride; },
      g.fanin_count, out);
  for (std::int32_t link = head; link >= 0; link = inj_index.next(link)) {
    const Injection& inj = inj_index.injection(link);
    if (inj.pin == kInjectStem) inject<N>(out, inj, memory);
  }
}

}  // namespace wbist::sim::detail

namespace wbist::sim {

template <unsigned N>
void eval_core(std::span<const GateRec> gates,
               const netlist::NodeId* flat_fanin,
               const InjectionIndex& inj_index, std::uint64_t* vals,
               std::uint64_t* fanin_buf, std::uint64_t* memory) {
  constexpr std::size_t kStride = 2 * N;
  for (const GateRec& g : gates) {
    const netlist::NodeId* fanin = flat_fanin + g.fanin_begin;
    std::uint64_t* out = vals + g.id * kStride;
    const std::int32_t head = inj_index.head(g.id);
    if (head < 0) [[likely]] {
      detail::fold_planes<N>(
          g.type,
          [&](std::uint32_t k) { return vals + fanin[k] * kStride; },
          g.fanin_count, out);
    } else {
      detail::eval_injected_gate<N>(g, fanin, inj_index, head, vals, out,
                                    fanin_buf, memory);
    }
  }
}

}  // namespace wbist::sim

#include "sim/kernel.h"

#include "sim/kernel_impl.h"

namespace wbist::sim {

// The two widths in use: GoodSimulator's scalar walk and the fault
// simulator's group block.
static_assert(kFaultBlockWords == 4);
template void eval_core<1>(std::span<const GateRec>, const netlist::NodeId*,
                           const InjectionIndex&, std::uint64_t*,
                           std::uint64_t*, std::uint64_t*);
template void eval_core<4>(std::span<const GateRec>, const netlist::NodeId*,
                           const InjectionIndex&, std::uint64_t*,
                           std::uint64_t*, std::uint64_t*);

}  // namespace wbist::sim

#include "simmpi/collective.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace cypress::simmpi {

Collective::Mismatch Collective::arrive(ir::MpiOp callOp, int64_t callBytes,
                                        int32_t callRoot, uint64_t clock) {
  if (arrived == 0) {
    op = callOp;
    bytes = callBytes;
    root = callRoot;
  } else if (op != callOp) {
    return Mismatch::Op;
  } else if (op != ir::MpiOp::CommSplit) {
    if (bytes != callBytes) return Mismatch::Bytes;
    if (root != callRoot) return Mismatch::Root;
  }
  maxArrival = std::max(maxArrival, clock);
  ++arrived;
  return Mismatch::None;
}

Collective& Rendezvous::at(int comm, int seq) {
  Queue& q = comms_[comm];
  CYP_CHECK(seq >= q.base, "collective sequence went backwards");
  const auto i = static_cast<size_t>(seq - q.base);
  while (i >= q.live.size()) q.live.emplace_back();
  return q.live[i];
}

void Rendezvous::consume(int comm, int seq) {
  Queue& q = comms_.at(comm);
  ++q.live[static_cast<size_t>(seq - q.base)].consumed;
  while (!q.live.empty() && q.live.front().done &&
         q.live.front().consumed == q.live.front().arrived) {
    q.live.pop_front();
    ++q.base;
  }
}

}  // namespace cypress::simmpi

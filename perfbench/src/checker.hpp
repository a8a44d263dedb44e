#pragma once

// Answer checking for the serving workloads. Every connection owns one
// vertex block, so its answers depend only on its own frames: replaying
// them in send order through a sequential reference variant must give back
// every value the server returned.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "loadgen.hpp"

namespace perfbench {

struct Mismatch {
  unsigned conn = 0;
  std::size_t frame = 0;  ///< index in the connection's send order
  std::size_t op = 0;     ///< index within the frame
  uint64_t expected = 0;
  uint64_t got = 0;
};

struct CheckResult {
  uint64_t checked_ops = 0;
  uint64_t wrong_ops = 0;
  uint64_t skipped_frames = 0;  ///< shed: applied nowhere, nothing to check
  /// The replay stopped at a frame whose effect is unknown (no response or
  /// a failure status); that frame already counts as failed.
  bool truncated = false;
  std::vector<Mismatch> mismatches;  ///< the first kMaxReported
  std::string error;
};

/// Replay connection `conn`'s answered frames through the `coarse` variant
/// over its block [base, base + block) and compare every value.
CheckResult check_connection(unsigned conn, const ConnLog& log,
                             condyn::Vertex base, condyn::Vertex block);

/// check_connection for every log, connection c owning block c, one thread
/// per connection.
std::vector<CheckResult> check_all(const std::vector<const ConnLog*>& logs,
                                   condyn::Vertex block);

}  // namespace perfbench

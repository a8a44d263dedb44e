#include "checker.hpp"

#include <exception>
#include <thread>

#include "api/factory.hpp"

namespace perfbench {

CheckResult check_connection(unsigned conn, const ConnLog& log,
                             condyn::Vertex base, condyn::Vertex block) {
  CheckResult r;
  const auto reference = condyn::make_variant("coarse", block);
  std::vector<condyn::Op> local;
  for (std::size_t fi = 0; fi < log.frames.size(); ++fi) {
    const FrameRecord& f = log.frames[fi];
    if (f.status == kStatusOverloaded) {
      ++r.skipped_frames;
      continue;
    }
    if (f.status != kStatusOk) {
      r.truncated = true;
      break;
    }
    local.assign(log.ops.begin() + f.first_op,
                 log.ops.begin() + f.first_op + f.num_ops);
    for (condyn::Op& op : local) {
      if (op.u < base || op.v < base || op.u - base >= block ||
          op.v - base >= block) {
        r.error = "conn " + std::to_string(conn) + " frame " +
                  std::to_string(fi) + " leaves its vertex block";
        return r;
      }
      op.u -= base;
      op.v -= base;
    }
    const condyn::BatchResult want = reference->apply_batch(local);
    for (std::size_t i = 0; i < local.size(); ++i) {
      // Block-local ids keep their order, so the smallest member maps back
      // by adding the base.
      const uint64_t expected =
          want.values[i] +
          (local[i].kind == condyn::OpKind::kRepresentative ? base : 0);
      const uint64_t got = log.values[f.first_op + i];
      ++r.checked_ops;
      if (got == expected) continue;
      ++r.wrong_ops;
      if (r.mismatches.size() < kMaxReported) {
        r.mismatches.push_back({conn, fi, i, expected, got});
      }
    }
  }
  return r;
}

std::vector<CheckResult> check_all(const std::vector<const ConnLog*>& logs,
                                   condyn::Vertex block) {
  std::vector<CheckResult> out(logs.size());
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < logs.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        out[c] = check_connection(c, *logs[c], c * block, block);
      } catch (const std::exception& e) {
        out[c].error = std::string("checker: ") + e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

}  // namespace perfbench

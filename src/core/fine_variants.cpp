// Registry entries for the fine-grained family, variants (6)-(8).
#include "api/registry.hpp"
#include "core/fine_dc.hpp"

namespace condyn {

namespace {

VariantCaps fine_caps(bool lock_free_reads) {
  VariantCaps c;
  c.lock_free_reads = lock_free_reads;
  c.label_cache = lock_free_reads;  // cache hits/fallback are lock-free (§8)
  return c;  // not atomic_batch: per-component guards, not a batch lock
}

}  // namespace

void register_fine_variants(VariantRegistry& r) {
  r.add("fine", "fine-grained per-component locks for all operations",
        fine_caps(false), [](Vertex n, bool sampling) {
          return std::make_unique<FineDc<FineReadMode::kLocked>>(n, "fine",
                                                                 sampling);
        });
  r.add("fine-rw", "fine-grained readers-writer component locks",
        fine_caps(false), [](Vertex n, bool sampling) {
          return std::make_unique<FineDc<FineReadMode::kSharedLocks>>(
              n, "fine-rw", sampling);
        });
  r.add("fine-nbreads", "fine-grained updates + non-blocking reads",
        fine_caps(true), [](Vertex n, bool sampling) {
          return std::make_unique<FineDc<FineReadMode::kNonBlocking>>(
              n, "fine-nbreads", sampling);
        });
}

}  // namespace condyn

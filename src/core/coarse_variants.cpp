// Registry entries for the coarse-grained family, variants (1)-(5).
#include "api/registry.hpp"
#include "core/coarse_dc.hpp"
#include "util/elision_lock.hpp"
#include "util/rw_lock.hpp"
#include "util/spinlock.hpp"

namespace condyn {

namespace {

VariantCaps coarse_caps(bool lock_free_reads) {
  VariantCaps c;
  c.atomic_batch = true;
  c.lock_free_reads = lock_free_reads;
  c.label_cache = lock_free_reads;  // cache hits/fallback are lock-free (§8)
  return c;
}

}  // namespace

void register_coarse_variants(VariantRegistry& r) {
  r.add("coarse", "coarse-grained locking for all operations",
        coarse_caps(false), [](Vertex n, bool sampling) {
          return std::make_unique<CoarseDc<SpinLock, false>>(n, "coarse",
                                                             sampling);
        });
  r.add("coarse-rw", "coarse-grained readers-writer lock", coarse_caps(false),
        [](Vertex n, bool sampling) {
          return std::make_unique<CoarseDc<RwSpinLock, false>>(n, "coarse-rw",
                                                               sampling);
        });
  r.add("coarse-nbreads", "coarse-grained updates + non-blocking reads",
        coarse_caps(true), [](Vertex n, bool sampling) {
          return std::make_unique<CoarseDc<SpinLock, true>>(
              n, "coarse-nbreads", sampling);
        });
  r.add("coarse-htm", "coarse-grained with HTM lock elision (all ops)",
        coarse_caps(false), [](Vertex n, bool sampling) {
          return std::make_unique<CoarseDc<ElisionLock, false>>(
              n, "coarse-htm", sampling);
        });
  r.add("coarse-htm-nbreads",
        "HTM-elided lock for updates + non-blocking reads", coarse_caps(true),
        [](Vertex n, bool sampling) {
          return std::make_unique<CoarseDc<ElisionLock, true>>(
              n, "coarse-htm-nbreads", sampling);
        });
}

}  // namespace condyn

// Registry entries for the paper's full algorithm, variants (9)-(11).
#include "api/registry.hpp"
#include "core/nb_hdt.hpp"

namespace condyn {

namespace {

VariantCaps nb_caps() {
  VariantCaps c;
  c.lock_free_reads = true;
  c.label_cache = true;  // epoch-published labels over F_0 (§8)
  return c;  // batches stay concurrent with other threads: not atomic_batch
}

}  // namespace

void register_nb_variants(VariantRegistry& r) {
  r.add("full",
        "our algorithm: fine-grained + non-blocking reads + lock-free "
        "non-spanning updates",
        nb_caps(), [](Vertex n, bool sampling) {
          return std::make_unique<NbDc>(n, NbLockMode::kFine, "full",
                                        sampling);
        });
  r.add("full-coarse", "our algorithm with a coarse lock for spanning updates",
        nb_caps(), [](Vertex n, bool sampling) {
          return std::make_unique<NbDc>(n, NbLockMode::kCoarseSpin,
                                        "full-coarse", sampling);
        });
  r.add("full-coarse-htm", "our algorithm with an HTM-elided coarse lock",
        nb_caps(), [](Vertex n, bool sampling) {
          return std::make_unique<NbDc>(n, NbLockMode::kCoarseElision,
                                        "full-coarse-htm", sampling);
        });
}

}  // namespace condyn

// Registry entry for the parallel batch-dynamic family, variant (14).
#include "api/registry.hpp"
#include "core/pbd_dc.hpp"

namespace condyn {

void register_pbd_variants(VariantRegistry& r) {
  VariantCaps c;
  c.atomic_batch = true;  // update batches hold the batch mutex end to end
  c.lock_free_reads = true;
  c.internal_parallel = true;
  r.add("pbd",
        "parallel batch-dynamic: one batch preprocessed, grouped and "
        "applied by an internal worker gang (Acar et al. shape, De Man et "
        "al. simplifications)",
        c, [](Vertex n, bool sampling) {
          return std::make_unique<PbdDc>(n, "pbd", sampling);
        });
}

}  // namespace condyn

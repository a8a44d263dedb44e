// Registry entries for the combining baselines, variants (12)-(13).
#include "api/registry.hpp"
#include "combining/flat_combining.hpp"
#include "combining/parallel_combining.hpp"

namespace condyn {

void register_combining_variants(VariantRegistry& r) {
  VariantCaps pc;
  pc.atomic_batch = true;  // the combiner applies a published batch alone
  pc.combining = true;
  r.add("parallel-combining",
        "parallel combining (Aksenov et al.): batched updates, parallel "
        "read phase",
        pc, [](Vertex n, bool sampling) {
          return std::make_unique<ParallelCombiningDc>(
              n, "parallel-combining", sampling);
        });

  VariantCaps fc = pc;
  fc.lock_free_reads = true;
  r.add("fc-nbreads", "flat combining for updates + our non-blocking reads",
        fc, [](Vertex n, bool sampling) {
          return std::make_unique<FlatCombiningDc>(n, "fc-nbreads", sampling);
        });
}

}  // namespace condyn

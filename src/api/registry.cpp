#include "api/registry.hpp"

#include <mutex>
#include <stdexcept>

namespace condyn {

VariantRegistry& VariantRegistry::instance() {
  static VariantRegistry reg;
  static std::once_flag once;
  std::call_once(once, [] {
    // Headroom for custom registrations beyond the 14 built-ins, so the
    // VariantInfo pointers/references handed out by find()/variants() are
    // not invalidated by a later add() reallocating the vector.
    reg.variants_.reserve(kReserved);
    // Registration order defines the ids; keep the paper's 1..13 numbering,
    // with the post-paper parallel batch-dynamic family appended as (14).
    register_coarse_variants(reg);
    register_fine_variants(reg);
    register_nb_variants(reg);
    register_combining_variants(reg);
    register_pbd_variants(reg);
  });
  return reg;
}

int VariantRegistry::add(
    const char* name, const char* description, VariantCaps caps,
    std::function<std::unique_ptr<DynamicConnectivity>(Vertex, bool)> make) {
  if (variants_.size() >= kReserved) {
    throw std::invalid_argument(
        "variant registry full (VariantRegistry::kReserved)");
  }
  for (const VariantInfo& v : variants_) {
    if (std::string(name) == v.name) {
      throw std::invalid_argument("duplicate variant name \"" +
                                  std::string(name) + "\"");
    }
  }
  const int id = static_cast<int>(variants_.size()) + 1;
  variants_.push_back({id, name, description, caps, std::move(make)});
  return id;
}

const VariantInfo* VariantRegistry::find(const std::string& name)
    const noexcept {
  for (const VariantInfo& v : variants_) {
    if (name == v.name) return &v;
  }
  return nullptr;
}

const VariantInfo* VariantRegistry::find(int id) const noexcept {
  if (id < 1 || id > static_cast<int>(variants_.size())) return nullptr;
  return &variants_[id - 1];
}

}  // namespace condyn

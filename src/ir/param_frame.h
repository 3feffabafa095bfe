// Param carry-over as a slot frame (the §6 Param mechanism).
//
// A tenant's temporaries travel between devices as fixed header slots.
// ParamLayout numbers one program's distinct variable names densely, in
// sorted order; ParamFrame carries a packet's Params as a values vector
// plus a written-bit mask indexed by those ids. The compiled path binds
// its register file with `regs[s] = vals[id]` and writes a dirty slot
// back as one word and one bit, with no name hashing per packet.
//
// Layouts are per tenant program, never process-wide: the service builds
// one when a tenant commits and shares it with every deployment entry
// and every packet frame bound to it, so it dies with the last of them.
// Tenant source is untrusted; a global name table would grow without
// bound.
//
// The frame keeps a name view (count / at / operator[] / ==, compared by
// name) so callers that set or check Params by name work unchanged:
//  - names written before any layout is bound are kept aside ("loose")
//    and adopted on the first bind();
//  - names a bound layout does not know stay loose;
//  - binding a frame to a layout with different names remaps it by name
//    (slow but correct: hand-built programs, standalone ExecPlan runs).
// Invariant: an unwritten id holds 0, so a bind reads unwritten names as
// 0 without testing the mask, exactly like a missing map key.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ir/valuemap.h"

namespace clickinc::ir {

class IrProgram;

class ParamLayout {
 public:
  static constexpr std::uint32_t kNoId = ~0u;

  // The distinct variable names of `prog`.
  static std::shared_ptr<const ParamLayout> of(const IrProgram& prog);
  // `names` sorted and deduplicated.
  static std::shared_ptr<const ParamLayout> of(std::vector<std::string> names);

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(names_.size());
  }
  const std::string& name(std::uint32_t id) const { return names_[id]; }
  // Binary search over the sorted names: lookups by name happen at deploy,
  // on the reference path and in the name view, never per compiled hop.
  std::uint32_t idOf(std::string_view name) const;
  // 128-bit content fingerprint of the sorted names.
  const std::array<std::uint64_t, 2>& fingerprint() const { return fp_; }
  // Same names, hence the same ids.
  bool sameNames(const ParamLayout& other) const {
    return this == &other || (fp_ == other.fp_ && names_ == other.names_);
  }

 private:
  std::vector<std::string> names_;  // id -> name, sorted
  std::array<std::uint64_t, 2> fp_{};
};

class ParamFrame {
 public:
  // --- name view ---
  std::size_t count(std::string_view name) const {
    return lookup(name) != nullptr ? 1 : 0;
  }
  std::uint64_t at(std::string_view name) const;  // throws out_of_range
  // The value of `name`, 0 when it was never written.
  std::uint64_t get(std::string_view name) const {
    const std::uint64_t* v = lookup(name);
    return v != nullptr ? *v : 0;
  }
  std::uint64_t& operator[](std::string_view name);
  void set(std::string_view name, std::uint64_t v) { (*this)[name] = v; }
  std::size_t size() const;
  // Same written names with the same values, whatever the layouts.
  bool operator==(const ParamFrame& other) const;

  // --- slot view ---
  const std::shared_ptr<const ParamLayout>& layout() const { return layout_; }
  // Binds the frame to `layout`: a pointer compare when already bound.
  void bind(const std::shared_ptr<const ParamLayout>& layout) {
    if (layout_ != layout) rebind(layout);
  }
  // Values by id (valid while bound; unwritten ids hold 0).
  const std::uint64_t* values() const { return words_.data(); }
  bool written(std::uint32_t id) const {
    return ((words_[n_ + (id >> 6)] >> (id & 63)) & 1) != 0;
  }
  void setId(std::uint32_t id, std::uint64_t v) {
    words_[id] = v;
    words_[n_ + (id >> 6)] |= std::uint64_t{1} << (id & 63);
  }

 private:
  const std::uint64_t* lookup(std::string_view name) const;
  void rebind(const std::shared_ptr<const ParamLayout>& layout);

  std::shared_ptr<const ParamLayout> layout_;
  std::uint32_t n_ = 0;               // layout_->size()
  std::vector<std::uint64_t> words_;  // [0, n_) values, then written bits
  ValueMap loose_;                    // names outside the bound layout
};

}  // namespace clickinc::ir

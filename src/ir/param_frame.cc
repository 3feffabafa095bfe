#include "ir/param_frame.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "ir/program.h"
#include "util/crc.h"

namespace clickinc::ir {

std::shared_ptr<const ParamLayout> ParamLayout::of(const IrProgram& prog) {
  // Every name ExecPlan::compile gives a variable slot: any operand that
  // is not a header field, not absent and, as a source, not a constant.
  // That covers a program whose operand kinds were never validated (a
  // decoded journal record), so binding a plan to this layout cannot fail.
  std::vector<std::string_view> views;
  const auto note = [&](const Operand& o, bool src) {
    if (!o.isField() && !o.isNone() && !(src && o.isConst())) {
      views.push_back(o.name);
    }
  };
  for (const Instruction& ins : prog.instrs) {
    if (ins.pred) note(*ins.pred, true);
    note(ins.dest, false);
    note(ins.dest2, false);
    for (const Operand& s : ins.srcs) note(s, true);
  }
  // A name occurs once per operand that uses it: deduplicate through a
  // flat hash set, compacting in place, so only distinct names are sorted.
  std::vector<std::uint32_t> seen(std::bit_ceil(2 * views.size() + 2), 0);
  const std::size_t mask = seen.size() - 1;
  std::size_t distinct = 0;
  for (const std::string_view v : views) {
    std::size_t i = ValueMap::hashKey(v) & mask;
    while (seen[i] != 0 && views[seen[i] - 1] != v) i = (i + 1) & mask;
    if (seen[i] == 0) {
      views[distinct] = v;
      seen[i] = static_cast<std::uint32_t>(++distinct);
    }
  }
  views.resize(distinct);
  std::sort(views.begin(), views.end());
  return of(std::vector<std::string>(views.begin(), views.end()));
}

std::shared_ptr<const ParamLayout> ParamLayout::of(
    std::vector<std::string> names) {
  if (!std::is_sorted(names.begin(), names.end())) {
    std::sort(names.begin(), names.end());
  }
  names.erase(std::unique(names.begin(), names.end()), names.end());
  auto layout = std::make_shared<ParamLayout>();
  // Two independently seeded mix64 chains over each name's length and
  // its bytes, eight at a time.
  std::uint64_t a = 0x5A17'C0DE'0F2A'0001ULL;
  std::uint64_t b = names.size();
  const auto mixIn = [&](std::uint64_t v) {
    a = mix64(a ^ v);
    b = mix64(b + v);
  };
  for (const std::string& name : names) {
    mixIn(name.size());
    for (std::size_t at = 0; at < name.size(); at += 8) {
      std::uint64_t w = 0;
      for (std::size_t k = at; k < std::min(at + 8, name.size()); ++k) {
        w |= std::uint64_t{static_cast<std::uint8_t>(name[k])}
             << (8 * (k - at));
      }
      mixIn(w);
    }
  }
  layout->names_ = std::move(names);
  layout->fp_ = {a, b};
  return layout;
}

std::uint32_t ParamLayout::idOf(std::string_view name) const {
  const auto it = std::lower_bound(names_.begin(), names_.end(), name);
  return it == names_.end() || *it != name
             ? kNoId
             : static_cast<std::uint32_t>(it - names_.begin());
}

const std::uint64_t* ParamFrame::lookup(std::string_view name) const {
  if (layout_ != nullptr) {
    const std::uint32_t id = layout_->idOf(name);
    // A bound layout's names are never loose.
    if (id != ParamLayout::kNoId) return written(id) ? &words_[id] : nullptr;
  }
  const auto it = loose_.find(name);
  return it == loose_.end() ? nullptr : &it->second;
}

std::uint64_t ParamFrame::at(std::string_view name) const {
  const std::uint64_t* v = lookup(name);
  if (v == nullptr) {
    throw std::out_of_range("ParamFrame::at: no param " + std::string(name));
  }
  return *v;
}

std::uint64_t& ParamFrame::operator[](std::string_view name) {
  if (layout_ != nullptr) {
    const std::uint32_t id = layout_->idOf(name);
    if (id != ParamLayout::kNoId) {
      words_[n_ + (id >> 6)] |= std::uint64_t{1} << (id & 63);
      return words_[id];
    }
  }
  return loose_[name];
}

std::size_t ParamFrame::size() const {
  std::size_t n = loose_.size();
  for (std::size_t w = n_; w < words_.size(); ++w) {
    n += static_cast<std::size_t>(std::popcount(words_[w]));
  }
  return n;
}

bool ParamFrame::operator==(const ParamFrame& other) const {
  if (layout_ != nullptr && other.layout_ != nullptr &&
      layout_->sameNames(*other.layout_)) {
    return words_ == other.words_ && loose_ == other.loose_;
  }
  if (size() != other.size()) return false;
  const auto has = [&](std::string_view name, std::uint64_t v) {
    const std::uint64_t* o = other.lookup(name);
    return o != nullptr && *o == v;
  };
  for (std::uint32_t id = 0; id < n_; ++id) {
    if (written(id) && !has(layout_->name(id), words_[id])) return false;
  }
  for (const auto& [name, v] : loose_) {
    if (!has(name, v)) return false;
  }
  return true;
}

void ParamFrame::rebind(const std::shared_ptr<const ParamLayout>& layout) {
  if (layout_ != nullptr && layout != nullptr && layout_->sameNames(*layout)) {
    layout_ = layout;
    return;
  }
  // Remap by name: every written name moves to the new layout's id, or
  // stays loose when the new layout does not know it.
  const auto old_layout = std::move(layout_);
  const std::uint32_t old_n = n_;
  const auto old_words = std::move(words_);
  ValueMap old_loose = std::move(loose_);
  loose_.clear();
  layout_ = layout;
  n_ = layout_ != nullptr ? layout_->size() : 0;
  words_.assign(n_ + (n_ + 63) / 64, 0);
  const auto put = [&](std::string_view name, std::uint64_t v) {
    const std::uint32_t id =
        layout_ != nullptr ? layout_->idOf(name) : ParamLayout::kNoId;
    if (id != ParamLayout::kNoId) {
      setId(id, v);
    } else {
      loose_.set(name, v);
    }
  };
  for (std::uint32_t id = 0; id < old_n; ++id) {
    if (((old_words[old_n + (id >> 6)] >> (id & 63)) & 1) != 0) {
      put(old_layout->name(id), old_words[id]);
    }
  }
  for (const auto& [name, v] : old_loose) put(name, v);
}

}  // namespace clickinc::ir

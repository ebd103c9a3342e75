#include "crf/core/max_predictor.h"

#include <algorithm>

#include "crf/util/byte_io.h"
#include "crf/util/check.h"

namespace crf {

namespace {
constexpr uint8_t kStateTag = 'M';
}  // namespace

MaxPredictor::MaxPredictor(std::vector<std::unique_ptr<PeakPredictor>> components)
    : components_(std::move(components)) {
  CRF_CHECK(!components_.empty());
  for (const auto& component : components_) {
    CRF_CHECK(component != nullptr);
  }
}

void MaxPredictor::Observe(Interval now, std::span<const TaskSample> tasks,
                           const RosterDelta& delta) {
  for (auto& component : components_) {
    component->Observe(now, tasks, delta);
  }
}

double MaxPredictor::PredictPeak() const {
  double peak = 0.0;
  for (const auto& component : components_) {
    peak = std::max(peak, component->PredictPeak());
  }
  return peak;
}

void MaxPredictor::Reset() {
  for (auto& component : components_) {
    component->Reset();
  }
}

bool MaxPredictor::SaveState(ByteWriter& out) const {
  out.Write<uint8_t>(kStateTag);
  out.Write<uint64_t>(components_.size());
  for (const auto& component : components_) {
    if (!component->SaveState(out)) {
      return false;
    }
  }
  return true;
}

bool MaxPredictor::LoadState(ByteReader& in, size_t roster_size) {
  const uint8_t tag = in.Read<uint8_t>();
  const uint64_t count = in.Read<uint64_t>();
  if (!in.ok() || tag != kStateTag || count != components_.size()) {
    in.Fail();
    return false;
  }
  for (auto& component : components_) {
    if (!component->LoadState(in, roster_size)) {
      return false;
    }
  }
  return true;
}

std::string MaxPredictor::name() const {
  std::string out = "max(";
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += components_[i]->name();
  }
  out += ")";
  return out;
}

}  // namespace crf

#include "crf/core/predictor.h"

#include <algorithm>

#include "crf/util/byte_io.h"

namespace crf {

double ClampPrediction(double raw, double usage_now, double limit_sum) {
  return std::clamp(raw, std::min(usage_now, limit_sum), limit_sum);
}

bool PeakPredictor::SaveState(ByteWriter& /*out*/) const { return false; }

bool PeakPredictor::LoadState(ByteReader& in, size_t /*roster_size*/) {
  in.Fail();
  return false;
}

}  // namespace crf

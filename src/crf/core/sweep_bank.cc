#include "crf/core/sweep_bank.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "crf/core/roster_slots.h"
#include "crf/util/check.h"

namespace crf {

namespace {

uint64_t NextPlanId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

SweepPlan::SweepPlan(std::span<const PredictorSpec> specs) : id_(NextPlanId()) {
  spec_nodes_.reserve(specs.size());
  for (const PredictorSpec& spec : specs) {
    // Runs the factory's full validation (knob ranges, non-empty max
    // components) so a plan accepts exactly the specs CreatePredictor does.
    CreatePredictor(spec);
    spec_nodes_.push_back(AddNode(spec));
  }
}

int SweepPlan::AddNode(const PredictorSpec& spec) {
  for (size_t i = 0; i < node_specs_.size(); ++i) {
    if (node_specs_[i] == spec) {
      return static_cast<int>(i);
    }
  }
  Node node;
  node.type = spec.type;
  switch (spec.type) {
    case PredictorSpec::Type::kLimitSum:
      break;
    case PredictorSpec::Type::kBorgDefault:
      node.phi = spec.phi;
      break;
    case PredictorSpec::Type::kRcLike:
      node.percentile = spec.percentile;
      node.min_num_samples = spec.config.min_num_samples;
      node.window_group = AddWindowGroup(spec.config.max_num_samples);
      break;
    case PredictorSpec::Type::kAutopilot:
      node.percentile = spec.percentile;
      node.margin = spec.margin;
      node.min_num_samples = spec.config.min_num_samples;
      node.window_group = AddWindowGroup(spec.config.max_num_samples);
      break;
    case PredictorSpec::Type::kNSigma:
      node.n_sigma = spec.n_sigma;
      node.min_num_samples = spec.config.min_num_samples;
      node.agg_group = AddAggGroup(spec.config.min_num_samples, spec.config.max_num_samples);
      break;
    case PredictorSpec::Type::kChance:
      node.target = spec.target;
      node.min_num_samples = spec.config.min_num_samples;
      node.quant_group =
          AddQuantGroup(spec.config.min_num_samples, spec.config.max_num_samples);
      break;
    case PredictorSpec::Type::kFlex:
      node.percentile = spec.percentile;
      node.margin = spec.margin;
      node.min_num_samples = spec.config.min_num_samples;
      node.ratio_group = AddRatioGroup(spec.config.max_num_samples);
      break;
    case PredictorSpec::Type::kMax:
      node.components.reserve(spec.components.size());
      for (const PredictorSpec& component : spec.components) {
        node.components.push_back(AddNode(component));
      }
      break;
  }
  nodes_.push_back(std::move(node));
  node_specs_.push_back(spec);
  return static_cast<int>(nodes_.size()) - 1;
}

int SweepPlan::AddWindowGroup(int capacity) {
  for (size_t i = 0; i < window_groups_.size(); ++i) {
    if (window_groups_[i].capacity == capacity) {
      return static_cast<int>(i);
    }
  }
  window_groups_.push_back(WindowGroup{capacity});
  return static_cast<int>(window_groups_.size()) - 1;
}

int SweepPlan::AddAggGroup(Interval min_num_samples, int capacity) {
  for (size_t i = 0; i < agg_groups_.size(); ++i) {
    if (agg_groups_[i].min_num_samples == min_num_samples &&
        agg_groups_[i].capacity == capacity) {
      return static_cast<int>(i);
    }
  }
  agg_groups_.push_back(AggGroup{min_num_samples, capacity});
  return static_cast<int>(agg_groups_.size()) - 1;
}

int SweepPlan::AddQuantGroup(Interval min_num_samples, int capacity) {
  for (size_t i = 0; i < quant_groups_.size(); ++i) {
    if (quant_groups_[i].min_num_samples == min_num_samples &&
        quant_groups_[i].capacity == capacity) {
      return static_cast<int>(i);
    }
  }
  quant_groups_.push_back(QuantGroup{min_num_samples, capacity});
  return static_cast<int>(quant_groups_.size()) - 1;
}

int SweepPlan::AddRatioGroup(int capacity) {
  for (size_t i = 0; i < ratio_groups_.size(); ++i) {
    if (ratio_groups_[i].capacity == capacity) {
      return static_cast<int>(i);
    }
  }
  ratio_groups_.push_back(RatioGroup{capacity});
  return static_cast<int>(ratio_groups_.size()) - 1;
}

void SweepBank::Attach(const SweepPlan* plan) {
  CRF_CHECK(plan != nullptr);
  plan_ = plan;

  window_groups_.clear();
  window_groups_.resize(plan->window_groups().size());

  agg_windows_.clear();
  agg_windows_.reserve(plan->agg_groups().size());
  for (const SweepPlan::AggGroup& group : plan->agg_groups()) {
    agg_windows_.emplace_back(group.capacity);
  }
  const size_t num_agg = plan->agg_groups().size();
  agg_warmed_.assign(num_agg, 0.0);
  agg_warming_limit_.assign(num_agg, 0.0);
  agg_mean_.assign(num_agg, 0.0);
  agg_stddev_.assign(num_agg, 0.0);

  quant_windows_.clear();
  quant_windows_.reserve(plan->quant_groups().size());
  for (const SweepPlan::QuantGroup& group : plan->quant_groups()) {
    quant_windows_.emplace_back(group.capacity);
  }
  const size_t num_quant = plan->quant_groups().size();
  quant_warmed_.assign(num_quant, 0.0);
  quant_warming_limit_.assign(num_quant, 0.0);

  ratio_windows_.clear();
  ratio_windows_.reserve(plan->ratio_groups().size());
  for (const SweepPlan::RatioGroup& group : plan->ratio_groups()) {
    ratio_windows_.emplace_back(group.capacity);
  }

  per_task_nodes_.clear();
  for (int n = 0; n < plan->num_nodes(); ++n) {
    const SweepPlan::Node& node = plan->nodes()[n];
    if (node.type == PredictorSpec::Type::kRcLike ||
        node.type == PredictorSpec::Type::kAutopilot) {
      per_task_nodes_.push_back(n);
    }
  }

  node_values_.assign(plan->num_nodes(), 0.0);
  spec_predictions_.assign(plan->num_specs(), 0.0);

  samples_seen_.clear();
}

void SweepBank::BeginMachine() {
  CRF_CHECK(plan_ != nullptr);
  samples_seen_.clear();
  for (WindowGroupState& group : window_groups_) {
    ReleaseAllWindows(group.windows, group.spare);  // Clear keeps their storage.
  }
  for (AggregateWindow& window : agg_windows_) {
    window.Reset();
  }
  for (IndexableWindow& window : quant_windows_) {
    window.Clear();
  }
  for (IndexableWindow& window : ratio_windows_) {
    window.Clear();
  }
  std::fill(node_values_.begin(), node_values_.end(), 0.0);
  std::fill(spec_predictions_.begin(), spec_predictions_.end(), 0.0);
}

void SweepBank::Observe(Interval /*now*/, std::span<const TaskSample> tasks,
                        const RosterDelta& delta) {
  CRF_CHECK(plan_ != nullptr);
  ApplyRosterDelta(samples_seen_, delta, tasks.size(), Interval{0});
  for (size_t g = 0; g < window_groups_.size(); ++g) {
    ApplyRosterDelta(window_groups_[g].windows, window_groups_[g].spare, delta, tasks.size(),
                     plan_->window_groups()[g].capacity);
  }

  const std::vector<SweepPlan::Node>& nodes = plan_->nodes();

  double usage_now = 0.0;
  double limit_sum = 0.0;
  for (const int n : per_task_nodes_) {
    node_values_[n] = 0.0;
  }
  std::fill(agg_warmed_.begin(), agg_warmed_.end(), 0.0);
  std::fill(agg_warming_limit_.begin(), agg_warming_limit_.end(), 0.0);
  std::fill(quant_warmed_.begin(), quant_warmed_.end(), 0.0);
  std::fill(quant_warming_limit_.begin(), quant_warming_limit_.end(), 0.0);

  for (size_t i = 0; i < tasks.size(); ++i) {
    const TaskSample& sample = tasks[i];
    usage_now += sample.usage;
    limit_sum += sample.limit;
    const Interval seen = ++samples_seen_[i];

    // One window push per distinct history length serves every percentile
    // query against that window.
    for (WindowGroupState& group : window_groups_) {
      group.windows[i].Push(static_cast<float>(sample.usage));
    }

    for (const int n : per_task_nodes_) {
      const SweepPlan::Node& node = nodes[n];
      // size() >= min ⟺ seen >= min: the window holds min(seen, capacity)
      // samples and min_num_samples <= capacity by construction.
      if (seen >= node.min_num_samples) {
        const double percentile =
            window_groups_[node.window_group].windows[i].Percentile(node.percentile);
        node_values_[n] += node.type == PredictorSpec::Type::kAutopilot
                               ? std::min(sample.limit, node.margin * percentile)
                               : percentile;
      } else {
        node_values_[n] += sample.limit;  // Warm-up: represent by the limit.
      }
    }

    for (size_t g = 0; g < agg_windows_.size(); ++g) {
      if (seen >= plan_->agg_groups()[g].min_num_samples) {
        agg_warmed_[g] += sample.usage;
      } else {
        agg_warming_limit_[g] += sample.limit;
      }
    }

    for (size_t g = 0; g < quant_windows_.size(); ++g) {
      if (seen >= plan_->quant_groups()[g].min_num_samples) {
        quant_warmed_[g] += sample.usage;
      } else {
        quant_warming_limit_[g] += sample.limit;
      }
    }
  }

  for (size_t g = 0; g < agg_windows_.size(); ++g) {
    agg_windows_[g].Push(agg_warmed_[g]);
    // Mean before Stddev: Stddev may refresh the running moments, and the
    // published mean must be the one the variance was computed against
    // (mirrors NSigmaPredictor::Observe).
    agg_mean_[g] = agg_windows_[g].Mean();
    agg_stddev_[g] = agg_windows_[g].Stddev();
  }

  // Chance pushes the warmed aggregate unconditionally (idle intervals are
  // real observations); flex only sees occupied polls (0/0 has no gap) —
  // both mirror their standalone predictors exactly.
  for (size_t g = 0; g < quant_windows_.size(); ++g) {
    quant_windows_[g].Push(static_cast<float>(quant_warmed_[g]));
  }
  if (limit_sum > 0.0) {
    for (IndexableWindow& window : ratio_windows_) {
      window.Push(static_cast<float>(usage_now / limit_sum));
    }
  }

  for (int n = 0; n < plan_->num_nodes(); ++n) {
    const SweepPlan::Node& node = nodes[n];
    switch (node.type) {
      case PredictorSpec::Type::kLimitSum:
        node_values_[n] = limit_sum;  // Unclamped, like LimitSumPredictor.
        break;
      case PredictorSpec::Type::kBorgDefault:
        node_values_[n] = ClampPrediction(node.phi * limit_sum, usage_now, limit_sum);
        break;
      case PredictorSpec::Type::kRcLike:
      case PredictorSpec::Type::kAutopilot:
        node_values_[n] = ClampPrediction(node_values_[n], usage_now, limit_sum);
        break;
      case PredictorSpec::Type::kNSigma:
        node_values_[n] =
            ClampPrediction(agg_mean_[node.agg_group] +
                                node.n_sigma * agg_stddev_[node.agg_group] +
                                agg_warming_limit_[node.agg_group],
                            usage_now, limit_sum);
        break;
      case PredictorSpec::Type::kChance:
        node_values_[n] = ClampPrediction(
            quant_windows_[node.quant_group].Percentile((1.0 - node.target) * 100.0) +
                quant_warming_limit_[node.quant_group],
            usage_now, limit_sum);
        break;
      case PredictorSpec::Type::kFlex: {
        const IndexableWindow& ratios = ratio_windows_[node.ratio_group];
        const double phi = ratios.size() >= node.min_num_samples
                               ? std::min(1.0, node.margin * ratios.Percentile(node.percentile))
                               : 1.0;
        node_values_[n] = ClampPrediction(phi * limit_sum, usage_now, limit_sum);
        break;
      }
      case PredictorSpec::Type::kMax: {
        double peak = 0.0;  // MaxPredictor folds from 0.0.
        for (const int c : node.components) {
          peak = std::max(peak, node_values_[c]);
        }
        node_values_[n] = peak;
        break;
      }
    }
  }

  for (int s = 0; s < plan_->num_specs(); ++s) {
    spec_predictions_[s] = node_values_[plan_->spec_node(s)];
  }
}

}  // namespace crf

#include "crf/cluster/sharded_scheduler.h"

#include <algorithm>
#include <limits>

#include "crf/util/check.h"

namespace crf {
namespace {

// Under best fit, a request that this many or fewer machines of its home
// shard can hold skips the shard phase and is placed cell-wide in phase 3.
constexpr int kScarceFitMachines = 3;

}  // namespace

ShardedScheduler::ShardedScheduler(const ShardedSchedulerOptions& options, const Rng& rng)
    : options_(options) {
  CRF_CHECK_GE(options_.num_shards, 1);
  CRF_CHECK_GE(options_.rebalance_interval, 1);
  shards_.reserve(options_.num_shards);
  for (int s = 0; s < options_.num_shards; ++s) {
    // Forked by shard index: decision streams depend on (seed, num_shards)
    // only, never on thread count.
    shards_.push_back(std::make_unique<Shard>(
        options_.packing, options_.engine,
        rng.Fork(0x73686100ULL + static_cast<uint64_t>(s))));  // "sha" + s
  }
  tried_.assign(options_.num_shards, 0);
}

void ShardedScheduler::Reset(int num_machines) {
  CRF_CHECK_GE(num_machines, 0);
  num_machines_ = num_machines;
  shard_of_.assign(num_machines, 0);
  nonempty_.clear();
  const int64_t S = static_cast<int64_t>(shards_.size());
  for (int s = 0; s < static_cast<int>(S); ++s) {
    Shard& shard = *shards_[s];
    shard.base = static_cast<int>(static_cast<int64_t>(num_machines) * s / S);
    const int end = static_cast<int>(static_cast<int64_t>(num_machines) * (s + 1) / S);
    shard.count = end - shard.base;
    shard.core.Reset(shard.count);
    for (int m = shard.base; m < end; ++m) {
      shard_of_[m] = s;
    }
    if (shard.count > 0) {
      nonempty_.push_back(s);
    }
  }
  RefreshSummaries();
}

void ShardedScheduler::PublishAll(std::span<const double> free_capacity) {
  CRF_CHECK_EQ(static_cast<int>(free_capacity.size()), num_machines_);
  const auto ingest = [&](int, int begin, int end) {
    for (int k = begin; k < end; ++k) {
      Shard& shard = *shards_[nonempty_[k]];
      for (int i = 0; i < shard.count; ++i) {
        shard.core.Publish(i, free_capacity[shard.base + i]);
      }
    }
  };
  ThreadPool* pool = options_.pool != nullptr ? options_.pool : &ThreadPool::Default();
  const int n = static_cast<int>(nonempty_.size());
  if (options_.parallel && n > 1 && pool->num_threads() > 1) {
    pool->ParallelForRanges(n, 1, ingest);
  } else {
    ingest(0, 0, n);
  }
  RefreshSummaries();
}

void ShardedScheduler::Publish(int machine, double free) {
  CRF_CHECK_GE(machine, 0);
  CRF_CHECK_LT(machine, num_machines_);
  Shard& shard = *shards_[shard_of_[machine]];
  shard.core.Publish(machine - shard.base, free);
}

double ShardedScheduler::free_capacity(int machine) const {
  const Shard& shard = *shards_[shard_of_[machine]];
  return shard.core.free_capacity(machine - shard.base);
}

double ShardedScheduler::TotalFreeCapacity() const {
  double total = 0.0;
  for (const int s : nonempty_) {
    const Shard& shard = *shards_[s];
    for (int i = 0; i < shard.count; ++i) {
      total += shard.core.free_capacity(i);
    }
  }
  return total;
}

void ShardedScheduler::RefreshSummaries() {
  for (const int s : nonempty_) {
    shards_[s]->max_free_summary = shards_[s]->core.MaxFree();
  }
  steal_order_ = nonempty_;
  std::stable_sort(steal_order_.begin(), steal_order_.end(), [this](int a, int b) {
    return shards_[a]->max_free_summary > shards_[b]->max_free_summary;
  });
  ++rebalances_;
}

int ShardedScheduler::PlaceOnShard(Shard& shard, const Request& request) {
  const std::vector<int>* exclude = nullptr;
  if (request.job_machines != nullptr && !request.job_machines->empty()) {
    shard.exclude_local.clear();
    for (const int g : *request.job_machines) {
      if (g >= shard.base && g < shard.base + shard.count) {
        shard.exclude_local.push_back(g - shard.base);
      }
    }
    if (!shard.exclude_local.empty()) {
      exclude = &shard.exclude_local;
    }
  }
  const int local = shard.core.Place(request.limit, exclude);
  if (local < 0) {
    return -1;
  }
  const int global = shard.base + local;
  if (request.job_machines != nullptr) {
    request.job_machines->push_back(global);
  }
  return global;
}

int ShardedScheduler::HomeShard(const Request& request) const {
  return nonempty_[request.affinity_key % nonempty_.size()];
}

int ShardedScheduler::PlaceOnTightestShard(const Request& request) {
  int best = -1;
  double tightest = std::numeric_limits<double>::infinity();
  for (const int t : nonempty_) {
    const double fit = shards_[t]->core.TightestFit(request.limit);
    if (fit < tightest) {
      tightest = fit;
      best = t;
    }
  }
  // Some machine of the chosen shard fits, so the core's fallback pass that
  // ignores anti-affinity cannot come back empty.
  return best >= 0 ? PlaceOnShard(*shards_[best], request) : -1;
}

int ShardedScheduler::StealBySummaries(int home, const Request& request) {
  std::fill(tried_.begin(), tried_.end(), static_cast<uint8_t>(0));
  tried_[home] = 1;  // the shard phase already tried it
  for (const int t : steal_order_) {
    if (tried_[t] || shards_[t]->max_free_summary < request.limit) {
      continue;
    }
    tried_[t] = 1;
    const int machine = PlaceOnShard(*shards_[t], request);
    if (machine >= 0) {
      return machine;
    }
  }
  for (const int t : steal_order_) {
    if (tried_[t]) {
      continue;
    }
    const int machine = PlaceOnShard(*shards_[t], request);
    if (machine >= 0) {
      return machine;
    }
  }
  return -1;
}

void ShardedScheduler::PlaceBatch(std::span<const Request> requests, std::span<int> results) {
  CRF_CHECK_EQ(requests.size(), results.size());
  ++batches_;
  const bool rebalance_due = batches_ % options_.rebalance_interval == 0;
  for (size_t i = 0; i < results.size(); ++i) {
    results[i] = -1;
  }
  if (requests.empty() || nonempty_.empty()) {
    if (rebalance_due && !nonempty_.empty()) {
      RefreshSummaries();
    }
    return;
  }

  // Phase 1 (serial): route each request to its home shard. Equal affinity
  // keys — the tasks of one job — land on one shard, so the shard phase
  // evaluates their anti-affinity exclusions in sequence.
  for (const int s : nonempty_) {
    shards_[s]->routed.clear();
    shards_[s]->overflow.clear();
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    shards_[HomeShard(requests[i])]->routed.push_back(static_cast<int>(i));
  }

  // Phase 2 (parallel): each shard places its routed subsequence against its
  // private treap. Writes go to the shard's own state and to distinct
  // results[i] slots only. Under best fit, a request that at most
  // kScarceFitMachines local machines can hold is deferred to phase 3
  // unplaced: its local best fit would spend one of the shard's last large
  // holes, where the cell as a whole may have a tighter one.
  const bool defer_scarce = options_.packing == PackingPolicy::kBestFit && nonempty_.size() > 1;
  const auto shard_phase = [&](int, int begin, int end) {
    for (int k = begin; k < end; ++k) {
      Shard& shard = *shards_[nonempty_[k]];
      for (const int i : shard.routed) {
        if (defer_scarce && shard.core.CountFeasible(requests[i].limit) <= kScarceFitMachines) {
          shard.overflow.push_back(i);
          continue;
        }
        const int machine = PlaceOnShard(shard, requests[i]);
        if (machine >= 0) {
          results[i] = machine;
        } else {
          shard.overflow.push_back(i);
        }
      }
    }
  };
  ThreadPool* pool = options_.pool != nullptr ? options_.pool : &ThreadPool::Default();
  const int n = static_cast<int>(nonempty_.size());
  if (options_.parallel && n > 1 && pool->num_threads() > 1) {
    pool->ParallelForRanges(n, 1, shard_phase);
  } else {
    shard_phase(0, 0, n);
  }

  // Phase 3 (serial, batch order): the requests every shard passed on are
  // served oldest first, as the global scheduler's queue drain serves them.
  // Under best fit each goes to the shard holding the cell's tightest fit.
  // Other policies steal by the summaries, richest first; that walk is only
  // a fast path, and every remaining shard is tried before a request fails.
  // Either way a request fails only when no shard can place it.
  overflow_.clear();
  for (const int s : nonempty_) {
    overflow_.insert(overflow_.end(), shards_[s]->overflow.begin(), shards_[s]->overflow.end());
  }
  std::sort(overflow_.begin(), overflow_.end());
  for (const int i : overflow_) {
    const Request& request = requests[i];
    const int home = HomeShard(request);
    const int machine = options_.packing == PackingPolicy::kBestFit
                            ? PlaceOnTightestShard(request)
                            : StealBySummaries(home, request);
    if (machine >= 0) {
      results[i] = machine;
      if (shard_of_[machine] != home) {
        ++stolen_placements_;
      }
    }
  }

  if (rebalance_due) {
    RefreshSummaries();
  }
}

int ShardedScheduler::Place(double limit, std::vector<int>* job_machines,
                            uint64_t affinity_key) {
  const Request request{limit, job_machines, affinity_key};
  int result = -1;
  PlaceBatch(std::span<const Request>(&request, 1), std::span<int>(&result, 1));
  return result;
}

}  // namespace crf

#include "crf/sim/simulator.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crf/sim/sim_workspace.h"
#include "crf/trace/machine_events.h"
#include "crf/util/check.h"
#include "crf/util/thread_pool.h"

namespace crf {
namespace {

// The oracle depends only on (cell, machine, horizon, kind): take the shared
// memoized series when a cache is supplied, otherwise compute into the
// workspace buffers. `cached` keeps the memo alive for the caller's pass.
std::span<const double> FetchOracle(const CellTrace& cell, int machine_index,
                                    const SimOptions& options, SimWorkspace& ws,
                                    OracleCache::Series& cached) {
  const OracleKind kind =
      options.use_total_usage_oracle ? OracleKind::kTotalUsage : OracleKind::kPeak;
  if (options.oracle_cache != nullptr) {
    cached = options.oracle_cache->GetOrCompute(cell, machine_index, options.horizon, kind);
    return *cached;
  }
  if (options.use_total_usage_oracle) {
    ComputeTotalUsageOracleInto(cell, machine_index, options.horizon, ws.oracle_scratch,
                                ws.oracle);
  } else {
    ComputePeakOracleInto(cell, machine_index, options.horizon, ws.oracle_scratch, ws.oracle);
  }
  return ws.oracle;
}

// One predictor seen through the SweepBank interface: a one-spec bank.
struct PredictorObserver {
  PeakPredictor& predictor;
  double prediction = 0.0;

  void Observe(Interval tau, std::span<const TaskSample> samples, const RosterDelta& delta) {
    predictor.Observe(tau, samples, delta);
    prediction = predictor.PredictPeak();
  }
  std::span<const double> Predictions() const { return {&prediction, 1}; }
};

// The one per-machine tick loop of the batch engines. The workspace's
// MachineRoster keeps the resident set and its limit sum; each tick the
// resident samples and the roster change go to `observer` (a PeakPredictor
// or a SweepBank), and
// each of its `num_series` predictions is scored by one RiskAccumulator and,
// when `cell_predictions` is non-empty, summed into cell_predictions[s].
// Returns the machine's accumulators (workspace-owned, valid until the
// thread's next machine).
template <typename Observer>
std::span<const RiskAccumulator> RunMachine(const CellTrace& cell, int machine_index,
                                            const SimOptions& options, Observer& observer,
                                            int num_series, std::vector<double>* cell_limit,
                                            std::span<std::vector<double>> cell_predictions) {
  SimWorkspace& ws = SimWorkspace::ThreadLocal();
  OracleCache::Series cached;
  const std::span<const double> oracle = FetchOracle(cell, machine_index, options, ws, cached);

  if (ws.risk.size() < static_cast<size_t>(num_series)) {
    ws.risk.resize(num_series);
  }
  const std::span<RiskAccumulator> risk(ws.risk.data(), num_series);
  for (RiskAccumulator& accumulator : risk) {
    accumulator.Reset();
  }

  const MachineTaskColumns cols(cell);
  MachineRoster& roster = ws.roster;
  roster.Reset(cols, cell.machine_tasks(machine_index));
  std::vector<TaskSample>& samples = ws.samples;

  for (Interval tau = 0; tau < cell.num_intervals; ++tau) {
    roster.Advance(tau);
    samples.clear();
    for (const int32_t index : roster.active()) {
      samples.push_back({cols.id[index], cols.UsageAt(index, tau), cols.limit[index]});
    }

    observer.Observe(tau, samples,
                     RosterDelta{roster.departed_positions(),
                                 static_cast<int32_t>(roster.arrived().size())});
    const std::span<const double> predictions = observer.Predictions();
    const double limit_sum = roster.limit_sum();
    const bool occupied = !roster.active().empty();
    if (cell_limit != nullptr) {
      (*cell_limit)[tau] += limit_sum;
    }
    for (int s = 0; s < num_series; ++s) {
      risk[s].Record(predictions[s], oracle[tau], limit_sum, occupied);
      if (!cell_predictions.empty()) {
        cell_predictions[s][tau] += predictions[s];
      }
    }
  }
  return risk;
}

MachineMetrics SimulateMachineWith(PeakPredictor& predictor, const CellTrace& cell,
                                   int machine_index, const SimOptions& options,
                                   std::vector<double>* cell_limit,
                                   std::vector<double>* cell_prediction) {
  PredictorObserver observer{predictor};
  const std::span<const RiskAccumulator> risk =
      RunMachine(cell, machine_index, options, observer, 1, cell_limit,
                 cell_prediction != nullptr ? std::span(cell_prediction, 1)
                                            : std::span<std::vector<double>>());
  MachineMetrics metrics;
  FinalizeMachineMetrics(risk[0], machine_index, cell.num_intervals, metrics);
  return metrics;
}

// Runs `run_machine(slot, machine, limit, predictions)` for every machine of
// `cell` into per-thread partial series — one limit series and `num_series`
// prediction series per pool slot — reduced once after the join (no mutex
// and no O(T) merge per machine). The limit series is spec-independent, so
// one per slot. Returns one cell savings series per prediction series.
std::vector<std::vector<double>> RunCell(
    const CellTrace& cell, int num_series, const SimOptions& options,
    const std::function<void(int, int, std::vector<double>*, std::span<std::vector<double>>)>&
        run_machine) {
  CRF_CHECK_GT(cell.num_intervals, 0);
  const Interval num_intervals = cell.num_intervals;
  ThreadPool& pool = ThreadPool::Default();
  const int slots = options.parallel ? pool.num_threads() : 1;
  std::vector<std::vector<double>> limit_slots(slots);
  std::vector<std::vector<std::vector<double>>> prediction_slots(slots);

  auto run_slot = [&](int slot, int m) {
    if (limit_slots[slot].empty()) {
      limit_slots[slot].assign(num_intervals, 0.0);
      prediction_slots[slot].assign(num_series, std::vector<double>(num_intervals, 0.0));
    }
    run_machine(slot, m, &limit_slots[slot], prediction_slots[slot]);
  };
  if (options.parallel) {
    pool.ParallelForIndexed(cell.num_machines(), run_slot);
  } else {
    for (int m = 0; m < cell.num_machines(); ++m) {
      run_slot(0, m);
    }
  }

  std::vector<double> cell_limit(num_intervals, 0.0);
  for (int slot = 0; slot < slots; ++slot) {
    for (Interval t = 0; t < static_cast<Interval>(limit_slots[slot].size()); ++t) {
      cell_limit[t] += limit_slots[slot][t];
    }
  }
  std::vector<std::vector<double>> savings(num_series);
  std::vector<double> cell_prediction(num_intervals);
  for (int s = 0; s < num_series; ++s) {
    std::fill(cell_prediction.begin(), cell_prediction.end(), 0.0);
    for (int slot = 0; slot < slots; ++slot) {
      if (prediction_slots[slot].empty()) {
        continue;
      }
      for (Interval t = 0; t < num_intervals; ++t) {
        cell_prediction[t] += prediction_slots[slot][s][t];
      }
    }
    savings[s] = CellSavingsSeries(cell_limit, cell_prediction);
  }
  return savings;
}

// SimulateCell for any predictor source: `predictor_for(slot)` returns the
// pool slot's predictor, reset for a new machine.
SimResult SimulateCellWith(const CellTrace& cell, std::string predictor_name,
                           const SimOptions& options,
                           const std::function<PeakPredictor&(int)>& predictor_for) {
  SimResult result;
  result.cell_name = cell.name;
  result.predictor_name = std::move(predictor_name);
  result.machines.resize(cell.num_machines());
  std::vector<std::vector<double>> savings =
      RunCell(cell, 1, options,
              [&](int slot, int m, std::vector<double>* limit,
                  std::span<std::vector<double>> predictions) {
                result.machines[m] = SimulateMachineWith(predictor_for(slot), cell, m, options,
                                                         limit, &predictions[0]);
              });
  result.cell_savings_series = std::move(savings[0]);
  return result;
}

}  // namespace

MachineMetrics SimulateMachine(const CellTrace& cell, int machine_index,
                               const PredictorSpec& spec, const SimOptions& options,
                               std::vector<double>* cell_limit,
                               std::vector<double>* cell_prediction) {
  return SimulateMachineWith(*SimWorkspace::ThreadLocal().GetPredictor(spec), cell,
                             machine_index, options, cell_limit, cell_prediction);
}

SimResult SimulateCell(const CellTrace& cell, const PredictorSpec& spec,
                       const SimOptions& options) {
  return SimulateCellWith(cell, spec.Name(), options, [&spec](int) -> PeakPredictor& {
    return *SimWorkspace::ThreadLocal().GetPredictor(spec);
  });
}

SimResult SimulateCell(const CellTrace& cell, const PredictorFactory& factory,
                       const SimOptions& options) {
  const int slots = options.parallel ? ThreadPool::Default().num_threads() : 1;
  std::vector<std::unique_ptr<PeakPredictor>> predictors(slots);
  return SimulateCellWith(cell, factory()->name(), options, [&](int slot) -> PeakPredictor& {
    std::unique_ptr<PeakPredictor>& predictor = predictors[slot];
    if (predictor == nullptr) {
      predictor = factory();
    } else {
      predictor->Reset();
    }
    return *predictor;
  });
}

std::vector<SimResult> SimulateCellMulti(const CellTrace& cell,
                                         std::span<const PredictorSpec> specs,
                                         const SimOptions& options) {
  CRF_CHECK_GT(cell.num_intervals, 0);
  if (specs.empty()) {
    return {};
  }
  // One trace pass per machine for the whole grid: the SweepBank answers
  // every spec per tick.
  const SweepPlan plan(specs);
  const int num_specs = plan.num_specs();
  std::vector<SimResult> results(num_specs);
  for (int s = 0; s < num_specs; ++s) {
    results[s].cell_name = cell.name;
    results[s].predictor_name = specs[s].Name();
    results[s].machines.resize(cell.num_machines());
  }
  std::vector<std::vector<double>> savings =
      RunCell(cell, num_specs, options,
              [&](int /*slot*/, int m, std::vector<double>* limit,
                  std::span<std::vector<double>> predictions) {
                SweepBank& bank = SimWorkspace::ThreadLocal().GetSweepBank(plan);
                bank.BeginMachine();
                const std::span<const RiskAccumulator> risk =
                    RunMachine(cell, m, options, bank, num_specs, limit, predictions);
                for (int s = 0; s < num_specs; ++s) {
                  FinalizeMachineMetrics(risk[s], m, cell.num_intervals,
                                         results[s].machines[m]);
                }
              });
  for (int s = 0; s < num_specs; ++s) {
    results[s].cell_savings_series = std::move(savings[s]);
  }
  return results;
}

}  // namespace crf

// Workload `serve_live`: the shipped `crf serve --listen` runs as a child
// process on a cell-a trace with all task classes (the mmap zero-copy path,
// with the arrival/departure churn of batch tasks). This process drives it
// over loopback:
//
//  * two ingest connections stream hour-long windows (12 ticks); client k
//    owns the shards s with s mod 2 == k, machines ascending, one frame per
//    machine per window. The clients meet at a barrier after each window,
//    because the server refuses a connection that opens the next window
//    before the cell-wide commit;
//  * one connection sends AdmissionCheck in open loop at a fixed rate to
//    seeded-random machines, each latency timed from the request's due time;
//  * the same connection then verifies the end state (MachineQuery on every
//    machine, CellQuery) against an in-process replay and sends shutdown.
//
// Every repetition starts a fresh server, so the server's start-up (trace
// load, replayer construction, listen) and hello are the set-up time.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench_util.h"
#include "crf/core/predictor_factory.h"
#include "crf/core/spec_parser.h"
#include "crf/net/client.h"
#include "crf/serve/event_log.h"
#include "crf/serve/replay.h"
#include "crf/trace/trace_io.h"
#include "crf/util/byte_io.h"
#include "crf/util/thread_pool.h"

extern char** environ;

namespace perfbench {
namespace {

using crf::CellTrace;
using crf::Interval;

constexpr int kShards = 16;
constexpr Interval kWindowTicks = crf::kIntervalsPerHour;
// Open-loop admission rate. At this rate a stall of the server's shard locks
// shows in the tail within one run, and the generator stays far below the
// server's capacity.
constexpr double kAdmissionPerSecond = 2000.0;
constexpr double kAdmissionTaskLimit = 0.05;
constexpr double kServerStartTimeout = 60.0;
constexpr double kServerExitTimeout = 60.0;
// Server start-up is short next to a repetition, so it is timed this many
// times before the measured phase and reported as a median.
constexpr int kSetupSamples = 10;

// A `crf serve --listen` child process. The destructor kills and reaps a
// server that is still running, so no exit path leaves one behind.
class ServerProcess {
 public:
  ServerProcess(const RunConfig& config, const std::string& spec_text, const std::string& tag) {
    port_file_ = config.work_dir + "/server_" + tag + ".port";
    std::filesystem::remove(port_file_);
    const std::string log = config.work_dir + "/server_" + tag + ".log";
    std::vector<std::string> args = {config.crf_bin,
                                     "serve",
                                     "--listen=127.0.0.1:0",
                                     "--port-file=" + port_file_,
                                     "--replay=" + config.trace_path,
                                     "--mmap",
                                     "--all-classes",
                                     "--predictor=" + spec_text,
                                     "--shards=" + std::to_string(kShards),
                                     "--max-conns=8"};
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, config.crf_bin.c_str(), &actions, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + config.crf_bin + ": " + std::strerror(rc));
    }
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }

  // Polls the port file the server writes once it listens.
  int WaitForPort() {
    const auto start = Clock::now();
    while (SecondsSince(start) < kServerStartTimeout) {
      std::ifstream in(port_file_);
      int port = 0;
      if (in >> port && port > 0) {
        port_ = port;
        return port;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("server exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    throw std::runtime_error("server did not listen within the start-up timeout");
  }

  // Waits for the server to exit after the shutdown op. Returns false if it
  // failed or hung; otherwise sets its peak resident set (MiB) and CPU time.
  bool WaitForExit(double* rss_mib, double* cpu_s) {
    const auto start = Clock::now();
    while (SecondsSince(start) < kServerExitTimeout) {
      int status = 0;
      rusage usage{};
      const pid_t done = wait4(pid_, &status, WNOHANG, &usage);
      if (done == pid_) {
        pid_ = -1;
        *rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
        *cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                 static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;  // the destructor kills it
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  std::string port_file_;
};

// What the in-process reference replay says the server must hold.
struct ExpectedState {
  Interval last_tick = -1;
  std::vector<double> prediction;
  std::vector<double> limit_sum;
  std::vector<int32_t> roster_size;
  std::vector<uint64_t> roster_hash;
  double prediction_sum = 0.0;
  double cell_limit_sum = 0.0;
};

ExpectedState ReferenceState(const CellTrace& cell, const crf::PredictorSpec& spec,
                             crf::ThreadPool& pool, Interval until) {
  crf::ReplayOptions options;
  options.num_shards = kShards;
  options.pool = &pool;
  crf::StreamReplayer replayer(cell, spec, options);
  replayer.Advance(until);
  const crf::OvercommitService& service = replayer.service();
  ExpectedState state;
  state.last_tick = until - 1;
  for (int m = 0; m < cell.num_machines(); ++m) {
    const std::span<const int32_t> roster = service.Roster(m);
    state.prediction.push_back(service.Predict(m));
    state.limit_sum.push_back(service.LimitSum(m));
    state.roster_size.push_back(static_cast<int32_t>(roster.size()));
    state.roster_hash.push_back(crf::Fnv1a64(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(roster.data()), roster.size() * sizeof(int32_t))));
    state.prediction_sum += service.Predict(m);
    state.cell_limit_sum += service.LimitSum(m);
  }
  return state;
}

struct IngestClientResult {
  uint64_t events = 0;
  uint64_t bytes_sent = 0;
  std::vector<double> round_trip_s;
  std::vector<double> shard_seconds;  // summed round trips, per shard
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string error;
};

struct AdmissionResult {
  std::vector<double> latency_s;
  std::vector<double> send_lag_s;
  int64_t refused = 0;
  std::string error;
};

struct RepResult {
  double ingest_s = 0.0;
  uint64_t events = 0;
  uint64_t ingest_bytes = 0;
  std::vector<double> round_trip_s;
  std::vector<double> shard_seconds;
  std::vector<double> client_wall_s;
  AdmissionResult admission;
  double server_rss_mib = 0.0;
  double server_cpu_s = 0.0;  // the server's whole life: start, ingest, verify
  double client_cpu_s = 0.0;  // the ingest clients' threads
};

// Everything one repetition needs that outlives it.
struct Shared {
  const RunConfig* config = nullptr;
  const CellTrace* cell = nullptr;
  const crf::EventLog* log = nullptr;
  std::string spec_text;
  std::string spec_name;
  ExpectedState expected;
  int ingest_clients = 2;
};

void IngestClient(const Shared& shared, int port, int client, int num_clients, int block,
                  std::latch& start_line, std::barrier<>& window_barrier,
                  std::atomic<bool>& abort, Tracer::Buffer* spans, IngestClientResult& out) {
  const CellTrace& cell = *shared.cell;
  const int num_machines = cell.num_machines();
  const Interval until = cell.num_intervals;
  out.shard_seconds.assign(kShards, 0.0);
  bool arrived_for_good = false;
  const auto drop_out = [&](const std::string& error) {
    out.error = error;
    abort.store(true);
    if (!arrived_for_good) {
      window_barrier.arrive_and_drop();
      arrived_for_good = true;
    }
  };

  crf::NetClient connection;
  std::string error;
  const bool connected = connection.Connect("127.0.0.1", port, &error);
  // Cursors for this client's machines, built before the clock starts.
  std::vector<std::pair<int, int>> shard_ranges;
  std::vector<crf::EventLog::MachineCursor> cursors;
  for (int s = client; s < kShards; s += num_clients) {
    const int begin = std::min(s * block, num_machines);
    const int end = std::min((s + 1) * block, num_machines);
    shard_ranges.emplace_back(begin, end);
    for (int m = begin; m < end; ++m) {
      cursors.push_back(shared.log->CreateCursor(m));
    }
  }
  start_line.arrive_and_wait();
  if (!connected) {
    drop_out("ingest connect: " + error);
    return;
  }

  crf::IngestBatchRequest request;
  const auto start = Clock::now();
  const double cpu_start = ThreadCpuSeconds();
  for (Interval from = 0; from < until; from += kWindowTicks) {
    const Interval window_until = std::min<Interval>(from + kWindowTicks, until);
    size_t cursor_index = 0;
    for (size_t r = 0; r < shard_ranges.size(); ++r) {
      const int shard = client + static_cast<int>(r) * num_clients;
      for (int m = shard_ranges[r].first; m < shard_ranges[r].second; ++m) {
        crf::EventLog::MachineCursor& cursor = cursors[cursor_index++];
        request.machine = m;
        request.from_tick = from;
        request.until_tick = window_until;
        request.window_until = window_until;
        request.events.clear();
        {
          ScopedSpan span(spans, "trace.emit");
          for (Interval tau = from; tau < window_until; ++tau) {
            cursor.EmitTick(tau, request.events);
          }
        }
        crf::ByteWriter payload;
        {
          ScopedSpan span(spans, "net.encode");
          request.EncodeTo(payload);
        }
        crf::WireOp response_op;
        std::span<const uint8_t> response_payload;
        bool sent;
        const auto t0 = Clock::now();
        {
          ScopedSpan span(spans, "net.ingest_round_trip");
          sent = connection.Call(crf::WireOp::kIngestBatch, payload, &response_op,
                                 &response_payload, &error);
        }
        const double round_trip = SecondsSince(t0);
        crf::IngestBatchResponse response;
        if (!sent || response_op != crf::WireOp::kIngestBatch ||
            !crf::DecodePayload(response_payload, response) ||
            response.last_tick != window_until - 1) {
          crf::ErrorResponse refusal;
          if (sent && response_op == crf::WireOp::kError &&
              crf::DecodePayload(response_payload, refusal)) {
            error = refusal.message;
          } else if (sent) {
            error = "unexpected response";
          }
          drop_out("ingest machine " + std::to_string(m) + " window " + std::to_string(from) +
                   ": " + error);
          return;
        }
        out.round_trip_s.push_back(round_trip);
        out.shard_seconds[shard] += round_trip;
        out.events += request.events.size();
      }
    }
    {
      ScopedSpan span(spans, "net.window_wait");
      window_barrier.arrive_and_wait();
    }
    if (abort.load()) {
      drop_out("another ingest client failed");
      return;
    }
  }
  out.wall_s = SecondsSince(start);
  out.cpu_s = ThreadCpuSeconds() - cpu_start;
  out.bytes_sent = connection.bytes_sent();
  window_barrier.arrive_and_drop();
}

// Open-loop admission generator: request k is due at start + k / rate and
// its latency runs from that due time, so a stall delays every request
// queued behind it. Sleeps to just before the due time, then spins.
void AdmissionClient(crf::NetClient& connection, int num_machines, uint64_t seed,
                     Clock::time_point start, const std::atomic<bool>& stop,
                     AdmissionResult& out) {
  std::mt19937_64 rng(seed);
  crf::AdmissionCheckRequest request;
  request.task_limit = kAdmissionTaskLimit;
  const auto period = std::chrono::duration<double>(1.0 / kAdmissionPerSecond);
  std::string error;
  for (int64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(k));
    std::this_thread::sleep_until(due - std::chrono::microseconds(100));
    while (Clock::now() < due) {
    }
    request.machine = static_cast<int32_t>(rng() % static_cast<uint64_t>(num_machines));
    const auto sent = Clock::now();
    const auto response = connection.AdmissionCheck(request, &error);
    const auto done = Clock::now();
    if (!response) {
      out.error = "admission-check machine " + std::to_string(request.machine) + ": " + error;
      ++out.refused;
      return;
    }
    out.send_lag_s.push_back(SecondsBetween(due, sent));
    out.latency_s.push_back(SecondsBetween(due, done));
  }
}

// Compares the server's end state with the reference; returns the number of
// mismatched machines plus one for a mismatched cell. A failed query is
// recorded in `report` and ends the comparison.
int64_t VerifyEndState(crf::NetClient& control, const ExpectedState& expected,
                       int num_machines, Report& report) {
  std::string error;
  int64_t mismatches = 0;
  crf::MachineQueryRequest query;
  for (int m = 0; m < num_machines; ++m) {
    query.machine = m;
    const auto state = control.MachineQuery(query, &error);
    report.Attempt();
    if (!state) {
      report.Fail("machine-query " + std::to_string(m) + ": " + error);
      return mismatches;
    }
    const bool match = state->last_tick == expected.last_tick &&
                       BitsEqual(state->prediction, expected.prediction[m]) &&
                       BitsEqual(state->limit_sum, expected.limit_sum[m]) &&
                       state->roster_size == expected.roster_size[m] &&
                       state->roster_hash == expected.roster_hash[m];
    mismatches += match ? 0 : 1;
  }
  const auto cell = control.CellQuery(&error);
  report.Attempt();
  if (!cell) {
    report.Fail("cell-query: " + error);
    return mismatches;
  }
  const bool cell_match = cell->num_machines == num_machines &&
                          cell->min_last_tick == expected.last_tick &&
                          cell->max_last_tick == expected.last_tick &&
                          BitsEqual(cell->prediction_sum, expected.prediction_sum) &&
                          BitsEqual(cell->limit_sum, expected.cell_limit_sum);
  return mismatches + (cell_match ? 0 : 1);
}

// Starts a server and completes the hello on `control`. Returns the set-up
// seconds (spawn to hello reply), or a negative value after recording the
// failure in `report`.
double StartServer(const Shared& shared, const std::string& tag,
                   std::unique_ptr<ServerProcess>& server, crf::NetClient& control,
                   Report& report) {
  const CellTrace& cell = *shared.cell;
  const auto s0 = Clock::now();
  server = std::make_unique<ServerProcess>(*shared.config, shared.spec_text, tag);
  const int port = server->WaitForPort();
  std::string error;
  if (!control.Connect("127.0.0.1", port, &error)) {
    report.Fail("connect: " + error);
    return -1.0;
  }
  crf::HelloRequest hello_request;
  hello_request.client_name = "crf-perfbench";
  const auto hello = control.Hello(hello_request, &error);
  const double setup_s = SecondsSince(s0);
  report.Attempt();
  if (!hello || hello->trace_name != cell.name || hello->spec_name != shared.spec_name ||
      hello->num_machines != cell.num_machines() || hello->num_intervals != cell.num_intervals ||
      hello->num_shards != kShards || hello->next_tick != 0) {
    report.Fail("hello: " + (hello ? std::string("server identity mismatch") : error));
    return -1.0;
  }
  return setup_s;
}

// Sends the shutdown op and reaps the server, setting its peak RSS (MiB)
// and CPU seconds. Returns false after recording a failure in `report`.
bool StopServer(ServerProcess& server, crf::NetClient& control, Report& report,
                double* rss_mib, double* cpu_s) {
  crf::ShutdownRequest shutdown;
  shutdown.seal_checkpoint = false;
  std::string error;
  const auto down = control.Shutdown(shutdown, &error);
  report.Attempt();
  if (!down) {
    report.Fail("shutdown: " + error);
    return false;
  }
  control.Close();
  if (!server.WaitForExit(rss_mib, cpu_s)) {
    report.Fail("server did not exit cleanly after shutdown");
    return false;
  }
  return true;
}

// One repetition: start a server, stream the whole trace, verify, shut down.
// Returns false when the repetition failed (already recorded in `report`).
bool RunRep(const Shared& shared, int rep, Tracer* tracer, Report& report, RepResult& out) {
  const RunConfig& config = *shared.config;
  const CellTrace& cell = *shared.cell;
  std::unique_ptr<ServerProcess> server;
  crf::NetClient control;
  std::string error;
  if (StartServer(shared, "rep" + std::to_string(rep), server, control, report) < 0) {
    return false;
  }
  const int port = server->port();

  const int num_machines = cell.num_machines();
  const int block = std::max((num_machines + kShards - 1) / kShards, 1);
  const int clients = shared.ingest_clients;
  std::vector<IngestClientResult> results(clients);
  std::vector<Tracer::Buffer*> spans(clients, nullptr);
  if (tracer != nullptr) {
    for (auto& buffer : spans) {
      buffer = tracer->NewBuffer();
    }
  }
  std::latch start_line(clients + 1);
  std::barrier<> window_barrier(clients);
  std::atomic<bool> abort{false};
  std::atomic<bool> stop_admission{false};
  {
    std::vector<std::thread> threads;
    for (int k = 0; k < clients; ++k) {
      threads.emplace_back(IngestClient, std::cref(shared), port, k, clients, block,
                           std::ref(start_line), std::ref(window_barrier), std::ref(abort),
                           spans[k], std::ref(results[k]));
    }
    start_line.arrive_and_wait();
    const auto start = Clock::now();
    std::thread admission(AdmissionClient, std::ref(control), num_machines,
                          config.seed * 7919 + static_cast<uint64_t>(rep), start,
                          std::cref(stop_admission), std::ref(out.admission));
    for (std::thread& thread : threads) {
      thread.join();
    }
    out.ingest_s = SecondsSince(start);
    stop_admission.store(true);
    admission.join();
  }

  bool ok = true;
  for (IngestClientResult& result : results) {
    report.Attempt(static_cast<int64_t>(result.round_trip_s.size()));
    if (!result.error.empty()) {
      report.Fail(result.error);
      ok = false;
    }
    out.events += result.events;
    out.ingest_bytes += result.bytes_sent;
    out.round_trip_s.insert(out.round_trip_s.end(), result.round_trip_s.begin(),
                            result.round_trip_s.end());
    out.shard_seconds.resize(kShards, 0.0);
    for (int s = 0; s < kShards; ++s) {
      out.shard_seconds[s] += result.shard_seconds.empty() ? 0.0 : result.shard_seconds[s];
    }
    out.client_wall_s.push_back(result.wall_s);
    out.client_cpu_s += result.cpu_s;
  }
  report.Attempt(static_cast<int64_t>(out.admission.latency_s.size()) + out.admission.refused);
  if (!out.admission.error.empty()) {
    report.Fail(out.admission.error, out.admission.refused);
    ok = false;
  }
  if (!ok) {
    return false;
  }

  // Outside the timed phase: the end state must equal the in-process replay.
  if (const int64_t bad = VerifyEndState(control, shared.expected, num_machines, report);
      bad > 0) {
    report.Fail("served end state differs from the in-process replay (" +
                    std::to_string(bad) + " mismatches)",
                bad);
  }
  const auto metrics = control.MetricsSnapshot(&error);
  report.Attempt();
  if (!metrics) {
    report.Fail("metrics-snapshot: " + error);
    return false;
  }
  if (tracer != nullptr) {
    std::ofstream(config.work_dir + "/server_metrics.json") << metrics->json;
  }
  return StopServer(*server, control, report, &out.server_rss_mib, &out.server_cpu_s);
}

}  // namespace

void RunServeLive(const RunConfig& config, Report& report) {
  const crf::PredictorSpec spec = crf::ProductionMaxSpec();
  Shared shared;
  shared.config = &config;
  // The server parses the spec from its command line; it must name the
  // same predictor the reference replay runs.
  shared.spec_text = "max(n-sigma:3,rc-like:80)";
  shared.spec_name = spec.Name();
  std::string spec_error;
  const auto parsed = crf::ParsePredictorSpec(shared.spec_text, &spec_error);
  if (!parsed || parsed->Name() != spec.Name()) {
    throw std::runtime_error("spec text " + shared.spec_text + " is not " + spec.Name());
  }
  shared.ingest_clients = config.pool_threads >= 3 ? 2 : 1;
  report.Info("ingest_connections", std::to_string(shared.ingest_clients));
  report.Info("admission_connections", "1");
  report.Info("admission_rate_per_s", std::to_string(kAdmissionPerSecond));

  Tracer tracer;
  Tracer::Buffer* main_spans = config.traced ? tracer.NewBuffer() : nullptr;
  std::optional<CellTrace> cell;
  {
    ScopedSpan span(main_spans, "trace.load");
    crf::TraceLoadOptions options;
    options.mode = crf::TraceLoadMode::kMapped;
    std::string error;
    cell = crf::LoadCellTrace(config.trace_path, options, &error);
    if (!cell.has_value()) {
      throw std::runtime_error("cannot load trace " + config.trace_path + ": " + error);
    }
  }
  const crf::EventLog log(*cell);
  shared.cell = &*cell;
  shared.log = &log;
  {
    crf::ThreadPool pool(config.pool_threads);
    shared.expected = ReferenceState(*cell, spec, pool, cell->num_intervals);
  }
  if (config.corrupt) {
    double& value = shared.expected.prediction[0];
    value = std::bit_cast<double>(std::bit_cast<uint64_t>(value) ^ 1);
  }

  // Set-up: a server that starts, answers the hello and shuts down. Its
  // whole-life CPU time is the set-up's; the wall time also holds the spawn.
  std::vector<double> setup_cpu_s, setup_wall_s;
  for (int i = 0; i < kSetupSamples; ++i) {
    std::unique_ptr<ServerProcess> server;
    crf::NetClient control;
    const double wall_s =
        StartServer(shared, "setup" + std::to_string(i), server, control, report);
    double rss_mib = 0.0, cpu_s = 0.0;
    if (wall_s < 0 || !StopServer(*server, control, report, &rss_mib, &cpu_s)) {
      return;
    }
    setup_cpu_s.push_back(cpu_s);
    setup_wall_s.push_back(wall_s);
  }

  std::vector<RepResult> reps;
  const int min_reps = MinReps(config);
  const auto run_start = Clock::now();
  while (static_cast<int>(reps.size()) < min_reps ||
         (!config.traced && SecondsSince(run_start) < config.seconds)) {
    RepResult rep;
    if (!RunRep(shared, static_cast<int>(reps.size()), nullptr, report, rep)) {
      return;
    }
    std::fprintf(stderr, "serve_live repetition %zu: ingest %.3f s, cpu %.3f s\n",
                 reps.size() + 1, rep.ingest_s, rep.server_cpu_s + rep.client_cpu_s);
    reps.push_back(std::move(rep));
  }

  std::vector<double> rate, cpu_rate, rss, round_trip_ms, admission_us, lag_us;
  for (const RepResult& rep : reps) {
    rate.push_back(static_cast<double>(rep.events) / rep.ingest_s);
    cpu_rate.push_back(static_cast<double>(rep.events) / (rep.server_cpu_s + rep.client_cpu_s));
    rss.push_back(rep.server_rss_mib);
    for (const double value : rep.round_trip_s) {
      round_trip_ms.push_back(value * 1e3);
    }
    for (const double value : rep.admission.latency_s) {
      admission_us.push_back(value * 1e6);
    }
  }
  const auto n = static_cast<int64_t>(reps.size());
  const auto frames = static_cast<int64_t>(round_trip_ms.size());
  const auto checks = static_cast<int64_t>(admission_us.size());
  report.Metric("setup_s", Median(setup_cpu_s), "s", kSetupSamples);
  report.Metric("setup_wall_s", Median(setup_wall_s), "s", kSetupSamples);
  report.Metric("ingest_events_per_s", BestRate(rate), "1/s", n);
  report.Metric("throughput_per_s", BestRate(rate), "1/s", n);
  report.Metric("work_per_cpu_s", BestRate(cpu_rate), "1/s", n);
  report.Metric("peak_rss_mb", Median(rss), "MiB", n);
  report.Metric("ingest_batch_p50_ms", Percentile(round_trip_ms, 0.50), "ms", frames);
  report.Metric("ingest_batch_p99_ms", Percentile(round_trip_ms, 0.99), "ms", frames);
  report.Metric("admission_p50_us", Percentile(admission_us, 0.50), "us", checks);
  report.Metric("admission_p99_us", Percentile(admission_us, 0.99), "us", checks);
  if (!config.traced) {
    return;
  }

  // Traced repetition: spans around emit, encode and every round trip on
  // the ingest clients, and around each window barrier.
  RepResult traced;
  if (!RunRep(shared, static_cast<int>(reps.size()), &tracer, report, traced)) {
    return;
  }
  const std::vector<double> emit = tracer.Durations("trace.emit");
  const std::vector<double> encode = tracer.Durations("net.encode");
  // Emit + encode time over wall time, averaged over the ingest clients.
  const double busy_frac = (Sum(emit) + Sum(encode)) / Sum(traced.client_wall_s);
  for (const double value : traced.admission.send_lag_s) {
    lag_us.push_back(value * 1e6);
  }
  const double mean_shard = Sum(traced.shard_seconds) / kShards;
  report.Metric("trace.load_s", Sum(tracer.Durations("trace.load")), "s");
  report.Metric("trace.emit_ns_per_event", Sum(emit) * 1e9 / static_cast<double>(traced.events),
                "ns", static_cast<int64_t>(emit.size()));
  report.Metric("serve.shard_ingest_skew", mean_shard > 0 ? Max(traced.shard_seconds) / mean_shard
                                                          : 0.0,
                "ratio", kShards);
  report.Metric("net.bytes_per_event",
                static_cast<double>(traced.ingest_bytes) / static_cast<double>(traced.events),
                "B");
  report.Metric("net.window_wait_s", Sum(tracer.Durations("net.window_wait")), "s");
  report.Metric("net.client_busy_frac", busy_frac, "ratio");
  report.Metric("net.admission_send_lag_p99_us", Percentile(lag_us, 0.99), "us",
                static_cast<int64_t>(lag_us.size()));
  report.Metric("bench.trace_overhead_frac", traced.ingest_s / reps.front().ingest_s - 1.0,
                "ratio");
  report.Info("server_metrics", config.work_dir + "/server_metrics.json");
}

}  // namespace perfbench

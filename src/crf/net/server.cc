#include "crf/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "crf/serve/checkpoint.h"
#include "crf/util/check.h"

namespace crf {
namespace {

constexpr size_t kReadChunk = 64 * 1024;

double ElapsedNs(std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

// Sends the whole buffer; returns false on any socket error.
bool SendAll(int fd, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

OvercommitServer::OvercommitServer(StreamReplayer& replayer, const NetServerOptions& options)
    : replayer_(replayer),
      options_(options),
      wake_fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)),
      shards_(replayer.num_shards()) {
  CRF_CHECK_GE(wake_fd_, 0) << "eventfd: " << std::strerror(errno);
}

OvercommitServer::~OvercommitServer() {
  RequestStop();
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  std::vector<std::unique_ptr<ConnectionThread>> connections;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    connections.swap(connection_threads_);
  }
  for (auto& connection : connections) {
    connection->thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
  ::close(wake_fd_);
}

bool OvercommitServer::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    *error = "listen address \"" + options_.host + "\" is not a numeric IPv4 address";
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "bind " + options_.host + ":" + std::to_string(options_.port) + ": " +
             std::strerror(errno);
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    return false;
  }
  port_ = ntohs(bound.sin_port);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void OvercommitServer::Wait() {
  pollfd pfd{wake_fd_, POLLIN, 0};
  while (!stop_.load(std::memory_order_acquire)) {
    ::poll(&pfd, 1, -1);
  }
  if (seal_on_stop_.load(std::memory_order_acquire)) {
    // Sealed (signal-driven) stop: seal exactly like the shutdown op. There
    // is no client connection to carry a failure, so report it to the
    // operator — otherwise a SIGINT mid-window silently exits with no
    // checkpoint on disk.
    ShutdownResponse response;
    std::string error;
    if (!Seal(/*seal=*/true, &response, &error)) {
      std::fprintf(stderr, "crf serve: stop requested but no checkpoint was sealed: %s\n",
                   error.c_str());
    }
  }
}

void OvercommitServer::RequestStop() {
  stop_.store(true, std::memory_order_release);
  // The counter is never read back, so the wake fd stays readable and every
  // poll that includes it returns at once from here on.
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void OvercommitServer::RequestSealedStop() {
  seal_on_stop_.store(true, std::memory_order_release);
  RequestStop();
}

void OvercommitServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    ReapConnectionThreads();
    pollfd pfds[2] = {{listen_fd_, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
    const int ready = ::poll(pfds, 2, -1);
    if (ready <= 0 || (pfds[0].revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    net_metrics_.OnAccept();
    if (net_metrics_.connections_active() >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    net_metrics_.OnOpen();
    ConnectionStats* stats = net_metrics_.AddConnection();
    auto connection = std::make_unique<ConnectionThread>();
    ConnectionThread* raw = connection.get();
    raw->thread = std::thread([this, fd, stats, raw] {
      ConnectionLoop(fd, stats);
      raw->done.store(true, std::memory_order_release);
    });
    std::lock_guard<std::mutex> lock(threads_mutex_);
    connection_threads_.push_back(std::move(connection));
  }
}

void OvercommitServer::ReapConnectionThreads() {
  std::vector<std::unique_ptr<ConnectionThread>> finished;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    const auto split = std::stable_partition(
        connection_threads_.begin(), connection_threads_.end(),
        [](const std::unique_ptr<ConnectionThread>& connection) {
          return !connection->done.load(std::memory_order_acquire);
        });
    std::move(split, connection_threads_.end(), std::back_inserter(finished));
    connection_threads_.erase(split, connection_threads_.end());
  }
  for (auto& connection : finished) {
    connection->thread.join();
  }
}

void OvercommitServer::ConnectionLoop(int fd, ConnectionStats* stats) {
  std::vector<uint8_t> buffer;
  std::vector<uint8_t> response;
  size_t consumed = 0;
  bool open = true;
  while (open && !stop_.load(std::memory_order_acquire)) {
    pollfd pfds[2] = {{fd, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
    const int ready = ::poll(pfds, 2, -1);
    if (ready <= 0 || pfds[0].revents == 0) {
      continue;
    }
    const size_t offset = buffer.size();
    buffer.resize(offset + kReadChunk);
    const ssize_t n = ::recv(fd, buffer.data() + offset, kReadChunk, 0);
    buffer.resize(offset + std::max<ssize_t>(n, 0));
    if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
      break;  // peer closed or hard error
    }

    // Drain every complete frame in the buffer before reading again.
    while (open) {
      WireOp op;
      std::span<const uint8_t> payload;
      size_t frame_bytes = 0;
      std::string error;
      const std::span<const uint8_t> pending(buffer.data() + consumed,
                                             buffer.size() - consumed);
      const FrameStatus status = DecodeFrame(pending, &op, &payload, &frame_bytes, &error);
      if (status == FrameStatus::kNeedMore) {
        break;
      }
      response.clear();
      if (status == FrameStatus::kMalformed) {
        net_metrics_.OnRejectedFrame();
        AppendError(error, response);
        SendAll(fd, response.data(), response.size());
        stats->RecordBytesOut(response.size());
        open = false;
        break;
      }
      stats->RecordBytesIn(frame_bytes);
      const auto t0 = std::chrono::steady_clock::now();
      open = HandleFrame(op, payload, stats, response);
      const auto t1 = std::chrono::steady_clock::now();
      stats->RecordOp(op, ElapsedNs(t0, t1));
      consumed += frame_bytes;
      if (!SendAll(fd, response.data(), response.size())) {
        open = false;
      }
      stats->RecordBytesOut(response.size());
    }
    // Compact once the consumed prefix dominates the buffer.
    if (consumed == buffer.size()) {
      buffer.clear();
      consumed = 0;
    } else if (consumed > (1u << 20)) {
      buffer.erase(buffer.begin(), buffer.begin() + consumed);
      consumed = 0;
    }
  }
  ::close(fd);
  net_metrics_.OnClose();
  net_metrics_.RetireConnection(stats);
}

bool OvercommitServer::HandleFrame(WireOp op, std::span<const uint8_t> payload,
                                   ConnectionStats* stats, std::vector<uint8_t>& out) {
  switch (op) {
    case WireOp::kHello:
      HandleHello(payload, out);
      return true;
    case WireOp::kIngestBatch:
      return HandleIngest(payload, stats, out);
    case WireOp::kMachineQuery:
      return HandleMachineQuery(payload, out);
    case WireOp::kCellQuery:
      HandleCellQuery(out);
      return true;
    case WireOp::kAdmissionCheck:
      return HandleAdmission(payload, out);
    case WireOp::kMetricsSnapshot:
      HandleMetrics(out);
      return true;
    case WireOp::kShutdown:
      HandleShutdown(payload, out);
      return false;  // connection (and server) close after the response
    case WireOp::kError:
      break;
  }
  net_metrics_.OnRejectedFrame();
  AppendError("op not valid as a request", out);
  return false;
}

void OvercommitServer::AppendError(const std::string& message, std::vector<uint8_t>& out) {
  ErrorResponse response;
  response.message = message;
  ByteWriter writer;
  response.EncodeTo(writer);
  AppendFrame(WireOp::kError, writer, out);
}

void OvercommitServer::HandleHello(std::span<const uint8_t> payload,
                                   std::vector<uint8_t>& out) {
  HelloRequest request;
  if (!DecodePayload(payload, request)) {
    net_metrics_.OnRejectedFrame();
    AppendError("malformed hello payload", out);
    return;
  }
  HelloResponse response;
  response.trace_name = replayer_.cell().name;
  response.spec_name = replayer_.spec().Name();
  response.num_machines = replayer_.cell().num_machines();
  response.num_intervals = replayer_.cell().num_intervals;
  response.num_shards = replayer_.num_shards();
  {
    const auto locks = LockAllShards();
    response.next_tick = replayer_.next_tick();
  }
  ByteWriter writer;
  response.EncodeTo(writer);
  AppendFrame(WireOp::kHello, writer, out);
}

bool OvercommitServer::HandleIngest(std::span<const uint8_t> payload, ConnectionStats* stats,
                                    std::vector<uint8_t>& out) {
  const auto reject = [&](const std::string& message) {
    AppendError(message, out);
    net_metrics_.OnRejectedFrame();
    return false;
  };
  IngestBatchRequest request;
  if (!DecodePayload(payload, request)) {
    return reject("malformed ingest-batch payload");
  }
  const int num_machines = replayer_.cell().num_machines();
  if (request.machine >= num_machines) {
    return reject("ingest-batch machine " + std::to_string(request.machine) +
                  " out of range (cell has " + std::to_string(num_machines) + " machines)");
  }
  const int shard_index = replayer_.shard_of(request.machine);
  NetShard& shard = shards_[shard_index];
  const MachineRange machines =
      ShardMachineRange(num_machines, replayer_.num_shards(), shard_index);
  const auto window_mismatch = [&](Interval window) {
    return reject("ingest window_until " + std::to_string(request.window_until) +
                  " does not match the open window (" + std::to_string(window) + ")");
  };

  IngestBatchResponse response;
  bool finished_shard = false;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    // A commit takes every shard lock, so while this one is held next_tick
    // stays put and the window can only be opened, never closed or moved.
    const Interval until = request.window_until;
    Interval window = current_window_until_.load();
    if (window < 0) {
      const Interval from = replayer_.next_tick();
      if (until <= from || until > replayer_.cell().num_intervals) {
        return reject("ingest window_until " + std::to_string(until) + " outside (" +
                      std::to_string(from) + ", " +
                      std::to_string(replayer_.cell().num_intervals) + "]");
      }
    } else if (until != window) {
      return window_mismatch(window);
    }
    // The streaming cursor is the replayer's own per-machine last tick. A
    // batch continues its machine, and a shard streams its machines one at
    // a time in ascending order — AdvanceShard's loop — so the previous
    // machine must already have streamed the whole window.
    const OvercommitService& service = replayer_.service();
    if (request.machine > machines.begin &&
        service.LastTick(request.machine - 1) != until - 1) {
      return reject("ingest-batch machine " + std::to_string(request.machine) +
                    " out of order (machine " + std::to_string(request.machine - 1) +
                    " has not streamed the window to tick " + std::to_string(until) + ")");
    }
    const Interval expected = service.LastTick(request.machine) + 1;
    if (request.from_tick != expected) {
      return reject("ingest-batch ticks [" + std::to_string(request.from_tick) + ", " +
                    std::to_string(request.until_tick) + ") do not continue machine " +
                    std::to_string(request.machine) + " (expected from tick " +
                    std::to_string(expected) + ", window ends at " + std::to_string(until) +
                    ")");
    }
    // Open the window only once the batch is in order. A racing shard may
    // have opened it first.
    bool opened_window = false;
    if (window < 0) {
      opened_window = current_window_until_.compare_exchange_strong(window, until);
      if (!opened_window && window != until) {
        return window_mismatch(window);
      }
    }

    // Apply tick by tick. OvercommitService::IngestTick validates each
    // tick's batch against the machine's live roster before it changes
    // anything; a rejected tick draws its diagnostic as the kError text and
    // leaves LastTick on the applied prefix.
    const auto t0 = std::chrono::steady_clock::now();
    size_t i = 0;
    std::string ingest_error;
    for (Interval tau = request.from_tick; tau < request.until_tick; ++tau) {
      size_t end = i;
      while (end < request.events.size() && request.events[end].tick == tau) {
        ++end;
      }
      const std::span<const StreamEvent> tick_events(request.events.data() + i, end - i);
      if (!replayer_.PushMachineTick(request.machine, tau, tick_events, &ingest_error)) {
        // A batch that applied no tick leaves the window as it found it.
        // Closing it takes every shard lock in order, so drop this one first.
        if (opened_window && tau == request.from_tick) {
          lock.unlock();
          const auto locks = LockAllShards();
          CloseUnusedWindowShardsLocked();
        }
        return reject("ingest-batch " + ingest_error);
      }
      i = end;
    }
    const auto t1 = std::chrono::steady_clock::now();
    shard.elapsed_seconds += std::chrono::duration<double>(t1 - t0).count();

    response.prediction = service.Predict(request.machine);
    response.limit_sum = service.LimitSum(request.machine);
    response.last_tick = service.LastTick(request.machine);
    stats->RecordBatch(static_cast<int64_t>(request.events.size()));
    finished_shard = request.machine + 1 == machines.end && request.until_tick == until;
  }

  // The batch that finishes a shard tries the cell-wide commit; it lands
  // once the last shard has finished.
  if (finished_shard) {
    const auto locks = LockAllShards();
    CommitWindowShardsLocked();
  }

  ByteWriter writer;
  response.EncodeTo(writer);
  AppendFrame(WireOp::kIngestBatch, writer, out);
  return true;
}

std::vector<std::unique_lock<std::mutex>> OvercommitServer::LockAllShards() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) {
    locks.emplace_back(shard.mutex);
  }
  return locks;
}

void OvercommitServer::CommitWindowShardsLocked() {
  // CommitPushedWindow checks every machine, so false just means "not yet".
  const Interval window = current_window_until_.load();
  if (window >= 0 && replayer_.CommitPushedWindow(window)) {
    current_window_until_.store(-1);
  }
}

void OvercommitServer::CloseUnusedWindowShardsLocked() {
  // A batch naming the same window may have applied ticks since the opener
  // was refused; the window is then in use and stays open.
  const OvercommitService& service = replayer_.service();
  const Interval from = replayer_.next_tick();
  for (int m = 0; m < replayer_.cell().num_machines(); ++m) {
    if (service.LastTick(m) >= from) {
      return;
    }
  }
  current_window_until_.store(-1);
}

bool OvercommitServer::HandleMachineQuery(std::span<const uint8_t> payload,
                                          std::vector<uint8_t>& out) {
  MachineQueryRequest request;
  if (!DecodePayload(payload, request) ||
      request.machine >= replayer_.cell().num_machines()) {
    net_metrics_.OnRejectedFrame();
    AppendError("malformed machine-query payload", out);
    return false;
  }
  MachineQueryResponse response;
  {
    NetShard& shard = shards_[replayer_.shard_of(request.machine)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const OvercommitService& service = replayer_.service();
    response.last_tick = service.LastTick(request.machine);
    response.prediction = service.Predict(request.machine);
    response.limit_sum = service.LimitSum(request.machine);
    const std::span<const int32_t> roster = service.Roster(request.machine);
    response.roster_size = static_cast<int32_t>(roster.size());
    response.roster_hash =
        Fnv1a64(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(roster.data()),
                                         roster.size() * sizeof(int32_t)));
  }
  ByteWriter writer;
  response.EncodeTo(writer);
  AppendFrame(WireOp::kMachineQuery, writer, out);
  return true;
}

void OvercommitServer::HandleCellQuery(std::vector<uint8_t>& out) {
  CellQueryResponse response;
  {
    const auto locks = LockAllShards();
    const OvercommitService& service = replayer_.service();
    const int num_machines = replayer_.cell().num_machines();
    response.num_machines = num_machines;
    // Ascending machine order: deterministic FP accumulation.
    for (int m = 0; m < num_machines; ++m) {
      const Interval last = service.LastTick(m);
      response.min_last_tick = m == 0 ? last : std::min(response.min_last_tick, last);
      response.max_last_tick = std::max(response.max_last_tick, last);
      response.prediction_sum += service.Predict(m);
      response.limit_sum += service.LimitSum(m);
    }
    response.events_ingested = replayer_.MutableMetrics().TotalEvents();
  }
  ByteWriter writer;
  response.EncodeTo(writer);
  AppendFrame(WireOp::kCellQuery, writer, out);
}

bool OvercommitServer::HandleAdmission(std::span<const uint8_t> payload,
                                       std::vector<uint8_t>& out) {
  AdmissionCheckRequest request;
  if (!DecodePayload(payload, request) ||
      request.machine >= replayer_.cell().num_machines()) {
    net_metrics_.OnRejectedFrame();
    AppendError("malformed admission-check payload", out);
    return false;
  }
  AdmissionCheckResponse response;
  {
    NetShard& shard = shards_[replayer_.shard_of(request.machine)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    response.predicted_peak = replayer_.service().Predict(request.machine);
    response.capacity = replayer_.cell().machine_capacity(request.machine);
    response.headroom = response.capacity - response.predicted_peak;
    // The paper's packing rule (Section 3.3): place against predicted peak,
    // not the sum of limits.
    response.admitted = response.predicted_peak + request.task_limit <= response.capacity;
  }
  ByteWriter writer;
  response.EncodeTo(writer);
  AppendFrame(WireOp::kAdmissionCheck, writer, out);
  return true;
}

void OvercommitServer::RefreshMetricsShardsLocked() {
  double elapsed = 0.0;
  for (auto& shard : shards_) {
    elapsed += shard.elapsed_seconds;
    shard.elapsed_seconds = 0.0;
  }
  ServeMetrics& metrics = replayer_.MutableMetrics();
  metrics.AddElapsedSeconds(elapsed);
  metrics.SetExtraSection("net", net_metrics_.ToJsonObject());
  replayer_.Metrics();  // refresh the violation/risk summary
}

void OvercommitServer::HandleMetrics(std::vector<uint8_t>& out) {
  MetricsSnapshotResponse response;
  {
    const auto locks = LockAllShards();
    RefreshMetricsShardsLocked();
    response.json = replayer_.MutableMetrics().ToJson();
  }
  ByteWriter writer;
  response.EncodeTo(writer);
  AppendFrame(WireOp::kMetricsSnapshot, writer, out);
}

bool OvercommitServer::Seal(bool seal, ShutdownResponse* response, std::string* error) {
  // Every shard lock is held from here through the checkpoint write:
  // SaveCheckpoint serializes the replayer, so a concurrent ingest between
  // the open-window check and the write would tear the checkpoint. Commit a
  // fully-streamed window first so the seal lands on the freshest boundary.
  const auto locks = LockAllShards();
  CommitWindowShardsLocked();
  RefreshMetricsShardsLocked();
  response->next_tick = replayer_.next_tick();
  if (!seal || options_.checkpoint_out.empty()) {
    return true;
  }
  // Refuse to seal while a window is mid-stream: the accumulators already
  // hold pushes past next_tick, and a checkpoint cut there could not resume.
  if (current_window_until_.load() >= 0) {
    *error = "cannot seal: an ingest window is still open past tick " +
             std::to_string(replayer_.next_tick());
    return false;
  }
  if (!SaveCheckpoint(replayer_, options_.checkpoint_out, error)) {
    return false;
  }
  response->sealed = true;
  response->checkpoint_path = options_.checkpoint_out;
  sealed_ = true;
  sealed_path_ = options_.checkpoint_out;
  sealed_tick_ = replayer_.next_tick();
  return true;
}

bool OvercommitServer::HandleShutdown(std::span<const uint8_t> payload,
                                      std::vector<uint8_t>& out) {
  ShutdownRequest request;
  if (!DecodePayload(payload, request)) {
    net_metrics_.OnRejectedFrame();
    AppendError("malformed shutdown payload", out);
    RequestStop();
    return false;
  }
  ShutdownResponse response;
  std::string error;
  if (!Seal(request.seal_checkpoint, &response, &error)) {
    AppendError("shutdown: " + error, out);
  } else {
    ByteWriter writer;
    response.EncodeTo(writer);
    AppendFrame(WireOp::kShutdown, writer, out);
  }
  RequestStop();
  return false;
}

}  // namespace crf

// OvercommitServer: the TCP front end of the serve tier (DESIGN.md §10).
//
// Wraps a push-mode StreamReplayer behind the CRFNET1 wire protocol: an
// acceptor thread plus one worker thread per connection, each connection
// decoding batched requests and answering ingest / query / admission /
// metrics / shutdown ops. Each replay shard has one cache-line padded mutex
// (NetShard), so clients that drive disjoint shards never contend.
//
// The ingest protocol preserves the replayer's bit-identity contract. The
// replayer owns all ingest progress; the server keeps only one cell-wide
// window end W. The first in-order batch opens the window [next_tick, W)
// and every later batch must name the same W; if that batch then applies no
// tick, it closes the window again before it answers. A batch's position is derived
// from OvercommitService::LastTick: it must continue its machine at
// LastTick(m) + 1, and unless m is its shard's first machine, machine m - 1
// must already have streamed through W - 1. Within a shard that is exactly
// AdvanceShard's machine-outer, tick-ascending loop. When a batch finishes
// its shard's last machine, the server tries StreamReplayer::
// CommitPushedWindow(W), which succeeds once every machine has streamed the
// window; the window then closes. Every per-machine number, the per-shard
// cell series, and a checkpoint sealed at the committed boundary are
// bit-identical to an in-process Advance over the same trace.
//
// Every path that reads or writes across shards (window commit, seal, cell
// query, metrics, hello's next_tick) takes every shard lock in shard order;
// there is no other lock on the ingest path. So while a batch holds its
// shard lock, next_tick stays put and the window end can only go from -1 to
// W, never close or move.
//
// Every byte off the wire is validated: the frame layer checks
// magic/version/length/checksum, the payload decoders bounds-check each
// field, the ingest handler enforces the window and streaming order, and
// OvercommitService::IngestTick — the one batch validator — checks each
// tick against the machine's roster (departures ∈ roster, arrivals ∉
// roster, exactly one sample per resident task in roster order) before
// applying it. Malformed input produces a kError response carrying the
// service's diagnostic and a closed connection, never a CHECK-abort. A
// protocol error mid-batch leaves the validly-applied prefix ingested and
// drops the connection; because the cursor is the replayer's own last tick,
// a reconnecting client resumes at the first unapplied tick.

#ifndef CRF_NET_SERVER_H_
#define CRF_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "crf/net/net_metrics.h"
#include "crf/net/wire.h"
#include "crf/serve/replay.h"

namespace crf {

struct NetServerOptions {
  // Numeric IPv4 listen address.
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; port() reports the actual binding.
  int port = 0;
  // Connections beyond this are accepted and immediately closed.
  int max_connections = 64;
  // Destination for the shutdown op's sealed CRFCKPT1; empty disables
  // sealing (the shutdown op then just stops the server).
  std::string checkpoint_out;
};

class OvercommitServer {
 public:
  // `replayer` must outlive the server and must not be touched by other
  // threads between Start() and Wait()/Stop() returning.
  OvercommitServer(StreamReplayer& replayer, const NetServerOptions& options);
  ~OvercommitServer();

  OvercommitServer(const OvercommitServer&) = delete;
  OvercommitServer& operator=(const OvercommitServer&) = delete;

  // Binds, listens, and spawns the acceptor. Returns false with a
  // diagnostic on any socket failure.
  bool Start(std::string* error);

  // The bound port (valid after Start; resolves port 0 bindings).
  int port() const { return port_; }

  // Blocks until the server stops: a shutdown op, RequestStop() or
  // RequestSealedStop(). After a sealed stop it seals a checkpoint exactly
  // like the shutdown op when the committed state allows it; a seal failure
  // is reported on stderr (there is no client to carry the error frame).
  void Wait();

  // Asynchronously requests a stop without sealing (tests/teardown).
  void RequestStop();

  // Requests a stop that Wait() seals. Async-signal-safe (an atomic store
  // and a write(2)), so a SIGINT/SIGTERM handler may call it.
  void RequestSealedStop();

  // Post-shutdown report: whether a checkpoint was sealed and where.
  bool sealed() const { return sealed_; }
  const std::string& sealed_path() const { return sealed_path_; }
  Interval sealed_tick() const { return sealed_tick_; }

  const NetMetrics& net_metrics() const { return net_metrics_; }

 private:
  // One ingest lock per replay shard, padded like the replay ShardState so
  // concurrent connections on different shards never share a line.
  struct alignas(64) NetShard {
    std::mutex mutex;
    // Wall-clock seconds spent in ingest on this shard (folded into
    // ServeMetrics at snapshot/shutdown).
    double elapsed_seconds = 0.0;
  };

  // One finished connection worker, joinable once `done` is set.
  struct ConnectionThread {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  // Joins and discards connection threads whose loop has finished (called
  // from the acceptor each time its poll returns, so churn does not
  // accumulate joinable handles).
  void ReapConnectionThreads();
  void ConnectionLoop(int fd, ConnectionStats* stats);
  // Dispatches one decoded frame; appends the response frame to `out`.
  // Returns false when the connection must close (shutdown or protocol
  // error after the response is flushed).
  bool HandleFrame(WireOp op, std::span<const uint8_t> payload, ConnectionStats* stats,
                   std::vector<uint8_t>& out);

  void HandleHello(std::span<const uint8_t> payload, std::vector<uint8_t>& out);
  // Returns false on protocol error (kError appended, connection closes).
  bool HandleIngest(std::span<const uint8_t> payload, ConnectionStats* stats,
                    std::vector<uint8_t>& out);
  bool HandleMachineQuery(std::span<const uint8_t> payload, std::vector<uint8_t>& out);
  void HandleCellQuery(std::vector<uint8_t>& out);
  bool HandleAdmission(std::span<const uint8_t> payload, std::vector<uint8_t>& out);
  void HandleMetrics(std::vector<uint8_t>& out);
  bool HandleShutdown(std::span<const uint8_t> payload, std::vector<uint8_t>& out);

  // Acquires every shard lock in shard order.
  std::vector<std::unique_lock<std::mutex>> LockAllShards();
  // Commits and closes the open window once every machine has streamed it;
  // until then leaves it open. Caller holds every shard lock.
  void CommitWindowShardsLocked();
  // Closes the open window if no machine has pushed a tick into it (its
  // opener was refused). Caller holds every shard lock.
  void CloseUnusedWindowShardsLocked();
  // Folds per-shard elapsed seconds into ServeMetrics and refreshes the
  // "net" section. Caller holds every shard lock.
  void RefreshMetricsShardsLocked();
  // The shutdown-seal body shared by the shutdown op and external stops:
  // commits a fully-streamed window, then seals a checkpoint when `seal` is
  // set and checkpoint_out is configured. Every shard lock is held from the
  // commit through the checkpoint write, so ingest cannot open a window or
  // push state between the open-window check and the serialization.
  bool Seal(bool seal, ShutdownResponse* response, std::string* error);

  void AppendError(const std::string& message, std::vector<uint8_t>& out);

  StreamReplayer& replayer_;
  NetServerOptions options_;
  int port_ = 0;
  int listen_fd_ = -1;
  // eventfd in every poll set: RequestStop() makes it readable for good, so
  // the acceptor, each connection and Wait() block without a timeout.
  int wake_fd_ = -1;

  // End of the open ingest window, or -1 when none is open. Opened by the
  // first in-order batch (compare-exchange under its shard lock), closed by
  // the commit, or by a refused opener that applied nothing, under every
  // shard lock.
  std::atomic<Interval> current_window_until_{-1};
  std::vector<NetShard> shards_;

  NetMetrics net_metrics_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> seal_on_stop_{false};
  std::thread acceptor_;
  std::mutex threads_mutex_;
  std::vector<std::unique_ptr<ConnectionThread>> connection_threads_;

  bool sealed_ = false;
  std::string sealed_path_;
  Interval sealed_tick_ = 0;
};

}  // namespace crf

#endif  // CRF_NET_SERVER_H_

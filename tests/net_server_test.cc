// Loopback contract of the network serve tier (crf/net/server.h): state
// streamed over TCP is bit-identical to an in-process replay for every
// predictor family, a shutdown-sealed checkpoint resumes bit-identically,
// and protocol violations draw a kError + connection close — never a crash
// or a CHECK abort — while the server keeps serving other clients.

#include "crf/net/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crf/core/predictor_factory.h"
#include "crf/core/spec_parser.h"
#include "crf/net/client.h"
#include "crf/net/loadgen.h"
#include "crf/serve/checkpoint.h"
#include "crf/serve/replay.h"
#include "crf/trace/cell_profile.h"
#include "crf/trace/generator.h"
#include "crf/trace/trace_builder.h"
#include "crf/util/rng.h"

namespace crf {
namespace {

CellTrace RandomCell(uint64_t seed, const std::string& name = "net_cell") {
  Rng rng(seed);
  const Interval num_intervals = 48 + static_cast<Interval>(rng.UniformInt(17));
  const int num_machines = 5 + static_cast<int>(rng.UniformInt(4));
  CellTraceBuilder builder(name, num_intervals, num_machines);

  TaskId next_id = 1;
  for (int m = 0; m < num_machines; ++m) {
    const int num_tasks = 2 + static_cast<int>(rng.UniformInt(10));
    for (int i = 0; i < num_tasks; ++i) {
      const TaskId id = next_id++;
      const Interval start = static_cast<Interval>(rng.UniformInt(num_intervals));
      const double limit = 0.05 + rng.UniformDouble() * 0.95;
      const Interval len = 1 + static_cast<Interval>(rng.UniformInt(num_intervals - start + 3));
      const int32_t index =
          builder.AddTask(id, id, m, start, limit, SchedulingClass::kLatencySensitive);
      builder.ReserveUsage(index, static_cast<size_t>(len));
      for (Interval k = 0; k < len; ++k) {
        builder.AppendUsage(index, static_cast<float>(limit * rng.UniformDouble()));
      }
    }
  }
  return builder.Seal();
}

std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = std::string(info->test_suite_name()) + "_" + info->name();
  for (char& c : tag) {
    if (c == '/') {
      c = '_';
    }
  }
  return ::testing::TempDir() + "/" + tag + "_" + name;
}

ReplayOptions TestReplayOptions() {
  ReplayOptions options;
  options.num_shards = 4;
  options.parallel = false;
  return options;
}

// Owns a replayer + running server on an ephemeral loopback port.
struct ServerHarness {
  ServerHarness(const CellTrace& cell, const PredictorSpec& spec,
                const std::string& checkpoint_out = "",
                const ReplayOptions& options = TestReplayOptions()) {
    replayer = std::make_unique<StreamReplayer>(cell, spec, options);
    Serve(checkpoint_out);
  }
  ServerHarness(std::unique_ptr<StreamReplayer> resumed, const std::string& checkpoint_out)
      : replayer(std::move(resumed)) {
    Serve(checkpoint_out);
  }

  void Serve(const std::string& checkpoint_out) {
    NetServerOptions net;
    net.checkpoint_out = checkpoint_out;
    server = std::make_unique<OvercommitServer>(*replayer, net);
    std::string error;
    started = server->Start(&error);
    EXPECT_TRUE(started) << error;
  }

  std::unique_ptr<StreamReplayer> replayer;
  std::unique_ptr<OvercommitServer> server;
  bool started = false;
};

LoadGenOptions TestLoadGenOptions(int port) {
  LoadGenOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  options.client_threads = 2;
  options.batch_ticks = 7;  // deliberately misaligned with the window
  options.verify_options = TestReplayOptions();
  return options;
}

void ExpectResultsBitIdentical(const SimResult& served, const SimResult& in_process) {
  ASSERT_EQ(served.machines.size(), in_process.machines.size());
  for (size_t m = 0; m < in_process.machines.size(); ++m) {
    const MachineMetrics& a = served.machines[m];
    const MachineMetrics& b = in_process.machines[m];
    SCOPED_TRACE(::testing::Message() << "machine=" << m);
    EXPECT_EQ(a.occupied_intervals, b.occupied_intervals);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.mean_violation_severity, b.mean_violation_severity);
    EXPECT_EQ(a.savings_ratio, b.savings_ratio);
    EXPECT_EQ(a.mean_prediction, b.mean_prediction);
    EXPECT_EQ(a.mean_limit, b.mean_limit);
  }
  EXPECT_EQ(served.cell_savings_series, in_process.cell_savings_series);
}

class NetServerFamilyTest : public ::testing::TestWithParam<const char*> {};

// The tentpole differential: stream the whole trace over loopback and
// bit-compare every machine's end state (and the cell sums) against an
// in-process replay of the same trace — per predictor family, including the
// chance/flex families whose state machines are the most intricate, from 1,
// 2 and 8 client threads (8 over 16 shards, so every thread owns shards).
TEST_P(NetServerFamilyTest, LoopbackStateIsBitIdenticalToInProcessReplay) {
  const CellTrace cell = RandomCell(101);
  std::string spec_error;
  const auto spec = ParsePredictorSpec(GetParam(), &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;

  struct Lane {
    int clients;
    int shards;
  };
  for (const Lane& lane : {Lane{1, 4}, Lane{2, 4}, Lane{8, 16}}) {
    SCOPED_TRACE(::testing::Message() << lane.clients << " clients");
    ReplayOptions replay = TestReplayOptions();
    replay.num_shards = lane.shards;
    ServerHarness harness(cell, *spec, "", replay);
    ASSERT_TRUE(harness.started);

    LoadGenOptions options = TestLoadGenOptions(harness.server->port());
    options.client_threads = lane.clients;
    options.verify_options = replay;
    LoadGenReport report;
    ASSERT_TRUE(RunLoadGen(cell, *spec, options, &report)) << report.error;
    EXPECT_GT(report.events_sent, 0u);
    EXPECT_TRUE(report.verify_ran);
    EXPECT_EQ(report.mismatched_machines, 0);
    EXPECT_TRUE(report.verified);
    EXPECT_TRUE(report.shutdown_sent);
    harness.server->Wait();
    EXPECT_TRUE(harness.replayer->Done());
  }
}

INSTANTIATE_TEST_SUITE_P(PredictorFamilies, NetServerFamilyTest,
                         ::testing::Values("limit-sum", "n-sigma:3", "rc-like:99",
                                           "borg-default:0.9", "autopilot:98:1.1",
                                           "max(chance:0.02,flex:95:1.2)",
                                           "max(n-sigma:5,rc-like:99)"));

// Shutdown mid-trace seals a CRFCKPT1; resuming a fresh server from it and
// streaming the remainder must land bit-identically on the same end state
// as an uninterrupted from-scratch replay (the loadgen verifier's reference).
TEST(NetServerCheckpointTest, ShutdownSealResumesBitIdentically) {
  const CellTrace cell = RandomCell(202);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("max(chance:0.02,flex:95:1.2)", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  const std::string ckpt = TempPath("seal.ckpt");
  const Interval half = cell.num_intervals / 2;

  {
    ServerHarness harness(cell, *spec, ckpt);
    ASSERT_TRUE(harness.started);
    LoadGenOptions options = TestLoadGenOptions(harness.server->port());
    options.until = half;
    options.verify = false;  // end state checked after the resumed leg
    LoadGenReport report;
    ASSERT_TRUE(RunLoadGen(cell, *spec, options, &report)) << report.error;
    EXPECT_TRUE(report.sealed);
    EXPECT_EQ(report.checkpoint_path, ckpt);
    EXPECT_EQ(report.final_tick, half);
    harness.server->Wait();
    EXPECT_TRUE(harness.server->sealed());
    EXPECT_EQ(harness.server->sealed_tick(), half);
  }

  std::string error;
  auto resumed = LoadCheckpoint(ckpt, cell, TestReplayOptions(), &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_EQ(resumed->next_tick(), half);

  ServerHarness harness(std::move(resumed), "");
  ASSERT_TRUE(harness.started);
  LoadGenReport report;
  ASSERT_TRUE(RunLoadGen(cell, *spec, TestLoadGenOptions(harness.server->port()), &report))
      << report.error;
  EXPECT_TRUE(report.verify_ran);
  EXPECT_TRUE(report.verified) << report.mismatched_machines << " machines mismatched";
  harness.server->Wait();
  EXPECT_TRUE(harness.replayer->Done());
}

// Twelve shards over five to eight machines leave the trailing shards
// empty, and four client threads race to open every window. Each window
// still commits once its last populated shard finishes, the seal lands on
// the window boundary, and the resumed server ends on the in-process report.
TEST(NetServerCheckpointTest, EmptyShardsSealAndResumeBitIdentically) {
  const CellTrace cell = RandomCell(909);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("max(n-sigma:5,rc-like:99)", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  ReplayOptions replay = TestReplayOptions();
  replay.num_shards = 12;
  ASSERT_LT(cell.num_machines(), replay.num_shards);
  const std::string ckpt = TempPath("empty_shards.ckpt");
  const Interval quarter = cell.num_intervals / 4;
  const Interval half = cell.num_intervals / 2;
  const auto loadgen_options = [&](int port, Interval until) {
    LoadGenOptions options = TestLoadGenOptions(port);
    options.client_threads = 4;
    options.until = until;
    options.verify_options = replay;
    return options;
  };

  {
    ServerHarness harness(cell, *spec, ckpt, replay);
    ASSERT_TRUE(harness.started);
    LoadGenOptions first = loadgen_options(harness.server->port(), quarter);
    first.send_shutdown = false;
    LoadGenReport report;
    ASSERT_TRUE(RunLoadGen(cell, *spec, first, &report)) << report.error;
    EXPECT_TRUE(report.verified);

    LoadGenReport sealed;
    ASSERT_TRUE(RunLoadGen(cell, *spec, loadgen_options(harness.server->port(), half), &sealed))
        << sealed.error;
    EXPECT_TRUE(sealed.verified);
    EXPECT_TRUE(sealed.sealed);
    EXPECT_EQ(sealed.final_tick, half);
    harness.server->Wait();
    EXPECT_EQ(harness.server->sealed_tick(), half);
  }

  std::string error;
  auto resumed = LoadCheckpoint(ckpt, cell, replay, &error);
  ASSERT_NE(resumed, nullptr) << error;
  ServerHarness harness(std::move(resumed), "");
  ASSERT_TRUE(harness.started);
  LoadGenReport report;
  ASSERT_TRUE(RunLoadGen(cell, *spec, loadgen_options(harness.server->port(), -1), &report))
      << report.error;
  EXPECT_TRUE(report.verified) << report.mismatched_machines << " machines mismatched";
  harness.server->Wait();
  harness.server.reset();  // joins every connection thread
  ASSERT_TRUE(harness.replayer->Done());

  StreamReplayer reference(cell, *spec, replay);
  reference.AdvanceToEnd();
  ExpectResultsBitIdentical(harness.replayer->Finish(), reference.Finish());
}

// Sealing is refused while an ingest window is still open: the accumulators
// hold pushes past next_tick, so a checkpoint cut there could not resume.
TEST(NetServerCheckpointTest, SealIsRefusedMidWindow) {
  const CellTrace cell = RandomCell(303);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("n-sigma:3", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  ServerHarness harness(cell, *spec, TempPath("refused.ckpt"));
  ASSERT_TRUE(harness.started);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port(), &error)) << error;
  // Open a window on shard 0 without finishing it: one tick of machine 0.
  EventLog log(cell);
  IngestBatchRequest request;
  request.machine = 0;
  request.from_tick = 0;
  request.until_tick = 1;
  request.window_until = cell.num_intervals;
  EventLog::MachineCursor cursor = log.CreateCursor(0);
  cursor.EmitTick(0, request.events);
  ASSERT_TRUE(client.IngestBatch(request, &error).has_value()) << error;

  NetClient shutdown_client;
  ASSERT_TRUE(shutdown_client.Connect("127.0.0.1", harness.server->port(), &error)) << error;
  ShutdownRequest down;
  const auto response = shutdown_client.Shutdown(down, &error);
  EXPECT_FALSE(response.has_value());
  EXPECT_NE(error.find("cannot seal"), std::string::npos) << error;
  harness.server->Wait();  // shutdown op still stops the server
  EXPECT_FALSE(harness.server->sealed());
}

// Protocol violations: wrong machine order within a shard, a mismatched
// window boundary, and a tick regression each draw a kError and close only
// the offending connection; the server remains healthy for other clients.
TEST(NetServerProtocolTest, ViolationsDrawErrorAndConnectionClose) {
  const CellTrace cell = RandomCell(404);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("limit-sum", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  ServerHarness harness(cell, *spec);
  ASSERT_TRUE(harness.started);
  const int port = harness.server->port();
  EventLog log(cell);

  std::string error;
  {
    // Machine out of range.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    MachineQueryRequest query;
    query.machine = cell.num_machines() + 5;
    EXPECT_FALSE(client.MachineQuery(query, &error).has_value());
    EXPECT_NE(error.find("machine"), std::string::npos) << error;
  }
  {
    // Shard protocol: the first streamed machine must be the shard's first.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    IngestBatchRequest request;
    request.machine = 1;  // shard 0 owns machines [0, 2) here; 0 must be first
    request.from_tick = 0;
    request.until_tick = 1;
    request.window_until = cell.num_intervals;
    EventLog::MachineCursor cursor = log.CreateCursor(1);
    cursor.EmitTick(0, request.events);
    EXPECT_FALSE(client.IngestBatch(request, &error).has_value());
    // The connection is closed after the error: the next call fails too.
    EXPECT_FALSE(client.CellQuery(&error).has_value());
  }
  {
    // Roster violation: a departure for a task that is not resident.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    IngestBatchRequest request;
    request.machine = 0;
    request.from_tick = 0;
    request.until_tick = 1;
    request.window_until = cell.num_intervals;
    StreamEvent bogus;
    bogus.kind = StreamEventKind::kTaskDeparture;
    bogus.task_index = 999999;
    bogus.tick = 0;
    bogus.task_id = 999999;
    bogus.limit = 0.5;
    request.events.push_back(bogus);
    EXPECT_FALSE(client.IngestBatch(request, &error).has_value());
    EXPECT_NE(error.find("departure"), std::string::npos) << error;
  }
  // Batch-content violations OvercommitService::IngestTick rejects; each
  // applies nothing, draws the service's diagnostic and closes the
  // connection. Tick 0 of machine 0 (nothing resident, so no departures) is
  // its valid batch with the fault's events put in front or appended.
  const auto synthetic = [](StreamEventKind kind) {
    StreamEvent event;
    event.kind = kind;
    event.task_index = 999999;
    event.tick = 0;
    event.task_id = 999999;
    event.usage = kind == StreamEventKind::kUsageSample ? 0.1 : 0.0;
    event.limit = 0.5;
    return event;
  };
  struct Fault {
    std::vector<StreamEvent> events;
    bool in_front;
    const char* error;
  };
  const std::vector<Fault> faults = {
      // An arrival already resident (its first copy arrived just before).
      {{synthetic(StreamEventKind::kTaskArrival), synthetic(StreamEventKind::kTaskArrival)},
       true,
       "already resident"},
      // A usage sample for no resident task.
      {{synthetic(StreamEventKind::kUsageSample)}, false, "do not match"},
      // An arrival after a sample.
      {{synthetic(StreamEventKind::kUsageSample), synthetic(StreamEventKind::kTaskArrival)},
       false,
       "canonical order"},
  };
  for (const Fault& fault : faults) {
    SCOPED_TRACE(fault.error);
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    IngestBatchRequest request;
    request.machine = 0;
    request.from_tick = 0;
    request.until_tick = 1;
    request.window_until = cell.num_intervals;
    EventLog::MachineCursor cursor = log.CreateCursor(0);
    cursor.EmitTick(0, request.events);
    request.events.insert(fault.in_front ? request.events.begin() : request.events.end(),
                          fault.events.begin(), fault.events.end());
    EXPECT_FALSE(client.IngestBatch(request, &error).has_value());
    EXPECT_NE(error.find(fault.error), std::string::npos) << error;
    EXPECT_FALSE(client.CellQuery(&error).has_value());
  }
  {
    // Raw garbage bytes: not a CRFNET1 frame, connection dropped, no crash.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd, garbage, sizeof(garbage), 0), 0);
    char buffer[256];
    // The server answers with a kError frame (or just closes); either way
    // the connection reaches EOF without wedging.
    while (::recv(fd, buffer, sizeof(buffer), 0) > 0) {
    }
    ::close(fd);
  }

  // After all that abuse a well-behaved client still gets clean service.
  LoadGenReport report;
  ASSERT_TRUE(RunLoadGen(cell, *spec, TestLoadGenOptions(port), &report)) << report.error;
  EXPECT_TRUE(report.verified);
  EXPECT_GE(harness.server->net_metrics().frames_rejected(), 1u);
  harness.server->Wait();
}

// A validation error mid-batch must leave the shard's streaming cursor on
// the applied prefix: the ticks before the bad one are ingested, a fresh
// client resumes at the first unapplied tick, and a replay of an
// already-applied tick draws a kError — never a CHECK abort (the cursor
// and the replayer can never disagree about what was applied).
TEST(NetServerProtocolTest, MidBatchErrorLeavesCursorOnAppliedPrefix) {
  const CellTrace cell = RandomCell(707);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("limit-sum", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  ServerHarness harness(cell, *spec);
  ASSERT_TRUE(harness.started);
  const int port = harness.server->port();
  EventLog log(cell);

  std::string error;
  {
    // Ticks [0, 2) for machine 0, tick 1 corrupted by a trailing departure
    // of a non-resident task: tick 0 applies, tick 1 is rejected.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    IngestBatchRequest request;
    request.machine = 0;
    request.from_tick = 0;
    request.until_tick = 2;
    request.window_until = cell.num_intervals;
    EventLog::MachineCursor cursor = log.CreateCursor(0);
    cursor.EmitTick(0, request.events);
    cursor.EmitTick(1, request.events);
    StreamEvent bogus;
    bogus.kind = StreamEventKind::kTaskDeparture;
    bogus.task_index = 999999;
    bogus.tick = 1;
    bogus.task_id = 999999;
    bogus.limit = 0.5;
    request.events.push_back(bogus);
    EXPECT_FALSE(client.IngestBatch(request, &error).has_value());
  }
  {
    // Replaying the already-applied tick 0 is out of protocol now; the
    // server must answer with an error frame, not abort.
    NetClient stale;
    ASSERT_TRUE(stale.Connect("127.0.0.1", port, &error)) << error;
    IngestBatchRequest request;
    request.machine = 0;
    request.from_tick = 0;
    request.until_tick = 1;
    request.window_until = cell.num_intervals;
    EventLog::MachineCursor cursor = log.CreateCursor(0);
    cursor.EmitTick(0, request.events);
    EXPECT_FALSE(stale.IngestBatch(request, &error).has_value());
    EXPECT_NE(error.find("expected from tick 1"), std::string::npos) << error;
  }
  {
    // Resuming at the first unapplied tick streams on cleanly.
    NetClient resume;
    ASSERT_TRUE(resume.Connect("127.0.0.1", port, &error)) << error;
    IngestBatchRequest request;
    request.machine = 0;
    request.from_tick = 1;
    request.until_tick = 2;
    request.window_until = cell.num_intervals;
    EventLog::MachineCursor cursor = log.CreateCursor(0);
    std::vector<StreamEvent> scratch;
    cursor.EmitTick(0, scratch);
    cursor.EmitTick(1, request.events);
    const auto response = resume.IngestBatch(request, &error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->last_tick, 1);
  }
  harness.server->RequestStop();
}

// The window protocol: a second batch must continue the machine at its next
// tick and keep the window boundary every shard agreed on.
TEST(NetServerProtocolTest, WindowMismatchIsRejected) {
  const CellTrace cell = RandomCell(505);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("limit-sum", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  ServerHarness harness(cell, *spec);
  ASSERT_TRUE(harness.started);
  EventLog log(cell);

  std::string error;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port(), &error)) << error;
  IngestBatchRequest request;
  request.machine = 0;
  request.from_tick = 0;
  request.until_tick = 2;
  request.window_until = cell.num_intervals;
  EventLog::MachineCursor cursor = log.CreateCursor(0);
  cursor.EmitTick(0, request.events);
  cursor.EmitTick(1, request.events);
  ASSERT_TRUE(client.IngestBatch(request, &error).has_value()) << error;

  // Same machine, right tick, but a different window boundary.
  request.events.clear();
  request.from_tick = 2;
  request.until_tick = 3;
  request.window_until = cell.num_intervals - 1;
  cursor.EmitTick(2, request.events);
  EXPECT_FALSE(client.IngestBatch(request, &error).has_value());
  EXPECT_NE(error.find("window"), std::string::npos) << error;
  harness.server->RequestStop();
}

// Streams every machine's ticks [LastTick + 1, until) in machine order over
// one connection, which keeps each shard's machines in ascending order.
void StreamWindowByHand(const CellTrace& cell, int port, Interval until) {
  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
  const EventLog log(cell);
  for (int m = 0; m < cell.num_machines(); ++m) {
    MachineQueryRequest query;
    query.machine = m;
    const auto state = client.MachineQuery(query, &error);
    ASSERT_TRUE(state.has_value()) << error;
    IngestBatchRequest request;
    request.machine = m;
    request.from_tick = state->last_tick + 1;
    request.until_tick = until;
    request.window_until = until;
    EventLog::MachineCursor cursor = log.CreateCursor(m);
    cursor.Seek(request.from_tick);
    for (Interval t = request.from_tick; t < until; ++t) {
      cursor.EmitTick(t, request.events);
    }
    ASSERT_TRUE(client.IngestBatch(request, &error).has_value()) << error;
  }
}

// A first batch that is in order but refused by IngestTick applies nothing,
// so it must not fix the window end for the cell: a valid batch on another
// shard naming a different end is then accepted.
TEST(NetServerProtocolTest, RejectedFirstBatchLeavesNoWindowOpen) {
  const CellTrace cell = RandomCell(818);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("n-sigma:3", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  ServerHarness harness(cell, *spec);
  ASSERT_TRUE(harness.started);
  const int port = harness.server->port();
  EventLog log(cell);

  std::string error;
  {
    // Machine 0's tick 0 with a trailing departure of a non-resident task.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    IngestBatchRequest request;
    request.machine = 0;
    request.from_tick = 0;
    request.until_tick = 1;
    request.window_until = cell.num_intervals / 2;
    EventLog::MachineCursor cursor = log.CreateCursor(0);
    cursor.EmitTick(0, request.events);
    StreamEvent bogus;
    bogus.kind = StreamEventKind::kTaskDeparture;
    bogus.task_index = 999999;
    bogus.tick = 0;
    bogus.task_id = 999999;
    bogus.limit = 0.5;
    request.events.push_back(bogus);
    EXPECT_FALSE(client.IngestBatch(request, &error).has_value());
    EXPECT_NE(error.find("departure"), std::string::npos) << error;
  }
  const int other =
      ShardMachineRange(cell.num_machines(), TestReplayOptions().num_shards, 1).begin;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
  IngestBatchRequest request;
  request.machine = other;
  request.from_tick = 0;
  request.until_tick = 1;
  request.window_until = cell.num_intervals;
  EventLog::MachineCursor cursor = log.CreateCursor(other);
  cursor.EmitTick(0, request.events);
  const auto response = client.IngestBatch(request, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->last_tick, 0);
  harness.server->RequestStop();
}

// One window for the whole cell: once a shard has opened [0, T/4), a batch
// on another shard naming T is refused and applies nothing — two open
// window ends could never commit together — and the server stays live: the
// window still commits, and the next one verifies and seals.
TEST(NetServerProtocolTest, MismatchedWindowIsRejectedAndServerStaysLive) {
  const CellTrace cell = RandomCell(808);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("n-sigma:3", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  const std::string ckpt = TempPath("live.ckpt");
  ServerHarness harness(cell, *spec, ckpt);
  ASSERT_TRUE(harness.started);
  const int port = harness.server->port();
  const Interval quarter = cell.num_intervals / 4;
  const Interval half = cell.num_intervals / 2;
  EventLog log(cell);

  std::string error;
  {
    // Machine 0's tick 0 opens the window to T/4.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    IngestBatchRequest request;
    request.machine = 0;
    request.from_tick = 0;
    request.until_tick = 1;
    request.window_until = quarter;
    EventLog::MachineCursor cursor = log.CreateCursor(0);
    cursor.EmitTick(0, request.events);
    ASSERT_TRUE(client.IngestBatch(request, &error).has_value()) << error;
  }
  const int other =
      ShardMachineRange(cell.num_machines(), TestReplayOptions().num_shards, 1).begin;
  {
    // A valid first batch for shard 1's first machine, naming the end of
    // the trace instead of the open window's end.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    IngestBatchRequest request;
    request.machine = other;
    request.from_tick = 0;
    request.until_tick = 1;
    request.window_until = cell.num_intervals;
    EventLog::MachineCursor cursor = log.CreateCursor(other);
    cursor.EmitTick(0, request.events);
    EXPECT_FALSE(client.IngestBatch(request, &error).has_value());
    EXPECT_NE(error.find("window"), std::string::npos) << error;
  }
  {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
    MachineQueryRequest query;
    query.machine = other;
    const auto state = client.MachineQuery(query, &error);
    ASSERT_TRUE(state.has_value()) << error;
    EXPECT_EQ(state->last_tick, -1);  // the refused batch applied nothing
  }
  ASSERT_NO_FATAL_FAILURE(StreamWindowByHand(cell, port, quarter));

  LoadGenOptions options = TestLoadGenOptions(port);
  options.until = half;
  LoadGenReport report;
  ASSERT_TRUE(RunLoadGen(cell, *spec, options, &report)) << report.error;
  EXPECT_TRUE(report.verified) << report.mismatched_machines << " machines mismatched";
  EXPECT_TRUE(report.sealed);
  EXPECT_EQ(report.final_tick, half);
  harness.server->Wait();
  EXPECT_TRUE(harness.server->sealed());
  EXPECT_EQ(harness.server->sealed_tick(), half);
}

// Admission checks answer against the live predicted peak: a zero-size task
// fits iff the machine has headroom, an absurd one never does, and the
// reported headroom is capacity - predicted_peak.
TEST(NetServerQueryTest, AdmissionCheckUsesPredictedPeakHeadroom) {
  const CellTrace cell = RandomCell(606);
  std::string spec_error;
  const auto spec = ParsePredictorSpec("n-sigma:3", &spec_error);
  ASSERT_TRUE(spec.has_value()) << spec_error;
  ServerHarness harness(cell, *spec);
  ASSERT_TRUE(harness.started);

  LoadGenOptions options = TestLoadGenOptions(harness.server->port());
  options.send_shutdown = false;
  LoadGenReport report;
  ASSERT_TRUE(RunLoadGen(cell, *spec, options, &report)) << report.error;
  ASSERT_TRUE(report.verified);

  std::string error;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port(), &error)) << error;
  AdmissionCheckRequest request;
  request.machine = 0;
  request.task_limit = 1e9;
  auto verdict = client.AdmissionCheck(request, &error);
  ASSERT_TRUE(verdict.has_value()) << error;
  EXPECT_FALSE(verdict->admitted);
  EXPECT_EQ(verdict->capacity, cell.machine_capacity(0));
  EXPECT_EQ(verdict->headroom, verdict->capacity - verdict->predicted_peak);

  request.task_limit = 0.0;
  verdict = client.AdmissionCheck(request, &error);
  ASSERT_TRUE(verdict.has_value()) << error;
  EXPECT_EQ(verdict->admitted, verdict->predicted_peak <= verdict->capacity);

  harness.server->RequestStop();
}

// Served ingest throughput: 4 loadgen client threads stream a 64-machine,
// half-week cell 'a' trace (16 shards, production max() spec) over loopback
// at >= 1M events/s in aggregate, with the end state bit-identical to an
// in-process replay. A host under 4 cores cannot feed 4 client threads plus
// the server's connection threads, and a sanitizer or unoptimized build
// times the instrumentation, so those skip.
TEST(NetServerThroughputTest, FourClientsIngestAtLeastOneMillionEventsPerSecond) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || !defined(NDEBUG)
  GTEST_SKIP() << "throughput is only gated in optimized, uninstrumented builds";
#endif
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 cores, host has " << std::thread::hardware_concurrency();
  }
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 64;
  GeneratorOptions generator;
  generator.num_intervals = kIntervalsPerWeek / 2;
  CellTrace cell = GenerateCellTrace(profile, generator, Rng(12));
  cell.FilterToServingTasks();
  const PredictorSpec spec = ProductionMaxSpec();

  // Push-mode replay: parallelism comes from the client connections driving
  // disjoint shards. Latency sampling is off on both sides so the verify's
  // options match the server's bit for bit.
  ReplayOptions replay;
  replay.parallel = false;
  replay.latency_sample_period = 0;
  ASSERT_EQ(replay.num_shards, 16);
  ServerHarness harness(cell, spec, "", replay);
  ASSERT_TRUE(harness.started);

  LoadGenOptions options;
  options.port = harness.server->port();
  options.client_threads = 4;
  options.verify_options = replay;
  LoadGenReport report;
  ASSERT_TRUE(RunLoadGen(cell, spec, options, &report)) << report.error;
  EXPECT_TRUE(report.verified);
  RecordProperty("events_per_sec", std::to_string(report.events_per_sec));
  EXPECT_GE(report.events_per_sec, 1e6) << report.events_sent << " events in "
                                         << report.elapsed_seconds << " s";
  harness.server->Wait();
}

}  // namespace
}  // namespace crf

// The `motto serve` path: ServeCore::Create, then ServeTcpLoop over a
// loopback TCP socket fed with EncodeStream frames by an in-process client.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <thread>

#include "check.h"
#include "obs/metrics.h"
#include "phases.h"
#include "serve/checkpoint.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "trace.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace serve = motto::serve;

namespace {

std::string FreshDir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  fs::create_directories(path, ec);
  if (ec) Die("create " + path + ": " + ec.message());
  return path;
}

int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die(std::string("socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die(std::string("connect: ") + std::strerror(errno));
  }
  return fd;
}

void WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      Die(std::string("write: ") + std::strerror(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
}

/// Byte offset at which each event frame of `bytes` starts, plus the end
/// of the buffer as a final entry.
std::vector<size_t> EventFrameStarts(const std::string& bytes) {
  serve::FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  std::vector<size_t> starts;
  size_t offset = 0;
  serve::Frame frame;
  while (decoder.Next(&frame) == serve::FrameDecoder::Outcome::kFrame) {
    if (frame.type == serve::FrameType::kEvent) starts.push_back(offset);
    offset = bytes.size() - decoder.buffered();
  }
  starts.push_back(bytes.size());
  return starts;
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Shared between the client (main thread) and the engine thread's tick.
struct OpenLoop {
  std::atomic<int64_t> start_ns{0};  // Published before the client connects.
  double rate = 0.0;
  uint64_t events = 0;
  // Engine thread only until the server thread is joined.
  std::vector<double> latency_ms;
  uint64_t marked = 0;
  size_t depth_first_half = 0;
  size_t depth_second_half = 0;
  // Set once the open-loop connection is fully applied and rotated.
  std::atomic<bool> done{false};

  Clock::time_point Scheduled(uint64_t i) const {
    return Clock::time_point(std::chrono::nanoseconds(start_ns.load())) +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(static_cast<double>(i) / rate));
  }
};

ServeRep ServeOnce(const Config& config, int rep, motto::Jqp* jqp_out) {
  ServeRep out;
  const std::string dir =
      FreshDir(config.dir + "/serve/rep" + std::to_string(rep));
  motto::obs::MetricsRegistry metrics;  // As `motto serve` runs.
  std::unique_ptr<serve::ServeCore> core;
  Inputs in;
  {
    ScopedSpan span("serve.setup");
    const Clock::time_point start = Clock::now();
    in = LoadInputs(config);
    serve::ServeOptions options;
    options.checkpoint_dir = dir + "/ckpt";
    options.out_dir = dir + "/out";
    options.metrics = &metrics;
    {
      ScopedSpan create("serve.create");
      core = Must(serve::ServeCore::Create(in.queries, *in.registry, in.stats,
                                           std::move(options)),
                  "ServeCore::Create");
    }
    out.setup_s = SecondsSince(start);
  }
  if (jqp_out != nullptr) *jqp_out = core->jqp();

  // The client's frames, encoded before anything is timed. Like
  // `motto serve`, the server keeps no copy of the stream.
  const uint64_t total = in.stream.size();
  const uint64_t open_events = std::min<uint64_t>(config.open_events, total);
  serve::EncodeStreamOptions open_options;
  open_options.limit_events = open_events;
  open_options.with_end = false;
  const std::string open_bytes =
      serve::EncodeStream(in.stream, *in.registry, open_options);
  serve::EncodeStreamOptions closed_options;
  closed_options.skip_events = open_events;
  const std::string closed_bytes =
      serve::EncodeStream(in.stream, *in.registry, closed_options);
  in = Inputs{};
  const std::vector<size_t> starts = EventFrameStarts(open_bytes);

  OpenLoop open;
  open.rate = config.open_rate;
  open.events = open_events;
  open.latency_ms.assign(open_events, -1.0);
  serve::ServeCore* engine = core.get();

  serve::IngestOptions ingest;
  ingest.tick_period_seconds = 0.001;
  ingest.tick = [&open, engine] {
    // Engine thread: every event frame below ingested() has been applied.
    const uint64_t applied = std::min(engine->ingested(), open.events);
    if (applied > open.marked) {
      const Clock::time_point now = Clock::now();
      for (uint64_t i = open.marked; i < applied; ++i) {
        open.latency_ms[i] = Ms(now - open.Scheduled(i));
      }
      open.marked = applied;
    }
    if (engine->ingest_queue() != nullptr && applied < open.events) {
      size_t& depth = applied < open.events / 2 ? open.depth_first_half
                                                : open.depth_second_half;
      depth = std::max(depth, engine->ingest_queue()->depth());
    }
    if (applied == open.events && engine->connection() >= 1) {
      open.done.store(true);
    }
  };

  int port = 0;
  const int listen_fd =
      Must(serve::ListenTcp(0, &port), "ListenTcp");
  motto::Result<serve::IngestLoopResult> loop = serve::IngestLoopResult{};
  motto::Status finish;
  Clock::time_point finished;
  std::thread server([&] {
    loop = serve::ServeTcpLoop(engine, listen_fd, ingest, nullptr);
    if (loop.ok() && loop->end_seen) finish = engine->Finish().status();
    finished = Clock::now();
  });

  // Open loop: frame i is due at start + i / rate, whatever the server does.
  std::vector<double> late_ms(open_events, 0.0);
  {
    ScopedSpan span("serve.open_loop");
    span.set_items(open_events);
    const Clock::time_point start = Clock::now();
    open.start_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            start.time_since_epoch())
                            .count());
    const int fd = Connect(port);
    WriteAll(fd, open_bytes.data(), starts[0]);  // Hello + registrations.
    uint64_t sent = 0;
    while (sent < open_events) {
      const Clock::time_point now = Clock::now();
      const double elapsed = std::chrono::duration<double>(now - start).count();
      const uint64_t due = std::min<uint64_t>(
          open_events, static_cast<uint64_t>(elapsed * open.rate) + 1);
      if (due <= sent) {
        std::this_thread::sleep_until(open.Scheduled(sent));
        continue;
      }
      for (uint64_t i = sent; i < due; ++i) {
        late_ms[i] = Ms(now - open.Scheduled(i));
      }
      WriteAll(fd, open_bytes.data() + starts[sent],
               starts[due] - starts[sent]);
      sent = due;
    }
    ::close(fd);  // Hang up without kEnd: the server checkpoints, rotates.
    while (!open.done.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  // Closed loop: the rest of the stream and kEnd as fast as TCP
  // backpressure admits it, timed from connect until Finish() returns.
  Clock::time_point closed_start;
  {
    ScopedSpan span("serve.closed_loop");
    span.set_items(total - open_events);
    closed_start = Clock::now();
    const int fd = Connect(port);
    WriteAll(fd, closed_bytes.data(), closed_bytes.size());
    ::close(fd);
    server.join();
  }
  ::close(listen_fd);
  Must(loop.status(), "ServeTcpLoop");
  if (!loop->end_seen) Die("serve loop ended without kEnd: " + loop->error);
  Must(finish, "ServeCore::Finish");

  out.eps = static_cast<double>(total - open_events) /
            std::chrono::duration<double>(finished - closed_start).count();
  out.offered = total;
  out.ingested = engine->ingested();
  out.shed = loop->shed;
  out.max_queue_depth = loop->max_queue_depth;
  out.checkpoints = engine->checkpoints_taken();

  std::vector<double> latency;
  for (double ms : open.latency_ms) {
    if (ms >= 0) latency.push_back(ms);
  }
  out.latency_samples = latency.size();
  out.p50_ms = latency.empty() ? 0.0 : Quantile(latency, 0.5);
  out.p99_ms = latency.empty() ? 0.0 : Quantile(latency, 0.99);
  out.late_max_ms =
      late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end());
  out.late_p99_ms = late_ms.empty() ? 0.0 : Quantile(late_ms, 0.99);
  // Unsustained: the generator fell further behind, or the queue grew, in
  // the second half of the open-loop phase than in the first.
  const size_t half = late_ms.size() / 2;
  if (half > 0) {
    const double first = Quantile(
        std::vector<double>(late_ms.begin(), late_ms.begin() + half), 0.99);
    const double second = Quantile(
        std::vector<double>(late_ms.begin() + half, late_ms.end()), 0.99);
    if (second > 2 * first + 5.0) out.sustained = false;
  }
  if (open.depth_second_half > 2 * open.depth_first_half + 1024) {
    out.sustained = false;
  }
  out.print = Must(PrintMatchFiles(dir + "/out"), "read released matches");
  core.reset();
  FreshDir(dir);  // Checkpoints and match files are checked; drop them.
  return out;
}

}  // namespace

ServeResult RunServe(const Config& config, Metrics* layer) {
  ServeResult result;
  ScopedSpan phase("serve");
  for (int rep = 0; rep < config.serve_reps; ++rep) {
    result.reps.push_back(
        ServeOnce(config, rep, rep == 0 ? &result.jqp : nullptr));
  }
  if (config.trace) {
    std::vector<double> checkpoints, late_max, late_p99;
    size_t depth = 0;
    uint64_t shed = 0, samples = 0;
    bool sustained = true;
    for (const ServeRep& rep : result.reps) {
      checkpoints.push_back(static_cast<double>(rep.checkpoints));
      late_max.push_back(rep.late_max_ms);
      late_p99.push_back(rep.late_p99_ms);
      depth = std::max(depth, rep.max_queue_depth);
      shed += rep.shed;
      samples += rep.latency_samples;
      sustained = sustained && rep.sustained;
    }
    (*layer)["serve.checkpoints"] = {Median(checkpoints), "count"};
    (*layer)["serve.max_queue_depth"] = {static_cast<double>(depth), "count"};
    (*layer)["serve.shed"] = {static_cast<double>(shed), "count"};
    (*layer)["serve.latency_samples"] = {static_cast<double>(samples),
                                         "count"};
    (*layer)["serve.send_late_max_ms"] = {Median(late_max), "ms"};
    (*layer)["serve.send_late_p99_ms"] = {Median(late_p99), "ms"};
    (*layer)["serve.sustained"] = {sustained ? 1.0 : 0.0, "bool"};
  }
  return result;
}

void ProbeServeLayers(const Config& config, Metrics* layer) {
  ScopedSpan phase("serve_probe");
  Inputs in = LoadInputs(config);
  const std::string bytes = serve::EncodeStream(in.stream, *in.registry);
  const uint64_t events = in.stream.size();

  // FrameDecoder alone, fed in the reader thread's 64 KiB chunks.
  std::vector<double> decode_eps;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span("serve.decode");
    span.set_items(events);
    const Clock::time_point start = Clock::now();
    serve::FrameDecoder decoder;
    serve::Frame frame;
    uint64_t decoded = 0;
    for (size_t offset = 0; offset < bytes.size(); offset += 65536) {
      decoder.Append(bytes.data() + offset,
                     std::min<size_t>(65536, bytes.size() - offset));
      while (decoder.Next(&frame) == serve::FrameDecoder::Outcome::kFrame) {
        decoded += frame.type == serve::FrameType::kEvent;
      }
    }
    decode_eps.push_back(static_cast<double>(decoded) / SecondsSince(start));
  }
  (*layer)["serve.decode_eps"] = {Median(decode_eps), "events/s"};

  std::vector<serve::Frame> frames;
  {
    serve::FrameDecoder decoder;
    decoder.Append(bytes.data(), bytes.size());
    serve::Frame frame;
    while (decoder.Next(&frame) == serve::FrameDecoder::Outcome::kFrame) {
      frames.push_back(frame);
    }
  }

  // OnFrame alone on pre-decoded frames, with an explicit, separately
  // timed Checkpoint() every `interval` event frames (the serve default).
  const std::string dir = FreshDir(config.dir + "/serve/probe");
  motto::obs::MetricsRegistry metrics;
  serve::ServeOptions options;
  const uint64_t interval = options.checkpoint_interval;
  options.checkpoint_dir = dir + "/ckpt";
  options.checkpoint_interval = 0;
  options.out_dir = dir + "/out";
  options.metrics = &metrics;
  std::unique_ptr<serve::ServeCore> core;
  {
    ScopedSpan span("serve.create");
    core = Must(serve::ServeCore::Create(in.queries, *in.registry, in.stats,
                                         std::move(options)),
                "ServeCore::Create");
  }
  in = Inputs{};
  double apply_seconds = 0.0;
  std::vector<double> checkpoint_s;
  size_t next = 0;
  while (next < frames.size() &&
         frames[next].type != serve::FrameType::kEnd) {
    uint64_t block = 0;
    {
      ScopedSpan span("serve.apply");
      const Clock::time_point start = Clock::now();
      for (; next < frames.size() && block < interval;
           ++next) {
        if (frames[next].type == serve::FrameType::kEnd) break;
        Must(core->OnFrame(frames[next]), "OnFrame");
        block += frames[next].type == serve::FrameType::kEvent;
      }
      apply_seconds += SecondsSince(start);
      span.set_items(block);
    }
    ScopedSpan span("serve.checkpoint");
    const Clock::time_point start = Clock::now();
    Must(core->Checkpoint(), "Checkpoint");
    checkpoint_s.push_back(SecondsSince(start));
  }
  (*layer)["serve.apply_eps"] = {static_cast<double>(events) / apply_seconds,
                                 "events/s"};
  (*layer)["serve.checkpoint_s_p50"] = {Quantile(checkpoint_s, 0.5), "s"};
  (*layer)["serve.checkpoint_s_max"] = {
      *std::max_element(checkpoint_s.begin(), checkpoint_s.end()), "s"};

  // Serialize and save alone, on the latest durable state.
  serve::LoadedCheckpoint loaded =
      Must(serve::LoadLatestCheckpoint(dir + "/ckpt"), "LoadLatestCheckpoint");
  std::vector<double> serialize_s, save_s;
  size_t checkpoint_bytes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan span("serve.ckpt_serialize");
    const Clock::time_point start = Clock::now();
    checkpoint_bytes = serve::SerializeCheckpoint(loaded.state).size();
    serialize_s.push_back(SecondsSince(start));
  }
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span("serve.ckpt_save");
    const Clock::time_point start = Clock::now();
    Must(serve::SaveCheckpoint(dir + "/ckpt_copy", loaded.state),
         "SaveCheckpoint");
    save_s.push_back(SecondsSince(start));
  }
  (*layer)["serve.ckpt_serialize_s"] = {Median(serialize_s), "s"};
  (*layer)["serve.ckpt_save_s"] = {Median(save_s), "s"};
  (*layer)["serve.checkpoint_bytes"] = {static_cast<double>(checkpoint_bytes),
                                        "bytes"};
  Must(core->Finish().status(), "ServeCore::Finish");
  core.reset();
  FreshDir(dir);
}

}  // namespace perfbench

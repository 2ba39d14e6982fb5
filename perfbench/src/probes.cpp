// Fabric floor probes: raw Fabric::send / recv_until ping-pongs between two
// plain kernel threads, no runtime.  Their round trips are the floor under
// rpc_sync (inproc 64 B), mig_* (inproc 64 B and 64 KiB) and the open-loop
// latencies (socket 64 B).
#include <errno.h>
#include <sys/stat.h>
#include <unistd.h>

#include <thread>

#include "common/check.hpp"
#include "common/time.hpp"
#include "fabric/inproc.hpp"
#include "fabric/socket_fabric.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

constexpr uint16_t kPing = 900;  // the fabric only routes; any type works
constexpr uint16_t kStop = 901;
constexpr uint64_t kRecvTimeoutNs = 2'000'000'000;

pm2::fabric::Message make(uint16_t type, uint32_t dst,
                          const std::vector<uint8_t>& payload) {
  pm2::fabric::Message m;
  m.type = type;
  m.dst = dst;
  m.payload = payload;
  return m;
}

/// Ping-pong `payload` for `seconds` between endpoints a (timing side) and
/// b (echo side).  Returns the round trips; counts corrupted or lost echoes
/// in `failed`.
Histogram pingpong(pm2::fabric::Fabric& a, pm2::fabric::Fabric& b,
                               size_t bytes, double seconds,
                               uint64_t& failed) {
  std::vector<uint8_t> payload(bytes);
  for (size_t i = 0; i < bytes; ++i) payload[i] = static_cast<uint8_t>(i * 131);
  std::thread echo([&b] {
    Span span("probe.echo");
    for (;;) {
      span.enter("recv_until", 0);
      auto m = b.recv_until(pm2::now_ns() + kRecvTimeoutNs);
      if (!m) return;  // the timing side gave up; it reports the loss
      if (m->type == kStop) return;
      span.enter("send", 0);
      b.send(make(kPing, m->src, m->flat()));
    }
  });
  Span span("probe.ping");
  Histogram out;
  const uint64_t end = pm2::now_ns() + static_cast<uint64_t>(seconds * 1e9);
  const uint32_t peer = b.node_id();
  for (uint64_t i = 0; pm2::now_ns() < end || i < 16; ++i) {
    span.enter("send+recv_until", i);
    uint64_t t0 = pm2::now_ns();
    a.send(make(kPing, peer, payload));
    auto m = a.recv_until(t0 + kRecvTimeoutNs);
    uint64_t t1 = pm2::now_ns();
    if (!m || m->flat() != payload) {
      ++failed;
      break;
    }
    if (i >= 16) out.add(t1 - t0);  // the first round trips warm up
  }
  a.send(make(kStop, peer, {}));
  echo.join();
  span.leave();
  return out;
}

}  // namespace

void run_fabric_probes(const Options& opt, Report& rep, double seconds) {
  uint64_t failed = 0;
  {
    auto hub = std::make_shared<pm2::fabric::InProcHub>(2);
    auto a = hub->endpoint(0), b = hub->endpoint(1);
    Histogram small = pingpong(*a, *b, 64, seconds / 3, failed);
    Histogram large = pingpong(*a, *b, 64 * 1024, seconds / 3, failed);
    rep.metric("fabric.inproc.rtt_64b_p50_us", small.p50_us(), "us");
    rep.metric("fabric.inproc.rtt_64k_p50_us", large.p50_us(), "us");
    rep.samples("fabric.inproc.rtt_64b", small.count());
    rep.samples("fabric.inproc.rtt_64k", large.count());
  }
  {
    PM2_CHECK(::mkdir(opt.run_dir.c_str(), 0700) == 0 || errno == EEXIST)
        << "cannot create " << opt.run_dir;
    std::string dir = opt.run_dir + "/probe" + std::to_string(::getpid());
    PM2_CHECK(::mkdir(dir.c_str(), 0700) == 0 || errno == EEXIST)
        << "cannot create " << dir;
    std::unique_ptr<pm2::fabric::Fabric> ends[2];
    std::thread peer([&] {
      pm2::fabric::SocketFabricConfig fc;
      fc.node_id = 1;
      fc.n_nodes = 2;
      fc.dir = dir;
      ends[1] = pm2::fabric::make_socket_fabric(fc);
    });
    pm2::fabric::SocketFabricConfig fc;
    fc.node_id = 0;
    fc.n_nodes = 2;
    fc.dir = dir;
    ends[0] = pm2::fabric::make_socket_fabric(fc);
    peer.join();
    Histogram small = pingpong(*ends[0], *ends[1], 64, seconds / 3, failed);
    rep.metric("fabric.socket.rtt_64b_p50_us", small.p50_us(), "us");
    rep.samples("fabric.socket.rtt_64b", small.count());
    for (auto& e : ends) e->set_teardown(true);
    ends[0].reset();
    ends[1].reset();
    for (int i = 0; i < 2; ++i)
      ::unlink((dir + "/node" + std::to_string(i) + ".sock").c_str());
    ::rmdir(dir.c_str());
    ::rmdir(opt.run_dir.c_str());
  }
  rep.ops(0, failed);
  rep.check(failed == 0, "every fabric probe echo returns intact");
}

}  // namespace perfbench

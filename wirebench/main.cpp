// wirebench — the repository benchmark: one named workload per process
// against an in-process net::NetServer over loopback.
//
//   wirebench --workload chain|netdesc|longrun --seed N --seconds S
//             --trace 0|1 [--netdesc-rate R]
//
// --trace 0 times the workload end to end and checks every spike stream it
// received against server::run_standalone; --trace 1 is the separate traced
// run (traced.cpp) that yields the per-layer metrics.  The last stdout line
// is one JSON object: correct, attempted, failed, metrics.  README.md
// documents the workloads and every metric.
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <ctime>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace wirebench {
namespace {

constexpr int kSetups = 7;
constexpr std::size_t kChainSeeds = 64;
constexpr std::size_t kNetdescSample = 32;
constexpr int kPipelineDepth = 4;
constexpr std::int64_t kLongrunPollNs = 2'000'000;

/// One completed session as its client saw it.
struct Done {
  double latency_ms = 0.0;
  std::int64_t t_done = 0;
  std::size_t plan = 0;
  std::uint64_t digest = 0;
};

/// What one client thread observed; merged after the threads join.
struct Phase {
  std::vector<Done> done;
  std::vector<double> ttfs_ms;
  std::vector<double> poll_ms;
  std::vector<double> late_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  void fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
  void merge(Phase&& o) {
    done.insert(done.end(), o.done.begin(), o.done.end());
    ttfs_ms.insert(ttfs_ms.end(), o.ttfs_ms.begin(), o.ttfs_ms.end());
    poll_ms.insert(poll_ms.end(), o.poll_ms.begin(), o.poll_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    if (first_error.empty()) first_error = o.first_error;
  }
};

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

bool is_err(const std::string& block) { return block.rfind("err", 0) == 0; }

/// Fold a drain block into the stream digest.  False when malformed.
bool fold_drain(const std::string& block, std::uint64_t* h, bool* nonempty) {
  std::vector<neural::SpikeRecorder::Event> events;
  if (!net::parse_spikes(block, &events)) return false;
  *h = digest(events, *h);
  *nonempty = !events.empty();
  return true;
}

/// A whole-lifecycle batch reply: every block ok, the drain second to last.
bool batch_reply(const std::string& payload, std::size_t blocks_expected,
                 std::uint64_t* h, std::string* error) {
  const auto blocks = net::Client::split_response(payload);
  if (blocks.size() != blocks_expected) {
    *error = "reply with " + std::to_string(blocks.size()) + " blocks: " +
             payload.substr(0, 120);
    return false;
  }
  for (const auto& b : blocks) {
    if (is_err(b)) {
      *error = b;
      return false;
    }
  }
  bool nonempty = false;
  if (!fold_drain(blocks[blocks.size() - 2], h, &nonempty)) {
    *error = "malformed drain block";
    return false;
  }
  return true;
}

/// A raw framed connection for the open-loop generator: it sends on a
/// schedule while replies arrive, which the blocking net::Client cannot.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) : in_(8u << 20) {
    std::string error;
    fd_ = net::connect_loopback(port, &error);
    if (!fd_) throw std::runtime_error("connect: " + error);
    net::set_nodelay(fd_.get());
  }

  bool send(const std::string& payload) {
    std::string buf;
    net::append_frame(buf, payload);
    return net::send_all(fd_.get(), buf.data(), buf.size());
  }

  int fd() const { return fd_.get(); }

  /// One recv() into the frame decoder; call when the socket is readable
  /// (it blocks otherwise).  False on EOF or a transport error.
  bool read_some() {
    char buf[1 << 16];
    const ssize_t n = recv(fd_.get(), buf, sizeof buf, 0);
    if (n <= 0) return false;
    in_.feed(buf, static_cast<std::size_t>(n));
    return true;
  }

  bool next(std::string* payload) { return in_.next(payload); }

  /// Blocking round trip (warm-up only).
  std::string request(const std::string& payload) {
    std::string reply;
    if (!send(payload)) return reply;
    while (!next(&reply)) {
      if (!read_some()) return {};
    }
    return reply;
  }

 private:
  net::Fd fd_;
  net::FrameDecoder in_;
};

/// Server plus connected clients, ready for the timed phase.
struct Rig {
  std::unique_ptr<net::NetServer> server;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<std::unique_ptr<RawConn>> raw;

  /// Clients hang up before the server stops.
  void reset() {
    clients.clear();
    raw.clear();
    server.reset();
  }
};

std::vector<SessionPlan> chain_pool(std::uint64_t seed) {
  std::vector<SessionPlan> plans;
  for (std::size_t k = 0; k < kChainSeeds; ++k) {
    plans.push_back(chain_plan(mix(seed, k) % 1000000007ull));
  }
  return plans;
}

/// Warm-up sessions run on every setup: the fixed start-up work a server
/// does before it serves at its steady rate.  They are the same for every
/// seed, so `setup_s` does not vary with the workload's inputs.
void warm(const std::string& workload, Rig& rig) {
  const std::uint64_t warm_seed = 0x7761726d;
  if (workload == "chain") {
    for (std::size_t c = 0; c < rig.clients.size(); ++c) {
      for (int k = 0; k < 100; ++k) {
        const std::string reply = rig.clients[c]->batch(
            {batch_frame(chain_plan(mix(warm_seed, c * 1000 + k) % 1000003))});
        if (reply.empty() || reply.find("err") != std::string::npos) {
          throw std::runtime_error("chain warm-up failed: " + reply);
        }
      }
    }
  } else if (workload == "netdesc") {
    for (std::size_t c = 0; c < rig.raw.size(); ++c) {
      for (int k = 0; k < 6; ++k) {
        const std::string reply = rig.raw[c]->request(
            batch_frame(netdesc_plan(mix(warm_seed, c * 1000 + k))));
        if (reply.empty() || reply.find("err") != std::string::npos) {
          throw std::runtime_error("netdesc warm-up failed: " + reply);
        }
      }
    }
  } else {
    SessionPlan p = longrun_plan(warm_seed);
    p.run = 10 * kMillisecond;
    const std::string reply = rig.clients[0]->batch({batch_frame(p)});
    if (reply.empty() || reply.find("err") != std::string::npos) {
      throw std::runtime_error("longrun warm-up failed: " + reply);
    }
  }
}

Rig make_rig(const std::string& workload) {
  Rig rig;
  rig.server = std::make_unique<net::NetServer>(server_config());
  const int conns = workload == "longrun" ? 1 : 4;
  for (int c = 0; c < conns; ++c) {
    if (workload == "netdesc") {
      rig.raw.push_back(std::make_unique<RawConn>(rig.server->port()));
    } else {
      rig.clients.push_back(
          std::make_unique<net::Client>(rig.server->port()));
    }
  }
  warm(workload, rig);
  return rig;
}

/// Closed loop on one connection with up to `depth` whole-lifecycle batch
/// frames in flight until the deadline, then drain what is in flight.
Phase pipelined(net::Client& client, const std::vector<std::string>& frames,
                const std::function<std::size_t(std::size_t)>& plan_of,
                std::size_t blocks, std::int64_t deadline) {
  Phase ph;
  struct Flight {
    std::int64_t t0;
    std::size_t plan;
  };
  std::vector<Flight> inflight;  // FIFO; replies come in request order
  std::size_t head = 0;
  std::size_t sent = 0;
  while (true) {
    while (now_ns() < deadline && inflight.size() - head < kPipelineDepth) {
      const std::size_t plan = plan_of(sent++);
      const std::int64_t t0 = now_ns();
      ++ph.attempted;
      if (!client.send(frames[plan])) {
        ph.fail("send failed");
        return ph;
      }
      inflight.push_back({t0, plan});
    }
    if (head == inflight.size()) break;
    const std::string reply = client.receive();
    const std::int64_t t1 = now_ns();
    const Flight f = inflight[head++];
    if (reply.empty()) {
      ph.fail("connection lost");
      ph.failed += inflight.size() - head;
      return ph;
    }
    std::uint64_t h = kDigestBasis;
    std::string error;
    if (!batch_reply(reply, blocks, &h, &error)) {
      ph.fail(error);
      continue;
    }
    ph.done.push_back({ms_between(f.t0, t1), t1, f.plan, h});
  }
  return ph;
}

/// `drain <id>` until the first spike, then wait/drain/close: the chain
/// streamer, and the source of its time-to-first-spike samples.
Phase streamer(net::Client& client, const std::vector<SessionPlan>& plans,
               std::size_t offset, std::int64_t deadline) {
  Phase ph;
  for (std::size_t k = 0; now_ns() < deadline; ++k) {
    const std::size_t plan = (offset + k * 7) % plans.size();
    ++ph.attempted;
    const std::int64_t t0 = now_ns();
    const auto opened =
        net::Client::split_response(client.request(open_frame(plans[plan])));
    server::SessionId id = server::kInvalidSession;
    if (opened.size() != 2 || !net::parse_open_id(opened[0], &id) ||
        is_err(opened[1])) {
      ph.fail("streamer open: " + (opened.empty() ? "" : opened[0]));
      if (!client.connected()) return ph;
      continue;
    }
    const std::string ids = std::to_string(id);
    std::uint64_t h = kDigestBasis;
    bool ok = true;
    for (int polls = 0;; ++polls) {
      const std::int64_t tp = now_ns();
      const std::string reply = client.request("drain " + ids);
      const std::int64_t t1 = now_ns();
      bool nonempty = false;
      if (!fold_drain(reply, &h, &nonempty) || polls > 1'000'000) {
        ok = false;
        break;
      }
      ph.poll_ms.push_back(ms_between(tp, t1));
      if (nonempty) {
        ph.ttfs_ms.push_back(ms_between(t0, t1));
        break;
      }
    }
    const auto tail = net::Client::split_response(
        client.batch({"wait " + ids, "drain " + ids, "close " + ids}));
    const std::int64_t t1 = now_ns();
    bool nonempty = false;
    if (!ok || tail.size() != 3 || is_err(tail[0]) || is_err(tail[2]) ||
        !fold_drain(tail[1], &h, &nonempty)) {
      ph.fail("streamer session " + ids + " failed");
      if (!client.connected()) return ph;
      continue;
    }
    ph.done.push_back({ms_between(t0, t1), t1, plan, h});
  }
  return ph;
}

/// Parse `t=` and `target=` from a status line.
bool status_done(const std::string& line) {
  const auto field = [&](const char* key) -> long long {
    const auto pos = line.find(key);
    if (pos == std::string::npos) return -1;
    return std::atoll(line.c_str() + pos + std::strlen(key));
  };
  const long long t = field(" t=");
  const long long target = field(" target=");
  return t >= 0 && target > 0 && t >= target;
}

/// One session at a time: open + run, poll `drain` every few ms while it
/// runs, close once the run is complete.
Phase longrun_loop(net::Client& client, const SessionPlan& plan,
                   std::int64_t deadline) {
  Phase ph;
  const std::string frame = open_frame(plan);
  while (now_ns() < deadline) {
    ++ph.attempted;
    const std::int64_t t0 = now_ns();
    const auto opened = net::Client::split_response(client.request(frame));
    server::SessionId id = server::kInvalidSession;
    if (opened.size() != 3 || is_err(opened[0]) ||
        !net::parse_open_id(opened[1], &id) || is_err(opened[2])) {
      ph.fail("longrun open: " + (opened.empty() ? "" : opened[0]));
      if (!client.connected()) return ph;
      continue;
    }
    const std::string ids = std::to_string(id);
    std::uint64_t h = kDigestBasis;
    bool seen_spike = false;
    bool ok = true;
    // The status rides in the poll's frame: it answers "is the run done"
    // without a second round trip.
    while (true) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kLongrunPollNs));
      const std::int64_t tp = now_ns();
      const auto blocks = net::Client::split_response(
          client.batch({"drain " + ids, "status " + ids}));
      const std::int64_t t1 = now_ns();
      bool nonempty = false;
      if (blocks.size() != 2 || !fold_drain(blocks[0], &h, &nonempty) ||
          is_err(blocks[1])) {
        ok = false;
        break;
      }
      ph.poll_ms.push_back(ms_between(tp, t1));
      if (nonempty && !seen_spike) {
        seen_spike = true;
        ph.ttfs_ms.push_back(ms_between(t0, t1));
      }
      if (status_done(blocks[1])) break;
    }
    const auto tail = net::Client::split_response(
        client.batch({"drain " + ids, "close " + ids}));
    const std::int64_t t1 = now_ns();
    bool nonempty = false;
    if (!ok || tail.size() != 2 || !fold_drain(tail[0], &h, &nonempty) ||
        is_err(tail[1])) {
      ph.fail("longrun session " + ids + " failed");
      if (!client.connected()) return ph;
      continue;
    }
    if (nonempty && !seen_spike) ph.ttfs_ms.push_back(ms_between(t0, t1));
    ph.done.push_back({ms_between(t0, t1), t1, 0, h});
  }
  return ph;
}

/// Open loop: one generator thread sends arrival i at its scheduled time on
/// connection i mod n without waiting, and times each reply from that
/// schedule.  Replies on a connection come in its request order.
Phase open_loop(const std::vector<std::unique_ptr<RawConn>>& conns,
                const std::vector<std::string>& frames,
                const std::vector<std::int64_t>& sched,
                std::int64_t give_up) {
  Phase ph;
  const std::size_t n = conns.size();
  std::vector<pollfd> fds;
  for (const auto& c : conns) fds.push_back({c->fd(), POLLIN, 0});
  std::vector<std::size_t> replies(n, 0);
  std::size_t next = 0;
  std::size_t received = 0;
  std::string stop;
  while (received < sched.size() && stop.empty()) {
    const std::int64_t now = now_ns();
    if (next < sched.size() && now >= sched[next]) {
      ph.late_ms.push_back(ms_between(sched[next], now));
      if (!conns[next % n]->send(frames[next])) stop = "send failed";
      ++next;
      continue;
    }
    if (now > give_up) {
      stop = "replies still missing at the give-up time";
      break;
    }
    const std::int64_t wait =
        next < sched.size() ? sched[next] - now : 50'000'000;
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    if (ppoll(fds.data(), n, &ts, nullptr) < 0 && errno != EINTR) {
      stop = "poll failed";
      break;
    }
    for (std::size_t c = 0; c < n && stop.empty(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!conns[c]->read_some()) {
        stop = "connection lost";
        break;
      }
      std::string payload;
      while (conns[c]->next(&payload)) {
        const std::int64_t t1 = now_ns();
        const std::size_t idx = c + n * replies[c]++;
        if (idx >= next) {
          stop = "reply to a request never sent";
          break;
        }
        ++received;
        std::uint64_t h = kDigestBasis;
        std::string error;
        if (!batch_reply(payload, 6, &h, &error)) {
          ph.fail(error);
          continue;
        }
        ph.done.push_back({ms_between(sched[idx], t1), t1, idx, h});
      }
    }
  }
  // Every scheduled arrival counts; one without a reply is a failure.
  ph.attempted = sched.size();
  ph.failed += sched.size() - received;
  if (!stop.empty() && ph.first_error.empty()) ph.first_error = stop;
  return ph;
}

template <typename Fn>
Phase run_threads(std::size_t n, Fn fn) {
  std::vector<Phase> phases(n);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&phases, &fn, i] { phases[i] = fn(i); });
  }
  for (auto& t : threads) t.join();
  Phase all;
  for (auto& p : phases) all.merge(std::move(p));
  return all;
}

std::vector<std::string> netdesc_frames(std::uint64_t seed, std::size_t n,
                                        std::vector<SessionPlan>* plans) {
  std::vector<std::string> frames;
  for (std::size_t i = 0; i < n; ++i) {
    plans->push_back(netdesc_plan(mix(seed, i)));
    frames.push_back(batch_frame(plans->back()));
  }
  return frames;
}

/// Closed-loop netdesc capacity (4 connections x 4 frames in flight): how
/// the frozen open-loop rate in BENCHMARK.json was derived.
int measure_capacity(const Options& opt) {
  Rig rig = make_rig("chain");
  std::vector<SessionPlan> plans;
  const auto frames = netdesc_frames(opt.seed, 4096, &plans);
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(opt.seconds * 1e9);
  Phase ph = run_threads(rig.clients.size(), [&](std::size_t c) {
    return pipelined(
        *rig.clients[c], frames,
        [c](std::size_t k) { return (c + 4 * k) % 4096; }, 6, deadline);
  });
  const double wall = ms_between(start, now_ns()) / 1e3;
  std::cout << "netdesc_closed_loop_sessions_per_s "
            << json_number(static_cast<double>(ph.done.size()) / wall)
            << " failed " << ph.failed << std::endl;
  return ph.failed == 0 ? 0 : 1;
}

Result run_timed(const Options& opt) {
  Result r;
  r.workload = opt.workload;
  r.seed = opt.seed;

  // Inputs first: generation is the benchmark's work, not the server's.
  std::vector<SessionPlan> plans;
  std::vector<std::string> frames;
  std::vector<std::int64_t> offsets;  // netdesc arrival offsets from start
  if (opt.workload == "chain") {
    plans = chain_pool(opt.seed);
    for (const auto& p : plans) frames.push_back(batch_frame(p));
  } else if (opt.workload == "netdesc") {
    // A Poisson process conditioned on its count: rate x seconds arrivals
    // at uniform random times.  Gaps stay exponential.  The schedule is one
    // fixed draw and the seed chooses the nets: with a per-seed schedule,
    // its bursts moved the p99 latency by more than any bound allows.
    Rng arrivals(0x61727276);
    const auto count =
        static_cast<std::size_t>(std::llround(opt.netdesc_rate * opt.seconds));
    for (std::size_t i = 0; i < count; ++i) {
      offsets.push_back(
          static_cast<std::int64_t>(arrivals.uniform() * opt.seconds * 1e9));
    }
    std::sort(offsets.begin(), offsets.end());
    frames = netdesc_frames(opt.seed, offsets.size(), &plans);
  } else {
    plans.push_back(longrun_plan(opt.seed));
  }

  std::vector<double> setups;
  Rig rig;
  for (int s = 0; s < kSetups; ++s) {
    rig.reset();  // tear the previous one down outside the timing
    const std::int64_t t0 = now_ns();
    rig = make_rig(opt.workload);
    setups.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  const double setup_rss = peak_rss_mb();

  const std::int64_t start = now_ns() + 5'000'000;
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(opt.seconds * 1e9);
  Phase ph;
  if (opt.workload == "chain") {
    ph = run_threads(4, [&](std::size_t c) {
      while (now_ns() < start) std::this_thread::yield();
      if (c == 3) return streamer(*rig.clients[c], plans, c, deadline);
      return pipelined(
          *rig.clients[c], frames,
          [c](std::size_t k) { return (c * 17 + k) % kChainSeeds; }, 5,
          deadline);
    });
  } else if (opt.workload == "netdesc") {
    std::vector<std::int64_t> sched;
    for (std::int64_t off : offsets) sched.push_back(start + off);
    ph = open_loop(rig.raw, frames, sched, deadline + 60'000'000'000);
    // Queueing shows as latency here: the first drain arrives with the
    // batch reply, so time to first spike is the session latency.
    for (const Done& d : ph.done) ph.ttfs_ms.push_back(d.latency_ms);
  } else {
    while (now_ns() < start) std::this_thread::yield();
    ph = longrun_loop(*rig.clients[0], plans[0], deadline);
  }
  const double rss = peak_rss_mb();

  const net::NetStats ns = rig.server->stats();
  const server::ServerStats ss = rig.server->sessions().stats();
  const std::uint64_t shed = ns.refused + ns.shed_slow + ns.shed_flood;
  r.host = host_fingerprint();
  r.host["reactors"] = std::to_string(rig.server->reactor_count());
  r.host["session_workers"] = std::to_string(server_config().session.workers);
  r.host["engine_threads"] =
      plans[0].spec.engine == sim::EngineKind::Sharded
          ? std::to_string(plans[0].spec.threads)
          : "serial";
  rig.reset();

  // The oracle: every stream against run_standalone of the same spec.
  std::vector<std::size_t> to_check;
  if (opt.workload == "netdesc") {
    Rng pick(mix(opt.seed, 0x73616d70));
    for (std::size_t i = 0; i < kNetdescSample && !ph.done.empty(); ++i) {
      to_check.push_back(pick.uniform_int(ph.done.size()));
    }
  } else {
    for (std::size_t i = 0; i < ph.done.size(); ++i) to_check.push_back(i);
  }
  std::map<std::size_t, std::uint64_t> refs;
  std::uint64_t mismatches = 0;
  for (std::size_t i : to_check) {
    const Done& d = ph.done[i];
    auto it = refs.find(d.plan);
    if (it == refs.end()) {
      std::uint64_t ref = reference_digest(plans[d.plan]);
      if (opt.corrupt_reference) ref ^= 1;
      it = refs.emplace(d.plan, ref).first;
    }
    if (it->second != d.digest) ++mismatches;
  }

  r.attempted = ph.attempted;
  r.failed = ph.failed + mismatches + shed + ss.rejected;
  r.correct = r.failed == 0 && !ph.done.empty();

  std::int64_t last = start;
  for (const Done& d : ph.done) last = std::max(last, d.t_done);
  const double window_s = ms_between(start, last) / 1e3;
  const auto completed = static_cast<double>(ph.done.size());
  std::vector<double> lat;
  for (const Done& d : ph.done) lat.push_back(d.latency_ms);
  const double bio_ms = static_cast<double>(plans[0].run) / kMillisecond;

  r.metrics = {
      {"sessions_per_s", completed / window_s, "1/s"},
      {"session_p50_ms", quantile(lat, 0.5), "ms"},
      {"ttfs_p50_ms", quantile(ph.ttfs_ms, 0.5), "ms"},
      {"bio_ms_per_s", completed * bio_ms / window_s, "ms/s"},
      {"setup_s", median(setups), "s"},
  };
  // Recorded, not compared.  On a shared host a single stall moves
  // netdesc's p99 by more than any bound allows; peak RSS is bimodal,
  // depending on how many allocator arenas the racing threads touched.
  r.detail = {
      {"session_p99_ms", quantile(lat, 0.99), "ms"},
      {"ttfs_p99_ms", quantile(ph.ttfs_ms, 0.99), "ms"},
      {"peak_rss_mb", rss, "MB"},
      {"sessions", completed, "count"},
      {"ttfs_samples", static_cast<double>(ph.ttfs_ms.size()), "count"},
      {"fail_frac",
       static_cast<double>(r.failed) /
           static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
       "ratio"},
      {"stream_checks", static_cast<double>(to_check.size()), "count"},
      {"stream_mismatches", static_cast<double>(mismatches), "count"},
      {"net_shed", static_cast<double>(shed), "count"},
      {"server_rejected", static_cast<double>(ss.rejected), "count"},
      {"window_s", window_s, "s"},
      {"peak_rss_after_setup_mb", setup_rss, "MB"},
  };
  if (!ph.poll_ms.empty()) {
    r.detail.push_back({"poll_p50_ms", quantile(ph.poll_ms, 0.5), "ms"});
    r.detail.push_back({"poll_p99_ms", quantile(ph.poll_ms, 0.99), "ms"});
    r.detail.push_back(
        {"poll_samples", static_cast<double>(ph.poll_ms.size()), "count"});
  }
  if (!ph.late_ms.empty()) {
    r.detail.push_back({"offered_per_s", opt.netdesc_rate, "1/s"});
    r.detail.push_back({"late_p99_ms", quantile(ph.late_ms, 0.99), "ms"});
  }
  const auto secs = static_cast<std::size_t>(window_s) + 1;
  r.completions_per_s.assign(secs, 0.0);
  for (const Done& d : ph.done) {
    const auto b = static_cast<std::size_t>(ms_between(start, d.t_done) / 1e3);
    r.completions_per_s[std::min(b, secs - 1)] += 1.0;
  }
  if (!ph.first_error.empty()) r.notes.push_back("error: " + ph.first_error);
  if (mismatches > 0) {
    r.notes.push_back(std::to_string(mismatches) +
                      " spike stream(s) differ from run_standalone");
  }
  return r;
}

int usage(const char* why) {
  std::cerr << "wirebench: " << why
            << "\nusage: wirebench --workload chain|netdesc|longrun --seed N "
               "--seconds S --trace 0|1 [--netdesc-rate R] [--capacity]"
               " [--corrupt-reference]\n";
  return 2;
}

int run_main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--corrupt-reference") {
      opt.corrupt_reference = true;
    } else if (a == "--capacity") {
      opt.capacity = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds") {
      opt.seconds = std::stod(argv[++i]);
    } else if (a == "--trace") {
      opt.trace = std::stoi(argv[++i]);
    } else if (a == "--netdesc-rate") {
      opt.netdesc_rate = std::stod(argv[++i]);
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.capacity) return measure_capacity(opt);
  if (opt.workload != "chain" && opt.workload != "netdesc" &&
      opt.workload != "longrun") {
    return usage("unknown workload");
  }
  if (!(opt.seconds > 0) || (opt.trace != 0 && opt.trace != 1)) {
    return usage("bad --seconds or --trace");
  }
  if (opt.workload == "netdesc" && opt.trace == 0 && !(opt.netdesc_rate > 0)) {
    return usage("netdesc needs --netdesc-rate");
  }
  const Result r = opt.trace == 1 ? run_traced(opt) : run_timed(opt);
  emit(r);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace wirebench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return wirebench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "wirebench: " << e.what() << '\n';
    return 1;
  }
}

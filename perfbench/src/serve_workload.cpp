// serve-open: an in-process serve::Server on loopback, driven open loop.
//
// Why this workload: it is the only one that exercises serve/, and it uses
// snn/ and error/ differently from the pipelines: inference only, through
// frozen injection tables (inject, infer, revert), with no training and no
// weak-cell enumeration after set-up. A training- or enumeration-side
// optimisation should move only its setup_s (which builds the artifact); a
// change to encoding, inference, queueing or batching shows in its traffic
// figures.
//
// The generator is open loop: one connection, the calling thread sends on a
// precomputed schedule, one receiver thread reads replies, and nothing is
// retried (a refusal is a failure). Latency counts from each request's due
// time, so a stall of the sender or the server is charged to every request
// it delays.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "pipeline_workload.hpp"
#include "serve/artifact.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "snn/trainer.hpp"

namespace perfbench {

using namespace sparkxd;

namespace {

constexpr const char* kArtifactScenario = "digits-medium-commodity-m0";
constexpr std::size_t kContents = 2048;  // distinct requests, reused by id
constexpr std::size_t kPoolImages = kContents;  // one image per content
constexpr int kSetupReps = 4;
// Fixed rates: at 500 rps the server idles between requests, so latency is
// service time plus batch linger; 2000 rps is half to two thirds of one
// worker's capacity on a shared 4-vCPU virtual machine and shows queueing.
constexpr double kLightRps = 500.0;
constexpr double kLoadedRps = 2000.0;
// End-to-end rounds are short and many. Each round's burst sends every
// request content exactly once, so every burst of a run, and of runs with
// other seeds, does the same work. It goes out as kBurstParts back-to-back
// bursts, part p holding the p-th slice of the contents; each part is fixed
// work reported as its fastest round, like a pipeline scenario, and
// wall_s is their sum (short parts catch the host's fast moments more
// often than one long burst). The latency is the lower quartile over
// rounds (see best_quartile).
constexpr std::size_t kRoundLightN = 250;
constexpr std::size_t kBurstParts = 4;
constexpr std::size_t kBurstPartN = kContents / kBurstParts;
constexpr std::size_t kMinRounds = 5;
constexpr std::size_t kWarmupPhases = 3;
// The traced leg measures tails: >= 10 samples beyond each p99.
constexpr std::size_t kTailLightN = 1000;
constexpr std::size_t kTailLoadedN = 2500;
// Capacity ladder (traced leg): the highest rate with p99 <= kSloMs.
constexpr double kSloMs = 5.0;
constexpr double kLagFlagMs = 1.0;
constexpr double kBacklogGrowthMs = 1.0;
const double kLadder[] = {1000, 1500, 2000, 2500, 3000, 3500,
                          4000, 5000, 6000, 8000};
constexpr double kRungSeconds = 0.4;
constexpr std::size_t kRungMinN = 1000;
constexpr int kRungAttempts = 3;
constexpr double kReplyTimeoutS = 10.0;

/// The request stream: request `id` carries content id % kContents, whose
/// seed and image come from the workload seed.
struct Requests {
  std::uint64_t base_seed = 0;
  data::Dataset pool;
  std::vector<serve::ClassifyReply> expected;  // by content, id = content

  [[nodiscard]] serve::ClassifyRequest make(std::uint64_t id) const {
    const std::size_t j = id % kContents;
    return {id, hash_combine(base_seed, j), pool.images[j % pool.size()]};
  }
  [[nodiscard]] serve::ClassifyReply want(std::uint64_t id) const {
    serve::ClassifyReply r = expected[id % kContents];
    r.id = id;
    return r;
  }
};

struct Phase {
  std::vector<double> latency_ms;  // answered requests, from due time
  std::vector<double> lag_ms;      // send time - due time, per request
  std::size_t requests = 0;
  std::size_t failed = 0;  // refused, missing or wrong
  bool digest_ok = true;
  double wall_s = 0.0;  // first due time to last reply
  bool connection_lost = false;

  [[nodiscard]] double lag_p99() const { return pct(lag_ms, 99.0); }
  /// Median latency of the last fifth exceeds the first fifth's by more
  /// than kBacklogGrowthMs: the queue grew during the phase.
  [[nodiscard]] bool backlog_grew() const {
    const std::size_t k = latency_ms.size() / 5;
    if (k == 0) return false;
    const std::vector<double> head(latency_ms.begin(), latency_ms.begin() + k);
    const std::vector<double> tail(latency_ms.end() - k, latency_ms.end());
    return median(tail) > median(head) + kBacklogGrowthMs;
  }
};

/// Re-arms TCP_QUICKACK, which the kernel clears again on its own. The
/// server does not set TCP_NODELAY, so a reply written while the previous
/// one is unacknowledged waits (Nagle) for the client's next ACK; with
/// delayed ACKs that is the next request, one inter-arrival gap later. An
/// immediately acknowledging client keeps that artifact of the generator
/// out of the measurement.
void ack_now(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
}

/// Sends `n` requests (ids from `next_id`) at `rate` per second (0 = all
/// due at once) and collects every reply.
Phase run_phase(int fd, const Requests& reqs, std::uint64_t& next_id,
                std::size_t n, double rate) {
  const std::uint64_t first = next_id;
  next_id += n;
  std::vector<std::vector<std::uint8_t>> frames(n);
  for (std::size_t i = 0; i < n; ++i)
    frames[i] = serve::encode_classify(reqs.make(first + i));

  enum Status : std::uint8_t { kMissing, kOk, kRefused, kWrong };
  std::vector<Status> status(n, kMissing);
  std::vector<Clock::time_point> received(n);
  std::vector<serve::ClassifyReply> got;
  got.reserve(n);
  std::atomic<std::size_t> answered{0};

  std::thread receiver([&] {
    std::vector<std::uint8_t> payload;
    try {
      while (answered.load() < n) {
        // Busy-poll rather than block, so the client's own wake-up latency
        // is not charged to the server.
        ::pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 0) == 0) continue;
        if (!serve::read_frame(fd, payload)) break;
        ack_now(fd);
        const auto now = Clock::now();
        std::uint64_t id = 0;
        Status s = kRefused;
        switch (serve::frame_type(payload)) {
          case serve::MsgType::kReply: {
            const auto reply = serve::decode_reply(payload);
            id = reply.id;
            s = reply == reqs.want(id) ? kOk : kWrong;
            got.push_back(reply);
            break;
          }
          case serve::MsgType::kQueueFull:
            id = serve::decode_queue_full(payload);
            break;
          case serve::MsgType::kDeadlineExceeded:
            id = serve::decode_deadline_exceeded(payload);
            break;
          default:
            return;  // unexpected frame: leave the rest missing
        }
        if (id < first || id - first >= n || status[id - first] != kMissing)
          return;
        status[id - first] = s;
        received[id - first] = now;
        answered.fetch_add(1);
      }
    } catch (const std::exception&) {
      // Connection torn down (or a malformed frame): the rest stay missing.
    }
  });

  Phase ph;
  ph.requests = n;
  ph.lag_ms.reserve(n);
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        rate > 0.0 ? static_cast<double>(i) / rate : 0.0));
  };
  for (std::size_t i = 0; i < n; ++i) {
    // Spin rather than sleep: a sleeping thread wakes up late by a
    // host-dependent margin, which would be charged to the server.
    while (Clock::now() < due(i)) {
    }
    ph.lag_ms.push_back(seconds_between(due(i), Clock::now()) * 1e3);
    if (!serve::write_frame(fd, frames[i])) break;
  }
  const auto give_up = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(
                                              kReplyTimeoutS));
  while (answered.load() < n && Clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  if (answered.load() < n) {
    ph.connection_lost = true;
    ::shutdown(fd, SHUT_RDWR);  // unblocks the receiver
  }
  receiver.join();

  Clock::time_point last = t0;
  std::vector<serve::ClassifyReply> want;
  want.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    want.push_back(reqs.want(first + i));
    if (status[i] != kOk) {
      ++ph.failed;
      continue;
    }
    ph.latency_ms.push_back(seconds_between(due(i), received[i]) * 1e3);
    last = std::max(last, received[i]);
  }
  ph.digest_ok =
      serve::digest_replies(got) == serve::digest_replies(want);
  ph.wall_s = seconds_between(t0, last);
  return ph;
}

/// One server on loopback plus the generator's connection.
struct LiveServer {
  std::shared_ptr<const serve::ServingArtifact> artifact;
  std::unique_ptr<serve::Engine> engine;  // serial reference
  std::unique_ptr<serve::Server> server;
  int fd = -1;

  LiveServer() = default;
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;
  ~LiveServer() { stop(); }

  void stop() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    if (server) {
      server->request_stop();
      server->wait();
      server.reset();
    }
  }
};

/// The server's and the generator's CPUs for round `r`: two halves of the
/// allowed CPUs, so the two never compete for one CPU, rotated by one CPU
/// per round so that over a run the server meets every CPU (see
/// allowed_cpus). Both empty (no pinning) below 4 CPUs.
std::pair<std::vector<int>, std::vector<int>> halves(std::size_t r) {
  const auto& cpus = allowed_cpus();
  const std::size_t n = cpus.size();
  std::vector<int> server, generator;
  if (n < 4) return {server, generator};
  for (std::size_t k = 0; k < n; ++k)
    (k < n / 2 ? server : generator).push_back(cpus[(r + k) % n]);
  return {server, generator};
}

/// Moves every thread but the caller (the server's) to the server half of
/// round `r` and the caller (the sender; the receiver threads it starts
/// inherit its mask) to the generator half.
void place(std::size_t r) {
  const auto [server, generator] = halves(r);
  const int self = static_cast<int>(::syscall(SYS_gettid));
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const int tid = std::stoi(task.path().filename().string());
    if (tid != self) pin_thread(tid, server);
  }
  pin_thread(0, generator);
}

/// Set-up as a user pays it: build the artifact (pipeline run with capture
/// at the lowest voltage), construct the reference engine, start the server
/// and complete one round trip so its worker engine exists.
void set_up(LiveServer& live, core::ArtifactState&& state,
            const Requests& reqs, std::size_t layout) {
  live.artifact = std::make_shared<const serve::ServingArtifact>(
      serve::make_artifact(kArtifactScenario, std::move(state)));
  live.engine = std::make_unique<serve::Engine>(*live.artifact);
  serve::ServerConfig config;  // one worker, library batching defaults
  config.workers = 1;
  live.server = std::make_unique<serve::Server>(live.artifact, config);
  pin_thread(0, halves(layout).first);  // the server's threads inherit it
  live.server->start();
  place(layout);
  live.fd = serve::connect_to("127.0.0.1", live.server->port());
  const int one = 1;
  ::setsockopt(live.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ack_now(live.fd);
  std::vector<std::uint8_t> payload;
  const auto warm = reqs.make(std::numeric_limits<std::uint64_t>::max());
  SPARKXD_REQUIRE(serve::write_frame(live.fd, serve::encode_classify(warm)) &&
                      serve::read_frame(live.fd, payload),
                  "warm-up request got no reply");
}

Requests make_requests(std::uint64_t workload_seed) {
  Requests reqs;
  reqs.base_seed = hash_combine(workload_seed, 0x5e12e);
  reqs.pool = data::make_dataset(data::Task::kDigits, kPoolImages,
                                 reqs.base_seed);
  return reqs;
}

/// Serial in-process reference over every request content; the per-request
/// classify times feed the traced leg.
std::vector<double> compute_expected(serve::Engine& engine, Requests& reqs) {
  std::vector<double> us(kContents);
  reqs.expected.resize(kContents);
  for (std::size_t j = 0; j < kContents; ++j) {
    const auto t0 = Clock::now();
    reqs.expected[j] = engine.classify(reqs.make(j));
    us[j] = seconds_since(t0) * 1e6;
  }
  return us;
}

void account(const char* label, const Phase& ph, Outcome& out) {
  out.attempted += ph.requests;
  if (ph.failed == 0 && ph.digest_ok && !ph.connection_lost) return;
  out.fail(std::string(label) + ": " + std::to_string(ph.failed) + " of " +
               std::to_string(ph.requests) +
               " requests refused, missing or wrong" +
               (ph.digest_ok ? "" : "; reply digest differs from the serial "
                                    "reference"),
           std::max<std::size_t>(ph.failed, 1));
}

/// One pass up the capacity ladder: the rate at which p99 reaches kSloMs,
/// interpolated linearly between the last passing and the first failing
/// rung. A rung passes when p99 <= kSloMs, the generator kept up and the
/// backlog did not grow, in any of kRungAttempts tries (a host stall of a
/// few milliseconds alone would fail it). Returns a negative value on a
/// failed operation.
double ladder_pass(LiveServer& live, const Requests& reqs,
                   std::uint64_t& next_id, Outcome& out) {
  double pass_rate = 0.0, pass_p99 = 0.0;
  for (const double rate : kLadder) {
    const std::size_t n = std::max(
        kRungMinN, static_cast<std::size_t>(rate * kRungSeconds));
    double best_p99 = 0.0;
    bool pass = false;
    for (int attempt = 0; attempt < kRungAttempts && !pass; ++attempt) {
      const Phase rung = run_phase(live.fd, reqs, next_id, n, rate);
      account("ladder", rung, out);
      if (out.failed > 0) return -1.0;
      const double p99 = pct(rung.latency_ms, 99.0);
      const bool behind = rung.lag_p99() > kLagFlagMs;
      const bool grew = rung.backlog_grew();
      pass = p99 <= kSloMs && !behind && !grew;
      best_p99 = attempt == 0 ? p99 : std::min(best_p99, p99);
      std::printf(
          "  ladder %5.0f rps: p99 %.3f ms, lag p99 %.3f ms%s%s -> %s\n",
          rate, p99, rung.lag_p99(), behind ? ", GENERATOR BEHIND" : "",
          grew ? ", backlog grew" : "", pass ? "pass" : "fail");
    }
    if (!pass)
      return best_p99 > kSloMs ? pass_rate + (rate - pass_rate) *
                                                 (kSloMs - pass_p99) /
                                                 (best_p99 - pass_p99)
                               : pass_rate;
    pass_rate = rate;
    pass_p99 = best_p99;
  }
  return pass_rate;
}

/// The first phases after set-up run slow; they are run and checked but
/// not reported. Light phases only, so the server's queue high-water mark
/// (ServerStats::max_queue_depth) is not raised.
void warm_up(LiveServer& live, const Requests& reqs, std::uint64_t& next_id,
             Outcome& out) {
  for (std::size_t i = 0; i < kWarmupPhases; ++i)
    account("warm-up",
            run_phase(live.fd, reqs, next_id, kRoundLightN, kLightRps), out);
}

void end_to_end(const Options& opt, LiveServer& live, const Requests& reqs,
                Outcome& out) {
  std::uint64_t next_id = 0;
  warm_up(live, reqs, next_id, out);
  std::vector<double> light_p50;
  std::vector<std::vector<double>> part_s(kBurstParts);
  const auto t_start = Clock::now();
  for (std::size_t round = 0;
       out.failed == 0 &&
       (round < kMinRounds || seconds_since(t_start) < opt.seconds);
       ++round) {
    place(round);
    const Phase light =
        run_phase(live.fd, reqs, next_id, kRoundLightN, kLightRps);
    account("light", light, out);
    double burst_s = 0.0;
    for (std::size_t p = 0; p < kBurstParts; ++p) {
      // Skip ids up to the first one whose content opens slice p.
      next_id += (p * kBurstPartN + kContents - next_id % kContents) %
                 kContents;
      const Phase part = run_phase(live.fd, reqs, next_id, kBurstPartN, 0.0);
      account("burst", part, out);
      part_s[p].push_back(part.wall_s);
      burst_s += part.wall_s;
    }
    if (out.failed > 0) return;
    light_p50.push_back(median(light.latency_ms));
    std::printf("  round %2zu: %.0f rps p50 %.3f ms p99 %.3f ms, generator "
                "lag p99 %.3f ms%s | %zu bursts of %zu in %.4f s\n",
                round, kLightRps, light_p50.back(),
                pct(light.latency_ms, 99.0), light.lag_p99(),
                light.lag_p99() > kLagFlagMs ? " (GENERATOR BEHIND)" : "",
                kBurstParts, kBurstPartN, burst_s);
  }
  double wall_s = 0.0;
  for (const auto& part : part_s) wall_s += pct(part, 0.0);
  out.metrics["wall_s"] = wall_s;
  out.metrics["p50_ms"] = best_quartile(light_p50);
}

void traced(LiveServer& live, const Requests& reqs,
            const std::vector<double>& classify_us, Trace& tr,
            double& untraced_ms, double& traced_ms, Outcome& out) {
  const serve::ServingArtifact& art = *live.artifact;
  // serve::Engine::classify split into its inject / infer / revert calls.
  snn::Network scratch(art.model.net);
  snn::InferenceState state(scratch);
  std::vector<std::vector<error::WeightFlip>> flips(scratch.n_layers());
  scratch.sync_transpose();
  scratch.set_engine(snn::EngineKind::kEvent);
  const auto& cfg = scratch.config();
  const error::SanitizeRange sanitize{cfg.stdp.w_min, art.weight_clip};
  const std::size_t n_layers = scratch.n_layers();
  double inject_ms = 0.0, infer_ms = 0.0, revert_ms = 0.0, total_flips = 0.0;
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < kContents; ++j) {
    const auto req = reqs.make(j);
    serve::ClassifyReply reply;
    reply.id = req.id;
    timed_ms(inject_ms, [&] {
      const std::uint64_t inject_seed = hash_combine(req.seed, 0);
      for (std::size_t l = 0; l < n_layers; ++l) {
        Rng inject_rng = n_layers == 1 ? Rng(inject_seed)
                                       : Rng(inject_seed).fork(l);
        flips[l].clear();
        reply.flips += static_cast<std::uint32_t>(art.layers[l].frozen.inject(
            scratch.weights_delta(l), inject_rng, sanitize, &flips[l]));
        for (const auto& f : flips[l]) scratch.mirror_weight(l, f.word);
      }
    });
    std::vector<std::uint32_t> counts;
    timed_ms(infer_ms, [&] {
      Rng spike_rng(hash_combine(req.seed, 1));
      counts = scratch.infer(state, req.image, spike_rng);
    });
    reply.label = snn::vote_spike_counts(counts, art.model.labels);
    for (const std::uint32_t c : counts) reply.spikes += c;
    timed_ms(revert_ms, [&] {
      for (std::size_t l = 0; l < n_layers; ++l) {
        error::revert_flips(scratch.weights_delta(l), flips[l]);
        for (const auto& f : flips[l]) scratch.mirror_weight(l, f.word);
      }
    });
    if (!(reply == reqs.want(j))) ++mismatches;
    total_flips += reply.flips;
  }
  ++out.attempted;
  if (mismatches > 0)
    out.fail("staged classify differs from Engine::classify on " +
             std::to_string(mismatches) + " requests");
  const double n = static_cast<double>(kContents);
  double classify_ms = 0.0;
  for (const double us : classify_us) classify_ms += us / 1e3;
  const double staged_ms = inject_ms + infer_ms + revert_ms;
  tr.stage_ms += staged_ms;
  untraced_ms += classify_ms;
  traced_ms += staged_ms;
  tr.m["serve.classify_us_p50"] = median(classify_us);
  tr.m["serve.classify_us_p99"] = pct(classify_us, 99.0);
  tr.m["serve.inject_us"] = inject_ms * 1e3 / n;
  tr.m["serve.infer_us"] = infer_ms * 1e3 / n;
  tr.m["serve.revert_us"] = revert_ms * 1e3 / n;
  tr.m["serve.flips"] = total_flips;
  tr.m["serve.flips_per_request"] = total_flips / n;

  std::uint64_t next_id = 0;
  warm_up(live, reqs, next_id, out);
  const Phase light = run_phase(live.fd, reqs, next_id, kTailLightN, kLightRps);
  account("light", light, out);
  const auto before = serve::fetch_stats("127.0.0.1", live.server->port());
  const Phase loaded =
      run_phase(live.fd, reqs, next_id, kTailLoadedN, kLoadedRps);
  account("loaded", loaded, out);
  const auto after = serve::fetch_stats("127.0.0.1", live.server->port());
  const double max_rps = ladder_pass(live, reqs, next_id, out);
  if (out.failed > 0) return;
  tr.m["serve.p50_ms_r2000"] = median(loaded.latency_ms);
  tr.m["serve.p99_ms_r500"] = pct(light.latency_ms, 99.0);
  tr.m["serve.p99_ms_r2000"] = pct(loaded.latency_ms, 99.0);
  tr.m["serve.max_rps_p99_5ms"] = max_rps;
  tr.m["serve.wait_us_p50_r500"] =
      median(light.latency_ms) * 1e3 - median(classify_us);
  tr.m["serve.batch_mean"] =
      static_cast<double>(after.served - before.served) /
      static_cast<double>(std::max<std::uint64_t>(
          1, after.batches - before.batches));
  tr.m["serve.max_queue_depth"] = static_cast<double>(after.max_queue_depth);
  tr.m["serve.gen_lag_ms_p99"] = std::max(light.lag_p99(), loaded.lag_p99());
}

}  // namespace

void run_serve_workload(const Options& opt, Outcome& out) {
  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  SPARKXD_REQUIRE(nproc >= 2,
                  "serve-open needs two CPUs: its generator runs a sender "
                  "and a receiver thread");
  const auto ref = ReferenceTable::load(opt.reference);
  // The served model is one fixed artifact (the scenario at the registry
  // seed); the workload seed draws the requests. An artifact trained per
  // seed would change the work of every request with the seed (another
  // model spikes and flips differently) and so the figures of a run.
  const auto s = seeded_scenario(kArtifactScenario, kRegistrySeed);
  const auto cfg = s.pipeline_config();
  Requests reqs = make_requests(opt.seed);

  LiveServer live;
  Trace tr;
  double untraced_ms = 0.0, traced_ms = 0.0;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupReps); ++rep) {
    live.stop();
    ++out.attempted;
    const auto t0 = Clock::now();
    core::ArtifactState state;
    const auto report = core::run_pipeline(cfg, &state);
    const double pipeline_ms = seconds_since(t0) * 1e3;
    set_up(live, std::move(state), reqs, static_cast<std::size_t>(rep));
    setup_s.push_back(seconds_since(t0));
    check_reference(ref, s, report, out);
    if (opt.trace) {
      // The artifact build, traced: the layers it runs only move setup_s.
      untraced_ms += pipeline_ms;
      core::ArtifactState traced_state;
      core::PipelineReport traced_report;
      timed_ms(traced_ms, [&] {
        traced_report = traced_run_pipeline(cfg, &traced_state, tr);
      });
      const std::string diff = first_difference(s, report, traced_report);
      if (!diff.empty())
        out.fail("traced artifact build differs from run_pipeline: " + diff);
    }
  }
  const auto classify_us = compute_expected(*live.engine, reqs);
  std::printf("workload serve-open: artifact %s at %.3f V, scenario seed "
              "%llu, %zu request contents\n",
              kArtifactScenario, live.artifact->v_supply,
              static_cast<unsigned long long>(s.seed), kContents);

  if (opt.trace) {
    snn_probes(live.artifact->model.net, reqs.pool.images, reqs.pool.images,
               reqs.base_seed, tr);
    traced(live, reqs, classify_us, tr, untraced_ms, traced_ms, out);
    finish_layer_metrics(tr, untraced_ms, traced_ms, out);
  } else {
    out.metrics["setup_s"] = pct(setup_s, 0.0);  // deterministic work
    end_to_end(opt, live, reqs, out);
    out.metrics["peak_rss_mb"] = peak_rss_mb();
  }
}

}  // namespace perfbench

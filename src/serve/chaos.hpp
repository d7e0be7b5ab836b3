#pragma once
// Deterministic chaos injection for the serving layer's frame I/O.
//
// SparkXD injects DRAM faults into the *model* exhaustively; this module
// injects faults into the *network path* with the same discipline: every
// fault decision is drawn from a seeded Rng substream, so a chaos schedule
// is replayable bit for bit from (spec, seed) alone. The injector wraps the
// client's outbound frame writes — from where the server experiences torn
// frames, slow-loris drip reads, mid-frame stalls, abrupt RSTs, and
// bit-corrupted payloads exactly as a hostile or failing peer would
// produce them — and the client's retry policy (serve/client.hpp) must
// recover from every one of them without perturbing the reply digest.
//
// Fault modes (at most one per frame, chosen by per-frame forked streams):
//
//   torn     send a strict prefix of the frame, then RST-close — the
//            server sees a truncated frame (or a mid-frame stall until its
//            read deadline fires) and must drop the connection cleanly
//   drip     send the frame a few bytes at a time with delays — a
//            slow-loris write; survivable when it beats the server's
//            mid-frame read deadline, evicted when it does not
//   stall    send half the frame, sleep, send the rest — one long
//            mid-frame gap instead of drip's many small ones
//   rst      RST-close without sending anything — the request vanishes
//   corrupt  flip one bit somewhere past the length prefix, then send
//            normally — only safe under CRC framing (protocol v2), where
//            the server answers kBadFrame instead of decoding garbage
//
// Spec grammar (sparkxd_replay --chaos):
//   spec  := "none" | "all" | "all:P" | mode ("," mode)*
//   mode  := name [":" P]          P = per-frame probability in [0, 1]
//   name  := torn | drip | stall | rst | corrupt
// e.g. --chaos torn:0.1,corrupt:0.2   or   --chaos all:0.05

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace sparkxd::serve {

/// Which faults to inject and how often. Field defaults are the "none"
/// spec; parse("all") sets every probability to kDefaultProb.
struct ChaosSpec {
  static constexpr double kDefaultProb = 0.05;

  double torn = 0.0;
  double drip = 0.0;
  double stall = 0.0;
  double rst = 0.0;
  double corrupt = 0.0;

  /// Parses the grammar above; throws ContractViolation on a bad spec.
  [[nodiscard]] static ChaosSpec parse(const std::string& spec);

  /// True when any fault has a nonzero probability.
  [[nodiscard]] bool any() const noexcept;

  /// Canonical "name:prob,..." form ("none" when inactive).
  [[nodiscard]] std::string to_string() const;

  /// Probabilities in [0, 1]; throws otherwise.
  void validate() const;
};

/// Per-kind injection counts (how often each fault actually fired).
struct ChaosCounters {
  std::uint64_t torn = 0;
  std::uint64_t drip = 0;
  std::uint64_t stall = 0;
  std::uint64_t rst = 0;
  std::uint64_t corrupt = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return torn + drip + stall + rst + corrupt;
  }
  ChaosCounters& operator+=(const ChaosCounters& o) noexcept;
};

/// One connection slot's fault injector. The schedule is a pure function
/// of (spec, seed, frame ordinal): frame k's decision comes from
/// rng.fork(k), so it is independent of how earlier faults resolved and
/// identical across reruns — including across the reconnects the faults
/// themselves force.
class ChaosConnection {
 public:
  ChaosConnection(ChaosSpec spec, std::uint64_t seed);

  /// Sends one frame (payload framed exactly as write_frame would, CRC
  /// trailer included when `crc`) through the fault injector. Returns true
  /// when the connection is still usable afterwards; on false the fd has
  /// been closed (injected RST/torn-close, or a real send failure) and the
  /// caller must reconnect — `fd` is set to -1 either way.
  bool send_frame(int& fd, const std::vector<std::uint8_t>& payload, bool crc);

  [[nodiscard]] const ChaosCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const ChaosSpec& spec() const noexcept { return spec_; }

 private:
  enum class Fault { kNone, kTorn, kDrip, kStall, kRst, kCorrupt };

  Fault draw_fault(Rng& rng);

  ChaosSpec spec_;
  Rng rng_;
  std::uint64_t frame_ordinal_ = 0;
  ChaosCounters counters_;
};

/// RST-closes `fd` (SO_LINGER {1, 0} + close): the peer sees ECONNRESET,
/// not an orderly FIN. Used by the injector and available to tests.
void rst_close(int fd);

}  // namespace sparkxd::serve

#include "serve/chaos.hpp"

#include <chrono>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "common/contracts.hpp"
#include "serve/protocol.hpp"

namespace sparkxd::serve {

namespace {

constexpr std::size_t kDripChunk = 16;       // bytes per dripped write
constexpr std::uint64_t kDripDelayUs = 500;  // sleep between dripped chunks
constexpr std::uint64_t kStallUs = 20'000;   // mid-frame stall duration

struct ModeField {
  const char* name;
  double ChaosSpec::* field;
};

constexpr ModeField kModes[] = {
    {"torn", &ChaosSpec::torn},       {"drip", &ChaosSpec::drip},
    {"stall", &ChaosSpec::stall},     {"rst", &ChaosSpec::rst},
    {"corrupt", &ChaosSpec::corrupt},
};

double parse_prob(const std::string& spec) {
  std::size_t used = 0;
  double p = -1.0;
  try {
    p = std::stod(spec, &used);
  } catch (...) {
    SPARKXD_REQUIRE(false, "chaos probability is not a number");
  }
  SPARKXD_REQUIRE(used == spec.size() && p >= 0.0 && p <= 1.0,
                  "chaos probability must lie in [0, 1]");
  return p;
}

}  // namespace

ChaosSpec ChaosSpec::parse(const std::string& spec) {
  ChaosSpec out;
  if (spec.empty() || spec == "none") return out;

  std::stringstream ss(spec);
  std::string mode;
  while (std::getline(ss, mode, ',')) {
    SPARKXD_REQUIRE(!mode.empty(), "empty mode in chaos spec");
    std::string name = mode;
    double prob = kDefaultProb;
    if (const auto colon = mode.find(':'); colon != std::string::npos) {
      name = mode.substr(0, colon);
      prob = parse_prob(mode.substr(colon + 1));
    }
    if (name == "all") {
      for (const auto& m : kModes) out.*(m.field) = prob;
      continue;
    }
    bool known = false;
    for (const auto& m : kModes) {
      if (name == m.name) {
        out.*(m.field) = prob;
        known = true;
        break;
      }
    }
    SPARKXD_REQUIRE(known,
                    "unknown chaos mode (want torn|drip|stall|rst|corrupt|all)");
  }
  out.validate();
  return out;
}

bool ChaosSpec::any() const noexcept {
  for (const auto& m : kModes)
    if (this->*(m.field) > 0.0) return true;
  return false;
}

std::string ChaosSpec::to_string() const {
  std::string out;
  std::ostringstream os;
  for (const auto& m : kModes) {
    const double p = this->*(m.field);
    if (p <= 0.0) continue;
    os.str("");
    os << m.name << ':' << p;
    if (!out.empty()) out += ',';
    out += os.str();
  }
  return out.empty() ? "none" : out;
}

void ChaosSpec::validate() const {
  for (const auto& m : kModes) {
    const double p = this->*(m.field);
    SPARKXD_REQUIRE(p >= 0.0 && p <= 1.0,
                    "chaos probability must lie in [0, 1]");
  }
}

ChaosCounters& ChaosCounters::operator+=(const ChaosCounters& o) noexcept {
  torn += o.torn;
  drip += o.drip;
  stall += o.stall;
  rst += o.rst;
  corrupt += o.corrupt;
  return *this;
}

void rst_close(int fd) {
  // SO_LINGER with zero timeout turns close() into an abortive release:
  // the kernel discards unsent data and fires RST at the peer.
  const ::linger lin{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
  ::close(fd);
}

ChaosConnection::ChaosConnection(ChaosSpec spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  spec_.validate();
}

ChaosConnection::Fault ChaosConnection::draw_fault(Rng& rng) {
  // Fixed evaluation order; at most one fault per frame. Each mode draws
  // exactly once whether or not an earlier mode already hit, so the stream
  // consumption — and therefore the whole schedule — is shape-independent.
  Fault fault = Fault::kNone;
  const std::pair<double, Fault> draws[] = {
      {spec_.torn, Fault::kTorn},       {spec_.drip, Fault::kDrip},
      {spec_.stall, Fault::kStall},     {spec_.rst, Fault::kRst},
      {spec_.corrupt, Fault::kCorrupt},
  };
  for (const auto& [p, f] : draws) {
    const bool hit = rng.bernoulli(p);
    if (hit && fault == Fault::kNone) fault = f;
  }
  return fault;
}

bool ChaosConnection::send_frame(int& fd, const std::vector<std::uint8_t>& payload,
                                 bool crc) {
  SPARKXD_REQUIRE(fd >= 0, "chaos send on a closed connection");
  auto wire = frame_wire_bytes(payload, crc);
  // Per-frame fork: frame k's fate depends only on (spec, seed, k), never
  // on how many draws earlier faults consumed.
  Rng frame_rng = rng_.fork(frame_ordinal_++);
  const Fault fault = draw_fault(frame_rng);

  const auto fail = [&fd] {
    ::close(fd);
    fd = -1;
    return false;
  };

  switch (fault) {
    case Fault::kNone:
      if (!send_bytes(fd, wire.data(), wire.size())) return fail();
      return true;

    case Fault::kTorn: {
      ++counters_.torn;
      const auto cut = static_cast<std::size_t>(
          frame_rng.uniform_int(1, static_cast<std::int64_t>(wire.size()) - 1));
      (void)send_bytes(fd, wire.data(), cut);
      rst_close(fd);
      fd = -1;
      return false;
    }

    case Fault::kDrip: {
      ++counters_.drip;
      for (std::size_t off = 0; off < wire.size(); off += kDripChunk) {
        const std::size_t n = std::min(kDripChunk, wire.size() - off);
        if (!send_bytes(fd, wire.data() + off, n)) return fail();
        if (off + n < wire.size())
          std::this_thread::sleep_for(std::chrono::microseconds(kDripDelayUs));
      }
      return true;
    }

    case Fault::kStall: {
      ++counters_.stall;
      const std::size_t half = wire.size() / 2;
      if (!send_bytes(fd, wire.data(), half)) return fail();
      std::this_thread::sleep_for(std::chrono::microseconds(kStallUs));
      if (!send_bytes(fd, wire.data() + half, wire.size() - half))
        return fail();
      return true;
    }

    case Fault::kRst:
      ++counters_.rst;
      rst_close(fd);
      fd = -1;
      return false;

    case Fault::kCorrupt: {
      ++counters_.corrupt;
      // Flip one bit past the length prefix: payload or CRC trailer, never
      // the framing itself — the stream stays in sync, the CRC check (the
      // only safe way to run this mode) rejects the frame as kBadFrame.
      const auto bit = static_cast<std::size_t>(frame_rng.uniform_int(
          0, static_cast<std::int64_t>((wire.size() - 4) * 8) - 1));
      wire[4 + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      if (!send_bytes(fd, wire.data(), wire.size())) return fail();
      return true;
    }
  }
  return true;  // unreachable
}

}  // namespace sparkxd::serve

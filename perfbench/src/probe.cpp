// Layer probes: the workload's own guest code, run under four hook
// configurations on the same UMPU device, so each layer's cost per simulated
// cycle is a difference of two runs over identical guest work.
//
//   bare      Device::run with no hooks installed (the core alone)
//   fabric    the UMPU fabric as the device boots it
//   traced    fabric + a trace::Tracer (ring sized as the workload's)
//   profiled  fabric + a prof::Profiler (campaign options)
//
// The guest work per workload:
//   inject  the mutant set-up: two kernel mallocs and a cross-domain nop call
//   soak    one Surge data message (cross-domain calls into Tree routing)
//   fleet   one timer message to the fleet's module (blink)
//
// Every round restores a device snapshot before the work, so each timed
// call executes the same instructions. Configurations run round-robin so
// slow drifts of the host hit all four alike. The decode probe replays the
// instruction stream the bare run retired through avr::decode alone.

#include "probe.h"

#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "avr/decoder.h"
#include "core/harbor.h"
#include "prof/profiler.h"
#include "runtime/testbed.h"
#include "sos/modules.h"
#include "spans.h"
#include "trace/tracer.h"

using namespace harbor;

namespace perfbench {
namespace {

/// Records the PC of every retired instruction.
class RetireLog final : public avr::CpuHooks {
 public:
  std::vector<std::uint32_t> pcs;
  void on_retire(std::uint32_t pc, int /*cycles*/) override { pcs.push_back(pc); }
};

/// A device plus the guest work to run on it.
struct Guest {
  std::unique_ptr<System> sys;  ///< soak / fleet
  std::unique_ptr<runtime::Testbed> tb;  ///< inject
  std::function<void()> work;
  std::size_t ring_capacity = 0;

  runtime::Testbed& testbed() { return sys ? sys->driver() : *tb; }
};

Guest make_guest(const std::string& workload) {
  Guest g;
  if (workload == "inject") {
    g.tb = std::make_unique<runtime::Testbed>(runtime::Mode::Umpu);
    runtime::Testbed* tb = g.tb.get();
    g.work = [tb] {
      (void)tb->malloc(24, memmap::kTrustedDomain, 1);
      (void)tb->malloc(24, memmap::kTrustedDomain, 2);
      (void)tb->nop(2);
    };
    g.ring_capacity = 512;
  } else if (workload == "soak") {
    g.sys = std::make_unique<System>(SystemConfig{ProtectionMode::Umpu});
    System* sys = g.sys.get();
    (void)sys->load_module(sos::modules::blink());
    const memmap::DomainId tree = sys->load_module(sos::modules::tree_routing());
    const memmap::DomainId surge = sys->load_module(sos::modules::surge(tree, true));
    g.work = [sys, surge, tree] {
      sys->post(surge, sos::msg::kData);
      sys->post(tree, sos::msg::kTimer);
      (void)sys->run_pending();
    };
    g.ring_capacity = 4096;
  } else {
    g.sys = std::make_unique<System>(SystemConfig{ProtectionMode::Umpu});
    System* sys = g.sys.get();
    const memmap::DomainId d = sys->load_module(sos::modules::blink());
    g.work = [sys, d] {
      sys->post(d, sos::msg::kTimer);
      (void)sys->run_pending();
    };
    g.ring_capacity = trace::TracerOptions{}.ring_capacity;
  }
  return g;
}

enum Config { kBare, kFabric, kTraced, kProfiled, kConfigs };
constexpr std::array<const char*, kConfigs> kConfigNames = {"bare", "fabric", "traced",
                                                            "profiled"};

struct Tally {
  std::uint64_t ns = 0;
  std::uint64_t cycles = 0;
  std::uint64_t calls = 0;
};

/// Keeps the decode loop's results observable.
volatile unsigned g_decode_sink = 0;

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string run_probe(const std::string& workload, double seconds) {
  Guest g = make_guest(workload);
  runtime::Testbed& tb = g.testbed();
  avr::Cpu& cpu = tb.device().cpu();
  umpu::Fabric* fabric = tb.fabric();
  const runtime::Testbed::Snapshot snap = tb.snapshot();

  const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t decode_budget = budget / 8;
  const std::uint64_t start = now_ns();

  std::array<Tally, kConfigs> tally{};
  std::uint64_t rounds = 0;
  while (rounds < 20 || now_ns() - start < budget - decode_budget) {
    for (int c = 0; c < kConfigs; ++c) {
      tb.restore(snap);
      avr::CpuHooks* saved = cpu.hooks();
      std::optional<trace::Tracer> tracer;
      std::optional<prof::Profiler> profiler;
      if (c == kBare) {
        cpu.set_hooks(nullptr);
      } else if (c == kTraced) {
        trace::TracerOptions topts;
        topts.ring_capacity = g.ring_capacity;
        tracer.emplace(topts);
        tracer->attach(cpu, fabric);
      } else if (c == kProfiled) {
        prof::ProfilerOptions popts;
        popts.sample_interval = 0;
        popts.track_pcs = false;
        profiler.emplace(popts);
        profiler->attach(cpu, fabric);
      }
      const std::uint64_t c0 = cpu.cycle_count();
      const std::uint64_t t0 = now_ns();
      g.work();
      const std::uint64_t t1 = now_ns();
      tally[c].ns += t1 - t0;
      tally[c].cycles += cpu.cycle_count() - c0;
      ++tally[c].calls;
      if (tracer) tracer->detach();
      if (profiler) profiler->detach();
      cpu.set_hooks(saved);
    }
    ++rounds;
  }

  // Decode: the bare run's retired stream, replayed through avr::decode.
  tb.restore(snap);
  avr::CpuHooks* saved = cpu.hooks();
  RetireLog log;
  cpu.set_hooks(&log);
  g.work();
  cpu.set_hooks(saved);
  tb.restore(snap);
  const avr::Flash& flash = tb.device().flash();
  std::vector<std::pair<std::uint16_t, std::uint16_t>> stream;
  stream.reserve(log.pcs.size());
  for (const std::uint32_t pc : log.pcs)
    stream.emplace_back(flash.read_word(pc), flash.read_word(pc + 1));
  std::uint64_t decoded = 0, decode_ns = 0;
  unsigned sink = 0;
  const std::uint64_t d0 = now_ns();
  while (!stream.empty() && (decoded < 100'000 || now_ns() - d0 < decode_budget)) {
    const std::uint64_t t0 = now_ns();
    for (const auto& [w0, w1] : stream) sink += static_cast<unsigned>(avr::decode(w0, w1).op);
    decode_ns += now_ns() - t0;
    decoded += stream.size();
  }
  g_decode_sink = sink;

  std::string out = "{\"rounds\":" + std::to_string(rounds);
  for (int c = 0; c < kConfigs; ++c) {
    const Tally& t = tally[c];
    out += std::string(",\"") + kConfigNames[c] + "\":{\"ns\":" + std::to_string(t.ns) +
           ",\"cycles\":" + std::to_string(t.cycles) + ",\"calls\":" + std::to_string(t.calls) +
           '}';
  }
  out += ",\"decode\":{\"instructions\":" + std::to_string(decoded) +
         ",\"ns\":" + std::to_string(decode_ns) + ",\"stream\":" + std::to_string(stream.size()) +
         "},\"decode_ns_per_instr\":" +
         num(decoded ? static_cast<double>(decode_ns) / static_cast<double>(decoded) : 0.0) + '}';
  return out;
}

}  // namespace perfbench

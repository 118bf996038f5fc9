#pragma once
// Span and counter recording for the campaign benchmark.
//
// Nothing inside the harbor libraries is instrumented. Instead the traced
// benchmark binary is linked with `-Wl,--wrap=<symbol>` for a list of
// public harbor functions (see CMakeLists.txt), and spans.cpp defines the
// wrappers: each one opens a span, calls the real function, and closes the
// span. Spans nest on a stack, so each name gets a count, a total time and a
// self time (total minus the time covered by nested spans). Everything stays
// in memory until the benchmark prints its result.
//
// The untraced binary wraps only Device::run, and only to count the AVR
// cycles and instructions the core executes.

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One span name per wrapped public function (or group of them).
enum class Span : std::uint8_t {
  DeviceRun,       ///< avr::Device::run — guest execution incl. hooks
  TestbedCtor,     ///< runtime::Testbed::Testbed — boot a fresh device
  BuildRuntime,    ///< runtime::build_runtime — generate the guest runtime
  Assemble,        ///< assembler::Assembler::assemble
  TestbedCall,     ///< runtime::Testbed::{call, call_module, run_trampoline}
  SfiRewrite,      ///< sfi::rewrite
  SfiVerify,       ///< sfi::verify (both overloads)
  Elision,         ///< analysis::analyze_elision
  PlanCampaign,    ///< inject::plan_campaign
  OracleCapture,   ///< inject::Oracle::{capture, capture_owned}
  OracleDiff,      ///< inject::Oracle::diff
  SystemCtor,      ///< harbor::System::System
  KernelLoad,      ///< sos::Kernel::load
  KernelDispatch,  ///< sos::Kernel::run_pending
  KernelRecover,   ///< sos::Kernel::recover_store
  StoreInstall,    ///< ota::install_image, ota::ModuleStore::{begin_install, stage_words, commit}
  StoreRecover,    ///< ota::ModuleStore::recover
  FleetEvent,      ///< fleet::Node::{on_frame, on_wake}
  kCount,
};

inline constexpr std::size_t kSpanCount = static_cast<std::size_t>(Span::kCount);

/// Stable names used in the result file; the module prefix names the layer.
inline constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "avr.device_run",   "runtime.testbed_ctor", "runtime.build_runtime",
    "asm.assemble",     "runtime.call",         "sfi.rewrite",
    "sfi.verify",       "analysis.elision",     "inject.plan",
    "inject.oracle_capture", "inject.oracle_diff", "core.system_ctor",
    "sos.load",         "sos.dispatch",         "sos.recover_store",
    "ota.install",      "ota.recover",          "fleet.node_event",
};

struct SpanStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Counts gathered at the same wrapped boundaries.
struct Counters {
  std::uint64_t avr_cycles = 0;        ///< cycles executed by Device::run
  std::uint64_t avr_instructions = 0;  ///< instructions retired by Device::run
  std::uint64_t mmc_checks = 0;        ///< UMPU fabric stats, summed per guest call
  std::uint64_t umpu_denies = 0;       ///< MMC + fetch denies
  std::uint64_t verify_rejects = 0;
  std::uint64_t dispatches = 0;        ///< kernel dispatch records
  std::uint64_t dispatch_faults = 0;   ///< ...whose guest call faulted
  std::uint64_t flash_programs = 0;    ///< FlashModel::program_word calls
  std::uint64_t flash_erases = 0;      ///< FlashModel::erase_page calls
  std::uint64_t store_installs = 0;    ///< install_image + direct commit calls
  std::uint64_t ring_accepted = 0;     ///< per-run tracers, read at detach
  std::uint64_t ring_dropped = 0;
};

struct Recorder {
  bool active = false;  ///< spans and counters accumulate only while true
  std::array<SpanStats, kSpanCount> spans{};
  Counters counters;
  /// Host time at the end of each Oracle::diff: successive differences are
  /// per-mutant times on the inject workload.
  std::vector<std::uint64_t> diff_end_ns;

  void reset() {
    spans = {};
    counters = {};
    diff_end_ns.clear();
  }
};

Recorder& recorder();

/// Whether this binary was linked with the span wrappers.
bool spans_linked();

}  // namespace perfbench

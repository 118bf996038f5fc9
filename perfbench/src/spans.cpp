// Link-time wrappers around public harbor functions (see spans.h).
//
// `ld --wrap=SYM` sends every call to SYM from another object file to
// `__wrap_SYM`, and `__real_SYM` reaches the original. The wrappers below
// are declared with the C++ types of the functions they replace, so the
// calling convention matches; their names are the mangled symbols listed in
// CMakeLists.txt. Calls made inside the object file that defines a function
// are not redirected, so a span covers the public entry, never internal
// recursion.

#include "spans.h"

#include <optional>
#include <span>
#include <vector>

#include "analysis/elide.h"
#include "asm/builder.h"
#include "avr/device.h"
#include "core/harbor.h"
#include "fleet/node.h"
#include "inject/mutation.h"
#include "inject/oracle.h"
#include "ota/flash_model.h"
#include "ota/store.h"
#include "runtime/runtime.h"
#include "runtime/testbed.h"
#include "sfi/rewriter.h"
#include "sfi/verifier.h"
#include "sos/kernel.h"
#include "trace/tracer.h"

namespace perfbench {

Recorder& recorder() {
  static Recorder r;
  return r;
}

namespace {

struct Open {
  Span span;
  std::uint64_t start = 0;
  std::uint64_t child_ns = 0;
};

std::vector<Open>& stack() {
  static std::vector<Open> s;
  return s;
}

/// RAII span: opens on construction when recording is active.
class Scope {
 public:
  explicit Scope(Span s) {
    if (!recorder().active) return;
    stack().push_back({s, now_ns(), 0});
    open_ = true;
  }
  ~Scope() {
    if (!open_) return;
    const Open o = stack().back();
    stack().pop_back();
    const std::uint64_t d = now_ns() - o.start;
    SpanStats& st = recorder().spans[static_cast<std::size_t>(o.span)];
    ++st.count;
    st.total_ns += d;
    st.self_ns += d - o.child_ns;
    if (!stack().empty()) stack().back().child_ns += d;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool open_ = false;
};

}  // namespace

#if PERFBENCH_SPANS
bool spans_linked() { return true; }
#else
bool spans_linked() { return false; }
#endif

}  // namespace perfbench

using namespace harbor;
using perfbench::recorder;
using perfbench::Scope;
using perfbench::Span;

// The originals are weak references: when a refactor renames or removes a
// wrapped function, its wrapper is simply never called and the benchmark
// still links. A lost cycle counter shows up as a sim_cycles mismatch.
#define PERFBENCH_REAL __attribute__((weak))

extern "C" {

// --- avr: guest execution (both binaries: cycle and instruction counts) ---
std::uint64_t PERFBENCH_REAL __real__ZN6harbor3avr6Device3runEm(avr::Device*, std::uint64_t);
std::uint64_t __wrap__ZN6harbor3avr6Device3runEm(avr::Device* self, std::uint64_t max) {
  const std::uint64_t c0 = self->cpu().cycle_count();
  const std::uint64_t i0 = self->cpu().instruction_count();
  std::uint64_t r = 0;
  {
#if PERFBENCH_SPANS
    Scope s(Span::DeviceRun);
#endif
    r = __real__ZN6harbor3avr6Device3runEm(self, max);
  }
  if (recorder().active) {
    recorder().counters.avr_cycles += self->cpu().cycle_count() - c0;
    recorder().counters.avr_instructions += self->cpu().instruction_count() - i0;
  }
  return r;
}

#if PERFBENCH_SPANS

// --- runtime / asm ---
void PERFBENCH_REAL __real__ZN6harbor7runtime7TestbedC1ENS0_4ModeENS0_6LayoutE(runtime::Testbed*, runtime::Mode,
                                                                runtime::Layout);
void __wrap__ZN6harbor7runtime7TestbedC1ENS0_4ModeENS0_6LayoutE(runtime::Testbed* self,
                                                                runtime::Mode mode,
                                                                runtime::Layout layout) {
  Scope s(Span::TestbedCtor);
  __real__ZN6harbor7runtime7TestbedC1ENS0_4ModeENS0_6LayoutE(self, mode, layout);
}

runtime::Runtime PERFBENCH_REAL __real__ZN6harbor7runtime13build_runtimeERKNS0_7OptionsE(const runtime::Options&);
runtime::Runtime __wrap__ZN6harbor7runtime13build_runtimeERKNS0_7OptionsE(
    const runtime::Options& o) {
  Scope s(Span::BuildRuntime);
  return __real__ZN6harbor7runtime13build_runtimeERKNS0_7OptionsE(o);
}

assembler::Program PERFBENCH_REAL __real__ZN6harbor9assembler9Assembler8assembleEv(assembler::Assembler*);
assembler::Program __wrap__ZN6harbor9assembler9Assembler8assembleEv(assembler::Assembler* self) {
  Scope s(Span::Assemble);
  return __real__ZN6harbor9assembler9Assembler8assembleEv(self);
}

}  // extern "C"

namespace {

/// Guest calls: time them and add the UMPU fabric's stat deltas.
template <typename F>
runtime::CallResult guest_call(runtime::Testbed* tb, F&& real) {
  const umpu::Fabric* fab = tb->fabric();
  const umpu::Stats before = fab ? fab->stats() : umpu::Stats{};
  Scope s(Span::TestbedCall);
  const runtime::CallResult r = real();
  if (fab && recorder().active) {
    const umpu::Stats& after = fab->stats();
    recorder().counters.mmc_checks += after.mmc_checks - before.mmc_checks;
    recorder().counters.umpu_denies += (after.mmc_denies - before.mmc_denies) +
                                       (after.fetch_denies - before.fetch_denies);
  }
  return r;
}

}  // namespace

extern "C" {

runtime::CallResult PERFBENCH_REAL __real__ZN6harbor7runtime7Testbed4callEjthh(runtime::Testbed*, std::uint32_t,
                                                                std::uint16_t, std::uint8_t,
                                                                std::uint8_t);
runtime::CallResult __wrap__ZN6harbor7runtime7Testbed4callEjthh(runtime::Testbed* self,
                                                                std::uint32_t slot,
                                                                std::uint16_t a1, std::uint8_t a2,
                                                                std::uint8_t caller) {
  return guest_call(self, [&] {
    return __real__ZN6harbor7runtime7Testbed4callEjthh(self, slot, a1, a2, caller);
  });
}

runtime::CallResult PERFBENCH_REAL __real__ZN6harbor7runtime7Testbed11call_moduleEjhth(runtime::Testbed*,
                                                                        std::uint32_t,
                                                                        std::uint8_t,
                                                                        std::uint16_t,
                                                                        std::uint8_t);
runtime::CallResult __wrap__ZN6harbor7runtime7Testbed11call_moduleEjhth(
    runtime::Testbed* self, std::uint32_t entry, std::uint8_t domain, std::uint16_t a1,
    std::uint8_t a2) {
  return guest_call(self, [&] {
    return __real__ZN6harbor7runtime7Testbed11call_moduleEjhth(self, entry, domain, a1, a2);
  });
}

runtime::CallResult PERFBENCH_REAL __real__ZN6harbor7runtime7Testbed14run_trampolineEjRKNS1_9GuestArgsEh(
    runtime::Testbed*, std::uint32_t, const runtime::Testbed::GuestArgs&, std::uint8_t);
runtime::CallResult __wrap__ZN6harbor7runtime7Testbed14run_trampolineEjRKNS1_9GuestArgsEh(
    runtime::Testbed* self, std::uint32_t pc, const runtime::Testbed::GuestArgs& args,
    std::uint8_t domain) {
  return guest_call(self, [&] {
    return __real__ZN6harbor7runtime7Testbed14run_trampolineEjRKNS1_9GuestArgsEh(self, pc, args,
                                                                                 domain);
  });
}

// --- sfi / analysis ---
sfi::RewriteResult
PERFBENCH_REAL __real__ZN6harbor3sfi7rewriteERKNS0_12RewriteInputERKNS0_9StubTableEjRKNS0_13ElisionPolicyE(
    const sfi::RewriteInput&, const sfi::StubTable&, std::uint32_t, const sfi::ElisionPolicy&);
sfi::RewriteResult
__wrap__ZN6harbor3sfi7rewriteERKNS0_12RewriteInputERKNS0_9StubTableEjRKNS0_13ElisionPolicyE(
    const sfi::RewriteInput& in, const sfi::StubTable& stubs, std::uint32_t origin,
    const sfi::ElisionPolicy& policy) {
  Scope s(Span::SfiRewrite);
  return __real__ZN6harbor3sfi7rewriteERKNS0_12RewriteInputERKNS0_9StubTableEjRKNS0_13ElisionPolicyE(
      in, stubs, origin, policy);
}

}  // extern "C"

namespace {

sfi::VerifyResult count_verify(sfi::VerifyResult r) {
  if (recorder().active && !r.ok) ++recorder().counters.verify_rejects;
  return r;
}

}  // namespace

extern "C" {

sfi::VerifyResult
PERFBENCH_REAL __real__ZN6harbor3sfi6verifyESt4spanIKtLm18446744073709551615EEjS1_IKjLm18446744073709551615EERKNS0_9StubTableE(
    std::span<const std::uint16_t>, std::uint32_t, std::span<const std::uint32_t>,
    const sfi::StubTable&);
sfi::VerifyResult
__wrap__ZN6harbor3sfi6verifyESt4spanIKtLm18446744073709551615EEjS1_IKjLm18446744073709551615EERKNS0_9StubTableE(
    std::span<const std::uint16_t> words, std::uint32_t origin,
    std::span<const std::uint32_t> entries, const sfi::StubTable& stubs) {
  Scope s(Span::SfiVerify);
  return count_verify(
      __real__ZN6harbor3sfi6verifyESt4spanIKtLm18446744073709551615EEjS1_IKjLm18446744073709551615EERKNS0_9StubTableE(
          words, origin, entries, stubs));
}

sfi::VerifyResult
PERFBENCH_REAL __real__ZN6harbor3sfi6verifyESt4spanIKtLm18446744073709551615EEjS1_IKjLm18446744073709551615EERKNS0_9StubTableERKNS0_13ElisionPolicyERKNS0_13ProofManifestE(
    std::span<const std::uint16_t>, std::uint32_t, std::span<const std::uint32_t>,
    const sfi::StubTable&, const sfi::ElisionPolicy&, const sfi::ProofManifest&);
sfi::VerifyResult
__wrap__ZN6harbor3sfi6verifyESt4spanIKtLm18446744073709551615EEjS1_IKjLm18446744073709551615EERKNS0_9StubTableERKNS0_13ElisionPolicyERKNS0_13ProofManifestE(
    std::span<const std::uint16_t> words, std::uint32_t origin,
    std::span<const std::uint32_t> entries, const sfi::StubTable& stubs,
    const sfi::ElisionPolicy& policy, const sfi::ProofManifest& manifest) {
  Scope s(Span::SfiVerify);
  return count_verify(
      __real__ZN6harbor3sfi6verifyESt4spanIKtLm18446744073709551615EEjS1_IKjLm18446744073709551615EERKNS0_9StubTableERKNS0_13ElisionPolicyERKNS0_13ProofManifestE(
          words, origin, entries, stubs, policy, manifest));
}

analysis::ElisionReport
PERFBENCH_REAL __real__ZN6harbor8analysis15analyze_elisionERKNS0_3CfgERKNS0_9ConstPropERKNS_3sfi9StubTableERKNS7_13ElisionPolicyE(
    const analysis::Cfg&, const analysis::ConstProp&, const sfi::StubTable&,
    const sfi::ElisionPolicy&);
analysis::ElisionReport
__wrap__ZN6harbor8analysis15analyze_elisionERKNS0_3CfgERKNS0_9ConstPropERKNS_3sfi9StubTableERKNS7_13ElisionPolicyE(
    const analysis::Cfg& cfg, const analysis::ConstProp& flow, const sfi::StubTable& stubs,
    const sfi::ElisionPolicy& policy) {
  Scope s(Span::Elision);
  return __real__ZN6harbor8analysis15analyze_elisionERKNS0_3CfgERKNS0_9ConstPropERKNS_3sfi9StubTableERKNS7_13ElisionPolicyE(
      cfg, flow, stubs, policy);
}

// --- inject ---
std::vector<inject::Mutation> PERFBENCH_REAL __real__ZN6harbor6inject13plan_campaignERKNS0_11PlanContextEmi(
    const inject::PlanContext&, std::uint64_t, int);
std::vector<inject::Mutation> __wrap__ZN6harbor6inject13plan_campaignERKNS0_11PlanContextEmi(
    const inject::PlanContext& ctx, std::uint64_t seed, int count) {
  Scope s(Span::PlanCampaign);
  return __real__ZN6harbor6inject13plan_campaignERKNS0_11PlanContextEmi(ctx, seed, count);
}

inject::Oracle PERFBENCH_REAL __real__ZN6harbor6inject6Oracle7captureERNS_7runtime7TestbedEh(runtime::Testbed&,
                                                                              std::uint8_t);
inject::Oracle __wrap__ZN6harbor6inject6Oracle7captureERNS_7runtime7TestbedEh(
    runtime::Testbed& tb, std::uint8_t subject) {
  Scope s(Span::OracleCapture);
  return __real__ZN6harbor6inject6Oracle7captureERNS_7runtime7TestbedEh(tb, subject);
}

inject::Oracle PERFBENCH_REAL __real__ZN6harbor6inject6Oracle13capture_ownedERNS_7runtime7TestbedEh(
    runtime::Testbed&, std::uint8_t);
inject::Oracle __wrap__ZN6harbor6inject6Oracle13capture_ownedERNS_7runtime7TestbedEh(
    runtime::Testbed& tb, std::uint8_t victim) {
  Scope s(Span::OracleCapture);
  return __real__ZN6harbor6inject6Oracle13capture_ownedERNS_7runtime7TestbedEh(tb, victim);
}

std::vector<std::uint16_t> PERFBENCH_REAL __real__ZNK6harbor6inject6Oracle4diffERNS_7runtime7TestbedE(
    const inject::Oracle*, runtime::Testbed&);
std::vector<std::uint16_t> __wrap__ZNK6harbor6inject6Oracle4diffERNS_7runtime7TestbedE(
    const inject::Oracle* self, runtime::Testbed& tb) {
  std::vector<std::uint16_t> r;
  {
    Scope s(Span::OracleDiff);
    r = __real__ZNK6harbor6inject6Oracle4diffERNS_7runtime7TestbedE(self, tb);
  }
  if (recorder().active) recorder().diff_end_ns.push_back(perfbench::now_ns());
  return r;
}

// --- trace: ring accounting of per-run tracers ---
void PERFBENCH_REAL __real__ZN6harbor5trace6Tracer6detachEv(trace::Tracer*);
void __wrap__ZN6harbor5trace6Tracer6detachEv(trace::Tracer* self) {
  if (recorder().active && self->cpu() != nullptr) {
    recorder().counters.ring_accepted += self->ring().accepted();
    recorder().counters.ring_dropped += self->ring().dropped();
  }
  __real__ZN6harbor5trace6Tracer6detachEv(self);
}

// --- core / sos ---
void PERFBENCH_REAL __real__ZN6harbor6SystemC1ERKNS_12SystemConfigE(System*, const SystemConfig&);
void __wrap__ZN6harbor6SystemC1ERKNS_12SystemConfigE(System* self, const SystemConfig& cfg) {
  Scope s(Span::SystemCtor);
  __real__ZN6harbor6SystemC1ERKNS_12SystemConfigE(self, cfg);
}

memmap::DomainId PERFBENCH_REAL __real__ZN6harbor3sos6Kernel4loadERKNS0_11ModuleImageESt8optionalIhE(
    sos::Kernel*, const sos::ModuleImage&, std::optional<memmap::DomainId>);
memmap::DomainId __wrap__ZN6harbor3sos6Kernel4loadERKNS0_11ModuleImageESt8optionalIhE(
    sos::Kernel* self, const sos::ModuleImage& image, std::optional<memmap::DomainId> domain) {
  Scope s(Span::KernelLoad);
  return __real__ZN6harbor3sos6Kernel4loadERKNS0_11ModuleImageESt8optionalIhE(self, image, domain);
}

std::vector<sos::DispatchRecord> PERFBENCH_REAL __real__ZN6harbor3sos6Kernel11run_pendingEi(sos::Kernel*, int);
std::vector<sos::DispatchRecord> __wrap__ZN6harbor3sos6Kernel11run_pendingEi(sos::Kernel* self,
                                                                             int max) {
  std::vector<sos::DispatchRecord> log;
  {
    Scope s(Span::KernelDispatch);
    log = __real__ZN6harbor3sos6Kernel11run_pendingEi(self, max);
  }
  if (recorder().active) {
    recorder().counters.dispatches += log.size();
    for (const sos::DispatchRecord& d : log)
      if (d.result.faulted) ++recorder().counters.dispatch_faults;
  }
  return log;
}

ota::RecoveryResult PERFBENCH_REAL __real__ZN6harbor3sos6Kernel13recover_storeERNS_3ota11ModuleStoreE(
    sos::Kernel*, ota::ModuleStore&);
ota::RecoveryResult __wrap__ZN6harbor3sos6Kernel13recover_storeERNS_3ota11ModuleStoreE(
    sos::Kernel* self, ota::ModuleStore& store) {
  Scope s(Span::KernelRecover);
  return __real__ZN6harbor3sos6Kernel13recover_storeERNS_3ota11ModuleStoreE(self, store);
}

// --- ota ---
ota::InstallStatus PERFBENCH_REAL __real__ZN6harbor3ota11ModuleStore13begin_installEjj(ota::ModuleStore*,
                                                                        std::uint32_t,
                                                                        std::uint32_t);
ota::InstallStatus __wrap__ZN6harbor3ota11ModuleStore13begin_installEjj(ota::ModuleStore* self,
                                                                        std::uint32_t words,
                                                                        std::uint32_t crc) {
  Scope s(Span::StoreInstall);
  return __real__ZN6harbor3ota11ModuleStore13begin_installEjj(self, words, crc);
}

ota::InstallStatus PERFBENCH_REAL __real__ZN6harbor3ota11ModuleStore11stage_wordsEjSt4spanIKtLm18446744073709551615EE(
    ota::ModuleStore*, std::uint32_t, std::span<const std::uint16_t>);
ota::InstallStatus __wrap__ZN6harbor3ota11ModuleStore11stage_wordsEjSt4spanIKtLm18446744073709551615EE(
    ota::ModuleStore* self, std::uint32_t offset, std::span<const std::uint16_t> words) {
  Scope s(Span::StoreInstall);
  return __real__ZN6harbor3ota11ModuleStore11stage_wordsEjSt4spanIKtLm18446744073709551615EE(
      self, offset, words);
}

ota::InstallStatus PERFBENCH_REAL __real__ZN6harbor3ota11ModuleStore6commitEv(ota::ModuleStore*);
ota::InstallStatus __wrap__ZN6harbor3ota11ModuleStore6commitEv(ota::ModuleStore* self) {
  if (recorder().active) ++recorder().counters.store_installs;
  Scope s(Span::StoreInstall);
  return __real__ZN6harbor3ota11ModuleStore6commitEv(self);
}

ota::InstallStatus PERFBENCH_REAL __real__ZN6harbor3ota13install_imageERNS0_11ModuleStoreESt4spanIKtLm18446744073709551615EE(
    ota::ModuleStore&, std::span<const std::uint16_t>);
ota::InstallStatus __wrap__ZN6harbor3ota13install_imageERNS0_11ModuleStoreESt4spanIKtLm18446744073709551615EE(
    ota::ModuleStore& store, std::span<const std::uint16_t> words) {
  if (recorder().active) ++recorder().counters.store_installs;
  Scope s(Span::StoreInstall);
  return __real__ZN6harbor3ota13install_imageERNS0_11ModuleStoreESt4spanIKtLm18446744073709551615EE(
      store, words);
}

ota::RecoveryResult PERFBENCH_REAL __real__ZN6harbor3ota11ModuleStore7recoverEm(ota::ModuleStore*,
                                                                 std::uint64_t);
ota::RecoveryResult __wrap__ZN6harbor3ota11ModuleStore7recoverEm(ota::ModuleStore* self,
                                                                 std::uint64_t budget) {
  Scope s(Span::StoreRecover);
  return __real__ZN6harbor3ota11ModuleStore7recoverEm(self, budget);
}

ota::FlashStatus PERFBENCH_REAL __real__ZN6harbor3ota10FlashModel12program_wordEjt(ota::FlashModel*,
                                                                    std::uint32_t, std::uint16_t);
ota::FlashStatus __wrap__ZN6harbor3ota10FlashModel12program_wordEjt(ota::FlashModel* self,
                                                                    std::uint32_t waddr,
                                                                    std::uint16_t value) {
  if (recorder().active) ++recorder().counters.flash_programs;
  return __real__ZN6harbor3ota10FlashModel12program_wordEjt(self, waddr, value);
}

ota::FlashStatus PERFBENCH_REAL __real__ZN6harbor3ota10FlashModel10erase_pageEj(ota::FlashModel*, std::uint32_t);
ota::FlashStatus __wrap__ZN6harbor3ota10FlashModel10erase_pageEj(ota::FlashModel* self,
                                                                 std::uint32_t page) {
  if (recorder().active) ++recorder().counters.flash_erases;
  return __real__ZN6harbor3ota10FlashModel10erase_pageEj(self, page);
}

// --- fleet ---
void PERFBENCH_REAL __real__ZN6harbor5fleet4Node8on_frameEmRKSt6vectorIhSaIhEERS2_IS4_SaIS4_EE(
    fleet::Node*, std::uint64_t, const ota::Frame&, std::vector<ota::Frame>&);
void __wrap__ZN6harbor5fleet4Node8on_frameEmRKSt6vectorIhSaIhEERS2_IS4_SaIS4_EE(
    fleet::Node* self, std::uint64_t now, const ota::Frame& f, std::vector<ota::Frame>& tx) {
  Scope s(Span::FleetEvent);
  __real__ZN6harbor5fleet4Node8on_frameEmRKSt6vectorIhSaIhEERS2_IS4_SaIS4_EE(self, now, f, tx);
}

void PERFBENCH_REAL __real__ZN6harbor5fleet4Node7on_wakeEmRSt6vectorIS2_IhSaIhEESaIS4_EE(
    fleet::Node*, std::uint64_t, std::vector<ota::Frame>&);
void __wrap__ZN6harbor5fleet4Node7on_wakeEmRSt6vectorIS2_IhSaIhEESaIS4_EE(
    fleet::Node* self, std::uint64_t now, std::vector<ota::Frame>& tx) {
  Scope s(Span::FleetEvent);
  __real__ZN6harbor5fleet4Node7on_wakeEmRSt6vectorIS2_IhSaIhEESaIS4_EE(self, now, tx);
}

#endif  // PERFBENCH_SPANS

}  // extern "C"

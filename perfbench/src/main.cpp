// perfbench-runner: runs one campaign workload as a closed batch (one
// process, one thread, each campaign run to completion before the next) and
// prints one JSON object with raw samples. perfbench/run.py turns that into
// metrics, checks it against the recorded outputs and prints the result.
//
//   perfbench-runner --workload inject|soak|fleet --seed N (--seconds T | --reps N)
//
// --seconds measures for about T seconds; --reps runs exactly N campaigns
// (used to record the expected outputs).
//
// Workloads drive the campaigns through their public entry points, in both
// protection modes:
//   inject  inject::run_campaign, 5000 mutants, coverage map on
//   soak    soak::run_soak, 168 sim-hours, aging scenario, 3 forks
//   fleet   fleet::FleetSim::run, 256 nodes, 30% loss, churn, partition,
//           chained over several master seeds derived from N
//
// The traced build (perfbench-runner-traced) also records spans around
// public harbor calls (spans.cpp), per-unit host times, and layer probes
// (probe.cpp).

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/harbor.h"
#include "fleet/sim.h"
#include "inject/campaign.h"
#include "probe.h"
#include "soak/soak.h"
#include "sos/modules.h"
#include "spans.h"
#include "trace/json.h"

using namespace harbor;
namespace json = harbor::trace::json;

namespace perfbench {
namespace {

constexpr int kInjectCount = 5000;
constexpr double kSoakHours = 168.0;
constexpr int kSoakForks = 3;
constexpr std::uint32_t kFleetNodes = 256;
constexpr int kFleetSeeds = 3;  ///< master seeds chained per fleet campaign run
constexpr int kSetupsPerRun = 20;

const ProtectionMode kModes[] = {ProtectionMode::Umpu, ProtectionMode::Sfi};

const char* mode_name(ProtectionMode m) { return m == ProtectionMode::Sfi ? "sfi" : "umpu"; }

std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string u64_list(const std::vector<std::uint64_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(v[i]);
  }
  return out + ']';
}

/// splitmix64: independent master seeds for the chained fleet campaigns.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (i + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Outcome of one campaign run (both modes, every chained seed).
struct Rep {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t setup_ns = 0;  ///< set-up measured inside the run (fleet only)
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double units = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::string check;     ///< exact simulated results (JSON object)
  std::string campaign;  ///< layer counts the reports expose (JSON object)
};

/// Per-unit host times, recorded by the traced build only.
struct Dists {
  std::vector<std::uint64_t> unit_ns;        ///< per mutant / epoch / checkpoint
  std::vector<std::uint64_t> checkpoint_ns;  ///< soak checkpoint epochs
};

/// Streambuf that timestamps every newline (one soak-report-v1 record each).
class LineClock final : public std::streambuf {
 public:
  std::vector<std::uint64_t> stamps;

 protected:
  int_type overflow(int_type c) override {
    if (c == '\n') stamps.push_back(now_ns());
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i)
      if (s[i] == '\n') stamps.push_back(now_ns());
    return n;
  }
};

// --- inject ---

inject::CampaignConfig inject_config(ProtectionMode mode, std::uint64_t seed, int count) {
  inject::CampaignConfig cfg;
  cfg.mode = mode;
  cfg.seed = seed;
  cfg.count = count;
  cfg.coverage = true;
  return cfg;
}

void inject_setup(std::uint64_t seed) {
  for (const ProtectionMode mode : kModes) (void)inject::run_campaign(inject_config(mode, seed, 0));
}

Rep inject_rep(std::uint64_t seed, Dists* dists) {
  Rep rep;
  std::string check = "{", camp = "{";
  json::Joiner cj(check), pj(camp);
  for (const ProtectionMode mode : kModes) {
    recorder().diff_end_ns.clear();
    const inject::CampaignReport r = inject::run_campaign(inject_config(mode, seed, kInjectCount));
    if (dists) {
      const auto& ends = recorder().diff_end_ns;
      for (std::size_t i = 1; i < ends.size(); ++i) dists->unit_ns.push_back(ends[i] - ends[i - 1]);
    }
    const std::string m = mode_name(mode);
    std::string c = "{";
    json::Joiner j(c);
    for (int o = 0; o < inject::kOutcomeCount; ++o) {
      const auto name = inject::outcome_name(static_cast<inject::Outcome>(o));
      json::kv(c, j, std::string(name), static_cast<std::uint64_t>(r.counts[o]));
    }
    json::kv(c, j, "golden_instructions", r.golden_instructions);
    std::string esc = "[";
    for (const inject::MutantRecord& rec : r.mutants) {
      if (rec.outcome != inject::Outcome::Escape) continue;
      if (esc.size() > 1) esc += ',';
      esc += std::to_string(rec.index);
      rep.failures.push_back("inject " + m + " mutant #" + std::to_string(rec.index) + ": " +
                             rec.detail.substr(0, rec.detail.find('\n')));
    }
    cj.item();
    check += '"' + m + "\":" + c + ",\"escapes\":" + esc + "]}";

    const prof::CoverageSummary& cov = r.coverage.value();
    json::kv(camp, pj, m + ".guards_covered", static_cast<std::uint64_t>(cov.guards_covered()));
    json::kv(camp, pj, m + ".guards_total", static_cast<std::uint64_t>(cov.guards_total()));
    json::kv(camp, pj, m + ".subject_cycles", cov.cycles);
    rep.attempted += static_cast<std::uint64_t>(kInjectCount);
    rep.failed += static_cast<std::uint64_t>(r.escapes());
    rep.units += kInjectCount;
  }
  rep.check = check + '}';
  rep.campaign = camp + '}';
  return rep;
}

// --- soak ---

soak::SoakConfig soak_config(ProtectionMode mode, std::uint64_t seed) {
  soak::SoakConfig cfg;
  cfg.mode = mode;
  cfg.hours = kSoakHours;
  cfg.seed = seed;
  cfg.scenario = soak::SoakScenario::Aging;
  cfg.forks = kSoakForks;
  return cfg;
}

/// The soak's one-time set-up through public calls: the System with its
/// tracer and the resident module cast (what run_soak builds before epoch 0).
void soak_setup(std::uint64_t seed) {
  for (const ProtectionMode mode : kModes) {
    const soak::SoakConfig cfg = soak_config(mode, seed);
    System sys({mode});
    trace::TracerOptions topts;
    topts.ring_capacity = cfg.ring_capacity;
    sys.enable_tracing(topts);
    (void)sys.load_module(sos::modules::blink());
    const memmap::DomainId tree = sys.load_module(sos::modules::tree_routing());
    (void)sys.load_module(sos::modules::surge(tree, true));
  }
}

std::uint64_t counter_of(const soak::EpochRecord& rec, const std::string& name) {
  for (const auto& [k, v] : rec.counters)
    if (k == name) return v;
  return 0;
}

Rep soak_rep(std::uint64_t seed, Dists* dists) {
  Rep rep;
  std::string check = "{", camp = "{";
  json::Joiner cj(check), pj(camp);
  for (const ProtectionMode mode : kModes) {
    const soak::SoakConfig cfg = soak_config(mode, seed);
    LineClock clock;
    std::ostream sink(&clock);
    const soak::SoakReport r = soak::run_soak(cfg, dists ? &sink : nullptr);
    if (dists) {
      // Epoch 0 also pays the set-up, so its time is left out.
      for (std::size_t i = 1; i < clock.stamps.size() && i < r.records.size(); ++i) {
        const std::uint64_t d = clock.stamps[i] - clock.stamps[i - 1];
        dists->unit_ns.push_back(d);
        if (r.records[i].checkpoint) dists->checkpoint_ns.push_back(d);
      }
    }
    const std::string m = mode_name(mode);
    std::string c = "{";
    json::Joiner j(c);
    json::kv(c, j, "ok", r.ok);
    json::kv(c, j, "executed_cycles", r.executed_cycles);
    json::kv(c, j, "skipped_cycles", r.skipped_cycles);
    json::kv(c, j, "epochs", r.epochs);
    json::kv(c, j, "checkpoints", r.checkpoints);
    std::string forks = "[";
    for (const soak::ForkRecord& f : r.forks) {
      if (forks.size() > 1) forks += ',';
      forks += "{\"digest\":\"" + hex64(f.digest) + "\",\"ok\":" + (f.monitors_ok ? "true" : "false") + "}";
    }
    cj.item();
    check += '"' + m + "\":" + c + ",\"forks\":" + forks + "]}";

    std::uint64_t verdicts = 0, failed = 0;
    for (const soak::EpochRecord& rec : r.records)
      for (const soak::MonitorResult& mr : rec.monitors) {
        ++verdicts;
        if (!mr.ok) ++failed;
      }
    for (const soak::ForkRecord& f : r.forks) {
      ++verdicts;
      if (!f.monitors_ok) ++failed;
    }
    rep.attempted += verdicts;
    rep.failed += failed;
    if (!r.ok) rep.failures.push_back("soak " + m + ": " + r.failure);
    rep.units += r.sim_hours;

    const soak::EpochRecord& last = r.records.back();
    for (const char* k : {"dispatches", "faults", "restarts", "ota_installs", "ota_recovers",
                          "flash_total_erases", "ring_accepted", "ring_dropped"})
      json::kv(camp, pj, m + "." + k, counter_of(last, k));
    json::kv(camp, pj, m + ".executed_cycles", r.executed_cycles);
    json::kv(camp, pj, m + ".skipped_cycles", r.skipped_cycles);
  }
  rep.check = check + '}';
  rep.campaign = camp + '}';
  return rep;
}

// --- fleet ---

fleet::FleetConfig fleet_config(ProtectionMode mode, std::uint64_t master_seed) {
  fleet::FleetConfig cfg;
  cfg.nodes = kFleetNodes;
  cfg.topology = fleet::Topology::Random;
  cfg.loss = 0.3;
  cfg.cut_prob = 0.2;
  cfg.churn = 0.1;
  cfg.partition = true;
  cfg.full_every = 8;
  cfg.mode = mode;
  cfg.master_seed = master_seed;
  return cfg;
}

Rep fleet_rep(std::uint64_t seed, Dists* dists) {
  Rep rep;
  std::string check = "{", camp = "{";
  json::Joiner cj(check), pj(camp);
  fleet::FleetTotals totals;
  fleet::RadioCounters radio;
  std::uint64_t events = 0;
  for (int i = 0; i < kFleetSeeds; ++i) {
    const std::uint64_t master = derive_seed(seed, static_cast<std::uint64_t>(i));
    for (const ProtectionMode mode : kModes) {
      const std::uint64_t s0 = now_ns();
      fleet::FleetSim sim(fleet_config(mode, master));
      rep.setup_ns += now_ns() - s0;
      std::uint64_t last = now_ns();
      fleet::FleetSim::JsonlSink sink;
      if (dists)
        sink = [&](const std::string&) {
          const std::uint64_t t = now_ns();
          dists->unit_ns.push_back(t - last);
          last = t;
        };
      const fleet::FleetResult r = sim.run(sink);

      const std::string key = hex64(master) + "." + mode_name(mode);
      std::string c = "{";
      json::Joiner j(c);
      json::kv(c, j, "digest", hex64(r.digest));
      json::kv(c, j, "converged", r.converged);
      json::kv(c, j, "converged_tick", r.converged_tick);
      json::kv(c, j, "end_tick", r.end_tick);
      for (const fleet::FleetMonitorResult& mr : r.monitors) {
        json::kv(c, j, "monitor." + mr.name, mr.ok);
        ++rep.attempted;
        if (!mr.ok) {
          ++rep.failed;
          rep.failures.push_back("fleet " + key + " monitor " + mr.name + ": " + mr.detail);
        }
      }
      cj.item();
      check += '"' + key + "\":" + c + '}';
      rep.units += static_cast<double>(kFleetNodes) * static_cast<double>(r.end_tick);
      events += r.events_processed;
      radio.frames_sent += r.radio.frames_sent;
      totals.chunks_served += r.totals.chunks_served;
      totals.chunks_staged += r.totals.chunks_staged;
      totals.installs += r.totals.installs;
      totals.dispatch_checks += r.totals.dispatch_checks;
    }
  }
  json::kv(camp, pj, "events", events);
  json::kv(camp, pj, "frames_sent", radio.frames_sent);
  json::kv(camp, pj, "chunks_served", totals.chunks_served);
  json::kv(camp, pj, "chunks_staged", totals.chunks_staged);
  json::kv(camp, pj, "installs", totals.installs);
  json::kv(camp, pj, "dispatch_checks", totals.dispatch_checks);
  rep.check = check + '}';
  rep.campaign = camp + '}';
  return rep;
}

// --- campaign loop ---

struct Workload {
  const char* name;
  const char* unit;
  std::function<void(std::uint64_t)> setup;  ///< empty: set-up is timed inside each run
  std::function<Rep(std::uint64_t, Dists*)> rep;
};

const Workload kWorkloads[] = {
    {"inject", "mutants", inject_setup, inject_rep},
    {"soak", "sim_hours", soak_setup, soak_rep},
    {"fleet", "node_ticks", nullptr, fleet_rep},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench-runner --workload inject|soak|fleet --seed N\n"
               "                        (--seconds T | --reps N)\n");
  return 2;
}

std::string build_json() {
  std::string out = "{";
  json::Joiner j(out);
  json::kv(out, j, "compiler", std::string("gcc ") + __VERSION__);
#ifdef __OPTIMIZE__
  json::kv(out, j, "optimized", true);
#else
  json::kv(out, j, "optimized", false);
#endif
  std::string san;
#ifdef __SANITIZE_ADDRESS__
  san += "address";
#endif
#ifdef __SANITIZE_THREAD__
  san += san.empty() ? "thread" : ",thread";
#endif
  json::kv(out, j, "sanitizer", san);
  json::kv(out, j, "spans", spans_linked());
  return out + '}';
}

int run(const Workload& w, std::uint64_t seed, double seconds, int fixed_reps) {
  const std::uint64_t budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t start = now_ns();
  const bool traced = spans_linked();

  // Campaign runs until the budget is spent (traced: leave room for probes).
  const std::uint64_t rep_budget = traced ? budget_ns * 4 / 5 : budget_ns;
  std::vector<Rep> reps;
  Dists dists;
  recorder().reset();
  const std::size_t min_reps = fixed_reps ? static_cast<std::size_t>(fixed_reps) : 3;
  std::vector<std::uint64_t> setup_ns;
  while (reps.size() < min_reps || (!fixed_reps && now_ns() - start < rep_budget)) {
    // Set-up takes well under a millisecond: a burst before every campaign
    // run gives its median many samples, spread over the whole run like the
    // campaign samples are.
    for (int i = 0; w.setup && i < kSetupsPerRun; ++i) {
      const std::uint64_t t0 = now_ns();
      w.setup(seed);
      setup_ns.push_back(now_ns() - t0);
    }
    const std::uint64_t c0 = cpu_ns();
    const std::uint64_t t0 = now_ns();
    recorder().active = true;
    const std::uint64_t cyc0 = recorder().counters.avr_cycles;
    const std::uint64_t ins0 = recorder().counters.avr_instructions;
    Rep r = w.rep(seed, traced ? &dists : nullptr);
    r.wall_ns = now_ns() - t0;
    r.cpu_ns = cpu_ns() - c0;
    recorder().active = false;
    r.cycles = recorder().counters.avr_cycles - cyc0;
    r.instructions = recorder().counters.avr_instructions - ins0;
    if (!w.setup) setup_ns.push_back(r.setup_ns);
    reps.push_back(std::move(r));
  }

  bool stable = true;
  std::vector<std::uint64_t> wall, cpu;
  for (const Rep& r : reps) {
    stable = stable && r.check == reps.front().check && r.cycles == reps.front().cycles &&
             r.instructions == reps.front().instructions;
    wall.push_back(r.wall_ns);
    cpu.push_back(r.cpu_ns);
  }
  const Rep& first = reps.front();

  std::string probe;
  if (traced && !fixed_reps) {
    const std::uint64_t left = start + budget_ns > now_ns() ? start + budget_ns - now_ns() : 0;
    probe = run_probe(w.name, static_cast<double>(std::max(left, budget_ns / 10)) / 1e9);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  std::string out = "{";
  json::Joiner j(out);
  json::kv(out, j, "workload", std::string(w.name));
  json::kv(out, j, "seed", seed);
  j.item();
  out += "\"build\":" + build_json();
  json::kv(out, j, "unit", std::string(w.unit));
  j.item();
  out += "\"units\":" + num(first.units);
  j.item();
  out += "\"setup_ns\":" + u64_list(setup_ns);
  j.item();
  out += "\"wall_ns\":" + u64_list(wall);
  j.item();
  out += "\"cpu_ns\":" + u64_list(cpu);
  if (!w.setup) {
    std::vector<std::uint64_t> s;
    for (const Rep& r : reps) s.push_back(r.setup_ns);
    j.item();
    out += "\"inner_setup_ns\":" + u64_list(s);
  }
  json::kv(out, j, "sim_cycles", first.cycles);
  json::kv(out, j, "instructions", first.instructions);
  json::kv(out, j, "peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));
  json::kv(out, j, "attempted", first.attempted);
  json::kv(out, j, "failed", first.failed);
  j.item();
  out += "\"failures\":[";
  for (std::size_t i = 0; i < first.failures.size(); ++i)
    out += (i ? ",\"" : "\"") + json::escape(first.failures[i]) + '"';
  out += ']';
  json::kv(out, j, "stable", stable);
  j.item();
  out += "\"check\":" + first.check;
  j.item();
  out += "\"campaign\":" + first.campaign;
  if (traced) {
    const Recorder& rec = recorder();
    std::string spans = "{";
    json::Joiner sj(spans);
    for (std::size_t i = 0; i < kSpanCount; ++i) {
      const SpanStats& s = rec.spans[i];
      sj.item();
      spans += std::string("\"") + kSpanNames[i] + "\":{\"count\":" + std::to_string(s.count) +
               ",\"total_ns\":" + std::to_string(s.total_ns) +
               ",\"self_ns\":" + std::to_string(s.self_ns) + '}';
    }
    const Counters& c = rec.counters;
    std::string counters = "{";
    json::Joiner kj(counters);
    json::kv(counters, kj, "mmc_checks", c.mmc_checks);
    json::kv(counters, kj, "umpu_denies", c.umpu_denies);
    json::kv(counters, kj, "verify_rejects", c.verify_rejects);
    json::kv(counters, kj, "dispatches", c.dispatches);
    json::kv(counters, kj, "dispatch_faults", c.dispatch_faults);
    json::kv(counters, kj, "flash_programs", c.flash_programs);
    json::kv(counters, kj, "flash_erases", c.flash_erases);
    json::kv(counters, kj, "store_installs", c.store_installs);
    json::kv(counters, kj, "ring_accepted", c.ring_accepted);
    json::kv(counters, kj, "ring_dropped", c.ring_dropped);
    j.item();
    out += "\"traced\":{\"reps\":" + std::to_string(reps.size()) + ",\"spans\":" + spans +
           "},\"counters\":" + counters + "},\"unit_ns\":" + u64_list(dists.unit_ns) +
           ",\"checkpoint_ns\":" + u64_list(dists.checkpoint_ns) +
           ",\"probe\":" + (probe.empty() ? std::string("null") : probe) + '}';
  }
  out += '}';
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const char* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  int reps = 0;  // > 0: run exactly this many campaigns (recording outputs)
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return perfbench::usage();
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(v);
    else if (a == "--reps") reps = std::atoi(v);
    else return perfbench::usage();
  }
  if (!workload || seconds <= 0 || reps < 0) return perfbench::usage();
  for (const perfbench::Workload& w : perfbench::kWorkloads)
    if (std::string(w.name) == workload) {
      try {
        return perfbench::run(w, seed, seconds, reps);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench-runner: %s\n", e.what());
        return 1;
      }
    }
  return perfbench::usage();
}

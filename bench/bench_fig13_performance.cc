// Fig. 13 — Application performance of sparse gradient aggregation under
// five device configurations: (1) no programmable device (DPDK server
// only), (2) smartNICs only (sparse compression), (3) one Tofino switch
// (aggregation), (4) two Tofino switches (larger parameter vectors),
// (5) smartNIC + switch (compression + aggregation).
//
// Absolute numbers are emulated (DESIGN.md substitution); the claim under
// test is the *ordering* and approximate factors of Fig. 13(a)/(b).
//
// The second half measures the emulator's execution substrate itself:
// packets/sec of the reference switch interpreter vs the precompiled
// ExecPlan (single-packet and batched) on the Fig. 13 application
// programs. Results are written to BENCH_fig13.json (schema:
// docs/benchmarks.md). Set CLICKINC_BENCH_SMOKE=1 for a fast CI run that
// keeps the JSON schema exercised.
#include <chrono>
#include <cstdlib>

#include "apps/workloads.h"
#include "bench_util.h"
#include "core/service.h"
#include "ir/exec_plan.h"
#include "modules/templates.h"
#include "topo/topology.h"
#include "util/thread_pool.h"

namespace clickinc {
namespace {

using topo::Node;
using topo::NodeKind;
using topo::Topology;

// workers --[NIC?]-- switch chain --- server. With workers_split, workers
// are spread evenly over the chain's switches (the paper's case-4 testbed
// wiring: two interconnected switches, each fronting half the NICs).
Topology configTopology(int workers, bool smartnic, int switches,
                        bool programmable_switch, bool workers_split) {
  Topology t;
  std::vector<int> sw;
  for (int i = 0; i < switches; ++i) {
    Node s;
    s.name = cat("sw", i);
    s.kind = NodeKind::kSwitch;
    s.layer = 1;
    s.programmable = programmable_switch;
    s.model = device::makeTofino();
    sw.push_back(t.addNode(s));
    if (i > 0) t.addLink(sw[static_cast<std::size_t>(i) - 1], sw.back());
  }
  for (int w = 0; w < workers; ++w) {
    const int attach = workers_split
                           ? sw[static_cast<std::size_t>(
                                 w / (workers / switches))]
                           : sw.front();
    Node h;
    h.name = cat("worker", w);
    h.kind = NodeKind::kHost;
    h.pod = workers_split ? w / (workers / switches) : 0;
    const int hid = t.addNode(h);
    if (smartnic) {
      Node nic;
      nic.name = cat("nic", w);
      nic.kind = NodeKind::kNic;
      nic.pod = 0;
      nic.programmable = true;
      nic.model = device::makeNfp();
      const int nid = t.addNode(nic);
      t.addLink(hid, nid, 100.0, 600.0);
      t.addLink(nid, attach);
    } else {
      t.addLink(hid, attach);
    }
  }
  Node server;
  server.name = "server";
  server.kind = NodeKind::kHost;
  server.pod = 1;
  const int sid = t.addNode(server);
  t.addLink(sw.back(), sid);
  return t;
}

struct ConfigRun {
  const char* label;
  bool smartnic;
  int switches;
  bool prog_switch;
  bool use_sparse;
  bool use_mlagg;
  int dim;
  int groups;          // hierarchical aggregation subgroups
  bool workers_split;  // workers spread over the switch chain
};

struct ConfigResult {
  std::string label;
  bool deployed = false;
  std::string failure;
  double goodput_gbps = 0;
  double inc_latency_ns = 0;
  std::uint64_t inc_aggregated = 0;
  std::uint64_t rounds_done = 0;
  double server_link_mb = 0;
};

// --- interpreter fast-path microbench (packets/sec) ---

struct InterpResult {
  std::string name;
  std::size_t instrs = 0;
  std::size_t packets = 0;
  double median_reference_pps = 0;
  double median_plan_pps = 0;
  double median_batch_pps = 0;
  double speedup_plan = 0;   // plan (per-packet) vs reference
  double speedup_batch = 0;  // runBatch vs reference
  bool equivalent = false;   // spot-check: plan output == reference output
};

std::vector<ir::PacketView> makePackets(const ir::IrProgram& prog,
                                        std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ir::PacketView> pkts;
  pkts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ir::PacketView pkt;
    pkt.user_id = 1;
    for (const auto& f : prog.fields) {
      pkt.setField(f.name, rng.nextBelow(1u << 16));
    }
    pkts.push_back(std::move(pkt));
  }
  return pkts;
}

// --- emulator execution fast path (end-to-end packets/sec) ---
//
// The seed emulator re-copied every deployed instruction segment (operand
// strings included) and re-decoded it per packet; that code is retained
// verbatim as the reference path (setReferenceInterpreter). This measures
// what the fast path buys end to end: deploy the program on one emulated
// Tofino and push packets through Emulator::send / sendBurst.
struct EmuPathResult {
  std::string name;
  std::size_t instrs = 0;
  std::size_t fused_pairs = 0;   // superinstruction pairs in the plan
  std::size_t packets = 0;
  double median_reference_pps = 0;  // reference interpreter, send()
  double median_compiled_pps = 0;   // unfused plans, send() (PR 2 path)
  double median_fused_pps = 0;      // fused plans, send()
  double median_burst_pps = 0;      // unfused plans, sendBurst() (PR 2)
  double median_burst_fused_pps = 0;  // fused plans, sendBurst()
  double speedup_compiled = 0;
  double speedup_burst = 0;
  double speedup_fusion = 0;  // fused burst vs unfused burst (PR 2 best)
};

EmuPathResult measureEmuPath(const std::string& name,
                             const ir::IrProgram& prog,
                             std::size_t npackets, int reps) {
  EmuPathResult r;
  r.name = name;
  r.instrs = prog.instrs.size();
  r.fused_pairs = ir::ExecPlan::compile(prog, {.fuse = true}).fusedPairs();
  r.packets = npackets;

  auto topo = topo::Topology::chain({device::makeTofino()});
  const int client = topo.findNode("client");
  const int server = topo.findNode("server");
  const int dev = topo.findNode("d0");
  auto shared = std::make_shared<ir::IrProgram>(prog);
  std::vector<int> idxs(prog.instrs.size());
  for (std::size_t i = 0; i < idxs.size(); ++i) idxs[i] = static_cast<int>(i);

  const auto base = makePackets(prog, npackets, 0xE13);

  // reference = retained seed path; the fuse knob sweeps the
  // superinstruction peephole on the compiled plans.
  auto timeMode = [&](bool reference, bool fuse, bool burst) {
    emu::Emulator emu(&topo, 7);
    emu.setOptions({.fuse_plans = fuse});
    emu.setReferenceInterpreter(reference);
    emu::DeploymentEntry entry;
    entry.user_id = 1;
    entry.prog = shared;
    entry.instr_idxs = idxs;
    entry.step_from = 0;
    entry.step_to = 1;
    emu.deploy(dev, entry);
    auto views = base;
    const auto t0 = std::chrono::steady_clock::now();
    if (burst) {
      // Bounded bursts (a switch drains its rx queue), so the in-flight
      // set stays cache-resident.
      constexpr std::size_t kBurst = 256;
      for (std::size_t at = 0; at < views.size(); at += kBurst) {
        const std::size_t n = std::min(kBurst, views.size() - at);
        std::vector<ir::PacketView> one(
            std::make_move_iterator(views.begin() +
                                    static_cast<std::ptrdiff_t>(at)),
            std::make_move_iterator(views.begin() +
                                    static_cast<std::ptrdiff_t>(at + n)));
        emu.sendBurst(client, server, std::move(one), 100, 100);
      }
    } else {
      for (auto& view : views) {
        emu.send(client, server, std::move(view), 100, 100);
      }
    }
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return s > 0 ? static_cast<double>(npackets) / s : 0.0;
  };

  std::vector<double> ref_pps, compiled_pps, fused_pps, burst_pps,
      burst_fused_pps;
  for (int rep = 0; rep < reps; ++rep) {
    ref_pps.push_back(timeMode(true, false, false));
    compiled_pps.push_back(timeMode(false, false, false));
    fused_pps.push_back(timeMode(false, true, false));
    burst_pps.push_back(timeMode(false, false, true));
    burst_fused_pps.push_back(timeMode(false, true, true));
  }
  r.median_reference_pps = bench::medianOf(ref_pps);
  r.median_compiled_pps = bench::medianOf(compiled_pps);
  r.median_fused_pps = bench::medianOf(fused_pps);
  r.median_burst_pps = bench::medianOf(burst_pps);
  r.median_burst_fused_pps = bench::medianOf(burst_fused_pps);
  r.speedup_compiled = r.median_reference_pps > 0
                           ? r.median_compiled_pps / r.median_reference_pps
                           : 0;
  r.speedup_burst = r.median_reference_pps > 0
                        ? r.median_burst_pps / r.median_reference_pps
                        : 0;
  r.speedup_fusion = r.median_burst_pps > 0
                         ? r.median_burst_fused_pps / r.median_burst_pps
                         : 0;
  return r;
}

bool samePacket(const ir::PacketView& a, const ir::PacketView& b) {
  return a.params == b.params && a.fields == b.fields &&
         a.verdict == b.verdict && a.mirrored == b.mirrored &&
         a.cpu_copied == b.cpu_copied;
}

InterpResult measureInterp(const std::string& name,
                           const ir::IrProgram& prog, std::size_t npackets,
                           int reps) {
  InterpResult r;
  r.name = name;
  r.instrs = prog.instrs.size();
  r.packets = npackets;
  const auto base = makePackets(prog, npackets, 0xF13);
  const ir::ExecPlan plan = ir::ExecPlan::compile(prog);

  auto timePps = [&](auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return s > 0 ? static_cast<double>(npackets) / s : 0.0;
  };

  std::vector<double> ref_pps, plan_pps, batch_pps;
  std::vector<ir::PacketView> ref_out, plan_out, batch_out;
  for (int rep = 0; rep < reps; ++rep) {
    {
      auto pkts = base;
      ir::StateStore store;
      Rng rng(1);
      ir::Interpreter interp(&store, &rng);
      ref_pps.push_back(timePps([&] {
        for (auto& pkt : pkts) interp.runAll(prog, pkt);
      }));
      if (rep == 0) ref_out = std::move(pkts);
    }
    {
      auto pkts = base;
      ir::StateStore store;
      Rng rng(1);
      plan_pps.push_back(timePps([&] {
        for (auto& pkt : pkts) plan.run(&store, &rng, pkt);
      }));
      if (rep == 0) plan_out = std::move(pkts);
    }
    {
      auto pkts = base;
      ir::StateStore store;
      Rng rng(1);
      batch_pps.push_back(timePps([&] {
        plan.runBatch(&store, &rng, std::span<ir::PacketView>(pkts));
      }));
      if (rep == 0) batch_out = std::move(pkts);
    }
  }

  r.equivalent = true;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (!samePacket(ref_out[i], plan_out[i]) ||
        !samePacket(ref_out[i], batch_out[i])) {
      r.equivalent = false;
      break;
    }
  }
  r.median_reference_pps = bench::medianOf(ref_pps);
  r.median_plan_pps = bench::medianOf(plan_pps);
  r.median_batch_pps = bench::medianOf(batch_pps);
  r.speedup_plan = r.median_reference_pps > 0
                       ? r.median_plan_pps / r.median_reference_pps
                       : 0;
  r.speedup_batch = r.median_reference_pps > 0
                        ? r.median_batch_pps / r.median_reference_pps
                        : 0;
  return r;
}

}  // namespace
}  // namespace clickinc

int main() {
  using namespace clickinc;
  const bool smoke = std::getenv("CLICKINC_BENCH_SMOKE") != nullptr;
  bench::printHeader(
      "Fig. 13 — sparse MLAgg goodput and INC latency across device mixes",
      "Emulated reproduction; compare ordering/shape with the paper, not "
      "absolute Gbps.\nPaper shape: DPDK < SmartNIC < 1 Switch < 2 Switches "
      "< 1 Switch+SmartNIC (goodput);\nSmartNIC adds the highest INC "
      "latency, switches the lowest.");

  const ConfigRun configs[] = {
      {"DPDK (no INC)", false, 1, false, false, false, 16, 1, false},
      {"SmartNIC", true, 1, false, true, false, 16, 1, false},
      {"1 Switch", false, 1, true, false, true, 16, 1, false},
      // Case 4: two interconnected switches, each fronting half the
      // workers; the vector doubles and each switch aggregates its local
      // subgroup (hierarchical, ATP-style).
      {"2 Switches", false, 2, true, false, true, 32, 2, true},
      {"1 Switch+SmartNIC", true, 1, true, true, true, 32, 1, false},
  };

  TextTable table({"configuration", "goodput (Gbps)", "INC latency (ns)",
                   "rounds in-network", "server-link MB"});
  const int workers = 4;
  const int rounds = smoke ? 20 : 200;
  std::vector<ConfigResult> config_results;

  for (const auto& cfg : configs) {
    auto topo = configTopology(workers, cfg.smartnic, cfg.switches,
                               cfg.prog_switch, cfg.workers_split);
    core::ClickIncService svc(std::move(topo));

    apps::MlaggConfig run;
    for (int w = 0; w < workers; ++w) {
      run.worker_hosts.push_back(svc.topology().findNode(cat("worker", w)));
    }
    run.server_host = svc.topology().findNode("server");
    run.rounds = rounds;
    run.dim = cfg.dim;
    run.block_size = 4;
    run.sparsity = 0.5;
    run.use_sparse = cfg.use_sparse;
    run.use_mlagg = cfg.use_mlagg;
    run.num_agg = 512;
    run.worker_groups = cfg.groups;
    run.check_overflow = false;  // workers pre-scale gradients (DESIGN.md)

    const auto r = apps::runMlagg(svc, run);
    ConfigResult cr;
    cr.label = cfg.label;
    cr.deployed = r.deployed;
    if (!r.deployed) {
      cr.failure = r.failure;
      config_results.push_back(cr);
      table.addRow({cfg.label, "placement failed: " + r.failure, "-", "-",
                    "-"});
      continue;
    }
    cr.goodput_gbps = r.goodput_gbps;
    cr.inc_latency_ns = r.avg_inc_latency_ns;
    cr.inc_aggregated = r.inc_aggregated;
    cr.rounds_done = r.rounds_done;
    cr.server_link_mb = r.server_link_bytes / 1e6;
    config_results.push_back(cr);
    table.addRow({cfg.label, fmtDouble(r.goodput_gbps, 2),
                  fmtDouble(r.avg_inc_latency_ns, 0),
                  cat(r.inc_aggregated, "/", r.rounds_done),
                  fmtDouble(r.server_link_bytes / 1e6, 3)});
  }
  bench::printTable(table);

  // Interpreter fast path: the same application programs, executed as raw
  // packet streams through the reference switch interpreter vs the
  // precompiled ExecPlan (per-packet and batched). The largest Fig. 13
  // workload is the dim-32 MLAgg program of cases 4/5.
  bench::printHeader(
      "Interpreter fast path — precompiled ExecPlan vs reference switch",
      "Median packets/sec over repeated runs; plans are bit-identical to "
      "the reference (ExecPlan equivalence tests + in-run spot check).");

  const std::size_t npackets = smoke ? 500 : 20000;
  const int reps = smoke ? 3 : 7;
  modules::ModuleLibrary lib;
  std::vector<std::pair<std::string, ir::IrProgram>> programs;
  programs.emplace_back(
      "mlagg_dim4",
      lib.compileTemplate("MLAgg", "agg_s", {{"NumAgg", 128},
                                             {"Dim", 4},
                                             {"NumWorker", 2},
                                             {"IsConvert", 0}}));
  programs.emplace_back(
      "mlagg_dim32_largest_fig13",
      lib.compileTemplate("MLAgg", "agg_l", {{"NumAgg", 512},
                                             {"Dim", 32},
                                             {"NumWorker", 2},
                                             {"IsConvert", 0}}));
  programs.emplace_back(
      "kvs", lib.compileTemplate(
                 "KVS", "kvs",
                 {{"CacheSize", 100000}, {"ValDim", 4}, {"TH", 64}}));
  programs.emplace_back(
      "dqacc", lib.compileTemplate("DQAcc", "dq",
                                   {{"CacheDepth", 1024}, {"CacheLen", 4}}));

  std::vector<InterpResult> interp_results;
  for (const auto& [name, prog] : programs) {
    interp_results.push_back(measureInterp(name, prog, npackets, reps));
  }

  TextTable interp_table({"workload", "instrs", "reference (pkt/s)",
                          "plan (pkt/s)", "batch (pkt/s)", "speedup",
                          "batch speedup", "identical"});
  for (const auto& r : interp_results) {
    interp_table.addRow(
        {r.name, cat(r.instrs), fmtDouble(r.median_reference_pps, 0),
         fmtDouble(r.median_plan_pps, 0), fmtDouble(r.median_batch_pps, 0),
         cat(fmtDouble(r.speedup_plan, 2), "x"),
         cat(fmtDouble(r.speedup_batch, 2), "x"),
         r.equivalent ? "yes" : "NO"});
  }
  bench::printTable(interp_table);

  // End-to-end emulator execution: the retained reference path re-copies
  // and re-decodes the deployed segment per packet (the seed behavior);
  // the fast path runs precompiled plans, optionally fused (the
  // superinstruction peephole) and batched.
  bench::printHeader(
      "Emulator execution fast path — compiled plans, fusion sweep, "
      "batched sends",
      "Packets/sec through Emulator::send/sendBurst with the program "
      "deployed on one emulated Tofino.\nReference = retained seed path "
      "(per-packet segment copy + switch interpreter); compiled/burst = "
      "the PR 2 unfused plans;\nfused = superinstruction peephole on "
      "(bit-identical, fewer dispatches).");

  std::vector<EmuPathResult> emu_results;
  for (const auto& [name, prog] : programs) {
    emu_results.push_back(measureEmuPath(name, prog, npackets, reps));
  }
  TextTable emu_table({"workload", "instrs", "fused pairs",
                       "reference (pkt/s)", "compiled (pkt/s)",
                       "fused (pkt/s)", "burst (pkt/s)",
                       "fused burst (pkt/s)", "burst speedup",
                       "fusion speedup"});
  for (const auto& r : emu_results) {
    emu_table.addRow(
        {r.name, cat(r.instrs), cat(r.fused_pairs),
         fmtDouble(r.median_reference_pps, 0),
         fmtDouble(r.median_compiled_pps, 0),
         fmtDouble(r.median_fused_pps, 0),
         fmtDouble(r.median_burst_pps, 0),
         fmtDouble(r.median_burst_fused_pps, 0),
         cat(fmtDouble(r.speedup_burst, 2), "x"),
         cat(fmtDouble(r.speedup_fusion, 2), "x")});
  }
  bench::printTable(emu_table);

  // Machine-readable trajectory record (schema: docs/benchmarks.md).
  bench::JsonWriter json;
  json.beginObject();
  json.kv("bench", "fig13_performance");
  json.kv("hardware_threads", util::ThreadPool::hardwareConcurrency());
  bench::writeHostObject(json, 1);  // no worker pool in this bench
  json.kv("smoke", smoke);
  json.kv("rounds", rounds);
  json.key("configs").beginArray();
  for (const auto& c : config_results) {
    json.beginObject();
    json.kv("label", c.label);
    json.kv("deployed", c.deployed);
    if (!c.deployed) {
      json.kv("failure", c.failure);
    } else {
      json.kv("goodput_gbps", c.goodput_gbps);
      json.kv("inc_latency_ns", c.inc_latency_ns);
      json.kv("rounds_in_network", static_cast<long>(c.inc_aggregated));
      json.kv("rounds_done", static_cast<long>(c.rounds_done));
      json.kv("server_link_mb", c.server_link_mb);
    }
    json.endObject();
  }
  json.endArray();
  json.key("interpreter").beginObject();
  json.kv("packets", static_cast<long>(npackets));
  json.kv("reps", reps);
  json.key("workloads").beginArray();
  for (const auto& r : interp_results) {
    json.beginObject();
    json.kv("name", r.name);
    json.kv("instrs", static_cast<long>(r.instrs));
    json.kv("median_reference_pps", r.median_reference_pps);
    json.kv("median_plan_pps", r.median_plan_pps);
    json.kv("median_batch_pps", r.median_batch_pps);
    json.kv("speedup_plan", r.speedup_plan);
    json.kv("speedup_batch", r.speedup_batch);
    json.kv("equivalent", r.equivalent);
    json.endObject();
  }
  json.endArray();
  json.endObject();
  json.key("emulator").beginObject();
  json.kv("packets", static_cast<long>(npackets));
  json.kv("reps", reps);
  json.key("workloads").beginArray();
  for (const auto& r : emu_results) {
    json.beginObject();
    json.kv("name", r.name);
    json.kv("instrs", static_cast<long>(r.instrs));
    json.kv("fused_pairs", static_cast<long>(r.fused_pairs));
    json.kv("median_reference_pps", r.median_reference_pps);
    json.kv("median_compiled_pps", r.median_compiled_pps);
    json.kv("median_fused_pps", r.median_fused_pps);
    json.kv("median_burst_pps", r.median_burst_pps);
    json.kv("median_burst_fused_pps", r.median_burst_fused_pps);
    json.kv("speedup_compiled", r.speedup_compiled);
    json.kv("speedup_burst", r.speedup_burst);
    json.kv("speedup_fusion", r.speedup_fusion);
    json.endObject();
  }
  json.endArray();
  json.endObject();
  json.endObject();
  if (json.writeFile("BENCH_fig13.json")) {
    std::printf("wrote BENCH_fig13.json\n");
  } else {
    std::printf("WARNING: could not write BENCH_fig13.json\n");
  }
  return 0;
}

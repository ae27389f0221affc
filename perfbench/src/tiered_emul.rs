//! `tiered_emul`: the §VI-C path.
//!
//! TMP + History + `PageMover` run on the 1:15 NVM-emulation machine with
//! long epochs and the default budgeted A-bit scans. One machine runs a
//! churn-heavy tenant (GUPS) next to a stable-hot-set tenant
//! (Graph-Analytics). Op execution and migration dominate host time; the
//! profilers and the epoch close are a few percent.
//!
//! Output check: the benchmark's composed loop, which times each layer
//! call, must give the same `EmulRunResult` as
//! `tmprof_emul::experiment::run_emulated` for the same seed.

use tmprof_core::profiler::{Tmp, TmpConfig};
use tmprof_core::rank::RankSource;
use tmprof_emul::emulator::{EmulConfig, NvmEmulator};
use tmprof_emul::experiment::{emulation_machine, run_emulated, EmulPolicy, EmulRunResult};
use tmprof_policy::hitrate::{replay_hitrate, ReplayEpoch, ReplayLog, ReplayPolicy};
use tmprof_policy::mover::{MoverConfig, PageMover};
use tmprof_policy::policies::{HistoryPolicy, PlacementPolicy};
use tmprof_sim::counters::EventCounts;
use tmprof_sim::machine::Machine;
use tmprof_sim::runner::{OpStream, Runner};
use tmprof_sim::tier::Tier;
use tmprof_sim::tlb::Pid;
use tmprof_workloads::spec::{WorkloadConfig, WorkloadKind};

use crate::common::{drain, streams, sub_seed, Round, Sim, Workload};
use crate::span::{now, Tracer};

/// `(kind, footprint pages)`, one process each.
const TENANTS: [(WorkloadKind, u64); 2] = [
    (WorkloadKind::Gups, 16_384),
    (WorkloadKind::GraphAnalytics, 8_192),
];
const CORES: usize = 2;
const EPOCHS: u32 = 12;
/// Long epochs: ops per process per epoch.
const OPS_PER_EPOCH: u64 = 1 << 19;
/// The default scale's base IBS period; the machine samples at a quarter
/// of it, as the §VI-C experiment binary does.
const BASE_PERIOD: u64 = 4096;

fn spawn(seed: u64) -> Vec<Box<dyn OpStream + Send>> {
    TENANTS
        .iter()
        .flat_map(|&(kind, pages)| {
            WorkloadConfig {
                kind,
                processes: 1,
                footprint_pages: pages,
                seed: sub_seed(seed, kind as u64),
            }
            .spawn()
        })
        .collect()
}

/// Tier frames: slow tier 1.5x the footprint, fast tier 1/15 of that.
fn frames() -> (u64, u64) {
    let total: u64 = TENANTS.iter().map(|t| t.1).sum();
    let t2 = total * 3 / 2;
    (t2 / 15, t2)
}

fn machine(tr: &mut Tracer) -> Machine {
    let (t1, t2) = frames();
    let s = tr.begin("sim.machine_new");
    let m = emulation_machine(CORES, t1, t2, BASE_PERIOD / 4);
    tr.end(s);
    m
}

pub struct TieredEmul {
    seed: u64,
    reference: EmulRunResult,
}

impl TieredEmul {
    pub fn new(seed: u64) -> Self {
        let mut machine = machine(&mut Tracer::new());
        let mut gens = spawn(seed);
        let pids: Vec<Pid> = (1..=gens.len() as Pid).collect();
        for &pid in &pids {
            machine.add_process(pid);
        }
        let reference = run_emulated(
            &mut machine,
            &mut streams(&pids, &mut gens),
            EmulPolicy::TmpHistory,
            EmulConfig::default(),
            TmpConfig::paper_defaults(BASE_PERIOD),
            EPOCHS,
            OPS_PER_EPOCH,
        );
        Self { seed, reference }
    }
}

impl Workload for TieredEmul {
    fn config(&self) -> String {
        let (t1, t2) = frames();
        format!(
            "tenants={TENANTS:?} cores={CORES} epochs={EPOCHS} ops_per_process_per_epoch={OPS_PER_EPOCH} \
             tier_frames={t1}:{t2} ibs_base_period={BASE_PERIOD} machine_period={} abit=default-budget \
             emul={:?}",
            BASE_PERIOD / 4,
            EmulConfig::default()
        )
    }

    fn round(&mut self, tr: &mut Tracer) -> Round {
        let snap = tmprof_obs::metrics::Snapshot::take();
        let t0 = now();
        let mut machine = machine(tr);
        let s = tr.begin("workloads.spawn");
        let mut gens = spawn(self.seed);
        tr.end(s);
        let pids: Vec<Pid> = (1..=gens.len() as Pid).collect();
        for &pid in &pids {
            machine.add_process(pid);
        }
        let emul_cfg = EmulConfig::default();
        let s = tr.begin("emul.new");
        let (mut emu, handler) = NvmEmulator::new(emul_cfg);
        machine.set_fault_policy(Some(handler));
        tr.end(s);
        let s = tr.begin("core.tmp_new");
        let mut tmp = Tmp::new(TmpConfig::paper_defaults(BASE_PERIOD), &mut machine);
        tr.end(s);
        let mut history = HistoryPolicy::new(RankSource::Combined);
        let mut mover = PageMover::new(MoverConfig {
            per_page_cycles: emul_cfg.migration_cycles(),
        });
        let capacity = machine.memory().spec(Tier::Tier1).frames as usize;
        let t1 = now();

        let mut sim = Sim::default();
        let mut log = ReplayLog::default();
        let mut epoch_ms = Vec::with_capacity(EPOCHS as usize);
        let mut warm = EventCounts::default();
        for e in 0..EPOCHS {
            let te = now();
            let ep = tr.begin("bench.epoch");
            let s = tr.begin("sim.exec");
            Runner::new(streams(&pids, &mut gens)).run(&mut machine, OPS_PER_EPOCH);
            tr.end(s);
            let s = tr.begin("profilers.trace_drain");
            let tracked = tmp.begin_epoch_close(&mut machine);
            tr.end(s);
            for pid in tracked {
                let s = tr.begin("profilers.abit_scan");
                tmp.scan_epoch_pid(&mut machine, pid);
                tr.end(s);
            }
            let s = tr.begin("core.close");
            let report = tmp.finish_epoch_close(&mut machine);
            tr.end(s);
            let s = tr.begin("policy.select");
            let placement = history.select(&report.profile, capacity);
            tr.end(s);
            let s = tr.begin("emul.set_hot");
            emu.set_hot_pages(placement.tier1_pages.iter().copied());
            tr.end(s);
            let s = tr.begin("policy.mover");
            let moves = mover.apply(&mut machine, &placement);
            tr.end(s);
            let s = tr.begin("emul.protect");
            sim.pages_protected += emu.protect_slow_pages(&mut machine) as u64;
            tr.end(s);
            sim.migration_cycles += moves.cycles;
            sim.add_profile(&report.profile);
            log.epochs.push(ReplayEpoch {
                profile: report.profile,
                truth_mem: report.truth.mem_accesses,
            });
            tr.end(ep);
            epoch_ms.push((now() - te) * 1e3);
            if e == 0 {
                warm = machine.aggregate_counts();
            }
        }
        let t2 = now();

        let counts = machine.aggregate_counts();
        let totals = mover.totals();
        log.first_touch_order = machine.first_touch_order().to_vec();
        sim.ops = OPS_PER_EPOCH * EPOCHS as u64 * pids.len() as u64;
        sim.counts = counts;
        sim.steady = counts.delta_since(&warm);
        let s = tr.begin("policy.replay");
        sim.replay_hitrate =
            replay_hitrate(&log, ReplayPolicy::History, RankSource::Combined, capacity);
        tr.end(s);
        sim.add_tmp(&tmp);
        sim.pages_moved = totals.promoted + totals.demoted;
        sim.slow_faults = emu.slow_faults();
        sim.hot_faults = emu.hot_faults();
        sim.injected_cycles = emu.injected_cycles();
        let delta = tmprof_obs::metrics::Snapshot::take().delta_since(&snap);
        sim.shootdowns = delta.get(tmprof_obs::metrics::Metric::SimShootdowns);

        let r = &self.reference;
        let ok = counts.cycles == r.cycles
            && sim.slow_faults == r.slow_faults
            && sim.hot_faults == r.hot_faults
            && sim.pages_moved == r.migrations
            && counts.tier1_hitrate() == r.tier1_hitrate;

        if tr.enabled() {
            let mut gens = spawn(self.seed);
            let per = vec![OPS_PER_EPOCH * EPOCHS as u64; gens.len()];
            drain(tr, &mut gens, &per);
        }
        Round {
            setup_s: t1 - t0,
            run_s: t2 - t1,
            epoch_ms,
            sim,
            sched_stolen: 0,
            sched_queue_peak: 0,
            ok,
        }
    }
}

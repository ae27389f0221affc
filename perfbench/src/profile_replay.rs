//! `profile_replay`: the coverage path behind Table IV and Figs. 3–6.
//!
//! TMP with paper defaults profiles a DRAM-only machine with dense IBS
//! sampling, shootdown-free unbounded A-bit scans and short epochs. Two
//! large sparse footprints (the XSBench grid and the GUPS table) run next
//! to a hot-set service (Web-Serving). The round ends with the Fig. 6
//! replay of the recorded profiles. Here the profilers, the epoch close and
//! the replay do about half the host work and the mover does none.
//!
//! Output check: the staged close (`begin_epoch_close`, one
//! `scan_epoch_pid` per pid, `finish_epoch_close`) must publish the same
//! profile, epoch by epoch, as `Tmp::end_epoch` does in the reference pass.

use tmprof_core::profiler::{Tmp, TmpConfig};
use tmprof_core::rank::{EpochProfile, RankSource};
use tmprof_policy::hitrate::{
    hitrate_grid_with_workers, ReplayEpoch, ReplayLog, ReplayPolicy, PAPER_RATIOS,
};
use tmprof_profilers::abit::ABitConfig;
use tmprof_profilers::trace::TraceConfig;
use tmprof_sim::counters::EventCounts;
use tmprof_sim::machine::{Machine, MachineConfig};
use tmprof_sim::runner::{OpStream, Runner};
use tmprof_sim::tier::TieredMemory;
use tmprof_sim::tlb::Pid;
use tmprof_workloads::spec::{WorkloadConfig, WorkloadKind};

use crate::common::{drain, streams, sub_seed, Round, Sim, Workload};
use crate::span::{now, Tracer};

/// `(kind, processes, footprint pages per process)`.
const TENANTS: [(WorkloadKind, usize, u64); 3] = [
    (WorkloadKind::XsBench, 1, 65_536),
    (WorkloadKind::Gups, 2, 16_384),
    (WorkloadKind::WebServing, 2, 4_096),
];
const CORES: usize = 4;
const EPOCHS: u32 = 96;
/// Short epochs: ops per process per epoch.
const OPS_PER_EPOCH: u64 = 1 << 13;
/// Dense coverage sampling: the default scale's dense 1x period, run at
/// the paper's 4x rate.
const DENSE_PERIOD: u64 = 512;
const RATE: u64 = 4;
/// Fig. 6 capacity ratio reported as `replay_hitrate` (footprint / 16).
const REPLAY_RATIO: u32 = 16;

struct Setup {
    machine: Machine,
    tmp: Tmp,
    pids: Vec<Pid>,
    gens: Vec<Box<dyn OpStream + Send>>,
}

pub struct ProfileReplay {
    seed: u64,
    workers: usize,
    /// Per-epoch profile digests and final counters of the reference pass.
    reference: (Vec<u64>, EventCounts),
}

impl ProfileReplay {
    pub fn new(seed: u64, workers: usize) -> Self {
        let mut tr = Tracer::new();
        let mut s = setup(seed, &mut tr);
        let mut digests = Vec::new();
        for _ in 0..EPOCHS {
            Runner::new(streams(&s.pids, &mut s.gens)).run(&mut s.machine, OPS_PER_EPOCH);
            digests.push(digest(&s.tmp.end_epoch(&mut s.machine).profile));
        }
        let counts = s.machine.aggregate_counts();
        Self {
            seed,
            workers,
            reference: (digests, counts),
        }
    }
}

fn configs(seed: u64) -> Vec<WorkloadConfig> {
    TENANTS
        .iter()
        .map(|&(kind, procs, pages)| WorkloadConfig {
            kind,
            processes: procs,
            footprint_pages: pages,
            seed: sub_seed(seed, kind as u64),
        })
        .collect()
}

fn spawn(seed: u64) -> Vec<Box<dyn OpStream + Send>> {
    configs(seed).iter().flat_map(|c| c.spawn()).collect()
}

fn setup(seed: u64, tr: &mut Tracer) -> Setup {
    let total: u64 = configs(seed).iter().map(|c| c.total_pages()).sum();
    let frames = total * 3 / 2;
    let trace = TraceConfig::ibs(DENSE_PERIOD).at_rate(RATE);
    let s = tr.begin("sim.machine_new");
    let mut mc = MachineConfig::scaled(CORES, frames, 0, trace.period());
    mc.memory = TieredMemory::with_frames(frames, 0);
    let mut machine = Machine::new(mc);
    tr.end(s);
    let s = tr.begin("workloads.spawn");
    let gens = spawn(seed);
    tr.end(s);
    let pids: Vec<Pid> = (1..=gens.len() as Pid).collect();
    for &pid in &pids {
        machine.add_process(pid);
    }
    let cfg = TmpConfig {
        trace,
        abit: ABitConfig::unbounded(),
        ..TmpConfig::paper_defaults(DENSE_PERIOD)
    };
    let s = tr.begin("core.tmp_new");
    let tmp = Tmp::new(cfg, &mut machine);
    tr.end(s);
    Setup {
        machine,
        tmp,
        pids,
        gens,
    }
}

impl Workload for ProfileReplay {
    fn config(&self) -> String {
        format!(
            "tenants={TENANTS:?} cores={CORES} epochs={EPOCHS} ops_per_process_per_epoch={OPS_PER_EPOCH} \
             ibs_period={DENSE_PERIOD}/{RATE} abit=unbounded replay_ratios={PAPER_RATIOS:?} \
             replay_workers={}",
            self.workers
        )
    }

    fn round(&mut self, tr: &mut Tracer) -> Round {
        let snap = tmprof_obs::metrics::Snapshot::take();
        let t0 = now();
        let Setup {
            mut machine,
            mut tmp,
            pids,
            mut gens,
        } = setup(self.seed, tr);
        let t1 = now();

        let mut log = ReplayLog::default();
        let mut epoch_ms = Vec::with_capacity(EPOCHS as usize);
        let mut warm = EventCounts::default();
        let mut sim = Sim::default();
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
        log.first_touch_order = machine.first_touch_order().to_vec();
        let s = tr.begin("policy.replay");
        let grid = hitrate_grid_with_workers(&log, &PAPER_RATIOS, Some(self.workers));
        tr.end(s);
        let t2 = now();

        let counts = machine.aggregate_counts();
        sim.ops = OPS_PER_EPOCH * EPOCHS as u64 * pids.len() as u64;
        sim.counts = counts;
        sim.steady = counts.delta_since(&warm);
        sim.replay_hitrate = grid
            .iter()
            .find(|c| {
                c.policy == ReplayPolicy::History
                    && c.source == RankSource::Combined
                    && c.ratio_denominator == REPLAY_RATIO
            })
            .map_or(f64::NAN, |c| c.hitrate);
        sim.add_tmp(&tmp);
        let delta = tmprof_obs::metrics::Snapshot::take().delta_since(&snap);
        sim.shootdowns = delta.get(tmprof_obs::metrics::Metric::SimShootdowns);

        let (ref_digests, ref_counts) = &self.reference;
        let ok = log.epochs.len() == ref_digests.len()
            && log
                .epochs
                .iter()
                .zip(ref_digests)
                .all(|(e, &d)| digest(&e.profile) == d)
            && counts == *ref_counts
            && grid.len() == PAPER_RATIOS.len() * 7
            && sim.replay_hitrate.is_finite();

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

/// Order-independent digest of a published epoch profile.
fn digest(profile: &EpochProfile) -> u64 {
    let mut h = Fnv::default();
    for map in [&profile.abit, &profile.trace, &profile.devsketch] {
        let mut entries: Vec<(u64, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        h.word(entries.len() as u64);
        for (k, v) in entries {
            h.word(k);
            h.word(v);
        }
    }
    h.0
}

/// 64-bit FNV-1a over words.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

//! `fleet_churn`: a churning multi-tenant fleet on the work-stealing
//! scheduler.
//!
//! `FleetScenario::churn` tenants run as one shard each under
//! `FleetRunner` with two workers, a scan-unit carve budget and per-tenant
//! admission quotas. This is the only workload where `core::sched` and
//! shard set-up do real work, and where the mover runs throttled by
//! admission.
//!
//! Output check: the two-worker `FleetReport` decisions, pages moved and
//! pages rejected must equal the one-worker serial reference. The runner
//! hides its machines, so the benchmark also replays every shard serially
//! through the same public calls (`Runner::run`, the staged `Tmp` close,
//! `HistoryPolicy::select`, `PageMover::apply_with_admission`); that
//! replica must reproduce the reference decisions exactly, and supplies the
//! machine counters and the per-layer times.

use tmprof_core::profiler::{Tmp, TmpConfig};
use tmprof_core::rank::RankSource;
use tmprof_policy::admission::{AdmissionConfig, AdmissionControl};
use tmprof_policy::fleet::{FleetConfig, FleetReport, FleetRunner, FleetTenant, ShardEpoch};
use tmprof_policy::hitrate::{replay_hitrate, ReplayEpoch, ReplayLog, ReplayPolicy};
use tmprof_policy::mover::PageMover;
use tmprof_policy::policies::{HistoryPolicy, PlacementPolicy};
use tmprof_sim::machine::{Machine, MachineConfig};
use tmprof_sim::runner::{OpStream, Runner};
use tmprof_sim::tier::Tier;
use tmprof_sim::tlb::Pid;
use tmprof_workloads::fleet::{FleetScenario, TenantPlan};

use crate::common::{drain, Round, Sim, Workload};
use crate::span::{now, Tracer};

const TENANTS: usize = 1_000;
const EPOCHS: u32 = 24;
/// Ops per active tenant per fleet epoch.
const OPS_PER_EPOCH: u64 = 1_000;
/// Carve each pid's A-bit scan into units of at most this many PTEs.
const SCAN_UNIT_PTES: u64 = 64;
/// Per-tenant, per-direction migration quota (pages per epoch).
const QUOTA: u64 = 8;
const BURST: u64 = 2;
/// Length of `ShardEpoch::hottest`, the ranking witness the runner keeps.
const HOTTEST_WITNESS: usize = 8;

fn config(workers: usize) -> FleetConfig {
    FleetConfig {
        epochs: EPOCHS,
        scan_unit_pte_budget: Some(SCAN_UNIT_PTES),
        admission: AdmissionConfig {
            promo_quota: Some(QUOTA),
            demo_quota: Some(QUOTA),
            burst: BURST,
        },
        ..FleetConfig::default()
    }
    .with_workers(workers)
}

fn plans(seed: u64) -> Vec<TenantPlan> {
    FleetScenario::churn(TENANTS, EPOCHS, seed).tenants
}

fn tenants(plans: &[TenantPlan]) -> Vec<FleetTenant> {
    plans
        .iter()
        .map(|p| FleetTenant {
            stream: p.spawn_stream(),
            ops: p.ops_plan(EPOCHS, OPS_PER_EPOCH),
        })
        .collect()
}

/// Build and run a fleet, timing each epoch. Returns the report, the
/// set-up seconds and the per-epoch milliseconds.
fn run_fleet(seed: u64, workers: usize, tr: &mut Tracer) -> (FleetReport, f64, Vec<f64>) {
    let t0 = now();
    let s = tr.begin("workloads.spawn");
    let tenants = tenants(&plans(seed));
    tr.end(s);
    let s = tr.begin("policy.fleet_new");
    let mut runner = FleetRunner::new(config(workers), tenants);
    tr.end(s);
    let setup = now() - t0;
    let mut epoch_ms = Vec::with_capacity(EPOCHS as usize);
    for _ in 0..EPOCHS {
        let te = now();
        let s = tr.begin("policy.fleet_epoch");
        runner.run_epoch();
        tr.end(s);
        epoch_ms.push((now() - te) * 1e3);
    }
    (runner.into_report(), setup, epoch_ms)
}

/// Replay every shard serially through the public layer calls, timing
/// each. Returns the shard decisions and the simulated results.
fn replica(seed: u64, tr: &mut Tracer) -> (Vec<Vec<ShardEpoch>>, Sim) {
    let cfg = config(1);
    let mut sim = Sim::default();
    let mut decisions = Vec::with_capacity(TENANTS);
    let (mut hits, mut accesses) = (0.0, 0u64);
    for plan in plans(seed) {
        let s = tr.begin("sim.machine_new");
        let mut machine = Machine::new(MachineConfig::scaled(
            1,
            cfg.tier1_frames,
            cfg.tier2_frames,
            cfg.ibs_period,
        ));
        tr.end(s);
        let pid: Pid = 1;
        machine.add_process(pid);
        let s = tr.begin("core.tmp_new");
        let mut tmp = Tmp::new(TmpConfig::paper_defaults(cfg.ibs_period), &mut machine);
        tr.end(s);
        let mut policy = HistoryPolicy::new(RankSource::Combined);
        let mut mover = PageMover::default();
        let mut admission = AdmissionControl::new(cfg.admission);
        let capacity = machine.memory().spec(Tier::Tier1).frames as usize;
        let mut stream = plan.spawn_stream();
        let mut log = ReplayLog::default();
        let mut epochs = Vec::with_capacity(EPOCHS as usize);
        let mut warm = Default::default();
        for (e, ops) in plan.ops_plan(EPOCHS, OPS_PER_EPOCH).into_iter().enumerate() {
            if ops > 0 {
                let s = tr.begin("sim.exec");
                Runner::new(vec![(pid, &mut *stream as &mut dyn OpStream)]).run(&mut machine, ops);
                tr.end(s);
                sim.ops += ops;
            }
            let s = tr.begin("profilers.trace_drain");
            let tracked = tmp.begin_epoch_close(&mut machine);
            tr.end(s);
            for p in tracked {
                let s = tr.begin("profilers.abit_scan");
                while tmp.scan_epoch_pid_unit(&mut machine, p, SCAN_UNIT_PTES) {}
                tr.end(s);
            }
            let s = tr.begin("core.close");
            let report = tmp.finish_epoch_close(&mut machine);
            tr.end(s);
            let s = tr.begin("policy.select");
            let placement = policy.select(&report.profile, capacity);
            tr.end(s);
            let s = tr.begin("policy.mover");
            let moves = mover.apply_with_admission(&mut machine, &placement, Some(&mut admission));
            tr.end(s);
            admission.refill_epoch();
            sim.add_profile(&report.profile);
            sim.migration_cycles += moves.cycles;
            epochs.push(ShardEpoch {
                epoch: report.epoch,
                nominated: placement.tier1_pages.len(),
                hottest: report
                    .profile
                    .top_k(RankSource::Combined, HOTTEST_WITNESS)
                    .iter()
                    .map(|r| r.key.pack())
                    .collect(),
                gate_trace: report.gate.trace_active,
                gate_abit: report.gate.abit_active,
                moves,
                admit_rejected: admission.take_rejections(),
            });
            log.epochs.push(ReplayEpoch {
                profile: report.profile,
                truth_mem: report.truth.mem_accesses,
            });
            if e == 0 {
                warm = machine.aggregate_counts();
            }
        }
        log.first_touch_order = machine.first_touch_order().to_vec();
        let total = log.total_accesses();
        let s = tr.begin("policy.replay");
        hits += replay_hitrate(&log, ReplayPolicy::History, RankSource::Combined, capacity)
            * total as f64;
        tr.end(s);
        accesses += total;
        let counts = machine.aggregate_counts();
        sim.counts.add(&counts);
        sim.steady.add(&counts.delta_since(&warm));
        sim.add_tmp(&tmp);
        let totals = mover.totals();
        sim.pages_moved += totals.promoted + totals.demoted;
        sim.admit_rejected += totals.admit_rejected;
        decisions.push(epochs);
    }
    sim.replay_hitrate = if accesses == 0 {
        f64::NAN
    } else {
        hits / accesses as f64
    };
    (decisions, sim)
}

pub struct FleetChurn {
    seed: u64,
    workers: usize,
    /// The one-worker run: the reference every round is checked against.
    reference: FleetReport,
    /// Host seconds of the reference run's epochs.
    serial_epochs_s: f64,
    /// Simulated results of the serial replica.
    sim: Sim,
    /// Whether the replica reproduced the reference decisions.
    replica_ok: bool,
    /// Host seconds of each round's epochs.
    round_epochs_s: Vec<f64>,
}

impl FleetChurn {
    pub fn new(seed: u64, workers: usize) -> Self {
        let mut tr = Tracer::new();
        let (reference, _, epoch_ms) = run_fleet(seed, 1, &mut tr);
        let (decisions, mut sim) = replica(seed, &mut tr);
        sim.sched_units = reference.units_executed();
        let replica_ok = decisions.as_slice() == reference.decisions()
            && sim.pages_moved == reference.pages_moved()
            && sim.admit_rejected == reference.pages_rejected();
        Self {
            seed,
            workers,
            serial_epochs_s: epoch_ms.iter().sum::<f64>() / 1e3,
            reference,
            sim,
            replica_ok,
            round_epochs_s: Vec::new(),
        }
    }
}

impl Workload for FleetChurn {
    fn config(&self) -> String {
        let c = config(self.workers);
        format!(
            "tenants={TENANTS} epochs={EPOCHS} ops_per_active_tenant_per_epoch={OPS_PER_EPOCH} \
             workers={} scan_unit_ptes={SCAN_UNIT_PTES} quota={QUOTA} burst={BURST} \
             tier_frames={}:{} ibs_period={}",
            c.workers, c.tier1_frames, c.tier2_frames, c.ibs_period
        )
    }

    fn round(&mut self, tr: &mut Tracer) -> Round {
        let t0 = now();
        let (report, setup_s, epoch_ms) = run_fleet(self.seed, self.workers, tr);
        let run_s = now() - t0 - setup_s;
        self.round_epochs_s.push(epoch_ms.iter().sum::<f64>() / 1e3);

        let r = &self.reference;
        let ok = self.replica_ok
            && report.decisions() == r.decisions()
            && report.pages_moved() == r.pages_moved()
            && report.pages_rejected() == r.pages_rejected()
            && report.units_executed() == r.units_executed();

        let sim = if tr.enabled() {
            let s = tr.begin("bench.replica");
            let (_, mut sim) = replica(self.seed, tr);
            tr.end(s);
            sim.sched_units = report.units_executed();
            let plans = plans(self.seed);
            let mut gens: Vec<Box<dyn OpStream + Send>> =
                plans.iter().map(|p| p.spawn_stream()).collect();
            let per: Vec<u64> = plans
                .iter()
                .map(|p| p.ops_plan(EPOCHS, OPS_PER_EPOCH).iter().sum())
                .collect();
            drain(tr, &mut gens, &per);
            sim
        } else {
            Sim {
                sched_units: report.units_executed(),
                ..self.sim.clone()
            }
        };
        let peak = report.sched.iter().map(|s| s.queue_depth_peak).max();
        Round {
            setup_s,
            run_s,
            epoch_ms,
            sim,
            sched_stolen: report.units_stolen(),
            sched_queue_peak: peak.unwrap_or(0),
            ok,
        }
    }

    fn fleet_wall_speedup(&self) -> f64 {
        self.serial_epochs_s / crate::stats::median(&self.round_epochs_s)
    }
}

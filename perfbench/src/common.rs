//! What every workload hands back, and helpers the workloads share.

use tmprof_core::profiler::Tmp;
use tmprof_core::rank::EpochProfile;
use tmprof_sim::counters::EventCounts;
use tmprof_sim::runner::OpStream;
use tmprof_sim::tlb::Pid;

use crate::span::Tracer;

/// Simulated results of one round. They depend only on the workload seed,
/// so every round of a run must produce the same value; any change that
/// only speeds up the host must leave them identical.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sim {
    /// Ops fed to the machines.
    pub ops: u64,
    /// Machine counters summed over the whole round.
    pub counts: EventCounts,
    /// Machine counters of the epochs after the first (the warm-up epoch
    /// has no placement behind it).
    pub steady: EventCounts,
    /// Fig. 6 History/Combined replay hitrate at the workload's tier-1
    /// capacity.
    pub replay_hitrate: f64,
    /// TLB shootdowns issued (obs `sim.shootdowns`).
    pub shootdowns: u64,
    pub trace_samples: u64,
    pub trace_cycles: u64,
    pub abit_ptes_visited: u64,
    pub abit_observations: u64,
    pub abit_cycles: u64,
    /// Pages in the published epoch profiles, summed over epochs.
    pub profile_pages: u64,
    pub pages_moved: u64,
    pub admit_rejected: u64,
    /// Copy and shootdown cycles the mover reported. The machine clock
    /// never sees them, so they sit beside `counts.cycles`, not inside it.
    pub migration_cycles: u64,
    pub pages_protected: u64,
    pub slow_faults: u64,
    pub hot_faults: u64,
    /// Fault latency the NVM emulator injected (inside `counts.cycles`).
    pub injected_cycles: u64,
    /// Scheduler work units (fixed by the work, not by the schedule).
    pub sched_units: u64,
}

impl Sim {
    /// Fold one profiler's totals in.
    pub fn add_tmp(&mut self, tmp: &Tmp) {
        let (t, a) = (tmp.trace_stats(), tmp.abit_stats());
        self.trace_samples += t.counted_samples;
        self.trace_cycles += t.overhead_cycles;
        self.abit_ptes_visited += a.ptes_visited;
        self.abit_observations += a.observations;
        self.abit_cycles += a.overhead_cycles;
    }

    pub fn add_profile(&mut self, profile: &EpochProfile) {
        let (abit, trace, both) = profile.detection_counts();
        self.profile_pages += (abit + trace - both) as u64;
    }
}

/// One measured round: set-up, then the timed work, then the output check.
#[derive(Clone, Debug)]
pub struct Round {
    /// Host seconds spent building machines, profilers and streams.
    pub setup_s: f64,
    /// Host seconds after set-up: execution, epoch close, moves, replay.
    pub run_s: f64,
    /// Host milliseconds of each epoch.
    pub epoch_ms: Vec<f64>,
    pub sim: Sim,
    /// Units that moved between scheduler workers by theft (depends on the
    /// thread schedule; 0 without a scheduler).
    pub sched_stolen: u64,
    /// Deepest scheduler deque seen (depends on the thread schedule).
    pub sched_queue_peak: u64,
    /// Whether the round's output matched the workload's reference.
    pub ok: bool,
}

/// A benchmark workload. Construction computes the reference output the
/// rounds are checked against; it is not timed.
pub trait Workload {
    /// Effective configuration, for the results record.
    fn config(&self) -> String;

    /// Run one round. With tracing on, also time the generators alone
    /// (`workloads.gen`) after the timed part.
    fn round(&mut self, tr: &mut Tracer) -> Round;

    /// One-worker ÷ two-worker epoch wall time (1 for a single-threaded
    /// workload).
    fn fleet_wall_speedup(&self) -> f64 {
        1.0
    }
}

/// Borrow boxed generators as the runner's `(pid, stream)` list.
pub fn streams<'a>(
    pids: &[Pid],
    gens: &'a mut [Box<dyn OpStream + Send>],
) -> Vec<(Pid, &'a mut dyn OpStream)> {
    pids.iter()
        .zip(gens.iter_mut())
        .map(|(&pid, g)| (pid, &mut **g as &mut dyn OpStream))
        .collect()
}

/// Time `ops_per_stream` ops drawn from each generator without a machine.
pub fn drain(tr: &mut Tracer, gens: &mut [Box<dyn OpStream + Send>], ops_per_stream: &[u64]) {
    let mut buf =
        vec![tmprof_sim::machine::WorkOp::Compute; tmprof_sim::runner::DEFAULT_BATCH as usize];
    let s = tr.begin("workloads.gen");
    for (g, &ops) in gens.iter_mut().zip(ops_per_stream) {
        let mut left = ops;
        while left > 0 {
            let n = left.min(buf.len() as u64) as usize;
            g.fill_batch(&mut buf[..n]);
            left -= n as u64;
        }
    }
    tr.end(s);
    std::hint::black_box(&buf);
}

/// A sub-seed for one stream family, so workloads sharing a run seed do
/// not share generator streams.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 29)
}

//! Batched execution: quantum-granular op execution for [`Machine`].
//!
//! [`Machine::exec_op`] is the *reference* execution path — one op at a
//! time, every invariant re-derived per op. [`Machine::exec_batch`] executes
//! a whole scheduling quantum for one process on one core and is required to
//! be bit-identical to the equivalent `exec_op` loop (the property tests in
//! `tests/batch_props.rs` enforce this). It gets its speed from two
//! sources, neither of which may change observable state evolution:
//!
//! 1. **Hoisted invariants.** The process-table index, latency table and
//!    engine references are resolved once per quantum instead of once per
//!    op.
//! 2. **A per-core translation memo.** A small direct-mapped table mapping
//!    (`pid`, `vpn`) to the L1 DTLB slot that cached the translation on the
//!    last walk or L2 promotion. A memo hit skips the full associative TLB
//!    probe and replays exactly the state transition a reference L1 hit
//!    performs ([`crate::tlb::Tlb::fast_rehit`]). Memo hints are *verified
//!    on use* against the live TLB slot — the memo can never serve stale
//!    translations, only waste a probe — and are additionally cleared on
//!    every shootdown, migration, A-bit scan and epoch advance.
//!
//! Anything the fast path cannot provably replay — TLB misses, huge-page
//! regimes, clean-store D-bit write-backs, faults — falls back to the
//! reference path for that op.

use crate::addr::Vpn;
use crate::machine::{ExecOutcome, Machine, MemAccess, WorkOp};
use crate::pagedesc::PageKey;
use crate::tlb::{Pid, TlbHit};
use tmprof_obs::metrics::Metric;

/// Memo capacity. Power of two; sized well past the whole TLB (L1 + L2)
/// so pages of a hot working set rarely alias the surrounding cold
/// stream. 2048 slots × 24 B = 48 KiB per core.
const MEMO_SLOTS: usize = 2048;

#[derive(Clone, Copy)]
struct MemoSlot {
    pid: Pid,
    /// Generation the hint was recorded in; stale generations are misses.
    gen: u32,
    vpn: Vpn,
    l1_slot: u32,
}

/// Per-core software translation memo: (`pid`, `vpn`) → L1 DTLB slot hint.
///
/// Purely a performance hint. Every probe result is re-verified against the
/// actual TLB slot before use, so a stale hint (or a generation-counter
/// wrap) costs one wasted comparison, never a wrong translation.
pub(crate) struct TranslateMemo {
    gen: u32,
    slots: Vec<MemoSlot>,
}

impl TranslateMemo {
    pub(crate) fn new() -> Self {
        Self {
            gen: 1,
            slots: vec![
                MemoSlot {
                    pid: 0,
                    gen: 0,
                    vpn: Vpn(0),
                    l1_slot: 0,
                };
                MEMO_SLOTS
            ],
        }
    }

    #[inline]
    fn index(pid: Pid, vpn: Vpn) -> usize {
        // Same PID mixing as the TLB's set function, for the same reason.
        ((vpn.0 ^ (pid as u64).wrapping_mul(0x9E37_79B9)) as usize) & (MEMO_SLOTS - 1)
    }

    /// L1 slot hint for (`pid`, `vpn`), if one was recorded this generation.
    #[inline]
    // tmprof-lint: allow(panic-reachability) — Self::index masks the slot with MEMO_SLOTS - 1
    pub(crate) fn probe(&self, pid: Pid, vpn: Vpn) -> Option<usize> {
        let s = &self.slots[Self::index(pid, vpn)];
        (s.gen == self.gen && s.pid == pid && s.vpn == vpn).then_some(s.l1_slot as usize)
    }

    /// Record that (`pid`, `vpn`) now lives in L1 slot `l1_slot`.
    #[inline]
    // tmprof-lint: allow(panic-reachability) — Self::index masks the slot with MEMO_SLOTS - 1
    pub(crate) fn remember(&mut self, pid: Pid, vpn: Vpn, l1_slot: usize) {
        self.slots[Self::index(pid, vpn)] = MemoSlot {
            pid,
            gen: self.gen,
            vpn,
            l1_slot: l1_slot as u32,
        };
    }

    /// Drop every hint in O(1) by advancing the generation.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.gen = self.gen.wrapping_add(1);
    }
}

impl Machine {
    /// Execute a quantum of `ops` for `pid` on `core`.
    ///
    /// Bit-identical to `for &op in ops { machine.exec_op(core, pid, op) }`
    /// in every observable (counters, ground truth, trace samples, TLB and
    /// cache state, page tables), but with per-op invariants hoisted and a
    /// translation-memo fast path for repeat touches. See the module docs.
    // tmprof-lint: allow(panic-reachability) — core ids and proc_idx come from the scheduler contract: core < cores.len(), proc_idx from the pid_index map
    pub fn exec_batch(&mut self, core: usize, pid: Pid, ops: &[WorkOp]) {
        let lat = self.config().latency;
        let proc_idx = self.proc_idx(pid);
        // Deferred pure-accumulator counters. Nothing inside the machine
        // reads these mid-op (profilers read them between quanta) and the
        // fallback path's own increments commute with addition, so batching
        // them into one store per quantum is observably identical.
        let mut retired = 0u64;
        let mut loads = 0u64;
        let mut stores = 0u64;
        let mut fallbacks = 0u64;
        for &op in ops {
            match op {
                WorkOp::Compute => {
                    retired += 1;
                    let c = &mut self.cores[core];
                    c.counts.cycles += lat.base_op;
                    let _ = c.trace.offer_compute();
                }
                WorkOp::Mem { va, store, site } => {
                    debug_assert!(va.is_canonical(), "non-canonical {va:?}");
                    let vpn = va.vpn();
                    let c = &mut self.cores[core];
                    let hit = c
                        .memo
                        .probe(pid, vpn)
                        .and_then(|slot| c.tlb.fast_rehit(slot, pid, vpn, store));
                    if let Some(entry) = hit {
                        retired += 1;
                        if store {
                            stores += 1;
                        } else {
                            loads += 1;
                        }
                        let mut out = ExecOutcome {
                            cycles: lat.base_op,
                            tlb: Some(TlbHit::L1),
                            ..Default::default()
                        };
                        let acc = MemAccess {
                            core,
                            pid,
                            va,
                            store,
                            site,
                        };
                        if self.finish_mem(&acc, entry.pfn, &mut out) {
                            self.truth.record_mem(PageKey { pid, vpn });
                        }
                    } else {
                        // Reference path (records its own ground truth).
                        fallbacks += 1;
                        let _ = self.exec_mem_at(core, proc_idx, pid, va, store, site);
                    }
                }
            }
        }
        self.processes[proc_idx].ops_executed += retired;
        let counts = &mut self.cores[core].counts;
        counts.retired_ops += retired;
        counts.loads += loads;
        counts.stores += stores;
        // Bulk metric adds at quantum granularity: three thread-local cell
        // updates per quantum, nothing per op (memo hits are exactly the
        // fast-path loads + stores).
        tmprof_obs::metrics::add(Metric::SimBatchOps, ops.len() as u64);
        tmprof_obs::metrics::add(Metric::SimMemoHits, loads + stores);
        tmprof_obs::metrics::add(Metric::SimBatchFallbacks, fallbacks);
    }
}

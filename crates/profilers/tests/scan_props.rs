//! Property suite: the A-bit scan (`hier_scan_accessed_bounded`, with its
//! word-wise leaf scan and subtree skipping) is bit-for-bit equivalent to
//! the per-PTE reference walk `walk_present_bounded` with a
//! test-and-clear of the A bit.
//!
//! Two layers of the claim are held under random page-table histories
//! (map / unmap / huge-map conflicts / huge-unmap / touches / migrations,
//! deliberately straddling 64-entry word and 512-entry leaf boundaries):
//!
//! * **Page-table layer**: the scan reports the same observations (in the
//!   same order), the same walk footprint, the same resume cursor, and
//!   leaves the table in the same final state as the reference walk —
//!   across a full budgeted cursor cycle, and when scans and walks
//!   interleave on one table (the mix the A-bit driver and AutoNUMA's
//!   `walk_present_bounded` passes really produce).
//! * **Scanner layer**: `ABitScanner::scan_process` produces the epoch
//!   pages, heat points, stats, shootdowns, charged cycles, and residual
//!   A bits of a reference scanner written here from `Machine::scan_parts`
//!   and `walk_present_bounded`, on identically-driven machines.
//!
//! The regression block at the bottom pins the historically dangerous
//! cases: word/leaf straddles, huge conflicts under budget-1 cursors, and
//! cold interior nodes whose summary bits are stale-set (the scan must
//! descend, find nothing, and charge the identical footprint).

use proptest::prelude::*;

use tmprof_profilers::abit::{ABitConfig, ABitScanner, ABitStats, AbitHeatPoint};
use tmprof_sim::addr::{Pfn, Vpn};
use tmprof_sim::keymap::PageSet;
use tmprof_sim::machine::{Machine, MachineConfig};
use tmprof_sim::pagedesc::PageKey;
use tmprof_sim::pagetable::{PageTable, WalkFootprint, HUGE_SPAN};
use tmprof_sim::pte::{bits, Pte};

const LEAF: u64 = HUGE_SPAN; // 512 entries per leaf table

/// One operation against a page table's history.
#[derive(Clone, Copy, Debug)]
enum TableOp {
    /// Map a 4 KiB page, optionally pre-accessed/pre-dirtied.
    Map {
        vpn: u64,
        accessed: bool,
        dirty: bool,
    },
    /// Unmap a 4 KiB page (no-op when absent).
    Unmap { vpn: u64 },
    /// Map a 2 MiB page at `slot * 512`; conflicts with existing 4 KiB
    /// mappings are errors and must fail identically on both tables.
    MapHuge {
        slot: u64,
        accessed: bool,
        dirty: bool,
    },
    /// Unmap a huge page (no-op when absent or not huge).
    UnmapHuge { slot: u64 },
    /// Hardware-walker touch: set A (and D on stores) through the
    /// bitmap-maintaining `entry_mut` path.
    Touch { vpn: u64, store: bool },
    /// Migration: rewrite the PFN in place, flags preserved.
    Migrate { vpn: u64, pfn: u64 },
}

/// VPNs concentrated on word (64) and leaf (512) boundaries plus a dense
/// low region, so partial first/last words and leaf straddles are routine.
fn vpn_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        6 => 0u64..(3 * LEAF + 80),
        1 => Just(63u64),
        1 => Just(64u64),
        1 => Just(LEAF - 1),
        1 => Just(LEAF),
        1 => Just(2 * LEAF + 63),
    ]
}

fn op_strategy() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        5 => (vpn_strategy(), any::<bool>(), any::<bool>())
            .prop_map(|(vpn, accessed, dirty)| TableOp::Map { vpn, accessed, dirty }),
        2 => vpn_strategy().prop_map(|vpn| TableOp::Unmap { vpn }),
        1 => (0u64..4, any::<bool>(), any::<bool>())
            .prop_map(|(slot, accessed, dirty)| TableOp::MapHuge { slot, accessed, dirty }),
        1 => (0u64..4).prop_map(|slot| TableOp::UnmapHuge { slot }),
        4 => (vpn_strategy(), any::<bool>()).prop_map(|(vpn, store)| TableOp::Touch { vpn, store }),
        1 => (vpn_strategy(), 0u64..2048).prop_map(|(vpn, pfn)| TableOp::Migrate { vpn, pfn }),
    ]
}

/// PFNs stay under 4096 so the same histories are valid against a
/// machine's descriptor table in the scanner-layer tests.
fn apply(pt: &mut PageTable, op: TableOp) {
    match op {
        TableOp::Map {
            vpn,
            accessed,
            dirty,
        } => {
            // A huge mapping already covering this VPN wins (mmap would
            // have split it first; `map` asserts instead of splitting).
            if pt.get(Vpn(vpn)).huge() {
                return;
            }
            let mut pte = Pte::new(Pfn(1024 + vpn % 2048), true);
            if accessed {
                pte.set(bits::A);
            }
            if dirty {
                pte.set(bits::D);
            }
            pt.map(Vpn(vpn), pte);
        }
        TableOp::Unmap { vpn } => {
            pt.unmap(Vpn(vpn));
        }
        TableOp::MapHuge {
            slot,
            accessed,
            dirty,
        } => {
            let mut pte = Pte::new(Pfn(1024 + slot * HUGE_SPAN), true);
            pte.set(bits::PS);
            if accessed {
                pte.set(bits::A);
            }
            if dirty {
                pte.set(bits::D);
            }
            let _ = pt.map_huge(Vpn(slot * HUGE_SPAN), pte);
        }
        TableOp::UnmapHuge { slot } => {
            pt.unmap_huge(Vpn(slot * HUGE_SPAN));
        }
        TableOp::Touch { vpn, store } => {
            if let Some(pte) = pt.entry_mut(Vpn(vpn)) {
                pte.set(bits::A);
                if store {
                    pte.set(bits::D);
                }
            }
        }
        TableOp::Migrate { vpn, pfn } => {
            if let Some(pte) = pt.entry_mut(Vpn(vpn)) {
                *pte = pte.with_pfn(Pfn(pfn));
            }
        }
    }
}

/// Full raw snapshot of every mapped translation (VPN -> raw PTE bits).
fn snapshot(pt: &mut PageTable) -> Vec<(Vpn, Pte)> {
    let mut out = Vec::new();
    pt.walk_present(|vpn, pte| out.push((vpn, *pte)));
    out
}

/// What one budgeted pass reports: hits, footprint, resume cursor.
type PassResult = (Vec<Vpn>, WalkFootprint, Option<Vpn>);

/// One budgeted pass of the A-bit scan.
fn scan_pass(pt: &mut PageTable, start: Vpn, budget: u64) -> PassResult {
    // The candidate bitmaps are conservative supersets, so a visited page
    // is not guaranteed hot — the in-closure test_and_clear is the
    // authoritative check, exactly as the scanner driver does it.
    let mut hits = Vec::new();
    let (fp, resume) = pt.hier_scan_accessed_bounded(start, budget, |vpn, pte| {
        if pte.test_and_clear_accessed() {
            hits.push(vpn);
        }
    });
    (hits, fp, resume)
}

/// The same pass done by the reference walk, test-and-clearing every PTE.
fn walk_pass(pt: &mut PageTable, start: Vpn, budget: u64) -> PassResult {
    let mut hits = Vec::new();
    let (fp, resume) = pt.walk_present_bounded(start, budget, |vpn, pte| {
        if pte.test_and_clear_accessed() {
            hits.push(vpn);
        }
    });
    (hits, fp, resume)
}

/// Two tables driven through the same history.
fn table_pair(ops: &[TableOp]) -> (PageTable, PageTable) {
    let mut scanned = PageTable::new();
    let mut walked = PageTable::new();
    for &op in ops {
        apply(&mut scanned, op);
        apply(&mut walked, op);
    }
    (scanned, walked)
}

/// Run a full budgeted cursor cycle of the scan on `scanned` and of the
/// reference walk on `walked`, asserting per-round equivalence of
/// observations, footprints, and resume cursors.
fn assert_cycle_equivalent(scanned: &mut PageTable, walked: &mut PageTable, budget: u64) {
    let mut cursor = Vpn(0);
    // A table of N pages finishes in ceil(N/budget)+1 rounds; anything
    // longer means a cursor livelock.
    for round in 0..(4 * LEAF / budget.min(4 * LEAF) + 2) {
        let (hits_s, fp_s, resume_s) = scan_pass(scanned, cursor, budget);
        let (hits_w, fp_w, resume_w) = walk_pass(walked, cursor, budget);
        assert_eq!(hits_s, hits_w, "round {round} observations diverged");
        assert_eq!(fp_s, fp_w, "round {round} footprint diverged");
        assert_eq!(resume_s, resume_w, "round {round} resume cursor diverged");
        match resume_s {
            Some(next) => cursor = next,
            None => return,
        }
    }
    panic!("cursor cycle did not terminate");
}

/// One step of a mixed scan/walk sequence on a single table.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// A budgeted A-bit pass from the shared cursor: the scan when `hier`
    /// is set, the reference walk otherwise.
    Pass { hier: bool },
    /// A full walk whose closure sets the A bit on every `modulus`-th
    /// page — a foreign walker changing bits under the scan's summaries.
    SetAWalk { modulus: u64 },
    /// A page-table mutation between passes.
    Op(TableOp),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => any::<bool>().prop_map(|hier| Step::Pass { hier }),
        1 => (1u64..8).prop_map(|modulus| Step::SetAWalk { modulus }),
        3 => op_strategy().prop_map(Step::Op),
    ]
}

/// Run `steps` on a table built from `ops`, with every `Pass` forced to
/// the reference walk when `all_walk` is set. Returns each pass's result
/// and the final table snapshot.
fn run_steps(
    ops: &[TableOp],
    steps: &[Step],
    budget: u64,
    all_walk: bool,
) -> (Vec<PassResult>, Vec<(Vpn, Pte)>) {
    let mut pt = PageTable::new();
    for &op in ops {
        apply(&mut pt, op);
    }
    let mut cursor = Vpn(0);
    let mut passes = Vec::new();
    for &step in steps {
        match step {
            Step::Pass { hier } => {
                let pass = if hier && !all_walk {
                    scan_pass(&mut pt, cursor, budget)
                } else {
                    walk_pass(&mut pt, cursor, budget)
                };
                cursor = pass.2.unwrap_or(Vpn(0));
                passes.push(pass);
            }
            Step::SetAWalk { modulus } => {
                pt.walk_present(|vpn, pte| {
                    if vpn.0 % modulus == 0 {
                        pte.set(bits::A);
                    }
                });
            }
            Step::Op(op) => apply(&mut pt, op),
        }
    }
    (passes, snapshot(&mut pt))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Page-table layer: the scan matches the reference walk
    /// round-for-round and leaves an identical final table. The second
    /// cycle runs on the summaries the first tightened, where whole cold
    /// subtrees are pruned unless the budget runs out inside them.
    #[test]
    fn packed_scan_cycle_matches_scalar_walk(
        ops in prop::collection::vec(op_strategy(), 0..150),
        budget in 1u64..200,
    ) {
        let (mut scanned, mut walked) = table_pair(&ops);
        assert_cycle_equivalent(&mut scanned, &mut walked, budget);
        assert_cycle_equivalent(&mut scanned, &mut walked, budget);
        prop_assert_eq!(snapshot(&mut scanned), snapshot(&mut walked), "final tables diverged");
    }

    /// Unbounded passes: same equivalence without cursor mechanics, twice
    /// over so the second pass runs on summaries the first tightened.
    #[test]
    fn packed_scan_unbounded_matches_scalar_walk(
        ops in prop::collection::vec(op_strategy(), 0..150),
    ) {
        let (mut scanned, mut walked) = table_pair(&ops);
        assert_cycle_equivalent(&mut scanned, &mut walked, u64::MAX);
        assert_cycle_equivalent(&mut scanned, &mut walked, u64::MAX);
        prop_assert_eq!(snapshot(&mut scanned), snapshot(&mut walked));
    }

    /// Interleaving: a random mix of scans, reference walks, bit-setting
    /// foreign walks, and table mutations on ONE table equals the same
    /// sequence with every scan replaced by the reference walk — the two
    /// traversals are interchangeable mid-run because each leaves the
    /// same table state, summaries included, and the same cursor behind.
    #[test]
    fn interleaved_scan_modes_match_scalar_sequence(
        ops in prop::collection::vec(op_strategy(), 0..120),
        steps in prop::collection::vec(step_strategy(), 1..16),
        budget in prop_oneof![Just(u64::MAX), 1u64..300],
    ) {
        let (mixed, mixed_table) = run_steps(&ops, &steps, budget, false);
        let (walked, walked_table) = run_steps(&ops, &steps, budget, true);
        prop_assert_eq!(mixed, walked, "pass results diverged");
        prop_assert_eq!(mixed_table, walked_table, "final tables diverged");
    }
}

/// A reference A-bit scanner written against the machine's public scan
/// borrows: the driver of `ABitScanner::scan_process` with the per-PTE
/// walk in place of the scan.
struct RefScanner {
    cfg: ABitConfig,
    cursor: Vpn,
    epoch_pages: Vec<u64>,
    heat: Vec<AbitHeatPoint>,
    stats: ABitStats,
    charge_core: usize,
}

impl RefScanner {
    fn new(cfg: ABitConfig) -> Self {
        Self {
            cfg,
            cursor: Vpn(0),
            epoch_pages: Vec::new(),
            heat: Vec::new(),
            stats: ABitStats::default(),
            charge_core: 0,
        }
    }

    fn scan(&mut self, m: &mut Machine, pid: u32) {
        let budget = self.cfg.scan_budget.unwrap_or(u64::MAX);
        let start = if self.cfg.restart_each_scan {
            Vpn(0)
        } else {
            self.cursor
        };
        let (record, shootdown) = (self.cfg.record_samples, self.cfg.shootdown);
        let (mut keys, mut vpns) = (Vec::new(), Vec::new());
        let (pt, descs, epoch) = m.scan_parts(pid).expect("pid exists");
        let heat = &mut self.heat;
        let (fp, resume) = pt.walk_present_bounded(start, budget, |vpn, pte| {
            if pte.test_and_clear_accessed() {
                descs.bump_abit(pte.pfn(), epoch);
                keys.push(PageKey { pid, vpn }.pack());
                if record {
                    heat.push(AbitHeatPoint {
                        epoch,
                        pfn: pte.pfn(),
                    });
                }
                if shootdown {
                    vpns.push(vpn);
                }
            }
        });
        self.cursor = resume.unwrap_or(Vpn(0));
        let cost = fp.ptes_visited * m.config().latency.pte_visit;
        m.charge_profiling(self.charge_core % m.num_cores(), cost);
        self.charge_core += 1;
        self.stats.scans += 1;
        self.stats.ptes_visited += fp.ptes_visited;
        self.stats.observations += keys.len() as u64;
        self.stats.overhead_cycles += cost;
        self.epoch_pages.extend(keys);
        if !vpns.is_empty() {
            self.stats.overhead_cycles += m.shootdown(pid, &vpns, true);
            self.stats.shootdowns += 1;
        }
    }
}

/// A machine whose page table was driven through `ops`.
fn machine_with(ops: &[TableOp]) -> Machine {
    let mut m = Machine::new(MachineConfig::scaled(2, 4096, 4096, 1 << 20));
    m.add_process(1);
    let (pt, _, _) = m.scan_parts(1).expect("pid 1 exists");
    for &op in ops {
        apply(pt, op);
    }
    m
}

/// Assert that `scans` runs of `ABitScanner` produce every observable of
/// the same number of reference-scanner runs.
fn assert_scanners_equivalent(ops: &[TableOp], cfg: ABitConfig, scans: u32) {
    let (mut m_scan, mut m_ref) = (machine_with(ops), machine_with(ops));
    let mut scanner = ABitScanner::new(cfg);
    let mut reference = RefScanner::new(cfg);
    for _ in 0..scans {
        scanner.scan_process(&mut m_scan, 1);
        reference.scan(&mut m_ref, 1);
    }

    let ref_pages = PageSet::from_unsorted(reference.epoch_pages.clone());
    assert_eq!(
        scanner.take_epoch_pages().iter().collect::<Vec<_>>(),
        ref_pages.iter().collect::<Vec<_>>(),
        "epoch pages diverged"
    );
    assert_eq!(
        scanner.seen_pages().iter().collect::<Vec<_>>(),
        ref_pages.iter().collect::<Vec<_>>(),
        "seen pages diverged"
    );
    assert_eq!(
        scanner.heat_points(),
        &reference.heat[..],
        "heat points diverged"
    );

    let (a, b) = (scanner.stats(), reference.stats);
    assert_eq!(a.scans, b.scans);
    assert_eq!(a.ptes_visited, b.ptes_visited, "footprint diverged");
    assert_eq!(a.observations, b.observations);
    assert_eq!(a.shootdowns, b.shootdowns);
    assert_eq!(
        a.overhead_cycles, b.overhead_cycles,
        "charged cost diverged"
    );
    assert_eq!(m_scan.aggregate_counts(), m_ref.aggregate_counts());

    // Residual A/D bits and translations agree exactly.
    let snap_s = snapshot(m_scan.scan_parts(1).expect("pid 1").0);
    let snap_r = snapshot(m_ref.scan_parts(1).expect("pid 1").0);
    assert_eq!(snap_s, snap_r, "final page tables diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scanner layer: `scan_process` == the reference scanner for every
    /// observable (epoch pages, heat, stats, cost, residual bits) across
    /// multiple budgeted scans of random tables.
    #[test]
    fn packed_scanner_matches_scalar_scanner(
        ops in prop::collection::vec(op_strategy(), 0..120),
        budget in prop_oneof![Just(None), (1u64..300).prop_map(Some)],
        shootdown in any::<bool>(),
        restart in any::<bool>(),
        scans in 1u32..5,
    ) {
        let cfg = ABitConfig {
            shootdown,
            scan_budget: budget,
            restart_each_scan: restart,
            record_samples: true,
        };
        assert_scanners_equivalent(&ops, cfg, scans);
    }
}

/// Both layers of the claim for one history and budget.
fn assert_both_layers(ops: &[TableOp], budget: u64, scans: u32) {
    assert_scanners_equivalent(ops, ABitConfig::default().with_budget(budget), scans);
    let (mut scanned, mut walked) = table_pair(ops);
    assert_cycle_equivalent(&mut scanned, &mut walked, budget);
}

/// Word-boundary regression: a run of pages straddling the 64-entry word
/// edge, with a budget that truncates mid-word.
#[test]
fn word_boundary_straddle_scans_identically() {
    let ops: Vec<TableOp> = (58..72)
        .map(|vpn| TableOp::Map {
            vpn,
            accessed: true,
            dirty: vpn % 2 == 0,
        })
        .collect();
    assert_both_layers(&ops, 5, 4);
}

/// Partial-last-word regression: the leaf's final word is only partially
/// populated, and the scan must stop cleanly at the leaf edge.
#[test]
fn partial_last_word_scans_identically() {
    let mut ops: Vec<TableOp> = (LEAF - 70..LEAF - 3)
        .map(|vpn| TableOp::Map {
            vpn,
            accessed: true,
            dirty: false,
        })
        .collect();
    // A second leaf right after the boundary, so resume crosses leaves.
    ops.extend((LEAF..LEAF + 10).map(|vpn| TableOp::Map {
        vpn,
        accessed: true,
        dirty: false,
    }));
    assert_both_layers(&ops, 7, 12);
}

/// Huge-page conflict regression: a huge mapping that loses to existing
/// 4 KiB pages, then one that wins, scanned with a mid-span cursor.
#[test]
fn huge_conflict_and_mid_span_cursor_scan_identically() {
    let ops = vec![
        TableOp::Map {
            vpn: 2 * LEAF + 5,
            accessed: true,
            dirty: false,
        },
        // Conflicts with the 4 KiB page above: must fail on both tables.
        TableOp::MapHuge {
            slot: 2,
            accessed: true,
            dirty: true,
        },
        // Free slot: succeeds on both.
        TableOp::MapHuge {
            slot: 3,
            accessed: true,
            dirty: true,
        },
        TableOp::Map {
            vpn: 7,
            accessed: true,
            dirty: true,
        },
        TableOp::Touch {
            vpn: 2 * LEAF + 5,
            store: true,
        },
    ];
    // Budget 1 forces the cursor to stop right before (and resume at) the
    // huge entry repeatedly — the historical footprint-drift spot.
    assert_both_layers(&ops, 1, 6);
}

/// Cold-interior-node-with-stale-summary-bit regression: unmapping every
/// page of a subtree leaves its interior summary bits stale-SET (unmap
/// does not recompute summaries). The scan must descend the stale-flagged
/// subtree, find nothing, and still report the exact same footprint,
/// observations, and cursor as the reference walk.
#[test]
fn stale_set_summary_over_cold_subtree_scans_identically() {
    let mut ops: Vec<TableOp> = Vec::new();
    // Populate two leaves: [0, 40) hot and [LEAF, LEAF+40) hot.
    for vpn in (0..40).chain(LEAF..LEAF + 40) {
        ops.push(TableOp::Map {
            vpn,
            accessed: true,
            dirty: true,
        });
    }
    // Kill the whole second leaf: summaries above it stay stale-set while
    // the subtree is genuinely empty.
    for vpn in LEAF..LEAF + 40 {
        ops.push(TableOp::Unmap { vpn });
    }
    // And a third leaf further out so the cursor has somewhere to go.
    for vpn in 2 * LEAF..2 * LEAF + 8 {
        ops.push(TableOp::Map {
            vpn,
            accessed: true,
            dirty: false,
        });
    }
    for budget in [1, 7, 64, u64::MAX] {
        let (mut scanned, mut walked) = table_pair(&ops);
        assert_cycle_equivalent(&mut scanned, &mut walked, budget);
    }
    // After the first full sweep cleared every A bit, the summaries over
    // the surviving leaves are stale-set too; rescanning is the pure
    // stale-summary case and must also agree.
    assert_scanners_equivalent(&ops, ABitConfig::default().with_budget(16), 8);
    assert_scanners_equivalent(&ops, ABitConfig::unbounded(), 4);
}

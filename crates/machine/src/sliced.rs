//! The deterministic slice-partitioned epoch engine.
//!
//! [`run_workload_sliced`] runs the same per-core [`AccessStream`]s as
//! [`run_workload`](crate::run_workload), but partitions the machine the
//! way the hardware is partitioned: each core's private caches and each
//! directory slice (with its LLC bank) is a separate cell, and the cells
//! meet only at **epoch boundaries**. The whole loop runs on the calling
//! thread.
//!
//! # The epoch protocol
//!
//! Time advances in epochs. Every epoch runs four steps in order:
//!
//! 1. **Phase A — core phase** (per core): each core pulls up to
//!    `epoch_batch` references from its stream and retires its
//!    private-cache hits, mirroring the L1/L2 probe path of
//!    [`Machine::access`], until it needs the directory. The first
//!    access that does (an L2 miss, or a non-silent write hit needing an
//!    upgrade) is parked as the core's single *pending transaction* for
//!    this epoch. A core pulls only while below its access cap, so stream
//!    consumption is exactly what the serial engine would consume and
//!    warm-up/measure phases can share streams across engines.
//! 2. **Routing**: pending transactions are routed by the machine's
//!    `SliceHash` into per-slice inboxes.
//! 3. **Phase B — slice phase** (per slice): each slice drains its inbox
//!    in the canonical `(ready-time, core-id)` order — the same key the
//!    serial engine's `BinaryHeap` scheduler uses — performing the
//!    directory transaction and recording the response.
//! 4. **Merge**: responses are applied in the same global canonical
//!    order through the shared response-application path
//!    (`apply_miss_response_in`/`apply_upgrade_response_in`), so
//!    invalidation fan-out, owner downgrades, fills and victim evictions
//!    are processed against a coherent whole.
//!
//! # Ownership transfer
//!
//! The machine's per-core caches, per-core stats and directory slices are
//! checked out of the [`Machine`] **once per run**
//! ([`Machine::take_parts`]) into run-local cells. The merge runs against
//! the cells directly through the `CoherentParts` view; the machine is
//! reassembled only at fault-injection/oracle epochs (where those hooks
//! need to walk a whole coherent machine) and at run end.
//!
//! # Why one thread
//!
//! Phases A and B are independent across cores and across slices, and
//! earlier versions ran them on worker threads behind an epoch barrier.
//! That never beat this loop. The one-transaction-per-core-per-epoch rule
//! fixes the epoch count at roughly L2 misses ÷ cores, so an 8-core mix0
//! run has tens of thousands of epochs of about 8 µs each, split roughly
//! stream pulls 20%, private-cache hits 40%, routing 1%, phase B 25%,
//! merge 13%. Only the per-core and per-slice work could be shared out,
//! about 2.6 µs per epoch at two threads, against four barrier crossings
//! per epoch (DESIGN.md §10 has the measurements). Multicore speed-up comes from running independent
//! machines in parallel ([`sweep`](crate::sweep)) instead.
//!
//! # Determinism
//!
//! Phase A is pure per-core work; phase B drains each inbox in a
//! canonical sorted order; the merge applies responses in the same order
//! globally. Stats, latencies and final cache/directory state therefore
//! depend only on the streams, the cap and the epoch batch. The
//! `slice_threads` argument no longer changes anything; the tests still
//! run 1, 2, 4 and 8 and compare them (`tests/determinism.rs`,
//! `tests/golden_stats.rs`).
//!
//! # Relation to the serial engine
//!
//! The epoch model is a slightly *relaxed* timing model: a cross-core
//! effect (an invalidation, a downgrade) computed during an epoch lands at
//! the epoch boundary, not between two individual accesses. The serial
//! engine remains the reference implementation; a **single-core** run has
//! no cross-core effects at all, and the sliced engine is bit-identical to
//! the serial engine there (tested). Multi-core sliced runs are compared
//! against their own committed golden snapshots instead.
//!
//! While a sliced run is in flight the machine is in *lenient* mode
//! (`Machine::lenient`): an epoch-delayed invalidation may name a line
//! the holder already evicted (skipped silently), and an upgrade may be
//! *overtaken* by a concurrent remote write, in which case the directory
//! answers with a data source and the line is refilled instead.
//!
//! # Failure handling
//!
//! Panics from streams or from the `check`-feature oracle (e.g. under
//! fault injection) are caught once for the whole run. The machine gets
//! its parts back, and the panic is re-raised on the caller.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use secdir_coherence::{AccessKind, DirResponse, Moesi};
use secdir_mem::{CoreId, LineAddr, SliceId};

use crate::caches::PrivateCaches;
use crate::config::Latencies;
use crate::engine::{Access, AccessStream, CoreRun, RunSummary};
use crate::machine::{
    apply_miss_response_in, apply_upgrade_response_in, CoherentParts, Machine, SliceImpl,
};
use crate::stats::CoreStats;

/// Default for [`SlicedOptions::epoch_batch`]. Large enough to amortize
/// the per-epoch routing and merge over many locally-retired hits, small
/// enough that cross-core effects stay within a few hundred cycles of
/// their serial delivery point.
const EPOCH_BATCH: usize = 64;

/// Tuning knobs for the sliced epoch engine
/// ([`run_workload_sliced_with`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlicedOptions {
    /// References pulled per core per epoch. Affects the epoch schedule
    /// (and can therefore affect when cross-core effects land) but never
    /// determinism; the default is [`EPOCH_BATCH`] = 64, the value the
    /// sliced golden snapshots pin.
    pub epoch_batch: usize,
}

impl Default for SlicedOptions {
    fn default() -> Self {
        SlicedOptions {
            epoch_batch: EPOCH_BATCH,
        }
    }
}

/// A core's directory transaction parked until the epoch's merge.
struct PendingTxn {
    /// The access that needs the directory.
    access: Access,
    /// Read or Write, as the directory sees it.
    kind: AccessKind,
    /// `true` for a store upgrade of a resident line, `false` for an L2
    /// miss.
    upgrade: bool,
    /// Latency already accumulated before the directory round-trip (the
    /// L1/L2 hit that discovered the upgrade).
    base: u64,
    /// Home slice, filled in by the routing step.
    slice: SliceId,
}

/// Per-core cell: the core's checked-out shard of the machine plus its
/// engine bookkeeping. The `Option`s are `Some` for the whole run except
/// while a fault/oracle hook epoch has the parts back in the machine.
struct CoreCell {
    caches: Option<PrivateCaches>,
    stats: Option<CoreStats>,
    /// The core's current cycle (the scheduler key of the serial engine).
    ready: u64,
    instructions: u64,
    accesses: u64,
    /// Cycle at which the core finished, once it has.
    finished: Option<u64>,
    /// At most one directory transaction per core per epoch.
    pending: Option<PendingTxn>,
}

/// One routed request, drained by the slice in `(ready, core)` order.
struct InboxEntry {
    ready: u64,
    core: usize,
    line: LineAddr,
    kind: AccessKind,
}

/// Per-slice cell: the checked-out directory slice plus its epoch inbox.
struct SliceCell {
    slice: Option<SliceImpl>,
    inbox: Vec<InboxEntry>,
}

/// Scratch vectors that carry parts between the cells and the machine on
/// fault/oracle hook epochs. Capacity is allocated once; the vectors
/// round-trip through [`Machine::restore_parts`]/[`Machine::take_parts`]
/// without reallocating.
struct Shuttle {
    caches: Vec<PrivateCaches>,
    stats: Vec<CoreStats>,
    slices: Vec<SliceImpl>,
}

/// All run-local state: the checked-out cells plus every buffer the epoch
/// loop reuses. Allocated once at run start; the steady-state epoch loop
/// performs no heap allocation (`tests/alloc_free.rs`).
struct RunState {
    cells: Vec<CoreCell>,
    scells: Vec<SliceCell>,
    responses: Vec<Option<DirResponse>>,
    /// Merge-order scratch, reused every epoch.
    order: Vec<(u64, usize)>,
    shuttle: Shuttle,
}

/// Checks the machine's parts out into a fresh [`RunState`]; the single
/// allocation site of the engine.
fn new_run_state(machine: &mut Machine) -> RunState {
    let n = machine.num_cores();
    let (caches, stats, slices) = machine.take_parts();
    let cells: Vec<CoreCell> = caches
        .into_iter()
        .zip(stats)
        .map(|(caches, stats)| CoreCell {
            caches: Some(caches),
            stats: Some(stats),
            ready: 0,
            instructions: 0,
            accesses: 0,
            finished: None,
            pending: None,
        })
        .collect();
    let scells: Vec<SliceCell> = slices
        .into_iter()
        .map(|slice| SliceCell {
            slice: Some(slice),
            inbox: Vec::with_capacity(n),
        })
        .collect();
    RunState {
        cells,
        scells,
        responses: (0..n).map(|_| None).collect(),
        order: Vec::with_capacity(n),
        shuttle: Shuttle {
            caches: Vec::with_capacity(n),
            stats: Vec::with_capacity(n),
            slices: Vec::with_capacity(n),
        },
    }
}

/// Phase A: pulls up to `batch` references from one core's stream and
/// retires its private-cache hits until the stream ends, the access cap
/// is reached, or an access needs the directory — the exact L1/L2 probe
/// sequence of [`Machine::access`], against the core's own shard. A
/// reference is pulled only while the core is below its cap, and each
/// pulled reference is retired (the parked one at the merge), so stream
/// consumption is exactly the serial engine's and streams can be shared
/// warm-up → measure across engines.
fn run_core_epoch(
    cell: &mut CoreCell,
    stream: &mut (dyn AccessStream + '_),
    lat: Latencies,
    cap: u64,
    batch: usize,
) {
    if cell.finished.is_some() {
        return;
    }
    debug_assert!(
        cell.pending.is_none(),
        "unmerged transaction at epoch start"
    );
    let caches = match cell.caches.as_mut() {
        Some(c) => c,
        None => unreachable!("core part checked out"),
    };
    let stats = match cell.stats.as_mut() {
        Some(s) => s,
        None => unreachable!("core part checked out"),
    };
    let mut pulled = 0;
    loop {
        if cell.accesses >= cap {
            cell.finished = Some(cell.ready);
            return;
        }
        if pulled == batch {
            return;
        }
        let Some(acc) = stream.next_access() else {
            cell.finished = Some(cell.ready);
            return;
        };
        pulled += 1;
        stats.accesses += 1;
        if acc.write {
            stats.writes += 1;
        } else {
            stats.reads += 1;
        }
        let line = acc.line;

        // L1 — same one-probe discipline as the serial path.
        if caches.l1_access(line) {
            stats.l1_hits += 1;
            debug_assert!(
                caches.state(line).is_valid(),
                "L1 hit with invalid L2 state"
            );
            if acc.write && !caches.silent_write(line) {
                cell.pending = Some(PendingTxn {
                    access: acc,
                    kind: AccessKind::Write,
                    upgrade: true,
                    base: lat.l1_hit,
                    slice: SliceId(0),
                });
                return;
            }
            cell.instructions += u64::from(acc.gap) + 1;
            cell.accesses += 1;
            cell.ready += u64::from(acc.gap) + lat.l1_hit;
            continue;
        }

        // L2: one probe serves the hit check, the state read, and the
        // silent-upgrade store.
        let mut l2_hit = false;
        let mut needs_upgrade = false;
        if let Some(state) = caches.l2_access_mut(line) {
            l2_hit = true;
            if acc.write {
                if state.can_write_silently() {
                    *state = Moesi::Modified;
                } else {
                    needs_upgrade = true;
                }
            }
        }
        if l2_hit {
            stats.l2_hits += 1;
            caches.fill_l1(line);
            if needs_upgrade {
                cell.pending = Some(PendingTxn {
                    access: acc,
                    kind: AccessKind::Write,
                    upgrade: true,
                    base: lat.l2_hit,
                    slice: SliceId(0),
                });
                return;
            }
            cell.instructions += u64::from(acc.gap) + 1;
            cell.accesses += 1;
            cell.ready += u64::from(acc.gap) + lat.l2_hit;
            continue;
        }

        // L2 miss: park the directory transaction for phase B.
        stats.l2_misses += 1;
        let kind = if acc.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        cell.pending = Some(PendingTxn {
            access: acc,
            kind,
            upgrade: false,
            base: 0,
            slice: SliceId(0),
        });
        return;
    }
}

/// Routes every pending transaction to its home slice's inbox. Only
/// `slice_of` (the hash, never the checked-out parts) is consulted on the
/// machine.
fn route(machine: &Machine, cells: &mut [CoreCell], scells: &mut [SliceCell]) {
    for (i, cell) in cells.iter_mut().enumerate() {
        let ready = cell.ready;
        if let Some(txn) = cell.pending.as_mut() {
            let slice = machine.slice_of(txn.access.line);
            txn.slice = slice;
            scells[slice.0].inbox.push(InboxEntry {
                ready,
                core: i,
                line: txn.access.line,
                kind: txn.kind,
            });
        }
    }
}

/// Phase B: drains one slice's inbox in the canonical `(ready, core)`
/// order — the serial scheduler's key, and unique because each core parks
/// at most one transaction — performing the directory requests and
/// filing each response in the per-core table.
fn drain_slice(scell: &mut SliceCell, responses: &mut [Option<DirResponse>]) {
    scell.inbox.sort_unstable_by_key(|e| (e.ready, e.core));
    let slice = match scell.slice.as_mut() {
        Some(s) => s,
        None => unreachable!("slice part checked out"),
    };
    for e in scell.inbox.drain(..) {
        debug_assert!(
            responses[e.core].is_none(),
            "two responses for one core in an epoch"
        );
        responses[e.core] = Some(slice.as_dir().request(e.line, CoreId(e.core), e.kind));
    }
}

/// The run-local cells viewed as `CoherentParts`, so the merge can run
/// the same generic response-application code as the serial engine
/// without reassembling the machine.
struct PartView<'a> {
    cells: &'a mut [CoreCell],
    scells: &'a mut [SliceCell],
}

impl CoherentParts for PartView<'_> {
    fn caches(&mut self, core: usize) -> &mut PrivateCaches {
        match self.cells[core].caches.as_mut() {
            Some(c) => c,
            None => unreachable!("core part checked out"),
        }
    }

    fn core_stats(&mut self, core: usize) -> &mut CoreStats {
        match self.cells[core].stats.as_mut() {
            Some(s) => s,
            None => unreachable!("core part checked out"),
        }
    }

    fn slice(&mut self, slice: usize) -> &mut SliceImpl {
        match self.scells[slice].slice.as_mut() {
            Some(s) => s,
            None => unreachable!("slice part checked out"),
        }
    }
}

/// Moves every checked-out part back into the machine (hook epochs and
/// run end). The shuttle vectors are handed to the machine whole and come
/// back through [`take_parts_from_machine`] with their capacity intact.
fn give_parts_to_machine(
    machine: &mut Machine,
    cells: &mut [CoreCell],
    scells: &mut [SliceCell],
    shuttle: &mut Shuttle,
) {
    for cell in cells.iter_mut() {
        shuttle.caches.push(match cell.caches.take() {
            Some(c) => c,
            None => unreachable!("core part drained twice"),
        });
        shuttle.stats.push(match cell.stats.take() {
            Some(s) => s,
            None => unreachable!("core part drained twice"),
        });
    }
    for scell in scells.iter_mut() {
        shuttle.slices.push(match scell.slice.take() {
            Some(s) => s,
            None => unreachable!("slice part drained twice"),
        });
    }
    machine.restore_parts(
        std::mem::take(&mut shuttle.caches),
        std::mem::take(&mut shuttle.stats),
        std::mem::take(&mut shuttle.slices),
    );
}

/// Checks the parts back out of the machine into the cells (end of a hook
/// epoch).
fn take_parts_from_machine(
    machine: &mut Machine,
    cells: &mut [CoreCell],
    scells: &mut [SliceCell],
    shuttle: &mut Shuttle,
) {
    let (caches, stats, slices) = machine.take_parts();
    shuttle.caches = caches;
    shuttle.stats = stats;
    shuttle.slices = slices;
    for (cell, caches) in cells.iter_mut().zip(shuttle.caches.drain(..)) {
        cell.caches = Some(caches);
    }
    for (cell, stats) in cells.iter_mut().zip(shuttle.stats.drain(..)) {
        cell.stats = Some(stats);
    }
    for (scell, slice) in scells.iter_mut().zip(shuttle.slices.drain(..)) {
        scell.slice = Some(slice);
    }
}

/// The merge step: applies every parked transaction's response in global
/// `(ready, core)` order — the same order each slice used in phase B, so
/// the directory's assumptions (who holds what) hold again when the
/// response lands. `hooks` selects the slow path that reassembles the
/// machine around the fault-injection and invariant-oracle hooks, which
/// need to walk a whole coherent machine.
fn merge(machine: &mut Machine, state: &mut RunState, total_retired: &mut u64, hooks: bool) {
    let RunState {
        cells,
        scells,
        responses,
        order,
        shuttle,
    } = state;
    order.clear();
    let mut retired_now = 0u64;
    for (i, cell) in cells.iter().enumerate() {
        retired_now += cell.accesses;
        if cell.pending.is_some() {
            retired_now += 1;
            order.push((cell.ready, i));
        }
    }
    order.sort_unstable();
    let epoch_retired = retired_now - *total_retired;
    *total_retired = retired_now;
    if hooks {
        merge_hooked(
            machine,
            cells,
            scells,
            responses,
            order,
            shuttle,
            epoch_retired,
        );
    } else {
        merge_fast(machine, cells, scells, responses, order);
    }
}

/// Applies one core's parked transaction and advances its clock. Shared
/// by both merge paths; `latency` is the full directory round-trip cost.
fn retire_txn(cell: &mut CoreCell, txn: &PendingTxn, latency: u64) {
    cell.instructions += u64::from(txn.access.gap) + 1;
    cell.accesses += 1;
    cell.ready += u64::from(txn.access.gap) + latency;
}

/// The steady-state merge: runs the shared response-application code
/// directly against the cells through [`PartView`]. No part moves, no
/// locks, no allocation.
fn merge_fast(
    machine: &mut Machine,
    cells: &mut [CoreCell],
    scells: &mut [SliceCell],
    responses: &mut [Option<DirResponse>],
    order: &[(u64, usize)],
) {
    let mut ctx = machine.apply_ctx();
    for &(_, i) in order {
        let txn = match cells[i].pending.take() {
            Some(t) => t,
            None => unreachable!("merge order lists a core without a transaction"),
        };
        let resp = match responses[i].take() {
            Some(r) => r,
            None => unreachable!("pending transaction without a directory response"),
        };
        let core = CoreId(i);
        let latency = {
            let mut view = PartView {
                cells: &mut *cells,
                scells: &mut *scells,
            };
            if txn.upgrade {
                txn.base
                    + apply_upgrade_response_in(
                        &mut ctx,
                        &mut view,
                        core,
                        txn.access.line,
                        txn.slice,
                        &resp,
                    )
            } else {
                apply_miss_response_in(
                    &mut ctx,
                    &mut view,
                    core,
                    txn.access.line,
                    txn.kind,
                    txn.slice,
                    &resp,
                )
                .latency
            }
        };
        retire_txn(&mut cells[i], &txn, latency);
    }
}

/// The hook-epoch merge: reassembles the machine so the epoch-granular
/// fault-injection and `check`-feature oracle hooks see one coherent
/// whole, applies the responses through the machine's own methods (the
/// same generic code the fast path runs), and checks the parts back out.
fn merge_hooked(
    machine: &mut Machine,
    cells: &mut [CoreCell],
    scells: &mut [SliceCell],
    responses: &mut [Option<DirResponse>],
    order: &[(u64, usize)],
    shuttle: &mut Shuttle,
    epoch_retired: u64,
) {
    give_parts_to_machine(machine, cells, scells, shuttle);
    machine.fault_epoch(epoch_retired);
    for &(_, i) in order {
        let txn = match cells[i].pending.take() {
            Some(t) => t,
            None => unreachable!("merge order lists a core without a transaction"),
        };
        let resp = match responses[i].take() {
            Some(r) => r,
            None => unreachable!("pending transaction without a directory response"),
        };
        let core = CoreId(i);
        let latency = if txn.upgrade {
            txn.base + machine.apply_upgrade_response(core, txn.access.line, txn.slice, &resp)
        } else {
            machine
                .apply_miss_response(core, txn.access.line, txn.kind, txn.slice, &resp)
                .latency
        };
        retire_txn(&mut cells[i], &txn, latency);
    }
    #[cfg(feature = "check")]
    machine.oracle_epoch(epoch_retired);
    take_parts_from_machine(machine, cells, scells, shuttle);
}

fn all_finished(cells: &[CoreCell]) -> bool {
    cells.iter().all(|cell| cell.finished.is_some())
}

fn summary(cells: &[CoreCell]) -> RunSummary {
    let cores: Vec<CoreRun> = cells
        .iter()
        .map(|cell| CoreRun {
            instructions: cell.instructions,
            accesses: cell.accesses,
            finish_time: cell.finished.unwrap_or(cell.ready),
        })
        .collect();
    let cycles = cores.iter().map(|c| c.finish_time).max().unwrap_or(0);
    RunSummary { cores, cycles }
}

/// The epoch loop: phase A, routing, phase B and merge until
/// every core has finished, under a single `catch_unwind` for the whole
/// run. Returns the panic payload, if any, so the caller can restore the
/// machine before re-raising it.
fn run_epochs(
    machine: &mut Machine,
    streams: &mut [Box<dyn AccessStream + '_>],
    cap: u64,
    state: &mut RunState,
    epoch_batch: usize,
    hooks: bool,
) -> Option<Box<dyn Any + Send>> {
    let lat = machine.config().latencies;
    let mut total_retired = 0u64;
    catch_unwind(AssertUnwindSafe(|| loop {
        if all_finished(&state.cells) {
            return;
        }
        for (cell, stream) in state.cells.iter_mut().zip(streams.iter_mut()) {
            run_core_epoch(cell, stream.as_mut(), lat, cap, epoch_batch);
        }
        route(machine, &mut state.cells, &mut state.scells);
        for scell in state.scells.iter_mut() {
            drain_slice(scell, &mut state.responses);
        }
        merge(machine, state, &mut total_retired, hooks);
    }))
    .err()
}

/// Returns the machine's parts at run end. If a hook-epoch panic left
/// them already restored (the hooks run with a reassembled machine), the
/// machine is whole and there is nothing to do.
fn restore_at_end(machine: &mut Machine, state: &mut RunState) {
    if !machine.cores.is_empty() {
        return;
    }
    give_parts_to_machine(
        machine,
        &mut state.cells,
        &mut state.scells,
        &mut state.shuttle,
    );
}

/// Runs one stream per core under the sliced epoch engine with default
/// [`SlicedOptions`], until every stream is exhausted or a core has
/// issued `max_accesses_per_core` references during this call.
///
/// `slice_threads` must be at least 1 and otherwise no longer changes
/// results or speed: the epoch loop always runs on the calling thread
/// (see the module docs for why).
///
/// Stream consumption matches [`run_workload`](crate::run_workload)
/// exactly, so the warm-up-then-measure pattern works unchanged. The
/// timing model is the epoch-relaxed one described in the module docs;
/// single-core runs are bit-identical to the serial engine.
///
/// # Panics
///
/// Panics if `slice_threads` is zero or `streams.len()` differs from the
/// machine's core count, and re-raises panics from streams or from the
/// `check`-feature oracle (the machine is left unusable in that case).
pub fn run_workload_sliced(
    machine: &mut Machine,
    streams: &mut [Box<dyn AccessStream + '_>],
    max_accesses_per_core: u64,
    slice_threads: usize,
) -> RunSummary {
    run_workload_sliced_with(
        machine,
        streams,
        max_accesses_per_core,
        slice_threads,
        SlicedOptions::default(),
    )
}

/// [`run_workload_sliced`] with explicit tuning [`SlicedOptions`].
///
/// # Panics
///
/// Additionally panics if `options.epoch_batch` is zero.
pub fn run_workload_sliced_with(
    machine: &mut Machine,
    streams: &mut [Box<dyn AccessStream + '_>],
    max_accesses_per_core: u64,
    slice_threads: usize,
    options: SlicedOptions,
) -> RunSummary {
    assert!(slice_threads >= 1, "slice_threads must be at least 1");
    assert!(options.epoch_batch >= 1, "epoch_batch must be at least 1");
    assert_eq!(
        streams.len(),
        machine.num_cores(),
        "one stream per core required"
    );
    let hooks = machine.fault.is_some() || cfg!(feature = "check");
    let mut state = new_run_state(machine);

    machine.lenient = true;
    let failure = run_epochs(
        machine,
        streams,
        max_accesses_per_core,
        &mut state,
        options.epoch_batch,
        hooks,
    );
    machine.lenient = false;
    restore_at_end(machine, &mut state);
    if let Some(p) = failure {
        resume_unwind(p);
    }
    summary(&state.cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DirectoryKind, MachineConfig};
    use crate::engine::run_workload;
    use secdir_mem::SplitMix64;

    fn stream(seed: u64, len: usize, lines: u64) -> Box<dyn AccessStream> {
        let mut rng = SplitMix64::new(seed);
        let accs: Vec<Access> = (0..len)
            .map(|_| Access {
                line: LineAddr::new(rng.next_below(lines)),
                write: rng.chance(0.3),
                gap: rng.next_below(8) as u32,
            })
            .collect();
        Box::new(accs.into_iter())
    }

    fn streams(cores: usize, len: usize) -> Vec<Box<dyn AccessStream>> {
        (0..cores)
            .map(|i| stream(0x51ed ^ ((i as u64) << 16), len, 700))
            .collect()
    }

    #[test]
    fn single_core_run_is_bit_identical_to_the_serial_engine() {
        for threads in [1, 2] {
            let mut serial = Machine::new(MachineConfig::small(1, DirectoryKind::SecDir));
            let s_sum = run_workload(&mut serial, &mut streams(1, 3000), u64::MAX);
            let mut sliced = Machine::new(MachineConfig::small(1, DirectoryKind::SecDir));
            let p_sum = run_workload_sliced(&mut sliced, &mut streams(1, 3000), u64::MAX, threads);
            assert_eq!(s_sum, p_sum, "{threads} threads");
            assert_eq!(serial.stats(), sliced.stats(), "{threads} threads");
        }
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let run = |threads: usize| {
            let mut m = Machine::new(MachineConfig::small(4, DirectoryKind::SecDir));
            let sum = run_workload_sliced(&mut m, &mut streams(4, 2500), u64::MAX, threads);
            (sum, m.stats().clone())
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), reference, "{threads} threads");
        }
    }

    /// The epoch batch must not change a single counter: every value in
    /// the perf sweep set reproduces the default run bit for bit, at 1
    /// and 4 threads.
    #[test]
    fn options_are_bit_identical_to_the_default_run() {
        let run = |threads: usize, options: SlicedOptions| {
            let mut m = Machine::new(MachineConfig::small(4, DirectoryKind::SecDir));
            let sum =
                run_workload_sliced_with(&mut m, &mut streams(4, 2500), u64::MAX, threads, options);
            (sum, m.stats().clone())
        };
        let reference = run(1, SlicedOptions::default());
        for epoch_batch in [32, 64, 128, 256, 512] {
            for threads in [1, 4] {
                assert_eq!(
                    run(threads, SlicedOptions { epoch_batch }),
                    reference,
                    "batch {epoch_batch}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn machine_is_coherent_after_a_sliced_run() {
        for kind in [
            DirectoryKind::Baseline,
            DirectoryKind::SecDir,
            DirectoryKind::SecDirVdOnly,
        ] {
            let mut m = Machine::new(MachineConfig::small(4, kind));
            run_workload_sliced(&mut m, &mut streams(4, 2000), u64::MAX, 2);
            m.verify().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    #[test]
    fn access_cap_limits_the_run_exactly() {
        let mut m = Machine::new(MachineConfig::small(4, DirectoryKind::Baseline));
        let sum = run_workload_sliced(&mut m, &mut streams(4, 2000), 150, 2);
        for core in &sum.cores {
            assert_eq!(core.accesses, 150);
        }
    }

    #[test]
    fn warmup_then_measure_consumes_streams_like_the_serial_engine() {
        // The same streams driven warm-up-then-measure must retire the
        // same access counts under both engines (stream-consumption
        // parity), even though multi-core latencies may differ.
        let mut serial = Machine::new(MachineConfig::small(4, DirectoryKind::SecDir));
        let mut s = streams(4, 5000);
        run_workload(&mut serial, &mut s, 1000);
        let s_measure = run_workload(&mut serial, &mut s, 2000);
        let mut sliced = Machine::new(MachineConfig::small(4, DirectoryKind::SecDir));
        let mut p = streams(4, 5000);
        run_workload_sliced(&mut sliced, &mut p, 1000, 2);
        let p_measure = run_workload_sliced(&mut sliced, &mut p, 2000, 2);
        for (a, b) in s_measure.cores.iter().zip(&p_measure.cores) {
            assert_eq!(a.accesses, b.accesses);
        }
        assert_eq!(
            serial.stats().total_accesses(),
            sliced.stats().total_accesses()
        );
    }

    #[test]
    fn zero_cap_finishes_immediately() {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
        let sum = run_workload_sliced(&mut m, &mut streams(2, 100), 0, 2);
        assert_eq!(sum.cycles, 0);
        assert!(sum.cores.iter().all(|c| c.accesses == 0));
    }

    #[test]
    fn empty_streams_finish_at_zero() {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
        let mut empty: Vec<Box<dyn AccessStream>> = (0..2).map(|_| stream(0, 0, 1)).collect();
        let sum = run_workload_sliced(&mut m, &mut empty, u64::MAX, 2);
        assert_eq!(sum.cycles, 0);
    }

    #[test]
    #[should_panic(expected = "one stream per core")]
    fn stream_count_must_match() {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
        run_workload_sliced(&mut m, &mut streams(1, 10), 10, 2);
    }

    #[test]
    #[should_panic(expected = "slice_threads must be at least 1")]
    fn zero_threads_is_rejected() {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
        run_workload_sliced(&mut m, &mut streams(2, 10), 10, 0);
    }

    #[test]
    #[should_panic(expected = "epoch_batch must be at least 1")]
    fn zero_epoch_batch_is_rejected() {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
        let options = SlicedOptions { epoch_batch: 0 };
        run_workload_sliced_with(&mut m, &mut streams(2, 10), 10, 2, options);
    }

    /// A panicking stream propagates to the caller, and the machine gets
    /// its parts back first.
    #[test]
    fn stream_panic_propagates_to_the_caller() {
        struct Bomb(u32);
        impl AccessStream for Bomb {
            fn next_access(&mut self) -> Option<Access> {
                self.0 += 1;
                assert!(self.0 < 100, "bomb went off");
                Some(Access::read(LineAddr::new(u64::from(self.0))))
            }
        }
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::SecDir));
        let mut s: Vec<Box<dyn AccessStream>> = vec![Box::new(Bomb(0)), stream(1, 500, 64)];
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_workload_sliced(&mut m, &mut s, u64::MAX, 2)
        }));
        assert!(result.is_err(), "the bomb must propagate");
        assert!(!m.cores.is_empty(), "parts restored before re-raising");
    }
}

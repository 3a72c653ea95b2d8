//! Micro-benchmarks of the core structures: VD bank operations (cuckoo vs
//! plain), directory-slice request throughput (Baseline vs SecDir), and
//! whole-machine access latency.
//!
//! These quantify the *simulator's* costs and the relative work of the two
//! directory organizations, complementing the paper claims table. Timed
//! with `std::time::Instant` (the offline environment has no criterion);
//! each case reports the mean wall time per iteration over a fixed batch.

use std::hint::black_box;
use std::time::Instant;

use secdir::{SecDirConfig, SecDirSlice, VdBank, VdHashing};
use secdir_cache::Geometry;
use secdir_coherence::{AccessKind, BaselineDirConfig, BaselineSlice, DirSlice};
use secdir_machine::{DirectoryKind, Machine, MachineConfig};
use secdir_mem::{CoreId, LineAddr, SplitMix64};

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Runs `iters` repetitions of `f` and prints mean ns/iter.
fn report<T>(name: &str, iters: u64, mut f: impl FnMut() -> T) {
    // One warm-up pass keeps first-touch allocation out of the timing.
    black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let elapsed = start.elapsed();
    println!(
        "{name:<28} {:>10.0} ns/iter  ({iters} iters)",
        elapsed.as_nanos() as f64 / iters as f64
    );
}

fn bench_vd_bank() {
    header("vd_bank");
    for (name, hashing) in [
        (
            "cuckoo_insert_1024",
            VdHashing::Cuckoo { num_relocations: 8 },
        ),
        ("plain_insert_1024", VdHashing::Plain),
    ] {
        report(name, 200, || {
            let mut bank = VdBank::new(Geometry::new(512, 4), hashing, true, 1);
            let mut rng = SplitMix64::new(7);
            for _ in 0..1024 {
                bank.insert(LineAddr::new(rng.next_below(1 << 30)));
            }
            bank.len()
        });
    }

    let mut bank = VdBank::new(
        Geometry::new(512, 4),
        VdHashing::Cuckoo { num_relocations: 8 },
        true,
        1,
    );
    let lines: Vec<LineAddr> = (0..1024u64).map(|i| LineAddr::new(i * 97)).collect();
    for &l in &lines {
        bank.insert(l);
    }
    let mut i = 0;
    report("lookup_hit", 100_000, || {
        i = (i + 1) % lines.len();
        bank.contains(lines[i])
    });

    let empty = VdBank::new(
        Geometry::new(512, 4),
        VdHashing::Cuckoo { num_relocations: 8 },
        true,
        1,
    );
    let mut j = 0u64;
    report("eb_filtered_miss", 100_000, || {
        j += 1;
        empty.eb_filters_out(LineAddr::new(j))
    });
}

fn bench_slices() {
    header("dir_slice_request");
    report("baseline_2048", 100, || {
        let mut s = BaselineSlice::new(BaselineDirConfig::skylake_x(), 1);
        let mut rng = SplitMix64::new(3);
        for _ in 0..2048 {
            let core = CoreId(rng.next_below(8) as usize);
            s.request(
                LineAddr::new(rng.next_below(1 << 20)),
                core,
                AccessKind::Read,
            );
        }
        s.stats().requests
    });
    report("secdir_2048", 100, || {
        let mut s = SecDirSlice::new(SecDirConfig::skylake_x(8), 1);
        let mut rng = SplitMix64::new(3);
        for _ in 0..2048 {
            let core = CoreId(rng.next_below(8) as usize);
            s.request(
                LineAddr::new(rng.next_below(1 << 20)),
                core,
                AccessKind::Read,
            );
        }
        s.stats().requests
    });
}

fn bench_machine() {
    header("machine_access");
    for (name, kind) in [
        ("baseline", DirectoryKind::Baseline),
        ("secdir", DirectoryKind::SecDir),
    ] {
        let mut m = Machine::new(MachineConfig::skylake_x(8, kind));
        let mut rng = SplitMix64::new(11);
        report(name, 200_000, || {
            let core = CoreId(rng.next_below(8) as usize);
            let line = LineAddr::new(rng.next_below(1 << 16));
            m.access(core, line, rng.chance(0.3)).latency
        });
    }
}

fn main() {
    bench_vd_bank();
    bench_slices();
    bench_machine();
}

//! Symmetry canonicalization of packed model states.
//!
//! The bounded model is fully symmetric under relabelings of cores and of
//! lines: every core has the same L2/VD capacity, every line is an
//! anonymous address, and (for way-partitioned) partition `c` belongs to
//! core `c`, so a joint relabeling carries reachable states to reachable
//! states and preserves every checked invariant. Exploring one
//! representative per orbit shrinks the reachable set by up to
//! `cores!·lines!`.
//!
//! **The partition field is only semantic under way-partitioning.** Every
//! other organization stores a constant 0 as the owning partition, so the
//! correct symmetry action relabels partitions with the cores *only* for
//! `DirKind::WayPartitioned` and leaves them fixed otherwise — relabeling
//! a dummy 0 to a nonzero index manufactures states the model never
//! produces and the canonical form stops being constant on orbits (the
//! orbit count then *exceeds* the raw count instead of dividing it). The
//! `permute_parts` flag on [`CanonTable::new`] and
//! [`PermPair::apply_state`] selects the action.
//!
//! **Canonical form.** For each permutation of the *used* cores, relabel
//! the four 32-bit line words of the plain pack ([`pack::line_word`])
//! and sort them descending with a stable tie-break on the original line
//! index; the candidate is the sorted words assembled high-to-low. The
//! canonical form is the numerically greatest candidate over all core
//! permutations. Because line permutation moves whole equal-width blocks,
//! the descending block sort *is* the optimal line permutation for a fixed
//! core relabeling — the search is `cores!` candidates, not
//! `cores!·lines!`.
//!
//! **Table-driven relabeling.** The state is packed once; each candidate
//! relabels the packed words through per-permutation lookup tables
//! ([`RELABEL`], one entry per element of S4 indexed by Lehmer rank):
//! two 64-entry tables map the 12-bit MOESI field two cores at a time,
//! and one 16-entry table maps each 4-bit sharer mask (VD, ED, TD). The
//! tables, and the rank lists of the permutations of `0..n`, are built at
//! compile time, so [`CanonTable::new`] only selects two rank lists. The
//! sort is a 5-compare-swap network on `(word << 2) | (3 - line)` keys,
//! whose low bits encode the stable tie-break. A candidate is dropped early when even its largest
//! word's ED/TD half (bits 16..32) falls below the best candidate's first
//! word: it can only lose, and ties never replace the best, so pruning
//! keeps the first-winner relabeling.
//!
//! Descending order (with the stable tie-break) also keeps active lines in
//! the low indices: an unused line's word is always 0, so it can never
//! displace a used line into the tail, and the chosen line permutation
//! maps used lines to used lines — canonical states stay inside the
//! model's `0..lines` geometry.
//!
//! **Soundness with deterministic forwarding.** The one non-equivariant
//! choice in the production step relation is the forwarding owner
//! (`forwarding_sharer` picks the lowest-numbered sharer). On any state
//! satisfying the checked invariants this choice is semantically
//! invisible: a multi-sharer set is all Shared/Owned, whose
//! `after_remote_read` downgrade is the identity, and an Exclusive/
//! Modified holder (where the downgrade does act) is a singleton set,
//! which every relabeling maps to a singleton. The checker only expands
//! states it has already verified clean, so successor sets of expanded
//! states are equivariant and orbit-exploration is exact — including on
//! faulted models, where the first violating state is reported, not
//! expanded.

use crate::model::{Label, ModelState, MAX_CORES, MAX_LINES};
use crate::pack::{assemble, field, line_word};

/// A joint core/line relabeling: `core[c]` is the new index of old core
/// `c`, `line[l]` the new index of old line `l`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PermPair {
    /// Core relabeling.
    pub core: [u8; MAX_CORES],
    /// Line relabeling.
    pub line: [u8; MAX_LINES],
}

/// The identity relabeling.
pub const IDENTITY: PermPair = PermPair {
    core: [0, 1, 2, 3],
    line: [0, 1, 2, 3],
};

impl PermPair {
    /// The inverse relabeling.
    pub fn inverse(&self) -> PermPair {
        let mut inv = IDENTITY;
        for (i, &img) in self.core.iter().enumerate() {
            inv.core[img as usize] = i as u8;
        }
        for (i, &img) in self.line.iter().enumerate() {
            inv.line[img as usize] = i as u8;
        }
        inv
    }

    /// `self ∘ other`: applies `other` first, then `self`.
    pub fn compose(&self, other: &PermPair) -> PermPair {
        let mut out = IDENTITY;
        for i in 0..MAX_CORES {
            out.core[i] = self.core[other.core[i] as usize];
        }
        for i in 0..MAX_LINES {
            out.line[i] = self.line[other.line[i] as usize];
        }
        out
    }

    /// Relabels a transition label.
    pub fn apply_label(&self, label: Label) -> Label {
        let map = |core: usize, line: usize| (self.core[core] as usize, self.line[line] as usize);
        match label {
            Label::Read { core, line } => {
                let (core, line) = map(core, line);
                Label::Read { core, line }
            }
            Label::Write { core, line } => {
                let (core, line) = map(core, line);
                Label::Write { core, line }
            }
            Label::SilentUpgrade { core, line } => {
                let (core, line) = map(core, line);
                Label::SilentUpgrade { core, line }
            }
            Label::Evict { core, line } => {
                let (core, line) = map(core, line);
                Label::Evict { core, line }
            }
        }
    }

    /// Relabels a whole state (the struct-level mirror of what
    /// [`CanonTable::canonicalize`] does on packed words); used by trace
    /// rebuilds and the property tests. `permute_parts` selects the
    /// action on directory partition fields: relabel with the cores for
    /// the way-partitioned organization, fix the dummy 0 otherwise (see
    /// module docs).
    pub fn apply_state(&self, s: &ModelState, permute_parts: bool) -> ModelState {
        let part_of = |part: u8| {
            if permute_parts {
                self.core[part as usize]
            } else {
                part
            }
        };
        let mut t = ModelState::initial();
        for core in 0..MAX_CORES {
            for line in 0..MAX_LINES {
                t.caches[self.core[core] as usize][self.line[line] as usize] = s.caches[core][line];
            }
        }
        for line in 0..MAX_LINES {
            let nl = self.line[line] as usize;
            t.ed[nl] = s.ed[line].map(|(part, mut e)| {
                e.sharers = permute_set(e.sharers, &self.core);
                (part_of(part), e)
            });
            t.td[nl] = s.td[line].map(|(part, mut e)| {
                e.sharers = permute_set(e.sharers, &self.core);
                (part_of(part), e)
            });
            t.vd[nl] = permute_set(s.vd[line], &self.core);
        }
        t
    }

    /// Packs the pair into a compact index (base-24 digits of the two
    /// Lehmer codes) for the parent-pointer array.
    pub fn index(&self) -> u16 {
        u16::from(perm_index(&self.core)) * FACT4 + u16::from(perm_index(&self.line))
    }

    /// Inverse of [`PermPair::index`].
    pub fn from_index(idx: u16) -> PermPair {
        PermPair {
            core: perm_from_index((idx / FACT4) as u8),
            line: perm_from_index((idx % FACT4) as u8),
        }
    }
}

/// `4!` — the number of permutations of a 4-element index set.
const FACT4: u16 = 24;

/// Relabels a sharer set through a core permutation. Works on the set
/// itself, independently of the packed-word tables, so that
/// [`PermPair::apply_state`] can serve as their test oracle.
pub fn permute_set(
    set: secdir_coherence::SharerSet,
    cp: &[u8; MAX_CORES],
) -> secdir_coherence::SharerSet {
    let mut out = secdir_coherence::SharerSet::empty();
    for c in set.iter().filter(|c| c.0 < MAX_CORES) {
        out.insert(secdir_mem::CoreId(usize::from(cp[c.0])));
    }
    out
}

/// Lehmer (factorial-base) rank of a permutation of `[0, 4)`, in `0..24`.
const fn perm_index(p: &[u8; 4]) -> u8 {
    let mut idx = 0u8;
    let mut i = 0;
    while i < 4 {
        let mut rank = 0u8;
        let mut j = i + 1;
        while j < 4 {
            if p[j] < p[i] {
                rank += 1;
            }
            j += 1;
        }
        idx = idx * (4 - i as u8) + rank;
        i += 1;
    }
    idx
}

/// Inverse of [`perm_index`].
const fn perm_from_index(mut idx: u8) -> [u8; 4] {
    let mut digits = [0u8; 4];
    let mut i = 4;
    while i > 0 {
        i -= 1;
        let base = (4 - i) as u8;
        digits[i] = idx % base;
        idx /= base;
    }
    let mut pool = [0u8, 1, 2, 3];
    let mut len = 4usize;
    let mut out = [0u8; 4];
    let mut i = 0;
    while i < 4 {
        let d = digits[i] as usize;
        out[i] = pool[d];
        let mut j = d;
        while j < len - 1 {
            pool[j] = pool[j + 1];
            j += 1;
        }
        len -= 1;
        i += 1;
    }
    out
}

/// The relabeling tables of one core permutation, acting on packed line
/// words (layout in [`pack`](crate::pack)).
#[derive(Clone, Copy, Debug)]
struct Relabel {
    /// The permutation itself: `perm[c]` is the new index of old core `c`.
    /// Relabels partition fields under way-partitioning, and serves as
    /// the line permutation in [`CanonTable::orbit_size`].
    perm: [u8; MAX_CORES],
    /// MOESI bits 0..6 (cores 0 and 1) to their relabeled 12-bit image.
    moesi_lo: [u16; 64],
    /// MOESI bits 6..12 (cores 2 and 3) to their relabeled 12-bit image.
    moesi_hi: [u16; 64],
    /// A 4-bit core mask (VD residency, ED or TD sharers) relabeled.
    mask: [u8; 16],
}

impl Relabel {
    const fn new(rank: u8) -> Self {
        let perm = perm_from_index(rank);
        let mut t = Relabel {
            perm,
            moesi_lo: [0; 64],
            moesi_hi: [0; 64],
            mask: [0; 16],
        };
        let mut x = 0usize;
        while x < 64 {
            // `x` holds the 3-bit codes of two adjacent cores.
            let (lo, hi) = (x as u16 & 0b111, (x >> 3) as u16 & 0b111);
            t.moesi_lo[x] = lo << (3 * perm[0]) | hi << (3 * perm[1]);
            t.moesi_hi[x] = lo << (3 * perm[2]) | hi << (3 * perm[3]);
            x += 1;
        }
        let mut m = 0usize;
        while m < 16 {
            let mut c = 0;
            while c < MAX_CORES {
                t.mask[m] |= ((m >> c) as u8 & 1) << perm[c];
                c += 1;
            }
            m += 1;
        }
        t
    }

    /// Relabels one packed line word.
    #[inline]
    fn word(&self, w: u32, permute_parts: bool) -> u32 {
        self.high(w, permute_parts) | self.low(w)
    }

    /// Bits 0..16 of a relabeled word: the MOESI field and the VD mask.
    #[inline]
    fn low(&self, w: u32) -> u32 {
        u32::from(self.moesi_lo[(w & 0x3f) as usize])
            | u32::from(self.moesi_hi[(w >> 6 & 0x3f) as usize])
            | u32::from(self.mask[(w >> field::VD & 0xf) as usize]) << field::VD
    }

    /// Bits 16..32 of a relabeled word: the ED and TD entries. Partition
    /// fields move with the cores only when `permute_parts` is set and
    /// the entry is present; otherwise they are copied unchanged (see
    /// module docs).
    #[inline]
    fn high(&self, w: u32, permute_parts: bool) -> u32 {
        let mask = |shift: u32| u32::from(self.mask[(w >> shift & 0xf) as usize]) << shift;
        let mut out = w & field::FIXED | mask(field::ED_SHARERS) | mask(field::TD_SHARERS);
        if !permute_parts {
            return out | w & field::PARTS;
        }
        for (present, part) in [
            (field::ED_PRESENT, field::ED_PART),
            (field::TD_PRESENT, field::TD_PART),
        ] {
            if w & present != 0 {
                out |= u32::from(self.perm[(w >> part & 0b11) as usize]) << part;
            }
        }
        out
    }
}

/// The relabeling tables of every element of S4, indexed by Lehmer rank
/// ([`perm_index`]). Built at compile time: building them per
/// [`CanonTable`] would dominate the table's set-up cost.
static RELABEL: [Relabel; FACT4 as usize] = {
    let mut all = [Relabel::new(0); FACT4 as usize];
    let mut rank = 1;
    while rank < all.len() {
        all[rank] = Relabel::new(rank as u8);
        rank += 1;
    }
    all
};

/// Appends to `out[*count..]` the Lehmer ranks of every arrangement of
/// `items[k..n]` (the tail beyond `n` fixed), in a fixed swap-recursive
/// order — the order in which [`CanonTable::canonicalize`] tries
/// candidates, and so the order that decides its first winner.
const fn enumerate(
    items: &mut [u8; 4],
    n: usize,
    k: usize,
    out: &mut [u8; FACT4 as usize],
    count: &mut usize,
) {
    if k == n {
        out[*count] = perm_index(items);
        *count += 1;
        return;
    }
    let mut i = k;
    while i < n {
        (items[k], items[i]) = (items[i], items[k]);
        enumerate(items, n, k + 1, out, count);
        (items[k], items[i]) = (items[i], items[k]);
        i += 1;
    }
}

/// `PERMS[n][..n!]` lists the Lehmer ranks of the permutations of `0..n`
/// (identity on the tail) in enumeration order, for `n` in `0..=4`.
/// Built at compile time, like [`RELABEL`].
static PERMS: [[u8; FACT4 as usize]; MAX_CORES + 1] = {
    let mut all = [[0u8; FACT4 as usize]; MAX_CORES + 1];
    let mut n = 0;
    while n <= MAX_CORES {
        enumerate(&mut [0, 1, 2, 3], n, 0, &mut all[n], &mut 0);
        n += 1;
    }
    all
};

/// The ranks of the permutations of `0..n`, in enumeration order.
fn perms_of(n: usize) -> &'static [u8] {
    &PERMS[n][..(1..=n).product::<usize>()]
}

/// Sorts four keys descending with a 5-compare-swap network. Each
/// exchange is a branch-free max/min pair: the comparisons are data
/// dependent, so branches would mispredict.
#[inline]
fn sort4_desc(k: &mut [u64; MAX_LINES]) {
    for (a, b) in [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)] {
        let (x, y) = (k[a], k[b]);
        k[a] = x.max(y);
        k[b] = x.min(y);
    }
}

/// Canonicalization context for a model geometry: the ranks of every
/// permutation of the used cores and lines (identity on the unused tail)
/// into [`RELABEL`].
#[derive(Clone, Debug)]
pub struct CanonTable {
    lines: usize,
    permute_parts: bool,
    core_perms: &'static [u8],
    line_perms: &'static [u8],
}

impl CanonTable {
    /// Builds the table for a `cores`-core, `lines`-line model.
    /// `permute_parts` must be true exactly for the way-partitioned
    /// organization (see module docs).
    ///
    /// # Panics
    ///
    /// Panics if the geometry exceeds the model bounds.
    pub fn new(cores: usize, lines: usize, permute_parts: bool) -> Self {
        assert!((1..=MAX_CORES).contains(&cores), "cores out of range");
        assert!((1..=MAX_LINES).contains(&lines), "lines out of range");
        CanonTable {
            lines,
            permute_parts,
            core_perms: perms_of(cores),
            line_perms: perms_of(lines),
        }
    }

    /// Whether this table's action relabels partition fields.
    pub fn permute_parts(&self) -> bool {
        self.permute_parts
    }

    /// The order of the symmetry group this table reduces by
    /// (`cores!·lines!`).
    pub fn group_order(&self) -> usize {
        self.core_perms.len() * self.line_perms.len()
    }

    /// The relabeling tables of the used-core permutations, in
    /// enumeration order.
    fn core_tables(&self) -> impl Iterator<Item = &'static Relabel> + '_ {
        self.core_perms.iter().map(|&r| &RELABEL[usize::from(r)])
    }

    /// Canonicalizes `s`: returns the canonical packed form and the
    /// relabeling `g` with `pack(g(s)) == packed`. Deterministic: core
    /// permutations are tried in a fixed order and ties keep the first
    /// winner, so equal inputs always yield the identical pair.
    pub fn canonicalize(&self, s: &ModelState) -> (u128, PermPair) {
        let words: [u32; MAX_LINES] = std::array::from_fn(|line| line_word(s, line));
        let mut best_packed = 0u128;
        let mut best_keys = [0u64; MAX_LINES];
        let mut best_perm = IDENTITY.core;
        for (i, t) in self.core_tables().enumerate() {
            // A candidate whose first (largest) word is below the best
            // one's cannot win, and ties never replace the best, so the
            // high halves alone can rule it out.
            let highs = words.map(|w| t.high(w, self.permute_parts));
            let best_first_high = (best_packed >> 96) as u32 & 0xffff_0000;
            if i > 0 && highs.into_iter().fold(0, u32::max) < best_first_high {
                continue;
            }
            // The low two bits make keys distinct and order equal words
            // by ascending original line: the stable descending block sort
            // = optimal line relabeling for this core relabeling (see
            // module docs).
            let mut keys: [u64; MAX_LINES] = std::array::from_fn(|line| {
                u64::from(highs[line] | t.low(words[line])) << 2 | (3 - line) as u64
            });
            sort4_desc(&mut keys);
            let packed = assemble(keys.map(|k| (k >> 2) as u32));
            if i == 0 || packed > best_packed {
                best_packed = packed;
                best_keys = keys;
                best_perm = t.perm;
            }
        }
        let mut lp = [0u8; MAX_LINES];
        for (pos, &k) in best_keys.iter().enumerate() {
            lp[3 - (k & 3) as usize] = pos as u8;
        }
        debug_assert!(
            (0..self.lines).all(|l| (lp[l] as usize) < self.lines),
            "canonical line relabeling left the used-line range"
        );
        (
            best_packed,
            PermPair {
                core: best_perm,
                line: lp,
            },
        )
    }

    /// The size of `s`'s orbit under the full group action: the number of
    /// distinct packed states over all `cores!·lines!` joint relabelings
    /// (`group_order / |stabilizer(s)|`).
    ///
    /// Because the step relation is equivariant on clean states, the raw
    /// reachable set is a disjoint union of full orbits, so summing this
    /// over the canonical representatives reproduces the **exact** raw
    /// reachable-state count without ever materializing it — this is how
    /// the checker bench reports the reduction factor at geometries whose
    /// raw exploration would not fit the CI budget.
    pub fn orbit_size(&self, s: &ModelState) -> usize {
        let words: [u32; MAX_LINES] = std::array::from_fn(|line| line_word(s, line));
        let mut images = [0u128; (FACT4 * FACT4) as usize];
        let mut n = 0;
        for t in self.core_tables() {
            let relabeled = words.map(|w| t.word(w, self.permute_parts));
            for &lr in self.line_perms {
                // `lp[l]` is the new index of old line `l`; block `new`
                // of the permuted state is old line `inv(new)`'s word.
                let lp = &RELABEL[usize::from(lr)].perm;
                let mut placed = [0u32; MAX_LINES];
                for (old, &new) in lp.iter().enumerate() {
                    placed[new as usize] = relabeled[old];
                }
                images[n] = assemble(placed);
                n += 1;
            }
        }
        let images = &mut images[..n];
        images.sort_unstable();
        1 + images.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::pack;
    use secdir_coherence::Moesi;

    #[test]
    fn perm_index_roundtrips_all_24() {
        let mut seen = std::collections::HashSet::new();
        for &idx in perms_of(4) {
            assert!(seen.insert(idx), "duplicate index {idx}");
            assert_eq!(perm_index(&perm_from_index(idx)), idx);
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn used_perms_fix_the_unused_tail() {
        for n in 0..=MAX_CORES {
            let perms = perms_of(n);
            let distinct: std::collections::HashSet<_> = perms.iter().collect();
            assert_eq!(distinct.len(), perms.len(), "n = {n}");
            for &idx in perms {
                let p = perm_from_index(idx);
                assert!(
                    (n..MAX_CORES).all(|c| p[c] as usize == c),
                    "{p:?} at n = {n}"
                );
            }
        }
    }

    #[test]
    fn pair_index_roundtrips() {
        let pair = PermPair {
            core: [2, 0, 3, 1],
            line: [1, 3, 0, 2],
        };
        assert_eq!(PermPair::from_index(pair.index()), pair);
        assert_eq!(PermPair::from_index(IDENTITY.index()), IDENTITY);
    }

    #[test]
    fn inverse_and_compose_agree() {
        let pair = PermPair {
            core: [2, 0, 3, 1],
            line: [1, 3, 0, 2],
        };
        assert_eq!(pair.compose(&pair.inverse()), IDENTITY);
        assert_eq!(pair.inverse().compose(&pair), IDENTITY);
    }

    #[test]
    fn relabel_tables_match_the_struct_level_relabeling() {
        // For every element of S4 and both partition actions, relabeling a
        // packed word through the tables equals packing the relabeled
        // state.
        use crate::pack::line_word;
        use secdir_coherence::{EdEntry, SharerSet, TdEntry};
        use secdir_mem::CoreId;
        let set = |cores: &[usize]| {
            let mut s = SharerSet::empty();
            for &c in cores {
                s.insert(CoreId(c));
            }
            s
        };
        let mut s = ModelState::initial();
        s.caches[0][1] = Moesi::Owned;
        s.caches[3][1] = Moesi::Shared;
        s.caches[2][0] = Moesi::Modified;
        s.vd[3] = set(&[1, 2]);
        s.ed[1] = Some((
            3,
            EdEntry {
                sharers: set(&[0, 3]),
            },
        ));
        s.td[0] = Some((
            1,
            TdEntry {
                sharers: set(&[2]),
                has_data: true,
                llc_dirty: true,
            },
        ));
        for (rank, t) in RELABEL.iter().enumerate() {
            assert_eq!(usize::from(perm_index(&t.perm)), rank);
            let pair = PermPair {
                core: t.perm,
                line: IDENTITY.line,
            };
            for permute_parts in [false, true] {
                let relabeled = pair.apply_state(&s, permute_parts);
                for line in 0..MAX_LINES {
                    assert_eq!(
                        t.word(line_word(&s, line), permute_parts),
                        line_word(&relabeled, line),
                        "perm {:?}, permute_parts {permute_parts}, line {line}",
                        t.perm
                    );
                }
            }
        }
    }

    #[test]
    fn apply_state_matches_packed_canonical() {
        // canonicalize's packed value must equal pack(apply_state(s)).
        let table = CanonTable::new(3, 3, false);
        let mut s = ModelState::initial();
        s.caches[1][2] = Moesi::Modified;
        s.caches[0][0] = Moesi::Shared;
        s.vd[2] = secdir_coherence::SharerSet::single(secdir_mem::CoreId(1));
        let (packed, pair) = table.canonicalize(&s);
        assert_eq!(pack(&pair.apply_state(&s, false)), packed);
    }

    #[test]
    fn canonical_form_is_permutation_invariant() {
        let table = CanonTable::new(2, 3, false);
        let mut s = ModelState::initial();
        s.caches[0][1] = Moesi::Exclusive;
        s.caches[1][0] = Moesi::Shared;
        let swap = PermPair {
            core: [1, 0, 2, 3],
            line: [2, 1, 0, 3],
        };
        let t = swap.apply_state(&s, false);
        assert_eq!(table.canonicalize(&s).0, table.canonicalize(&t).0);
    }
}

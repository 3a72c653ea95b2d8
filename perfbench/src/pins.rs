//! Outputs pinned at [`crate::DEFAULT_SEED`]. A speed-only change must
//! leave every one of them unchanged; a change to the simulated model
//! updates them together with the repository's golden files.

/// FNV-1a of each campaign cell's `CellResult::to_json_line`, in cell
/// order.
pub const CAMPAIGN_CELLS: [u64; 9] = [
    0xe097_6da0_a59f_815d,
    0xe374_f295_3722_3775,
    0xc904_765a_8bad_425a,
    0xabf3_e17b_1924_cb29,
    0x0d3e_62a5_cb41_b1a0,
    0x5660_981a_4af1_5659,
    0xccad_9de2_414d_0571,
    0xbfc5_066b_62fc_fc20,
    0xac74_e265_2b91_694b,
];

/// FNV-1a of the solo run's `Debug`-rendered `(RunSummary, MachineStats)`.
pub const SOLO_STATS: u64 = 0x0c3a_0a33_e79d_c37f;

/// Length and FNV-1a of the serve-journal binary journal.
pub const SERVE_JOURNAL: (usize, u64) = (1_536_872, 0x1d07_78ca_f0ef_41c7);

/// Canonical states and transitions of `check_opt` on the full 4-core ×
/// 4-line SecDir model. The checker takes no seed, so these hold at every
/// seed.
pub const CHECKER_FULL_SECDIR: (usize, usize) = (34_332, 1_276_060);

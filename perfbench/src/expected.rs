//! Output digests recorded for the default and held-out seeds.
//!
//! Every repetition's output is compared with the run's first output; for
//! these seeds it must also equal the digest recorded here, so a change
//! that moves a single simulated number on a workload fails its check. A
//! change that is meant to move simulated output re-records these.

use crate::workloads::{Digest, Size, Workload, Workload as W};

/// The seed the benchmark's figures are quoted at.
pub const DEFAULT_SEED: u64 = 1;
/// A seed held out while tuning; a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 2;

const fn d(events: u64, fingerprint: u64) -> Digest {
    Digest {
        events,
        fingerprint,
    }
}

/// `(workload, size, seed, cells, digest)` rows. `cells` is the number
/// of cells the trace is dealt into: the host's thread count on the
/// sharded workload, 1 elsewhere (the GEMM's output and tile-instruction
/// count do not depend on its core count).
const RECORDED: &[(Workload, Size, u64, usize, Digest)] = &[
    (
        W::FleetSteady,
        Size::Smoke,
        1,
        1,
        d(600, 0x8E03_0A78_C06D_972C),
    ),
    (
        W::FleetSteady,
        Size::Smoke,
        2,
        1,
        d(590, 0x876C_F2B9_7CC4_86F3),
    ),
    (
        W::FleetSessionsKv,
        Size::Smoke,
        1,
        1,
        d(1_671, 0x56E1_36C4_7779_CF86),
    ),
    (
        W::FleetSessionsKv,
        Size::Smoke,
        2,
        1,
        d(1_806, 0xD2FF_93CE_718F_94AC),
    ),
    (
        W::FleetShardedTp,
        Size::Smoke,
        1,
        2,
        d(800, 0x6D97_61FD_63DC_0F4B),
    ),
    (
        W::FleetShardedTp,
        Size::Smoke,
        2,
        2,
        d(800, 0xA738_C323_227C_9748),
    ),
    (
        W::GemmEmulation,
        Size::Smoke,
        1,
        1,
        d(128, 0x5C82_EBAB_301B_E673),
    ),
    (
        W::GemmEmulation,
        Size::Smoke,
        2,
        1,
        d(128, 0x2EEA_1327_9065_00F8),
    ),
    (
        W::FleetSteady,
        Size::Full,
        1,
        1,
        d(11_876, 0x32E5_3BB6_13E5_B56F),
    ),
    (
        W::FleetSteady,
        Size::Full,
        2,
        1,
        d(11_667, 0x3C83_6000_F702_03CB),
    ),
    (
        W::FleetSessionsKv,
        Size::Full,
        1,
        1,
        d(40_855, 0x80E3_7DC4_5C5D_820D),
    ),
    (
        W::FleetSessionsKv,
        Size::Full,
        2,
        1,
        d(42_221, 0x9441_B337_AF35_B198),
    ),
    (
        W::FleetShardedTp,
        Size::Full,
        1,
        2,
        d(24_000, 0x1737_ADFB_B265_9B52),
    ),
    (
        W::FleetShardedTp,
        Size::Full,
        2,
        2,
        d(24_000, 0xC449_4E5B_B166_F131),
    ),
    (
        W::GemmEmulation,
        Size::Full,
        1,
        1,
        d(401_408, 0x46CD_3270_EF50_378A),
    ),
    (
        W::GemmEmulation,
        Size::Full,
        2,
        1,
        d(401_408, 0xCBD1_953A_AB91_3482),
    ),
];

/// Checks `digest` against the one recorded for `workload` at `size`,
/// `seed` and `cells`. Passes when nothing is recorded for them.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_recorded(
    workload: Workload,
    size: Size,
    seed: u64,
    cells: usize,
    digest: Digest,
) -> Result<(), String> {
    let found = RECORDED
        .iter()
        .find(|r| r.0 == workload && r.1 == size && r.2 == seed && r.3 == cells);
    match found {
        Some(r) if r.4 != digest => Err(format!(
            "output {digest:?} differs from the {:?} recorded for seed {seed}",
            r.4
        )),
        _ => Ok(()),
    }
}

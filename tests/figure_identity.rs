//! Figure identity: the Fig. 11 experiment (the waveform-level 2 and
//! 11 Mbps 802.11b PER CDFs) is pinned by FNV-1a digests at reduced
//! parameters for three seeds — one digest of the printed report and one
//! of the per-location points behind it. The locations sit on the
//! sensitivity waterfall of both rates, where PERs are fractional, so a
//! receiver change that flips even one packet outcome moves a digest.
//! Speed-only changes to the PHY chain must leave these digests untouched.
//! One more case runs the default 40 packets per location, so the batch
//! shape the full figure uses is pinned too.

use interscatter::net::trace_digest::fnv1a_str;
use interscatter::sim::experiments::fig11;

fn fig11_digests(seed: u64) -> (u64, u64) {
    digests(&fig11::Fig11Params {
        locations: 6,
        packets_per_location: 8,
        rssi_range_dbm: (-95.0, -86.0),
        seed,
    })
}

fn digests(params: &fig11::Fig11Params) -> (u64, u64) {
    let points = fig11::run(params).unwrap();
    (
        fnv1a_str(&fig11::report(&points)),
        fnv1a_str(&format!("{points:?}")),
    )
}

/// `(seed, report digest, points digest)`, captured from the brute-force
/// CCK search that re-synthesised all 256 code words per block.
const PINNED: [(u64, u64, u64); 3] = [
    (0x11, 0x9182_7914_845C_7E8D, 0x952F_8A5C_5AAD_3238),
    (2, 0x21E2_2F81_70B6_6EEC, 0xB49B_64BE_799C_0EA2),
    (7, 0x8ECA_043A_4611_2867, 0x56FD_DF67_DD6F_F207),
];

#[test]
fn fig11_reports_match_their_pinned_digests() {
    let got: Vec<String> = PINNED
        .iter()
        .map(|&(seed, _, _)| {
            let (report, points) = fig11_digests(seed);
            format!("seed {seed:#x}: {report:#018x} {points:#018x}")
        })
        .collect();
    let want: Vec<String> = PINNED
        .iter()
        .map(|&(seed, report, points)| format!("seed {seed:#x}: {report:#018x} {points:#018x}"))
        .collect();
    assert_eq!(got, want);
}

/// `(report digest, points digest)` of the default 40 packets per location
/// at two locations on the waterfall of both rates (each rate has one
/// fractional PER), captured from the one-packet-at-a-time loop.
const PINNED_DEFAULT_BATCH: (u64, u64) = (0x085E_37D0_8C0F_41AA, 0x8F41_4EA0_76B3_1E20);

#[test]
fn fig11_default_batch_matches_its_pinned_digests() {
    let (report, points) = digests(&fig11::Fig11Params {
        locations: 2,
        rssi_range_dbm: (-92.0, -88.0),
        ..Default::default()
    });
    assert_eq!(
        (report, points),
        PINNED_DEFAULT_BATCH,
        "got ({report:#018x}, {points:#018x})"
    );
}

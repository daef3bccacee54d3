//! Pins what `MatrixSource::load` generates. Every modeled number a
//! served spec produces (`sim_ms_per_req`, the checked-in baselines, the
//! CLI digests) is a function of these operands, so a change to the
//! generators, their draw budget or the operand cache that moved one bit
//! would show here first. The digests were taken before the RMAT draw
//! budget and the operand cache existed.

use br_service::job::MatrixSource;
use br_sparse::hash::{fnv_mix, FNV_OFFSET};

/// `(structure_hash, FNV over the value bits)` of the loaded matrix.
fn digest(source: &MatrixSource) -> (u64, u64) {
    let m = source.load().unwrap();
    let values = m
        .val()
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv_mix(h, v.to_bits()));
    (m.structure_hash(), values)
}

fn rmat(scale: u32, edge_factor: usize, seed: u64) -> MatrixSource {
    MatrixSource::Rmat {
        scale,
        edge_factor,
        seed,
    }
}

#[test]
fn loaded_operands_hold_their_digests() {
    let cases = [
        (
            rmat(9, 8, 1),
            (0xfe80_dd6c_10aa_02d6, 0x43c1_8c58_eb9e_3409),
        ),
        (
            rmat(10, 8, 1),
            (0x68ae_9d02_ffca_d566, 0x12c3_453c_5a87_b992),
        ),
        (
            rmat(6, 4, 42),
            (0x5baf_fe16_7869_3ea4, 0x9664_cbbc_e492_920f),
        ),
        (
            MatrixSource::Dataset {
                name: "as-caida".into(),
                scale: 16,
            },
            (0x1779_8bb6_b49e_6da6, 0x0739_4d4d_3033_7021),
        ),
    ];
    for (source, expected) in cases {
        let got = digest(&source);
        assert_eq!(
            got, expected,
            "{source:?}: got ({:#x}, {:#x})",
            got.0, got.1
        );
    }
}

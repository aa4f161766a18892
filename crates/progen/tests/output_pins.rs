//! Byte-identity pins for the generator's output.
//!
//! Benchmark inputs, fixtures and test corpora are all built by
//! `generate`, so its output must stay the same for every (config, seed)
//! when its implementation changes. Each pin is the FNV-1a hash of the
//! printed source — stable across toolchains, unlike `std`'s hashers.

use modref_progen::{generate, GenConfig};

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const SEEDS: [u64; 3] = [0, 1, 42];

fn check(name: &str, config: &GenConfig, pinned: [u64; 3]) {
    let actual: Vec<u64> = SEEDS
        .iter()
        .map(|&seed| fnv1a(&generate(config, seed).to_source()))
        .collect();
    assert_eq!(
        actual, pinned,
        "{name}: generated source moved for seeds {SEEDS:?}"
    );
}

#[test]
fn fortran_like_output_is_pinned() {
    check(
        "fortran_like(1)",
        &GenConfig::fortran_like(1),
        [
            0x04c1_7366_4fd5_b4f6,
            0x7a83_76d7_bcd1_42fb,
            0x1eec_774b_eced_0841,
        ],
    );
    check(
        "fortran_like(8)",
        &GenConfig::fortran_like(8),
        [
            0x8287_5e5a_b280_dcad,
            0xadd0_aab1_f816_32b3,
            0x0924_44a2_d1ed_bff1,
        ],
    );
    check(
        "fortran_like(60)",
        &GenConfig::fortran_like(60),
        [
            0xac6f_760f_1b49_b041,
            0xf97f_2f88_4bc8_1703,
            0xbedb_e698_2694_057b,
        ],
    );
    check(
        "fortran_like(250)",
        &GenConfig::fortran_like(250),
        [
            0x335e_dbc6_26b7_3d2b,
            0x1182_100d_b1de_b4e8,
            0x0640_1572_f748_6deb,
        ],
    );
}

#[test]
fn pascal_like_output_is_pinned() {
    check(
        "pascal_like(6, 2)",
        &GenConfig::pascal_like(6, 2),
        [
            0xeb97_6fad_2af3_5229,
            0x30db_154d_6c8b_bc00,
            0xe24b_b101_7376_c62e,
        ],
    );
    check(
        "pascal_like(40, 3)",
        &GenConfig::pascal_like(40, 3),
        [
            0xda71_4ac4_69d1_d058,
            0x9af2_4762_9fba_d91d,
            0x40a3_0218_84e4_27f2,
        ],
    );
    check(
        "pascal_like(120, 4)",
        &GenConfig::pascal_like(120, 4),
        [
            0xbc61_d62b_3e17_02f0,
            0x073d_a49d_7b9e_7ee6,
            0xee8f_d6a7_649b_35af,
        ],
    );
    check(
        "pascal_like(250, 6)",
        &GenConfig::pascal_like(250, 6),
        [
            0x5e50_02a9_0262_6862,
            0xcd00_d503_6768_a313,
            0x9f01_e859_c379_e317,
        ],
    );
}

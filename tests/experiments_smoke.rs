//! Smoke test: every experiment of the reproduction suite runs end-to-end
//! in quick mode and produces a well-formed table, and every table is
//! byte-identical to its pinned digest.

use ringnet_repro::harness::experiments;

/// FNV-1a over the text rendering of each quick-mode table, in
/// `run_all` order. The tables are deterministic (sim-clock only, fixed
/// seeds), so a change meant to be neutral leaves every digest alone.
/// Re-golden a digest only when a change intends its table to move, and
/// write the reason beside the constant, as for the journal digests in
/// `journal_byte_identity.rs`.
const TABLE_DIGESTS: [(&str, u64); 13] = [
    ("F1", 0x4606_5979_9b4b_b9a7),
    ("T1", 0x5405_a863_ac94_699c),
    ("T2", 0xfe27_2456_2ce7_40a4),
    ("T3", 0x90f6_fa95_0139_1c56),
    ("E1", 0x3888_29ff_e599_212e),
    ("E2", 0x9163_901c_feb0_83a3),
    ("E3", 0x055f_b9a5_fe2e_2c2f),
    ("E4", 0x46fd_63f0_c206_b6d8),
    ("E5", 0xcab9_c66a_bcc8_73e0),
    ("E6", 0xbbb9_555b_481f_6d2a),
    ("E7", 0xa74b_9c8b_d88d_976b),
    ("E8", 0x2426_6463_2d07_4946),
    ("A1", 0xb18a_1082_9808_04b0),
];

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn all_experiments_produce_tables() {
    let tables = experiments::run_all(true);
    assert_eq!(
        tables.len(),
        13,
        "one table per paper artefact plus E8/A1 extensions"
    );
    let mut moved = Vec::new();
    for (table, (id, pinned)) in tables.iter().zip(TABLE_DIGESTS) {
        assert_eq!(table.id, id);
        assert!(!table.rows.is_empty(), "{id} has no rows");
        assert!(!table.columns.is_empty(), "{id} has no columns");
        for row in &table.rows {
            assert_eq!(row.len(), table.columns.len(), "{id} row arity");
        }
        // Text rendering and JSON serialisation both work.
        let text = table.to_string();
        assert!(text.contains(&table.id));
        let json = table.to_json();
        assert!(json.contains("\"rows\""));
        let got = fnv1a(&text);
        if got != pinned {
            moved.push(format!("{id}: {got:#018x} (pinned {pinned:#018x})"));
        }
    }
    assert!(
        moved.is_empty(),
        "quick-mode tables moved:\n{}",
        moved.join("\n")
    );
}

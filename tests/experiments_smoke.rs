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
    // Re-drawn when T3 evaluated Theorem 5.1 at τ = 0 instead of 5 ms (was
    // 0x90f6_fa95_0139_1c56): the WQ bounds fall 5 → 4 and 25 → 20, the
    // peaks and every other column stay.
    ("T3", 0x7203_89e2_8031_5a7c),
    ("E1", 0x3888_29ff_e599_212e),
    // Re-drawn when a lower ring's leader stopped acknowledging the ring's
    // last member (was 0x9163_901c_feb0_83a3): that member collects its
    // `MQ` sooner, so the catch-up a radius-0 graft draws repeats less of
    // what the walker has; dups fall 12 → 8. Every other column is
    // unedited.
    ("E2", 0x4db5_13ba_5a1b_e306),
    // Re-drawn when a quiet token came to be suspected after one
    // retry-chain window of 120 ms at the first ring member, checked every
    // hop tick, instead of after 400 ms on the heartbeat tick (was
    // 0x055f_b9a5_fe2e_2c2f): the max ordering stall falls 460 → 255 ms
    // when the member dies and 460 → 165 ms when the origin does. Every
    // other column is unedited. Re-drawn again when a real liveness probe
    // came to be confirmed on the hop tick, a round trip and a hop tick
    // after it went out, instead of on the next heartbeat tick (was
    // 0xdebe_9f1d_240b_a725): the dead member is excised before the
    // transfer to it gives up, so the token is re-aimed and no
    // regeneration is needed (stall 255 → 85 ms, regen used true →
    // false), and the dead origin is excised sooner (165 → 140 ms); the
    // note says so. Re-drawn again when a member with an unacknowledged
    // transfer came to count as live and the quiet window shrank to the
    // ring's circle and a hop tick (was 0x5ca0_9a65_9d21_6434): the dead
    // origin's token is regenerated sooner (140 → 95 ms).
    ("E3", 0x9f7b_2b92_e887_41d9),
    // Re-drawn when the unordered comparator came to run on the RingNet
    // engine (was 0x46fd_63f0_c206_b6d8): each stream's tree is rooted at
    // its own BR, so source 1's stream no longer crosses the top ring to
    // reach an AG ring that lists BR 1 as a candidate. Unordered p99 falls
    // 22.81 → 12.98 ms and the note says where the tree is rooted; the
    // ordered columns and the unordered p50 are unedited.
    ("E4", 0xe580_f4eb_3804_fa06),
    // Re-drawn when each link got its own loss stream (was
    // 0xcab9_c66a_bcc8_73e0): E5 sweeps wireless loss, and its losses
    // now fall on other packets. Every other table is unedited. Re-drawn
    // again (was 0x8721_9b7b_a467_74db) when an MH came to restate an
    // unmoved front only every second ack tick: each uplink sends fewer
    // acks, so its losses fall on other packets. At loss 0.1 / budget 5
    // the ratio goes 0.9994 → 1.0000 (1 → 0 lost, 66 → 64 duplicates); at
    // 0.3 / 0 it goes 0.6931 → 0.6919; at 0.3 / 5 the duplicates go
    // 116 → 114.
    ("E5", 0xd619_4955_c363_8e60),
    // Re-drawn when a static ring of one came to number each own-source
    // message as it arrives (was 0xbbb9_555b_481f_6d2a): the tree's root
    // no longer holds a message up to a hop tick for its GSN, so the last
    // ones reach every member before the run ends and the tree row's
    // deliveries go 1 596 → 1 600. Every other column is unedited.
    ("E6", 0xd0fc_5829_0c7f_e90c),
    ("E7", 0xa74b_9c8b_d88d_976b),
    ("E8", 0x2426_6463_2d07_4946),
    // Re-drawn when an AG ring's acknowledged data began answering the
    // liveness probe to its next member (was 0xb18a_1082_9808_04b0): the
    // core ctl / delivery column falls 0.545 → 0.495 and 0.451 → 0.413,
    // and the default's note with it. Every other column is unedited.
    // Re-drawn again when a lower ring's leader stopped acknowledging the
    // ring's last member (was 0x0e6b_7701_4f7c_7f62): the column falls
    // 0.495 → 0.432 and 0.413 → 0.381, the note with it. Re-drawn again
    // when an AG ring's leader came to be watched by its next member
    // instead of probed by its last (was 0x8783_122f_2a16_d31a): the
    // column falls 0.432 → 0.382 and 0.381 → 0.331, the note with it.
    ("A1", 0x4cda_67d2_8710_a9db),
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

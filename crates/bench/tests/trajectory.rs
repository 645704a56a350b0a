//! `BENCH_ringnet.json` is the performance trajectory: one entry per
//! landed PR, appended and never rewritten. Checked at the string level,
//! without a JSON parser.

const TRAJECTORY: &str = include_str!("../../../BENCH_ringnet.json");

#[test]
fn trajectory_is_v3_with_one_entry_per_pr_in_order() {
    assert!(TRAJECTORY.contains("\"schema\": \"ringnet-bench/v3\""));
    let prs: Vec<u32> = TRAJECTORY
        .split("\"pr\": ")
        .skip(1)
        .map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("\"pr\": is followed by a number")
        })
        .collect();
    assert!(!prs.is_empty(), "the trajectory has no entries");
    for w in prs.windows(2) {
        assert!(w[0] < w[1], "PR {} follows PR {}", w[1], w[0]);
    }
}

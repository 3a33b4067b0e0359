//! The paper's claims, scored: `lego_bench::paper` measures every row of
//! its `CLAIMS` table, and the two tests below hold the scorecard to the
//! flags and the floor written next to that table. The digits themselves are
//! pinned by `crates/bench/tests/golden/paper_tables.txt`.

use lego_bench::paper::{self, Claim, WITHIN_FLOOR};
use std::sync::LazyLock;

/// `(claim, ours, within)` of every scored row of every table.
static SCORED: LazyLock<Vec<(&Claim, f64, bool)>> = LazyLock::new(|| {
    let tables = paper::tables();
    tables.iter().flat_map(paper::Table::scored).collect()
});

#[test]
fn every_row_is_within_tolerance_xor_flagged_known_gap() {
    // A row that leaves tolerance fails here until it is flagged, and a gap
    // that closes fails here until its flag is deleted.
    let wrong: Vec<_> = SCORED
        .iter()
        .filter(|((.., known_gap), _, within)| within == known_gap)
        .collect();
    assert!(wrong.is_empty(), "flag disagrees with ours: {wrong:#?}");
}

#[test]
fn rows_within_tolerance_do_not_fall_below_the_floor() {
    let within = SCORED.iter().filter(|(_, _, within)| *within).count();
    assert!(
        within >= WITHIN_FLOOR,
        "{within} rows within tolerance, floor is {WITHIN_FLOOR}"
    );
}

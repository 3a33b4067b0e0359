//! Regenerates every figure and table of the paper's evaluation (Fig. 10–14,
//! Tables II–VIII), each followed by its scorecard lines against
//! `lego_bench::paper::CLAIMS`. Takes no arguments; the output is pinned by
//! `tests/golden/paper_tables.txt`.

use lego_bench::paper;

fn main() {
    let (mut within, mut scored) = (0, 0);
    for table in paper::tables() {
        let (w, s) = paper::print(&table);
        (within, scored) = (within + w, scored + s);
    }
    println!("\n{within} of {scored} rows within tolerance");
}

//! The paper's evaluation (§VI) as one claims table and eleven table
//! functions that measure it.
//!
//! [`CLAIMS`] is the only place a number from the paper is typed. Each table
//! function (`fig10()` … `table_viii()`) regenerates one figure or table and
//! returns the rows it prints plus the claims it measures with ours; [`print()`]
//! renders a table followed by one scorecard line per claim (the crate docs
//! say how to read one).
//!
//! Whether a row is within tolerance depends on its [`Unit`] class alone —
//! no row carries a tolerance of its own. A row outside tolerance must be
//! flagged `known_gap` and a row inside must not be
//! (`tests/paper_claims.rs`), so closing a gap means deleting its flag, and
//! `tests/golden/paper_tables.txt` pins every digit, so widening one fails.

use crate::harness::{adg, evaluate, geomean, mnicoc_tiny, price, row, section, tech_45nm};
use crate::kernel_designs;
use lego_backend::OptimizeOptions;
use lego_baselines::{
    dsagen_cost, naive_fusion_adg, per_fu_control_cost, shared_control_cost,
    simulate_model_gemmini, soda_perf,
};
use lego_eval::EvalSession;
use lego_ir::kernels::{self, dataflows};
use lego_ir::{Dataflow, DataflowBuilder, Workload};
use lego_model::HwConfig;
use lego_model::SpatialMapping::{ConvIcOc, ConvOhOw, GemmMN};
use lego_model::{DagCost, SramModel, TechModel};
use lego_workloads::zoo;

/// How a claim is compared with our measurement; the tolerance is a
/// function of this class and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A quantity, ratio or saving: within tolerance when the relative
    /// error is at most [`REL_TOL`].
    Rel,
    /// A percentage share of a whole (a breakdown, a utilisation): within
    /// tolerance when at most [`POINT_TOL`] percentage points away.
    Points,
    /// A "< x" claim: within tolerance when ours is below the bound.
    Below,
}
use Unit::{Below, Points, Rel};

/// Relative-error tolerance of [`Unit::Rel`] rows.
pub const REL_TOL: f64 = 0.20;
/// Absolute tolerance of [`Unit::Points`] rows, in percentage points.
pub const POINT_TOL: f64 = 5.0;
/// Rows within tolerance at this commit; `tests/paper_claims.rs` refuses
/// fewer, so a regression cannot be hidden behind a new `known_gap` flag.
pub const WITHIN_FLOOR: usize = 34;

/// One number from the paper: `(id, paper value, unit class, known_gap)`.
/// The id is `<table>.<row>`, measured by the table function of that name;
/// `known_gap` says the reproduction is known to be outside tolerance.
pub type Claim = (&'static str, f64, Unit, bool);

/// Whether `ours` reproduces a claim of `paper` within its unit's tolerance.
pub fn within(unit: Unit, paper: f64, ours: f64) -> bool {
    match unit {
        Rel => ((ours - paper) / paper).abs() <= REL_TOL,
        Points => (ours - paper).abs() <= POINT_TOL,
        Below => ours < paper,
    }
}

/// Every number of Fig. 10–14 and Tables II–VIII this repository measures.
pub const CLAIMS: &[Claim] = &[
    ("fig10.area_geomean", 1.5, Rel, true),
    ("fig10.energy_geomean", 1.4, Rel, false),
    ("fig11.alexnet.gemmini_gops", 118.0, Rel, true),
    ("fig11.mobilenetv2.gemmini_gops", 24.0, Rel, true),
    ("fig11.resnet50.gemmini_gops", 290.0, Rel, false),
    ("fig11.efficientnetv2.gemmini_gops", 131.0, Rel, true),
    ("fig11.bert.gemmini_gops", 159.0, Rel, true),
    ("fig11.gpt2.gemmini_gops", 11.0, Rel, true),
    ("fig11.coatnet.gemmini_gops", 143.0, Rel, true),
    ("fig11.alexnet.lego_gops", 241.0, Rel, false),
    ("fig11.mobilenetv2.lego_gops", 310.0, Rel, false),
    ("fig11.resnet50.lego_gops", 475.0, Rel, false),
    ("fig11.efficientnetv2.lego_gops", 430.0, Rel, false),
    ("fig11.bert.lego_gops", 456.0, Rel, false),
    ("fig11.gpt2.lego_gops", 29.0, Rel, true),
    ("fig11.coatnet.lego_gops", 441.0, Rel, false),
    ("fig11.speedup_geomean", 3.2, Rel, true),
    ("fig11.efficiency_geomean", 2.4, Rel, true),
    ("fig11.instr_bw_share", 1.0, Below, false),
    ("fig12a.area_mm2.fu_array_share", 7.0, Points, false),
    ("fig12a.area_mm2.buffers_share", 86.0, Points, false),
    ("fig12a.area_mm2.noc_share", 5.0, Points, false),
    ("fig12a.area_mm2.ppus_share", 2.0, Points, false),
    ("fig12a.area_mm2.total", 1.76, Rel, false),
    ("fig12a.power_mw.fu_array_share", 57.0, Points, true),
    ("fig12a.power_mw.buffers_share", 12.0, Points, true),
    ("fig12a.power_mw.noc_share", 26.0, Points, true),
    ("fig12a.power_mw.ppus_share", 5.0, Points, false),
    ("fig12a.power_mw.total", 285.0, Rel, true),
    ("fig12b.ppu_share_max", 7.2, Below, false),
    ("fig13_14.red_tree_area", 15.0, Rel, true),
    ("fig13_14.rewire_area", 15.0, Rel, true),
    ("fig13_14.pin_area", 5.0, Rel, true),
    ("fig13_14.area_saving", 35.0, Rel, true),
    ("fig13_14.power_saving", 28.0, Rel, true),
    ("fig13_14.gating_power", 1.4, Rel, false),
    ("table_ii.ddpm.util", 92.9, Points, false),
    ("table_ii.ddpm.gops", 1903.0, Rel, false),
    ("table_ii.ddpm.gops_per_w", 3165.0, Rel, true),
    ("table_ii.sd.util", 80.2, Points, true),
    ("table_ii.sd.gops", 1642.0, Rel, true),
    ("table_ii.sd.gops_per_w", 2731.0, Rel, true),
    ("table_ii.llama_bs1.util", 3.1, Points, false),
    ("table_ii.llama_bs1.gops", 63.0, Rel, false),
    ("table_ii.llama_bs1.gops_per_w", 105.0, Rel, false),
    ("table_ii.llama_bs32.util", 42.9, Points, true),
    ("table_ii.llama_bs32.gops", 878.0, Rel, true),
    ("table_ii.llama_bs32.gops_per_w", 1461.0, Rel, false),
    ("table_iii.khoh_area_mm2", 7.4, Rel, true),
    ("table_iii.khoh_power_mw", 112.0, Rel, true),
    ("table_iii.icoc_area_mm2", 1.5, Rel, true),
    ("table_iii.icoc_power_mw", 209.0, Rel, true),
    ("table_iv.gen_time_16k_s", 134.3, Rel, false),
    ("table_iv.area_64", 0.02, Rel, true),
    ("table_iv.area_16k", 4.21, Rel, true),
    ("table_iv.power_64", 29.0, Rel, false),
    ("table_iv.power_16k", 6987.0, Rel, true),
    ("table_iv.gops_per_w_min", 4400.0, Rel, true),
    ("table_iv.gops_per_w_max", 4850.0, Rel, true),
    ("table_iv.gops_per_w_flat", 1.1, Rel, true),
    ("table_v.power_icoc", 123.0, Rel, true),
    ("table_v.power_ohow", 155.0, Rel, true),
    ("table_v.power_merged", 196.0, Rel, true),
    ("table_v.power_fused", 163.0, Rel, false),
    ("table_v.fusion_win", 20.0, Rel, true),
    ("table_vi.dsagen_area_savings", 2.4, Rel, false),
    ("table_vi.dsagen_power_savings", 2.6, Rel, true),
    ("table_vi.tensorlib_area_savings", 2.0, Rel, true),
    ("table_vi.tensorlib_power_savings", 2.6, Rel, true),
    ("table_vi.autosa_ff_savings", 6.5, Rel, true),
    ("table_vi.autosa_lut_savings", 5.0, Rel, true),
    ("table_vi.soda_speedup", 14.0, Rel, true),
    ("table_vi.soda_energy_eff", 32.0, Rel, true),
    ("table_vii.lenet.soda_gflops", 0.90, Rel, false),
    ("table_vii.lenet.soda_gflops_per_w", 3.27, Rel, true),
    ("table_vii.lenet.lego_gflops", 10.23, Rel, true),
    ("table_vii.lenet.lego_gflops_per_w", 52.3, Rel, true),
    ("table_vii.mobilenetv2.soda_gflops", 0.87, Rel, false),
    ("table_vii.mobilenetv2.soda_gflops_per_w", 2.28, Rel, true),
    ("table_vii.mobilenetv2.lego_gflops", 14.21, Rel, false),
    ("table_vii.mobilenetv2.lego_gflops_per_w", 72.7, Rel, true),
    ("table_vii.resnet50.soda_gflops", 0.65, Rel, true),
    ("table_vii.resnet50.soda_gflops_per_w", 3.20, Rel, false),
    ("table_vii.resnet50.lego_gflops", 15.03, Rel, false),
    ("table_vii.resnet50.lego_gflops_per_w", 76.9, Rel, true),
    ("table_vii.lego_area_mm2", 0.945, Rel, false),
    ("table_viii.gemm_ij_autosa_ff", 25.4, Rel, true),
    ("table_viii.gemm_ij_autosa_lut", 23.9, Rel, true),
    ("table_viii.gemm_ij_ff", 3.9, Rel, false),
    ("table_viii.gemm_ij_lut", 4.8, Rel, true),
    ("table_viii.conv2d_ocoh_autosa_ff", 108.0, Rel, true),
    ("table_viii.conv2d_ocoh_autosa_lut", 120.0, Rel, true),
    ("table_viii.conv2d_ocoh_ff", 4.9, Rel, true),
    ("table_viii.conv2d_ocoh_lut", 4.2, Rel, true),
    ("table_viii.mttkrp_ij_autosa_ff", 96.0, Rel, true),
    ("table_viii.mttkrp_ij_autosa_lut", 92.4, Rel, true),
    ("table_viii.mttkrp_ij_ff", 4.9, Rel, false),
    ("table_viii.mttkrp_ij_lut", 4.7, Rel, true),
];

fn claim_by_id(id: &str) -> &'static Claim {
    let found = CLAIMS.iter().find(|c| c.0 == id);
    found.unwrap_or_else(|| panic!("`{id}` is measured but not in CLAIMS"))
}

/// One regenerated figure or table.
#[derive(Default)]
pub struct Table {
    /// `(title, rows)` per printed section; a section's first row is its
    /// column header, and a row is its cells.
    pub sections: Vec<(String, Vec<Vec<String>>)>,
    /// Each claim this table measures with ours; `None` marks a claim the
    /// harness does not score.
    pub measured: Vec<(&'static Claim, Option<f64>)>,
}

impl Table {
    /// Opens a section; `header`, like every row, is `|`-separated cells.
    fn section(mut self, title: impl Into<String>, header: &str) -> Self {
        self.sections.push((title.into(), Vec::new()));
        self.row(header);
        self
    }

    fn row(&mut self, cells: impl AsRef<str>) {
        let (_, rows) = self.sections.last_mut().expect("a section is open");
        rows.push(cells.as_ref().split('|').map(String::from).collect());
    }

    fn measure(&mut self, id: impl AsRef<str>, ours: f64) {
        self.measured.push((claim_by_id(id.as_ref()), Some(ours)));
    }

    /// `(claim, ours, within)` of every scored row.
    pub fn scored(&self) -> impl Iterator<Item = (&'static Claim, f64, bool)> + '_ {
        let measured = self.measured.iter();
        measured.filter_map(|&(c, ours)| Some((c, ours?, within(c.2, c.1, ours?))))
    }
}

fn scorecard_line(&(id, p, unit, known_gap): &Claim, ours: Option<f64>) -> String {
    let Some(ours) = ours else {
        return format!("{id:<39} | unscored: timed by benchmark/");
    };
    let (paper, error) = match unit {
        Rel => (p.to_string(), format!("{:+.1}%", 100.0 * (ours / p - 1.0))),
        Points => (format!("{p}%"), format!("{:+.1} pt", ours - p)),
        Below => (format!("< {p}"), "-".to_string()),
    };
    let verdict = match (within(unit, p, ours), known_gap) {
        (true, false) => "within",
        (false, true) => "known gap",
        _ => "FLAG DISAGREES",
    };
    format!("{id:<39} | {ours:>9.3} | {paper:>6} | {error:>8} | {verdict}")
}

/// Prints `table` and its scorecard lines; returns `(within, scored)`.
pub fn print(table: &Table) -> (usize, usize) {
    for (title, rows) in &table.sections {
        section(title);
        rows.iter().for_each(|cells| row(cells));
    }
    for (claim, ours) in &table.measured {
        println!("{}", scorecard_line(claim, *ours));
    }
    let within = table.scored().filter(|(_, _, within)| *within).count();
    (within, table.scored().count())
}

/// All eleven tables, in the paper's order.
pub fn tables() -> Vec<Table> {
    let tables: [fn() -> Table; 11] = [
        fig10, fig11, fig12, fig13_14, table_ii, table_iii, table_iv, table_v, table_vi, table_vii,
        table_viii,
    ];
    tables.iter().map(|table| table()).collect()
}

/// `Conv2d-OCOH` → `conv2d_ocoh`: a printed name as a claim-id component.
fn slug(name: &str) -> String {
    name.to_lowercase().replace(['-', ' '], "_")
}

/// SRAM macros at `node_nm`: the 28 nm fit with area scaled by λ².
fn sram_at(node_nm: f64) -> SramModel {
    SramModel {
        area_um2_per_byte: SramModel::default().area_um2_per_byte * (node_nm / 28.0).powi(2),
        ..SramModel::default()
    }
}

/// Fully optimized cost of `workload` under `dataflows` at full activity.
fn full_cost(workload: &Workload, dataflows: &[Dataflow], tech: &TechModel) -> DagCost {
    let full = OptimizeOptions::default();
    price(&adg(workload, dataflows), &full, tech, 1.0)
}

/// Figure 10: area and energy savings of the back-end optimizations on the
/// eleven kernel/dataflow design points, relative to the mandatory
/// delay-matching-only baseline.
pub fn fig10() -> Table {
    let tech = TechModel::default();
    let mut t = Table::default().section(
        "Figure 10: LEGO optimization area/energy savings (vs delay-matching-only)",
        "design|area x|energy x",
    );
    let (mut areas, mut energies) = (Vec::new(), Vec::new());
    for d in kernel_designs(8) {
        let adg = adg(&d.workload, &d.dataflows);
        let base = price(&adg, &OptimizeOptions::baseline(), &tech, 1.0);
        let opt = price(&adg, &OptimizeOptions::default(), &tech, 1.0);
        let area = base.area_um2 / opt.area_um2;
        let energy = base.total_mw() / opt.total_mw();
        t.row(format!("{}|{area:.2}|{energy:.2}", d.name));
        areas.push(area);
        energies.push(energy);
    }
    let (area, energy) = (geomean(&areas), geomean(&energies));
    t.row(format!("GEOMEAN|{area:.2}|{energy:.2}"));
    t.measure("fig10.area_geomean", area);
    t.measure("fig10.energy_geomean", energy);
    t
}

/// Figure 11: end-to-end performance and energy efficiency of Gemmini vs
/// LEGO on seven NN models, 256 MACs / 256 KB / 16 GB/s each, plus the
/// §VI-B(e) check that the instruction stream stays a small share of DRAM
/// bandwidth.
pub fn fig11() -> Table {
    let (session, tech) = (EvalSession::new(), TechModel::default());
    let hw = HwConfig::lego_256();
    let mut t = Table::default().section(
        "Figure 11: end-to-end Gemmini vs LEGO (256 MACs, 256 KB, 16 GB/s)",
        "model|Gemmini GOP/s|LEGO GOP/s|speedup|Gem GOPS/W|LEGO GOPS/W|eff x|instr GB/s",
    );
    let (mut speedups, mut effs, mut instr_share) = (Vec::new(), Vec::new(), 0.0f64);
    for m in zoo::figure11_models() {
        let g = simulate_model_gemmini(&m, &tech);
        let l = evaluate(&session, &m, &hw, &tech).model;
        let (sp, ef) = (l.gops / g.gops, l.gops_per_watt / g.gops_per_watt);
        speedups.push(sp);
        effs.push(ef);
        instr_share = instr_share.max(100.0 * l.instr_gbps / hw.dram_gbps);
        t.row(format!(
            "{}|{:.0}|{:.0}|{sp:.2}|{:.0}|{:.0}|{ef:.2}|{:.3}",
            m.name, g.gops, l.gops, g.gops_per_watt, l.gops_per_watt, l.instr_gbps
        ));
        t.measure(format!("fig11.{}.gemmini_gops", slug(&m.name)), g.gops);
        t.measure(format!("fig11.{}.lego_gops", slug(&m.name)), l.gops);
    }
    let (sp, ef) = (geomean(&speedups), geomean(&effs));
    t.row(format!("GEOMEAN|-|-|{sp:.2}|-|-|{ef:.2}|-"));
    t.measure("fig11.speedup_geomean", sp);
    t.measure("fig11.efficiency_geomean", ef);
    t.measure("fig11.instr_bw_share", instr_share);
    t
}

/// Figure 12: (a) area and on-chip power breakdown of the 256-FU
/// LEGO-MNICOC design and (b) the end-to-end latency share of the
/// post-processing units.
pub fn fig12() -> Table {
    let tech = TechModel::default();
    let sram = SramModel::default();

    // The LEGO-MNICOC FU array: fused GEMM-MN + Conv ICOC on 16×16.
    let gemm = kernels::gemm(64, 64, 64);
    let conv = kernels::conv2d(1, 16, 16, 64, 64, 3, 3, 1);
    let mn = full_cost(&gemm, &[dataflows::gemm_ij(&gemm, 16)], &tech);
    let icoc = full_cost(&conv, &[dataflows::conv_icoc(&conv, 16)], &tech);

    let buf = 256 * 1024u64;
    // L1 butterfly + distribution switches.
    let bf = lego_noc::Butterfly::with_endpoints(32);
    let area = [
        mn.area_um2.max(icoc.area_um2),
        sram.area_um2(buf, 32),
        bf.switch_count() as f64 * 2.0 * 64.0 * tech.mux_area_um2_per_bit
            + 3000.0 * tech.ff_area_um2,
        // 16 PPUs: 256-entry LUT + 16-wide reduction each.
        16.0 * (256.0 * 16.0 * 0.35 + 15.0 * 16.0 * tech.lut_area_um2),
    ];
    let power = [
        mn.total_mw().max(icoc.total_mw()),
        // ~64 B/cycle
        sram.leakage_uw(buf) / 1000.0 + sram.access_energy_pj(buf, 64) * tech.freq_ghz,
        64.0 * tech.noc_pj_per_byte_hop * bf.stages() as f64 * tech.freq_ghz,
        16.0 * 0.9,
    ];

    // (what, column, parts, printed scale, decimals of a part and of the total)
    let mut t = Table::default();
    for (what, column, parts, scale, decimals) in [
        ("area", "area mm2", area, 1e6, (3, 2)),
        ("on-chip power", "power mW", power, 1.0, (1, 1)),
    ] {
        let title = format!("Figure 12a: {what} breakdown of LEGO-MNICOC");
        t = t.section(title, &format!("component|{column}|share %"));
        let key = slug(column);
        let total: f64 = parts.iter().sum();
        let names = ["FU array", "Buffers", "NoC", "PPUs"];
        for (name, part) in names.into_iter().zip(parts) {
            let share = 100.0 * part / total;
            t.row(format!("{name}|{:.*}|{share:.1}", decimals.0, part / scale));
            t.measure(format!("fig12a.{key}.{}_share", slug(name)), share);
        }
        t.row(format!("TOTAL|{:.*}|100.0", decimals.1, total / scale));
        t.measure(format!("fig12a.{key}.total"), total / scale);
    }

    let title = "Figure 12b: post-processing share of end-to-end latency";
    t = t.section(title, "model|PPU %");
    let (session, hw) = (EvalSession::new(), HwConfig::lego_256());
    let mut ppu_max = 0.0f64;
    for m in zoo::figure11_models() {
        let share = 100.0 * evaluate(&session, &m, &hw, &tech).model.ppu_fraction;
        ppu_max = ppu_max.max(share);
        t.row(format!("{}|{share:.1}", m.name));
    }
    t.measure("fig12b.ppu_share_max", ppu_max);
    t
}

/// Figures 13 and 14: contribution of each back-end pass to the area and
/// power savings, per kernel design.
pub fn fig13_14() -> Table {
    let tech = TechModel::default();
    let mut t = Table::default().section(
        "Figures 13/14: per-pass area & power savings vs baseline",
        "design|red.tree A%|rewire A%|pin A%|total A%|total P%|gating P%",
    );
    // Per design: the six printed savings, in column order.
    let mut savings = Vec::new();
    for d in kernel_designs(8) {
        let adg = adg(&d.workload, &d.dataflows);
        // Switch the passes on one after another.
        let mut opts = OptimizeOptions::baseline();
        let base = price(&adg, &opts, &tech, 1.0);
        opts.reduction_tree = true;
        let red = price(&adg, &opts, &tech, 1.0);
        opts.broadcast_rewire = true;
        let rewire = price(&adg, &opts, &tech, 1.0);
        opts.pin_reuse = true;
        let pin = price(&adg, &opts, &tech, 1.0);
        opts.power_gating = true;
        let full = price(&adg, &opts, &tech, 1.0);

        let pct = |a: f64, b: f64| 100.0 * (1.0 - b / a);
        let row = [
            pct(base.area_um2, red.area_um2),
            pct(red.area_um2, rewire.area_um2),
            pct(rewire.area_um2, pin.area_um2),
            pct(base.area_um2, full.area_um2),
            pct(base.total_mw(), full.total_mw()),
            pct(pin.total_mw(), full.total_mw()),
        ];
        let cells = row.map(|v| format!("{v:.1}")).join("|");
        t.row(format!("{}|{cells}", d.name));
        savings.push(row);
    }
    let column = |i: usize| savings.iter().map(move |row| row[i]);
    let mean = |i| column(i).sum::<f64>() / savings.len() as f64;
    let total = |i| {
        let kept: Vec<f64> = column(i).map(|v| 1.0 - v / 100.0).collect();
        100.0 * (1.0 - geomean(&kept))
    };
    let (area, power) = (total(3), total(4));
    t.row(format!("GEOMEAN|-|-|-|{area:.1}|{power:.1}|-"));
    t.measure("fig13_14.red_tree_area", mean(0));
    t.measure("fig13_14.rewire_area", mean(1));
    t.measure("fig13_14.pin_area", mean(2));
    t.measure("fig13_14.area_saving", area);
    t.measure("fig13_14.power_saving", power);
    t.measure("fig13_14.gating_power", mean(5));
    t
}

/// Table II: large generative models on LEGO-ICOC-1K (1024 FUs, 576 KB,
/// 32 PPUs, 32 GB/s).
pub fn table_ii() -> Table {
    let (session, hw) = (EvalSession::new(), HwConfig::lego_icoc_1k());
    let mut t = Table::default().section(
        "Table II: generative models on LEGO-ICOC-1K (1024 FUs, 32 GB/s)",
        "model|util %|GOP/s|GOPS/W",
    );
    for (key, m) in [
        ("ddpm", zoo::ddpm()),
        ("sd", zoo::stable_diffusion()),
        ("llama_bs1", zoo::llama7b_decode(1)),
        ("llama_bs32", zoo::llama7b_decode(32)),
    ] {
        let p = evaluate(&session, &m, &hw, &TechModel::default()).model;
        let (util, eff) = (100.0 * p.utilization, p.gops_per_watt);
        t.row(format!("{}|{util:.1}|{:.0}|{eff:.0}", m.name, p.gops));
        t.measure(format!("table_ii.{key}.util"), util);
        t.measure(format!("table_ii.{key}.gops"), p.gops);
        t.measure(format!("table_ii.{key}.gops_per_w"), eff);
    }
    t
}

/// Table III: LEGO-generated designs vs expert handwritten accelerators on
/// the same dataflows: Eyeriss (KH-OH parallel, 168 FUs, 65 nm class,
/// 200 MHz) and NVDLA (IC-OC parallel, 256 FUs, 28 nm, 1 GHz). The
/// handwritten rows are the figures the paper quotes for them.
pub fn table_iii() -> Table {
    let mut t = Table::default().section(
        "Table III: handwritten vs LEGO-generated (same dataflow)",
        "design|#FUs|area mm2|power mW",
    );
    let full = OptimizeOptions::default();

    // LEGO-KHOH: 3×56 = 168 FUs on the Eyeriss dataflow, 65 nm @ 200 MHz.
    let mut t65 = TechModel::default().scaled_to(65.0);
    t65.freq_ghz = 0.2;
    let conv = kernels::conv2d(1, 4, 4, 56, 56, 3, 3, 1);
    let khoh = adg(&conv, &[dataflows::conv_khoh(&conv, 3, 56)]);
    let c = price(&khoh, &full, &t65, 0.8);
    let sram65 = sram_at(65.0);
    let buf = 108 * 1024u64; // Eyeriss's 108 KB scratchpad
    let area = (c.area_um2 + sram65.area_um2(buf, 27)) / 1e6;
    let power = c.total_mw() + sram65.leakage_uw(buf) / 1000.0 + 12.0;
    t.row("Eyeriss (paper)|168|9.6|278");
    t.row(format!("LEGO-KHOH|168|{area:.1}|{power:.0}"));
    t.measure("table_iii.khoh_area_mm2", area);
    t.measure("table_iii.khoh_power_mw", power);

    // LEGO-ICOC: 16×16 on the NVDLA dataflow, 28 nm @ 1 GHz.
    let t28 = TechModel::default();
    let conv = kernels::conv2d(1, 16, 16, 32, 32, 3, 3, 1);
    let icoc = adg(&conv, &[dataflows::conv_icoc(&conv, 16)]);
    let c = price(&icoc, &full, &t28, 0.9);
    let (sram, buf) = (SramModel::default(), 128 * 1024u64);
    let area = (c.area_um2 + sram.area_um2(buf, 16)) / 1e6;
    let power = c.total_mw()
        + sram.leakage_uw(buf) / 1000.0
        + sram.access_energy_pj(buf, 48) * t28.freq_ghz;
    t.row("NVDLA (paper)|256|1.7|300");
    t.row(format!("LEGO-ICOC|256|{area:.1}|{power:.0}"));
    t.measure("table_iii.icoc_area_mm2", area);
    t.measure("table_iii.icoc_power_mw", power);
    t
}

/// Table IV: cost and efficiency when scaling the design from 64 to
/// 16 384 FUs. Up to 1024 FUs the array itself grows; beyond that, PE
/// clusters scale out over the L2 wormhole NoC. The paper's generation-time
/// column is not reproduced: the `gen_*` workloads of `benchmark/` are what
/// times the generator.
pub fn table_iv() -> Table {
    let (session, tech) = (EvalSession::new(), TechModel::default());
    let sram = SramModel::default();
    let mut t = Table::default().section(
        "Table IV: scaling from 64 to 16384 FUs",
        "#FUs|array|L2 NoC|area mm2|power mW|GOPS/W",
    );
    let gen_time = claim_by_id("table_iv.gen_time_16k_s");
    t.measured.push((gen_time, None));

    // Per scale point: (area mm², power mW, GOPS/W).
    let mut points = Vec::new();
    for (fus, p, (cx, cy)) in [
        (64u64, 8i64, (1u32, 1u32)),
        (256, 16, (1, 1)),
        (1024, 32, (1, 1)),
        (4096, 32, (2, 2)),
        (16384, 32, (4, 4)),
    ] {
        let gemm = kernels::gemm(2 * p, 2 * p, 2 * p);
        let adg = adg(&gemm, &[dataflows::gemm_ij(&gemm, p)]);
        let c = price(&adg, &OptimizeOptions::default(), &tech, 0.9);

        let clusters = u64::from(cx * cy);
        let n = clusters as f64;
        let buf = 64 * 1024 * (fus / 64).max(1); // buffers scale with FUs
        let mut area = (c.area_um2 * n + sram.area_um2(buf, 16)) / 1e6;
        let mut power = c.total_mw() * n
            + sram.leakage_uw(buf) / 1000.0
            + sram.access_energy_pj(buf, 16 * clusters) * tech.freq_ghz;
        if clusters > 1 {
            // Wormhole L2: routers + links, < 10% of the array cost.
            let routers = lego_noc::Mesh::new(cx, cy, 16, 1).routers();
            area += lego_model::l2_router_area_um2(routers, &tech) / 1e6;
            power += routers as f64 * 16.0 * tech.noc_pj_per_byte_hop * tech.freq_ghz;
        }

        let hw = HwConfig {
            array: (p, p),
            clusters: (cx, cy),
            // `buf` is the chip-total pool; HwConfig takes the per-cluster
            // share (each cluster tiles against its own buffer).
            buffer_kb: buf / 1024 / clusters,
            dram_gbps: 16.0 * n,
            num_ppus: 16,
            dataflows: vec![GemmMN, ConvIcOc],
            static_mw: power * 0.2,
            dynamic_mw: power * 0.8,
        };
        let perf = evaluate(&session, &zoo::resnet50(), &hw, &tech).model;
        let eff = perf.gops_per_watt;
        let grid = format!("{p}x{p}|{cx}x{cy}");
        t.row(format!("{fus}|{grid}|{area:.2}|{power:.0}|{eff:.0}"));
        points.push((area, power, eff));
    }
    let (first, last) = (points[0], points[points.len() - 1]);
    let eff_min = points.iter().map(|p| p.2).fold(f64::INFINITY, f64::min);
    let eff_max = points.iter().map(|p| p.2).fold(0.0, f64::max);
    t.measure("table_iv.area_64", first.0);
    t.measure("table_iv.area_16k", last.0);
    t.measure("table_iv.power_64", first.1);
    t.measure("table_iv.power_16k", last.1);
    t.measure("table_iv.gops_per_w_min", eff_min);
    t.measure("table_iv.gops_per_w_max", eff_max);
    t.measure("table_iv.gops_per_w_flat", eff_max / eff_min);
    t
}

/// Table V: efficacy of fusing multiple dataflows in a single design.
/// Single-dataflow designs vs a naive mux-merge of their interconnects vs
/// the heuristic-optimized fusion (§IV-C).
pub fn table_v() -> Table {
    let (session, tech) = (EvalSession::new(), TechModel::default());
    let conv = kernels::conv2d(1, 16, 16, 64, 64, 3, 3, 1);
    let icoc = dataflows::conv_icoc(&conv, 16);
    let ohow = dataflows::conv_ohow(&conv, 16);
    // A third configuration with a different output-plane aspect ratio:
    // its chains overlap the 16x16 OHOW ones, which is where the heuristic
    // re-uses connections that a naive merge duplicates.
    let wide = DataflowBuilder::new(&conv).par("oh", 4).par("ow", 64);
    let wide = wide.build("Conv2d-OHOW-4x64").expect("valid dataflow");
    let all = [icoc.clone(), ohow.clone(), wide];

    let full = OptimizeOptions::default();
    let merged = price(&naive_fusion_adg(&conv, &all), &full, &tech, 1.0);
    let fused = full_cost(&conv, &all, &tech);
    let solo_icoc = full_cost(&conv, &[icoc], &tech);
    let solo_ohow = full_cost(&conv, &[ohow], &tech);

    let mut t = Table::default().section(
        "Table V: dataflow fusion efficacy (Conv2d ICOC + OHOW, 256 FUs)",
        "design|FU power mW|MBV2 GOP/s|MBV2 GOPS/W|RN50 GOP/s|RN50 GOPS/W",
    );
    for (name, key, cost, convs) in [
        ("ICOC only", "icoc", solo_icoc, &[ConvIcOc][..]),
        ("OHOW only", "ohow", solo_ohow, &[ConvOhOw]),
        ("simply merged", "merged", merged, &[ConvIcOc, ConvOhOw]),
        ("LEGO fused", "fused", fused, &[ConvIcOc, ConvOhOw]),
    ] {
        // Performance side: what each hardware achieves on MBV2 and ResNet50.
        let power = cost.total_mw();
        let hw = HwConfig {
            static_mw: power * 0.25,
            dynamic_mw: power * 0.75,
            dataflows: [convs, &[GemmMN]].concat(),
            ..HwConfig::lego_256()
        };
        let mbv2 = evaluate(&session, &zoo::mobilenet_v2(), &hw, &tech).model;
        let rn = evaluate(&session, &zoo::resnet50(), &hw, &tech).model;
        t.row(format!(
            "{name}|{power:.0}|{:.0}|{:.0}|{:.0}|{:.0}",
            mbv2.gops, mbv2.gops_per_watt, rn.gops, rn.gops_per_watt
        ));
        t.measure(format!("table_v.power_{key}"), power);
    }
    let win = 100.0 * (1.0 - fused.total_mw() / merged.total_mw());
    t.measure("table_v.fusion_win", win);
    t
}

/// Table VI: improvement factors of LEGO over related generators at equal
/// latency, derived from the structural baseline models: DSAGen's switch
/// fabric, TensorLib's per-FU (STT) control, AutoSA's polyhedral per-PE
/// control, and SODA's HLS pipeline.
pub fn table_vi() -> Table {
    let tech = TechModel::default();
    let gemm = kernels::gemm(64, 64, 64);
    let df = [dataflows::gemm_ij(&gemm, 8)];
    let lego = shared_control_cost(&gemm, &df, &tech);
    let dsa = dsagen_cost(&gemm, &df, 64, &tech);
    let stt = per_fu_control_cost(&gemm, &df, &tech);
    let area = |c: &DagCost| c.area_um2 / lego.area_um2;
    let power = |c: &DagCost| c.total_mw() / lego.total_mw();

    // SODA on MobileNetV2 with LEGO-MNICOC-Tiny at 45 nm / 500 MHz.
    let m = zoo::mobilenet_v2();
    let session = EvalSession::new();
    let tiny = evaluate(&session, &m, &mnicoc_tiny(), &tech_45nm()).model;
    let (soda_gflops, soda_eff, _) = soda_perf(&m);

    let mut t = Table::default().section(
        "Table VI: LEGO improvement over related work (GEMM-IJ, 8x8)",
        "vs|metric|factor|paper",
    );
    // (vs, metric, ours, decimals the paper gives the factor to)
    for (vs, metric, ours, decimals) in [
        ("DSAGen", "area savings", area(&dsa), 1),
        ("DSAGen", "power savings", power(&dsa), 1),
        ("TensorLib", "area savings", area(&stt), 1),
        ("TensorLib", "power savings", power(&stt), 1),
        ("AutoSA", "FF savings", stt.fpga.ff / lego.fpga.ff, 1),
        ("AutoSA", "LUT savings", stt.fpga.lut / lego.fpga.lut, 1),
        ("SODA", "speedup", tiny.gops / soda_gflops, 0),
        ("SODA", "energy eff", tiny.gops_per_watt / soda_eff, 0),
    ] {
        let id = format!("table_vi.{}", slug(&format!("{vs} {metric}")));
        let paper = claim_by_id(&id).1;
        t.row(format!("{vs}|{metric}|{ours:.1}|{paper:.decimals$}x"));
        t.measure(&id, ours);
    }
    t
}

/// Table VII: LEGO (MNICOC-Tiny, 16 FUs) vs the SODA+MLIR+Bambu toolchain
/// at FreePDK 45 nm / 500 MHz on LeNet, MobileNetV2 and ResNet50.
pub fn table_vii() -> Table {
    let t45 = tech_45nm();

    // Generate the 16-FU MNICOC-Tiny and price it at 45 nm.
    let conv = kernels::conv2d(1, 4, 4, 16, 16, 3, 3, 1);
    let icoc = dataflows::conv_icoc(&conv, 4);
    let c = full_cost(&conv, &[icoc, dataflows::conv_ohow(&conv, 4)], &t45);
    let area = (c.area_um2 + sram_at(45.0).area_um2(64 * 1024, 8)) / 1e6;
    let tiny = HwConfig {
        static_mw: c.static_mw + 8.0,
        dynamic_mw: c.dynamic_mw + 40.0,
        ..mnicoc_tiny()
    };

    let session = EvalSession::new();
    let mut t = Table::default().section(
        "Table VII: SODA toolchain vs LEGO-MNICOC-Tiny (45 nm, 500 MHz)",
        "model|SODA GFLOPS|SODA GF/W|SODA mm2|LEGO GFLOPS|LEGO GF/W|LEGO mm2",
    );
    for m in [zoo::lenet(), zoo::mobilenet_v2(), zoo::resnet50()] {
        let (sg, se, sa) = soda_perf(&m);
        let p = evaluate(&session, &m, &tiny, &t45).model;
        let (lg, le) = (p.gops, p.gops_per_watt);
        let soda = format!("{sg:.2}|{se:.2}|{sa:.2}");
        t.row(format!("{}|{soda}|{lg:.2}|{le:.1}|{area:.3}", m.name));
        let key = slug(&m.name);
        t.measure(format!("table_vii.{key}.soda_gflops"), sg);
        t.measure(format!("table_vii.{key}.soda_gflops_per_w"), se);
        t.measure(format!("table_vii.{key}.lego_gflops"), lg);
        t.measure(format!("table_vii.{key}.lego_gflops_per_w"), le);
    }
    t.measure("table_vii.lego_area_mm2", area);
    t
}

/// Table VIII: FF/LUT resources (in thousands) of LEGO vs AutoSA for the
/// same 8×8 designs. AutoSA's polyhedral representation instantiates
/// control per PE (the paper's §III-D analysis), which is what the
/// per-FU-control structural baseline reproduces.
pub fn table_viii() -> Table {
    let tech = TechModel::default();
    let mut t = Table::default().section(
        "Table VIII: FF/LUT vs AutoSA (8x8 arrays)",
        "kernel|AutoSA FF|AutoSA LUT|LEGO FF|LEGO LUT|FF save x|LUT save x",
    );
    let gemm = kernels::gemm(64, 64, 64);
    let conv = kernels::conv2d(1, 8, 8, 32, 32, 3, 3, 1);
    let mtt = kernels::mttkrp(32, 32, 8, 8);
    let ocoh = dataflows::par2(&conv, "oc", 8, "oh", 8, "Conv2d-OCOH");
    for (name, w, df) in [
        ("GEMM-IJ", &gemm, dataflows::gemm_ij(&gemm, 8)),
        ("Conv2d-OCOH", &conv, ocoh.expect("valid dataflow")),
        ("MTTKRP-IJ", &mtt, dataflows::mttkrp_ij(&mtt, 8)),
    ] {
        let df = [df];
        let lego = shared_control_cost(w, &df, &tech).fpga;
        let autosa = per_fu_control_cost(w, &df, &tech).fpga;
        let counts = [autosa.ff, autosa.lut, lego.ff, lego.lut].map(|v| v / 1e3);
        let saved = [autosa.ff / lego.ff, autosa.lut / lego.lut];
        let cells = counts.iter().chain(&saved).map(|v| format!("|{v:.1}"));
        t.row(format!("{name}{}", cells.collect::<String>()));
        let keys = ["autosa_ff", "autosa_lut", "ff", "lut"];
        for (key, ours) in keys.into_iter().zip(counts) {
            t.measure(format!("table_viii.{}_{key}", slug(name)), ours);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_claim_is_measured_by_exactly_one_table() {
        // `measure` refuses ids that are not in CLAIMS; the reverse: the
        // measured ids are the claimed ids, each once.
        let tables = tables();
        let measured = tables.iter().flat_map(|t| &t.measured);
        let mut measured: Vec<&str> = measured.map(|(c, _)| c.0).collect();
        let mut claimed: Vec<&str> = CLAIMS.iter().map(|c| c.0).collect();
        measured.sort_unstable();
        claimed.sort_unstable();
        assert_eq!(measured, claimed);
        claimed.dedup();
        assert_eq!(claimed.len(), CLAIMS.len(), "duplicate claim id");
    }
}

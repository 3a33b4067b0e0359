//! The joint hardware design space: genomes and the axes they move on.

use crate::rng::SplitMix64;
use lego_eval::FnvHasher;
use lego_model::{HwConfig, SparseAccel, SpatialMapping};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A set of fused dataflows, packed as a bitmask over [`SpatialMapping::ALL`].
///
/// Fusing more dataflows lets the mapper rescue more layer shapes (the
/// paper's Table V mechanism) but costs interconnect muxing; the explorer
/// treats the fused set as one genome axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataflowSet(u8);

impl DataflowSet {
    /// Builds a set from explicit mappings.
    ///
    /// # Panics
    ///
    /// Panics if `mappings` is empty.
    pub fn new(mappings: &[SpatialMapping]) -> Self {
        assert!(!mappings.is_empty(), "a design needs at least one dataflow");
        let mut bits = 0u8;
        for m in mappings {
            let idx = SpatialMapping::ALL
                .iter()
                .position(|a| a == m)
                .expect("known mapping");
            bits |= 1 << idx;
        }
        DataflowSet(bits)
    }

    /// The mappings in canonical order.
    pub fn to_vec(self) -> Vec<SpatialMapping> {
        SpatialMapping::ALL
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.0 & (1 << i) != 0)
            .map(|(_, &m)| m)
            .collect()
    }

    /// Number of fused dataflows.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Always false: sets are non-empty by construction.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    pub fn contains(self, m: SpatialMapping) -> bool {
        let idx = SpatialMapping::ALL
            .iter()
            .position(|a| *a == m)
            .expect("known mapping");
        self.0 & (1 << idx) != 0
    }

    /// The raw bitmask over [`SpatialMapping::ALL`] — the set's wire encoding.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds a set from its [`DataflowSet::bits`] encoding. `None` for
    /// an empty set or for bits outside [`SpatialMapping::ALL`].
    pub fn from_bits(bits: u8) -> Option<Self> {
        let valid = (1u8 << SpatialMapping::ALL.len()) - 1;
        if bits == 0 || bits & !valid != 0 {
            return None;
        }
        Some(DataflowSet(bits))
    }
}

impl fmt::Display for DataflowSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.to_vec().iter().map(|m| m.name()).collect();
        write!(f, "{}", names.join("+"))
    }
}

/// One candidate hardware configuration — the unit the search mutates,
/// crosses over, caches, and evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Genome {
    /// FU array rows.
    pub rows: i64,
    /// FU array columns.
    pub cols: i64,
    /// L2 cluster grid (1×1 = single array). Multi-cluster designs pay
    /// modeled wormhole-mesh latency and router area through the cost
    /// stack, so this axis is a real latency/energy/area trade-off.
    pub clusters: (u32, u32),
    /// On-chip buffer capacity in KB.
    pub buffer_kb: u64,
    /// DRAM bandwidth in GB/s.
    pub dram_gbps: u32,
    /// Fused spatial dataflows.
    pub dataflows: DataflowSet,
    /// Optional L1 tile-edge cap (`None` = buffer-limited automatic tiling).
    pub tile_cap: Option<i64>,
    /// Sparse acceleration feature on the PE datapath. Gating/skipping
    /// frontends cost area on every FU but pay back on sparse layers, so
    /// this axis is an honest area-vs-EDP trade-off (and a pure area loss
    /// on dense models — the search must discover that, not assume it).
    pub sparse: SparseAccel,
}

impl Genome {
    /// The genome whose [`HwConfig`] is exactly the paper's hand-picked
    /// `lego_256` baseline — the anchor the explorer must beat.
    pub fn lego_256_baseline() -> Self {
        Genome {
            rows: 16,
            cols: 16,
            clusters: (1, 1),
            buffer_kb: 256,
            dram_gbps: 16,
            dataflows: DataflowSet::new(&[
                SpatialMapping::GemmMN,
                SpatialMapping::ConvIcOc,
                SpatialMapping::ConvOhOw,
            ]),
            tile_cap: None,
            sparse: SparseAccel::None,
        }
    }

    /// Number of L2 clusters.
    pub fn num_clusters(&self) -> i64 {
        i64::from(self.clusters.0) * i64::from(self.clusters.1)
    }

    /// Total functional units across all clusters.
    pub fn num_fus(&self) -> i64 {
        self.rows * self.cols * self.num_clusters()
    }

    /// Materializes the simulator's hardware configuration.
    ///
    /// PPU count and the static/dynamic power anchors scale from the
    /// `lego_256` reference point (45 mW static / 240 mW dynamic at 256 FUs
    /// and 256 KB), so the baseline genome reproduces
    /// [`HwConfig::lego_256`] exactly and every other genome moves
    /// consistently with its resources.
    pub fn to_hw_config(&self) -> HwConfig {
        let fus = self.num_fus() as f64;
        let fu_scale = fus / 256.0;
        // `buffer_kb` is per cluster; the power anchor tracks total SRAM.
        let buf_scale = (self.buffer_kb * self.num_clusters() as u64) as f64 / 256.0;
        HwConfig {
            array: (self.rows, self.cols),
            clusters: self.clusters,
            buffer_kb: self.buffer_kb,
            dram_gbps: f64::from(self.dram_gbps),
            num_ppus: (self.num_fus() / 16).max(1),
            dataflows: self.dataflows.to_vec(),
            static_mw: 45.0 * (0.6 * fu_scale + 0.4 * buf_scale),
            dynamic_mw: 240.0 * fu_scale,
        }
    }

    /// Stable 64-bit fingerprint (FNV-1a over the fields), folded into the
    /// hardware half of evaluation-cache keys and used as the
    /// deterministic tie-break in scalar rankings.
    ///
    /// Dense-datapath genomes hash exactly the fields they had before the
    /// sparse axis existed, so their fingerprints — and every tie-break
    /// and table that depends on them — are stable across the sparse
    /// extension. A non-`None` sparse feature extends the hashed tuple.
    pub fn key(&self) -> u64 {
        let mut h = FnvHasher::new();
        (
            self.rows,
            self.cols,
            self.clusters,
            self.buffer_kb,
            self.dram_gbps,
            self.dataflows,
            self.tile_cap,
        )
            .hash(&mut h);
        if self.sparse != SparseAccel::None {
            self.sparse.hash(&mut h);
        }
        h.finish()
    }
}

impl fmt::Display for Genome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}/{}KB/{}GBps/{}",
            self.rows, self.cols, self.buffer_kb, self.dram_gbps, self.dataflows
        )?;
        if self.clusters != (1, 1) {
            write!(f, "/c{}x{}", self.clusters.0, self.clusters.1)?;
        }
        if let Some(t) = self.tile_cap {
            write!(f, "/t{t}")?;
        }
        if self.sparse != SparseAccel::None {
            write!(f, "/{}", self.sparse.name())?;
        }
        Ok(())
    }
}

/// The axes a search may explore: the candidate values per genome field.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    /// Candidate FU-array row counts.
    pub rows: Vec<i64>,
    /// Candidate FU-array column counts.
    pub cols: Vec<i64>,
    /// Candidate L2 cluster grids.
    pub clusters: Vec<(u32, u32)>,
    /// Candidate buffer capacities (KB).
    pub buffer_kb: Vec<u64>,
    /// Candidate DRAM bandwidths (GB/s).
    pub dram_gbps: Vec<u32>,
    /// Candidate fused-dataflow sets.
    pub dataflow_sets: Vec<DataflowSet>,
    /// Candidate tile-edge caps.
    pub tile_caps: Vec<Option<i64>>,
    /// Candidate sparse acceleration features. Single-choice axes consume
    /// no randomness during sampling/mutation/crossover, so dense spaces
    /// (`[SparseAccel::None]`) replay exactly the pre-sparsity RNG streams.
    pub sparse_accels: Vec<SparseAccel>,
}

impl DesignSpace {
    /// The default space bracketing the paper's design points: arrays from
    /// 8×8 to 32×32, single array up to a 2×2 L2 cluster mesh, buffers
    /// 128–512 KB per cluster, 8–32 GB/s, three dataflow families,
    /// automatic or capped tiling — 1458 configurations.
    pub fn paper() -> Self {
        use SpatialMapping::*;
        DesignSpace {
            rows: vec![8, 16, 32],
            cols: vec![8, 16, 32],
            clusters: vec![(1, 1), (2, 1), (2, 2)],
            buffer_kb: vec![128, 256, 512],
            dram_gbps: vec![8, 16, 32],
            dataflow_sets: vec![
                DataflowSet::new(&[GemmMN, ConvIcOc]),
                DataflowSet::new(&[GemmMN, ConvIcOc, ConvOhOw]),
                DataflowSet::new(&[GemmMN, GemmKN, ConvIcOc, ConvOhOw, ConvKhOh]),
            ],
            tile_caps: vec![None, Some(64)],
            sparse_accels: vec![SparseAccel::None],
        }
    }

    /// The paper space crossed with the sparse-datapath axis (dense,
    /// gating, skipping) — 4374 configurations. The right space for
    /// pruned/masked models, where the frontend area can pay for itself.
    pub fn sparse() -> Self {
        DesignSpace {
            sparse_accels: SparseAccel::ALL.to_vec(),
            ..Self::paper()
        }
    }

    /// A 32-point space for fast tests.
    pub fn tiny() -> Self {
        use SpatialMapping::*;
        DesignSpace {
            rows: vec![8, 16],
            cols: vec![16],
            clusters: vec![(1, 1), (2, 2)],
            buffer_kb: vec![128, 256],
            dram_gbps: vec![16],
            dataflow_sets: vec![
                DataflowSet::new(&[GemmMN, ConvIcOc]),
                DataflowSet::new(&[GemmMN, ConvIcOc, ConvOhOw]),
            ],
            tile_caps: vec![None, Some(32)],
            sparse_accels: vec![SparseAccel::None],
        }
    }

    /// Number of distinct genomes.
    pub fn size(&self) -> usize {
        self.radices().iter().product()
    }

    /// Axis lengths in enumeration order, most significant first.
    fn radices(&self) -> [usize; 8] {
        [
            self.rows.len(),
            self.cols.len(),
            self.clusters.len(),
            self.buffer_kb.len(),
            self.dram_gbps.len(),
            self.dataflow_sets.len(),
            self.tile_caps.len(),
            self.sparse_axis().len(),
        ]
    }

    /// The sparse axis, defaulting to a dense-only datapath when the
    /// choice list was left empty.
    fn sparse_axis(&self) -> &[SparseAccel] {
        if self.sparse_accels.is_empty() {
            &[SparseAccel::None]
        } else {
            &self.sparse_accels
        }
    }

    /// Every genome in the space, in a fixed lexicographic order.
    pub fn enumerate(&self) -> Vec<Genome> {
        (0..self.size()).map(|i| self.genome_at(i)).collect()
    }

    /// The genome at enumeration position `index < size()`: the index as a
    /// mixed-radix number over the axes, `rows` most significant.
    pub fn genome_at(&self, index: usize) -> Genome {
        let mut digits = [0; 8];
        let mut rest = index;
        for (digit, radix) in digits.iter_mut().zip(self.radices()).rev() {
            *digit = rest % radix;
            rest /= radix;
        }
        assert_eq!(rest, 0, "genome index {index} out of range");
        Genome {
            rows: self.rows[digits[0]],
            cols: self.cols[digits[1]],
            clusters: self.clusters[digits[2]],
            buffer_kb: self.buffer_kb[digits[3]],
            dram_gbps: self.dram_gbps[digits[4]],
            dataflows: self.dataflow_sets[digits[5]],
            tile_cap: self.tile_caps[digits[6]],
            sparse: self.sparse_axis()[digits[7]],
        }
    }

    /// The inverse of [`DesignSpace::genome_at`]; `None` if a field of `g`
    /// is not on its axis.
    pub fn index_of(&self, g: &Genome) -> Option<usize> {
        fn at<T: PartialEq>(axis: &[T], value: &T) -> Option<usize> {
            axis.iter().position(|v| v == value)
        }
        let digits = [
            at(&self.rows, &g.rows)?,
            at(&self.cols, &g.cols)?,
            at(&self.clusters, &g.clusters)?,
            at(&self.buffer_kb, &g.buffer_kb)?,
            at(&self.dram_gbps, &g.dram_gbps)?,
            at(&self.dataflow_sets, &g.dataflows)?,
            at(&self.tile_caps, &g.tile_cap)?,
            at(self.sparse_axis(), &g.sparse)?,
        ];
        let positional = digits.into_iter().zip(self.radices());
        Some(positional.fold(0, |index, (d, radix)| index * radix + d))
    }

    /// Uniform random genome.
    ///
    /// A single-choice sparse axis draws no randomness, so explorations of
    /// dense spaces replay the exact RNG streams (and hence results) they
    /// produced before the sparse axis existed.
    pub fn sample(&self, rng: &mut SplitMix64) -> Genome {
        Genome {
            rows: *rng.pick(&self.rows),
            cols: *rng.pick(&self.cols),
            clusters: *rng.pick(&self.clusters),
            buffer_kb: *rng.pick(&self.buffer_kb),
            dram_gbps: *rng.pick(&self.dram_gbps),
            dataflows: *rng.pick(&self.dataflow_sets),
            tile_cap: *rng.pick(&self.tile_caps),
            sparse: {
                let axis = self.sparse_axis();
                if axis.len() > 1 {
                    *rng.pick(axis)
                } else {
                    axis[0]
                }
            },
        }
    }

    /// Mutates one axis of `g` to a neighboring choice (or a random one for
    /// the unordered axes), staying inside the space. The sparse axis only
    /// participates when it has more than one choice (see
    /// [`DesignSpace::sample`] on RNG-stream stability).
    pub fn mutate(&self, g: &Genome, rng: &mut SplitMix64) -> Genome {
        let mut out = *g;
        let axes = if self.sparse_axis().len() > 1 { 8 } else { 7 };
        match rng.below(axes) {
            0 => out.rows = step(&self.rows, g.rows, rng),
            1 => out.cols = step(&self.cols, g.cols, rng),
            2 => out.clusters = step(&self.clusters, g.clusters, rng),
            3 => out.buffer_kb = step(&self.buffer_kb, g.buffer_kb, rng),
            4 => out.dram_gbps = step(&self.dram_gbps, g.dram_gbps, rng),
            5 => out.dataflows = *rng.pick(&self.dataflow_sets),
            6 => out.tile_cap = *rng.pick(&self.tile_caps),
            _ => out.sparse = *rng.pick(self.sparse_axis()),
        }
        out
    }

    /// Deterministic 1-of-`count` slice of the space for distributed
    /// search: shard `index` owns the genomes at enumeration positions
    /// `index, index + count, index + 2·count, …`, so the `count` shards
    /// cover [`DesignSpace::enumerate`] disjointly and reproducibly. The
    /// shard also splits seeded RNG streams ([`SpaceShard::split_seed`])
    /// and moves generated genomes into its slice ([`SpaceShard::snap`]),
    /// so random/evolutionary strategies on different shards never price
    /// the same genome.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `index >= count`.
    pub fn shard(&self, index: u32, count: u32) -> SpaceShard<'_> {
        assert!(count > 0, "a space splits into at least one shard");
        assert!(
            index < count,
            "shard index {index} out of range for {count} shards"
        );
        SpaceShard {
            space: self,
            index,
            count,
        }
    }

    /// The trivial shard covering the whole space (what
    /// [`explore`](crate::explore) searches). Grid enumeration, sampling, and seed
    /// splitting through it are bit-identical to the unsharded space.
    pub fn full(&self) -> SpaceShard<'_> {
        self.shard(0, 1)
    }

    /// Uniform crossover: each axis from one parent or the other.
    pub fn crossover(&self, a: &Genome, b: &Genome, rng: &mut SplitMix64) -> Genome {
        Genome {
            rows: if rng.chance(0.5) { a.rows } else { b.rows },
            cols: if rng.chance(0.5) { a.cols } else { b.cols },
            clusters: if rng.chance(0.5) {
                a.clusters
            } else {
                b.clusters
            },
            buffer_kb: if rng.chance(0.5) {
                a.buffer_kb
            } else {
                b.buffer_kb
            },
            dram_gbps: if rng.chance(0.5) {
                a.dram_gbps
            } else {
                b.dram_gbps
            },
            dataflows: if rng.chance(0.5) {
                a.dataflows
            } else {
                b.dataflows
            },
            tile_cap: if rng.chance(0.5) {
                a.tile_cap
            } else {
                b.tile_cap
            },
            sparse: if self.sparse_axis().len() > 1 {
                if rng.chance(0.5) {
                    a.sparse
                } else {
                    b.sparse
                }
            } else {
                // Single-choice axis: both parents carry the same feature;
                // copy it without consuming randomness.
                a.sparse
            },
        }
    }
}

/// A deterministic slice of a [`DesignSpace`] — the unit a distributed
/// search hands to one worker process.
///
/// Shard `index` of `count` owns the strided subset of the canonical
/// enumeration (positions ≡ `index` mod `count`), so grid search over all
/// shards covers the space exactly once. The stochastic strategies draw
/// from the full space through [`SpaceShard::space`] with a per-shard seed
/// ([`SpaceShard::split_seed`]) and move every genome they generate into
/// the shard with [`SpaceShard::snap`], so no shard prices a genome a peer
/// owns.
#[derive(Debug, Clone, Copy)]
pub struct SpaceShard<'a> {
    space: &'a DesignSpace,
    index: u32,
    count: u32,
}

impl<'a> SpaceShard<'a> {
    /// The underlying full design space.
    pub fn space(&self) -> &'a DesignSpace {
        self.space
    }

    /// This shard's index in `0..count`.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Total number of shards in the partition.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Number of genomes this shard owns.
    pub fn size(&self) -> usize {
        (self.index as usize..self.space.size())
            .step_by(self.count as usize)
            .len()
    }

    /// This shard's genomes: every `count`-th genome of the canonical
    /// enumeration starting at `index`. The union over all shards is
    /// exactly [`DesignSpace::enumerate`], with no duplicates.
    pub fn enumerate(&self) -> Vec<Genome> {
        (self.index as usize..self.space.size())
            .step_by(self.count as usize)
            .map(|i| self.space.genome_at(i))
            .collect()
    }

    /// Moves a genome of the space to this shard's member in its block of
    /// `count` consecutive positions, one stride back past the end of the
    /// space (the last, partial block). Draws no randomness; the identity
    /// on members, the full shard, an empty shard and out-of-space genomes.
    pub fn snap(&self, g: &Genome) -> Genome {
        let (index, count, size) = (self.index as usize, self.count as usize, self.space.size());
        match self.space.index_of(g) {
            Some(at) if index < size => {
                let member = at - at % count + index;
                self.space
                    .genome_at(member - if member < size { 0 } else { count })
            }
            _ => *g,
        }
    }

    /// Splits a strategy's base seed for this shard. The full shard is the
    /// identity — single-process runs replay their historical RNG streams
    /// bit-for-bit — and every other `(index, count)` derives a distinct,
    /// reproducible stream through one splitmix64 step.
    pub fn split_seed(&self, base: u64) -> u64 {
        if self.count <= 1 {
            return base;
        }
        let tag = (u64::from(self.index) << 32) | u64::from(self.count);
        SplitMix64::new(base ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
    }
}

/// Moves `current` one position up or down its axis (random direction,
/// clamped); falls back to a random choice if `current` left the axis.
fn step<T: Copy + PartialEq>(axis: &[T], current: T, rng: &mut SplitMix64) -> T {
    match axis.iter().position(|v| *v == current) {
        Some(i) => {
            let j = if rng.chance(0.5) {
                i.saturating_sub(1)
            } else {
                (i + 1).min(axis.len() - 1)
            };
            axis[j]
        }
        None => *rng.pick(axis),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_genome_is_exactly_lego_256() {
        assert_eq!(
            Genome::lego_256_baseline().to_hw_config(),
            HwConfig::lego_256()
        );
    }

    #[test]
    fn enumerate_matches_size_and_is_unique() {
        let s = DesignSpace::paper();
        let all = s.enumerate();
        assert_eq!(all.len(), s.size());
        let keys: std::collections::HashSet<u64> = all.iter().map(Genome::key).collect();
        assert_eq!(keys.len(), all.len(), "genome keys must be distinct");
    }

    #[test]
    fn sample_mutate_crossover_stay_in_space() {
        let s = DesignSpace::paper();
        let inside = |g: &Genome| {
            s.rows.contains(&g.rows)
                && s.cols.contains(&g.cols)
                && s.clusters.contains(&g.clusters)
                && s.buffer_kb.contains(&g.buffer_kb)
                && s.dram_gbps.contains(&g.dram_gbps)
                && s.dataflow_sets.contains(&g.dataflows)
                && s.tile_caps.contains(&g.tile_cap)
        };
        let mut rng = SplitMix64::new(1);
        for _ in 0..200 {
            let a = s.sample(&mut rng);
            let b = s.sample(&mut rng);
            assert!(inside(&a) && inside(&b));
            assert!(inside(&s.mutate(&a, &mut rng)));
            assert!(inside(&s.crossover(&a, &b, &mut rng)));
        }
    }

    #[test]
    fn cluster_genomes_materialize_the_l2_mesh() {
        let mut g = Genome::lego_256_baseline();
        g.clusters = (2, 2);
        assert_eq!(g.num_fus(), 1024);
        let hw = g.to_hw_config();
        assert_eq!(hw.clusters, (2, 2));
        assert_eq!(hw.num_fus(), 1024);
        assert_eq!(hw.l2_mesh().routers(), 4);
        // Power anchors scale with the full cluster count.
        let base = Genome::lego_256_baseline().to_hw_config();
        assert!(hw.dynamic_mw > 3.9 * base.dynamic_mw);
        assert!(g.to_string().ends_with("/c2x2"), "{g}");
        assert_eq!(hw.validate(), Ok(()));
    }

    #[test]
    fn dataflow_set_roundtrip_and_display() {
        let set = DataflowSet::new(&[SpatialMapping::ConvOhOw, SpatialMapping::GemmMN]);
        assert_eq!(
            set.to_vec(),
            vec![SpatialMapping::GemmMN, SpatialMapping::ConvOhOw]
        );
        assert_eq!(set.to_string(), "MN+OHOW");
        assert_eq!(set.len(), 2);
        assert!(set.contains(SpatialMapping::GemmMN));
        assert!(!set.contains(SpatialMapping::GemmKN));
    }

    #[test]
    fn sparse_space_crosses_the_accel_axis() {
        let dense = DesignSpace::paper();
        let sparse = DesignSpace::sparse();
        assert_eq!(sparse.size(), 3 * dense.size());
        let all = sparse.enumerate();
        assert_eq!(all.len(), sparse.size());
        for accel in SparseAccel::ALL {
            assert!(all.iter().any(|g| g.sparse == accel), "{accel:?} missing");
        }
        // Dense spaces only ever produce dense-datapath genomes.
        assert!(dense
            .enumerate()
            .iter()
            .all(|g| g.sparse == SparseAccel::None));
        // Display tags only non-dense datapaths.
        let mut g = Genome::lego_256_baseline();
        assert!(!g.to_string().contains("skip"));
        g.sparse = SparseAccel::Skipping;
        assert!(g.to_string().ends_with("/skip"), "{g}");
    }

    #[test]
    fn single_choice_sparse_axis_consumes_no_randomness() {
        // The same seed must produce the same genome stream whether the
        // dense space was built before or after the sparse axis existed;
        // equivalently, sampling must not consume RNG draws for a
        // single-choice axis. We check by comparing against a manual
        // redraw that never touches the axis.
        let s = DesignSpace::paper();
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            let g = s.sample(&mut a);
            let manual = Genome {
                rows: *b.pick(&s.rows),
                cols: *b.pick(&s.cols),
                clusters: *b.pick(&s.clusters),
                buffer_kb: *b.pick(&s.buffer_kb),
                dram_gbps: *b.pick(&s.dram_gbps),
                dataflows: *b.pick(&s.dataflow_sets),
                tile_cap: *b.pick(&s.tile_caps),
                sparse: SparseAccel::None,
            };
            assert_eq!(g, manual);
        }
        // Mutation on a dense space keeps the historical 7-axis draw and
        // never flips the sparse field; on a sparse space it can.
        let mut rng = SplitMix64::new(9);
        let g = Genome::lego_256_baseline();
        assert!((0..50).all(|_| s.mutate(&g, &mut rng).sparse == SparseAccel::None));
        let sp = DesignSpace::sparse();
        assert!((0..200).any(|_| sp.mutate(&g, &mut rng).sparse != SparseAccel::None));
    }

    #[test]
    fn shards_partition_the_enumeration_disjointly() {
        let s = DesignSpace::tiny();
        for n in [1u32, 2, 3, 4, 7] {
            let mut union: Vec<u64> = Vec::new();
            let mut total = 0usize;
            for i in 0..n {
                let shard = s.shard(i, n);
                let genomes = shard.enumerate();
                assert_eq!(genomes.len(), shard.size(), "shard {i}/{n}");
                total += genomes.len();
                union.extend(genomes.iter().map(Genome::key));
            }
            assert_eq!(total, s.size(), "{n} shards must cover the space");
            union.sort_unstable();
            union.dedup();
            assert_eq!(union.len(), s.size(), "{n} shards must not overlap");
        }
        // More shards than genomes: trailing shards are empty, the
        // partition still covers.
        let n = (s.size() + 3) as u32;
        let covered: usize = (0..n).map(|i| s.shard(i, n).size()).sum();
        assert_eq!(covered, s.size());
        assert_eq!(s.shard(n - 1, n).enumerate().len(), 0);
    }

    #[test]
    fn full_shard_is_the_identity() {
        let s = DesignSpace::tiny();
        let full = s.full();
        assert_eq!(full.enumerate(), s.enumerate());
        assert_eq!(full.size(), s.size());
        // Seed splitting is the identity on the full shard, so historical
        // single-process runs replay bit-for-bit…
        assert_eq!(full.split_seed(0xDE5E), 0xDE5E);
        // …and sharded seeds are distinct per shard but stable per call.
        let a = s.shard(0, 4).split_seed(7);
        let b = s.shard(1, 4).split_seed(7);
        assert_ne!(a, b);
        assert_ne!(a, 7);
        assert_eq!(a, s.shard(0, 4).split_seed(7));
        // A different shard count gives a different stream, too.
        assert_ne!(a, s.shard(0, 2).split_seed(7));
    }

    /// The nested loop [`DesignSpace::enumerate`] used before
    /// [`DesignSpace::genome_at`], kept as its oracle.
    fn nested_enumeration(s: &DesignSpace) -> Vec<Genome> {
        let mut out = Vec::new();
        for &rows in &s.rows {
            for &cols in &s.cols {
                for &clusters in &s.clusters {
                    for &buffer_kb in &s.buffer_kb {
                        for &dram_gbps in &s.dram_gbps {
                            for &dataflows in &s.dataflow_sets {
                                for &tile_cap in &s.tile_caps {
                                    for &sparse in s.sparse_axis() {
                                        out.push(Genome {
                                            rows,
                                            cols,
                                            clusters,
                                            buffer_kb,
                                            dram_gbps,
                                            dataflows,
                                            tile_cap,
                                            sparse,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// A random prefix (1–3 choices) of every axis of the sparse paper
    /// space; the sparse axis may also be left empty (dense by default).
    fn small_space(rng: &mut SplitMix64) -> DesignSpace {
        fn prefix<T: Clone>(axis: &[T], len: usize) -> Vec<T> {
            axis[..len.min(axis.len())].to_vec()
        }
        let s = DesignSpace::sparse();
        DesignSpace {
            rows: prefix(&s.rows, 1 + rng.below(3)),
            cols: prefix(&s.cols, 1 + rng.below(3)),
            clusters: prefix(&s.clusters, 1 + rng.below(3)),
            buffer_kb: prefix(&s.buffer_kb, 1 + rng.below(3)),
            dram_gbps: prefix(&s.dram_gbps, 1 + rng.below(3)),
            dataflow_sets: prefix(&s.dataflow_sets, 1 + rng.below(3)),
            tile_caps: prefix(&s.tile_caps, 1 + rng.below(2)),
            sparse_accels: prefix(&s.sparse_accels, rng.below(4)),
        }
    }

    #[test]
    fn shard_snap_partitions_random_small_spaces_airtight() {
        let mut rng = SplitMix64::new(0x5a4d);
        for _ in 0..300 {
            let s = small_space(&mut rng);
            let all = nested_enumeration(&s);
            let size = s.size();
            assert_eq!(all.len(), size);
            assert_eq!(s.enumerate(), all);
            for (i, g) in all.iter().enumerate() {
                assert_eq!(s.genome_at(i), *g);
                assert_eq!(s.index_of(g), Some(i));
            }
            let outside = Genome {
                rows: 7,
                ..all[size / 2]
            };
            assert_eq!(s.index_of(&outside), None);
            for count in 1..=6u32 {
                for index in 0..count {
                    let shard = s.shard(index, count);
                    let members = shard.enumerate();
                    assert_eq!(shard.snap(&outside), outside);
                    let (i, n) = (index as usize, count as usize);
                    if i >= size || n == 1 {
                        // Empty and full shards leave every genome alone.
                        assert_eq!(members.is_empty(), i >= size);
                        assert!(all.iter().all(|g| shard.snap(g) == *g));
                        continue;
                    }
                    for m in &members {
                        assert_eq!(shard.snap(m), *m, "members are fixed points");
                    }
                    // Group every space position by the member it snaps to.
                    let mut preimages = std::collections::BTreeMap::<usize, Vec<usize>>::new();
                    for (p, g) in all.iter().enumerate() {
                        let snapped = shard.snap(g);
                        assert!(members.contains(&snapped), "{g} left shard {i}/{n}");
                        let at = s.index_of(&snapped).unwrap();
                        preimages.entry(at).or_default().push(p);
                    }
                    assert_eq!(preimages.len(), members.len(), "every member is hit");
                    for (&m, from) in &preimages {
                        // Its own block of `n` positions, extended to the
                        // end of the space when the next block is the
                        // partial last one and holds no member.
                        let start = m - i;
                        let mut end = (start + n).min(size);
                        if end < size && end + i >= size {
                            end = size;
                        }
                        assert_eq!(*from, (start..end).collect::<Vec<_>>(), "member {m}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_must_be_in_range() {
        let s = DesignSpace::tiny();
        let _ = s.shard(3, 3);
    }

    #[test]
    fn dataflow_set_bits_roundtrip() {
        use SpatialMapping::*;
        let set = DataflowSet::new(&[GemmMN, ConvOhOw]);
        assert_eq!(DataflowSet::from_bits(set.bits()), Some(set));
        assert_eq!(DataflowSet::from_bits(0), None, "empty set is invalid");
        assert_eq!(DataflowSet::from_bits(0xE0), None, "unknown bits rejected");
        // Every enumerable set survives the round trip.
        for bits in 1u8..(1 << SpatialMapping::ALL.len()) {
            let s = DataflowSet::from_bits(bits).expect("valid mask");
            assert_eq!(s.bits(), bits);
            assert_eq!(DataflowSet::new(&s.to_vec()), s);
        }
    }

    #[test]
    fn genome_key_is_stable_and_field_sensitive() {
        let g = Genome::lego_256_baseline();
        assert_eq!(g.key(), g.key());
        let mut h = g;
        h.buffer_kb = 512;
        assert_ne!(g.key(), h.key());
        // The sparse feature is part of the fingerprint…
        let mut s = g;
        s.sparse = SparseAccel::Skipping;
        assert_ne!(g.key(), s.key());
        let mut s2 = g;
        s2.sparse = SparseAccel::Gating;
        assert_ne!(s.key(), s2.key());
    }
}

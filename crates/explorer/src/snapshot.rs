//! Serializable shard snapshots: a binary format for [`ParetoFrontier`] +
//! [`EvalCache`](lego_eval::EvalCache) contents, so a shard worker can
//! checkpoint its results to a file and a coordinator can merge them.
//!
//! The format is deliberately boring, and built on the byte-level toolkit
//! of [`lego_eval::codec`]: a fixed magic + version header, then the
//! snapshot's [`Wire`] layout — little-endian fixed-width integers, `f64`
//! as IEEE-754 bits, one tag byte per enum/`Option`, and length-prefixed
//! lists. [`Snapshot`] and [`Genome`] take their layouts from
//! [`wire_struct!`](lego_eval::wire_struct) field lists; [`DataflowSet`]
//! (a validated bitmask), [`DesignPoint`] (a checked `feasible` byte) and
//! [`ParetoFrontier`] (points sorted on the way out, re-inserted on the
//! way in) are written by hand. Cache entries are written in sorted key
//! order ([`EvalCache::entries`](lego_eval::EvalCache::entries)) and frontier
//! points sorted by genome fingerprint, so encoding is a pure function of
//! the snapshot's contents (merge order never shows in the bytes) and
//! `encode → decode → encode` is byte-identical. Decoding
//! validates everything it reads and returns a [`CodecError`] — never
//! panics — on truncated or corrupt input.
//!
//! The cache side is one shared list per shard ([`SharedEntries`]):
//! merging snapshots grows a list in place ([`Snapshot::absorb`]), and
//! [`CacheUnion`] reads several lists as one without copying them.

use crate::eval::DesignPoint;
use crate::pareto::ParetoFrontier;
use crate::space::{DataflowSet, Genome};
use lego_eval::codec::{CodecError, Dec, Enc, Wire};
use lego_eval::{wire_struct, Objectives};
use lego_sim::{LayerPerf, ModelPerf};
use std::borrow::Cow;
use std::sync::Arc;

/// One memoized evaluation: `((hw_key, layer_key), perf)`.
pub(crate) type Entry = ((u64, u64), LayerPerf);

/// A key-sorted list of memoized evaluations, shared rather than copied:
/// a shard's [`ShardRunResult::cache`](crate::ShardRunResult::cache), its
/// [`Snapshot::cache`], the [`CacheUnion`] over every shard and a warm
/// run's [`ExploreOptions::warm_cache`](crate::ExploreOptions::warm_cache)
/// all hold the same list. It encodes as the list itself.
pub type SharedEntries = Arc<Vec<((u64, u64), LayerPerf)>>;

/// File magic: identifies a LEGO DSE snapshot.
const MAGIC: &[u8; 8] = b"LEGOSNAP";
/// Current codec version.
///
/// Version 2 marks the cache-key epoch change that came with the
/// `EvalSession` migration: cache entries are now keyed by the session's
/// derived key (genome fingerprint folded with the technology and SRAM
/// models) instead of the bare genome fingerprint. Version-1 snapshots
/// would decode structurally, but their cache entries live in a dead
/// keyspace — every warm-start lookup would silently miss while the
/// entries ride along into future merges — so they are rejected loudly
/// instead.
///
/// Version 3 adds the `evaluated` counter (candidate evaluations the
/// shard's strategies spent), so merge tooling can report per-shard search
/// effort without re-running anything.
const VERSION: u8 = 3;

/// One shard's checkpointed search state: where it ran (shard coordinates,
/// seed, model), what it found (the feasible [`ParetoFrontier`]), and what
/// it computed (the [`EvalCache`](lego_eval::EvalCache) entries, keyed by
/// stable FNV fingerprints so cross-process merging is a set union).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Shard index in `0..shard_count`.
    pub shard_index: u32,
    /// Total shards in the partition (1 = unsharded).
    pub shard_count: u32,
    /// Base RNG seed of the run that produced this snapshot.
    pub seed: u64,
    /// Name of the model that was explored.
    pub model: String,
    /// Candidate evaluations the shard's strategies spent producing this
    /// snapshot (cache hits included). [`Snapshot::absorb`] sums it, so a
    /// merged checkpoint reports the whole partition's search effort.
    pub evaluated: u64,
    /// The shard's feasible Pareto frontier.
    pub frontier: ParetoFrontier,
    /// The shard's memoized `((hw_key, layer_key), perf)` evaluations, in
    /// sorted key order. [`ShardRunResult::snapshot`](crate::ShardRunResult::snapshot)
    /// shares the shard's own list here; [`Snapshot::absorb`] copies it
    /// only if it is still shared when a merge adds to it.
    pub cache: SharedEntries,
}

impl Snapshot {
    /// Merges another shard's snapshot into this one: the frontier folds
    /// in point-wise ([`ParetoFrontier::merge`]) and the caches set-union
    /// on their fingerprint keys with the resident entry winning
    /// collisions (the [`EvalCache::absorb`](lego_eval::EvalCache::absorb)
    /// rule). Returns `(frontier_points_added, cache_entries_added)`.
    ///
    /// The union is linear and in place. One pass over both key-sorted
    /// lists counts the foreign keys this list lacks; the list grows once
    /// by that count and a merge from the back fills it, so no second
    /// buffer is allocated. A list still shared with the shard it came
    /// from (or any other holder) is copied first ([`Arc::make_mut`]),
    /// so no other holder sees the merge; a merge that adds nothing
    /// touches no list. A list that is not strictly sorted (`cache` is a
    /// public field) is first put in key order with the first entry of
    /// each key kept, which is what absorbing it into an
    /// [`EvalCache`](lego_eval::EvalCache) would keep.
    pub fn absorb(&mut self, other: &Snapshot) -> (usize, usize) {
        self.evaluated = self.evaluated.saturating_add(other.evaluated);
        let joined = self.frontier.merge(&other.frontier);
        if let Cow::Owned(sorted) = canonical(&self.cache) {
            self.cache = Arc::new(sorted);
        }
        let theirs = canonical(&other.cache);
        let added = count_new_keys(&self.cache, &theirs);
        if added > 0 {
            merge_from_back(Arc::make_mut(&mut self.cache), &theirs, added);
        }
        (joined, added)
    }

    /// Encodes the snapshot to its canonical byte representation.
    ///
    /// Frontier points are written sorted by genome fingerprint (they are
    /// unique within a frontier) and cache entries in sorted key order, so
    /// the bytes are a pure function of the snapshot's *contents*: merging
    /// the same shard set in any order encodes identically.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(self.encoded_len_bound());
        e.header(MAGIC, VERSION);
        self.put(&mut e);
        e.into_bytes()
    }

    /// An upper bound on the encoded length, so `encode` allocates once:
    /// cache entries are fixed-width and frontier points differ only by a
    /// tile cap's 8-byte payload; 64 bytes cover the header and scalars.
    fn encoded_len_bound(&self) -> usize {
        fn first_len<T: Wire>(list: &[T]) -> usize {
            let mut e = Enc::default();
            list.iter().take(1).for_each(|v| v.put(&mut e));
            e.into_bytes().len()
        }
        let point = first_len(self.frontier.points()) + 8;
        let entry = first_len(&self.cache);
        64 + self.model.len() + self.frontier.len() * point + self.cache.len() * entry
    }

    /// Decodes a snapshot, validating magic, version, every enum tag, and
    /// that the input ends exactly where the data does.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] describing the first problem found;
    /// truncated or corrupt input never panics.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CodecError> {
        let mut d = Dec::new(bytes);
        d.header(MAGIC, VERSION)?;
        let snapshot = Snapshot::get(&mut d)?;
        d.done()?;
        Ok(snapshot)
    }

    /// Writes the encoded snapshot to a file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    pub fn write_to(&self, path: &std::path::Path) -> Result<(), CodecError> {
        std::fs::write(path, self.encode()).map_err(CodecError::Io)
    }

    /// Reads and decodes a snapshot from a file.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Io`] if the file cannot be read, or the
    /// codec error if its contents are invalid.
    pub fn read_from(path: &std::path::Path) -> Result<Snapshot, CodecError> {
        Snapshot::decode(&std::fs::read(path).map_err(CodecError::Io)?)
    }
}

/// `cache` itself when its keys are strictly increasing; otherwise a copy
/// stable-sorted by key with only the first entry of each key kept.
fn canonical(cache: &[Entry]) -> Cow<'_, [Entry]> {
    if cache.windows(2).all(|w| w[0].0 < w[1].0) {
        return Cow::Borrowed(cache);
    }
    let mut sorted = cache.to_vec();
    sorted.sort_by_key(|(key, _)| *key);
    sorted.dedup_by_key(|(key, _)| *key);
    Cow::Owned(sorted)
}

/// `list` itself when its keys are strictly increasing; otherwise its
/// [`canonical`] copy.
pub(crate) fn canonical_shared(list: SharedEntries) -> SharedEntries {
    match canonical(&list) {
        Cow::Borrowed(_) => list,
        Cow::Owned(sorted) => Arc::new(sorted),
    }
}

/// How many keys of `theirs` are missing from `ours` (both strictly
/// sorted): one forward pass over both.
pub(crate) fn count_new_keys(ours: &[Entry], theirs: &[Entry]) -> usize {
    let mut ours = ours.iter().peekable();
    theirs
        .iter()
        .filter(|t| {
            while ours.next_if(|o| o.0 < t.0).is_some() {}
            ours.peek().is_none_or(|o| o.0 != t.0)
        })
        .count()
}

/// Merges `theirs` into `ours` in place (both strictly sorted), where
/// `added` is [`count_new_keys`]: `ours` grows once by `added` and is
/// filled from the back, so every entry moves at most once and a resident
/// entry wins an equal key.
pub(crate) fn merge_from_back(ours: &mut Vec<Entry>, theirs: &[Entry], added: usize) {
    let mut i = ours.len();
    ours.reserve_exact(added);
    ours.resize(i + added, theirs[0]);
    let mut j = theirs.len();
    // `w` is the next slot to fill; the resident prefix `ours[..i]` ends
    // at or before it, and the two meet once every new key is placed.
    let mut w = ours.len();
    while w > i {
        let t = theirs[j - 1];
        if i > 0 && ours[i - 1].0 >= t.0 {
            if ours[i - 1].0 == t.0 {
                j -= 1; // The resident entry wins; theirs is dropped.
            }
            ours[w - 1] = ours[i - 1];
            i -= 1;
        } else {
            ours[w - 1] = t;
            j -= 1;
        }
        w -= 1;
    }
}

/// A read-only union of shard caches that copies no entry: it holds each
/// shard's own [`SharedEntries`] list and merges them only when asked for
/// [`entries`](CacheUnion::entries). On a key more than one shard holds,
/// the lowest-index shard's entry wins, as absorbing the shards into one
/// [`EvalCache`](lego_eval::EvalCache) in shard order would keep.
#[derive(Debug, Clone)]
pub struct CacheUnion {
    lists: Vec<SharedEntries>,
    distinct: usize,
}

impl CacheUnion {
    /// The union of `lists`, in priority order. The distinct-key count is
    /// taken once here, by one k-way merge. A list not in strictly
    /// increasing key order is replaced by its canonical copy (key order,
    /// first entry of each key kept); every shard's list already is.
    pub fn new(lists: Vec<SharedEntries>) -> Self {
        let lists: Vec<SharedEntries> = lists.into_iter().map(canonical_shared).collect();
        let distinct = k_way_union(&lists).count();
        CacheUnion { lists, distinct }
    }

    /// The shard lists the union reads, in priority order.
    pub fn lists(&self) -> &[SharedEntries] {
        &self.lists
    }

    /// Every distinct entry in key order, merged from the shard lists
    /// now: the same list an [`EvalCache`](lego_eval::EvalCache) that
    /// absorbed every shard in order would return from
    /// [`entries`](lego_eval::EvalCache::entries).
    pub fn entries(&self) -> Vec<((u64, u64), LayerPerf)> {
        let mut out = Vec::with_capacity(self.distinct);
        out.extend(k_way_union(&self.lists).copied());
        out
    }

    /// Distinct keys across every shard.
    pub fn len(&self) -> usize {
        self.distinct
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.distinct == 0
    }

    /// What an [`EvalCache`](lego_eval::EvalCache) holding the union
    /// would report as its
    /// [`estimated_resident_bytes`](lego_eval::EvalCache::estimated_resident_bytes).
    pub fn estimated_resident_bytes(&self) -> usize {
        lego_eval::estimated_resident_bytes_for(self.distinct)
    }
}

/// The union of strictly sorted `lists` in key order; on an equal key the
/// entry of the first list holding it. Each step scans the list heads,
/// which is cheap for a shard count.
fn k_way_union(lists: &[SharedEntries]) -> impl Iterator<Item = &Entry> {
    let mut rests: Vec<&[Entry]> = lists.iter().map(|list| list.as_slice()).collect();
    std::iter::from_fn(move || {
        // `min_by_key` keeps the first of equal minima: the lowest index.
        let winner = rests
            .iter()
            .filter_map(|rest| rest.first())
            .min_by_key(|e| e.0)?;
        for rest in &mut rests {
            if rest.first().is_some_and(|e| e.0 == winner.0) {
                *rest = &rest[1..];
            }
        }
        Some(winner)
    })
}

wire_struct! {
    Snapshot { shard_index, shard_count, seed, model, evaluated, frontier, cache }
    Genome { rows, cols, clusters, buffer_kb, dram_gbps, dataflows, tile_cap, sparse }
}

impl Wire for DataflowSet {
    fn put(&self, e: &mut Enc) {
        e.u8(self.bits());
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let bits = d.u8()?;
        DataflowSet::from_bits(bits).ok_or(CodecError::InvalidTag {
            what: "dataflow set",
            tag: bits,
        })
    }
}

impl Wire for DesignPoint {
    fn put(&self, e: &mut Enc) {
        self.genome.put(e);
        self.objectives.put(e);
        self.peak_power_mw.put(e);
        e.u8(u8::from(self.feasible));
        self.perf.put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let genome = Genome::get(d)?;
        let objectives = Objectives::get(d)?;
        let peak_power_mw = d.f64()?;
        let feasible = match d.u8()? {
            0 => false,
            1 => true,
            tag => {
                return Err(CodecError::InvalidTag {
                    what: "feasible flag",
                    tag,
                })
            }
        };
        let perf = ModelPerf::get(d)?;
        Ok(DesignPoint {
            genome,
            objectives,
            perf,
            peak_power_mw,
            feasible,
        })
    }
}

/// The members sorted by genome fingerprint, so the bytes do not depend
/// on insertion order; decoding re-inserts them in that order.
impl Wire for ParetoFrontier {
    fn put(&self, e: &mut Enc) {
        let mut points = self.points().to_vec();
        points.sort_by_key(|p| p.genome.key());
        points.put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut frontier = ParetoFrontier::new();
        for p in Vec::<DesignPoint>::get(d)? {
            frontier.insert(p);
        }
        Ok(frontier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore_shard, DesignSpace, ExploreOptions};
    use lego_workloads::zoo;

    fn sample_snapshot() -> Snapshot {
        let model = zoo::lenet();
        let space = DesignSpace::tiny();
        let run = explore_shard(
            &model,
            &space.shard(1, 2),
            &mut crate::default_strategies(0xA11CE),
            &ExploreOptions {
                budget_per_strategy: 12,
                ..Default::default()
            },
        );
        run.snapshot(&model.name, 0xA11CE)
    }

    #[test]
    fn encode_decode_roundtrips_byte_identically() {
        let snap = sample_snapshot();
        assert!(!snap.frontier.is_empty());
        assert!(!snap.cache.is_empty());
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).expect("own encoding decodes");
        assert_eq!(decoded.shard_index, 1);
        assert_eq!(decoded.shard_count, 2);
        assert_eq!(decoded.seed, 0xA11CE);
        assert_eq!(decoded.model, snap.model);
        assert!(snap.evaluated > 0, "strategies spent evaluations");
        assert_eq!(decoded.evaluated, snap.evaluated);
        assert_eq!(decoded.frontier.len(), snap.frontier.len());
        assert_eq!(decoded.frontier.genome_keys(), snap.frontier.genome_keys());
        assert_eq!(decoded.cache, snap.cache);
        // Canonical form: re-encoding the decoded snapshot is the identity.
        assert_eq!(decoded.encode(), bytes);
        // The buffer was sized once and never grew.
        assert_eq!(bytes.capacity(), snap.encoded_len_bound());
    }

    #[test]
    fn every_truncation_errors_instead_of_panicking() {
        let bytes = sample_snapshot().encode();
        for len in 0..bytes.len() {
            match Snapshot::decode(&bytes[..len]) {
                Err(_) => {}
                Ok(_) => panic!("decoding a {len}-byte prefix must fail"),
            }
        }
    }

    #[test]
    fn corruption_is_reported_not_panicked() {
        let good = sample_snapshot().encode();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(Snapshot::decode(&bad), Err(CodecError::BadMagic)));
        // Unknown version.
        let mut bad = good.clone();
        bad[8] = 0xEE;
        assert!(matches!(
            Snapshot::decode(&bad),
            Err(CodecError::UnsupportedVersion(0xEE))
        ));
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            Snapshot::decode(&bad),
            Err(CodecError::TrailingBytes(1))
        ));
        // Every single-byte corruption either decodes (the byte was inert
        // for validation — e.g. part of a float) or errors; none panic.
        for i in 0..good.len() {
            let mut fuzz = good.clone();
            fuzz[i] ^= 0xA5;
            let _ = Snapshot::decode(&fuzz);
        }
    }

    #[test]
    fn merge_order_does_not_change_the_bytes() {
        // The coordinator may receive shard snapshots in any order; the
        // canonical encoding (sorted frontier + sorted cache) makes the
        // merged checkpoint byte-identical either way. Nor does the
        // number of threads a shard ran on change its bytes.
        let model = zoo::lenet();
        let space = DesignSpace::tiny();
        let shard_snap = |i: u32, threads: usize| {
            explore_shard(
                &model,
                &space.shard(i, 2),
                &mut crate::default_strategies(9),
                &ExploreOptions {
                    budget_per_strategy: 16,
                    threads,
                    ..Default::default()
                },
            )
            .snapshot(&model.name, 9)
        };
        let (a, b) = (shard_snap(0, 0), shard_snap(1, 0));
        assert_eq!(shard_snap(0, 1).encode(), a.encode());
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        // Align the metadata a coordinator would rewrite anyway.
        for s in [&mut ab, &mut ba] {
            s.shard_index = 0;
            s.shard_count = 1;
        }
        assert_eq!(ab.encode(), ba.encode());
    }

    #[test]
    fn absorb_merges_frontier_and_cache() {
        let model = zoo::lenet();
        let space = DesignSpace::tiny();
        let mut halves: Vec<Snapshot> = (0..2)
            .map(|i| {
                explore_shard(
                    &model,
                    &space.shard(i, 2),
                    &mut [Box::new(crate::GridSearch) as Box<dyn crate::SearchStrategy>],
                    &ExploreOptions::default(),
                )
                .snapshot(&model.name, 0)
            })
            .collect();
        let second = halves.pop().expect("two shards");
        let mut merged = halves.pop().expect("two shards");
        let total_evaluated = merged.evaluated + second.evaluated;
        merged.absorb(&second);
        // Search effort sums across the partition.
        assert_eq!(merged.evaluated, total_evaluated);
        // The merged cache is the key-union, still canonically sorted.
        assert!(merged.cache.windows(2).all(|w| w[0].0 < w[1].0));
        let keys: std::collections::HashSet<(u64, u64)> =
            merged.cache.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys.len(), merged.cache.len());
        // And the merged frontier equals the single-process grid frontier.
        let single = crate::explore(
            &model,
            &space,
            &mut [Box::new(crate::GridSearch) as Box<dyn crate::SearchStrategy>],
            &ExploreOptions::default(),
        );
        assert!(merged.frontier.dominance_equal(&single.frontier));
    }
}

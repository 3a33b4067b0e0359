//! A hash-consed e-graph over [`ENode`] mapping terms.
//!
//! Three deterministic ingredients, in the classic egg shape:
//!
//! * a [`UnionFind`] with path compression in which the smaller root id
//!   always wins a union, so every class's representative is its minimum
//!   id — a function of the partition alone, never of union order;
//! * a hash-consing memo (FNV-keyed, so iteration order is a pure
//!   function of insertion order, never of a per-process hash seed) that
//!   makes re-adding a structurally equal node return the class it is
//!   already in;
//! * congruence closure on [`rebuild`](EGraph::rebuild): after unions,
//!   nodes whose children became equal are re-canonicalized and their
//!   classes merged to a fixpoint.
//!
//! Because the closed partition is unique and the representatives are
//! its minima, `rebuild` may repair stale nodes in any order and still
//! leave the same memo keys and class lists. Class ids are minted densely in
//! insertion order, so the class table is a vector indexed by id. A union
//! moves the absorbed list onto the root and marks the root dirty, as does
//! a stale node, and `rebuild` re-sorts only the dirty roots' lists.

use crate::term::{ENode, Id};
use lego_eval::FnvHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// Union-find with path compression. A union keeps the smaller root id,
/// so the representative of a set is its minimum id — which makes
/// congruence closure order-free.
///
/// Why this is not `lego_graph::UnionFind`: that one unions by rank, so
/// its representatives depend on union order, and e-class ids here must
/// not. Its callers (the front end's chains, Kruskal's MST) want the rank
/// bound instead. One shared type would also add a `lego-graph`
/// dependency edge to this crate, which `benchmark/Cargo.lock` records.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// An empty forest.
    pub fn new() -> Self {
        UnionFind::default()
    }

    /// Mints the next set, returning its id.
    pub fn make_set(&mut self) -> Id {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        Id(id)
    }

    /// Number of ids ever minted (not the number of distinct sets).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether no set was ever minted.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The representative of `id`'s set, compressing the path walked.
    pub fn find(&mut self, id: Id) -> Id {
        let mut root = id.0;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = id.0;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        Id(root)
    }

    /// The representative of `id`'s set without mutating the forest
    /// (no path compression; use [`find`](UnionFind::find) on hot paths).
    pub fn probe(&self, id: Id) -> Id {
        let mut root = id.0;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        Id(root)
    }

    /// Unites the two sets under the smaller root; returns the surviving
    /// representative and whether the sets were distinct before the call.
    pub fn union(&mut self, a: Id, b: Id) -> (Id, bool) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return (ra, false);
        }
        let (root, child) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[child.0 as usize] = root.0;
        (root, true)
    }

    /// Whether the two ids are in the same set.
    pub fn same(&mut self, a: Id, b: Id) -> bool {
        self.find(a) == self.find(b)
    }
}

/// The hash-consed e-graph.
#[derive(Debug, Clone, Default)]
pub struct EGraph {
    uf: UnionFind,
    /// Node → a member of the class containing it. After
    /// [`rebuild`](EGraph::rebuild) every key is canonical (its children
    /// are representatives), and no two keys are congruent.
    memo: FnvMap<ENode, Id>,
    /// Class id → the class's nodes: the memo keys grouped by
    /// representative, so an id that is no longer a root holds an empty
    /// list. [`add`](EGraph::add) opens a one-node list; a `union` appends
    /// the absorbed list to the root's. After [`rebuild`](EGraph::rebuild)
    /// every list is canonical and sorted.
    classes: Vec<Vec<ENode>>,
    /// Roots whose lists gained nodes or hold stale ones since the last
    /// `rebuild`, which re-canonicalizes and re-sorts exactly these.
    dirty: Vec<Id>,
    /// Total distinct nodes resident (the saturation budget's currency).
    n_nodes: usize,
    /// Times `add` returned an existing class instead of minting one.
    dedup_hits: u64,
    /// Unions that actually merged two distinct classes.
    unions: u64,
}

impl EGraph {
    /// An empty e-graph.
    pub fn new() -> Self {
        EGraph::default()
    }

    /// Distinct resident nodes.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Distinct e-classes: ids minted minus merges.
    pub fn class_count(&self) -> usize {
        self.uf.len() - self.unions as usize
    }

    /// Times [`add`](EGraph::add) found its node already interned.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Class merges that united two previously distinct classes.
    pub fn union_count(&self) -> u64 {
        self.unions
    }

    /// The canonical representative of `id`'s class.
    pub fn find(&self, id: Id) -> Id {
        self.uf.probe(id)
    }

    /// Interns `node`, returning its class: hash-consing means a
    /// structurally equal node (up to class equivalence of children)
    /// returns the existing class without growing the graph.
    pub fn add(&mut self, node: ENode) -> Id {
        let uf = &mut self.uf;
        let node = node.map_children(|c| uf.find(c));
        if let Some(&id) = self.memo.get(&node) {
            self.dedup_hits += 1;
            return self.uf.find(id);
        }
        let id = self.uf.make_set();
        self.memo.insert(node, id);
        self.classes.push(vec![node]);
        self.n_nodes += 1;
        id
    }

    /// Asserts `a ≡ b`, merging their classes. Returns `true` when the
    /// classes were distinct. Callers must [`rebuild`](EGraph::rebuild)
    /// before relying on congruence, [`class_snapshot`](EGraph::class_snapshot)
    /// or [`nodes_of`](EGraph::nodes_of) again.
    pub fn union(&mut self, a: Id, b: Id) -> bool {
        let (ra, rb) = (self.uf.find(a), self.uf.find(b));
        let (root, merged) = self.uf.union(ra, rb);
        if merged {
            let child = if root == ra { rb } else { ra };
            let moved = std::mem::take(&mut self.classes[child.0 as usize]);
            self.classes[root.0 as usize].extend(moved);
            self.dirty.push(root);
            self.unions += 1;
        }
        merged
    }

    /// Restores the congruence invariant to a fixpoint and returns the
    /// number of congruence-induced unions. Each pass keeps the memo keys
    /// that are still canonical and re-inserts only the stale ones under
    /// their canonical key; a collision with another class queues a
    /// union. Representatives are class minima, so the order in which
    /// stale nodes are repaired cannot change the result. Only the lists
    /// of dirty roots are then re-canonicalized, sorted and deduplicated:
    /// every other list is unchanged since the last `rebuild`.
    pub fn rebuild(&mut self) -> u64 {
        let mut induced = 0;
        loop {
            let uf = &mut self.uf;
            let dirty = &mut self.dirty;
            let mut stale: Vec<(ENode, Id)> = Vec::new();
            self.memo.retain(|node, id| {
                let canon = node.map_children(|c| uf.find(c));
                if canon == *node {
                    return true;
                }
                dirty.push(uf.find(*id));
                stale.push((canon, *id));
                false
            });
            let mut queued: Vec<(Id, Id)> = Vec::new();
            for (canon, id) in stale {
                match self.memo.entry(canon) {
                    Entry::Occupied(e) => {
                        if uf.find(*e.get()) != uf.find(id) {
                            queued.push((*e.get(), id));
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(id);
                    }
                }
            }
            self.n_nodes = self.memo.len();
            if queued.is_empty() {
                break;
            }
            for (a, b) in queued {
                if self.union(a, b) {
                    induced += 1;
                }
            }
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        for id in &mut dirty {
            *id = self.uf.find(*id);
        }
        dirty.sort_unstable();
        dirty.dedup();
        for root in dirty {
            let uf = &mut self.uf;
            let nodes = &mut self.classes[root.0 as usize];
            for node in nodes.iter_mut() {
                *node = node.map_children(|c| uf.find(c));
            }
            nodes.sort_unstable();
            nodes.dedup();
        }
        induced
    }

    /// Sorted snapshot of every class and its nodes.
    pub fn class_snapshot(&self) -> Vec<(Id, Vec<ENode>)> {
        (0..self.classes.len() as u32)
            .map(Id)
            .zip(&self.classes)
            .filter(|(_, nodes)| !nodes.is_empty())
            .map(|(id, nodes)| (id, nodes.clone()))
            .collect()
    }

    /// The sorted nodes of `id`'s class.
    pub fn nodes_of(&self, id: Id) -> &[ENode] {
        &self.classes[self.uf.probe(id).0 as usize]
    }

    /// The nodes listed under root `class` if it is one of the first
    /// `minted` ids, else none. Saturation matches through this while
    /// `add` mints new classes, without a `find` or a snapshot copy.
    pub(crate) fn nodes_below(&self, class: Id, minted: usize) -> &[ENode] {
        self.classes[..minted]
            .get(class.0 as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Class ids minted so far.
    pub(crate) fn minted(&self) -> usize {
        self.classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Axis;

    #[test]
    fn hash_consing_returns_the_same_id() {
        let mut eg = EGraph::new();
        let leaf = eg.add(ENode::Access { shape: 0 });
        let a = eg.add(ENode::Temporal {
            axis: Axis::M,
            tile: 0,
            body: leaf,
        });
        let b = eg.add(ENode::Temporal {
            axis: Axis::M,
            tile: 0,
            body: leaf,
        });
        assert_eq!(a, b);
        assert_eq!(eg.node_count(), 2);
        assert_eq!(eg.dedup_hits(), 1);
    }

    #[test]
    fn union_find_is_idempotent_and_deterministic() {
        let mut uf = UnionFind::new();
        let ids: Vec<Id> = (0..8).map(|_| uf.make_set()).collect();
        assert!(uf.union(ids[0], ids[5]).1);
        assert!(!uf.union(ids[0], ids[5]).1);
        assert!(uf.union(ids[5], ids[2]).1);
        // Smaller id survives equal-rank ties.
        assert_eq!(uf.find(ids[5]), Id(0));
        assert_eq!(uf.find(ids[2]), Id(0));
        assert_eq!(uf.find(ids[7]), ids[7]);
        assert!(uf.same(ids[0], ids[2]));
    }

    #[test]
    fn union_keeps_the_minimum_id_as_representative() {
        let mut uf = UnionFind::new();
        let ids: Vec<Id> = (0..8).map(|_| uf.make_set()).collect();
        // A two-member class rooted at 5 meets the singleton 3: a rank
        // rule would keep 5, the minimum rule keeps 3.
        uf.union(ids[5], ids[6]);
        assert_eq!(uf.union(ids[5], ids[3]), (Id(3), true));
        for i in [3, 5, 6] {
            assert_eq!(uf.find(ids[i]), Id(3));
        }
    }

    #[test]
    fn congruence_closure_merges_parents_of_merged_children() {
        let mut eg = EGraph::new();
        let x = eg.add(ENode::Access { shape: 0 });
        let y = eg.add(ENode::Access { shape: 1 });
        let fx = eg.add(ENode::Temporal {
            axis: Axis::N,
            tile: 0,
            body: x,
        });
        let fy = eg.add(ENode::Temporal {
            axis: Axis::N,
            tile: 0,
            body: y,
        });
        assert_ne!(eg.find(fx), eg.find(fy));
        eg.union(x, y);
        eg.rebuild();
        assert_eq!(eg.find(fx), eg.find(fy), "f(x) ≡ f(y) once x ≡ y");
        // The two congruent nodes collapsed into one resident node.
        assert_eq!(eg.node_count(), 3);
    }

    #[test]
    fn rebuild_is_a_fixpoint() {
        let mut eg = EGraph::new();
        let x = eg.add(ENode::Access { shape: 0 });
        let y = eg.add(ENode::Access { shape: 1 });
        let mut prev = x;
        for axis in [Axis::M, Axis::N, Axis::K] {
            prev = eg.add(ENode::Temporal {
                axis,
                tile: 0,
                body: prev,
            });
        }
        let mut prev_y = y;
        for axis in [Axis::M, Axis::N, Axis::K] {
            prev_y = eg.add(ENode::Temporal {
                axis,
                tile: 0,
                body: prev_y,
            });
        }
        eg.union(x, y);
        eg.rebuild();
        assert_eq!(
            eg.find(prev),
            eg.find(prev_y),
            "towers collapse level by level"
        );
        assert_eq!(eg.rebuild(), 0, "second rebuild has nothing to do");
    }
}

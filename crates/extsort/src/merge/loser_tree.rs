//! Tournament (loser) tree for k-way merging.
//!
//! Selecting the smallest of `k` candidate records with a linear scan costs
//! `O(k)` per output record; a loser tree brings that down to `O(log k)` by
//! remembering, at every internal node, the loser of the comparison played
//! there, so only one root-to-leaf path has to be replayed when a source
//! produces its next record. This is the standard database implementation of
//! the k-way merge described in §2.1.2. Inside the crate only the merge
//! type of [`kway`](crate::merge::kway) builds, pops and refills one.
//!
//! Every node caches the [`sort_key`](SortableRecord::sort_key) of its
//! loser beside the source index, so a replay compares plain integers and
//! picks the new winner with a select rather than a data-dependent branch.
//! Only when two keys are equal does it compare the records with `Ord`, and
//! then the source indices.

use std::cmp::Ordering;
use twrs_storage::SortableRecord;

/// One player: a source and the cached key of its head record
/// (`u64::MAX` once the source is exhausted).
#[derive(Debug, Clone, Copy, Default)]
struct Player {
    key: u64,
    source: usize,
}

/// A tournament tree over `k` sources that owns each source's head record.
///
/// The caller pops the smallest head with [`pop`](LoserTree::pop), then
/// hands the tree that source's next record (or `None` once the source is
/// exhausted) with [`refill`](LoserTree::refill). Exhausted sources order
/// after every record, and records that compare equal leave in source
/// order, so the merge is stable with respect to run order.
///
/// The key comparison relies on the [`SortableRecord::sort_key`] contract:
/// `a < b` implies `a.sort_key() <= b.sort_key()`. A projection that breaks
/// it misorders the merge output.
#[derive(Debug, Clone)]
pub struct LoserTree<T: SortableRecord> {
    /// `losers[1..k]` hold the loser of the match played at that internal
    /// node; the leaves are the implicit positions `k..2k`.
    losers: Vec<Player>,
    /// The head record of every source; `None` once it is exhausted.
    heads: Vec<Option<T>>,
    winner: Player,
}

impl<T: SortableRecord> LoserTree<T> {
    /// Builds a tree over the first record of every source (`None` for a
    /// source that is empty).
    pub fn new(heads: Vec<Option<T>>) -> Self {
        let k = heads.len();
        let mut tree = LoserTree {
            losers: vec![Player::default(); k],
            heads,
            winner: Player::default(),
        };
        if k == 0 {
            return tree;
        }
        // winners[n] is the winner of the subtree rooted at node n, with the
        // leaves at positions k..2k; every internal node is filled from its
        // two children before it is read.
        let mut winners = vec![Player::default(); k];
        winners.extend(tree.heads.iter().enumerate().map(|(source, head)| Player {
            key: Self::key_of(head),
            source,
        }));
        for n in (1..k).rev() {
            let (left, right) = (winners[2 * n], winners[2 * n + 1]);
            let (winner, loser) = if tree.beats(left, right) {
                (left, right)
            } else {
                (right, left)
            };
            winners[n] = winner;
            tree.losers[n] = loser;
        }
        tree.winner = winners[1];
        tree
    }

    /// The index of the source holding the smallest head record.
    pub fn winner(&self) -> usize {
        self.winner.source
    }

    /// Takes the smallest head record out of the tree, or returns `None`
    /// when every source is exhausted. The winner's source must then be
    /// refilled with [`refill`](LoserTree::refill) before the next `pop`.
    pub fn pop(&mut self) -> Option<T> {
        self.heads.get_mut(self.winner.source)?.take()
    }

    /// Installs `next` as the new head of the source the last
    /// [`pop`](LoserTree::pop) emptied (`None` once that source is
    /// exhausted) and replays its leaf-to-root path; the new winner is
    /// then [`winner`](LoserTree::winner).
    pub fn refill(&mut self, next: Option<T>) {
        let source = self.winner.source;
        let key = Self::key_of(&next);
        let Some(slot) = self.heads.get_mut(source) else {
            return;
        };
        *slot = next;
        let mut winner = Player { key, source };
        let mut node = (self.heads.len() + source) / 2;
        while node > 0 {
            let contender = self.losers[node];
            let swap = self.beats(contender, winner);
            self.losers[node] = if swap { winner } else { contender };
            winner = if swap { contender } else { winner };
            node /= 2;
        }
        self.winner = winner;
    }

    /// The cached key of a head: its `sort_key`, or `u64::MAX` once the
    /// source is exhausted.
    fn key_of(head: &Option<T>) -> u64 {
        head.as_ref().map_or(u64::MAX, SortableRecord::sort_key)
    }

    /// `true` when `a` wins against `b`: the smaller key wins; equal keys
    /// fall back to the records.
    #[inline]
    fn beats(&self, a: Player, b: Player) -> bool {
        if a.key != b.key {
            debug_assert!(
                self.key_order_agrees(a, b),
                "sort_key order disagrees with Ord: {:?} vs {:?}",
                self.heads[a.source],
                self.heads[b.source]
            );
            return a.key < b.key;
        }
        self.beats_on_records(a, b)
    }

    /// Decides a match between equal keys: the smaller record wins, an
    /// exhausted source always loses, and full ties go to the smaller
    /// source index.
    ///
    /// Kept out of line on purpose: inlined, its constant outcomes let the
    /// compiler turn the select in [`refill`](LoserTree::refill) back into
    /// a data-dependent branch on every key comparison.
    #[inline(never)]
    fn beats_on_records(&self, a: Player, b: Player) -> bool {
        match (&self.heads[a.source], &self.heads[b.source]) {
            (Some(x), Some(y)) => match x.cmp(y) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => a.source < b.source,
            },
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a.source < b.source,
        }
    }

    /// Whether the records of `a` and `b` (whose keys differ) are ordered
    /// the way their keys are.
    fn key_order_agrees(&self, a: Player, b: Player) -> bool {
        match (&self.heads[a.source], &self.heads[b.source]) {
            (Some(x), Some(y)) => (a.key < b.key) == (x < y),
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merges the given sorted sequences using the loser tree directly.
    fn merge_with_tree(mut sources: Vec<Vec<u64>>) -> Vec<u64> {
        for s in &sources {
            assert!(s.windows(2).all(|w| w[0] <= w[1]));
        }
        let mut cursors: Vec<std::vec::IntoIter<u64>> =
            sources.drain(..).map(|v| v.into_iter()).collect();
        let heads: Vec<Option<u64>> = cursors.iter_mut().map(|c| c.next()).collect();
        let mut tree = LoserTree::new(heads);
        let mut out = Vec::new();
        while let Some(value) = tree.pop() {
            out.push(value);
            let next = cursors[tree.winner()].next();
            tree.refill(next);
        }
        out
    }

    #[test]
    fn merges_the_paper_example() {
        // Figure 2.1: three runs merged into one.
        let merged = merge_with_tree(vec![
            vec![2, 8, 12, 16],
            vec![3, 13, 14, 17],
            vec![1, 7, 9, 18],
        ]);
        assert_eq!(merged, vec![1, 2, 3, 7, 8, 9, 12, 13, 14, 16, 17, 18]);
    }

    #[test]
    fn single_source_passes_through() {
        let merged = merge_with_tree(vec![vec![1, 2, 3]]);
        assert_eq!(merged, vec![1, 2, 3]);
    }

    #[test]
    fn handles_empty_sources() {
        let merged = merge_with_tree(vec![vec![], vec![5, 6], vec![], vec![1, 9]]);
        assert_eq!(merged, vec![1, 5, 6, 9]);
    }

    #[test]
    fn handles_all_empty() {
        let merged = merge_with_tree(vec![vec![], vec![]]);
        assert!(merged.is_empty());
    }

    #[test]
    fn merges_many_sources_with_duplicates() {
        let sources: Vec<Vec<u64>> = (0..13)
            .map(|s| (0..50).map(|i| (i * 13 + s) % 97).collect::<Vec<u64>>())
            .map(|mut v| {
                v.sort_unstable();
                v
            })
            .collect();
        let mut expected: Vec<u64> = sources.iter().flatten().copied().collect();
        expected.sort_unstable();
        assert_eq!(merge_with_tree(sources), expected);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sort_key order disagrees with Ord")]
    fn a_non_monotone_sort_key_trips_the_debug_check() {
        /// A record whose `sort_key` runs against its order.
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
        struct Backwards(u64);

        impl twrs_storage::FixedSizeRecord for Backwards {
            const SIZE: usize = 8;

            fn write_to(&self, buf: &mut [u8]) {
                self.0.write_to(buf);
            }

            fn read_from(buf: &[u8]) -> Self {
                Backwards(u64::read_from(buf))
            }
        }

        impl SortableRecord for Backwards {
            fn sort_key(&self) -> u64 {
                !self.0
            }
        }

        LoserTree::new(vec![Some(Backwards(1)), Some(Backwards(2))]);
    }

    #[test]
    fn non_power_of_two_fan_in() {
        for k in 1..=9usize {
            let sources: Vec<Vec<u64>> = (0..k)
                .map(|s| ((s as u64)..100).step_by(k).collect())
                .collect();
            let mut expected: Vec<u64> = sources.iter().flatten().copied().collect();
            expected.sort_unstable();
            assert_eq!(merge_with_tree(sources), expected, "k = {k}");
        }
    }
}

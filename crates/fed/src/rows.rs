//! The one owner of a client's rows.
//!
//! A deletion names rows by their **original** index (their position in
//! the data the client registered with), so a re-applied deletion names
//! the same rows and removes nothing more. [`ClientRows`] holds the live
//! rows, compacted in original order, which every round reads, and the
//! rows its latest removal took, which that deletion's forget rows are
//! read back from — on its drain, and on a re-drain of the same batch
//! after a coordinator crash. Earlier removed rows are dropped: no drain
//! can name them again. Its index half, [`RowIndex`], is all a
//! coordinator keeps for rows held elsewhere; it translates indices into
//! the live view, the convention deletions are submitted in, to original
//! ones.

use std::borrow::Cow;

use goldfish_data::Dataset;

/// Which of a client's original rows are removed: the index half of
/// [`ClientRows`], without features.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowIndex {
    /// The removed original indices, ascending.
    gone: Vec<usize>,
}

impl RowIndex {
    /// Translates indices into the live view (the rows not removed, in
    /// order) to original ones: live row `i` is the `i`-th original row
    /// not removed. An index past the live view maps past the original
    /// data.
    pub fn originals(&self, live: &[usize]) -> Vec<usize> {
        let step = |o: usize, &g: &usize| if g <= o { o + 1 } else { o };
        live.iter()
            .map(|&i| self.gone.iter().fold(i, step))
            .collect()
    }

    /// Marks `originals` removed, with set semantics: a row named twice,
    /// or already removed, is removed once. Returns the newly removed
    /// rows, ascending.
    pub fn remove(&mut self, originals: &[usize]) -> Vec<usize> {
        let mut fresh: Vec<usize> = originals
            .iter()
            .copied()
            .filter(|o| self.gone.binary_search(o).is_err())
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        self.gone.extend(&fresh);
        self.gone.sort_unstable();
        fresh
    }
}

/// One client's rows: the live rows, and the rows its latest removal
/// took, each held once.
#[derive(Debug, Clone)]
pub struct ClientRows<'a> {
    live: Cow<'a, Dataset>,
    index: RowIndex,
    /// The original indices of the latest removal's rows, ascending, and
    /// those rows in that order.
    taken: (Vec<usize>, Dataset),
}

impl<'a> ClientRows<'a> {
    /// A client's registered data, nothing removed.
    pub fn new(data: Cow<'a, Dataset>) -> Self {
        let none = Dataset::empty(data.sample_shape(), data.classes());
        ClientRows {
            live: data,
            index: RowIndex::default(),
            taken: (Vec::new(), none),
        }
    }

    /// The live rows: every row not removed, in original order.
    pub fn live(&self) -> &Dataset {
        &self.live
    }

    /// Which original rows are removed.
    pub fn index(&self) -> &RowIndex {
        &self.index
    }

    /// How many rows the client registered with, removed ones included.
    pub fn original_len(&self) -> usize {
        self.live.len() + self.index.gone.len()
    }

    /// Moves original rows out of the live rows, with
    /// [`RowIndex::remove`]'s set semantics. A removal that takes any
    /// row replaces the rows the previous one took; one that takes none
    /// (a re-drain) leaves them.
    ///
    /// # Panics
    ///
    /// A row past [`ClientRows::original_len`].
    pub fn remove(&mut self, originals: &[usize]) {
        let before = self.index.clone();
        let fresh = self.index.remove(originals);
        if fresh.is_empty() {
            return;
        }
        let live_at = |&o: &usize| o - before.gone.partition_point(|&g| g < o);
        let at: Vec<usize> = fresh.iter().map(live_at).collect();
        let keep: Vec<usize> = (0..self.live.len())
            .filter(|i| at.binary_search(i).is_err())
            .collect();
        self.taken = (fresh, self.live.subset(&at));
        self.live = Cow::Owned(self.live.subset(&keep));
    }

    /// The rows of the latest removal among `originals`, each once, in
    /// ascending original order: a deletion's forget rows, read back.
    pub fn removed_rows(&self, originals: &[usize]) -> Dataset {
        let (at, rows) = &self.taken;
        let mut pick: Vec<usize> = originals
            .iter()
            .filter_map(|o| at.binary_search(o).ok())
            .collect();
        pick.sort_unstable();
        pick.dedup();
        rows.subset(&pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_data::synthetic::{self, SyntheticSpec};
    use proptest::prelude::*;

    fn data(n: usize) -> Dataset {
        let spec = SyntheticSpec::mnist().with_size(4, 4);
        synthetic::generate(&spec, n, 0, 11).0
    }

    /// Features and labels as bits, for bitwise equality.
    fn bits(d: &Dataset) -> (Vec<u32>, Vec<usize>) {
        let f = d
            .features()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        (f, d.labels().to_vec())
    }

    #[test]
    fn a_second_deletion_addresses_original_rows() {
        let d = data(40);
        let mut rows = ClientRows::new(Cow::Borrowed(&d));
        rows.remove(&[1]);
        // Live row 5 is original row 6 once row 1 is gone.
        let second = rows.index().originals(&[5]);
        assert_eq!(second, [6]);
        rows.remove(&second);
        assert_eq!(rows.live().len(), 38);
        assert_eq!(bits(&rows.removed_rows(&second)), bits(&d.subset(&[6])));
        // Row 1 went with the first removal's rows; a re-drain of the
        // second removes nothing and still reads row 6 back.
        rows.remove(&[6, 1]);
        assert_eq!(rows.live().len(), 38);
        assert_eq!(bits(&rows.removed_rows(&[1, 6])), bits(&d.subset(&[6])));
        assert_eq!(rows.original_len(), 40);
        // Past the live view maps past the original data.
        assert_eq!(rows.index().originals(&[38, 0]), [40, 0]);
    }

    #[test]
    fn a_duplicated_index_forgets_its_row_once() {
        let d = data(10);
        let mut rows = ClientRows::new(Cow::Borrowed(&d));
        rows.remove(&[4, 2, 4]);
        assert_eq!(rows.live().len(), 8);
        assert_eq!(rows.index().originals(&[0, 1, 2]), [0, 1, 3]);
        assert_eq!(
            bits(&rows.removed_rows(&[4, 4, 2])),
            bits(&d.subset(&[2, 4]))
        );
    }

    proptest! {
        #[test]
        fn removals_have_set_semantics(
            a in proptest::collection::vec(0usize..24, 0..8),
            b in proptest::collection::vec(0usize..24, 0..8),
        ) {
            let d = data(24);
            let mut union: Vec<usize> = a.iter().chain(&b).copied().collect();
            union.sort_unstable();
            union.dedup();

            // remove(A) then remove(B) is remove(A ∪ B)...
            let mut twice = ClientRows::new(Cow::Borrowed(&d));
            twice.remove(&a);
            twice.remove(&b);
            let mut once = ClientRows::new(Cow::Borrowed(&d));
            once.remove(&union);
            prop_assert_eq!(twice.index(), once.index());
            prop_assert_eq!(bits(twice.live()), bits(once.live()));
            prop_assert_eq!(bits(&once.removed_rows(&union)), bits(&d.subset(&union)));

            // ...and reads back, bitwise, the rows of its latest removal
            // that took any: B's fresh rows, else A's...
            let mut fresh: Vec<usize> = b.iter().copied().filter(|o| !a.contains(o)).collect();
            if fresh.is_empty() {
                fresh = a.clone();
            }
            fresh.sort_unstable();
            fresh.dedup();
            let taken = bits(&d.subset(&fresh));
            prop_assert_eq!(bits(&twice.removed_rows(&union)), taken.clone());

            // ...and removing what is gone again changes nothing.
            let (live, index) = (bits(twice.live()), twice.index().clone());
            twice.remove(&a);
            prop_assert_eq!(bits(twice.live()), live);
            prop_assert_eq!(twice.index(), &index);
            prop_assert_eq!(bits(&twice.removed_rows(&union)), taken);

            // Translating live indices names the rows the live view holds.
            let live: Vec<usize> = (0..twice.live().len()).collect();
            let originals = twice.index().originals(&live);
            prop_assert_eq!(bits(&d.subset(&originals)), bits(twice.live()));
        }
    }
}

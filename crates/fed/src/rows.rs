//! The one owner of a client's rows.
//!
//! A deletion names rows by their **original** index (their position in
//! the data the client registered with), so a re-applied deletion names
//! the same rows and removes nothing more. [`ClientRows`] holds the live
//! rows, compacted in original order, which every round reads, and the
//! current deletion's forget rows, which it lends to that deletion's
//! distillation rounds — on its drain, and on a re-drain of the same
//! batch after a coordinator crash — until a training round commits the
//! deletion and drops them ([`ClientRows::commit`]). The store is their
//! one holder: once a drain is followed by a training round, no deleted
//! row is held anywhere. Its index half, [`RowIndex`], is all a
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

/// One client's rows: the live rows, and the current deletion's forget
/// rows, each held once.
#[derive(Debug, Clone)]
pub struct ClientRows<'a> {
    live: Cow<'a, Dataset>,
    index: RowIndex,
    /// The current deletion's forget rows: their original indices,
    /// ascending, and those rows in that order. Empty rows hold none.
    forget: (Vec<usize>, Cow<'a, Dataset>),
}

impl<'a> ClientRows<'a> {
    /// A client's registered data, nothing removed.
    pub fn new(data: Cow<'a, Dataset>) -> Self {
        let none = Dataset::empty(data.sample_shape(), data.classes());
        ClientRows {
            live: data,
            index: RowIndex::default(),
            forget: (Vec::new(), Cow::Owned(none)),
        }
    }

    /// A library split's rows, borrowed: `remaining` is the registered
    /// data and `forget` the forget rows, named by no original index (no
    /// removal can address them).
    pub fn lending(remaining: &'a Dataset, forget: &'a Dataset) -> Self {
        ClientRows {
            live: Cow::Borrowed(remaining),
            index: RowIndex::default(),
            forget: (Vec::new(), Cow::Borrowed(forget)),
        }
    }

    /// The live rows: every row not removed, in original order.
    pub fn live(&self) -> &Dataset {
        &self.live
    }

    /// The current deletion's forget rows, in ascending original order,
    /// lent to its distillation rounds: empty for a client the deletion
    /// does not name, and once a training round has committed it.
    pub fn forget(&self) -> &Dataset {
        &self.forget.1
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
    /// [`RowIndex::remove`]'s set semantics, and sets the forget rows to
    /// the rows it took. One that takes none (a re-drain, or a client the
    /// drain does not name) keeps those of the current forget rows that
    /// `originals` names, and no others.
    ///
    /// # Panics
    ///
    /// A row past [`ClientRows::original_len`].
    pub fn remove(&mut self, originals: &[usize]) {
        let fresh = self.index.remove(originals);
        let (at, rows) = &self.forget;
        if fresh.is_empty() {
            let pick: Vec<usize> = (0..at.len())
                .filter(|&k| originals.contains(&at[k]))
                .collect();
            if pick.len() < rows.len() {
                let at = pick.iter().map(|&k| at[k]).collect();
                self.forget = (at, Cow::Owned(rows.subset(&pick)));
            }
            return;
        }
        // Of the rows gone below the `k`-th fresh row, `k` are fresh.
        let gone = &self.index.gone;
        let live_at = |(k, &o): (usize, &usize)| o + k - gone.partition_point(|&g| g < o);
        let at: Vec<usize> = fresh.iter().enumerate().map(live_at).collect();
        let keep: Vec<usize> = (0..self.live.len())
            .filter(|i| at.binary_search(i).is_err())
            .collect();
        self.forget = (fresh, Cow::Owned(self.live.subset(&at)));
        self.live = Cow::Owned(self.live.subset(&keep));
    }

    /// Drops the forget rows, as a removal that names none of them does:
    /// a training round commits the deletion that lent them. Costs
    /// nothing when none are held.
    pub fn commit(&mut self) {
        self.remove(&[]);
    }
}

impl<'a> From<&'a Dataset> for ClientRows<'a> {
    fn from(data: &'a Dataset) -> Self {
        ClientRows::new(Cow::Borrowed(data))
    }
}

impl From<Dataset> for ClientRows<'_> {
    fn from(data: Dataset) -> Self {
        ClientRows::new(Cow::Owned(data))
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
        let mut rows = ClientRows::from(&d);
        rows.remove(&[1]);
        // Live row 5 is original row 6 once row 1 is gone.
        let second = rows.index().originals(&[5]);
        assert_eq!(second, [6]);
        rows.remove(&second);
        assert_eq!(rows.live().len(), 38);
        assert_eq!(bits(rows.forget()), bits(&d.subset(&[6])));
        // Row 1 went with the first removal's rows; a re-drain of the
        // second removes nothing and still forgets row 6.
        rows.remove(&[6, 1]);
        assert_eq!(rows.live().len(), 38);
        assert_eq!(bits(rows.forget()), bits(&d.subset(&[6])));
        assert_eq!(rows.original_len(), 40);
        // Past the live view maps past the original data.
        assert_eq!(rows.index().originals(&[38, 0]), [40, 0]);
        // A training round commits the deletion: nothing is held, and a
        // later frame naming its rows forgets nothing.
        rows.commit();
        assert!(rows.forget().is_empty());
        rows.remove(&[6]);
        assert!(rows.forget().is_empty());
        assert_eq!(rows.live().len(), 38);
    }

    #[test]
    fn a_duplicated_index_forgets_its_row_once() {
        let d = data(10);
        let mut rows = ClientRows::from(&d);
        rows.remove(&[4, 2, 4]);
        assert_eq!(rows.live().len(), 8);
        assert_eq!(rows.index().originals(&[0, 1, 2]), [0, 1, 3]);
        assert_eq!(bits(rows.forget()), bits(&d.subset(&[2, 4])));
    }

    proptest! {
        #[test]
        fn removals_have_set_semantics(
            a in proptest::collection::vec(0usize..24, 0..8),
            b in proptest::collection::vec(0usize..24, 0..8),
        ) {
            let d = data(24);
            let sorted = |mut v: Vec<usize>| {
                v.sort_unstable();
                v.dedup();
                v
            };
            let union = sorted(a.iter().chain(&b).copied().collect());

            // remove(A) then remove(B) is remove(A ∪ B)...
            let mut twice = ClientRows::from(&d);
            twice.remove(&a);
            twice.remove(&b);
            let mut once = ClientRows::from(&d);
            once.remove(&union);
            prop_assert_eq!(twice.index(), once.index());
            prop_assert_eq!(bits(twice.live()), bits(once.live()));
            prop_assert_eq!(bits(once.forget()), bits(&d.subset(&union)));

            // ...and forgets, bitwise, B's fresh rows if there are any,
            // else the rows of A's removal that B names, else none...
            let fresh = sorted(b.iter().copied().filter(|o| !a.contains(o)).collect());
            let held = if fresh.is_empty() {
                sorted(b.iter().copied().filter(|o| a.contains(o)).collect())
            } else {
                fresh
            };
            prop_assert_eq!(bits(twice.forget()), bits(&d.subset(&held)));

            // ...and removing what is gone again changes nothing but the
            // forget rows, which keep only the rows it names.
            let (live, index) = (bits(twice.live()), twice.index().clone());
            twice.remove(&a);
            prop_assert_eq!(bits(twice.live()), live.clone());
            prop_assert_eq!(twice.index(), &index);
            let named: Vec<usize> = held.iter().copied().filter(|o| a.contains(o)).collect();
            prop_assert_eq!(bits(twice.forget()), bits(&d.subset(&named)));

            // A commit drops them and leaves the live rows.
            twice.commit();
            prop_assert!(twice.forget().is_empty());
            prop_assert_eq!(bits(twice.live()), live);

            // Translating live indices names the rows the live view holds.
            let live: Vec<usize> = (0..twice.live().len()).collect();
            let originals = twice.index().originals(&live);
            prop_assert_eq!(bits(&d.subset(&originals)), bits(twice.live()));
        }
    }
}

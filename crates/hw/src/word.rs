//! Stream words and flits.

use std::fmt;

/// A 64-bit hardware word, optionally carrying one of the paper's
/// genomics sentinels (`Ins` for a base not present in the reference,
/// `Del` for a reference position not present in the read — Figure 3).
///
/// # Examples
///
/// ```
/// use genesis_hw::word::HwWord;
///
/// assert_eq!(HwWord::Val(7).as_val(), Some(7));
/// assert!(HwWord::Ins.is_marker());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HwWord {
    /// An ordinary value.
    Val(u64),
    /// Inserted-base sentinel.
    Ins,
    /// Deleted-base sentinel.
    Del,
    /// Unused field slot.
    #[default]
    Empty,
}

impl HwWord {
    /// Returns the payload of a `Val` word.
    #[must_use]
    pub fn as_val(self) -> Option<u64> {
        match self {
            HwWord::Val(v) => Some(v),
            _ => None,
        }
    }

    /// True for the `Ins`/`Del` sentinels.
    #[must_use]
    pub fn is_marker(self) -> bool {
        matches!(self, HwWord::Ins | HwWord::Del)
    }

    /// Payload or 0 for sentinels/empty — the hardware's "don't care" view.
    #[must_use]
    pub fn val_or_zero(self) -> u64 {
        self.as_val().unwrap_or(0)
    }
}

impl From<u64> for HwWord {
    fn from(v: u64) -> HwWord {
        HwWord::Val(v)
    }
}

impl fmt::Display for HwWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwWord::Val(v) => write!(f, "{v}"),
            HwWord::Ins => write!(f, "Ins"),
            HwWord::Del => write!(f, "Del"),
            HwWord::Empty => write!(f, "-"),
        }
    }
}

/// Maximum number of fields a flit can carry.
pub const MAX_FIELDS: usize = 8;

/// Two-bit field tags of the packed [`Flit`]. `Empty` is zero so an unused
/// slot is all-zero bits.
const TAG_EMPTY: u16 = 0;
const TAG_VAL: u16 = 1;
const TAG_INS: u16 = 2;
const TAG_DEL: u16 = 3;

/// The atomic unit of communication between modules (paper §III-C): a small
/// group of typed fields, or an explicit *end-of-item* delimiter separating
/// data items (e.g. reads) within a stream.
///
/// Fields are stored packed — one `u64` payload per slot plus a two-bit
/// tag per slot — and kept in canonical form: a sentinel or `Empty` field
/// has payload 0, and every slot at or beyond [`Flit::len`] is `Empty`.
/// Two flits carrying the same fields are therefore bitwise equal however
/// they were built. [`HwWord`] is the view of one field at the API edge
/// ([`Flit::field`], [`Flit::push`], [`Flit::data`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    vals: [u64; MAX_FIELDS],
    tags: u16,
    len: u8,
    end_item: bool,
}

// A queue slot is one flit; every hop copies one (DESIGN.md §6).
const _: () = assert!(std::mem::size_of::<Flit>() <= 72);

impl Flit {
    /// Creates a data flit with no fields yet; append them with
    /// [`Flit::push`], [`Flit::push_val`] and [`Flit::push_from`].
    #[must_use]
    pub fn new() -> Flit {
        Flit { vals: [0; MAX_FIELDS], tags: 0, len: 0, end_item: false }
    }

    /// Creates a data flit from fields.
    ///
    /// # Panics
    ///
    /// Panics when more than [`MAX_FIELDS`] fields are given.
    #[must_use]
    pub fn data(fields: &[HwWord]) -> Flit {
        let mut f = Flit::new();
        for &w in fields {
            f.push(w);
        }
        f
    }

    /// Creates a single-value data flit.
    #[must_use]
    pub fn val(v: u64) -> Flit {
        let mut f = Flit::new();
        f.push_val(v);
        f
    }

    /// Creates an end-of-item delimiter flit.
    #[must_use]
    pub fn end_item() -> Flit {
        Flit { vals: [0; MAX_FIELDS], tags: 0, len: 0, end_item: true }
    }

    /// True for the end-of-item delimiter.
    #[must_use]
    pub fn is_end_item(&self) -> bool {
        self.end_item
    }

    /// The populated fields, in order.
    pub fn fields(&self) -> impl Iterator<Item = HwWord> + '_ {
        (0..self.len()).map(|i| self.field(i))
    }

    /// Number of populated fields.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the flit carries no fields (delimiters).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Field `i`, or `Empty` when out of range.
    #[must_use]
    pub fn field(&self, i: usize) -> HwWord {
        if i >= MAX_FIELDS {
            return HwWord::Empty;
        }
        // Slots beyond `len` are canonical `Empty`, so no length check.
        match (self.tags >> (2 * i)) & 3 {
            TAG_VAL => HwWord::Val(self.vals[i]),
            TAG_INS => HwWord::Ins,
            TAG_DEL => HwWord::Del,
            _ => HwWord::Empty,
        }
    }

    /// Claims the next field slot and returns its index.
    fn next_slot(&mut self) -> usize {
        let i = self.len as usize;
        assert!(i < MAX_FIELDS, "flit supports at most {MAX_FIELDS} fields");
        debug_assert!(!self.end_item, "an end-of-item delimiter carries no fields");
        self.len += 1;
        i
    }

    /// Appends one field.
    ///
    /// # Panics
    ///
    /// Panics when the flit already carries [`MAX_FIELDS`] fields.
    pub fn push(&mut self, w: HwWord) {
        let i = self.next_slot();
        let (tag, v) = match w {
            HwWord::Val(v) => (TAG_VAL, v),
            HwWord::Ins => (TAG_INS, 0),
            HwWord::Del => (TAG_DEL, 0),
            HwWord::Empty => (TAG_EMPTY, 0),
        };
        self.vals[i] = v;
        self.tags |= tag << (2 * i);
    }

    /// Appends one plain value field (`push(HwWord::Val(v))`).
    ///
    /// # Panics
    ///
    /// As [`Flit::push`].
    pub fn push_val(&mut self, v: u64) {
        let i = self.next_slot();
        self.vals[i] = v;
        self.tags |= TAG_VAL << (2 * i);
    }

    /// Appends field `i` of `src` (`Empty` when out of range) without
    /// unpacking it.
    ///
    /// # Panics
    ///
    /// As [`Flit::push`].
    pub fn push_from(&mut self, src: &Flit, i: usize) {
        let slot = self.next_slot();
        if i < MAX_FIELDS {
            self.vals[slot] = src.vals[i];
            self.tags |= ((src.tags >> (2 * i)) & 3) << (2 * slot);
        }
    }

    /// Returns a new flit with the fields of `other` appended (the Joiner's
    /// merge-by-concatenation, paper §III-C).
    ///
    /// # Panics
    ///
    /// Panics when the combined field count exceeds [`MAX_FIELDS`].
    #[must_use]
    pub fn concat(&self, other: &Flit) -> Flit {
        let total = self.len() + other.len();
        assert!(total <= MAX_FIELDS, "joined flit would carry {total} fields");
        let mut f = Flit { end_item: false, ..*self };
        f.vals[self.len()..total].copy_from_slice(&other.vals[..other.len()]);
        // `other`'s unused tags are zero; a full `self` shifts them all out.
        f.tags |= (u32::from(other.tags) << (2 * self.len())) as u16;
        f.len = total as u8;
        f
    }

    /// Returns a new flit keeping only the selected field indices.
    ///
    /// # Panics
    ///
    /// Panics when more than [`MAX_FIELDS`] indices are given.
    #[must_use]
    pub fn select(&self, indices: &[usize]) -> Flit {
        let mut f = Flit::new();
        for &i in indices {
            f.push_from(self, i);
        }
        f
    }
}

impl Default for Flit {
    fn default() -> Flit {
        Flit::new()
    }
}

impl fmt::Debug for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.end_item {
            return f.write_str("Flit::End");
        }
        f.write_str("Flit")?;
        f.debug_list().entries(self.fields()).finish()
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.end_item {
            return write!(f, "|END|");
        }
        write!(f, "(")?;
        for (i, w) in self.fields().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{w}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn data_flit_fields() {
        let f = Flit::data(&[HwWord::Val(1), HwWord::Ins]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.field(0), HwWord::Val(1));
        assert_eq!(f.field(1), HwWord::Ins);
        assert_eq!(f.field(5), HwWord::Empty);
        assert_eq!(f.field(MAX_FIELDS), HwWord::Empty);
        assert_eq!(f.field(usize::MAX), HwWord::Empty);
        assert!(!f.is_end_item());
    }

    #[test]
    fn end_item_flit() {
        let f = Flit::end_item();
        assert!(f.is_end_item());
        assert!(f.is_empty());
        assert_eq!(f.to_string(), "|END|");
        assert_ne!(f, Flit::new(), "a delimiter is not a zero-field data flit");
    }

    #[test]
    fn concat_merges_fields() {
        let a = Flit::data(&[HwWord::Val(1), HwWord::Val(2)]);
        let b = Flit::data(&[HwWord::Del]);
        let c = a.concat(&b);
        assert_eq!(c, Flit::data(&[HwWord::Val(1), HwWord::Val(2), HwWord::Del]));
        // A full left side leaves no room, and no stray tag bits.
        let full = Flit::data(&[HwWord::Del; MAX_FIELDS]);
        assert_eq!(full.concat(&Flit::new()), full);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_fields_panics() {
        let _ = Flit::data(&[HwWord::Val(0); MAX_FIELDS + 1]);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn push_past_max_fields_panics() {
        let mut f = Flit::data(&[HwWord::Val(0); MAX_FIELDS]);
        f.push_val(1);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn select_past_max_fields_panics() {
        let _ = Flit::val(1).select(&[0; MAX_FIELDS + 1]);
    }

    #[test]
    #[should_panic(expected = "joined flit would carry 9 fields")]
    fn concat_past_max_fields_panics() {
        let _ = Flit::data(&[HwWord::Val(0); MAX_FIELDS]).concat(&Flit::val(1));
    }

    #[test]
    fn select_projects() {
        let f = Flit::data(&[HwWord::Val(1), HwWord::Val(2), HwWord::Val(3)]);
        assert_eq!(f.select(&[2, 0]), Flit::data(&[HwWord::Val(3), HwWord::Val(1)]));
    }

    #[test]
    fn word_display() {
        assert_eq!(HwWord::Val(9).to_string(), "9");
        assert_eq!(HwWord::Ins.to_string(), "Ins");
        assert_eq!(HwWord::Val(9).val_or_zero(), 9);
        assert_eq!(HwWord::Del.val_or_zero(), 0);
        assert_eq!(Flit::data(&[HwWord::Val(9), HwWord::Del, HwWord::Empty]).to_string(), "(9,Del,-)");
    }

    /// The plain representation the packed flit replaced: the model the
    /// property below compares against.
    #[derive(Debug, Clone, PartialEq)]
    struct Model(Vec<HwWord>);

    impl Model {
        fn field(&self, i: usize) -> HwWord {
            self.0.get(i).copied().unwrap_or(HwWord::Empty)
        }
    }

    fn word() -> impl Strategy<Value = HwWord> {
        prop_oneof![
            (0u64..=u64::MAX).prop_map(HwWord::Val),
            (0u64..4).prop_map(HwWord::Val),
            Just(HwWord::Ins),
            Just(HwWord::Del),
            Just(HwWord::Empty),
        ]
    }

    fn words(max: usize) -> impl Strategy<Value = Vec<HwWord>> {
        proptest::collection::vec(word(), 0..max + 1)
    }

    fn assert_matches(f: &Flit, m: &Model) {
        assert!(!f.is_end_item());
        assert_eq!(f.len(), m.0.len());
        assert_eq!(f.is_empty(), m.0.is_empty());
        assert_eq!(f.fields().collect::<Vec<_>>(), m.0);
        for i in 0..MAX_FIELDS + 3 {
            assert_eq!(f.field(i), m.field(i), "field {i}");
        }
        // Canonical form: the same fields built another way are equal.
        assert_eq!(*f, Flit::data(&m.0));
    }

    proptest! {
        /// `data`/`field`/append/`concat`/`select` agree with a plain
        /// `Vec<HwWord>` model, and flits built by different routes are
        /// equal (the derived `PartialEq` sees only canonical bits).
        #[test]
        fn packed_flit_matches_the_plain_model(
            a in words(MAX_FIELDS),
            b in words(MAX_FIELDS),
            picks in proptest::collection::vec(0usize..MAX_FIELDS + 2, 0..MAX_FIELDS + 1),
        ) {
            let fa = Flit::data(&a);
            assert_matches(&fa, &Model(a.clone()));

            // Append, one field at a time, by each of the three routes.
            let mut pushed = Flit::new();
            let mut copied = Flit::new();
            for (i, &w) in a.iter().enumerate() {
                match w {
                    HwWord::Val(v) => pushed.push_val(v),
                    w => pushed.push(w),
                }
                copied.push_from(&fa, i);
            }
            prop_assert_eq!(pushed, fa);
            prop_assert_eq!(copied, fa);

            let fb = Flit::data(&b);
            if a.len() + b.len() <= MAX_FIELDS {
                let joined: Vec<HwWord> = a.iter().chain(&b).copied().collect();
                assert_matches(&fa.concat(&fb), &Model(joined));
            }

            let selected: Vec<HwWord> = picks.iter().map(|&i| Model(a.clone()).field(i)).collect();
            assert_matches(&fa.select(&picks), &Model(selected));
        }
    }
}

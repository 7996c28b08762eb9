//! Additive counter blocks, declared once.
//!
//! Every number the workspace reproduces is a sum: Table 1's cause counts,
//! the §5.1 shares, the cost of each redundant connection, the pool's
//! lifecycle tallies. [`counters!`](crate::counters!) declares such a block
//! once and generates everything that used to repeat its field list by hand:
//! the struct itself (attributes and doc comments pass through), the
//! component-wise merge, and the fixed-width word layout the shard store
//! persists (`WORDS`, `to_words`, `from_words`, fields in declaration order).
//!
//! A field is a `u64`, an array of counters (`[u64; 3]`) or another block, so
//! blocks nest: `CostTotals { visits, sums: VisitTimeline }` lays its words
//! out as the visit count followed by the timeline's words.

/// An additive block of `u64` counters with a fixed-width word layout.
///
/// Implemented by `u64`, by arrays of counters and by every
/// [`counters!`](crate::counters!) block. The word methods move a cursor over
/// a slice so nested blocks concatenate their layouts without offsets.
pub trait Counters: Sized {
    /// Number of `u64` words in the layout.
    const WORDS: usize;

    /// Component-wise sum: associative and order-insensitive.
    fn merge(&mut self, other: &Self);

    /// Write this block's words to the front of `out` and advance `out` past
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `out` holds fewer than [`Counters::WORDS`] words.
    fn put_words(&self, out: &mut &mut [u64]);

    /// Read a block from the front of `words` and advance `words` past it.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than [`Counters::WORDS`] words.
    fn take_words(words: &mut &[u64]) -> Self;
}

impl Counters for u64 {
    const WORDS: usize = 1;

    #[inline]
    fn merge(&mut self, other: &Self) {
        *self += other;
    }

    #[inline]
    fn put_words(&self, out: &mut &mut [u64]) {
        let (head, rest) = std::mem::take(out).split_first_mut().expect("word buffer shorter than WORDS");
        *head = *self;
        *out = rest;
    }

    #[inline]
    fn take_words(words: &mut &[u64]) -> Self {
        let (head, rest) = words.split_first().expect("word buffer shorter than WORDS");
        *words = rest;
        *head
    }
}

impl<T: Counters, const N: usize> Counters for [T; N] {
    const WORDS: usize = N * T::WORDS;

    #[inline]
    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.iter_mut().zip(other) {
            mine.merge(theirs);
        }
    }

    #[inline]
    fn put_words(&self, out: &mut &mut [u64]) {
        for item in self {
            item.put_words(out);
        }
    }

    #[inline]
    fn take_words(words: &mut &[u64]) -> Self {
        std::array::from_fn(|_| T::take_words(words))
    }
}

/// Declare an additive counter block once.
///
/// ```
/// netsim_types::counters! {
///     /// Requests and the octets they moved.
///     #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
///     pub struct Traffic {
///         /// Requests sent.
///         pub requests: u64,
///         /// Octets per direction (sent, received).
///         pub octets: [u64; 2],
///     }
/// }
///
/// let mut total = Traffic { requests: 1, octets: [10, 20] };
/// total.merge(&Traffic { requests: 2, octets: [1, 2] });
/// assert_eq!(total.to_words(), [3, 11, 22]);
/// assert_eq!(Traffic::from_words(&[3, 11, 22]), total);
/// ```
///
/// The struct and every field must be `pub`; each field's type implements
/// [`Counters`]. The generated inherent items are `WORDS`, the merge,
/// `to_words` and `from_words`. The merge is called `merge` unless the
/// declaration starts with `merge = name;`.
#[macro_export]
macro_rules! counters {
    (
        $(#[$($attr:tt)*])*
        pub struct $name:ident { $($body:tt)* }
    ) => {
        $crate::counters! { merge = merge; $(#[$($attr)*])* pub struct $name { $($body)* } }
    };
    (
        merge = $merge:ident;
        $(#[$($attr:tt)*])*
        pub struct $name:ident {
            $( $(#[$($field_attr:tt)*])* pub $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$($attr)*])*
        pub struct $name {
            $( $(#[$($field_attr)*])* pub $field: $ty, )*
        }

        impl $crate::Counters for $name {
            const WORDS: usize = 0 $(+ <$ty as $crate::Counters>::WORDS)*;

            #[inline]
            fn merge(&mut self, other: &Self) {
                $( $crate::Counters::merge(&mut self.$field, &other.$field); )*
            }

            #[inline]
            fn put_words(&self, out: &mut &mut [u64]) {
                $( $crate::Counters::put_words(&self.$field, out); )*
            }

            #[inline]
            fn take_words(words: &mut &[u64]) -> Self {
                $name { $( $field: <$ty as $crate::Counters>::take_words(words), )* }
            }
        }

        impl $name {
            /// Number of words in the fixed-width persistence layout.
            pub const WORDS: usize = <Self as $crate::Counters>::WORDS;

            /// Component-wise sum (associative and order-insensitive).
            #[inline]
            pub fn $merge(&mut self, other: &Self) {
                <Self as $crate::Counters>::merge(self, other);
            }

            /// The fixed-width word layout, fields in declaration order. The
            /// shard store persists it: appending a counter is a store schema
            /// bump, reordering is forbidden.
            #[inline]
            pub fn to_words(&self) -> [u64; Self::WORDS] {
                let mut words = [0; Self::WORDS];
                $crate::Counters::put_words(self, &mut &mut words[..]);
                words
            }

            /// Rebuild from the fixed-width word layout.
            #[inline]
            pub fn from_words(words: &[u64; Self::WORDS]) -> Self {
                <Self as $crate::Counters>::take_words(&mut &words[..])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::Counters;

    // Not `Copy`: clippy's `wrong_self_convention` flags `to_words(&self)` on
    // `Copy` blocks expanded inside this crate.
    crate::counters! {
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct Inner {
            pub a: u64,
            pub pair: [u64; 2],
        }
    }

    crate::counters! {
        merge = absorb;
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct Outer {
            pub count: u64,
            pub inner: Inner,
            pub nested: [Inner; 2],
        }
    }

    #[test]
    fn nested_layout_concatenates_in_declaration_order() {
        assert_eq!(Outer::WORDS, 1 + 3 + 2 * 3);
        let words: [u64; Outer::WORDS] = std::array::from_fn(|index| 100 + index as u64);
        let outer = Outer::from_words(&words);
        assert_eq!(outer.count, 100);
        assert_eq!(outer.inner, Inner { a: 101, pair: [102, 103] });
        assert_eq!(outer.nested[1], Inner { a: 107, pair: [108, 109] });
        assert_eq!(outer.to_words(), words);
    }

    #[test]
    fn merge_is_component_wise_addition() {
        let one = Outer::from_words(&std::array::from_fn(|index| index as u64));
        let mut sum = one.clone();
        sum.absorb(&one);
        assert_eq!(sum.to_words(), std::array::from_fn(|index| 2 * index as u64));
        Counters::merge(&mut sum, &Outer::default());
        assert_eq!(sum.to_words(), std::array::from_fn(|index| 2 * index as u64));

        let mut inner = Inner::from_words(&[1, 2, 3]);
        inner.merge(&Inner { a: 10, pair: [20, 30] });
        assert_eq!(inner.to_words(), [11, 22, 33]);
        assert_eq!(Inner::WORDS, 3);
    }
}

//! Stack-inline scratch for the control path.
//!
//! A netscale engine services one to three timer keys per wakeup, ten
//! thousand engines at a time. Per-call `Vec`s and `BTreeSet`s for that
//! handful made the allocator the control path's top cost, and scratch
//! kept as an engine field is paid in resident bytes by every engine in
//! the fleet — so the scratch lives on the caller's stack.

/// A push-only buffer holding up to `N` items inline and moving to the
/// heap only past that (a router with thousands of groups due at one
/// instant still works, it just allocates like a `Vec`).
pub(crate) enum InlineBuf<T: Copy, const N: usize> {
    Empty,
    /// `items[..len]` are live; the tail repeats the first item pushed.
    Inline {
        len: usize,
        items: [T; N],
    },
    Spilled(Vec<T>),
}

impl<T: Copy, const N: usize> InlineBuf<T, N> {
    pub(crate) fn new() -> Self {
        InlineBuf::Empty
    }

    pub(crate) fn push(&mut self, item: T) {
        match self {
            InlineBuf::Empty if N > 0 => *self = InlineBuf::Inline { len: 1, items: [item; N] },
            InlineBuf::Inline { len, items } if *len < N => {
                items[*len] = item;
                *len += 1;
            }
            InlineBuf::Spilled(v) => v.push(item),
            full => {
                let mut v = Vec::with_capacity(2 * N + 1);
                v.extend_from_slice(full.as_slice());
                v.push(item);
                *full = InlineBuf::Spilled(v);
            }
        }
    }

    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            InlineBuf::Empty => &[],
            InlineBuf::Inline { len, items } => &items[..*len],
            InlineBuf::Spilled(v) => v,
        }
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            InlineBuf::Empty => &mut [],
            InlineBuf::Inline { len, items } => &mut items[..*len],
            InlineBuf::Spilled(v) => v,
        }
    }
}

impl<T: Copy, const N: usize> Extend<T> for InlineBuf<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_n_then_spills_in_order() {
        let mut b: InlineBuf<u32, 3> = InlineBuf::new();
        assert!(b.as_slice().is_empty());
        b.extend([7, 5, 6]);
        assert!(matches!(b, InlineBuf::Inline { len: 3, .. }));
        b.as_mut_slice().sort_unstable();
        assert_eq!(b.as_slice(), &[5, 6, 7]);
        b.push(1);
        assert!(matches!(b, InlineBuf::Spilled(_)));
        b.push(9);
        assert_eq!(b.as_slice(), &[5, 6, 7, 1, 9]);
    }
}

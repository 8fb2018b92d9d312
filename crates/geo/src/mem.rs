//! Memory accounting: the [`MemUse`] trait every stateful type in the
//! workspace implements so fleet-wide byte totals can be summed without
//! a heap profiler.
//!
//! `hpm-geo` is the workspace's dependency root, which is why the trait
//! lives here: trajectory histories, predictors, TPT images, trainer
//! states and store indexes can all implement one shared trait without
//! a dependency cycle.
//!
//! Accounting convention: [`MemUse::mem_bytes`] reports the bytes a
//! value is *responsible for* — `size_of::<Self>()` plus every heap
//! block it owns, using `capacity` (not `len`) for growable buffers so
//! allocator-visible slack is charged to the owner. Numbers are
//! deliberately approximate where exactness would require allocator
//! introspection (hash-map control bytes, allocator rounding); they are
//! for capacity planning and regression budgets, not `malloc_usable_size`.

/// Types that can report the bytes they keep resident.
pub trait MemUse {
    /// Approximate resident bytes: `size_of::<Self>()` plus owned heap.
    fn mem_bytes(&self) -> usize;
}

/// Heap bytes of a `Vec` of plain (non-owning) elements, charging the
/// full capacity.
#[inline]
pub fn vec_cap_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Approximate heap bytes of a `std::collections::HashMap` with plain
/// keys and values: bucket array at capacity plus one control byte per
/// slot (hashbrown's layout, within rounding).
#[inline]
pub fn hashmap_bytes<K, V, S>(map: &std::collections::HashMap<K, V, S>) -> usize {
    map.capacity() * (std::mem::size_of::<(K, V)>() + 1)
}

/// The heap-only portion of a value's [`MemUse`] accounting — what a
/// *containing* struct adds for an inline field (whose `size_of` is
/// already part of the container's own `size_of::<Self>()`).
#[inline]
pub fn heap_bytes<T: MemUse>(v: &T) -> usize {
    v.mem_bytes() - std::mem::size_of::<T>()
}

impl<T: MemUse> MemUse for Option<T> {
    /// Discriminant + inline payload space (`size_of::<Option<T>>()`)
    /// plus the payload's heap when present.
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.as_ref().map_or(0, heap_bytes)
    }
}

impl<T: MemUse> MemUse for Box<T> {
    /// The pointer plus the pointee's own accounting: its inline size
    /// is a heap block the box owns.
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + T::mem_bytes(self)
    }
}

impl<T: MemUse> MemUse for Vec<T> {
    /// Header + buffer at capacity + each element's own heap.
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_cap_counts_capacity_not_len() {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        v.push(1);
        assert_eq!(vec_cap_bytes(&v), 16 * 8);
    }

    #[test]
    fn option_counts_payload_heap_only() {
        struct W(Vec<u8>);
        impl MemUse for W {
            fn mem_bytes(&self) -> usize {
                std::mem::size_of::<Self>() + self.0.capacity()
            }
        }
        let inline = std::mem::size_of::<Option<W>>();
        assert_eq!(None::<W>.mem_bytes(), inline);
        assert_eq!(heap_bytes(&None::<W>), 0);
        let w = Some(W(Vec::with_capacity(10)));
        assert_eq!(w.mem_bytes(), inline + 10);
        assert_eq!(heap_bytes(&w), 10);
    }

    #[test]
    fn boxed_value_is_a_pointer_and_a_heap_block() {
        struct W(Vec<u8>);
        impl MemUse for W {
            fn mem_bytes(&self) -> usize {
                std::mem::size_of::<Self>() + self.0.capacity()
            }
        }
        let boxed = Some(Box::new(W(Vec::with_capacity(10))));
        let (ptr, block) = (std::mem::size_of::<usize>(), std::mem::size_of::<W>() + 10);
        assert_eq!(std::mem::size_of::<Option<Box<W>>>(), ptr);
        assert_eq!(boxed.mem_bytes(), ptr + block);
        assert_eq!(heap_bytes(&boxed), block);
        assert_eq!(None::<Box<W>>.mem_bytes(), ptr);
    }

    #[test]
    fn vec_of_memuse_counts_element_heap() {
        struct W(Vec<u8>);
        impl MemUse for W {
            fn mem_bytes(&self) -> usize {
                std::mem::size_of::<Self>() + self.0.capacity()
            }
        }
        let mut v: Vec<W> = Vec::with_capacity(4);
        v.push(W(Vec::with_capacity(7)));
        assert_eq!(
            v.mem_bytes(),
            std::mem::size_of::<Vec<W>>() + 4 * std::mem::size_of::<W>() + 7
        );
        assert_eq!(heap_bytes(&v), 4 * std::mem::size_of::<W>() + 7);
    }

    #[test]
    fn hashmap_bytes_scales_with_capacity() {
        let mut m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        assert_eq!(hashmap_bytes(&m), 0);
        m.insert(1, 1);
        assert!(hashmap_bytes(&m) >= 17);
    }
}

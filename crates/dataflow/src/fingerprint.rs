//! Content fingerprints: what a program or its profile *is*, as a value.
//!
//! A partition is a function of the program and its profile (§4), so two
//! requests that carry equal contents in different allocations are the
//! same app. A [`Fingerprint`] holds the words a reader of an object
//! depends on, verbatim, plus a hash computed once: hashing it is one
//! word, and equality is a hash compare, then a pointer compare, and
//! only then the words. Because the words are kept rather than digested,
//! a hash collision can cost a cache a slow compare but never make two
//! different objects equal.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The canonical words of an object's content, shared and pre-hashed
/// ([`Graph::fingerprint`](crate::Graph::fingerprint); the profile crate's
/// `GraphProfile::fingerprint`).
#[derive(Debug, Clone)]
pub struct Fingerprint {
    hash: u64,
    words: Arc<[u64]>,
}

impl Fingerprint {
    /// Fingerprint `words`, hashing them once.
    pub fn new(words: Vec<u64>) -> Self {
        let mut h = DefaultHasher::new();
        words.hash(&mut h);
        Fingerprint {
            hash: h.finish(),
            words: words.into(),
        }
    }
}

impl PartialEq for Fingerprint {
    /// `Arc<[u64]>`'s own `==` has no pointer shortcut (std's needs a
    /// sized `T: Eq`), so the shortcut is taken here: two clones of one
    /// fingerprint compare in one pointer test, not one per word.
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.words, &other.words) || self.words == other.words)
    }
}

impl Eq for Fingerprint {}

impl Hash for Fingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_words_are_equal_fingerprints_in_any_allocation() {
        let a = Fingerprint::new(vec![3, 1, 4]);
        let b = Fingerprint::new(vec![3, 1, 4]);
        assert!(!Arc::ptr_eq(&a.words, &b.words));
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
        assert_ne!(a, Fingerprint::new(vec![3, 1, 5]));
        assert_ne!(a, Fingerprint::new(vec![3, 1]));
    }

    #[test]
    fn a_hash_collision_is_settled_by_the_words() {
        let a = Fingerprint::new(vec![1, 2]);
        let forged = Fingerprint {
            hash: a.hash,
            words: vec![2, 1].into(),
        };
        assert_ne!(a, forged);
    }
}

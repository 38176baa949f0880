//! Structured timer tokens.
//!
//! The [`Actor`](crate::Actor) trait hands timers back as bare `u64` tokens
//! (keeping the trait dyn-compatible). Actors that want structured tokens
//! ("retry push 17", "flush ino 3") register them in a [`TokenMap`], which
//! issues dense `u64` keys and returns the structure on firing.

use std::collections::HashMap;

/// Maps dense `u64` timer tokens to rich per-actor token values.
#[derive(Debug, Clone)]
pub struct TokenMap<T> {
    next: u64,
    live: HashMap<u64, T>,
}

impl<T> Default for TokenMap<T> {
    fn default() -> Self {
        TokenMap {
            next: 1,
            live: HashMap::new(),
        }
    }
}

impl<T> TokenMap<T> {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a token value, returning the `u64` to arm the timer with.
    pub fn insert(&mut self, value: T) -> u64 {
        let key = self.next;
        self.next += 1;
        self.live.insert(key, value);
        key
    }

    /// Consume a token, returning its value: a fired one, or one the
    /// actor gives up on, so its eventual firing becomes a no-op. `None`
    /// if the token was taken already.
    pub fn take(&mut self, key: u64) -> Option<T> {
        self.live.remove(&key)
    }

    /// Forget every live token, so none of their firings does anything.
    /// Keys stay monotonic: a token issued later never reuses one.
    pub fn clear(&mut self) {
        self.live.clear();
    }

    /// Number of live tokens.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no tokens are live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Tok {
        Retry(u64),
        Flush,
    }

    #[test]
    fn insert_take_roundtrip() {
        let mut m = TokenMap::new();
        let k1 = m.insert(Tok::Retry(7));
        let k2 = m.insert(Tok::Flush);
        assert_ne!(k1, k2);
        assert_eq!(m.take(k1), Some(Tok::Retry(7)));
        assert_eq!(m.take(k1), None, "second take is a no-op");
        assert_eq!(m.take(k2), Some(Tok::Flush));
        assert!(m.is_empty());
    }

    #[test]
    fn cancelled_tokens_do_not_fire() {
        // Giving a token up before it fires is taking it early.
        let mut m = TokenMap::new();
        let k = m.insert(Tok::Flush);
        assert_eq!(m.take(k), Some(Tok::Flush));
        assert_eq!(m.take(k), None, "its firing finds nothing");
    }

    #[test]
    fn bulk_cancellation() {
        let mut m = TokenMap::new();
        let gone = [m.insert(Tok::Flush), m.insert(Tok::Retry(1))];
        m.clear();
        assert!(m.is_empty());
        assert!(gone.iter().all(|&k| m.take(k).is_none()), "none fires");
        let fresh = m.insert(Tok::Retry(2));
        assert!(!gone.contains(&fresh), "keys are never reused");
        assert_eq!(m.take(fresh), Some(Tok::Retry(2)));
    }
}

//! Offline stand-in for `parking_lot`: the non-poisoning `Mutex` the
//! product uses, over `std::sync::Mutex`.

use std::fmt;

/// `parking_lot::MutexGuard`.
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// `parking_lot::Mutex`: `lock()` returns the guard directly.
#[derive(Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Locks, ignoring poisoning as parking_lot does.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Consumes the mutex.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

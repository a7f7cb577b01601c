//! The crate's one lock policy: a poisoned lock is taken anyway.
//!
//! A thread that panics while holding one of serving's locks (a request
//! handler, a warm-up, a writer) leaves the lock poisoned. The next holder
//! takes the guard out of the [`PoisonError`] instead of panicking in
//! turn, so one failed request does not fail every later one on the same
//! store, registry or overlay. That is sound only while each critical
//! section leaves its data valid at every step where it can panic.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `mutex`, recovering it from poison.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `lock`, recovering it from poison.
pub(crate) fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `lock`, recovering it from poison.
pub(crate) fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_survives_poison() {
        let mutex = Mutex::new(0);
        let rwlock = RwLock::new(0);
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = (lock(&mutex), write(&rwlock));
                panic!("poison both locks");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(mutex.is_poisoned() && rwlock.is_poisoned());
        *lock(&mutex) += 1;
        *write(&rwlock) += 2;
        assert_eq!((*lock(&mutex), *read(&rwlock)), (1, 2));
    }
}

//! Lock acquisition that outlives a panicked holder.
//!
//! Every lock in the workspace is a `std::sync` lock taken through one of
//! these four functions, which hand back the guard even when a thread
//! panicked while holding it. The server catches a panic per request, and
//! the buffer pool, counters and fault plans that request shared must stay
//! usable by the next one.
//!
//! The one lock whose poison *is* meaningful is the writer mutex of
//! `ccam_core::epoch::EpochCell`: a writer that panics mid-transaction may
//! leave the network torn, so the cell reports std's poison flag as
//! [`StorageError::Poisoned`](crate::StorageError::Poisoned) instead of
//! recovering the guard.
//!
//! The workspace's `clippy.toml` disallows the raw `lock`, `read`, `write`
//! and `wait` methods, so a new lock site comes through here.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Locks `m`, recovering the guard if a holder panicked.
#[allow(clippy::disallowed_methods)]
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes shared access to `l`, recovering the guard if a writer panicked.
#[allow(clippy::disallowed_methods)]
pub fn read_lock<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes exclusive access to `l`, recovering the guard if a writer
/// panicked.
#[allow(clippy::disallowed_methods)]
pub fn write_lock<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Releases `guard`, blocks until `cv` is notified, and returns the
/// re-acquired guard (std's `Condvar::wait`, without the poison).
#[allow(clippy::disallowed_methods)]
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 2);
    }

    #[test]
    fn rwlock_many_readers() {
        let l = RwLock::new(5);
        let a = read_lock(&l);
        let b = read_lock(&l);
        assert_eq!(*a + *b, 10);
        drop((a, b));
        *write_lock(&l) = 7;
        assert_eq!(*read_lock(&l), 7);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = lock(m);
            while !*g {
                g = wait(cv, g);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let (m, cv) = &*pair;
        *lock(m) = true;
        cv.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = Arc::new(Mutex::new(0));
        let l = Arc::new(RwLock::new(0));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            let _w = write_lock(&l2);
            panic!("poison attempt");
        })
        .join();
        assert!(m.is_poisoned() && l.is_poisoned());
        assert_eq!(*lock(&m), 0);
        assert_eq!(*read_lock(&l), 0);
        assert_eq!(*write_lock(&l), 0);
    }
}

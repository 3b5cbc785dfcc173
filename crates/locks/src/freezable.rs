//! The single-object freezable readers-writer lock of §4.2, checked on one
//! timestamp of a [`crate::KeyLockState`].
//!
//! The lock table is one such lock per timestamp with equal neighbours
//! merged, so restricted to a single point it must behave exactly like the
//! paper's lock: readers share, a writer excludes everyone else, and a frozen
//! hold is never released and is reported as frozen to contenders.

#[cfg(test)]
mod tests {
    use crate::KeyLockState;
    use mvtl_common::{LockMode, Timestamp, TsRange, TxId};

    const T1: TxId = TxId(1);
    const T2: TxId = TxId(2);
    const T3: TxId = TxId(3);

    /// The one timestamp every test locks.
    fn point() -> TsRange {
        TsRange::point(Timestamp::at(5))
    }

    /// Acquires the point lock whole or not at all; a refusal reports
    /// whether the conflicting hold is frozen.
    fn try_acquire(l: &mut KeyLockState, tx: TxId, mode: LockMode) -> Result<(), bool> {
        let analysis = l.analyze(tx, mode, point());
        if !analysis.fully_grantable() {
            return Err(analysis.hit_frozen());
        }
        l.acquire(tx, mode, &analysis.grantable);
        Ok(())
    }

    fn holds(l: &KeyLockState, tx: TxId, mode: LockMode) -> bool {
        l.held(tx, mode).contains(Timestamp::at(5))
    }

    #[test]
    fn readers_share() {
        let mut l = KeyLockState::new();
        try_acquire(&mut l, T1, LockMode::Read).unwrap();
        try_acquire(&mut l, T2, LockMode::Read).unwrap();
        assert!(holds(&l, T1, LockMode::Read));
        assert!(holds(&l, T2, LockMode::Read));
    }

    #[test]
    fn writer_excludes_others() {
        let mut l = KeyLockState::new();
        try_acquire(&mut l, T1, LockMode::Write).unwrap();
        assert_eq!(try_acquire(&mut l, T2, LockMode::Read), Err(false));
        assert_eq!(try_acquire(&mut l, T2, LockMode::Write), Err(false));
        // Re-entrant for the same owner.
        try_acquire(&mut l, T1, LockMode::Write).unwrap();
        try_acquire(&mut l, T1, LockMode::Read).unwrap();
    }

    #[test]
    fn readers_block_writer() {
        let mut l = KeyLockState::new();
        try_acquire(&mut l, T1, LockMode::Read).unwrap();
        assert_eq!(try_acquire(&mut l, T2, LockMode::Write), Err(false));
        // Upgrade by the sole reader is allowed.
        try_acquire(&mut l, T1, LockMode::Write).unwrap();
    }

    #[test]
    fn freeze_reports_to_contenders() {
        let mut l = KeyLockState::new();
        try_acquire(&mut l, T1, LockMode::Write).unwrap();
        l.freeze(T1, LockMode::Write, point());
        assert_eq!(try_acquire(&mut l, T2, LockMode::Write), Err(true));
        // Releasing does not undo a freeze.
        l.release_unfrozen(T1);
        assert_eq!(l.stats().frozen_entries, 1);
        assert!(holds(&l, T1, LockMode::Write));
    }

    #[test]
    fn frozen_read_locks_survive_release() {
        let mut l = KeyLockState::new();
        try_acquire(&mut l, T1, LockMode::Read).unwrap();
        try_acquire(&mut l, T2, LockMode::Read).unwrap();
        l.freeze(T1, LockMode::Read, point());
        l.release_unfrozen(T1);
        l.release_unfrozen(T2);
        // T1's frozen read lock still blocks writers, and reports frozen.
        assert_eq!(try_acquire(&mut l, T3, LockMode::Write), Err(true));
        assert!(!l.is_empty());
    }

    #[test]
    fn freeze_requires_holding() {
        // Freezing a hold one does not have freezes nothing.
        let mut l = KeyLockState::new();
        l.freeze(T1, LockMode::Write, point());
        l.freeze(T1, LockMode::Read, point());
        assert!(l.is_empty());
        try_acquire(&mut l, T2, LockMode::Write).unwrap();
    }

    #[test]
    fn release_of_unheld_lock_is_noop() {
        let mut l = KeyLockState::new();
        l.release_unfrozen(T1);
        assert!(l.is_empty());
    }
}

//! Offline shim for the subset of [rayon](https://crates.io/crates/rayon)
//! this workspace uses: `scope` and `Scope::spawn`.
//!
//! Parallelism is real (scoped OS threads), but there is no work-stealing
//! pool: each `scope` spawns its own scoped threads. That keeps the
//! parallel *semantics* the PAREMSP tests assert while staying
//! dependency-free. See `shims/README.md`.

/// A scope in which tasks can be spawned; mirrors `rayon::Scope` on top of
/// [`std::thread::scope`].
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task running concurrently with the rest of the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || f(&Scope { inner }));
    }
}

/// Runs `f` with a [`Scope`]; returns once every spawned task finished.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| f(&Scope { inner: s }))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_spawn_runs_all_tasks() {
        let counter = AtomicUsize::new(0);
        super::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }
}

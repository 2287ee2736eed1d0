//! Cooperative SIGINT handling for long-running harness binaries.
//!
//! The workspace cannot pull the `libc` crate, but `std` already links the
//! platform C library, so the raw `signal(2)` entry point is declared
//! directly. The handler is async-signal-safe by construction: it only
//! stores one relaxed [`AtomicBool`]. Long loops poll [`interrupted`]
//! between units of work, flush a final checkpoint or partial report
//! through [`crate::atomic_write`], and exit with [`SIGINT_EXIT_CODE`].
//!
//! A second Ctrl-C while the first is still being honoured restores the
//! default disposition and re-raises, so a wedged run can always be killed.

use std::sync::atomic::{AtomicBool, Ordering};

/// Conventional exit code for "terminated by SIGINT" (128 + 2).
pub const SIGINT_EXIT_CODE: i32 = 130;

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::INTERRUPTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn raise(signum: i32) -> i32;
    }

    extern "C" fn on_sigint(_sig: i32) {
        if INTERRUPTED.swap(true, Ordering::Relaxed) {
            // Second Ctrl-C: give up on the graceful path.
            unsafe {
                signal(SIGINT, SIG_DFL);
                raise(SIGINT);
            }
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGINT handler. Idempotent; call once at binary start.
pub fn install_sigint_handler() {
    imp::install();
}

/// True once SIGINT has been received. Poll between units of work.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

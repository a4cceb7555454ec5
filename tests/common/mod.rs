//! Helpers shared by the integration tests that boot servers in-process.

use std::sync::atomic::{AtomicBool, Ordering};

/// Sets every flag when dropped, so a failed assertion inside a fleet's
/// scope stops its servers instead of hanging the test.
pub struct StopOnDrop<'a>(pub Vec<&'a AtomicBool>);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        for down in &self.0 {
            down.store(true, Ordering::SeqCst);
        }
    }
}

//! Error type for BDD operations.

use std::error::Error;
use std::fmt;

/// Errors produced by BDD construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BddError {
    /// The manager's node limit was exceeded; the caller should report
    /// the computation as undecided or take a non-BDD path.
    NodeLimit {
        /// The configured limit that was hit.
        limit: usize,
    },
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::NodeLimit { limit } => {
                write!(f, "bdd node limit of {limit} nodes exceeded")
            }
        }
    }
}

impl Error for BddError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        assert!(!BddError::NodeLimit { limit: 10 }.to_string().is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BddError>();
    }
}

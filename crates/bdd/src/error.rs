//! Error type for BDD operations.

use std::error::Error;
use std::fmt;

/// Errors produced by BDD construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BddError {
    /// The manager's node limit was exceeded; the computation should fall
    /// back to a smaller sampling domain or a SAT-based path.
    NodeLimit {
        /// The configured limit that was hit.
        limit: usize,
    },
    /// A variable index outside the allocated range was used.
    UnknownVar {
        /// The offending variable index.
        var: u32,
    },
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::NodeLimit { limit } => {
                write!(f, "bdd node limit of {limit} nodes exceeded")
            }
            BddError::UnknownVar { var } => write!(f, "unknown bdd variable {var}"),
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
        assert!(!BddError::UnknownVar { var: 3 }.to_string().is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BddError>();
    }
}

//! Error type for the rectification engine.

use std::error::Error;
use std::fmt;

use eco_netlist::NetlistError;

/// Errors produced by the syseco engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum EcoError {
    /// The implementation and specification disagree on port structure in a
    /// way that cannot be reconciled (e.g. an output present only in the
    /// implementation).
    PortMismatch(String),
    /// A netlist operation failed.
    Netlist(NetlistError),
    /// The engine could not rectify an output within its resource limits
    /// (should not happen: the output-rewire fallback is always applicable).
    RectificationFailed {
        /// Label of the output that resisted rectification.
        output: String,
    },
    /// An active fault plan aborted the run, simulating a hard crash
    /// (SIGKILL) at a span boundary: nothing further was written and the
    /// run must be resumable from its checkpoint directory. Only
    /// constructed under `cfg(test)` or the `fault-injection` feature.
    #[cfg(any(test, feature = "fault-injection"))]
    InjectedAbort,
}

impl fmt::Display for EcoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoError::PortMismatch(msg) => write!(f, "port mismatch: {msg}"),
            EcoError::Netlist(e) => write!(f, "netlist error: {e}"),
            EcoError::RectificationFailed { output } => {
                write!(f, "failed to rectify output {output:?}")
            }
            #[cfg(any(test, feature = "fault-injection"))]
            EcoError::InjectedAbort => {
                write!(f, "injected abort (simulated crash) from the fault plan")
            }
        }
    }
}

impl Error for EcoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EcoError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<NetlistError> for EcoError {
    fn from(e: NetlistError) -> Self {
        EcoError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let cases = [
            EcoError::PortMismatch("x".into()),
            EcoError::Netlist(NetlistError::Cyclic),
            EcoError::RectificationFailed { output: "y".into() },
            EcoError::InjectedAbort,
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EcoError>();
    }
}

//! The crate-wide error type.
//!
//! Hand-rolled in the `thiserror` idiom (offline build, no proc-macro
//! dependency): one enum, a `Display` impl per variant, `std::error::Error`
//! with sources where applicable, and `From` conversions for the error
//! types that flow into it.

use fleet_kernel::Pid;
use std::fmt;

/// Everything that can go wrong in the `fleet` crate's fallible APIs.
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// A [`DeviceConfig`](crate::DeviceConfig) failed validation.
    InvalidConfig(String),
    /// An operation referenced a process that is not alive.
    ProcessNotAlive(Pid),
    /// An operation that drives the foreground app named another process.
    NotForeground(Pid),
    /// An app name was not found in the Table 3 catalog.
    UnknownApp(String),
    /// An experiment selector matched nothing in the registry.
    UnknownExperiment(String),
    /// An export or other I/O operation failed.
    Io(std::io::Error),
    /// JSON encoding/decoding of experiment records failed.
    Serde(String),
    /// An *enforcing* SLO monitor breached; the message names the failed
    /// objectives.
    SloBreached(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::InvalidConfig(why) => write!(f, "invalid device configuration: {why}"),
            FleetError::ProcessNotAlive(pid) => write!(f, "process {pid:?} is not alive"),
            FleetError::NotForeground(pid) => {
                write!(f, "process {pid:?} is not the foreground app")
            }
            FleetError::UnknownApp(name) => {
                write!(f, "unknown app `{name}` (not in Table 3 catalog)")
            }
            FleetError::UnknownExperiment(sel) => {
                write!(f, "selector `{sel}` matches no experiment id, module or alias")
            }
            FleetError::Io(e) => write!(f, "I/O error: {e}"),
            FleetError::Serde(why) => write!(f, "serialisation error: {why}"),
            FleetError::SloBreached(which) => {
                write!(f, "enforced SLO breached: {which}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

impl From<serde_json::Error> for FleetError {
    fn from(e: serde_json::Error) -> Self {
        FleetError::Serde(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        assert!(FleetError::InvalidConfig("dram too small".into())
            .to_string()
            .contains("dram too small"));
        assert!(FleetError::UnknownApp("Nope".into()).to_string().contains("Nope"));
        assert!(FleetError::UnknownExperiment("fig99".into()).to_string().contains("fig99"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err: FleetError = io.into();
        assert!(std::error::Error::source(&err).is_some());
    }
}

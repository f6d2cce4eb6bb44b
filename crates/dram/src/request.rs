//! Memory requests.

use serde::{Deserialize, Serialize};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestKind {
    /// Memory read (weights and activation loads).
    Read,
    /// Memory write (activation stores).
    Write,
}

/// One block transfer issued at a given time: what a DRAMsim3 trace
/// line holds.
///
/// Transfers larger than one burst are split into sequential bursts by
/// the controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Earliest time the request may start, in nanoseconds.
    pub issue_ns: f64,
    /// Starting byte address.
    pub addr: u64,
    /// Read or write.
    pub kind: RequestKind,
    /// Transfer size in bytes.
    pub bytes: usize,
}

impl Request {
    /// Creates a request. `issue_ns` is the earliest start time.
    pub fn new(issue_ns: u64, addr: u64, kind: RequestKind, bytes: usize) -> Self {
        Self { issue_ns: issue_ns as f64, addr, kind, bytes }
    }

    /// Creates a request with a fractional issue time.
    pub fn at_ns(issue_ns: f64, addr: u64, kind: RequestKind, bytes: usize) -> Self {
        Self { issue_ns, addr, kind, bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = Request::new(10, 0x40, RequestKind::Read, 64);
        assert_eq!(r.issue_ns, 10.0);
        let w = Request::at_ns(2.5, 0x80, RequestKind::Write, 32);
        assert_eq!(w.issue_ns, 2.5);
    }
}

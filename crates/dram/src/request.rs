//! Memory requests as seen by the controller.

/// Identifier assigned to each accepted request; completion notifications
/// carry it back to the issuer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// The in-DRAM row operations the CODIC studies schedule through the
/// controller (paper §5.2, §6.2, Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOpKind {
    /// A CODIC command: one activation-class operation per row.
    Codic,
    /// RowClone FPM copy: two back-to-back activations (Seshadri et al.).
    RowClone,
    /// LISA row-buffer-movement clone: two activations plus an extra
    /// row-buffer movement step (Chang et al.).
    LisaClone,
    /// Triple-row activation: three wordlines raised simultaneously so the
    /// bitlines charge-share to the majority value (Ambit/SIMDRAM-style
    /// bulk-bitwise MAJ/AND/OR).
    TripleAct,
    /// Dual-contact negation: the source row is sensed and the inverted
    /// sense-amplifier side drives the destination row (Ambit-style NOT),
    /// two back-to-back activations.
    DualContact,
}

impl RowOpKind {
    /// Number of row activations the operation contributes to the rank's
    /// tRRD/tFAW windows.
    #[must_use]
    pub fn activations(self) -> u8 {
        match self {
            RowOpKind::Codic => 1,
            RowOpKind::RowClone | RowOpKind::LisaClone | RowOpKind::DualContact => 2,
            RowOpKind::TripleAct => 3,
        }
    }
}

/// What a request asks the DRAM to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// Read one 64 B line.
    Read,
    /// Write one 64 B line.
    Write,
    /// Execute a bank-occupying row operation on the row containing the
    /// address. `busy_cycles` is supplied by the mechanism model.
    RowOp {
        /// Which operation (for accounting).
        op: RowOpKind,
        /// Bank-occupancy duration in memory cycles.
        busy_cycles: u32,
    },
}

/// A request entering the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRequest {
    /// Physical byte address (line-aligned addresses address the line;
    /// others are truncated).
    pub addr: u64,
    /// Operation.
    pub kind: ReqKind,
    /// Opaque caller tag, handed back unchanged in the request's
    /// [`Completion`](crate::controller::Completion). Scheduling never
    /// reads it.
    pub tag: u32,
}

impl MemRequest {
    /// Creates a request with tag 0.
    #[must_use]
    pub fn new(addr: u64, kind: ReqKind) -> Self {
        MemRequest { addr, kind, tag: 0 }
    }

    /// The same request carrying `tag` back in its completion.
    #[must_use]
    pub fn with_tag(self, tag: u32) -> Self {
        MemRequest { tag, ..self }
    }
}

/// Error returned by the controller when the target queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The rejected request, handed back to the caller.
    pub request: MemRequest,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory controller queue full for {:?}",
            self.request.kind
        )
    }
}

impl std::error::Error for QueueFull {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_counts_match_mechanisms() {
        assert_eq!(RowOpKind::Codic.activations(), 1);
        assert_eq!(RowOpKind::RowClone.activations(), 2);
        assert_eq!(RowOpKind::LisaClone.activations(), 2);
        assert_eq!(RowOpKind::TripleAct.activations(), 3);
        assert_eq!(RowOpKind::DualContact.activations(), 2);
    }

    #[test]
    fn queue_full_preserves_request() {
        let r = MemRequest::new(128, ReqKind::Read);
        let e = QueueFull { request: r };
        assert_eq!(e.request, r);
        assert!(e.to_string().contains("queue full"));
    }
}

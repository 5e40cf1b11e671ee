//! Bridges the oracle encoders to the [`wishbone_audit`] static analyzer:
//! builds the [`ModelSpec`] each one implies (which columns are
//! placement indicators, which rows are budgets) and audits the encoded
//! [`Problem`](wishbone_ilp::Problem) against it.
//!
//! [`crate::encodings::encode`] and [`crate::multitier::encode_multitier`]
//! call [`AuditReport::assert_no_errors`] on their own output under
//! `debug_assertions`, exactly as `wishbone_core::encode_deployment`
//! does, so every parity test doubles as an audit of both sides.

use wishbone_audit::{audit_model, AuditReport, IndicatorBlock, ModelSpec};

use crate::encodings::{EncodedProblem, Encoding};
use crate::multitier::EncodedMultiTier;

/// The [`ModelSpec`] of a binary (2-way) encoding: the `f` vector is a
/// single one-boundary indicator block. The general encoding's net row
/// sums continuous edge variables, so it is neither conserved nor
/// indicator-supported.
pub fn binary_spec(ep: &EncodedProblem) -> ModelSpec {
    ModelSpec {
        blocks: vec![IndicatorBlock {
            columns: vec![ep.f_vars.iter().map(|v| v.0).collect()],
        }],
        cpu_rows: ep.cpu_row.into_iter().collect(),
        net_rows: ep.net_row.into_iter().collect(),
        conserved_net: ep.encoding == Encoding::Restricted,
        general_edge_rows: ep.encoding == Encoding::General,
        pinned_rows: vec![],
    }
}

/// The [`ModelSpec`] of a multi-tier chain encoding: one block of
/// `k − 1` boundaries, one CPU row per tier, one net row per link.
pub fn multitier_spec(ep: &EncodedMultiTier) -> ModelSpec {
    ModelSpec {
        blocks: vec![IndicatorBlock {
            columns: ep
                .y_vars
                .iter()
                .map(|row| row.iter().map(|v| v.0).collect())
                .collect(),
        }],
        cpu_rows: ep.cpu_rows.iter().flatten().map(|r| r.row).collect(),
        net_rows: ep.net_rows.iter().flatten().copied().collect(),
        conserved_net: true,
        general_edge_rows: false,
        pinned_rows: vec![],
    }
}

/// Audit a binary encoding against its implied spec.
pub fn audit_binary(ep: &EncodedProblem) -> AuditReport {
    audit_model(&ep.problem, &binary_spec(ep))
}

/// Audit a multi-tier encoding against its implied spec.
pub fn audit_multitier(ep: &EncodedMultiTier) -> AuditReport {
    audit_model(&ep.problem, &multitier_spec(ep))
}

//! Bridges the encoder to the [`wishbone_audit`] static analyzer:
//! builds the [`ModelSpec`] an [`EncodedDeployment`] implies (which
//! columns are placement indicators, which rows are budgets) and audits
//! the encoded [`Problem`](wishbone_ilp::Problem) against it.
//!
//! [`crate::encodings::encode_deployment`] and
//! [`EncodedDeployment::rescale_in_place`] call
//! [`AuditReport::assert_no_errors`] on their own output, so under
//! `debug_assertions` the entire test suite doubles as an audit corpus:
//! any encoding with an `Error`-severity diagnostic aborts the test
//! that produced it. Release builds skip the check entirely — encoding
//! stays allocation-for-allocation identical on the hot rate-search
//! path.

use crate::encodings::EncodedDeployment;
use wishbone_audit::{audit_model, AuditReport, IndicatorBlock, ModelSpec, PinnedRow};

/// The [`ModelSpec`] of a deployment-tree encoding: one block per leaf
/// class, exactly one CPU row per site and one uplink row per tree
/// edge (where finite and non-empty). Every budget row's current
/// coefficients and rhs are pinned bit for bit, so an in-place rescale
/// that silently re-prices a row against this snapshot — e.g. a robust
/// `count − 1` row restated at full count — is flagged as
/// [`wishbone_audit::AuditCode::PinnedRowDrift`].
pub fn deployment_spec(ep: &EncodedDeployment) -> ModelSpec {
    ModelSpec {
        blocks: ep
            .y_vars
            .iter()
            .map(|leaf| IndicatorBlock {
                columns: leaf
                    .iter()
                    .map(|row| row.iter().map(|v| v.0).collect())
                    .collect(),
            })
            .collect(),
        cpu_rows: ep.cpu_rows.iter().flatten().map(|r| r.row).collect(),
        net_rows: ep.net_rows.iter().flatten().copied().collect(),
        conserved_net: true,
        general_edge_rows: false,
        pinned_rows: ep
            .cpu_rows
            .iter()
            .flatten()
            .map(|r| r.row)
            .chain(ep.net_rows.iter().flatten().copied())
            .map(|row| {
                let c = ep.problem.constraint(row);
                PinnedRow {
                    row,
                    terms: c.terms.iter().map(|&(v, a)| (v.0, a)).collect(),
                    rhs: c.rhs,
                }
            })
            .collect(),
    }
}

/// Audit a deployment encoding against its implied spec.
pub fn audit_deployment(ep: &EncodedDeployment) -> AuditReport {
    audit_model(&ep.problem, &deployment_spec(ep))
}

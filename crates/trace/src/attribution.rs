//! Critical-path attribution: ranked blame for lost goodput.
//!
//! The runtime walks a finished deployment trace (the per-route hop
//! ledgers and per-site loss counters of a `TreeDeploymentReport`) and
//! produces an [`AttributionReport`]: every loss bucketed by cause and
//! site, ranked by how much goodput it cost, so a collapse names the
//! site/link/operator responsible instead of leaving a raw ratio to
//! eyeball.

use std::fmt;

/// Why elements failed to reach the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossCause {
    /// A leaf's input buffer overran: the device could not keep up with
    /// its own sources, so events were never processed at all (counted
    /// in *events*, not elements).
    InputOverrun,
    /// A relay site's CPU saturated and shed elements.
    Saturation,
    /// Elements lost on the air: shared-channel contention or a
    /// lossy-uplink fade.
    ChannelLoss,
    /// A failure outage swallowed them: a gateway reboot window or a
    /// mote battery death.
    Outage,
}

impl fmt::Display for LossCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LossCause::InputOverrun => write!(f, "input overrun"),
            LossCause::Saturation => write!(f, "CPU saturation"),
            LossCause::ChannelLoss => write!(f, "channel loss"),
            LossCause::Outage => write!(f, "outage"),
        }
    }
}

/// One (cause, site) bucket of lost goodput.
#[derive(Debug, Clone, PartialEq)]
pub struct Blame {
    /// What happened.
    pub cause: LossCause,
    /// The site responsible (for [`LossCause::ChannelLoss`] the child
    /// endpoint of the lossy uplink).
    pub site: usize,
    /// Human-readable name of the blamed site/link.
    pub label: String,
    /// How many elements (events for [`LossCause::InputOverrun`]) were
    /// lost here.
    pub lost: u64,
    /// This bucket's share of all attributed losses, in `[0, 1]`.
    pub share: f64,
}

impl fmt::Display for Blame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} lost to {} ({:.1}% of losses)",
            self.label,
            self.lost,
            self.cause,
            self.share * 100.0
        )
    }
}

/// Ranked attribution of every loss in a finished deployment trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributionReport {
    /// Non-empty blame buckets, biggest loss first.
    pub blames: Vec<Blame>,
    /// Sum of all attributed losses.
    pub total_lost: u64,
    /// End-to-end goodput ratio of the run the blame explains.
    pub goodput_ratio: f64,
}

impl AttributionReport {
    /// Build a report from raw buckets: computes shares, drops empty
    /// buckets, ranks by loss.
    pub fn from_blames(mut blames: Vec<Blame>, goodput_ratio: f64) -> Self {
        blames.retain(|b| b.lost > 0);
        let total_lost: u64 = blames.iter().map(|b| b.lost).sum();
        for b in &mut blames {
            b.share = if total_lost == 0 {
                0.0
            } else {
                b.lost as f64 / total_lost as f64
            };
        }
        blames.sort_by(|a, b| b.lost.cmp(&a.lost).then(a.site.cmp(&b.site)));
        AttributionReport {
            blames,
            total_lost,
            goodput_ratio,
        }
    }

    /// The dominant loss, if anything was lost at all.
    pub fn top(&self) -> Option<&Blame> {
        self.blames.first()
    }

    /// Multi-line ranked rendering (what the examples print).
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for AttributionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "goodput {:.1}%: {} elements lost",
            self.goodput_ratio * 100.0,
            self.total_lost
        )?;
        if self.blames.is_empty() {
            write!(f, " (nothing to attribute)")?;
        }
        for b in &self.blames {
            write!(f, "\n  {b}")?;
        }
        Ok(())
    }
}

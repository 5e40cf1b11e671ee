//! Network goodput profiling tool.
//!
//! "The first step in deploying Wishbone is to profile the network topology
//! in the deployment environment ... This tool sends packets from all nodes
//! at an identical rate, which gradually increases ... takes as input a
//! target reception rate (e.g. 90%), and returns a maximum send rate (in
//! msgs/sec and bytes/sec) that the network can maintain" (§7.3.1).
//!
//! The sweep drives the channel at aggregate rates, so the profile is the
//! channel's: a deployment of `n` identical senders shares its
//! `max_aggregate_payload_rate` `n` ways, and re-profiling when the
//! deployment's environment changes is exactly what the paper prescribes.

use crate::channel::{Channel, ChannelParams};

/// Result of a network profiling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkProfile {
    /// Maximum aggregate application payload rate meeting the target,
    /// bytes/second.
    pub max_aggregate_payload_rate: f64,
    /// Reception ratio actually measured at the returned rate.
    pub measured_reception: f64,
}

/// Profile a shared channel: find the highest aggregate send rate whose
/// measured packet reception stays at or above `target_reception`.
///
/// Mirrors the paper's tool: a rate sweep with measurement at each step,
/// not an analytic inversion — so it works for any channel model.
pub fn profile_network(
    params: ChannelParams,
    probe_payload_bytes: usize,
    target_reception: f64,
    seed: u64,
) -> NetworkProfile {
    assert!((0.0..1.0).contains(&target_reception));

    let on_air_per_msg = params.format.on_air_bytes(probe_payload_bytes) as f64;
    let payload_per_msg = probe_payload_bytes as f64;

    // Sweep aggregate message rates from well below to well past capacity,
    // gradually increasing like the paper's tool.
    let capacity_msgs = params.capacity_bytes_per_sec / on_air_per_msg;
    let mut best: Option<(f64, f64)> = None; // (aggregate msg rate, measured)
    let steps = 64;
    for s in 1..=steps {
        let aggregate_msg_rate = capacity_msgs * 2.0 * s as f64 / steps as f64;
        let measured = measure_reception(
            params,
            aggregate_msg_rate,
            probe_payload_bytes,
            seed ^ s as u64,
        );
        if measured >= target_reception {
            best = Some((aggregate_msg_rate, measured));
        }
    }

    let (agg_msgs, measured) = best.unwrap_or((0.0, 0.0));
    NetworkProfile {
        max_aggregate_payload_rate: agg_msgs * payload_per_msg,
        measured_reception: measured,
    }
}

/// Measure packet reception at a fixed aggregate message rate by sending a
/// probe burst through a seeded channel.
fn measure_reception(
    params: ChannelParams,
    aggregate_msg_rate: f64,
    payload_bytes: usize,
    seed: u64,
) -> f64 {
    let mut ch = Channel::new(params, seed);
    let on_air = params.format.on_air_bytes(payload_bytes) as f64;
    ch.set_offered_load(aggregate_msg_rate * on_air);
    let probes = 2_000;
    for _ in 0..probes {
        let _ = ch.try_deliver(payload_bytes);
    }
    ch.packet_delivery_ratio()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_lands_near_capacity() {
        let params = ChannelParams::mote();
        let prof = profile_network(params, 28, 0.90, 99);
        let on_air_ratio = params.format.on_air_bytes(28) as f64 / 28.0;
        let found_on_air = prof.max_aggregate_payload_rate * on_air_ratio;
        // The flat-then-collapse model means the target is met right up to
        // (roughly) capacity.
        assert!(
            found_on_air > 0.8 * params.capacity_bytes_per_sec
                && found_on_air < 1.3 * params.capacity_bytes_per_sec,
            "found on-air rate {found_on_air}"
        );
        assert!(prof.measured_reception >= 0.90);
    }

    #[test]
    fn stricter_target_means_lower_rate() {
        let params = ChannelParams::wifi(100_000.0);
        let loose = profile_network(params, 1000, 0.50, 3);
        let strict = profile_network(params, 1000, 0.98, 3);
        assert!(strict.max_aggregate_payload_rate <= loose.max_aggregate_payload_rate);
    }

    #[test]
    fn deterministic() {
        let params = ChannelParams::mote();
        let a = profile_network(params, 28, 0.9, 11);
        let b = profile_network(params, 28, 0.9, 11);
        assert_eq!(a, b);
    }
}

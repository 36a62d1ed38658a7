//! Per-technology link characteristics.

use serde::{Deserialize, Serialize};

use simcore::{SimDuration, SimRng};

use crate::error::ConfigError;

/// Latency/bandwidth/loss parameters of one radio technology.
///
/// A one-way delivery of `n` bytes takes
/// `base_latency · LogNormal(1, jitter) + n / bandwidth`, and is lost with
/// probability `loss_prob`. The presets match the numbers mobile
/// peer-to-peer measurement studies report for BLE 4.2 connections and
/// WiFi-Direct links at close range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Short name for reports.
    pub name: &'static str,
    /// One-way base latency (connection already established).
    pub base_latency: SimDuration,
    /// Log-normal sigma of latency jitter.
    pub jitter_sigma: f64,
    /// Payload bandwidth, megabits per second.
    pub bandwidth_mbps: f64,
    /// Probability a message is lost (no retransmission modelled — the
    /// pipeline treats a lost query as a peer miss). For multi-fragment
    /// messages the loss applies per fragment: losing any fragment loses
    /// the message, so long payloads are proportionally more fragile.
    pub loss_prob: f64,
    /// Nominal radio range, metres.
    pub range_m: f64,
    /// Maximum payload bytes per link-layer fragment; longer messages are
    /// split and each fragment adds `fragment_overhead` wire bytes.
    pub mtu: usize,
    /// Per-fragment header/ack overhead, bytes.
    pub fragment_overhead: usize,
}

impl LinkSpec {
    /// Bluetooth Low Energy 4.2-class connection (244-byte data PDUs).
    pub fn ble() -> LinkSpec {
        LinkSpec {
            name: "ble",
            base_latency: SimDuration::from_millis(25),
            jitter_sigma: 0.25,
            bandwidth_mbps: 0.7,
            loss_prob: 0.03,
            range_m: 10.0,
            mtu: 244,
            fragment_overhead: 7,
        }
    }

    /// WiFi-Direct link at close range.
    pub fn wifi_direct() -> LinkSpec {
        LinkSpec {
            name: "wifi-direct",
            base_latency: SimDuration::from_millis(3),
            jitter_sigma: 0.3,
            bandwidth_mbps: 60.0,
            loss_prob: 0.01,
            range_m: 30.0,
            mtu: 1_400,
            fragment_overhead: 40,
        }
    }

    /// A calibrated mobile-WAN uplink to an edge server: LTE/5G
    /// radio-access latency in the tens of milliseconds, tail-heavy
    /// jitter, backhaul-grade bandwidth, and rare loss (the transport
    /// below retransmits; what the model charges is the visible stall).
    /// Range is effectively unlimited — reachability is a coverage
    /// question, not a proximity one.
    pub fn wan() -> LinkSpec {
        LinkSpec {
            name: "wan",
            base_latency: SimDuration::from_millis(25),
            jitter_sigma: 0.35,
            bandwidth_mbps: 20.0,
            loss_prob: 0.005,
            range_m: 1.0e7,
            mtu: 1_400,
            fragment_overhead: 40,
        }
    }

    /// An ideal link (zero latency, no loss) for ablations isolating
    /// protocol behaviour from network cost.
    pub fn ideal() -> LinkSpec {
        LinkSpec {
            name: "ideal",
            base_latency: SimDuration::ZERO,
            jitter_sigma: 0.0,
            bandwidth_mbps: f64::INFINITY,
            loss_prob: 0.0,
            range_m: f64::MAX,
            mtu: usize::MAX,
            fragment_overhead: 0,
        }
    }

    /// Number of link-layer fragments a `bytes`-byte message occupies.
    fn fragments(&self, bytes: usize) -> usize {
        if bytes == 0 {
            return 1;
        }
        bytes.div_ceil(self.mtu)
    }

    /// Validates parameter ranges: bandwidth, range and MTU must be
    /// positive, jitter non-negative, and loss inside `[0, 1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.bandwidth_mbps <= 0.0 || self.bandwidth_mbps.is_nan() {
            return Err(ConfigError::NotPositive {
                context: "LinkSpec",
                field: "bandwidth",
            });
        }
        if self.jitter_sigma < 0.0 || self.jitter_sigma.is_nan() {
            return Err(ConfigError::Inconsistent {
                context: "LinkSpec",
                message: "jitter_sigma must be non-negative",
            });
        }
        if !(0.0..=1.0).contains(&self.loss_prob) {
            return Err(ConfigError::OutOfRange {
                context: "LinkSpec",
                field: "loss_prob",
                min: 0.0,
                max: 1.0,
            });
        }
        if self.range_m <= 0.0 || self.range_m.is_nan() {
            return Err(ConfigError::NotPositive {
                context: "LinkSpec",
                field: "range",
            });
        }
        if self.mtu == 0 {
            return Err(ConfigError::NotPositive {
                context: "LinkSpec",
                field: "mtu",
            });
        }
        Ok(())
    }

    /// Pure serialization time for `bytes` at the link bandwidth,
    /// including per-fragment overhead bytes.
    fn transfer_time(&self, bytes: usize) -> SimDuration {
        if self.bandwidth_mbps.is_infinite() {
            return SimDuration::ZERO;
        }
        let wire_bytes = bytes + self.fragments(bytes) * self.fragment_overhead;
        let bits = wire_bytes as f64 * 8.0;
        SimDuration::from_secs_f64(bits / (self.bandwidth_mbps * 1e6))
    }

    /// Samples one one-way delivery. Returns `None` when the message is
    /// lost (any lost fragment loses the message).
    pub fn sample_one_way(&self, bytes: usize, rng: &mut SimRng) -> Option<SimDuration> {
        for _ in 0..self.fragments(bytes) {
            if rng.chance(self.loss_prob) {
                return None;
            }
        }
        let jitter = if self.jitter_sigma > 0.0 {
            rng.log_normal(
                -self.jitter_sigma * self.jitter_sigma / 2.0,
                self.jitter_sigma,
            )
        } else {
            1.0
        };
        Some(self.base_latency.mul_f64(jitter) + self.transfer_time(bytes))
    }
}

impl std::fmt::Display for LinkSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(LinkSpec::ble().validate().is_ok());
        assert!(LinkSpec::wifi_direct().validate().is_ok());
        assert!(LinkSpec::wan().validate().is_ok());
        assert!(LinkSpec::ideal().validate().is_ok());
    }

    #[test]
    fn wan_sits_between_ble_latency_and_wifi_bandwidth() {
        // The edge tier only makes sense if a WAN round-trip undercuts
        // full inference (~75 ms MobileNet) while staying slower than a
        // short-range WiFi-Direct hop: sanity-pin the calibration.
        let wan = LinkSpec::wan();
        assert_eq!(wan.name, "wan");
        assert!(wan.base_latency > LinkSpec::wifi_direct().base_latency);
        assert!(wan.base_latency * 2 < SimDuration::from_millis(75));
        assert!(wan.loss_prob < LinkSpec::ble().loss_prob);
        // Far range: proximity never gates an edge query.
        assert!(wan.range_m > 1.0e6);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        let wifi = LinkSpec::wifi_direct();
        // 60 Mbps = 7.5 MB/s; 750 KB takes ~100 ms (+3% fragment headers).
        let t = wifi.transfer_time(750_000);
        assert!((t.as_millis_f64() - 100.0).abs() < 5.0, "{t}");
        assert_eq!(
            LinkSpec::ideal().transfer_time(1_000_000),
            SimDuration::ZERO
        );
    }

    #[test]
    fn fragmentation_counts_and_overhead() {
        let ble = LinkSpec::ble();
        assert_eq!(ble.fragments(0), 1);
        assert_eq!(ble.fragments(244), 1);
        assert_eq!(ble.fragments(245), 2);
        assert_eq!(ble.fragments(1_000), 5);
        // A 2-fragment message costs more than twice a half-size one only
        // by the extra header.
        let one = ble.transfer_time(244);
        let two = ble.transfer_time(488);
        let delta = two.as_secs_f64() - 2.0 * one.as_secs_f64();
        // Tolerance: SimDuration rounds to whole nanoseconds.
        assert!(
            delta.abs() < 5e-9,
            "overhead must scale linearly, delta {delta}"
        );
    }

    #[test]
    fn long_messages_are_more_fragile() {
        let ble = LinkSpec::ble();
        let mut rng = SimRng::seed(9);
        let mut lost_short = 0;
        let mut lost_long = 0;
        for _ in 0..4_000 {
            if ble.sample_one_way(100, &mut rng).is_none() {
                lost_short += 1;
            }
            if ble.sample_one_way(2_440, &mut rng).is_none() {
                lost_long += 1;
            }
        }
        // 10 fragments: P(loss) = 1 − 0.97¹⁰ ≈ 26% vs 3%.
        assert!(
            lost_long > lost_short * 4,
            "short {lost_short}, long {lost_long}"
        );
    }

    #[test]
    fn ble_is_much_slower_than_wifi_for_payloads() {
        let payload = 10_000;
        let ble = LinkSpec::ble().transfer_time(payload);
        let wifi = LinkSpec::wifi_direct().transfer_time(payload);
        assert!(ble.as_nanos() > 50 * wifi.as_nanos());
    }

    #[test]
    fn sampled_latency_concentrates_near_base() {
        let wifi = LinkSpec::wifi_direct();
        let mut rng = SimRng::seed(1);
        let mut sum = 0.0;
        let mut n = 0;
        for _ in 0..5_000 {
            if let Some(d) = wifi.sample_one_way(100, &mut rng) {
                sum += d.as_millis_f64();
                n += 1;
            }
        }
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.5, "mean one-way {mean} ms");
    }

    #[test]
    fn loss_rate_matches_spec() {
        let ble = LinkSpec::ble();
        let mut rng = SimRng::seed(2);
        let lost = (0..20_000)
            .filter(|_| ble.sample_one_way(10, &mut rng).is_none())
            .count();
        let rate = lost as f64 / 20_000.0;
        assert!((rate - 0.03).abs() < 0.01, "loss rate {rate}");
    }

    #[test]
    fn ideal_link_is_free_and_lossless() {
        let ideal = LinkSpec::ideal();
        let mut rng = SimRng::seed(3);
        for _ in 0..100 {
            assert_eq!(
                ideal.sample_one_way(1_000_000, &mut rng),
                Some(SimDuration::ZERO)
            );
        }
    }

    #[test]
    fn validates_loss() {
        let err = LinkSpec {
            loss_prob: 1.5,
            ..LinkSpec::ble()
        }
        .validate()
        .expect_err("loss outside [0, 1] must be rejected");
        assert!(err.to_string().contains("loss_prob"), "{err}");
    }

    #[test]
    fn display_is_name() {
        assert_eq!(LinkSpec::ble().to_string(), "ble");
    }
}

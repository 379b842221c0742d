//! The [`Recorder`]: pre-resolved stage-span histograms threaded
//! through the runtime's request path.

use crate::hist::Histogram;
use crate::registry::{Counter, Registry};
use std::sync::Arc;
use std::time::Duration;

/// The stages of the request path, in path order: gateway ingress →
/// batch-timer flush → broadcast round-trip → wire encode/decode →
/// signature sign/verify → replica apply → client ack, plus the
/// end-to-end envelope. Each stage owns one `stage_<name>_us` histogram
/// in the node's registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Client request received by the gateway until the node loop picks
    /// it up.
    Gateway,
    /// Transfer admitted until its batch is flushed to the backend.
    Batch,
    /// Own batch broadcast until the backend delivers it back locally
    /// (the full broadcast round-trip, quorum included).
    Broadcast,
    /// Encoding one outgoing backend message into a wire payload: one
    /// sample per encode, not per destination — a message sent to
    /// several peers is encoded once and its bytes shared.
    WireEncode,
    /// Decoding inbound wire payloads into backend messages.
    WireDecode,
    /// One authenticator signing operation.
    Sign,
    /// One authenticator verification (per-share on the echo path).
    Verify,
    /// Draining delivered batches through the sharded replica.
    Apply,
    /// Replica completion until the acknowledgement is queued to the
    /// client.
    Ack,
    /// Gateway ingress until the acknowledgement is queued (the whole
    /// request path).
    EndToEnd,
    /// Cold catch-up: snapshot fetch begun until the restored replica is
    /// serving (off the request path — samples only on bootstrap).
    CatchUp,
}

impl Stage {
    /// Every stage, in path order.
    pub const ALL: [Stage; 11] = [
        Stage::Gateway,
        Stage::Batch,
        Stage::Broadcast,
        Stage::WireEncode,
        Stage::WireDecode,
        Stage::Sign,
        Stage::Verify,
        Stage::Apply,
        Stage::Ack,
        Stage::EndToEnd,
        Stage::CatchUp,
    ];

    /// The stage's histogram name in the registry.
    pub fn metric_name(self) -> &'static str {
        match self {
            Stage::Gateway => "stage_gateway_us",
            Stage::Batch => "stage_batch_us",
            Stage::Broadcast => "stage_broadcast_us",
            Stage::WireEncode => "stage_wire_encode_us",
            Stage::WireDecode => "stage_wire_decode_us",
            Stage::Sign => "stage_sign_us",
            Stage::Verify => "stage_verify_us",
            Stage::Apply => "stage_apply_us",
            Stage::Ack => "stage_ack_us",
            Stage::EndToEnd => "stage_e2e_us",
            Stage::CatchUp => "stage_catchup_us",
        }
    }
}

/// A cheap, cloneable handle for recording stage latencies: all
/// [`Stage`] histograms are resolved once at construction, so the hot
/// path is a direct lock-free histogram record. Clones share the
/// underlying registry.
#[derive(Clone, Debug)]
pub struct Recorder {
    registry: Registry,
    stages: [Arc<Histogram>; Stage::ALL.len()],
    clock_anomalies: Arc<Counter>,
}

/// Stage spans above this are clock artifacts, not latency: no stage of
/// the request path legitimately runs for a minute, but a stepped or
/// virtualized wall clock (VM pause, NTP slew, suspend/resume) can make
/// `elapsed` report hours. Such samples would permanently poison the
/// histogram max and upper quantiles, so they are counted in
/// `clock_anomalies` and dropped instead.
pub const CLOCK_ANOMALY_THRESHOLD_US: u64 = 60_000_000;

impl Recorder {
    /// A recorder over `registry` (also via [`Registry::recorder`]).
    pub fn new(registry: Registry) -> Self {
        let stages = Stage::ALL.map(|s| registry.histogram(s.metric_name()));
        let clock_anomalies = registry.counter("clock_anomalies");
        Recorder {
            registry,
            stages,
            clock_anomalies,
        }
    }

    /// The registry this recorder feeds.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records one stage sample in microseconds. Samples past
    /// [`CLOCK_ANOMALY_THRESHOLD_US`] are counted as clock anomalies
    /// and excluded from the histogram.
    pub fn record_us(&self, stage: Stage, us: u64) {
        if us > CLOCK_ANOMALY_THRESHOLD_US {
            self.clock_anomalies.inc();
            return;
        }
        self.stages[stage as usize].record(us);
    }

    /// Records one stage sample from a duration (saturating to
    /// microseconds; clock-step artifacts are guarded exactly as in
    /// [`Recorder::record_us`]).
    pub fn record(&self, stage: Stage, elapsed: Duration) {
        self.record_us(
            stage,
            u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        );
    }

    /// Stage samples rejected as clock artifacts so far.
    pub fn clock_anomalies(&self) -> u64 {
        self.clock_anomalies.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_match_all_order() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as usize, i, "{stage:?} out of order");
        }
    }

    #[test]
    fn recorder_feeds_the_stage_histograms() {
        let reg = Registry::new("node 0");
        let rec = reg.recorder();
        rec.record_us(Stage::Apply, 25);
        rec.record(Stage::EndToEnd, Duration::from_micros(1500));
        assert_eq!(reg.histogram("stage_apply_us").count(), 1);
        let snap = reg.snapshot();
        let e2e = snap.histogram("stage_e2e_us").expect("registered");
        assert_eq!(e2e.count, 1);
        assert_eq!(e2e.min, 1500);
        // Every stage histogram exists after recorder construction.
        for stage in Stage::ALL {
            assert!(snap.histogram(stage.metric_name()).is_some());
        }
    }

    #[test]
    fn clock_step_artifacts_are_counted_not_recorded() {
        let reg = Registry::new("node 0");
        let rec = reg.recorder();
        rec.record_us(Stage::Apply, CLOCK_ANOMALY_THRESHOLD_US);
        rec.record_us(Stage::Apply, CLOCK_ANOMALY_THRESHOLD_US + 1);
        rec.record(Stage::Apply, Duration::from_secs(3600));
        // A stepped SystemTime arithmetic path can also saturate.
        rec.record(Stage::Apply, Duration::MAX);
        assert_eq!(rec.clock_anomalies(), 3);
        let snap = reg.snapshot();
        let apply = snap.histogram("stage_apply_us").expect("registered");
        assert_eq!(apply.count, 1, "only the sane sample lands");
        assert_eq!(apply.max, CLOCK_ANOMALY_THRESHOLD_US);
        assert_eq!(snap.counter("clock_anomalies"), Some(3));
    }
}

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use splpg_net::FetchLedger;

/// Bytes per node identifier on the wire (DGL ships int64 ids).
pub const BYTES_PER_NODE_ID: u64 = 8;
/// Bytes per transferred edge (source id + destination id).
pub const BYTES_PER_EDGE: u64 = 2 * BYTES_PER_NODE_ID;
/// Bytes per feature element (`f32`).
pub(crate) const BYTES_PER_FEATURE: u64 = 4;

/// Raw structure bytes a ledger carries at the byte model.
pub(crate) fn structure_bytes(l: &FetchLedger) -> u64 {
    l.structure_edges * BYTES_PER_EDGE + l.structure_nodes * BYTES_PER_NODE_ID
}

/// Raw feature bytes a ledger carries at the byte model.
pub(crate) fn feature_bytes(l: &FetchLedger) -> u64 {
    l.feature_elems * BYTES_PER_FEATURE
}

/// Raw structure + feature bytes: the paper's communication metric.
pub(crate) fn raw_bytes(l: &FetchLedger) -> u64 {
    structure_bytes(l) + feature_bytes(l)
}

/// On-wire bytes a ledger carries under the negotiated codec.
pub(crate) fn wire_bytes(l: &FetchLedger) -> u64 {
    l.structure_wire_bytes + l.feature_wire_bytes
}

/// Bus-plane feature bytes a ledger carries, at the raw byte model (the
/// bytes those rows *would* have cost uncompressed on the wire).
pub(crate) fn bus_bytes(l: &FetchLedger) -> u64 {
    l.feature_bus_elems * BYTES_PER_FEATURE
}

/// Thread-safe meter of master→worker graph-data transfer.
///
/// Cloning shares the underlying counters, so one tracker can be handed to
/// every clone of a worker's view. The counters are the raw quantities of
/// a [`FetchLedger`]; a worker ships their deltas back in its responses,
/// and the master prices the ledgers it accepts into the measurement
/// behind Figures 4, 8, 9, 13 and Table III: "the total cumulative amount
/// of data transferred from the master server to all workers for one
/// training epoch".
#[derive(Debug, Clone, Default)]
pub(crate) struct CommTracker {
    inner: Arc<Counters>,
}

/// One atomic per [`FetchLedger`] field.
#[derive(Debug, Default)]
struct Counters {
    structure_edges: AtomicU64,
    structure_nodes: AtomicU64,
    feature_elems: AtomicU64,
    structure_wire: AtomicU64,
    feature_wire: AtomicU64,
    feature_bus_elems: AtomicU64,
}

impl CommTracker {
    /// A fresh tracker with zeroed counters.
    pub(crate) fn new() -> Self {
        CommTracker::default()
    }

    /// Records a structure transfer of `edges` edges and `nodes` node
    /// ids that cost `wire_bytes` on the wire under the active codec.
    pub(crate) fn add_structure_wire(&self, edges: u64, nodes: u64, wire_bytes: u64) {
        self.inner.structure_edges.fetch_add(edges, Ordering::Relaxed);
        self.inner.structure_nodes.fetch_add(nodes, Ordering::Relaxed);
        self.inner.structure_wire.fetch_add(wire_bytes, Ordering::Relaxed);
    }

    /// Records a feature transfer of `rows` rows of width `dim` that
    /// cost `wire_bytes` on the wire under the active codec.
    pub(crate) fn add_features_wire(&self, rows: u64, dim: u64, wire_bytes: u64) {
        self.inner.feature_elems.fetch_add(rows * dim, Ordering::Relaxed);
        self.inner.feature_wire.fetch_add(wire_bytes, Ordering::Relaxed);
    }

    /// Records a feature transfer of `rows` rows of width `dim` served
    /// zero-copy over the shared-memory bus: metered on the local-bus
    /// plane only, never on the raw-feature or wire planes.
    pub(crate) fn add_features_bus(&self, rows: u64, dim: u64) {
        self.inner.feature_bus_elems.fetch_add(rows * dim, Ordering::Relaxed);
    }

    /// Everything recorded so far, as raw counts.
    pub(crate) fn ledger(&self) -> FetchLedger {
        let c = &self.inner;
        FetchLedger {
            structure_edges: c.structure_edges.load(Ordering::Relaxed),
            structure_nodes: c.structure_nodes.load(Ordering::Relaxed),
            feature_elems: c.feature_elems.load(Ordering::Relaxed),
            structure_wire_bytes: c.structure_wire.load(Ordering::Relaxed),
            feature_wire_bytes: c.feature_wire.load(Ordering::Relaxed),
            feature_bus_elems: c.feature_bus_elems.load(Ordering::Relaxed),
        }
    }

    /// Cumulative structure bytes.
    #[cfg(test)]
    pub(crate) fn structure_bytes(&self) -> u64 {
        structure_bytes(&self.ledger())
    }

    /// Cumulative feature bytes.
    #[cfg(test)]
    pub(crate) fn feature_bytes(&self) -> u64 {
        feature_bytes(&self.ledger())
    }

    /// Cumulative total bytes.
    #[cfg(test)]
    pub(crate) fn total_bytes(&self) -> u64 {
        raw_bytes(&self.ledger())
    }
}

/// Per-worker communication meters for a whole cluster.
///
/// Each worker's view writes into its own `CommTracker`, so a worker's
/// remote traffic can be shipped back over the wire as a [`FetchLedger`]
/// delta. The summing accessors read the cluster-wide ledger.
#[derive(Debug, Clone, Default)]
pub struct CommMeter {
    workers: Vec<CommTracker>,
}

impl CommMeter {
    /// A meter with one zeroed tracker per worker.
    pub(crate) fn new(num_workers: usize) -> Self {
        CommMeter { workers: (0..num_workers).map(|_| CommTracker::new()).collect() }
    }

    /// The tracker of one worker.
    pub(crate) fn worker(&self, w: usize) -> &CommTracker {
        &self.workers[w]
    }

    /// Cluster-wide sum of the workers' ledgers.
    pub(crate) fn ledger(&self) -> FetchLedger {
        let mut sum = FetchLedger::default();
        for t in &self.workers {
            sum.add(&t.ledger());
        }
        sum
    }

    /// Cluster-wide structure bytes.
    pub fn structure_bytes(&self) -> u64 {
        structure_bytes(&self.ledger())
    }

    /// Cluster-wide feature bytes.
    #[cfg(test)]
    pub(crate) fn feature_bytes(&self) -> u64 {
        feature_bytes(&self.ledger())
    }

    /// Cluster-wide total bytes.
    pub fn total_bytes(&self) -> u64 {
        raw_bytes(&self.ledger())
    }
}

/// Per-epoch communication totals of a training run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommReport {
    /// Total raw bytes transferred in each epoch.
    pub epoch_bytes: Vec<u64>,
    /// Structure/feature breakdown of the final cumulative totals.
    pub total_structure_bytes: u64,
    /// Cumulative feature bytes at the end of training.
    pub total_feature_bytes: u64,
    /// Cumulative on-wire structure bytes under the active codec.
    pub total_structure_wire_bytes: u64,
    /// Cumulative on-wire feature bytes under the active codec.
    pub total_feature_wire_bytes: u64,
    /// Cumulative feature bytes served over the shared-memory bus
    /// (raw byte model) — the local plane of the local-vs-wire axis.
    pub total_feature_bus_bytes: u64,
}

impl CommReport {
    /// Prices a run's cumulative `ledger`, with `epoch_bytes` per epoch.
    pub(crate) fn priced(epoch_bytes: Vec<u64>, ledger: &FetchLedger) -> Self {
        CommReport {
            epoch_bytes,
            total_structure_bytes: structure_bytes(ledger),
            total_feature_bytes: feature_bytes(ledger),
            total_structure_wire_bytes: ledger.structure_wire_bytes,
            total_feature_wire_bytes: ledger.feature_wire_bytes,
            total_feature_bus_bytes: bus_bytes(ledger),
        }
    }

    /// Mean bytes per epoch (0 when no epochs ran).
    pub fn mean_epoch_bytes(&self) -> u64 {
        if self.epoch_bytes.is_empty() {
            0
        } else {
            self.epoch_bytes.iter().sum::<u64>() / self.epoch_bytes.len() as u64
        }
    }

    /// Cumulative total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_structure_bytes + self.total_feature_bytes
    }

    /// Cumulative on-wire total bytes.
    pub fn total_wire_bytes(&self) -> u64 {
        self.total_structure_wire_bytes + self.total_feature_wire_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = CommTracker::new();
        t.add_structure_wire(5, 2, 5 * BYTES_PER_EDGE + 2 * BYTES_PER_NODE_ID);
        t.add_structure_wire(1, 0, BYTES_PER_EDGE);
        assert_eq!(t.structure_bytes(), 6 * BYTES_PER_EDGE + 2 * BYTES_PER_NODE_ID);
        t.add_features_wire(10, 16, 10 * 16 * BYTES_PER_FEATURE);
        assert_eq!(t.feature_bytes(), 640);
        assert_eq!(t.total_bytes(), t.structure_bytes() + 640);
    }

    #[test]
    fn clones_share_state() {
        let t = CommTracker::new();
        let t2 = t.clone();
        t2.add_features_wire(1, 1, BYTES_PER_FEATURE);
        assert_eq!(t.feature_bytes(), 4);
    }

    #[test]
    fn report_mean() {
        let r = CommReport {
            epoch_bytes: vec![100, 300],
            total_structure_bytes: 150,
            total_feature_bytes: 250,
            total_structure_wire_bytes: 75,
            total_feature_wire_bytes: 125,
            total_feature_bus_bytes: 0,
        };
        assert_eq!(r.mean_epoch_bytes(), 200);
        assert_eq!(r.total_bytes(), 400);
        assert_eq!(r.total_wire_bytes(), 200);
        assert!(CommReport::default().mean_epoch_bytes() == 0);
    }

    #[test]
    fn report_prices_a_ledger_like_the_tracker() {
        let t = CommTracker::new();
        t.add_structure_wire(3, 2, 20);
        t.add_features_wire(7, 5, 40);
        t.add_features_bus(1, 5);
        let r = CommReport::priced(vec![1], &t.ledger());
        assert_eq!(r.total_structure_bytes, t.structure_bytes());
        assert_eq!(r.total_feature_bytes, t.feature_bytes());
        assert_eq!(r.total_bytes(), t.total_bytes());
        assert_eq!(r.total_wire_bytes(), 60);
        assert_eq!(r.total_wire_bytes(), wire_bytes(&t.ledger()));
        assert_eq!(r.total_feature_bus_bytes, 5 * BYTES_PER_FEATURE);
    }

    #[test]
    fn bus_plane_is_metered_separately_from_raw_and_wire() {
        let t = CommTracker::new();
        t.add_features_wire(2, 8, 2 * 8 * BYTES_PER_FEATURE);
        t.add_features_bus(3, 8);
        // Bus rows never leak into the raw-feature or wire planes.
        let l = t.ledger();
        assert_eq!(t.feature_bytes(), 2 * 8 * BYTES_PER_FEATURE);
        assert_eq!(l.feature_wire_bytes, 2 * 8 * BYTES_PER_FEATURE);
        assert_eq!(l.feature_bus_elems, 24);
        assert_eq!(bus_bytes(&l), 24 * BYTES_PER_FEATURE);

        let m = CommMeter::new(2);
        m.worker(0).add_features_bus(1, 4);
        m.worker(1).add_features_bus(2, 4);
        assert_eq!(m.ledger().feature_bus_elems, 12);
        assert_eq!(bus_bytes(&m.ledger()), 48);
    }

    #[test]
    fn tracker_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CommTracker>();
    }

    #[test]
    fn hand_computed_byte_counts() {
        // 3 edges + 2 node ids: 3*16 + 2*8 = 64 bytes; 7 rows of dim 5:
        // 7*5*4 = 140 bytes.
        let t = CommTracker::new();
        t.add_structure_wire(3, 2, 3 * BYTES_PER_EDGE + 2 * BYTES_PER_NODE_ID);
        t.add_features_wire(7, 5, 7 * 5 * BYTES_PER_FEATURE);
        assert_eq!(t.structure_bytes(), 64);
        assert_eq!(t.feature_bytes(), 140);
        assert_eq!(t.total_bytes(), 204);
        // Raw counts behind those bytes.
        let l = t.ledger();
        assert_eq!(l.structure_edges, 3);
        assert_eq!(l.structure_nodes, 2);
        assert_eq!(l.feature_elems, 35);
        // Bytes are always reconstructible from the raw counts.
        assert_eq!(
            t.total_bytes(),
            l.structure_edges * BYTES_PER_EDGE
                + l.structure_nodes * BYTES_PER_NODE_ID
                + l.feature_elems * BYTES_PER_FEATURE
        );
        // Uncompressed transfers price wire bytes identically to raw.
        assert_eq!(wire_bytes(&l), t.total_bytes());
    }

    #[test]
    fn meter_sums_per_worker_trackers() {
        let m = CommMeter::new(3);
        m.worker(0).add_structure_wire(1, 1, BYTES_PER_EDGE + BYTES_PER_NODE_ID);
        m.worker(2).add_features_wire(2, 4, 2 * 4 * BYTES_PER_FEATURE);
        assert_eq!(m.structure_bytes(), BYTES_PER_EDGE + BYTES_PER_NODE_ID);
        assert_eq!(m.feature_bytes(), 32);
        assert_eq!(m.total_bytes(), m.structure_bytes() + m.feature_bytes());
        assert_eq!(m.worker(1).total_bytes(), 0, "trackers are independent");
    }
}

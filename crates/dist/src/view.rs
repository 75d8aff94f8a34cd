use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use splpg_gnn::{FeatureAccess, GraphAccess};
use splpg_graph::{FeatureMatrix, Graph, NodeId};
use splpg_net::compress::{
    encoded_ids_len, f16_round_trip, feature_wire_bytes, int8_round_trip, varint_len,
};
use splpg_net::{CodecConfig, FeatCodec, ShmLane, StructCodec};

use crate::CommTracker;

/// Default capacity (in rows) of the per-epoch remote feature-row cache.
///
/// DistDGL-style deployments cache hot remote features worker-side; a
/// remote row is priced on first fetch within an epoch and free on
/// re-fetch while it stays cached. Parameter refreshes invalidate the
/// cache, so it is cleared at every epoch boundary
/// ([`WorkerView::begin_epoch`]).
pub(crate) const DEFAULT_FEATURE_CACHE_ROWS: usize = 8192;

/// Per-epoch membership set of remote feature rows already fetched (and
/// therefore free to re-read until the next epoch).
#[derive(Debug, Default)]
struct RowCache {
    epoch: u64,
    rows: BTreeSet<NodeId>,
}

/// How a worker reaches graph structure outside its own partition.
#[derive(Debug, Clone)]
pub(crate) enum RemoteMode {
    /// No remote access: unknown nodes have no visible neighbors.
    None,
    /// Complete data sharing: the full (training) graph in the master's
    /// shared memory; every neighbor fetch is metered.
    Full {
        /// The full training graph.
        graph: Arc<Graph>,
    },
    /// SpLPG: sparsified per-partition subgraphs; fetches are served from
    /// the owner partition's sparsified copy and metered.
    Sparsified {
        /// Sparsified subgraph of each partition, in global id space.
        parts: Arc<Vec<Graph>>,
        /// Owner partition of every node.
        owner: Arc<Vec<u32>>,
    },
}

impl RemoteMode {
    /// Whether the remote structure holds edge `(u, v)`: the rejection
    /// test negative sampling applies beyond the local partition.
    pub(crate) fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        match self {
            RemoteMode::None => false,
            RemoteMode::Full { graph } => graph.has_edge(u, v),
            RemoteMode::Sparsified { parts, owner } => {
                parts[owner[u as usize] as usize].has_edge(u, v)
                    || parts[owner[v as usize] as usize].has_edge(u, v)
            }
        }
    }
}

/// One worker's data plane: local partition (free) + optional remote
/// access (metered).
///
/// All graphs live in the *global* node-id space; "local" is defined by
/// two membership vectors:
///
/// * `structure_local[v]` — `v`'s adjacency is served from the local
///   subgraph at no cost (partition nodes; halo nodes carry the partial
///   adjacency the halo stores);
/// * `feature_local[v]` — `v`'s feature row was copied to this worker at
///   partition time (partition nodes, plus halo under full-neighbor
///   retention) and costs nothing to read.
///
/// Everything else goes through `RemoteMode` and is priced on the shared
/// `CommTracker`. Edge-existence checks for negative-sample rejection are
/// control-plane and unmetered (the paper's cost metric counts graph-data
/// payloads).
#[derive(Debug, Clone)]
pub struct WorkerView {
    local: Arc<Graph>,
    structure_local: Arc<Vec<bool>>,
    feature_local: Arc<Vec<bool>>,
    features: Arc<FeatureMatrix>,
    remote: RemoteMode,
    tracker: CommTracker,
    /// Shared across clones of this view (replicas clone the view per
    /// batch), so cached rows stay free for the whole epoch.
    feature_cache: Arc<Mutex<RowCache>>,
    /// Row capacity of that cache (`0` disables it: every remote row is
    /// metered on every fetch).
    feature_cache_rows: usize,
    /// Wire codec the data plane prices transfers under; quantized
    /// feature codecs also round-trip remote rows through the quantizer
    /// so training sees exactly what the wire would deliver.
    wire_codec: CodecConfig,
    /// Shared-memory feature bus: when attached, remote feature rows
    /// are zero-copy gathers from the mapped segment, metered on the
    /// local-bus plane instead of the raw/wire planes (and never
    /// quantized — no wire is crossed).
    bus: Option<ShmLane>,
}

impl WorkerView {
    /// Assembles a worker view.
    ///
    /// # Panics
    ///
    /// Panics if membership vector lengths disagree with the graph.
    pub(crate) fn new(
        local: Arc<Graph>,
        structure_local: Arc<Vec<bool>>,
        feature_local: Arc<Vec<bool>>,
        features: Arc<FeatureMatrix>,
        remote: RemoteMode,
        tracker: CommTracker,
    ) -> Self {
        assert_eq!(local.num_nodes(), structure_local.len());
        assert_eq!(local.num_nodes(), feature_local.len());
        assert_eq!(local.num_nodes(), features.num_rows());
        WorkerView {
            local,
            structure_local,
            feature_local,
            features,
            remote,
            tracker,
            feature_cache: Arc::new(Mutex::new(RowCache::default())),
            feature_cache_rows: DEFAULT_FEATURE_CACHE_ROWS,
            wire_codec: CodecConfig::default(),
            bus: None,
        }
    }

    /// Sets the wire codec remote fetches are priced (and, for lossy
    /// feature codecs, degraded) under. The default shipping codec is
    /// uncompressed: wire bytes equal the raw byte model exactly.
    #[must_use]
    pub fn with_wire_codec(mut self, codec: CodecConfig) -> Self {
        self.wire_codec = codec;
        self
    }

    /// Attaches a shared-memory feature lane: remote feature rows are
    /// served zero-copy from the mapped segment and metered on the
    /// local-bus plane. The lane must cover the full global feature
    /// matrix (`rows == features.num_rows()`, same `dim`) — segment
    /// validation at attach time enforces exactly that geometry.
    ///
    /// # Panics
    ///
    /// Panics if the lane's geometry disagrees with the view's feature
    /// matrix — a wiring bug, not a runtime fault (runtime faults are
    /// caught at [`ShmLane::attach`] and degrade to the wire path).
    #[must_use]
    pub(crate) fn with_feature_bus(mut self, lane: ShmLane) -> Self {
        assert_eq!(lane.rows(), self.features.num_rows(), "bus segment row count");
        assert_eq!(lane.dim(), self.features.dim(), "bus segment feature dim");
        self.bus = Some(lane);
        self
    }

    /// Declares the start of `epoch`: parameter refreshes invalidate
    /// cached activations, so the feature-row cache empties at every
    /// epoch boundary. Idempotent within an epoch.
    pub fn begin_epoch(&self, epoch: u64) {
        let mut cache = self.feature_cache.lock().expect("feature cache lock poisoned");
        if cache.epoch != epoch {
            cache.epoch = epoch;
            cache.rows.clear();
        }
    }

    /// The shared communication tracker.
    pub(crate) fn tracker(&self) -> &CommTracker {
        &self.tracker
    }

    /// Whether `v`'s features are local.
    pub fn is_feature_local(&self, v: NodeId) -> bool {
        self.feature_local[v as usize]
    }

    /// Appends `v`'s remote neighbor list to `out` and meters the
    /// transfer: the requested node id plus one edge record per returned
    /// neighbor — identical pricing to the pre-`neighbors_into` fetch
    /// path, so the wire-traffic ledger reconciles exactly.
    fn remote_neighbors_into(&self, v: NodeId, out: &mut Vec<(NodeId, f32)>) {
        let before = out.len();
        match &self.remote {
            RemoteMode::None => return,
            RemoteMode::Full { graph } => neighbor_list_into(graph, v, out),
            RemoteMode::Sparsified { parts, owner } => {
                neighbor_list_into(&parts[owner[v as usize] as usize], v, out)
            }
        }
        let edges = (out.len() - before) as u64;
        let wire = match self.wire_codec.structure {
            StructCodec::None => edges * crate::BYTES_PER_EDGE + crate::BYTES_PER_NODE_ID,
            codec => {
                // The compressed fetch ships the requested id, a neighbor
                // count, and the delta-packed neighbor-id stream.
                let ids: Vec<u64> = out[before..].iter().map(|&(u, _)| u64::from(u)).collect();
                (varint_len(u64::from(v)) + varint_len(edges) + encoded_ids_len(&ids, codec))
                    as u64
            }
        };
        self.tracker.add_structure_wire(edges, 1, wire);
    }
}

fn neighbor_list_into(graph: &Graph, v: NodeId, out: &mut Vec<(NodeId, f32)>) {
    let ids = graph.neighbors(v);
    match graph.neighbor_weights(v) {
        Some(ws) => out.extend(ids.iter().copied().zip(ws.iter().copied())),
        None => out.extend(ids.iter().map(|&u| (u, 1.0))),
    }
}

impl GraphAccess for WorkerView {
    fn num_nodes(&self) -> usize {
        self.local.num_nodes()
    }

    fn degree(&self, v: NodeId) -> usize {
        if self.structure_local[v as usize] {
            self.local.degree(v)
        } else {
            // Degree queries are control-plane metadata (a single integer
            // riding on the fetch protocol); not metered.
            match &self.remote {
                RemoteMode::None => 0,
                RemoteMode::Full { graph } => graph.degree(v),
                RemoteMode::Sparsified { parts, owner } => {
                    parts[owner[v as usize] as usize].degree(v)
                }
            }
        }
    }

    fn neighbors_into(&self, v: NodeId, out: &mut Vec<(NodeId, f32)>) {
        if self.structure_local[v as usize] {
            neighbor_list_into(&self.local, v, out);
        } else {
            self.remote_neighbors_into(v, out);
        }
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.local.has_edge(u, v) || self.remote.has_edge(u, v)
    }
}

impl FeatureAccess for WorkerView {
    fn dim(&self) -> usize {
        self.features.dim()
    }

    fn gather_into(&mut self, nodes: &[NodeId], out: &mut Vec<f32>) {
        let remote_rows = if self.feature_cache_rows == 0 {
            nodes.iter().filter(|&&v| !self.feature_local[v as usize]).count() as u64
        } else {
            let mut cache = self.feature_cache.lock().expect("feature cache lock poisoned");
            let mut fetched = 0u64;
            for &v in nodes {
                if self.feature_local[v as usize] || cache.rows.contains(&v) {
                    continue;
                }
                fetched += 1;
                if cache.rows.len() < self.feature_cache_rows {
                    cache.rows.insert(v);
                }
            }
            fetched
        };
        let dim = self.features.dim();
        if remote_rows > 0 {
            match &self.bus {
                // Bus-served rows never touch the wire: metered on the
                // local-bus plane only, at the raw byte model.
                Some(_) => self.tracker.add_features_bus(remote_rows, dim as u64),
                None => self.tracker.add_features_wire(
                    remote_rows,
                    dim as u64,
                    feature_wire_bytes(remote_rows, dim as u64, self.wire_codec.features),
                ),
            }
        }
        let base = out.len();
        match &self.bus {
            Some(lane) => {
                // Local rows come from the worker's own copy; remote rows
                // are zero-copy reads straight out of the mapped segment.
                out.reserve(nodes.len() * dim);
                for &v in nodes {
                    if self.feature_local[v as usize] {
                        out.extend_from_slice(self.features.row(v));
                    } else {
                        out.extend_from_slice(lane.row(v as usize));
                    }
                }
                // No wire was crossed, so no quantization degradation —
                // bus reads deliver the stored f32 rows bit-exactly.
                return;
            }
            None => self.features.gather_into(nodes, out),
        }
        // Lossy feature codecs degrade every remote row the same way the
        // wire would, cached or not — determinism requires the training
        // arithmetic to be independent of cache hit patterns.
        if self.wire_codec.features != FeatCodec::F32 {
            for (i, &node) in nodes.iter().enumerate() {
                if self.feature_local[node as usize] {
                    continue;
                }
                let row = &mut out[base + i * dim..base + (i + 1) * dim];
                match self.wire_codec.features {
                    FeatCodec::F32 => {}
                    FeatCodec::F16 => f16_round_trip(row),
                    FeatCodec::Int8 => int8_round_trip(row),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Universe: path 0-1-2-3-4; worker owns {0, 1} (edges 0-1 and halo
    /// edge 1-2 present locally), features local for {0, 1, 2}.
    fn fixture(remote: RemoteMode) -> (WorkerView, CommTracker) {
        let full = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let local = Graph::from_edges(5, &[(0, 1), (1, 2)]).unwrap();
        let features = FeatureMatrix::from_rows(
            (0..5).map(|i| vec![i as f32, 1.0]).collect(),
        )
        .unwrap();
        let tracker = CommTracker::new();
        let view = WorkerView::new(
            Arc::new(local),
            Arc::new(vec![true, true, false, false, false]),
            Arc::new(vec![true, true, true, false, false]),
            Arc::new(features),
            match remote {
                RemoteMode::Full { .. } => RemoteMode::Full { graph: Arc::new(full) },
                other => other,
            },
            tracker.clone(),
        );
        (view, tracker)
    }

    #[test]
    fn local_fetches_are_free() {
        let (mut v, t) = fixture(RemoteMode::None);
        assert_eq!(v.neighbors(1), vec![(0, 1.0), (2, 1.0)]);
        let _ = v.gather(&[0, 1, 2]);
        assert_eq!(t.total_bytes(), 0);
    }

    #[test]
    fn remote_none_hides_outside_world() {
        let (v, _) = fixture(RemoteMode::None);
        assert!(v.neighbors(3).is_empty());
        assert_eq!(v.degree(3), 0);
        assert!(!v.has_edge(2, 3));
    }

    #[test]
    fn full_sharing_meters_structure() {
        let dummy = Graph::empty(1);
        let (v, t) =
            fixture(RemoteMode::Full { graph: Arc::new(dummy) });
        let nbrs = v.neighbors(3);
        assert_eq!(nbrs.len(), 2); // 2 and 4
        assert_eq!(
            t.structure_bytes(),
            2 * crate::BYTES_PER_EDGE + crate::BYTES_PER_NODE_ID
        );
    }

    #[test]
    fn feature_gather_meters_only_remote_rows() {
        let (mut v, t) = fixture(RemoteMode::None);
        let x = v.gather(&[0, 3, 4]);
        assert_eq!(x.shape(), (3, 2));
        assert_eq!(x.row(1), &[3.0, 1.0]);
        assert_eq!(t.feature_bytes(), 2 * 2 * crate::comm::BYTES_PER_FEATURE);
    }

    #[test]
    fn sparsified_mode_serves_owner_copy() {
        // Sparsified copies: partition 0 = {0,1,2 path}, partition 1 keeps
        // only edge 3-4 (edge 2-3 was "sparsified away").
        let parts = vec![
            Graph::from_edges(5, &[(0, 1), (1, 2)]).unwrap(),
            Graph::from_edges(5, &[(3, 4)]).unwrap(),
        ];
        let owner = vec![0u32, 0, 0, 1, 1];
        let full = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let features =
            FeatureMatrix::from_rows((0..5).map(|i| vec![i as f32]).collect()).unwrap();
        let tracker = CommTracker::new();
        let view = WorkerView::new(
            Arc::new(full),
            Arc::new(vec![true, true, true, false, false]),
            Arc::new(vec![true, true, true, false, false]),
            Arc::new(features),
            RemoteMode::Sparsified { parts: Arc::new(parts), owner: Arc::new(owner) },
            tracker.clone(),
        );
        // Node 3's sparsified neighborhood lost edge 2-3.
        assert_eq!(view.neighbors(3), vec![(4, 1.0)]);
        assert!(tracker.structure_bytes() > 0);
        // has_edge reads the local copy (here the full path) and meters
        // nothing.
        let bytes = tracker.total_bytes();
        assert!(view.has_edge(2, 3));
        assert_eq!(tracker.total_bytes(), bytes);
    }

    #[test]
    fn repeated_remote_gather_is_metered_once_per_epoch() {
        let (mut v, t) = fixture(RemoteMode::None);
        let _ = v.gather(&[3, 4]);
        let first = t.feature_bytes();
        assert_eq!(first, 2 * 2 * crate::comm::BYTES_PER_FEATURE);
        // Cached rows are free on re-fetch within the epoch.
        let _ = v.gather(&[3, 4]);
        assert_eq!(t.feature_bytes(), first);
        // A clone of the view shares the cache.
        let mut clone = v.clone();
        let _ = clone.gather(&[4]);
        assert_eq!(t.feature_bytes(), first);
        // The next epoch invalidates the cache: re-fetches are priced again.
        v.begin_epoch(1);
        let _ = v.gather(&[3]);
        assert_eq!(t.feature_bytes(), first + 2 * crate::comm::BYTES_PER_FEATURE);
    }

    #[test]
    fn interleaved_epochs_meter_each_first_fetch_once() {
        let (mut v, t) = fixture(RemoteMode::None);
        v.feature_cache_rows = 1;
        let row = 2 * crate::comm::BYTES_PER_FEATURE;
        let _ = v.gather(&[3, 4, 3]); // 3 priced and cached, 4 priced (cache full), 3 free
        assert_eq!(t.feature_bytes(), 2 * row);
        v.begin_epoch(1);
        let _ = v.gather(&[4, 3]); // new epoch: 4 takes the one slot, 3 priced uncached
        assert_eq!(t.feature_bytes(), 4 * row);
        v.begin_epoch(1); // idempotent within an epoch: 4 stays cached
        let _ = v.gather(&[4, 3]);
        assert_eq!(t.feature_bytes(), 5 * row);
        // Returning to an earlier epoch number is a new epoch too — nothing
        // cached under epoch 0 or 1 may read as current.
        v.begin_epoch(0);
        let _ = v.clone().gather(&[3]);
        let _ = v.gather(&[3, 4]);
        assert_eq!(t.feature_bytes(), 7 * row);
    }

    #[test]
    fn cache_capacity_bounds_membership() {
        let (mut v, t) = fixture(RemoteMode::None);
        v.feature_cache_rows = 1;
        let _ = v.gather(&[3, 4]); // 3 cached; 4 over capacity
        let _ = v.gather(&[3, 4]); // 3 free, 4 re-metered
        assert_eq!(t.feature_bytes(), 3 * 2 * crate::comm::BYTES_PER_FEATURE);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let (mut v, t) = fixture(RemoteMode::None);
        v.feature_cache_rows = 0;
        let _ = v.gather(&[3]);
        let _ = v.gather(&[3]);
        assert_eq!(t.feature_bytes(), 2 * 2 * crate::comm::BYTES_PER_FEATURE);
    }

    #[test]
    fn bus_gather_is_bit_identical_and_meters_the_bus_plane() {
        if !splpg_net::shm::shm_available() {
            eprintln!("skipping: no usable /dev/shm on this host");
            return;
        }
        use splpg_net::shm::{identity_hash, segment_name};
        use splpg_net::{SegmentSpec, ShmOwner};

        // Reference: the wire path over the same fixture and node list.
        let (mut wire_view, wire_tracker) = fixture(RemoteMode::None);
        let expect = wire_view.gather(&[0, 3, 4, 3]);

        // Segment mirroring the fixture's 5x2 feature matrix.
        let data: Vec<f32> = (0..5).flat_map(|i| [i as f32, 1.0]).collect();
        let spec = SegmentSpec { rows: 5, dim: 2, identity: identity_hash(&[41]) };
        let name = segment_name("view-bus");
        let _owner = ShmOwner::create(&name, &spec, &data).unwrap();
        let lane = ShmLane::attach(&name, &spec).unwrap();

        let (view, tracker) = fixture(RemoteMode::None);
        let mut view = view.with_feature_bus(lane);
        let got = view.gather(&[0, 3, 4, 3]);

        assert_eq!(got.shape(), expect.shape());
        for i in 0..4 {
            assert_eq!(got.row(i), expect.row(i), "row {i}");
        }
        // Wire path priced rows 3 and 4 once (second 3 was cached)...
        assert_eq!(wire_tracker.feature_bytes(), 2 * 2 * crate::comm::BYTES_PER_FEATURE);
        // ...the bus path moved the same rows without touching the
        // raw-feature or wire planes.
        let l = tracker.ledger();
        assert_eq!(tracker.feature_bytes(), 0);
        assert_eq!(l.feature_wire_bytes, 0);
        assert_eq!(l.feature_bus_elems, 2 * 2);
        assert_eq!(crate::comm::bus_bytes(&l), 2 * 2 * crate::comm::BYTES_PER_FEATURE);
    }

    #[test]
    fn has_edge_unmetered() {
        let dummy = Graph::empty(1);
        let (v, t) = fixture(RemoteMode::Full { graph: Arc::new(dummy) });
        assert!(v.has_edge(3, 4));
        assert_eq!(t.total_bytes(), 0);
    }
}

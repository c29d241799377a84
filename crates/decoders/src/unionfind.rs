//! A union-find (cluster growth + peeling) decoder for graph-like detector error models.

use crate::{DecodeStats, Decoder};
use prophunt_circuit::DetectorErrorModel;
use prophunt_gf2::BitVec;

/// An edge of the matchable decoding graph.
#[derive(Debug, Clone)]
struct Edge {
    /// First endpoint (detector index).
    a: usize,
    /// Second endpoint (detector index, or `boundary` for weight-1 mechanisms).
    b: usize,
    /// Observable indices flipped by this edge.
    observables: Vec<usize>,
}

/// A union-find decoder in the style of Delfosse–Nickerson: grow clusters around flipped
/// detectors until every cluster is neutral (even parity or touching the boundary), then
/// peel a spanning forest of each cluster to extract a correction.
///
/// Only error mechanisms flipping one or two detectors become graph edges; mechanisms
/// with a larger detector footprint (a small minority under circuit-level depolarizing
/// noise) are ignored when building the graph, which makes this decoder slightly less
/// accurate than [`crate::BpOsdDecoder`] but considerably faster on surface codes.
#[derive(Debug, Clone)]
pub struct UnionFindDecoder {
    edges: Vec<Edge>,
    /// detector -> incident edge indices (boundary node excluded).
    incident: Vec<Vec<usize>>,
    num_detectors: usize,
    num_observables: usize,
    boundary: usize,
}

impl UnionFindDecoder {
    /// Builds the decoder from a detector error model, keeping only graph-like error
    /// mechanisms (one or two flipped detectors).
    pub fn new(dem: &DetectorErrorModel) -> Self {
        let num_detectors = dem.num_detectors();
        let boundary = num_detectors;
        let mut edges = Vec::new();
        let mut incident = vec![Vec::new(); num_detectors];
        for err in dem.errors() {
            let edge = match err.detectors.len() {
                1 => Edge {
                    a: err.detectors[0],
                    b: boundary,
                    observables: err.observables.clone(),
                },
                2 => Edge {
                    a: err.detectors[0],
                    b: err.detectors[1],
                    observables: err.observables.clone(),
                },
                _ => continue,
            };
            let idx = edges.len();
            incident[edge.a].push(idx);
            if edge.b != boundary {
                incident[edge.b].push(idx);
            }
            edges.push(edge);
        }
        UnionFindDecoder {
            edges,
            incident,
            num_detectors,
            num_observables: dem.num_observables(),
            boundary,
        }
    }

    /// Returns the number of graph edges retained from the model.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// Plain union-find over cluster roots with parity and boundary bookkeeping.
///
/// Between decodes the arrays sit in the *clean* (zero-syndrome) state:
/// `parent[i] == i`, `parity` all false, `touches_boundary` true only for the
/// boundary node. Every entry a decode mutates is journaled in `dirty`, so
/// [`Clusters::restore_clean`] undoes a shot in time proportional to the work
/// that shot actually did — not in the size of the graph.
struct Clusters {
    parent: Vec<usize>,
    parity: Vec<bool>,
    touches_boundary: Vec<bool>,
    /// Journal of (possibly) mutated node indices, duplicates allowed.
    dirty: Vec<usize>,
}

impl Clusters {
    fn new(num_nodes: usize) -> Self {
        Clusters {
            parent: (0..num_nodes).collect(),
            parity: vec![false; num_nodes],
            touches_boundary: (0..num_nodes).map(|i| i == num_nodes - 1).collect(),
            dirty: Vec::new(),
        }
    }

    /// Marks a defect in a clean state (the per-shot replacement for building
    /// the parity array from the whole syndrome).
    fn seed_defect(&mut self, d: usize) {
        self.parity[d] = true;
        self.dirty.push(d);
    }

    /// Returns every journaled entry to the clean zero-syndrome state.
    fn restore_clean(&mut self) {
        let last = self.parent.len() - 1;
        while let Some(i) = self.dirty.pop() {
            self.parent[i] = i;
            self.parity[i] = false;
            self.touches_boundary[i] = i == last;
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.dirty.push(x);
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        self.dirty.push(ra);
        self.dirty.push(rb);
        self.parent[rb] = ra;
        self.parity[ra] ^= self.parity[rb];
        self.touches_boundary[ra] |= self.touches_boundary[rb];
        ra
    }

    fn is_neutral(&mut self, x: usize) -> bool {
        let r = self.find(x);
        !self.parity[r] || self.touches_boundary[r]
    }
}

/// Reusable per-batch working memory for [`UnionFindDecoder`]: every vector the
/// per-shot algorithm needs, allocated once and *sparsely* reset between shots.
/// The full-size arrays hold a clean (zero-syndrome) state between decodes and
/// every decode journals what it touched (`members`, `touched_edges`,
/// `grown_edges`, `visited`, `Clusters::dirty`), so the per-shot reset cost is
/// proportional to that shot's cluster region — not to the whole graph. The
/// values the algorithm reads are exactly those a freshly allocated scratch
/// would hold, so the scratch path is bit-identical to a fresh-allocation
/// decode by construction (the whole algorithm is integer arithmetic).
struct UfScratch {
    clusters: Clusters,
    growth: Vec<u8>,
    /// Edges whose `growth` left 0 this shot (each listed once).
    touched_edges: Vec<usize>,
    in_cluster: Vec<bool>,
    /// Detectors with `in_cluster` set this shot (each listed once).
    members: Vec<usize>,
    grown_edges: Vec<usize>,
    grown_adj: Vec<Vec<(usize, usize)>>,
    active_nodes: Vec<usize>,
    newly_grown: Vec<usize>,
    dist: Vec<usize>,
    bfs_parent: Vec<Option<(usize, usize)>>,
    /// Nodes reached by the current BFS (the set with `dist` written).
    visited: Vec<usize>,
    queue: std::collections::VecDeque<usize>,
    unmatched: Vec<usize>,
}

impl UfScratch {
    fn new(decoder: &UnionFindDecoder) -> Self {
        let num_nodes = decoder.num_detectors + 1;
        UfScratch {
            clusters: Clusters::new(num_nodes),
            growth: vec![0u8; decoder.edges.len()],
            touched_edges: Vec::new(),
            in_cluster: vec![false; decoder.num_detectors],
            members: Vec::new(),
            grown_edges: Vec::new(),
            grown_adj: vec![Vec::new(); num_nodes],
            active_nodes: Vec::new(),
            newly_grown: Vec::new(),
            dist: vec![usize::MAX; num_nodes],
            bfs_parent: vec![None; num_nodes],
            visited: Vec::new(),
            queue: std::collections::VecDeque::new(),
            unmatched: Vec::new(),
        }
    }

    /// Returns every journaled entry to the clean state, in O(touched).
    fn restore_clean(&mut self, decoder: &UnionFindDecoder) {
        while let Some(ei) = self.touched_edges.pop() {
            self.growth[ei] = 0;
        }
        while let Some(d) = self.members.pop() {
            self.in_cluster[d] = false;
        }
        while let Some(ei) = self.grown_edges.pop() {
            let e = &decoder.edges[ei];
            self.grown_adj[e.a].clear();
            self.grown_adj[e.b].clear();
        }
        self.clusters.restore_clean();
    }
}

impl UnionFindDecoder {
    /// The decode kernel, parameterized over reusable scratch: grow clusters,
    /// then peel shortest grown-edge paths between matched defects. The scratch
    /// is clean on entry and restored to clean before returning, so the work
    /// (including all resets) is proportional to the defect region, not to the
    /// graph.
    fn decode_with_scratch(&self, detectors: &BitVec, s: &mut UfScratch) -> BitVec {
        let mut prediction = BitVec::zeros(self.num_observables);
        if detectors.is_zero() {
            return prediction;
        }
        let clusters = &mut s.clusters;
        for d in detectors.ones() {
            clusters.seed_defect(d);
            s.in_cluster[d] = true;
            s.members.push(d);
        }
        // Half-edge growth: each edge needs two growth increments before it joins its
        // endpoints. Grow every non-neutral cluster uniformly each stage.
        let max_stages = 2 * (self.num_detectors + 2);
        for _ in 0..max_stages {
            // Collect defective (non-neutral) cluster nodes, in ascending
            // detector order: sorting the member list reproduces exactly the
            // order a 0..num_detectors scan filtered by `in_cluster` would
            // visit, which downstream fixes the grown-edge order and hence the
            // extracted correction.
            s.members.sort_unstable();
            s.active_nodes.clear();
            for &d in &s.members {
                if !clusters.is_neutral(d) {
                    s.active_nodes.push(d);
                }
            }
            if s.active_nodes.is_empty() {
                break;
            }
            s.newly_grown.clear();
            let mut incremented = false;
            for &d in &s.active_nodes {
                for &ei in &self.incident[d] {
                    if s.growth[ei] >= 2 {
                        continue;
                    }
                    if s.growth[ei] == 0 {
                        s.touched_edges.push(ei);
                    }
                    s.growth[ei] += 1;
                    incremented = true;
                    if s.growth[ei] >= 2 {
                        s.newly_grown.push(ei);
                    }
                }
            }
            if !incremented {
                // No progress is possible (isolated defect with no growable edges).
                break;
            }
            for &ei in &s.newly_grown {
                let e = &self.edges[ei];
                clusters.union(e.a, e.b);
                if !s.in_cluster[e.a] {
                    s.in_cluster[e.a] = true;
                    s.members.push(e.a);
                }
                if e.b != self.boundary && !s.in_cluster[e.b] {
                    s.in_cluster[e.b] = true;
                    s.members.push(e.b);
                }
                s.grown_edges.push(ei);
            }
        }

        // Correction extraction: within the grown subgraph, greedily pair up defects
        // (and, when closer, match a defect to the boundary) along shortest grown-edge
        // paths, XOR-ing the observable masks of the path edges into the prediction.
        for &ei in &s.grown_edges {
            let e = &self.edges[ei];
            s.grown_adj[e.a].push((e.b, ei));
            s.grown_adj[e.b].push((e.a, ei));
        }
        s.unmatched.clear();
        s.unmatched.extend(detectors.ones());
        let unmatched = &mut s.unmatched;
        while let Some(&source) = unmatched.first() {
            // BFS from the current defect over grown edges, recording parent edges.
            let dist = &mut s.dist;
            let parent = &mut s.bfs_parent;
            let queue = &mut s.queue;
            queue.clear();
            queue.push_back(source);
            dist[source] = 0;
            s.visited.clear();
            s.visited.push(source);
            while let Some(node) = queue.pop_front() {
                for &(next, ei) in &s.grown_adj[node] {
                    if dist[next] == usize::MAX {
                        dist[next] = dist[node] + 1;
                        parent[next] = Some((node, ei));
                        s.visited.push(next);
                        queue.push_back(next);
                    }
                }
            }
            // Closest partner: another unmatched defect, or the boundary node. Ties are
            // broken in favour of a defect partner so adjacent defect pairs are matched
            // to each other rather than independently to the boundary.
            let best_defect = unmatched
                .iter()
                .skip(1)
                .copied()
                .filter(|&d| dist[d] != usize::MAX)
                .min_by_key(|&d| dist[d]);
            let target = match (best_defect, dist[self.boundary]) {
                (Some(d), db) if dist[d] <= db => d,
                (_, db) if db != usize::MAX => self.boundary,
                (Some(d), _) => d,
                (None, _) => {
                    // Isolated defect with no grown path anywhere (no incident edges in
                    // the model); nothing sensible to do but drop it.
                    unmatched.remove(0);
                    for &v in &s.visited {
                        dist[v] = usize::MAX;
                        parent[v] = None;
                    }
                    continue;
                }
            };
            // Walk the path back to the source, applying edge observables.
            let mut node = target;
            while node != source {
                let (prev, ei) = parent[node].expect("path to source exists");
                for &o in &self.edges[ei].observables {
                    prediction.flip(o);
                }
                node = prev;
            }
            unmatched.retain(|&d| d != source && d != target);
            // Sparse reset of the BFS arrays: only reached nodes were written.
            for &v in &s.visited {
                dist[v] = usize::MAX;
                parent[v] = None;
            }
        }
        s.restore_clean(self);
        prediction
    }
}

impl Decoder for UnionFindDecoder {
    fn decode(&self, detectors: &BitVec) -> BitVec {
        self.decode_with_scratch(detectors, &mut UfScratch::new(self))
    }

    /// Batch path of the frame engine: one scratch allocation for the whole
    /// batch instead of one per shot. Identical to per-shot [`Decoder::decode`]
    /// because both run `UnionFindDecoder::decode_with_scratch`. Reports
    /// all-zero stats: union-find has no BP/OSD split.
    fn decode_batch(&self, shots: &[BitVec]) -> (Vec<BitVec>, DecodeStats) {
        let mut scratch = UfScratch::new(self);
        let predictions = shots
            .iter()
            .map(|shot| self.decode_with_scratch(shot, &mut scratch))
            .collect();
        (predictions, DecodeStats::default())
    }

    fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    fn num_observables(&self) -> usize {
        self.num_observables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophunt_circuit::schedule::ScheduleSpec;
    use prophunt_circuit::{DetectorErrorModel, MemoryBasis, MemoryExperiment, NoiseModel};
    use prophunt_qec::small::quantum_repetition_code;
    use prophunt_qec::surface::rotated_surface_code_with_layout;

    fn repetition_dem(p: f64) -> DetectorErrorModel {
        let code = quantum_repetition_code(5);
        let schedule = ScheduleSpec::coloration(&code);
        let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
        DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(p))
    }

    #[test]
    fn zero_syndrome_gives_zero_prediction() {
        let dem = repetition_dem(1e-3);
        let decoder = UnionFindDecoder::new(&dem);
        assert!(decoder.num_edges() > 0);
        assert!(decoder
            .decode(&BitVec::zeros(dem.num_detectors()))
            .is_zero());
    }

    #[test]
    fn single_edge_syndromes_are_matched_exactly() {
        let dem = repetition_dem(1e-3);
        let decoder = UnionFindDecoder::new(&dem);
        for err in dem.errors().iter().filter(|e| e.detectors.len() <= 2) {
            let mut syndrome = BitVec::zeros(dem.num_detectors());
            for &d in &err.detectors {
                syndrome.set(d, true);
            }
            let mut expected = BitVec::zeros(dem.num_observables());
            for &o in &err.observables {
                expected.set(o, true);
            }
            assert_eq!(
                decoder.decode(&syndrome),
                expected,
                "edge syndrome {:?} mismatch",
                err.detectors
            );
        }
    }

    #[test]
    fn repetition_code_shots_decode_correctly_at_low_noise() {
        let dem = repetition_dem(3e-3);
        let decoder = UnionFindDecoder::new(&dem);
        let mut sampler = dem.sampler(21);
        let mut failures = 0;
        for _ in 0..400 {
            let (dets, obs) = sampler.sample();
            if decoder.decode(&dets) != obs {
                failures += 1;
            }
        }
        assert!(
            failures <= 4,
            "too many union-find failures: {failures}/400"
        );
    }

    #[test]
    fn decode_batch_equals_per_shot_decode_on_sampled_shots() {
        let dem = repetition_dem(2e-2);
        let decoder = UnionFindDecoder::new(&dem);
        let mut sampler = dem.sampler(17);
        let shots: Vec<BitVec> = (0..80).map(|_| sampler.sample().0).collect();
        let (batch, stats) = decoder.decode_batch(&shots);
        assert_eq!(batch.len(), shots.len());
        assert_eq!(stats, DecodeStats::default());
        for (shot, prediction) in shots.iter().zip(&batch) {
            assert_eq!(&decoder.decode(shot), prediction);
        }
    }

    #[test]
    fn surface_code_low_noise_failure_rate_is_small() {
        let (code, layout) = rotated_surface_code_with_layout(3);
        let schedule = ScheduleSpec::surface_hand_designed(&code, &layout);
        let exp = MemoryExperiment::build(&code, &schedule, 3, MemoryBasis::Z).unwrap();
        let dem =
            DetectorErrorModel::from_experiment(&exp, &NoiseModel::uniform_depolarizing(2e-3));
        let decoder = UnionFindDecoder::new(&dem);
        let mut sampler = dem.sampler(5);
        let mut failures = 0;
        let shots = 300;
        for _ in 0..shots {
            let (dets, obs) = sampler.sample();
            if decoder.decode(&dets) != obs {
                failures += 1;
            }
        }
        assert!(
            failures < shots / 10,
            "union-find failure rate unexpectedly high: {failures}/{shots}"
        );
    }
}

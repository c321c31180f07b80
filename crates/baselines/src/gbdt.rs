//! Gradient-boosted decision trees, from scratch.
//!
//! Sarabi et al.'s scanner (the paper's closest related work, §2/§6.4) is a
//! sequence of XGBoost classifiers. XGBoost itself is closed behind a large
//! C++ dependency, so this module implements the core algorithm the
//! comparison needs: second-order gradient boosting with logistic loss over
//! *binary* features (exactly the feature shape of intelligent scanning —
//! "is port p open on this host", "is the host in subnet s").
//!
//! Implementation notes:
//! - rows are sparse sets of active feature ids (hosts have few open ports);
//! - split finding is one pass over a node's rows accumulating per-feature
//!   gradient/hessian sums for the *active* side, with the inactive side
//!   derived from node totals (the standard sparsity-aware trick);
//! - leaf values are the Newton step −G/(H+λ); trees are grown level-free
//!   (best-first to `max_depth`).

use gps_types::Rng;

/// A sparse binary dataset: each row lists its active feature ids
/// (sorted, deduplicated).
#[derive(Debug, Clone, Default)]
pub struct SparseMatrix {
    rows: Vec<Vec<u32>>,
    num_features: u32,
}

impl SparseMatrix {
    pub fn new(num_features: u32) -> Self {
        SparseMatrix {
            rows: Vec::new(),
            num_features,
        }
    }

    /// Add a row; feature ids are sorted/deduped internally.
    pub fn push_row(&mut self, mut features: Vec<u32>) {
        features.sort_unstable();
        features.dedup();
        debug_assert!(features.iter().all(|&f| f < self.num_features));
        self.rows.push(features);
    }

    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    pub fn num_features(&self) -> u32 {
        self.num_features
    }

    pub fn row(&self, i: usize) -> &[u32] {
        &self.rows[i]
    }

    fn has(&self, row: usize, feature: u32) -> bool {
        self.rows[row].binary_search(&feature).is_ok()
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct GbdtParams {
    pub n_trees: usize,
    pub max_depth: usize,
    pub learning_rate: f64,
    /// L2 regularization on leaf weights.
    pub lambda: f64,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// Minimum split gain.
    pub gamma: f64,
    /// Row subsample fraction per tree.
    pub subsample: f64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_trees: 50,
            max_depth: 4,
            learning_rate: 0.3,
            lambda: 1.0,
            min_child_weight: 1.0,
            gamma: 0.0,
            subsample: 1.0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { value: f64 },
    Split { feature: u32, on: usize, off: usize },
}

/// One regression tree over binary features.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn predict(&self, matrix: &SparseMatrix, row: usize) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, on, off } => {
                    at = if matrix.has(row, *feature) { *on } else { *off };
                }
            }
        }
    }

    fn predict_features(&self, features: &[u32]) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, on, off } => {
                    at = if features.binary_search(feature).is_ok() {
                        *on
                    } else {
                        *off
                    };
                }
            }
        }
    }
}

/// A boosted ensemble for binary classification (logistic loss).
#[derive(Debug, Clone)]
pub struct Gbdt {
    trees: Vec<Tree>,
    base_score: f64,
    params: GbdtParams,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl Gbdt {
    /// Train on binary labels.
    pub fn train(
        matrix: &SparseMatrix,
        labels: &[bool],
        params: GbdtParams,
        rng: &mut Rng,
    ) -> Gbdt {
        assert_eq!(matrix.num_rows(), labels.len());
        let n = matrix.num_rows();
        let positives = labels.iter().filter(|&&l| l).count().max(1);
        let base_rate = (positives as f64 / n.max(1) as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (base_rate / (1.0 - base_rate)).ln();

        let mut scores = vec![base_score; n];
        let mut trees = Vec::with_capacity(params.n_trees);

        for _ in 0..params.n_trees {
            // Gradients/hessians of logistic loss.
            let mut grad = vec![0.0f64; n];
            let mut hess = vec![0.0f64; n];
            for i in 0..n {
                let p = sigmoid(scores[i]);
                grad[i] = p - if labels[i] { 1.0 } else { 0.0 };
                hess[i] = (p * (1.0 - p)).max(1e-12);
            }
            let rows: Vec<u32> = if params.subsample < 1.0 {
                (0..n as u32)
                    .filter(|_| rng.chance(params.subsample))
                    .collect()
            } else {
                (0..n as u32).collect()
            };
            if rows.is_empty() {
                break;
            }
            let tree = grow_tree(matrix, &grad, &hess, rows, &params);
            for (i, score) in scores.iter_mut().enumerate() {
                *score += params.learning_rate * tree.predict(matrix, i);
            }
            trees.push(tree);
        }
        Gbdt {
            trees,
            base_score,
            params,
        }
    }

    /// Raw additive score.
    pub fn predict_logit(&self, features: &[u32]) -> f64 {
        let mut sorted;
        let features = if features.windows(2).all(|w| w[0] < w[1]) {
            features
        } else {
            sorted = features.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            &sorted
        };
        self.base_score
            + self
                .trees
                .iter()
                .map(|t| self.params.learning_rate * t.predict_features(features))
                .sum::<f64>()
    }

    /// P(label = 1 | features).
    pub fn predict_proba(&self, features: &[u32]) -> f64 {
        sigmoid(self.predict_logit(features))
    }
}

fn grow_tree(
    matrix: &SparseMatrix,
    grad: &[f64],
    hess: &[f64],
    rows: Vec<u32>,
    params: &GbdtParams,
) -> Tree {
    let mut nodes: Vec<Node> = Vec::new();
    // Work queue of (node index, rows, depth).
    let mut queue: Vec<(usize, Vec<u32>, usize)> = Vec::new();
    nodes.push(Node::Leaf { value: 0.0 });
    queue.push((0, rows, 0));

    while let Some((node_idx, rows, depth)) = queue.pop() {
        let (g_total, h_total) = rows.iter().fold((0.0, 0.0), |(g, h), &r| {
            (g + grad[r as usize], h + hess[r as usize])
        });

        let leaf_value = -g_total / (h_total + params.lambda);
        if depth >= params.max_depth || rows.len() < 2 {
            nodes[node_idx] = Node::Leaf { value: leaf_value };
            continue;
        }

        // One pass: per-feature (G, H) sums over rows where the feature is
        // active.
        let mut g_on = std::collections::HashMap::<u32, (f64, f64)>::new();
        for &r in &rows {
            for &f in matrix.row(r as usize) {
                let e = g_on.entry(f).or_insert((0.0, 0.0));
                e.0 += grad[r as usize];
                e.1 += hess[r as usize];
            }
        }

        let parent_score = g_total * g_total / (h_total + params.lambda);
        let mut best: Option<(u32, f64)> = None;
        for (&f, &(g1, h1)) in &g_on {
            let (g0, h0) = (g_total - g1, h_total - h1);
            if h1 < params.min_child_weight || h0 < params.min_child_weight {
                continue;
            }
            let gain =
                g1 * g1 / (h1 + params.lambda) + g0 * g0 / (h0 + params.lambda) - parent_score;
            // Zero-gain splits are allowed (with a float-noise epsilon):
            // XOR-style interactions have no first-order gain at the root
            // and only resolve one level down (the classic greedy-tree
            // caveat). Without the epsilon, symmetric gradients cancel to
            // ~-1e-30 and every later tree degenerates to an empty leaf.
            if gain + 1e-9 >= params.gamma {
                let better = match best {
                    None => true,
                    Some((bf, bg)) => gain > bg || (gain == bg && f < bf),
                };
                if better {
                    best = Some((f, gain));
                }
            }
        }

        match best {
            None => nodes[node_idx] = Node::Leaf { value: leaf_value },
            Some((feature, _)) => {
                let (on_rows, off_rows): (Vec<u32>, Vec<u32>) = rows
                    .into_iter()
                    .partition(|&r| matrix.has(r as usize, feature));
                let on = nodes.len();
                nodes.push(Node::Leaf { value: 0.0 });
                let off = nodes.len();
                nodes.push(Node::Leaf { value: 0.0 });
                nodes[node_idx] = Node::Split { feature, on, off };
                queue.push((on, on_rows, depth + 1));
                queue.push((off, off_rows, depth + 1));
            }
        }
    }
    Tree { nodes }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = feature 0 (pure single-feature signal).
    fn single_feature_data(n: usize) -> (SparseMatrix, Vec<bool>) {
        let mut m = SparseMatrix::new(4);
        let mut y = Vec::new();
        for i in 0..n {
            let on = i % 2 == 0;
            let mut fs = vec![(i % 3 + 1) as u32];
            if on {
                fs.push(0);
            }
            m.push_row(fs);
            y.push(on);
        }
        (m, y)
    }

    #[test]
    fn learns_single_feature_rule() {
        let (m, y) = single_feature_data(200);
        let mut rng = Rng::new(1);
        let model = Gbdt::train(&m, &y, GbdtParams::default(), &mut rng);
        assert!(model.predict_proba(&[0]) > 0.9);
        assert!(model.predict_proba(&[1]) < 0.1);
    }

    #[test]
    fn learns_xor_with_depth() {
        // y = f0 XOR f1 — needs depth ≥ 2.
        let mut m = SparseMatrix::new(2);
        let mut y = Vec::new();
        for i in 0..400usize {
            let a = i % 2 == 0;
            let b = (i / 2) % 2 == 0;
            let mut fs = Vec::new();
            if a {
                fs.push(0);
            }
            if b {
                fs.push(1);
            }
            m.push_row(fs);
            y.push(a != b);
        }
        let mut rng = Rng::new(2);
        let model = Gbdt::train(
            &m,
            &y,
            GbdtParams {
                n_trees: 40,
                max_depth: 3,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(
            model.predict_proba(&[0]) > 0.8,
            "{}",
            model.predict_proba(&[0])
        );
        assert!(model.predict_proba(&[1]) > 0.8);
        assert!(model.predict_proba(&[0, 1]) < 0.2);
        assert!(model.predict_proba(&[]) < 0.2);
    }

    #[test]
    fn base_rate_without_signal() {
        // Labels independent of features: predictions ≈ base rate.
        let mut m = SparseMatrix::new(2);
        let mut y = Vec::new();
        for i in 0..1000usize {
            m.push_row(vec![(i % 2) as u32]);
            y.push(i % 10 < 3); // 30% positive, uncorrelated with feature
        }
        let mut rng = Rng::new(3);
        let model = Gbdt::train(&m, &y, GbdtParams::default(), &mut rng);
        for fs in [&[][..], &[0][..], &[1][..]] {
            let p = model.predict_proba(fs);
            assert!((p - 0.3).abs() < 0.1, "p={p} for {fs:?}");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (m, y) = single_feature_data(100);
        let a = Gbdt::train(&m, &y, GbdtParams::default(), &mut Rng::new(5));
        let b = Gbdt::train(&m, &y, GbdtParams::default(), &mut Rng::new(5));
        for fs in [&[0u32][..], &[1][..], &[0, 2][..]] {
            assert_eq!(a.predict_logit(fs), b.predict_logit(fs));
        }
    }

    #[test]
    fn handles_all_positive_labels() {
        let mut m = SparseMatrix::new(1);
        for _ in 0..10 {
            m.push_row(vec![0]);
        }
        let y = vec![true; 10];
        let model = Gbdt::train(&m, &y, GbdtParams::default(), &mut Rng::new(7));
        assert!(model.predict_proba(&[0]) > 0.9);
    }

    #[test]
    fn predict_tolerates_unsorted_features() {
        let (m, y) = single_feature_data(100);
        let model = Gbdt::train(&m, &y, GbdtParams::default(), &mut Rng::new(9));
        assert_eq!(model.predict_logit(&[2, 0]), model.predict_logit(&[0, 2]));
    }

    #[test]
    fn subsample_still_learns() {
        let (m, y) = single_feature_data(400);
        let model = Gbdt::train(
            &m,
            &y,
            GbdtParams {
                subsample: 0.5,
                n_trees: 60,
                ..Default::default()
            },
            &mut Rng::new(11),
        );
        assert!(model.predict_proba(&[0]) > 0.85);
        assert!(model.predict_proba(&[1]) < 0.15);
    }
}

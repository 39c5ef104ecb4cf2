//! Server-side aggregation of client state vectors.

use serde::{Deserialize, Serialize};

/// One client's upload at the end of a round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientUpdate {
    /// Client identifier.
    pub client_id: usize,
    /// Flattened model state (see `goldfish_nn::Network::state_vector`).
    pub state: Vec<f32>,
    /// Local dataset size (FedAvg weighting).
    pub num_samples: usize,
}

fn check_updates(updates: &[ClientUpdate]) -> usize {
    assert!(!updates.is_empty(), "no client updates to aggregate");
    let len = updates[0].state.len();
    for u in updates {
        assert_eq!(
            u.state.len(),
            len,
            "client {} uploaded {} params, expected {len}",
            u.client_id,
            u.state.len()
        );
    }
    len
}

/// Parameter-index chunk width of the reduction in [`weighted_mean`]: its
/// `f64` accumulator holds one chunk, not the whole state.
const REDUCE_CHUNK: usize = 16 * 1024;

/// Weighted mean of uploaded state vectors: FedAvg (Eq 13) with
/// sample-count weights, the adaptive aggregation with
/// [`adaptive_weights`]. Every round loop folds with
/// [`RoundAccumulator`]; this buffered form is its independent oracle,
/// which the tests compare the fold against.
///
/// The reduction runs on the calling thread, chunk by chunk over the
/// parameter index space. Each output element accumulates client
/// contributions in client order into an `f64` accumulator.
///
/// # Panics
///
/// Panics if `updates` is empty, state lengths disagree, or the weights sum
/// to zero.
pub fn weighted_mean(updates: &[ClientUpdate], weights: &[f64]) -> Vec<f32> {
    let len = check_updates(updates);
    // A client whose training diverged uploads NaN/∞ parameters; one such
    // upload would poison the whole mean, so drop it (the federated
    // equivalent of a crashed client missing the round). If *every* upload
    // is bad, fall back to including them so the caller sees the failure.
    let usable: Vec<usize> = (0..updates.len())
        .filter(|&i| updates[i].state.iter().all(|v| v.is_finite()))
        .collect();
    let usable: Vec<usize> = if usable.is_empty() {
        (0..updates.len()).collect()
    } else {
        usable
    };
    let total: f64 = usable.iter().map(|&i| weights[i]).sum();
    assert!(total > 0.0, "aggregation weights sum to zero");
    let fracs: Vec<(usize, f64)> = usable.iter().map(|&i| (i, weights[i] / total)).collect();

    let mut out = vec![0.0f32; len];
    for (chunk_idx, chunk) in out.chunks_mut(REDUCE_CHUNK).enumerate() {
        let offset = chunk_idx * REDUCE_CHUNK;
        let mut acc = vec![0.0f64; chunk.len()];
        for &(i, frac) in &fracs {
            let state = &updates[i].state[offset..offset + chunk.len()];
            for (a, &v) in acc.iter_mut().zip(state.iter()) {
                *a += frac * v as f64;
            }
        }
        for (o, &a) in chunk.iter_mut().zip(acc.iter()) {
            *o = a as f32;
        }
    }
    out
}

/// The unnormalised adaptive weights of Eq 12 for a cohort's server-side
/// MSE scores `me_c` (in client order):
///
/// `W_c = exp(−(me_c − m̄) / m̄)` with `m̄ = (1/|C|) Σ_i me_i`,
///
/// so a better model (lower MSE) dominates the Eq 13 mean — the mechanism
/// behind the Fig 8 heterogeneity results. A non-finite score counts as
/// the worst possible (`1e9`) instead of poisoning every weight; an
/// all-perfect cohort (`m̄ ≈ 0`) gets uniform weights.
///
/// # Panics
///
/// Panics if `mses` is empty.
pub fn adaptive_weights(mses: &[f64]) -> Vec<f64> {
    assert!(!mses.is_empty(), "no MSE scores");
    let sane: Vec<f64> = mses
        .iter()
        .map(|&m| if m.is_finite() { m } else { 1e9 })
        .collect();
    let mean = sane.iter().sum::<f64>() / sane.len() as f64;
    if mean <= f64::EPSILON {
        return vec![1.0; sane.len()];
    }
    sane.iter().map(|&me| (-(me - mean) / mean).exp()).collect()
}

/// Why a [`RoundAccumulator`] refused an update or could not finish.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateError {
    /// The client id is not part of the round's cohort.
    UnknownClient {
        /// The offending id.
        client_id: usize,
    },
    /// The client already contributed this round.
    DuplicateUpdate {
        /// The offending id.
        client_id: usize,
    },
    /// The update's state length differs from the accumulator's.
    StateLenMismatch {
        /// The offending id.
        client_id: usize,
        /// Uploaded length.
        got: usize,
        /// Expected length.
        want: usize,
    },
    /// The update carries non-finite parameters (diverged training).
    Diverged {
        /// The offending id.
        client_id: usize,
    },
    /// Parking this out-of-order update would exceed the resident-update
    /// window.
    WindowExceeded {
        /// The configured window (maximum parked updates).
        limit: usize,
        /// The update that did not fit.
        client_id: usize,
    },
    /// `finish` was called before every cohort member folded.
    Incomplete {
        /// How many cohort members are still missing.
        missing: usize,
    },
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateError::UnknownClient { client_id } => {
                write!(f, "client {client_id} is not in the aggregation cohort")
            }
            AggregateError::DuplicateUpdate { client_id } => {
                write!(f, "client {client_id} already delivered this round")
            }
            AggregateError::StateLenMismatch {
                client_id,
                got,
                want,
            } => write!(
                f,
                "client {client_id} uploaded {got} params, expected {want}"
            ),
            AggregateError::Diverged { client_id } => {
                write!(f, "client {client_id} uploaded non-finite parameters")
            }
            AggregateError::WindowExceeded { limit, client_id } => write!(
                f,
                "parking client {client_id} would exceed the {limit}-update resident window"
            ),
            AggregateError::Incomplete { missing } => {
                write!(
                    f,
                    "aggregation incomplete: {missing} cohort members missing"
                )
            }
        }
    }
}

impl std::error::Error for AggregateError {}

/// The per-round accumulator behind the streaming round loop
/// ([`crate::transport::RoundRuntime`]): **one** fixed-slot engine keyed
/// by client id that serves every [`AggregationMode`]. The streaming
/// modes ([`AggregationMode::Mean`], and [`AggregationMode::NormClipped`],
/// whose clipping happens upstream in the admission layer) fold updates
/// **as they arrive** instead of buffering the whole round; the holding
/// modes ([`AggregationMode::TrimmedMean`], [`AggregationMode::Median`])
/// park every reported update until `finish` — coordinate-wise selection
/// needs all values of a coordinate at once, so they cannot stream.
///
/// The per-element arithmetic of [`weighted_mean`] is a client-id-ordered
/// `f64` sum of `fracᵢ · vᵢⱼ` followed by one `f32` cast. That order is
/// what makes the reduction deterministic — so the streaming form keeps a
/// **fold frontier**: an update folds into the accumulator the moment
/// every smaller cohort id has folded; out-of-order arrivals are parked
/// (copied into pooled buffers, bounded by the resident window) and
/// drained the moment the frontier reaches them. The weights are
/// registered up front ([`RoundAccumulator::begin`]) from the transport's
/// client registry, so `fracᵢ = wᵢ / Σw` is known before the first
/// arrival and the result is **bitwise identical** to
/// [`weighted_mean`] over the same cohort at every arrival order, thread
/// count and window size — pinned by the arrival-order proptests in
/// `crates/fed/tests/determinism.rs`.
///
/// Determinism of the holding modes: slots are keyed by client id, so
/// arrival order is erased on entry; each coordinate's selection sorts
/// values by `f32::total_cmp` with the slot index as tie-break, and the
/// surviving values are accumulated **in ascending slot order** into an
/// `f64` accumulator. Coordinates are independent, and the finish runs
/// on the calling thread, so it is bitwise identical at every thread
/// count (pinned by the same proptests).
///
/// Eqs 12–13 are one more holding rule, armed by the round loop under
/// [`crate::transport::Weighting::ServerMse`]: the round parks every
/// admitted update, scores the complete set, replaces the registered
/// fractions with the [`adaptive_weights`] of those scores and folds the
/// slots in ascending order — [`weighted_mean`]'s per-element arithmetic
/// over the same weights, bit for bit.
///
/// Memory: a streaming round holds one `f64` accumulator lane
/// (`state_len` wide) plus at most `window` parked updates, instead of
/// all N updates at once; a holding round is bounded by the cohort (`n`
/// pooled state buffers). The parked buffers are pooled across rounds
/// and modes. Folding and finishing run on the calling thread and open
/// no pool scope, so a warm round allocates nothing at any pool size.
///
/// Divergence semantics differ deliberately from [`weighted_mean`]: a
/// non-finite upload is reported as [`AggregateError::Diverged`] so the
/// round loop can treat the client like a crashed one (drop + re-round),
/// instead of silently re-weighting the survivors mid-stream (the
/// streaming form cannot — earlier folds already used the full-cohort
/// weights). See DESIGN.md §11.
#[derive(Debug, Default)]
pub struct RoundAccumulator {
    /// The rule this round folds with.
    mode: AggregationMode,
    /// Cohort client ids, strictly ascending.
    ids: Vec<usize>,
    /// `wᵢ / Σw` per slot, computed in slot order like [`weighted_mean`]
    /// (the median ignores it).
    fracs: Vec<f64>,
    /// The running per-parameter `f64` accumulator (streaming modes).
    acc: Vec<f64>,
    /// Parked updates by slot (buffers pooled via `spare`): out-of-order
    /// arrivals under a streaming mode, every arrival under a holding one.
    parked: Vec<Option<Vec<f32>>>,
    /// Whether each slot has folded.
    folded: Vec<bool>,
    /// Spare parked-update buffers, reused across rounds.
    spare: Vec<Vec<f32>>,
    /// Fold frontier: every slot below it has folded.
    next: usize,
    /// Maximum parked updates before [`AggregateError::WindowExceeded`].
    window: usize,
    /// Currently parked update count.
    resident: usize,
    /// High-water mark of `resident` plus the update being folded.
    peak_resident: usize,
    state_len: usize,
    /// This round holds every update until finish (`hold`).
    held: bool,
}

impl RoundAccumulator {
    /// An empty accumulator; call [`RoundAccumulator::begin`] per round.
    pub fn new() -> Self {
        RoundAccumulator::default()
    }

    /// Whether this round's mode folds on arrival (as opposed to
    /// holding every update for a coordinate-wise selection).
    fn streams(&self) -> bool {
        !self.held
            && matches!(
                self.mode,
                AggregationMode::Mean | AggregationMode::NormClipped { .. }
            )
    }

    /// Arms the accumulator for one round in `mode`: `cohort` is
    /// `(client_id, weight)` in strictly ascending id order (the
    /// transport's live registry), `state_len` the expected parameter
    /// count, `window` the maximum parked updates (`usize::MAX` for
    /// unbounded) — ignored by the trimmed mean and the median, which
    /// must hold the whole reported set anyway. Buffers are reused across
    /// rounds, so a steady-state `begin` never allocates.
    ///
    /// # Panics
    ///
    /// Panics if the cohort is empty, ids are not strictly ascending, or
    /// the weights sum to zero (mirroring [`weighted_mean`]).
    pub fn begin(
        &mut self,
        mode: AggregationMode,
        cohort: &[(usize, f64)],
        state_len: usize,
        window: usize,
    ) {
        assert!(!cohort.is_empty(), "no clients to aggregate");
        assert!(
            cohort.windows(2).all(|w| w[0].0 < w[1].0),
            "cohort ids must be strictly ascending"
        );
        // Identical arithmetic to `weighted_mean`: total summed in id
        // order, then one division per client.
        let total: f64 = cohort.iter().map(|&(_, w)| w).sum();
        assert!(total > 0.0, "aggregation weights sum to zero");
        self.mode = mode;
        self.held = false;
        self.ids.clear();
        self.ids.extend(cohort.iter().map(|&(id, _)| id));
        self.fracs.clear();
        self.fracs.extend(cohort.iter().map(|&(_, w)| w / total));
        self.acc.clear();
        self.acc.resize(state_len, 0.0);
        for slot in self.parked.iter_mut() {
            if let Some(buf) = slot.take() {
                self.spare.push(buf);
            }
        }
        self.parked.resize_with(cohort.len(), || None);
        self.folded.clear();
        self.folded.resize(cohort.len(), false);
        self.next = 0;
        self.window = if self.streams() { window } else { usize::MAX };
        self.resident = 0;
        self.peak_resident = 0;
        self.state_len = state_len;
    }

    /// Makes the round armed by [`RoundAccumulator::begin`] hold every
    /// update until finish, whatever its mode: the adaptive weights of
    /// Eq 12 are only known once the whole reported set is in.
    pub(crate) fn hold(&mut self) {
        self.held = true;
        self.window = usize::MAX;
    }

    /// Eqs 12–13 over a held round: `score` gets every held update, in
    /// slot order, paired with the score it must write (its server-side
    /// MSE); the held slots' fractions are then replaced with the
    /// [`adaptive_weights`] of those scores, summed in slot order with
    /// one division each as [`weighted_mean`] does. The finish that
    /// follows folds the slots in ascending order.
    pub(crate) fn reweight_adaptive(&mut self, score: impl FnOnce(&mut [(&[f32], f64)])) {
        let mut held: Vec<(&[f32], f64)> = self
            .parked
            .iter()
            .flatten()
            .map(|state| (state.as_slice(), 0.0))
            .collect();
        score(&mut held);
        let mses: Vec<f64> = held.iter().map(|&(_, mse)| mse).collect();
        let weights = adaptive_weights(&mses);
        let total: f64 = weights.iter().sum();
        self.fracs.fill(0.0);
        let slots = (0..self.parked.len()).filter(|&s| self.parked[s].is_some());
        for (slot, &w) in slots.zip(&weights) {
            self.fracs[slot] = w / total;
        }
    }

    /// Offers one arriving update. A streaming mode folds it immediately
    /// when `client_id` is the fold frontier (then drains any parked
    /// successors); otherwise a copy is parked. The caller keeps
    /// ownership of `state` either way.
    ///
    /// # Errors
    ///
    /// [`AggregateError`] for unknown/duplicate clients, wrong state
    /// lengths, non-finite uploads, and window overflow. The accumulator
    /// is unchanged by a rejected offer.
    pub fn offer(&mut self, client_id: usize, state: &[f32]) -> Result<(), AggregateError> {
        let slot = self
            .ids
            .binary_search(&client_id)
            .map_err(|_| AggregateError::UnknownClient { client_id })?;
        if self.folded[slot] || self.parked[slot].is_some() {
            return Err(AggregateError::DuplicateUpdate { client_id });
        }
        if state.len() != self.state_len {
            return Err(AggregateError::StateLenMismatch {
                client_id,
                got: state.len(),
                want: self.state_len,
            });
        }
        if !state.iter().all(|v| v.is_finite()) {
            return Err(AggregateError::Diverged { client_id });
        }
        if slot == self.next && self.streams() {
            self.peak_resident = self.peak_resident.max(self.resident + 1);
            self.fold(slot, state);
            self.drain_frontier();
        } else {
            if self.resident >= self.window {
                return Err(AggregateError::WindowExceeded {
                    limit: self.window,
                    client_id,
                });
            }
            let mut buf = self.spare.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(state);
            self.parked[slot] = Some(buf);
            self.resident += 1;
            self.peak_resident = self.peak_resident.max(self.resident);
        }
        Ok(())
    }

    /// Folds `state` into the accumulator with slot `slot`'s fraction —
    /// one pass on the calling thread, per-element order fixed by the
    /// frontier. (A pool scope costs more to spawn and join than the
    /// fold of a 100k-parameter state takes.)
    fn fold(&mut self, slot: usize, state: &[f32]) {
        let frac = self.fracs[slot];
        for (a, &v) in self.acc.iter_mut().zip(state) {
            *a += frac * v as f64;
        }
        self.folded[slot] = true;
        self.next = slot + 1;
    }

    /// Folds every parked update the frontier has reached, releasing its
    /// buffer back to the pool.
    fn drain_frontier(&mut self) {
        while self.next < self.ids.len() {
            let Some(buf) = self.parked[self.next].take() else {
                break;
            };
            self.resident -= 1;
            let slot = self.next;
            self.fold(slot, &buf);
            self.spare.push(buf);
        }
    }

    /// Cohort members that have folded so far.
    #[cfg(test)]
    pub(crate) fn folded_count(&self) -> usize {
        self.next
    }

    /// Whether every cohort member has reported (under a streaming mode
    /// that means folded: the frontier drains whatever it can reach).
    pub(crate) fn is_complete(&self) -> bool {
        self.offered_count() == self.ids.len()
    }

    /// High-water mark of simultaneously resident updates this round
    /// (parked copies plus the update being folded).
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Finishes over the full cohort: the cast of the accumulator lane
    /// under a streaming mode, the coordinate-wise selection over the held
    /// updates otherwise. `out` is resized to the state length.
    ///
    /// # Errors
    ///
    /// [`AggregateError::Incomplete`] when cohort members are missing
    /// (the accumulator keeps its state so the round can keep feeding).
    pub fn finish_into(&mut self, out: &mut Vec<f32>) -> Result<(), AggregateError> {
        if !self.is_complete() {
            // A streaming round counts what folded; parked updates are
            // still waiting for a smaller id.
            let have = if self.streams() {
                self.next
            } else {
                self.resident
            };
            return Err(AggregateError::Incomplete {
                missing: self.ids.len() - have,
            });
        }
        self.finish_partial_into(out)
    }

    /// [`RoundAccumulator::finish_into`] returning a fresh vector.
    ///
    /// # Errors
    ///
    /// [`AggregateError::Incomplete`] when cohort members are missing.
    pub fn finish(&mut self) -> Result<Vec<f32>, AggregateError> {
        let mut out = Vec::new();
        self.finish_into(&mut out)?;
        Ok(out)
    }

    /// Cohort members whose updates are held by the accumulator —
    /// folded plus parked. This is the "reported set" quorum decisions
    /// are made over.
    pub(crate) fn offered_count(&self) -> usize {
        self.next + self.resident
    }

    /// Finishes a **quorum-degraded** round over whatever subset
    /// reported. A streaming mode folds every parked update (in
    /// ascending slot order, skipping the missing cohort members) and
    /// emits the mean **renormalized over the reported weight mass** —
    /// `accⱼ / Σ_{reported} fracᵢ`, with the fraction sum accumulated in
    /// ascending slot order. When every cohort member reported this is
    /// the plain cast of [`RoundAccumulator::finish_into`] (no division),
    /// so a 100%-participation quorum round is bitwise identical to a
    /// normal one. A holding mode runs its selection over the reported
    /// slots (ascending client-id order, weights renormalized) — except a
    /// trimmed mean whose trim discards nothing, which *is* that weighted
    /// mean and finishes through the same lane, bit for bit.
    ///
    /// # Errors
    ///
    /// [`AggregateError::Incomplete`] when *nothing* was offered.
    pub fn finish_partial_into(&mut self, out: &mut Vec<f32>) -> Result<(), AggregateError> {
        if self.offered_count() == 0 {
            return Err(AggregateError::Incomplete {
                missing: self.ids.len(),
            });
        }
        let selects = match self.mode {
            AggregationMode::Mean | AggregationMode::NormClipped { .. } => false,
            AggregationMode::TrimmedMean { trim } => effective_trim(trim, self.resident) > 0,
            AggregationMode::Median => true,
        };
        if selects {
            self.select_into(out);
            return Ok(());
        }
        // Fold parked updates past the frontier in ascending slot
        // order; gaps (missing clients) are skipped.
        for slot in self.next..self.ids.len() {
            if let Some(buf) = self.parked[slot].take() {
                self.resident -= 1;
                self.fold(slot, &buf);
                self.spare.push(buf);
            }
        }
        out.clear();
        out.reserve(self.state_len);
        if self.folded.iter().all(|&f| f) {
            out.extend(self.acc.iter().map(|&a| a as f32));
            return Ok(());
        }
        let mut den = 0.0f64;
        for (slot, &folded) in self.folded.iter().enumerate() {
            if folded {
                den += self.fracs[slot];
            }
        }
        out.extend(self.acc.iter().map(|&a| (a / den) as f32));
        Ok(())
    }
}

/// Which aggregation rule the streaming round loop folds with —
/// selected via `CoordinatorConfig` and announced to workers in the
/// `Capabilities` handshake (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AggregationMode {
    /// The weighted FedAvg mean ([`StreamingMean`]): the bitwise
    /// reference behavior, no Byzantine tolerance.
    #[default]
    Mean,
    /// Coordinate-wise trimmed mean: per parameter index, the `trim`
    /// lowest and `trim` highest reported values are discarded and the
    /// survivors weighted-averaged (renormalized weights). `trim = 0`
    /// at full participation is bitwise identical to [`AggregationMode::Mean`].
    /// Tolerates up to `trim` Byzantine clients per coordinate.
    TrimmedMean {
        /// Values trimmed from each end of every coordinate's order.
        trim: usize,
    },
    /// Coordinate-wise unweighted median — the strongest per-coordinate
    /// robustness (breaks down only past ⌊(n−1)/2⌋ attackers).
    Median,
    /// The FedAvg mean over norm-clipped updates: an update whose
    /// relative delta norm `‖u − g‖ / (1 + ‖g‖)` vs. the broadcast
    /// global `g` exceeds `limit` is scaled back onto the limit sphere
    /// before folding; updates under the limit pass through
    /// **bitwise-untouched**, so a benign round is identical to
    /// [`AggregationMode::Mean`].
    NormClipped {
        /// The relative delta-norm ceiling.
        limit: f64,
    },
}

impl AggregationMode {
    /// The `(code, param)` pair the `Capabilities` handshake carries.
    pub fn wire_code(&self) -> (u8, u64) {
        match *self {
            AggregationMode::Mean => (0, 0),
            AggregationMode::TrimmedMean { trim } => (1, trim as u64),
            AggregationMode::Median => (2, 0),
            AggregationMode::NormClipped { limit } => (3, limit.to_bits()),
        }
    }

    /// Decodes a `Capabilities` `(code, param)` pair.
    pub fn from_wire(code: u8, param: u64) -> Option<Self> {
        match code {
            0 => Some(AggregationMode::Mean),
            1 => Some(AggregationMode::TrimmedMean {
                trim: param as usize,
            }),
            2 => Some(AggregationMode::Median),
            3 => {
                let limit = f64::from_bits(param);
                if limit.is_finite() && limit > 0.0 {
                    Some(AggregationMode::NormClipped { limit })
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Parses the daemon flag syntax: `mean`, `trimmed:K`, `median`,
    /// `normclip:LIMIT`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.split_once(':') {
            None => match s {
                "mean" => Some(AggregationMode::Mean),
                "median" => Some(AggregationMode::Median),
                _ => None,
            },
            Some(("trimmed", k)) => k
                .parse()
                .ok()
                .map(|trim| AggregationMode::TrimmedMean { trim }),
            Some(("normclip", c)) => c
                .parse()
                .ok()
                .filter(|&limit: &f64| limit.is_finite() && limit > 0.0)
                .map(|limit| AggregationMode::NormClipped { limit }),
            Some(_) => None,
        }
    }
}

impl std::fmt::Display for AggregationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AggregationMode::Mean => write!(f, "mean"),
            AggregationMode::TrimmedMean { trim } => write!(f, "trimmed:{trim}"),
            AggregationMode::Median => write!(f, "median"),
            AggregationMode::NormClipped { limit } => write!(f, "normclip:{limit}"),
        }
    }
}

/// Sequential (index-order) `f64` L2 norm of `v` — one deterministic
/// pass, bitwise identical at every thread count. The admission layer's
/// norm primitive.
pub(crate) fn l2_norm(v: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for &x in v {
        let x = x as f64;
        acc += x * x;
    }
    acc.sqrt()
}

/// Sequential `f64` L2 norm of `state − global` (index order).
pub(crate) fn delta_norm(global: &[f32], state: &[f32]) -> f64 {
    debug_assert_eq!(global.len(), state.len());
    let mut acc = 0.0f64;
    for (&g, &s) in global.iter().zip(state.iter()) {
        let d = s as f64 - g as f64;
        acc += d * d;
    }
    acc.sqrt()
}

/// Writes `global + scale · (state − global)` into `out` (per-element
/// `f64` arithmetic, index order) — the norm-clipping projection of
/// [`AggregationMode::NormClipped`].
pub(crate) fn clip_update_into(global: &[f32], state: &[f32], scale: f64, out: &mut Vec<f32>) {
    out.clear();
    out.reserve(global.len());
    out.extend(
        global
            .iter()
            .zip(state.iter())
            .map(|(&g, &s)| (g as f64 + scale * (s as f64 - g as f64)) as f32),
    );
}

/// How many values a trimmed mean over `n` reported ones discards from
/// each end: a trim that would empty the order is clamped so at least
/// one value survives (documented in DESIGN.md §13).
fn effective_trim(trim: usize, n: usize) -> usize {
    trim.min(n.saturating_sub(1) / 2)
}

/// The holding modes' finish ([`AggregationMode::TrimmedMean`] with a
/// non-zero effective trim, and [`AggregationMode::Median`]):
/// coordinate-wise selection over the parked slots.
impl RoundAccumulator {
    fn select_into(&self, out: &mut Vec<f32>) {
        let reported: Vec<usize> = (0..self.parked.len())
            .filter(|&s| self.parked[s].is_some())
            .collect();
        out.clear();
        out.resize(self.state_len, 0.0);
        for (i, chunk) in out.chunks_mut(REDUCE_CHUNK).enumerate() {
            self.select_chunk(&reported, chunk, i * REDUCE_CHUNK);
        }
    }

    /// Computes one coordinate chunk. Every coordinate is independent,
    /// so chunking never changes bits.
    fn select_chunk(&self, reported: &[usize], chunk: &mut [f32], offset: usize) {
        let n = reported.len();
        match self.mode {
            AggregationMode::TrimmedMean { trim } => {
                let t = effective_trim(trim, n);
                let mut order: Vec<(f32, usize)> = Vec::with_capacity(n);
                let mut kept: Vec<usize> = Vec::with_capacity(n);
                for (j, o) in chunk.iter_mut().enumerate() {
                    let idx = offset + j;
                    order.clear();
                    order.extend(
                        reported.iter().map(|&slot| {
                            (self.parked[slot].as_ref().expect("reported")[idx], slot)
                        }),
                    );
                    // Total order: value, then slot — deterministic
                    // under ties.
                    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    kept.clear();
                    kept.extend(order[t..n - t].iter().map(|&(_, slot)| slot));
                    kept.sort_unstable();
                    let mut num = 0.0f64;
                    let mut den = 0.0f64;
                    for &slot in &kept {
                        let v = self.parked[slot].as_ref().expect("kept")[idx];
                        num += self.fracs[slot] * v as f64;
                        den += self.fracs[slot];
                    }
                    *o = (num / den) as f32;
                }
            }
            AggregationMode::Median => {
                let mut vals: Vec<f32> = Vec::with_capacity(n);
                for (j, o) in chunk.iter_mut().enumerate() {
                    let idx = offset + j;
                    vals.clear();
                    vals.extend(
                        reported
                            .iter()
                            .map(|&slot| self.parked[slot].as_ref().expect("reported")[idx]),
                    );
                    vals.sort_unstable_by(f32::total_cmp);
                    *o = if n % 2 == 1 {
                        vals[n / 2]
                    } else {
                        ((vals[n / 2 - 1] as f64 + vals[n / 2] as f64) * 0.5) as f32
                    };
                }
            }
            AggregationMode::Mean | AggregationMode::NormClipped { .. } => {
                unreachable!("streaming modes fold on arrival and finish by cast")
            }
        }
    }
}

/// The streaming weighted mean by name: a [`RoundAccumulator`] whose
/// [`StreamingMean::begin`] always arms [`AggregationMode::Mean`]. Every
/// other method (`offer`, `finish_into`, `peak_resident`, …) is the
/// engine's own, reached through `Deref`.
#[derive(Debug, Default)]
pub struct StreamingMean(RoundAccumulator);

impl StreamingMean {
    /// An empty accumulator; call [`StreamingMean::begin`] per round.
    pub fn new() -> Self {
        StreamingMean::default()
    }

    /// [`RoundAccumulator::begin`] in [`AggregationMode::Mean`].
    pub fn begin(&mut self, cohort: &[(usize, f64)], state_len: usize, window: usize) {
        self.0
            .begin(AggregationMode::Mean, cohort, state_len, window);
    }
}

impl std::ops::Deref for StreamingMean {
    type Target = RoundAccumulator;

    fn deref(&self) -> &RoundAccumulator {
        &self.0
    }
}

impl std::ops::DerefMut for StreamingMean {
    fn deref_mut(&mut self) -> &mut RoundAccumulator {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(id: usize, state: Vec<f32>, n: usize) -> ClientUpdate {
        ClientUpdate {
            client_id: id,
            state,
            num_samples: n,
        }
    }

    /// FedAvg's sample-count weights.
    fn fedavg(updates: &[ClientUpdate]) -> Vec<f32> {
        let weights: Vec<f64> = updates.iter().map(|u| u.num_samples as f64).collect();
        weighted_mean(updates, &weights)
    }

    #[test]
    fn fedavg_weights_by_samples() {
        let updates = vec![upd(0, vec![0.0, 0.0], 30), upd(1, vec![4.0, 8.0], 10)];
        let agg = fedavg(&updates);
        assert_eq!(agg, vec![1.0, 2.0]); // (30*0 + 10*4)/40, (30*0 + 10*8)/40
    }

    #[test]
    fn uniform_ignores_sizes() {
        let updates = vec![upd(0, vec![0.0], 1000), upd(1, vec![2.0], 1)];
        assert_eq!(weighted_mean(&updates, &[1.0, 1.0]), vec![1.0]);
    }

    #[test]
    fn single_client_is_identity() {
        let updates = vec![upd(0, vec![1.5, -2.5], 7)];
        assert_eq!(fedavg(&updates), vec![1.5, -2.5]);
    }

    #[test]
    #[should_panic(expected = "no client updates")]
    fn empty_updates_panic() {
        let _ = weighted_mean(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn mismatched_lengths_panic() {
        let updates = vec![upd(0, vec![1.0], 1), upd(1, vec![1.0, 2.0], 1)];
        let _ = fedavg(&updates);
    }

    #[test]
    fn diverged_clients_are_excluded() {
        let updates = vec![
            upd(0, vec![2.0, 2.0], 10),
            upd(1, vec![f32::NAN, 1.0], 10),
            upd(2, vec![4.0, 4.0], 10),
        ];
        assert_eq!(fedavg(&updates), vec![3.0, 3.0]);
    }

    #[test]
    fn all_diverged_still_returns_something() {
        let updates = vec![upd(0, vec![f32::NAN], 10)];
        let agg = fedavg(&updates);
        assert!(agg[0].is_nan());
    }

    #[test]
    fn adaptive_round_matches_weighted_mean_over_eq12_weights() {
        let updates: Vec<ClientUpdate> = (0..4)
            .map(|i| {
                let state = (0..50)
                    .map(|j| ((i * 13 + j) as f32 * 0.31).cos())
                    .collect();
                upd(i * 3, state, 5 + i)
            })
            .collect();
        // The "score" is a pure function of the state, like a server MSE.
        let score = |state: &[f32]| state.iter().map(|&v| (v as f64).powi(2)).sum::<f64>();
        let mses: Vec<f64> = updates.iter().map(|u| score(&u.state)).collect();
        let want = weighted_mean(&updates, &adaptive_weights(&mses));
        for threads in [1, 3] {
            let mut agg = RoundAccumulator::new();
            agg.begin(AggregationMode::Mean, &stream_cohort(&updates), 50, 1);
            agg.hold();
            for u in updates.iter().rev() {
                agg.offer(u.client_id, &u.state).unwrap();
            }
            assert_eq!(agg.folded_count(), 0);
            crate::pool::install(Some(threads), || {
                agg.reweight_adaptive(|held| {
                    crate::pool::for_each_slot(held, |_, (state, mse)| *mse = score(state))
                })
            });
            let got = agg.finish().unwrap();
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads {threads}"
            );
            assert_eq!(agg.peak_resident(), 4);
        }
    }

    fn stream_cohort(updates: &[ClientUpdate]) -> Vec<(usize, f64)> {
        updates
            .iter()
            .map(|u| (u.client_id, u.num_samples.max(1) as f64))
            .collect()
    }

    #[test]
    fn streaming_mean_matches_weighted_mean_in_any_order() {
        let updates: Vec<ClientUpdate> = (0..5)
            .map(|i| {
                upd(
                    i * 2, // non-contiguous ids
                    (0..300)
                        .map(|j| ((i * 37 + j) as f32 * 0.13).sin())
                        .collect(),
                    10 + i,
                )
            })
            .collect();
        let weights: Vec<f64> = updates
            .iter()
            .map(|u| u.num_samples.max(1) as f64)
            .collect();
        let want = weighted_mean(&updates, &weights);
        for order in [
            vec![0, 1, 2, 3, 4],
            vec![4, 3, 2, 1, 0],
            vec![2, 0, 4, 1, 3],
        ] {
            let mut agg = StreamingMean::new();
            agg.begin(&stream_cohort(&updates), 300, usize::MAX);
            for &i in &order {
                agg.offer(updates[i].client_id, &updates[i].state).unwrap();
            }
            assert!(agg.is_complete());
            let got = agg.finish().unwrap();
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "order {order:?} diverged"
            );
        }
    }

    #[test]
    fn streaming_mean_reuses_buffers_across_rounds() {
        let updates = vec![upd(0, vec![1.0, 3.0], 1), upd(1, vec![3.0, 5.0], 1)];
        let mut agg = StreamingMean::new();
        for _ in 0..3 {
            agg.begin(&stream_cohort(&updates), 2, usize::MAX);
            agg.offer(1, &updates[1].state).unwrap(); // parked
            assert_eq!(agg.folded_count(), 0);
            agg.offer(0, &updates[0].state).unwrap(); // folds both
            assert_eq!(agg.peak_resident(), 2);
            assert_eq!(agg.finish().unwrap(), vec![2.0, 4.0]);
        }
    }

    #[test]
    fn streaming_mean_rejections_are_typed() {
        let mut agg = StreamingMean::new();
        agg.begin(&[(0, 1.0), (2, 1.0), (3, 1.0)], 2, 1);
        assert_eq!(
            agg.offer(1, &[0.0, 0.0]),
            Err(AggregateError::UnknownClient { client_id: 1 })
        );
        assert_eq!(
            agg.offer(0, &[0.0]),
            Err(AggregateError::StateLenMismatch {
                client_id: 0,
                got: 1,
                want: 2
            })
        );
        assert_eq!(
            agg.offer(0, &[f32::NAN, 0.0]),
            Err(AggregateError::Diverged { client_id: 0 })
        );
        agg.offer(2, &[1.0, 1.0]).unwrap(); // parked (window = 1)
        assert_eq!(
            agg.offer(3, &[1.0, 1.0]),
            Err(AggregateError::WindowExceeded {
                limit: 1,
                client_id: 3
            })
        );
        assert_eq!(
            agg.offer(2, &[1.0, 1.0]),
            Err(AggregateError::DuplicateUpdate { client_id: 2 })
        );
        assert_eq!(agg.finish(), Err(AggregateError::Incomplete { missing: 3 }));
        agg.offer(0, &[1.0, 1.0]).unwrap(); // folds 0, drains parked 2
        assert_eq!(agg.folded_count(), 2);
        agg.offer(3, &[1.0, 1.0]).unwrap();
        assert!(agg.is_complete());
        assert_eq!(agg.finish().unwrap(), vec![1.0, 1.0]);
    }
}

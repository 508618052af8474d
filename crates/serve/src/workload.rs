//! Seeded synthetic serving workloads.
//!
//! A [`Workload`] is a list of [`Request`]s sorted by arrival time;
//! [`poisson`] draws one from a [`WorkloadSpec`] with exponential
//! inter-arrival gaps and uniformly mixed prompt/decode lengths, fully
//! determined by the seed. The property tests additionally use
//! [`shrink_workload`] to minimise failing workloads.

use partir_prng::Rng;

/// One inference request: a tokenised prompt plus a decode budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Stable identifier (unique within a workload).
    pub id: u64,
    /// Arrival time, microseconds from workload start.
    pub arrival_us: u64,
    /// Prompt token ids (at least one — the serving semantics read the
    /// last prompt token as the first decode input).
    pub prompt: Vec<i32>,
    /// Tokens to generate (at least one).
    pub decode_steps: usize,
}

impl Request {
    /// Cache positions this request occupies: `prompt + decode`.
    pub fn seq_len(&self) -> usize {
        self.prompt.len() + self.decode_steps
    }
}

/// A batch of requests, sorted by `(arrival_us, id)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Requests in arrival order.
    pub requests: Vec<Request>,
}

impl Workload {
    /// Sorts `requests` into arrival order.
    pub fn new(mut requests: Vec<Request>) -> Self {
        requests.sort_by_key(|r| (r.arrival_us, r.id));
        Workload { requests }
    }

    /// The longest `prompt + decode` over all requests — must fit the
    /// model's `max_seq`.
    pub fn max_seq_len(&self) -> usize {
        self.requests
            .iter()
            .map(Request::seq_len)
            .max()
            .unwrap_or(0)
    }
}

/// Parameters of a [`poisson`] workload draw.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of requests.
    pub requests: usize,
    /// Mean exponential inter-arrival gap, microseconds.
    pub mean_interarrival_us: f64,
    /// Inclusive prompt-length range (min ≥ 1).
    pub prompt_len: (usize, usize),
    /// Inclusive decode-length range (min ≥ 1).
    pub decode_len: (usize, usize),
    /// Prompt tokens are drawn uniformly from `[0, vocab)`.
    pub vocab: usize,
}

/// Draws a seeded Poisson-arrival workload: exponential inter-arrival
/// gaps of the given mean, prompt/decode lengths uniform in their
/// ranges, prompt tokens uniform over the vocabulary.
pub fn poisson(spec: &WorkloadSpec, seed: u64) -> Workload {
    assert!(spec.prompt_len.0 >= 1, "prompts need at least one token");
    assert!(spec.decode_len.0 >= 1, "decode needs at least one step");
    let mut rng = Rng::seed_from_u64(seed);
    let mut now = 0.0f64;
    let requests = (0..spec.requests as u64)
        .map(|id| {
            now += -(1.0 - rng.next_f64()).ln() * spec.mean_interarrival_us;
            let plen = rng.gen_range_in(spec.prompt_len.0, spec.prompt_len.1 + 1);
            let prompt = (0..plen)
                .map(|_| rng.gen_range(spec.vocab) as i32)
                .collect();
            Request {
                id,
                arrival_us: now as u64,
                prompt,
                decode_steps: rng.gen_range_in(spec.decode_len.0, spec.decode_len.1 + 1),
            }
        })
        .collect();
    Workload::new(requests)
}

/// Shrink candidates for a failing workload, for
/// [`partir_prng::propcheck::check_shrink`]: drop one request, shave one
/// decode step, or truncate one prompt to a single token. Every
/// candidate is strictly smaller, so greedy minimisation terminates.
pub fn shrink_workload(w: &Workload) -> Vec<Workload> {
    let mut out = Vec::new();
    for i in 0..w.requests.len() {
        let mut c = w.clone();
        c.requests.remove(i);
        out.push(c);
    }
    for i in 0..w.requests.len() {
        if w.requests[i].decode_steps > 1 {
            let mut c = w.clone();
            c.requests[i].decode_steps -= 1;
            out.push(c);
        }
        if w.requests[i].prompt.len() > 1 {
            let mut c = w.clone();
            c.requests[i].prompt.truncate(1);
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            requests: 32,
            mean_interarrival_us: 500.0,
            prompt_len: (1, 4),
            decode_len: (1, 6),
            vocab: 16,
        }
    }

    #[test]
    fn poisson_is_deterministic_and_in_spec() {
        let w = poisson(&spec(), 7);
        assert_eq!(w, poisson(&spec(), 7));
        assert_ne!(w, poisson(&spec(), 8));
        assert_eq!(w.requests.len(), 32);
        let mut prev = 0;
        for r in &w.requests {
            assert!(r.arrival_us >= prev, "sorted by arrival");
            prev = r.arrival_us;
            assert!((1..=4).contains(&r.prompt.len()));
            assert!((1..=6).contains(&r.decode_steps));
            assert!(r.prompt.iter().all(|&t| (0..16).contains(&t)));
        }
        assert!(w.max_seq_len() <= 10);
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller() {
        let w = poisson(&spec(), 3);
        let size = |w: &Workload| {
            w.requests
                .iter()
                .map(|r| r.prompt.len() + r.decode_steps)
                .sum::<usize>()
        };
        let candidates = shrink_workload(&w);
        assert!(!candidates.is_empty());
        for c in &candidates {
            assert!(size(c) < size(&w));
        }
    }
}

//! Workload inputs: the paper-scale model configuration, the seeded Weibo
//! cascade corpus, and the request payloads, ordered by the workload seed.

use std::fmt::Write as _;

use cascn::{CascnConfig, TaskKind};
use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
use cascn_cascades::{Cascade, Dataset};

/// Observation window, seconds.
pub const WINDOW: f64 = 3600.0;
/// Cascades observed with fewer adopters are dropped.
pub const MIN_SIZE: usize = 5;
/// The Weibo generator's user universe, and so the next-user vocabulary.
pub const VOCAB_USERS: usize = 5_000;
/// Adopters a cascade contributes to the model input.
pub const MAX_NODES: usize = 100;
/// `k` of every `/predict_next`.
pub const TOP_K: usize = 10;

/// Paper-scale CasCN: K = 2, hidden 32, max_nodes 100, max_steps 20, with
/// the library's default initialisation seed for every workload seed.
pub fn model_config(threads: usize, task: TaskKind) -> CascnConfig {
    CascnConfig {
        k: 2,
        hidden: 32,
        mlp_hidden: 32,
        max_nodes: MAX_NODES,
        max_steps: 20,
        threads,
        task,
        vocab_users: if task == TaskKind::NextUser {
            VOCAB_USERS
        } else {
            0
        },
        ..CascnConfig::default()
    }
}

/// `cascn-serve` flags for the same configuration: one worker, no fan-out.
pub fn server_args(model: &str, task: TaskKind) -> Vec<String> {
    let mut args: Vec<String> = [
        "--model",
        model,
        "--addr",
        "127.0.0.1:0",
        "--window",
        "3600",
        "--hidden",
        "32",
        "--max-nodes",
        "100",
        "--max-steps",
        "20",
        "--threads",
        "1",
        "--workers",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if task == TaskKind::NextUser {
        args.extend(
            ["--task", "next-user", "--vocab-users"]
                .iter()
                .map(|s| s.to_string()),
        );
        args.push(VOCAB_USERS.to_string());
    }
    args
}

/// Generator seed of the cascade corpus — `cascn generate`'s default. The
/// corpus is the same for every workload seed: a per-seed generator run
/// redraws the synthetic users' influence, which alone moved `serve_cold`
/// throughput between 66/s and 89/s across five seeds (2-vCPU x86-64 VM).
/// The workload seed
/// orders the requests, interleaves the streams and shuffles the training
/// batches.
pub const CORPUS_SEED: u64 = 2019;

/// `n` generated Weibo cascades (unfiltered, publication-time order).
pub fn weibo(n: usize, seed: u64) -> Dataset {
    WeiboGenerator::new(WeiboConfig {
        num_cascades: n,
        seed,
        ..WeiboConfig::default()
    })
    .generate()
}

/// Cascades whose observed size reaches [`MIN_SIZE`].
pub fn kept(dataset: &Dataset) -> Vec<Cascade> {
    dataset
        .filter_observed_size(WINDOW, MIN_SIZE, usize::MAX)
        .cascades
}

/// The kept cascades of an `n`-cascade corpus.
pub fn corpus(n: usize) -> Vec<Cascade> {
    kept(&weibo(n, CORPUS_SEED))
}

/// `items` in a seeded order (Fisher–Yates).
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut mix = Mix::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, mix.below(i + 1));
    }
    items
}

/// The first `len` events of a cascade as a cascade of its own.
pub fn prefix(c: &Cascade, len: usize) -> Cascade {
    Cascade::new(c.id, c.start_time, c.events[..len].to_vec())
}

/// Added to a cascade's id each time its content is sent again, so a
/// re-sent cascade is a new one to the server.
pub const REID_STRIDE: u64 = 10_000_000;

/// A cascade in the `cascn generate` text format under id `id`, events
/// `from..` only (`from = 0` is a full `/predict` body; later starts are
/// `/observe` suffixes whose parent indices refer to the full cascade).
pub fn body(c: &Cascade, id: u64, from: usize) -> String {
    let mut out = String::with_capacity(32 * (c.events.len() - from + 1));
    let _ = writeln!(out, "cascade {id} {}", c.start_time);
    for e in &c.events[from..] {
        match e.parent {
            Some(p) => {
                let _ = writeln!(out, "event {} {} {}", e.user, p, e.time);
            }
            None => {
                let _ = writeln!(out, "event {} - {}", e.user, e.time);
            }
        }
    }
    out
}

/// Deterministic SplitMix64 stream for choices the generator does not make.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One step of the streaming replay: `/observe` with `events[from..to]` of
/// live cascade `source` under id `id`, then `/predict_next` on
/// `events[..to]`.
#[derive(Debug, Clone)]
pub struct Step {
    pub id: u64,
    pub source: usize,
    pub from: usize,
    pub to: usize,
}

/// Whole passes over the live cascades' in-window events, one event per
/// step, each cascade up to the model's `max_nodes` adopters: later ones
/// fall outside the truncated model input and would repeat the costliest
/// step unchanged. A pass sends every such event once, the cascades
/// interleaved in a seeded order (each keeps its own event order), so every
/// pass does the same work whatever the seed. Each pass re-identifies the
/// cascades, so each starts again from its root as a new live cascade.
pub struct StreamPlan {
    pub cascades: Vec<Cascade>,
    order: Vec<usize>,
    sent: Vec<usize>,
    at: usize,
    pass: u64,
}

impl StreamPlan {
    pub fn new(live: &[Cascade], seed: u64) -> Self {
        let cascades: Vec<Cascade> = live
            .iter()
            .map(|c| prefix(c, c.observed_size(WINDOW).min(MAX_NODES)))
            .collect();
        let order = cascades
            .iter()
            .enumerate()
            .flat_map(|(i, c)| std::iter::repeat_n(i, c.events.len()))
            .collect();
        Self {
            sent: vec![0; cascades.len()],
            cascades,
            order: shuffled(order, seed),
            at: 0,
            pass: 0,
        }
    }

    /// Steps in one pass: the live cascades' in-window events.
    pub fn pass_len(&self) -> usize {
        self.order.len()
    }

    pub fn step(&mut self) -> Step {
        if self.at == self.order.len() {
            self.at = 0;
            self.pass += 1;
            self.sent.iter_mut().for_each(|n| *n = 0);
        }
        let source = self.order[self.at];
        self.at += 1;
        let from = self.sent[source];
        self.sent[source] += 1;
        let id = self.cascades[source].id + self.pass * REID_STRIDE;
        Step {
            id,
            source,
            from,
            to: from + 1,
        }
    }

    /// The cascade content the server holds after `step`.
    pub fn content(&self, step: &Step) -> Cascade {
        let c = &self.cascades[step.source];
        Cascade::new(step.id, c.start_time, c.events[..step.to].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_round_trips_through_the_server_parser() {
        let c = corpus(200).swap_remove(0);
        let parsed =
            cascn_cascades::stream::parse_cascades(&body(&c, c.id, 0), Default::default()).unwrap();
        assert_eq!(parsed, vec![c]);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled((0..50).collect::<Vec<u32>>(), 1);
        assert_eq!(a, shuffled((0..50).collect::<Vec<u32>>(), 1));
        assert_ne!(a, shuffled((0..50).collect::<Vec<u32>>(), 2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn a_stream_pass_sends_every_in_window_event_once() {
        let live: Vec<Cascade> = corpus(300).into_iter().take(3).collect();
        let mut plan = StreamPlan::new(&live, 9);
        let n = plan.pass_len();
        let len = |c: &Cascade| c.observed_size(WINDOW).min(MAX_NODES);
        assert_eq!(n, live.iter().map(len).sum::<usize>());
        let first: Vec<Step> = (0..n).map(|_| plan.step()).collect();
        for (i, c) in live.iter().enumerate() {
            let mine: Vec<&Step> = first.iter().filter(|s| s.source == i).collect();
            assert_eq!(mine.len(), len(c));
            assert!(mine
                .iter()
                .enumerate()
                .all(|(k, s)| s.from == k && s.to == k + 1 && s.id == c.id));
        }
        let again = plan.step();
        assert_eq!(
            (again.from, again.id),
            (0, live[again.source].id + REID_STRIDE)
        );
        assert_eq!(plan.content(&again).events.len(), 1);
    }
}

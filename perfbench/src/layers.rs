//! Per-layer replays: the exact request bytes of a run pushed through the
//! same public functions the server calls, one span per call, in process.

use std::io::BufReader;

use cascn::{preprocess_with_basis, spectral_basis, CascnConfig, CascnModel, PreprocessedCascade};
use cascn_autograd::Tape;
use cascn_cascades::stream::{parse_cascades, parse_observe_body, StreamLimits};
use cascn_cascades::Cascade;
use cascn_graph::{laplacian, DiGraph, SpectralBasis};
use cascn_nn::ChebOperands;
use cascn_serve::http::{read_request, write_response};
use cascn_serve::LiveRegistry;
use cascn_tensor::Matrix;

use crate::data::{TOP_K, WINDOW};
use crate::stats::Dist;
use crate::trace::Tracer;
use crate::Report;

/// The server's default body cap.
const MAX_BODY: usize = 1 << 20;

pub struct Replay<'a> {
    pub tracer: Tracer,
    model: &'a CascnModel,
    cfg: CascnConfig,
    limits: StreamLimits,
    phi_rounds: Vec<f64>,
    phi_converged: usize,
    tape_nodes: Vec<f64>,
}

impl<'a> Replay<'a> {
    pub fn new(model: &'a CascnModel) -> Self {
        Self {
            tracer: Tracer::new(),
            model,
            cfg: *model.config(),
            limits: StreamLimits::default(),
            phi_rounds: Vec::new(),
            phi_converged: 0,
            tape_nodes: Vec::new(),
        }
    }

    fn read(&mut self, name: &'static str, req: u64, raw: &[u8]) -> String {
        let parsed = self.tracer.span(name, req, || {
            read_request(&mut BufReader::new(raw), MAX_BODY)
        });
        let body = parsed.map(|r| r.body).unwrap_or_default();
        String::from_utf8(body).unwrap_or_default()
    }

    fn write(&mut self, name: &'static str, req: u64, response: &str) {
        let mut sink: Vec<u8> = Vec::with_capacity(response.len() + 128);
        let _ = self.tracer.span(name, req, || {
            write_response(&mut sink, 200, "OK", &[], response, true)
        });
    }

    /// `POST /predict` on a cache miss: parse, spectral basis, assembly,
    /// forward, serialize. Returns the parsed cascade and its basis.
    pub fn predict(
        &mut self,
        req: u64,
        raw: &[u8],
        response: &str,
    ) -> Option<(Cascade, SpectralBasis)> {
        let root = self.tracer.open("request.predict", req);
        let text = self.read("serve.http.read", req, raw);
        let limits = self.limits;
        let parsed = self
            .tracer
            .span("cascades.parse", req, || parse_cascades(&text, limits));
        let cascade = parsed.ok()?.into_iter().next()?;
        let cfg = self.cfg;
        let basis = self.tracer.span("graph.spectral", req, || {
            spectral_basis(&cascade, WINDOW, &cfg)
        });
        let sample = self.tracer.span("core.input.assemble", req, || {
            preprocess_with_basis(&cascade, WINDOW, &cfg, &basis)
        });
        let model = self.model;
        let _ = self
            .tracer
            .span("model.predict", req, || model.predict_log_sample(&sample));
        self.write("serve.http.write", req, response);
        self.tracer.close(root);
        Some((cascade, basis))
    }

    /// `POST /observe`: parse the suffix, advance the live registry.
    pub fn observe(
        &mut self,
        req: u64,
        raw: &[u8],
        response: &str,
        live: &LiveRegistry,
    ) -> Option<SpectralBasis> {
        let root = self.tracer.open("request.observe", req);
        let text = self.read("serve.http.read_observe", req, raw);
        let limits = self.limits;
        let parsed = self.tracer.span("cascades.parse_observe", req, || {
            parse_observe_body(&text, limits)
        });
        let body = parsed.ok()?;
        let cfg = self.cfg;
        let out = self.tracer.span("serve.live.observe", req, || {
            live.observe(&body, WINDOW, &cfg)
        });
        self.write("serve.http.write_observe", req, response);
        self.tracer.close(root);
        out.ok().map(|o| o.basis)
    }

    /// `POST /predict_next` on a cache hit: parse, assembly around the
    /// basis `/observe` left behind, forward + masked softmax, serialize.
    pub fn predict_next(
        &mut self,
        req: u64,
        raw: &[u8],
        response: &str,
        basis: &SpectralBasis,
    ) -> Option<()> {
        let root = self.tracer.open("request.predict_next", req);
        let text = self.read("serve.http.read", req, raw);
        let limits = self.limits;
        let parsed = self
            .tracer
            .span("cascades.parse", req, || parse_cascades(&text, limits));
        let cascade = parsed.ok()?.into_iter().next()?;
        let cfg = self.cfg;
        let sample = self.tracer.span("core.input.assemble", req, || {
            preprocess_with_basis(&cascade, WINDOW, &cfg, basis)
        });
        let model = self.model;
        let _ = self.tracer.span("model.predict_next", req, || {
            let observed: Vec<u64> = cascade.observe(WINDOW).users();
            model.predict_next_sample(&sample, &observed, TOP_K)
        });
        self.write("serve.http.write", req, response);
        self.tracer.close(root);
        Some(())
    }

    /// Layer probes outside the request path: the φ power iteration on the
    /// observed, truncated graph, one ChebConv stack, and the tape size of
    /// one forward pass. Cold spectral work is timed here unless the request
    /// path already did it (`basis`); `forward` also times a size forward
    /// pass for workloads whose requests never make one.
    pub fn probe(
        &mut self,
        req: u64,
        cascade: &Cascade,
        basis: Option<SpectralBasis>,
        forward: bool,
    ) {
        let cfg = self.cfg;
        let basis = match basis {
            Some(b) => b,
            None => self.tracer.span("graph.spectral.cold", req, || {
                spectral_basis(cascade, WINDOW, &cfg)
            }),
        };
        let g = observed_graph(cascade, &cfg);
        let phi = self.tracer.span("graph.phi", req, || {
            laplacian::stationary_distribution_checked(&laplacian::transition_matrix(&g, cfg.alpha))
        });
        self.phi_rounds.push(phi.iterations as f64);
        self.phi_converged += usize::from(phi.converged);
        let sample = preprocess_with_basis(cascade, WINDOW, &cfg, &basis);
        self.conv_stack(req, &sample);
        let model = self.model;
        if forward {
            let _ = self
                .tracer
                .span("model.predict", req, || model.predict_log_sample(&sample));
        }
        let mut tape = Tape::new();
        let _ = model.forward(&mut tape, model.params(), &sample);
        self.tape_nodes.push(tape.len() as f64);
    }

    fn conv_stack(&mut self, req: u64, sample: &PreprocessedCascade) {
        let hidden = self.cfg.hidden;
        let x = Matrix::from_fn(sample.n, hidden, |r, c| {
            ((r * 31 + c * 17) % 13) as f32 / 13.0 - 0.5
        });
        let mut tape = Tape::new();
        let x = tape.constant(x);
        let operands = ChebOperands::sparse(&sample.basis);
        let _ = self
            .tracer
            .span("nn.conv_stack", req, || operands.conv_stack(&mut tape, x));
    }

    fn dist(&self, name: &str) -> Dist {
        Dist::new(self.tracer.durations_us(name))
    }

    /// Per-request sums of two spans that bracket one request (the HTTP
    /// read at its start and the write at its end).
    fn paired(&self, a: &str, b: &str) -> Dist {
        let (a, b) = (self.tracer.durations_us(a), self.tracer.durations_us(b));
        Dist::new(a.iter().zip(&b).map(|(x, y)| x + y).collect())
    }

    /// Per request replayed under `root`: the client-side latency of the
    /// same request (`client_ms`, indexed by request id) minus the in-process
    /// time of its calls. What is left is the socket, the worker → executor
    /// hand-off and the slot wake-up.
    fn overhead(&self, root: &str, client_ms: &[f64]) -> Dist {
        Dist::new(
            self.tracer
                .spans()
                .iter()
                .filter(|s| s.name == root)
                .filter_map(|s| {
                    let client = client_ms.get(usize::try_from(s.request).ok()?)?;
                    Some(client * 1e3 - s.dur_ns() as f64 / 1e3)
                })
                .collect(),
        )
    }

    /// Reports the layers the replay entered. `client_ms` and
    /// `client_observe_ms` are the client-side latencies of the replayed
    /// requests by request id (empty when the workload sends none).
    pub fn report(&self, out: &mut Report, client_ms: &[f64], client_observe_ms: &[f64]) {
        let parse = self.dist("cascades.parse");
        let http = self.paired("serve.http.read", "serve.http.write");
        let assemble = self.dist("core.input.assemble");
        out.metric("cascades.parse_us", parse.median(), parse.count());
        out.metric("serve.http_us", http.median(), http.count());
        out.metric(
            "core.input.assemble_us",
            assemble.median(),
            assemble.count(),
        );

        let predict = self.dist("model.predict");
        let next = self.dist("model.predict_next");
        out.metric("model.predict_us_p50", predict.median(), predict.count());
        out.metric("model.predict_us_p99", predict.p(0.99), predict.count());
        if next.count() > 0 {
            out.metric("model.predict_next_us_p50", next.median(), next.count());
            out.metric("model.predict_next_us_p99", next.p(0.99), next.count());
        }
        if !client_ms.is_empty() {
            let root = if next.count() > 0 {
                "request.predict_next"
            } else {
                "request.predict"
            };
            let overhead = self.overhead(root, client_ms);
            out.metric("serve.overhead_us", overhead.median(), overhead.count());
        }

        let observe = self.dist("serve.live.observe");
        if observe.count() > 0 {
            let parse_obs = self.dist("cascades.parse_observe");
            out.metric(
                "cascades.parse_observe_us",
                parse_obs.median(),
                parse_obs.count(),
            );
            out.metric(
                "serve.live.observe_us_p50",
                observe.median(),
                observe.count(),
            );
            out.metric(
                "serve.live.observe_us_p99",
                observe.p(0.99),
                observe.count(),
            );
            if !client_observe_ms.is_empty() {
                let overhead = self.overhead("request.observe", client_observe_ms);
                out.metric(
                    "serve.overhead_observe_us",
                    overhead.median(),
                    overhead.count(),
                );
            }
        }

        // Spectral work is on the request path only on a cache miss.
        let on_path = self.dist("graph.spectral");
        let cold = if on_path.count() > 0 {
            on_path
        } else {
            self.dist("graph.spectral.cold")
        };
        out.metric("graph.spectral_us_p50", cold.median(), cold.count());
        out.metric("graph.spectral_us_p99", cold.p(0.99), cold.count());
        let rounds = Dist::new(self.phi_rounds.clone());
        out.metric("graph.phi_rounds_mean", rounds.mean(), rounds.count());
        out.metric(
            "graph.phi_converged_share",
            self.phi_converged as f64 / rounds.count().max(1) as f64,
            rounds.count(),
        );
        let conv = self.dist("nn.conv_stack");
        out.metric("nn.conv_stack_us", conv.median(), conv.count());
        let nodes = Dist::new(self.tape_nodes.clone());
        out.metric("autograd.tape_nodes", nodes.mean(), nodes.count());
    }
}

/// The graph `spectral_basis` builds: the first `min(observed, max_nodes)`
/// adopters, edges into truncated nodes dropped.
fn observed_graph(cascade: &Cascade, cfg: &CascnConfig) -> DiGraph {
    let observed = cascade.observe(WINDOW);
    let n = observed.num_nodes().min(cfg.max_nodes);
    let mut g = DiGraph::new(n);
    for (i, e) in observed.events().iter().enumerate().take(n).skip(1) {
        if let Some(p) = e.parent.filter(|&p| p < n) {
            g.add_edge(p, i, 1.0);
        }
    }
    g
}

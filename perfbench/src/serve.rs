//! The serving workload, `serve`, and the serving half of the per-layer
//! ledger.
//!
//! Every request goes over loopback to a `ShieldServer::with_workers(2)`
//! behind an `HttpFrontend`, as a `VRLW` binary frame, and every response
//! is decoded and compared bit for bit with the in-process reference
//! `Shield::decide(s, oracle.action(s))`.

use crate::ledger::{self, Metrics, Snapshot};
use crate::stats::{self, Summary};
use crate::wire::PollClient;
use crate::Outcome;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vrl::dynamics::Policy;
use vrl::nn::MlpScratch;
use vrl::shield::{ShieldDecision, TableConfig};
use vrl_benchmarks::benchmark_by_name;
use vrl_obs::SpanRecord;
use vrl_runtime::http::{HttpConfig, HttpFrontend, MiniClient, ShieldBackend};
use vrl_runtime::{fixtures, frame, ShieldArtifact, ShieldServer, StateArena};

/// Worker threads of every server the benchmark starts (the machine the
/// workloads were sized on has two cores).
pub const WORKERS: usize = 2;
/// Offered rate of the traced single-state open loop, requests per second.
pub const SINGLE_RATE: f64 = 1_000.0;
/// States per batch request.
pub const BATCH: usize = 512;
/// Interval between the redeploys beside the batch traffic.
pub const REDEPLOY_PERIOD: Duration = Duration::from_millis(500);
/// Stand-ups per set-up round; a run makes one round before its traffic
/// and one after each of its [`SLICES`] slices but the last.
const SETUP_REPS: usize = 5;
/// Distinct states each serving run cycles through.
const POOL: usize = 4_096;
/// Back-to-back checked requests before any timing, to warm the connection
/// thread and the per-thread scratch buffers.
const WARMUP: Duration = Duration::from_millis(200);

/// The deployment `serve` drives: the pendulum demo shield
/// with the paper-sized `[240, 200]` oracle and a 64 × 64 decision table.
pub fn pendulum_artifact() -> ShieldArtifact {
    let spec = benchmark_by_name("pendulum").expect("pendulum is a catalogue benchmark");
    fixtures::demo_artifact(
        spec.env(),
        &fixtures::PENDULUM_GAINS,
        &fixtures::PENDULUM_RADII,
        spec.hidden_layers(),
        17,
    )
    .expect("the demo oracle is sized for the pendulum")
    .with_table_config(TableConfig::uniform(64))
    .expect("the pendulum table builds")
}

/// A running server, its front-end, and one client connection to it.
pub struct Stand {
    /// The deployment's name.
    pub name: String,
    /// The served artifact.
    pub artifact: ShieldArtifact,
    /// Its canonical bytes (the body of every `PUT`).
    pub bytes: Vec<u8>,
    /// The in-process server.
    pub server: Arc<ShieldServer>,
    /// The front-end's bound address.
    pub addr: SocketAddr,
    /// The decide connection.
    pub client: MiniClient,
    frontend: HttpFrontend,
}

impl Stand {
    /// Deploys `artifact` under `name`, binds a loopback front-end, connects
    /// and serves one request.
    pub fn up(name: &str, artifact: ShieldArtifact) -> Stand {
        let bytes = artifact.to_bytes();
        let server = Arc::new(ShieldServer::with_workers(WORKERS));
        server
            .deploy(name, artifact.clone())
            .expect("a fresh server takes the deployment");
        let frontend = HttpFrontend::bind(
            "127.0.0.1:0",
            Arc::clone(&server) as Arc<dyn ShieldBackend>,
            HttpConfig::default(),
        )
        .expect("loopback bind succeeds");
        let addr = frontend.local_addr();
        let mut client = MiniClient::connect(addr).expect("loopback connect succeeds");
        let state = artifact.shield().env().init().center();
        let body = frame::encode_decide_request(std::slice::from_ref(&state), false);
        let mut out = Vec::new();
        let (status, _) = client
            .post_reusing(
                &decide_path(name),
                frame::CONTENT_TYPE_FRAME,
                &body,
                &mut out,
            )
            .expect("the first request is served");
        assert_eq!(status, 200, "the first request must succeed");
        Stand {
            name: name.to_string(),
            artifact,
            bytes,
            server,
            addr,
            client,
            frontend,
        }
    }

    /// The decide path of this stand's deployment.
    pub fn path(&self) -> String {
        decide_path(&self.name)
    }

    /// Closes the client and stops the front-end, waiting for its threads.
    pub fn down(self) {
        drop(self.client);
        self.frontend.shutdown();
    }
}

fn decide_path(name: &str) -> String {
    format!("/v1/deployments/{name}/decide")
}

/// Stands the pendulum deployment up [`SETUP_REPS`] times, pushing each
/// stand-up time onto `times`, and returns the last stand.  A run calls it
/// once before its traffic and once between slices, so the stand-ups sample
/// the whole run and `setup_s`, their median, does not rest on the host's
/// speed in one tenth of a second.
pub fn setup_pendulum(times: &mut Vec<f64>) -> Stand {
    let mut kept: Option<Stand> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            previous.down();
        }
        let start = Instant::now();
        let stand = Stand::up("pendulum", pendulum_artifact());
        times.push(start.elapsed().as_secs_f64());
        kept = Some(stand);
    }
    kept.expect("at least one set-up")
}

/// The states a run sends, their reference decisions, and their
/// single-state request frames.
pub struct Inputs {
    /// States drawn uniformly from the safe box.
    pub states: Vec<Vec<f64>>,
    /// `Shield::decide(s, oracle.action(s))` for each state.
    pub reference: Vec<ShieldDecision>,
    /// One single-state `VRLW` request frame per state.
    pub frames: Vec<Vec<u8>>,
}

impl Inputs {
    /// Draws [`POOL`] states for `artifact` from `seed`.
    pub fn draw(artifact: &ShieldArtifact, seed: u64) -> Inputs {
        let shield = artifact.shield();
        let safe = shield.env().safety().safe_box().clone();
        let mut rng = SmallRng::seed_from_u64(seed);
        let states: Vec<Vec<f64>> = (0..POOL).map(|_| safe.sample(&mut rng)).collect();
        let reference = states
            .iter()
            .map(|s| shield.decide(s, &artifact.oracle().action(s)))
            .collect();
        let frames = states
            .iter()
            .map(|s| frame::encode_decide_request(std::slice::from_ref(s), false))
            .collect();
        Inputs {
            states,
            reference,
            frames,
        }
    }
}

/// Bit-for-bit equality of two decisions.
fn same_decision(a: &ShieldDecision, b: &ShieldDecision) -> bool {
    a.intervened == b.intervened
        && a.action.len() == b.action.len()
        && a.action
            .iter()
            .zip(&b.action)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether a decide response carries exactly `expected`.
fn response_matches(
    result: std::io::Result<(u16, bool)>,
    body: &[u8],
    expected: &[ShieldDecision],
) -> bool {
    let Ok((200, true)) = result else {
        return false;
    };
    match frame::decode_decide_response(body) {
        Ok(decisions) => {
            decisions.len() == expected.len()
                && decisions
                    .iter()
                    .zip(expected)
                    .all(|(a, b)| same_decision(a, b))
        }
        Err(_) => false,
    }
}

/// Result of one open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Latency of each request from its due time, µs.
    pub latency_us: Vec<f64>,
    /// Round trip of each request from when it was sent, µs.
    pub rtt_us: Vec<f64>,
    /// Latest the generator sent any request, µs.
    pub lateness_max_us: f64,
    /// Most requests ever due but unsent.
    pub backlog_max: u64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose response was missing or differed from the reference.
    pub failed: u64,
}

/// How long before a request is due the generator stops sleeping and
/// spins.  A sleeping thread wakes up to ~0.1 ms late, and by a varying
/// amount, on a shared host; spinning the whole interval instead would
/// take a core from the server.  The server is idle while the generator
/// spins, since the connection carries one request at a time.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

/// Returns at `start + due`: sleeps until [`SPIN_WINDOW`] before, then
/// spins.  Returns at once when already late.
fn wait_until(start: Instant, due: Duration) {
    let now = start.elapsed();
    if now + SPIN_WINDOW < due {
        std::thread::sleep(due - SPIN_WINDOW - now);
    }
    while start.elapsed() < due {
        std::hint::spin_loop();
    }
}

/// Sends single-state requests on `stand`'s connection at `rate` per
/// second for `duration`, timing each request from its due time.
pub fn open_loop(stand: &mut Stand, inputs: &Inputs, rate: f64, duration: Duration) -> OpenLoop {
    let path = stand.path();
    let mut out = Vec::new();
    let mut run = OpenLoop::default();
    let start = Instant::now();
    for index in 0u64.. {
        let due = stats::due(index, rate);
        if due >= duration {
            break;
        }
        wait_until(start, due);
        let i = index as usize % inputs.states.len();
        let sent = start.elapsed();
        let result = stand.client.post_reusing(
            &path,
            frame::CONTENT_TYPE_FRAME,
            &inputs.frames[i],
            &mut out,
        );
        let done = start.elapsed();
        run.attempted += 1;
        if !response_matches(result, &out, std::slice::from_ref(&inputs.reference[i])) {
            run.failed += 1;
        }
        let timing = stats::account(index, rate, sent, done);
        run.latency_us.push(timing.latency.as_secs_f64() * 1e6);
        run.rtt_us.push((done - sent).as_secs_f64() * 1e6);
        run.lateness_max_us = run.lateness_max_us.max(timing.lateness.as_secs_f64() * 1e6);
        run.backlog_max = run.backlog_max.max(timing.backlog);
    }
    run
}

/// Window over which batch throughput is counted; runs report the median
/// window.
const RATE_WINDOW: f64 = 0.25;

/// Sends single-state requests one at a time on a fresh [`PollClient`] to
/// `stand` for `duration`; returns (round trip of each request in µs,
/// attempted, failed).  The client polls its socket instead of sleeping on
/// it, so a round trip waits for one wake-up of the server thread, not two.
pub fn single_round_trips(
    stand: &Stand,
    inputs: &Inputs,
    duration: Duration,
) -> (Vec<f64>, u64, u64) {
    let path = stand.path();
    let mut client = PollClient::connect(stand.addr).expect("loopback connect succeeds");
    let mut out = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rtt_us = Vec::new();
    let start = Instant::now();
    while start.elapsed() < duration {
        let i = attempted as usize % inputs.states.len();
        let sent = Instant::now();
        let result = client.post(
            &path,
            frame::CONTENT_TYPE_FRAME,
            &inputs.frames[i],
            &mut out,
        );
        rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
        attempted += 1;
        if !response_matches(result, &out, std::slice::from_ref(&inputs.reference[i])) {
            failed += 1;
        }
    }
    (rtt_us, attempted, failed)
}

/// Result of the batch reader of a batch phase.
#[derive(Debug, Default)]
pub struct BatchRun {
    /// Round trip of each batch request, ms.
    pub latency_ms: Vec<f64>,
    /// Decisions returned and checked.
    pub decisions: u64,
    /// Median decisions per second over [`RATE_WINDOW`] windows.
    pub rate: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose response differed from the reference.
    pub failed: u64,
}

/// Result of the redeploy writer of a batch phase.
#[derive(Debug, Default)]
pub struct WriterRun {
    /// Round trip of each `PUT`, ms.
    pub latency_ms: Vec<f64>,
    /// Latest the writer sent any `PUT`, µs.
    pub lateness_max_us: f64,
    /// Most `PUT`s ever due but unsent.
    pub backlog_max: u64,
    /// `PUT`s sent.
    pub attempted: u64,
    /// `PUT`s not answered 200 with the next generation.
    pub failed: u64,
}

/// Parses `"generation": N` out of a deploy response body.
fn parse_generation(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"generation\"")? + "\"generation\"".len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// `PUT`s the stand's artifact bytes on a connection of its own every
/// `period` for `duration`, checking each answer advances the generation
/// by exactly one.  Request ids are `put-<n>` so their spans can be told
/// from the decide traffic.
pub fn redeploy_loop(
    addr: SocketAddr,
    name: &str,
    bytes: &[u8],
    server: &ShieldServer,
    period: Duration,
    duration: Duration,
) -> WriterRun {
    let mut client = MiniClient::connect(addr).expect("loopback connect succeeds");
    let path = format!("/v1/deployments/{name}");
    let rate = 1.0 / period.as_secs_f64();
    let mut generation = server.generation(name).expect("deployed");
    let mut run = WriterRun::default();
    let start = Instant::now();
    for index in 0u64.. {
        let due = stats::due(index, rate) + period / 2;
        if due >= duration {
            break;
        }
        wait_until(start, due);
        let sent = start.elapsed();
        let request_id = format!("put-{index}");
        let response =
            client.request_with_headers("PUT", &path, bytes, &[("x-request-id", &request_id)]);
        let done = start.elapsed();
        run.attempted += 1;
        let advanced = response.as_ref().ok().and_then(|r| {
            (r.status == 200)
                .then(|| parse_generation(&r.text()))
                .flatten()
        });
        match advanced {
            Some(g) if g == generation + 1 => generation = g,
            _ => run.failed += 1,
        }
        let timing = stats::account(index, rate, sent.saturating_sub(period / 2), done);
        run.latency_ms.push((done - sent).as_secs_f64() * 1e3);
        run.lateness_max_us = run.lateness_max_us.max(timing.lateness.as_secs_f64() * 1e6);
        run.backlog_max = run.backlog_max.max(timing.backlog);
    }
    run
}

/// The batches of a batch phase: [`BATCH`]-state request frames
/// over consecutive slices of the input pool.
fn batch_frames(inputs: &Inputs) -> Vec<Vec<u8>> {
    inputs
        .states
        .chunks_exact(BATCH)
        .map(|chunk| frame::encode_decide_request(chunk, true))
        .collect()
}

/// Batch readers of a batch phase, each closed-loop on its own connection.
const READERS: usize = 2;

/// One closed-loop batch reader on a fresh connection for `duration`, from
/// `start`, beginning at batch `first`; returns the run and its
/// `(sent, done, decisions)` completions.
fn batch_reader(
    stand: &Stand,
    inputs: &Inputs,
    frames: &[Vec<u8>],
    first: usize,
    start: Instant,
    duration: Duration,
) -> (BatchRun, Vec<(f64, f64, f64)>) {
    let path = stand.path();
    let mut client = MiniClient::connect(stand.addr).expect("loopback connect succeeds");
    let mut run = BatchRun::default();
    let mut out = Vec::new();
    let mut completions = Vec::new();
    while start.elapsed() < duration {
        let b = (first + run.attempted as usize) % frames.len();
        let sent = start.elapsed().as_secs_f64();
        let result = client.post_reusing(&path, frame::CONTENT_TYPE_FRAME, &frames[b], &mut out);
        let done = start.elapsed().as_secs_f64();
        run.latency_ms.push((done - sent) * 1e3);
        run.attempted += 1;
        let expected = &inputs.reference[b * BATCH..(b + 1) * BATCH];
        if response_matches(result, &out, expected) {
            run.decisions += BATCH as u64;
            completions.push((sent, done, BATCH as f64));
        } else {
            run.failed += 1;
        }
    }
    (run, completions)
}

/// [`READERS`] closed-loop batch readers for `duration`, each on a fresh
/// connection, beside a redeploy writer on another.  With one request in
/// flight the server splits each batch into one chunk per worker and waits
/// for the slower; when the host slows one core, the other idles.  Two
/// requests in flight keep both workers fed.
pub fn batch_phase(stand: &Stand, inputs: &Inputs, duration: Duration) -> (BatchRun, WriterRun) {
    let frames = batch_frames(inputs);
    let server = Arc::clone(&stand.server);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            redeploy_loop(
                stand.addr,
                &stand.name,
                &stand.bytes,
                &server,
                REDEPLOY_PERIOD,
                duration,
            )
        });
        let frames = &frames;
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let first = r * frames.len() / READERS;
                scope.spawn(move || batch_reader(stand, inputs, frames, first, start, duration))
            })
            .collect();
        let mut run = BatchRun::default();
        let mut completions = Vec::new();
        for reader in readers {
            let (part, done) = reader.join().expect("batch reader panicked");
            run.latency_ms.extend(part.latency_ms);
            run.decisions += part.decisions;
            run.attempted += part.attempted;
            run.failed += part.failed;
            completions.extend(done);
        }
        run.rate = stats::windowed_rate(&completions, RATE_WINDOW);
        (run, writer.join().expect("redeploy writer panicked"))
    })
}

fn latency_note(label: &str, unit: &str, s: &Summary) -> String {
    let tail = match s.tail {
        Some((p, v)) => format!("highest percentile with ten samples beyond: p{p} {v:.3}"),
        None => "too few samples for a tail percentile".to_string(),
    };
    format!(
        "{label}: n={} p50 {:.3} p90 {:.3} p99 {:.3} mean {:.3} {unit}; {tail}",
        s.count, s.p50, s.p90, s.p99, s.mean
    )
}

/// Slices of a `serve` run.  Slices sample the whole run alike, so a
/// slower stretch of a shared host moves some slices, not the median slice;
/// a set-up round runs between slices.
const SLICES: usize = 20;

/// Share of each slice spent on single-state requests; batches take the
/// rest.
const SINGLE_SHARE: f64 = 0.4;

/// `serve`: [`SLICES`] slices, each first single-state requests one at a
/// time (their round trip is the latency), then closed-loop 512-state
/// batches on one connection while a second connection redeploys the same
/// artifact bytes every 0.5 s (the batch throughput).  Latency is the
/// median slice's median round trip, throughput the median slice's median
/// window.
pub fn serve(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setup = Vec::new();
    let mut stand = setup_pendulum(&mut setup);
    let inputs = Inputs::draw(&stand.artifact, seed);
    let (_, attempted, failed) = single_round_trips(&stand, &inputs, WARMUP);
    let mut out = Outcome::new(attempted, failed);
    if trace {
        let phase = Duration::from_secs_f64(seconds / 4.0);
        single_ledger(&mut out, &mut stand, &inputs, phase);
        batch_ledger(&mut out, &stand, &inputs, phase);
        crate::synth::quadcopter_replay(&mut out);
        stand.down();
        return out;
    }
    let slice = seconds / SLICES as f64;
    let mut rtt_us = Vec::new();
    let mut slice_p50_us = Vec::with_capacity(SLICES);
    let mut batch_ms = Vec::new();
    let mut put_ms = Vec::new();
    let mut rates = Vec::with_capacity(SLICES);
    let mut decisions = 0;
    for k in 0..SLICES {
        if k > 0 {
            setup_pendulum(&mut setup).down();
        }
        let single = Duration::from_secs_f64(slice * SINGLE_SHARE);
        let (rtt, attempted, failed) = single_round_trips(&stand, &inputs, single);
        out.count(attempted, failed);
        slice_p50_us.push(stats::median(&rtt));
        rtt_us.extend(rtt);
        let batch = Duration::from_secs_f64(slice * (1.0 - SINGLE_SHARE));
        let (run, writer) = batch_phase(&stand, &inputs, batch);
        out.count(run.attempted, run.failed);
        out.count(writer.attempted, writer.failed);
        batch_ms.extend(run.latency_ms);
        put_ms.extend(writer.latency_ms);
        rates.push(run.rate);
        decisions += run.decisions;
    }
    stand.down();
    let p50_us = stats::median(&slice_p50_us);
    let rate = stats::median(&rates);
    out.note(latency_note(
        "single-state round trip, one request in flight",
        "us",
        &stats::summarize(&rtt_us),
    ));
    out.note(format!(
        "median slice p50 {p50_us:.1} us; batches: {rate:.0} decisions/s, median of {SLICES} slices, {decisions} decisions checked bit for bit"
    ));
    out.note(latency_note(
        "512-state batch latency",
        "ms",
        &stats::summarize(&batch_ms),
    ));
    if !put_ms.is_empty() {
        out.note(latency_note(
            "redeploy (PUT) latency",
            "ms",
            &stats::summarize(&put_ms),
        ));
    }
    out.note(format!(
        "{} stand-ups, median {:.6} s",
        setup.len(),
        stats::median(&setup)
    ));
    let m = &mut out.metrics;
    m.put("setup_s", stats::median(&setup), "s");
    m.put("ops_per_s", rate, "1/s");
    m.put("p50_ms", p50_us / 1e3, "ms");
    out
}

/// Puts the HTTP, codec, server and shield-counter figures of a traced
/// window into `m`; `states_per_request` scales the per-decision decide
/// histogram back to a per-request time.
fn traffic_metrics(
    m: &mut Metrics,
    spans: &[SpanRecord],
    before: &Snapshot,
    after: &Snapshot,
    client_rtt_us: f64,
    states_per_request: f64,
) {
    let covered = ledger::children_ns(spans);
    let decide_spans: Vec<&SpanRecord> = ledger::named(spans, "http.request")
        .filter(|s| !ledger::is_put(s))
        .collect();
    let self_us: f64 = decide_spans
        .iter()
        .map(|s| {
            s.dur_ns
                .saturating_sub(covered.get(&s.id).copied().unwrap_or(0)) as f64
        })
        .sum::<f64>()
        / 1e3;
    let http_request_us = stats::ratio(self_us, decide_spans.len() as f64);
    let decode_us = after.histogram_mean_ns(before, "decode") / 1e3;
    let encode_us = after.histogram_mean_ns(before, "encode") / 1e3;
    let decide_us = after.histogram_mean_ns(before, "decide") * states_per_request / 1e3;
    m.put(
        "http.server_us",
        http_request_us - decode_us - decide_us - encode_us,
        "us",
    );
    m.put("http.socket_us", client_rtt_us - http_request_us, "us");
    m.put("codec.decode_us", decode_us, "us");
    m.put("codec.encode_us", encode_us, "us");
    m.put("server.decide_us", decide_us, "us");
    let hits = after.delta(before, "vrl_shield_decide_table_hits_total");
    let fallbacks = after.delta(before, "vrl_shield_decide_table_fallbacks_total");
    m.put(
        "shield.table_hit_rate",
        stats::ratio(hits, hits + fallbacks),
        "ratio",
    );
    m.put(
        "shield.intervention_share",
        stats::ratio(
            after.delta(before, "vrl_runtime_interventions_total"),
            after.delta(before, "vrl_runtime_decisions_total"),
        ),
        "ratio",
    );
}

/// `GET /healthz` round trips behind the waterfall's socket-and-HTTP term.
const NULL_REQUESTS: usize = 1_000;

/// `GET /healthz` round trips on a fresh connection to `addr` (the decide
/// connection may have idled out during the replays), at `rate` per second
/// like the phase they stand beside, or back to back without one: socket
/// and HTTP for a request that decodes, decides and encodes nothing.
/// Returns (median µs, attempted, failed).
fn null_round_trip(addr: SocketAddr, rate: Option<f64>) -> (f64, u64, u64) {
    let mut client = MiniClient::connect(addr).expect("loopback connect succeeds");
    let mut rtt_us = Vec::with_capacity(NULL_REQUESTS);
    let mut failed = 0;
    let start = Instant::now();
    for index in 0..NULL_REQUESTS as u64 {
        if let Some(rate) = rate {
            wait_until(start, stats::due(index, rate));
        }
        let sent = Instant::now();
        let response = client.request("GET", "/healthz", &[]);
        rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
        if !matches!(response, Ok(ref r) if r.status == 200) {
            failed += 1;
        }
    }
    (stats::median(&rtt_us), NULL_REQUESTS as u64, failed)
}

/// The waterfall check of one serving phase.  Each layer is measured on
/// its own: socket and HTTP by the `/healthz` round trip, decode, server
/// decide and encode by in-process replays of the run's own frames
/// (`layers`, names of metrics already put).  No term is the difference of
/// two others, so the residual against the untraced median latency shows
/// any cost no layer holds; it is judged against the latency's
/// interquartile range.  Returns the residual, µs.
fn waterfall(
    out: &mut Outcome,
    stand: &Stand,
    label: &str,
    latency_us: &[f64],
    rate: Option<f64>,
    layers: [&str; 3],
) -> f64 {
    let (null_us, attempted, failed) = null_round_trip(stand.addr, rate);
    out.count(attempted, failed);
    let m = &out.metrics;
    let value = |l: &str| m.get(l).unwrap_or(0.0);
    let predicted = null_us + layers.iter().map(|l| value(l)).sum::<f64>();
    let mut sorted = latency_us.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (q1, p50, q3) = (
        stats::percentile(&sorted, 25.0),
        stats::percentile(&sorted, 50.0),
        stats::percentile(&sorted, 75.0),
    );
    let residual = p50 - predicted;
    let terms: Vec<String> = layers
        .iter()
        .map(|l| format!("{l} {:.2}", value(l)))
        .collect();
    out.note(format!(
        "waterfall {label}: healthz round trip {null_us:.1} + {} = {predicted:.1} us against the untraced p50 {p50:.1} us (n={}); residual {residual:.1} us, {} the interquartile range of {:.1} us",
        terms.join(" + "),
        sorted.len(),
        if residual.abs() <= q3 - q1 { "within" } else { "OUTSIDE" },
        q3 - q1
    ));
    residual
}

/// Three traced `PUT`s of the stand's own bytes: redeploy latency and the
/// table builds behind it.
pub fn put_replay(out: &mut Outcome, stand: &Stand) {
    let (writer, spans) = ledger::traced(|| {
        redeploy_loop(
            stand.addr,
            &stand.name,
            &stand.bytes,
            &stand.server,
            Duration::from_millis(100),
            Duration::from_millis(300),
        )
    });
    out.count(writer.attempted, writer.failed);
    out.spans.extend(spans);
    out.metrics
        .put("redeploy_ms", stats::median(&writer.latency_ms), "ms");
}

/// The serving ledger over single-state traffic: an untraced open-loop
/// phase at [`SINGLE_RATE`] timed from due time, a traced one, and the
/// layer replays.  Used by `serve` and, on a synthesized artifact, by the
/// synthesis workloads.
pub fn single_ledger(out: &mut Outcome, stand: &mut Stand, inputs: &Inputs, phase: Duration) {
    let untraced = open_loop(stand, inputs, SINGLE_RATE, phase);
    out.count(untraced.attempted, untraced.failed);
    let before = Snapshot::take();
    let (traced, spans) = ledger::traced(|| open_loop(stand, inputs, SINGLE_RATE, phase));
    let after = Snapshot::take();
    out.count(traced.attempted, traced.failed);
    let untraced_latency = stats::summarize(&untraced.latency_us);
    let traced_latency = stats::summarize(&traced.latency_us);
    let traced_rtt = stats::summarize(&traced.rtt_us);
    traffic_metrics(
        &mut out.metrics,
        &spans,
        &before,
        &after,
        traced_rtt.mean,
        1.0,
    );
    out.spans.extend(spans);
    let m = &mut out.metrics;
    m.put(
        "obs.tracing_overhead_pct",
        100.0 * (traced_latency.p50 - untraced_latency.p50) / untraced_latency.p50,
        "%",
    );
    m.put("gen.lateness_max_us", traced.lateness_max_us, "us");
    m.put("gen.backlog_max", traced.backlog_max as f64, "count");
    m.put("p90_ms", untraced_latency.p90 / 1e3, "ms");
    m.put("p99_ms", untraced_latency.p99 / 1e3, "ms");
    out.note(latency_note(
        "untraced latency from due time",
        "us",
        &untraced_latency,
    ));
    out.note(latency_note(
        "traced latency from due time",
        "us",
        &traced_latency,
    ));
    replay_serving(out, stand, inputs);
    let residual = waterfall(
        out,
        stand,
        "single-state",
        &untraced.latency_us,
        Some(SINGLE_RATE),
        [
            "replay.decode1_us",
            "server.batch_of_one_us",
            "replay.encode1_us",
        ],
    );
    out.metrics.put("waterfall.residual_us", residual, "us");
    let m = &out.metrics;
    let split: Vec<String> = [
        "http.socket_us",
        "http.server_us",
        "codec.decode_us",
        "server.decide_us",
        "codec.encode_us",
    ]
    .iter()
    .map(|l| format!("{l} {:.1}", m.get(l).unwrap_or(0.0)))
    .collect();
    out.note(format!(
        "ledger split single-state (closed by subtraction on the traced client mean): {}",
        split.join(" + ")
    ));
}

/// The batch half of the `serve` ledger, run after [`single_ledger`]: an
/// untraced batch phase and a traced one, each beside its redeploy writer.
/// It puts `redeploy_ms` (`PUT`s beside the traffic); the other layers keep
/// their single-state figures, and the batch waterfall and tracing overhead
/// are printed.
fn batch_ledger(out: &mut Outcome, stand: &Stand, inputs: &Inputs, phase: Duration) {
    let (untraced, untraced_writer) = batch_phase(stand, inputs, phase);
    out.count(untraced.attempted, untraced.failed);
    out.count(untraced_writer.attempted, untraced_writer.failed);
    let ((traced, writer), spans) = ledger::traced(|| batch_phase(stand, inputs, phase));
    out.count(traced.attempted, traced.failed);
    out.count(writer.attempted, writer.failed);
    out.spans.extend(spans);
    out.metrics
        .put("redeploy_ms", stats::median(&writer.latency_ms), "ms");
    out.note(format!(
        "batch tracing overhead {:.1} % ({:.0} decisions/s untraced, {:.0} traced)",
        100.0 * (untraced.rate - traced.rate) / untraced.rate,
        untraced.rate,
        traced.rate
    ));
    out.note(latency_note(
        "untraced 512-state batch latency",
        "ms",
        &stats::summarize(&untraced.latency_ms),
    ));
    out.note(latency_note(
        "traced redeploy (PUT) latency",
        "ms",
        &stats::summarize(&writer.latency_ms),
    ));
    let untraced_us: Vec<f64> = untraced.latency_ms.iter().map(|v| v * 1e3).collect();
    waterfall(
        out,
        stand,
        "512-state batch",
        &untraced_us,
        None,
        [
            "replay.decode512_us",
            "server.batch512_us",
            "replay.encode512_us",
        ],
    );
}

/// Rounds each replay is repeated; the reported figure is their median.
const REPLAY_ROUNDS: usize = 5;

/// Runs `f(i)` for `i` in `0..iters` inside a `bench.*` span,
/// [`REPLAY_ROUNDS`] rounds; returns the median nanoseconds per call.
fn replay<T>(name: &'static str, iters: usize, f: impl FnMut(usize) -> T) -> f64 {
    replay_rounds(name, REPLAY_ROUNDS, iters, f)
}

/// [`replay`] with `rounds` rounds.  Calls that take milliseconds use many
/// short rounds, so a host stall spoils few of them.
fn replay_rounds<T>(
    name: &'static str,
    rounds: usize,
    iters: usize,
    mut f: impl FnMut(usize) -> T,
) -> f64 {
    let rounds: Vec<f64> = (0..rounds)
        .map(|_| {
            let _span = vrl_obs::span(name);
            let start = Instant::now();
            for i in 0..iters {
                black_box(f(i));
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&rounds)
}

/// Replays the run's inputs through each serving layer's public function,
/// each under its own `bench.*` span.
pub fn replay_serving(out: &mut Outcome, stand: &Stand, inputs: &Inputs) {
    let ((), spans) = ledger::traced(|| replay_serving_inner(&mut out.metrics, stand, inputs));
    let m = &out.metrics;
    let (scalar, batch_of_one) = (m.get("server.scalar_us"), m.get("server.batch_of_one_us"));
    out.note(format!(
        "in-process single state: decide {:.1} us, decide_batch(&[s]) {:.1} us",
        scalar.unwrap_or(0.0),
        batch_of_one.unwrap_or(0.0)
    ));
    // The table builds inside the `from_bytes` replays: this deployment's
    // own table, rebuilt as every decode and redeploy rebuilds it.
    let build_ns = ledger::mean_ns(&spans, "shield.table_build");
    out.metrics.put("table.build_ms", build_ns / 1e6, "ms");
    out.spans.extend(spans);
}

fn replay_serving_inner(m: &mut Metrics, stand: &Stand, inputs: &Inputs) {
    let artifact = &stand.artifact;
    let oracle = artifact.oracle();
    let shield = artifact.shield();
    let env = shield.env();
    let states = &inputs.states;
    let n = states.len();
    let batch = &states[..BATCH.min(n)];
    let mut scratch = MlpScratch::new();
    let mut action = Vec::new();
    let mut proposals: Vec<Vec<f64>> = Vec::new();
    let actions: Vec<Vec<f64>> = states.iter().map(|s| oracle.action(s)).collect();

    let ns = replay("bench.oracle.scalar", 2_000, |i| {
        oracle.action_into(&states[i % n], &mut scratch, &mut action);
        action[0]
    });
    m.put("oracle.scalar_us", ns / 1e3, "us");
    let ns = replay("bench.oracle.batch1", 2_000, |i| {
        oracle.actions_batch_into(
            std::slice::from_ref(&states[i % n]),
            &mut scratch,
            &mut proposals,
        );
        proposals[0][0]
    });
    m.put("oracle.batch1_us", ns / 1e3, "us");
    let ns = replay("bench.oracle.batch512", 8, |_| {
        oracle.actions_batch_into(batch, &mut scratch, &mut proposals);
        proposals.len()
    });
    m.put(
        "oracle.batch512_us_per_state",
        ns / 1e3 / batch.len() as f64,
        "us",
    );
    let ns = replay("bench.dynamics.step", 20_000, |i| {
        env.step_deterministic(&states[i % n], &actions[i % n])
    });
    m.put("dynamics.step_ns", ns, "ns");
    let ns = replay("bench.shield.decide", 20_000, |i| {
        shield.decide(&states[i % n], &actions[i % n])
    });
    m.put("shield.decide_ns", ns, "ns");
    let batch_actions = &actions[..batch.len()];
    let ns = replay("bench.shield.decide_batch", 40, |_| {
        shield.decide_batch(batch, batch_actions)
    });
    m.put(
        "shield.decide_batch_ns_per_state",
        ns / batch.len() as f64,
        "ns",
    );
    let server = &stand.server;
    let name = stand.name.as_str();
    let ns = replay("bench.server.lookup", 50_000, |_| server.generation(name));
    m.put("server.lookup_ns", ns, "ns");
    let ns = replay("bench.server.scalar", 2_000, |i| {
        server.decide(name, &states[i % n])
    });
    m.put("server.scalar_us", ns / 1e3, "us");
    let ns = replay("bench.server.batch_of_one", 2_000, |i| {
        server.decide_batch(name, std::slice::from_ref(&states[i % n]))
    });
    m.put("server.batch_of_one_us", ns / 1e3, "us");
    let pooled = replay_rounds("bench.server.batch512_pooled", 25, 2, |_| {
        server.decide_batch(name, batch)
    });
    m.put("server.batch512_us", pooled / 1e3, "us");
    let single = ShieldServer::with_workers(1);
    single
        .deploy(name, artifact.clone())
        .expect("a fresh server takes the deployment");
    let alone = replay_rounds("bench.server.batch512_one_worker", 25, 2, |_| {
        single.decide_batch(name, batch)
    });
    m.put("pool.fanout_gain", alone / pooled, "ratio");
    // The wire codec as the front-end runs it, on the run's own frames.
    let max_batch = HttpConfig::default().max_batch;
    let mut arena = StateArena::new();
    let mut body = Vec::new();
    let ns = replay("bench.frame.decode1", 20_000, |i| {
        frame::decode_decide_request_into(&inputs.frames[i % n], max_batch, &mut arena)
            .expect("own frames decode")
    });
    m.put("replay.decode1_us", ns / 1e3, "us");
    let ns = replay("bench.frame.encode1", 20_000, |i| {
        frame::encode_decide_response_into(
            std::slice::from_ref(&inputs.reference[i % n]),
            false,
            &mut body,
        );
        body.len()
    });
    m.put("replay.encode1_us", ns / 1e3, "us");
    let batch_frame = frame::encode_decide_request(batch, true);
    let ns = replay("bench.frame.decode512", 200, |_| {
        frame::decode_decide_request_into(&batch_frame, max_batch, &mut arena)
            .expect("own frames decode")
    });
    m.put("replay.decode512_us", ns / 1e3, "us");
    let batch_reference = &inputs.reference[..batch.len()];
    let ns = replay("bench.frame.encode512", 200, |_| {
        frame::encode_decide_response_into(batch_reference, true, &mut body);
        body.len()
    });
    m.put("replay.encode512_us", ns / 1e3, "us");
    let ns = replay("bench.artifact.decode", 5, |_| {
        ShieldArtifact::from_bytes(&stand.bytes).expect("own bytes decode")
    });
    m.put("artifact.decode_ms", ns / 1e6, "ms");
}

//! `serve-binary`: open-loop binary-frame load against the TCP server.
//!
//! Set-up discovers a panel through the `discover` pipeline, builds request
//! signatures from a held-out cohort (large enough that the LRU cache is not
//! what answers), and starts `Server` + `tcp::spawn_with` (2 shards, 1
//! reactor, admission on for two tenants with a budget above the top rate).
//!
//! One client thread (the main thread) sends requests on a fixed schedule
//! over 2 connections, times each from its due time, and reads the replies
//! while it waits for the next one. Every
//! `PUBLISH_EVERY` a publish control frame ships the panel again,
//! alternating between two row orders, so registry writes, hot swaps and
//! cache purges run beside the reads. Every reply is checked against
//! `Panel::classify_signature` for the generation that answered.

use crate::{discover, median, percentile, ratio, secs, timed_setups, Report, RunOpts, Samples};
use multihit_core::obs::{Obs, RunReport};
use multihit_data::results::ResultsFile;
use multihit_data::synth::{gene_symbols, generate, CohortSpec};
use multihit_serve::frame::{self, FrameDecoder, Msg};
use multihit_serve::registry::{ModelRegistry, Panel};
use multihit_serve::tcp::{self, TcpHandle};
use multihit_serve::{AdmissionConfig, Response, ServeConfig, Server, Status};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the fixed-rate phase, below the knee on a 2-core host.
const FIXED_RPS: f64 = 10_000.0;
/// The capacity ladder, ascending; `serve.slo_rps` is the highest rung that
/// meets the SLO.
const LADDER_RPS: [f64; 5] = [15_000.0, 20_000.0, 25_000.0, 30_000.0, 35_000.0];
/// SLO: p99 from due time at most this, nothing refused, no growing backlog
/// (at most this long's worth of requests outstanding when a rung ends).
const SLO_P99: Duration = Duration::from_millis(1);
/// Generator lag (send time - due time) p99 above which a window measures
/// the client, not the server, and is left out of the results.
const LAG_BOUND: Duration = Duration::from_micros(500);
/// Windows a phase is cut into for the lag check.
const WINDOW: Duration = Duration::from_millis(500);
/// Start of the fixed-rate phase left out as warm-up.
const WARMUP: Duration = Duration::from_millis(250);
/// Publish cadence.
const PUBLISH_EVERY: Duration = Duration::from_millis(250);
/// Admission budget: comfortably above the top ladder rate.
const ADMIT_RPS: u64 = 4 * 35_000;
const TENANTS: u32 = 2;
const CONNECTIONS: usize = 2;
/// Ids at or above this are publish frames.
const PUBLISH_ID: u64 = 1 << 62;

fn panel_cohort(seed: u64) -> CohortSpec {
    CohortSpec {
        n_genes: 1000,
        n_tumor: 300,
        n_normal: 150,
        n_driver_combos: 12,
        hits_per_combo: 3,
        driver_penetrance: 0.9,
        passenger_rate_tumor: 0.03,
        passenger_rate_normal: 0.03,
        seed,
    }
}

/// One registry generation's panel with every profile's signature and the
/// scalar verdict the server must reproduce.
struct Variant {
    tsv: String,
    panel: Arc<Panel>,
    sigs: Vec<Vec<u64>>,
    expected: Vec<bool>,
}

/// Generation `v` serves variant `(v - 1) % 2`: 1 is the discovered panel,
/// each publish alternates the row order.
fn variant_of(version: u64) -> usize {
    ((version - 1) % 2) as usize
}

fn build_variant(rf: &ResultsFile, profiles: &[Vec<String>]) -> Variant {
    let tsv = rf.to_tsv();
    let reg = ModelRegistry::from_tsv_texts(std::slice::from_ref(&tsv)).expect("panel compiles");
    let panel = reg.get(&rf.cohort).expect("panel registered");
    let sigs: Vec<Vec<u64>> = profiles.iter().map(|p| panel.signature(p)).collect();
    let expected = sigs.iter().map(|s| panel.classify_signature(s)).collect();
    Variant {
        tsv,
        panel,
        sigs,
        expected,
    }
}

/// Request profiles: every sample of a held-out cohort, as gene symbols.
fn profiles(seed: u64) -> Vec<Vec<String>> {
    let c = generate(&CohortSpec {
        n_tumor: 8000,
        n_normal: 8000,
        ..panel_cohort(seed ^ 0x5eed_0ff5)
    });
    let names = gene_symbols(&c);
    [&c.tumor, &c.normal]
        .into_iter()
        .flat_map(|m| {
            (0..m.n_samples()).map(|s| {
                (0..names.len())
                    .filter(|&g| m.get(g, s))
                    .map(|g| names[g].clone())
                    .collect()
            })
        })
        .collect()
}

/// One client connection: pending output and the frame decoder.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    dec: FrameDecoder,
}

/// A running server and the client's two non-blocking connections. The
/// client is one thread: it sends on schedule and reads replies while it
/// waits for the next due time.
struct Session {
    server: Arc<Server>,
    handle: Option<TcpHandle>,
    started: Instant,
    conns: Vec<Conn>,
    replies: Vec<(Response, Instant)>,
    /// Latest generation acked by a publish; requests pack against it.
    version: u64,
    buf: Vec<u8>,
}

impl Session {
    /// `capacity`: replies expected, reserved up front so no buffer grows
    /// (and stalls the client) mid-measurement.
    fn start(panel_tsv: &str, obs: &Obs, capacity: usize) -> Session {
        let registry =
            ModelRegistry::from_tsv_texts(&[panel_tsv.to_string()]).expect("panel compiles");
        let cfg = ServeConfig {
            shards: 2,
            admission: AdmissionConfig {
                total_rps: ADMIT_RPS,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        };
        let server = Server::start(registry, cfg, obs);
        let started = Instant::now();
        let handle = tcp::spawn_with(Arc::clone(&server), "127.0.0.1:0", 1).expect("bind server");
        let conns = (0..CONNECTIONS)
            .map(|_| {
                let mut stream = TcpStream::connect(handle.addr()).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut pre = Vec::new();
                frame::encode_preamble(&mut pre);
                stream.write_all(&pre).expect("send preamble");
                let mut echo = [0u8; 2];
                stream.read_exact(&mut echo).expect("preamble echo");
                assert_eq!(
                    echo,
                    [frame::MAGIC, frame::VERSION],
                    "binary protocol refused"
                );
                stream.set_nonblocking(true).expect("non-blocking client");
                Conn {
                    stream,
                    out: Vec::with_capacity(64 * 1024),
                    dec: FrameDecoder::new(),
                }
            })
            .collect();
        Session {
            server,
            handle: Some(handle),
            started,
            conns,
            replies: Vec::with_capacity(capacity),
            version: 1,
            buf: vec![0u8; 64 * 1024],
        }
    }

    /// Write what each connection has pending, as far as the socket takes.
    fn flush(&mut self) {
        for c in &mut self.conns {
            let mut pos = 0;
            while pos < c.out.len() {
                match c.stream.write(&c.out[pos..]) {
                    Ok(n) => pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => panic!("client write failed: {e}"),
                }
            }
            c.out.drain(..pos);
        }
    }

    /// Read every reply available now, timestamped at receipt.
    fn poll(&mut self) {
        for c in &mut self.conns {
            loop {
                match c.stream.read(&mut self.buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        let now = Instant::now();
                        c.dec.push(&self.buf[..n]);
                        while let Some(msg) = c.dec.next().expect("well-formed reply frames") {
                            if let Msg::Response(r) = msg {
                                if r.id >= PUBLISH_ID && r.status == Status::Ok {
                                    self.version = self.version.max(r.version);
                                }
                                self.replies.push((r, now));
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => panic!("client read failed: {e}"),
                }
            }
        }
    }

    /// Stop the server; returns every reply received and the server's
    /// lifetime.
    fn finish(&mut self) -> (Vec<(Response, Instant)>, Duration) {
        for c in self.conns.drain(..) {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.handle.take() {
            h.stop();
        }
        let lifetime = self.started.elapsed();
        self.server.shutdown();
        (std::mem::take(&mut self.replies), lifetime)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.finish();
        }
    }
}

/// One request as sent.
#[derive(Clone, Copy)]
struct Sent {
    due: Instant,
    sent: Instant,
    profile: u32,
    version: u64,
    tenant: u32,
}

/// One publish as sent.
struct Publish {
    sent: Instant,
    version: u64,
}

/// The ids and timing of one open-loop phase.
struct Phase {
    rate: f64,
    ids: std::ops::Range<u64>,
    start: Instant,
    dur: Duration,
    /// Requests outstanding when the last one was sent.
    backlog: u64,
}

/// Everything the generator sent over a session.
#[derive(Default)]
struct Log {
    sent: Vec<Sent>,
    publishes: Vec<Publish>,
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Send `rate` requests per second for `dur` on the open-loop schedule,
/// publishing every `PUBLISH_EVERY`; then wait for the replies to drain.
fn run_phase(
    sess: &mut Session,
    variants: &[Variant; 2],
    log: &mut Log,
    rng: &mut Rng,
    rate: f64,
    dur: Duration,
) -> Phase {
    let first = log.sent.len() as u64;
    let start = Instant::now() + Duration::from_millis(1);
    let total = (dur.as_secs_f64() * rate) as u64;
    let due = |k: u64| start + Duration::from_secs_f64(k as f64 / rate);
    let mut next_publish = start + PUBLISH_EVERY;
    let mut k = 0u64;
    let expected = |log: &Log| (log.sent.len() + log.publishes.len()) as u64;
    loop {
        let now = Instant::now();
        let batch_start = log.sent.len();
        while k < total && due(k) <= now {
            let id = first + k;
            let version = sess.version;
            let v = &variants[variant_of(version)];
            let profile = rng.below(v.sigs.len() as u64) as u32;
            let tenant = 1 + (id % u64::from(TENANTS)) as u32;
            let conn = ((id / u64::from(TENANTS)) % CONNECTIONS as u64) as usize;
            frame::encode_request(
                &mut sess.conns[conn].out,
                id,
                version,
                v.panel.id,
                tenant,
                &v.sigs[profile as usize],
            );
            log.sent.push(Sent {
                due: due(k),
                sent: now,
                profile,
                version,
                tenant,
            });
            k += 1;
        }
        // A publish goes out once the previous one is acked.
        let acked = log
            .publishes
            .last()
            .is_none_or(|p| sess.version >= p.version);
        if now >= next_publish && acked {
            let version = sess.version + 1;
            let id = PUBLISH_ID + log.publishes.len() as u64;
            let tsv = &variants[variant_of(version)].tsv;
            frame::encode_publish(&mut sess.conns[0].out, id, std::slice::from_ref(tsv));
            log.publishes.push(Publish { sent: now, version });
            next_publish += PUBLISH_EVERY;
        }
        sess.flush();
        // A request's lag runs from its due time to the write that sent it.
        let written = Instant::now();
        for s in &mut log.sent[batch_start..] {
            s.sent = written;
        }
        if k >= total {
            break;
        }
        // Timer sleeps on a mostly idle 2-core VM wake milliseconds late,
        // so the client reads replies and yields the core until the next
        // due time instead.
        let next = due(k);
        loop {
            sess.poll();
            if Instant::now() >= next {
                break;
            }
            std::thread::yield_now();
        }
    }
    sess.poll();
    let backlog = expected(log).saturating_sub(sess.replies.len() as u64);
    // Drain before the next phase so backlogs do not carry over.
    let drain_deadline = Instant::now() + Duration::from_secs(2);
    while (sess.replies.len() as u64) < expected(log) && Instant::now() < drain_deadline {
        sess.poll();
        std::thread::yield_now();
    }
    Phase {
        rate,
        ids: first..first + total,
        start,
        dur,
        backlog,
    }
}

/// What became of one request.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// No reply arrived.
    Lost,
    /// The reference verdict, from the pinned generation, for its tenant.
    Ok,
    /// An ok reply with the wrong verdict, generation or tenant.
    Divergent,
    /// Shed or error.
    Refused,
}

/// Replies matched to requests and checked against the reference.
struct Judged {
    /// Per request: latency from due time to receipt, when answered.
    latency: Vec<Option<u64>>,
    outcome: Vec<Outcome>,
    /// Publishes not acked with their generation.
    publish_failed: u64,
    publish_ms: Vec<f64>,
    errors: Vec<String>,
}

fn judge(log: &Log, replies: &[(Response, Instant)], variants: &[Variant; 2]) -> Judged {
    let mut latency = vec![None; log.sent.len()];
    let mut outcome = vec![Outcome::Lost; log.sent.len()];
    let mut acked = vec![None; log.publishes.len()];
    let mut errors = Vec::new();
    for (r, at) in replies {
        if r.id >= PUBLISH_ID {
            let k = usize::try_from(r.id - PUBLISH_ID).unwrap_or(usize::MAX);
            match log.publishes.get(k) {
                Some(p) if r.status == Status::Ok && r.version == p.version => {
                    acked[k] = Some(at.saturating_duration_since(p.sent).as_secs_f64() * 1e3);
                }
                _ => errors.push(format!("publish {k} answered {r:?}")),
            }
            continue;
        }
        let Some(s) = usize::try_from(r.id).ok().and_then(|i| log.sent.get(i)) else {
            errors.push(format!("reply to unknown request {}", r.id));
            continue;
        };
        let i = r.id as usize;
        latency[i] =
            Some(u64::try_from(at.saturating_duration_since(s.due).as_nanos()).unwrap_or(u64::MAX));
        let want = variants[variant_of(s.version)].expected[s.profile as usize];
        outcome[i] = match r.status {
            Status::Ok if r.version == s.version && r.tenant == s.tenant && r.tumor == want => {
                Outcome::Ok
            }
            Status::Ok => Outcome::Divergent,
            Status::Shed | Status::Error => Outcome::Refused,
        };
        if outcome[i] != Outcome::Ok {
            errors.push(format!(
                "request {i} (tenant {}, generation {}, want tumor {want}) answered {r:?}",
                s.tenant, s.version
            ));
        }
    }
    errors.truncate(5);
    Judged {
        latency,
        outcome,
        publish_failed: acked.iter().filter(|a| a.is_none()).count() as u64,
        publish_ms: acked.into_iter().flatten().collect(),
        errors,
    }
}

/// A phase's latencies from its valid windows (warm-up skipped), sorted.
/// A window is valid when the generator sent on time: its lag p99 is
/// within `LAG_BOUND`, so the window measures the server, not the client.
struct PhaseStats {
    latencies: Vec<u64>,
    lag_p99: u64,
    valid_windows: usize,
    windows: usize,
    /// Requests whose outcome was not `Ok`.
    not_ok: u64,
    /// Requests lost or answered wrongly: failures whatever the load.
    wrong: u64,
}

fn phase_stats(phase: &Phase, log: &Log, j: &Judged, skip: Duration) -> PhaseStats {
    let n_windows = (phase.dur.as_secs_f64() / WINDOW.as_secs_f64())
        .ceil()
        .max(1.0) as usize;
    let window_of = |s: &Sent| {
        (((s.due - phase.start).as_secs_f64() / WINDOW.as_secs_f64()) as usize).min(n_windows - 1)
    };
    let lag = |s: &Sent| {
        u64::try_from(s.sent.saturating_duration_since(s.due).as_nanos()).unwrap_or(u64::MAX)
    };
    let range = phase.ids.start as usize..phase.ids.end as usize;
    let mut lags: Vec<Vec<u64>> = vec![Vec::new(); n_windows];
    for s in &log.sent[range.clone()] {
        lags[window_of(s)].push(lag(s));
    }
    let valid: Vec<bool> = lags
        .iter_mut()
        .map(|l| {
            l.sort_unstable();
            percentile(l, 0.99) <= LAG_BOUND.as_nanos() as u64
        })
        .collect();
    let mut latencies = Vec::new();
    let (mut not_ok, mut wrong) = (0, 0);
    for (i, s) in log.sent[range.clone()].iter().enumerate() {
        let id = range.start + i;
        match j.outcome[id] {
            Outcome::Ok => {}
            Outcome::Refused => not_ok += 1,
            Outcome::Lost | Outcome::Divergent => {
                not_ok += 1;
                wrong += 1;
            }
        }
        if let Some(l) = j.latency[id] {
            if valid[window_of(s)] && s.due - phase.start >= skip {
                latencies.push(l);
            }
        }
    }
    latencies.sort_unstable();
    let mut all_lags: Vec<u64> = lags.into_iter().flatten().collect();
    all_lags.sort_unstable();
    PhaseStats {
        latencies,
        lag_p99: percentile(&all_lags, 0.99),
        valid_windows: valid.iter().filter(|v| **v).count(),
        windows: n_windows,
        not_ok,
        wrong,
    }
}

struct Inputs {
    variants: [Variant; 2],
    session: Session,
}

fn setup(seed: u64, dir: &std::path::Path, capacity: usize) -> Inputs {
    let spec = panel_cohort(seed);
    let files = discover::write_mafs(&spec, dir, "panel");
    let (_, tsv) = discover::pipeline::<3>(&files, "panel", &Obs::disabled());
    let rf = ResultsFile::from_tsv(&tsv).expect("panel TSV parses");
    let mut reversed = rf.clone();
    reversed.rows.reverse();
    let profiles = profiles(seed);
    let variants = [
        build_variant(&rf, &profiles),
        build_variant(&reversed, &profiles),
    ];
    let session = Session::start(&variants[0].tsv, &Obs::disabled(), capacity);
    Inputs { variants, session }
}

/// Replies to reserve room for over `plan` (rate, duration).
fn capacity(plan: &[(f64, Duration)]) -> usize {
    let total: f64 = plan.iter().map(|(r, d)| r * d.as_secs_f64()).sum();
    total as usize + 4096
}

/// Run `plan` on `sess`, then stop it and judge every reply.
fn run_plan(
    sess: &mut Session,
    variants: &[Variant; 2],
    rng: &mut Rng,
    plan: &[(f64, Duration)],
) -> (Log, Vec<Phase>, Judged, Duration) {
    let mut log = Log::default();
    log.sent.reserve(capacity(plan));
    let phases = plan
        .iter()
        .map(|&(rate, dur)| run_phase(sess, variants, &mut log, rng, rate, dur))
        .collect();
    let (replies, lifetime) = sess.finish();
    let j = judge(&log, &replies, variants);
    (log, phases, j, lifetime)
}

/// Fold a fixed-rate phase into the report: every request not answered
/// correctly is a failure. Returns its statistics.
fn fixed_phase(report: &mut Report, phase: &Phase, log: &Log, j: &Judged) -> PhaseStats {
    let st = phase_stats(phase, log, j, WARMUP);
    report.attempted += phase.ids.end - phase.ids.start;
    report.failed += st.not_ok;
    eprintln!(
        "  {:.0} rps: {}/{} windows valid (generator lag p99 {} us); p50 {} us, p99 {} us over {} requests",
        phase.rate,
        st.valid_windows,
        st.windows,
        st.lag_p99 / 1000,
        percentile(&st.latencies, 0.5) / 1000,
        percentile(&st.latencies, 0.99) / 1000,
        st.latencies.len()
    );
    if st.latencies.is_empty() {
        report.check(Err(format!(
            "run invalid: the generator lagged over {} us in every window",
            LAG_BOUND.as_micros()
        )));
    }
    st
}

/// Publishes count as operations; every one must be acked.
fn publishes(report: &mut Report, log: &Log, j: &Judged) {
    report.attempted += log.publishes.len() as u64;
    report.failed += j.publish_failed;
    for e in &j.errors {
        if report.errors.len() < 5 {
            report.errors.push(e.clone());
        }
    }
}

/// The capacity ladder: the goodput of the highest rung that meets the SLO.
/// A rung above the knee may shed; only lost or wrong replies fail the run.
fn ladder(report: &mut Report, rungs: &[Phase], log: &Log, j: &Judged) -> f64 {
    let mut slo = 0.0;
    for rung in rungs {
        let rs = phase_stats(rung, log, j, Duration::ZERO);
        report.attempted += rung.ids.end - rung.ids.start;
        report.failed += rs.wrong;
        let p99 = percentile(&rs.latencies, 0.99);
        let pass = rs.valid_windows == rs.windows
            && rs.not_ok == 0
            && (rung.backlog as f64) <= rung.rate * SLO_P99.as_secs_f64()
            && p99 <= SLO_P99.as_nanos() as u64;
        eprintln!(
            "  rung {:.0} rps: p99 {} us, backlog {}, refused {}, {}/{} windows valid -> {}",
            rung.rate,
            p99 / 1000,
            rung.backlog,
            rs.not_ok,
            rs.valid_windows,
            rs.windows,
            if pass { "meets SLO" } else { "misses SLO" }
        );
        if pass {
            slo = (rung.ids.end - rung.ids.start) as f64 / rung.dur.as_secs_f64();
        }
    }
    slo
}

pub fn run(opts: &RunOpts) -> Report {
    let mut report = Report::default();
    let mut rng = Rng(opts.seed);
    if !opts.trace {
        let plan = [(FIXED_RPS, opts.measure)];
        let mut inp = timed_setups(&mut report, || setup(opts.seed, &opts.dir, capacity(&plan)));
        let (log, phases, j, _) = run_plan(&mut inp.session, &inp.variants, &mut rng, &plan);
        publishes(&mut report, &log, &j);
        let st = fixed_phase(&mut report, &phases[0], &log, &j);
        report.set(
            "latency_p50_ms",
            percentile(&st.latencies, 0.5) as f64 / 1e6,
            st.latencies.len(),
        );
        return report;
    }

    // Traced run, in thirds: untraced fixed rate (the overhead baseline)
    // and the capacity ladder on one server, then the fixed rate again on a
    // fresh server with observability on.
    let third = opts.measure / 3;
    let mut plan = vec![(FIXED_RPS, third)];
    let rung = third / LADDER_RPS.len() as u32;
    plan.extend(LADDER_RPS.iter().map(|&r| (r, rung)));
    let mut inp = timed_setups(&mut report, || setup(opts.seed, &opts.dir, capacity(&plan)));
    let (log, phases, j, _) = run_plan(&mut inp.session, &inp.variants, &mut rng, &plan);
    publishes(&mut report, &log, &j);
    let untraced = fixed_phase(&mut report, &phases[0], &log, &j);
    let slo_rps = ladder(&mut report, &phases[1..], &log, &j);

    let obs = Obs::enabled();
    let plan = [(FIXED_RPS, opts.measure - 2 * third)];
    let mut sess = Session::start(&inp.variants[0].tsv, &obs, capacity(&plan));
    let (log, phases, j, lifetime) = run_plan(&mut sess, &inp.variants, &mut rng, &plan);
    publishes(&mut report, &log, &j);
    let st = fixed_phase(&mut report, &phases[0], &log, &j);

    let mut layers = Samples::default();
    let rr = RunReport::from_events(&obs.events());
    let sv = &rr.serve;
    layers.push("serve.frames_decoded", sv.frames_decoded as f64);
    layers.push(
        "reactor.busy_frac",
        ratio(secs(sv.reactor_busy_ns), lifetime.as_secs_f64()),
    );
    layers.push("server.p99_us", sv.p99_latency_ns as f64 / 1e3);
    layers.push("client.p50_us", percentile(&st.latencies, 0.5) as f64 / 1e3);
    layers.push(
        "client.p99_us",
        percentile(&st.latencies, 0.99) as f64 / 1e3,
    );
    layers.push("serve.slo_rps", slo_rps);
    layers.push("batch.mean_fill", sv.mean_batch_fill());
    layers.push("batch.count", sv.batches as f64);
    layers.push("queue.max_depth", sv.max_queue_depth as f64);
    layers.push("queue.shed", (sv.shed - sv.admission_shed) as f64);
    layers.push("cache.hit_frac", sv.cache_hit_rate());
    layers.push("cache.stale_evictions", sv.stale_evictions as f64);
    layers.push(
        "admission.admitted",
        sv.tenants.iter().map(|t| t.admitted).sum::<u64>() as f64,
    );
    layers.push("admission.shed", sv.admission_shed as f64);
    layers.push("serve.swaps", sv.swaps as f64);
    for v in &inp.variants {
        let t = Instant::now();
        let reg = ModelRegistry::from_tsv_texts(std::slice::from_ref(&v.tsv));
        layers.push("publish.compile_s", t.elapsed().as_secs_f64());
        drop(reg);
    }
    let mut acks = j.publish_ms.clone();
    layers.push("publish.ack_ms", median(&mut acks));
    layers.push("gen.lag_p99_us", st.lag_p99 as f64 / 1e3);
    let (traced_p50, untraced_p50) = (
        percentile(&st.latencies, 0.5) as f64,
        percentile(&untraced.latencies, 0.5) as f64,
    );
    layers.push("trace.overhead_frac", ratio(traced_p50, untraced_p50) - 1.0);
    layers.medians_into(&mut report);
    report
}

//! `serve`: closed loop, one client per core (at most two), each
//! submitting traces of the `report` corpus over a unix socket to an
//! in-process `ServeManager` with the `heapdrag serve` defaults. The
//! decode and fold are the `report` workload's; here concurrent sessions
//! also share the worker pool, the in-flight-chunk budget and the accept
//! loop.
//!
//! The manager keeps every finished session for its fleet report, so
//! the loop restarts it after every round (one session per trace of the
//! corpus): memory then stays bounded whatever the session rate.
//! Restarts are not timed.

use std::collections::HashMap;
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use heapdrag::core::serve::{client_command, client_submit, serve_socket};
use heapdrag::core::{ServeConfig, ServeManager};
use heapdrag::obs::Registry;

use crate::cpu::{self, Calibration};
use crate::report::{describe_corpus, setup_corpus, State};
use crate::stats::quantile;
use crate::trace::Tracer;
use crate::{host_cores, Op, Phase, Round, Workload};

/// Sessions drawn per seed; more than any run reaches.
const ORDER_LEN: usize = 1 << 18;

/// Where the socket lives, inside the working directory.
const SOCKET_DIR: &str = ".bench_tmp";

pub struct Serve;

/// One client's view of one session.
struct Sent {
    item: usize,
    name: String,
    latency: Duration,
    bytes: u64,
    error: Option<String>,
}

/// What a session spent on the server: queued, running (ms).
type ServerTimes = HashMap<String, (f64, f64)>;

impl Workload for Serve {
    type State = State;

    fn generators(&self) -> usize {
        host_cores().clamp(1, 2)
    }

    fn setup(&self, seed: u64) -> Result<State, String> {
        setup_corpus(seed, ORDER_LEN)
    }

    fn describe(&self, st: &State) -> Vec<String> {
        describe_corpus(st)
    }

    fn measure(&self, st: &State, budget: Duration, traced: bool, cal: &mut Calibration) -> Phase {
        let started = Instant::now();
        let clients = self.generators();
        let round = st.corpus.traces.len();
        let next = AtomicUsize::new(0);
        let mut phase = Phase::default();
        let mut sent: Vec<Sent> = Vec::new();
        let mut server: ServerTimes = HashMap::new();
        let (mut busy_peak, mut inflight_peak) = (0i64, 0i64);
        let (mut submitted, mut completed) = (0u64, 0u64);
        let mut active = Duration::ZERO;
        let mut epoch = 0u64;
        let socket = Path::new(SOCKET_DIR).join(format!("serve-{}.sock", std::process::id()));
        if let Err(e) = std::fs::create_dir_all(SOCKET_DIR) {
            phase.attempted += 1;
            phase.fail(SOCKET_DIR, e);
        }
        while epoch == 0 || started.elapsed() < budget {
            cal.tick();
            let registry = Registry::new();
            let mut manager = ServeManager::new(ServeConfig {
                registry: registry.clone(),
                ..ServeConfig::default()
            });
            let _ = std::fs::remove_file(&socket);
            let listener = match UnixListener::bind(&socket) {
                Ok(l) => l,
                Err(e) => {
                    phase.attempted += 1;
                    phase.fail("bind", format!("{}: {e}", socket.display()));
                    break;
                }
            };
            let start = epoch as usize * round;
            let end = start + round;
            next.store(start, Ordering::Relaxed);
            let sent_before = sent.len();
            let (t_epoch, c_epoch) = (Instant::now(), cpu::process_ns());
            std::thread::scope(|s| {
                let accept = s.spawn(|| serve_socket(&manager, &listener));
                let workers: Vec<_> = (0..clients as u64)
                    .map(|c| {
                        let (next, socket) = (&next, &socket);
                        let tracer = Tracer::new(traced, started, epoch * clients as u64 + c + 1);
                        s.spawn(move || client(st, next, end, started, budget, socket, tracer))
                    })
                    .collect();
                for w in workers {
                    let (mine, tracer) = w.join().expect("client thread panicked");
                    sent.extend(mine);
                    phase.spans.extend(tracer.into_spans());
                }
                active += t_epoch.elapsed();
                let done = &sent[sent_before..];
                if done.len() == round && done.iter().all(|s| s.error.is_none()) {
                    phase.rounds.push(Round {
                        ops: round,
                        cpu_ns: cpu::process_ns() - c_epoch,
                        bytes: done.iter().map(|s| s.bytes).sum(),
                    });
                }
                if let Err(e) = client_command(&socket, "SHUTDOWN") {
                    phase.attempted += 1;
                    phase.fail("shutdown", e);
                }
                if let Err(e) = accept.join().expect("accept thread panicked") {
                    phase.attempted += 1;
                    phase.fail("accept loop", e);
                }
            });
            for s in manager.sessions() {
                server.insert(
                    s.name.clone(),
                    (
                        s.queued_for.as_secs_f64() * 1e3,
                        s.running_for.as_secs_f64() * 1e3,
                    ),
                );
            }
            busy_peak = busy_peak.max(manager.pool().busy_peak() as i64);
            manager.shutdown();
            let snap = registry.snapshot();
            let gauge = |n: &str| snap.gauges.get(n).copied().unwrap_or(0);
            let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
            inflight_peak = inflight_peak.max(gauge("heapdrag_serve_inflight_chunks_peak"));
            submitted += counter("heapdrag_serve_sessions_submitted_total");
            completed += counter("heapdrag_serve_sessions_completed_total");
            let _ = std::fs::remove_file(&socket);
            epoch += 1;
        }
        let _ = std::fs::remove_dir(SOCKET_DIR);

        let mut session_ms = Vec::new();
        let (mut queued, mut run, mut control) = (Vec::new(), Vec::new(), Vec::new());
        let mut ok = 0u64;
        for s in &sent {
            phase.attempted += 1;
            if let Some(e) = &s.error {
                phase.fail(&s.name, e);
                continue;
            }
            ok += 1;
            let ms = s.latency.as_secs_f64() * 1e3;
            phase.ops.push(Op {
                item: s.item,
                ns: s.latency.as_nanos() as u64,
                cpu_ns: 0,
                bytes: s.bytes,
            });
            session_ms.push(ms);
            if let Some(&(q, r)) = server.get(&s.name) {
                queued.push(q);
                run.push(r);
                control.push(ms - q - r);
            }
        }
        phase.wall = active;
        phase.named = vec![
            (
                "session_ms.p50".into(),
                quantile(session_ms.clone(), 0.5),
                "ms",
            ),
            ("session_ms.p99".into(), quantile(session_ms, 0.99), "ms"),
            (
                "sessions_per_s".into(),
                phase.ops.len() as f64 / active.as_secs_f64(),
                "1/s",
            ),
        ];
        if traced {
            phase.layers = vec![
                ("serve.queued_ms.p50", quantile(queued.clone(), 0.5)),
                ("serve.queued_ms.p99", quantile(queued, 0.99)),
                ("serve.run_ms.p50", quantile(run, 0.5)),
                ("serve.control_ms.p50", quantile(control, 0.5)),
                ("serve.pool_busy_peak", busy_peak as f64),
                ("serve.inflight_peak", inflight_peak as f64),
            ];
            let attempts = sent.len() as u64;
            phase.checks = vec![(
                format!(
                    "sessions: {attempts} sent, {submitted} submitted, {completed} completed, {ok} replies correct"
                ),
                attempts == submitted && submitted == completed && completed == ok,
            )];
        }
        phase
    }
}

/// One closed-loop client: submits the next trace of the seed's order,
/// waits for the reply, checks it, repeats until the epoch's sessions are
/// taken or the budget is spent.
fn client(
    st: &State,
    next: &AtomicUsize,
    end: usize,
    started: Instant,
    budget: Duration,
    socket: &Path,
    mut tr: Tracer,
) -> (Vec<Sent>, Tracer) {
    let mut out = Vec::new();
    loop {
        if started.elapsed() >= budget && next.load(Ordering::Relaxed) > 0 {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= end {
            break;
        }
        let item = st.order[i % st.order.len()];
        let trace = &st.corpus.traces[item];
        let name = format!("s{i}");
        let t0 = Instant::now();
        let span = tr.begin("serve.session");
        let reply = client_submit(socket, &name, "", &mut &trace.bytes[..]);
        tr.end(span);
        let latency = t0.elapsed();
        let error = match reply {
            Err(e) => Some(e.to_string()),
            Ok(r) if r != trace.report => Some(format!(
                "reply differs from ingest_bytes + analyze_records: {}",
                r.lines().next().unwrap_or("")
            )),
            Ok(_) => None,
        };
        out.push(Sent {
            item,
            name,
            latency,
            bytes: trace.bytes.len() as u64,
            error,
        });
    }
    (out, tr)
}

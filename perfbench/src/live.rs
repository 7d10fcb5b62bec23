//! `live-held`: the live service over loopback TCP with one server held.
//!
//! Three `serve_tcp` nodes of the space-optimal construction at
//! `(k, f, n) = (8, 1, 3)` run in this process; two closed-loop client
//! threads (no more than the two cores the figures were taken on) each run
//! a `LiveClient` that alternately writes a distinct value and reads the
//! register back, holding server 0 (`ClientOptions::hold_servers = [0]`):
//! one unresponsive server, within the `f = 1` the construction tolerates.
//!
//! A run is split into segments; each boots a fresh cluster (the set-up
//! that `setup_s` times), runs the clients, then — outside the timed window
//! — checks the clients' conformance history with both checkers and shuts
//! the cluster down.

use crate::probe::{Probe, TracedProtocol, TracedTransport};
use crate::stats::{derive_seed, median, ratio, rss_mb};
use crate::{Args, Report};
use regemu_bounds::Params;
use regemu_core::wire::{decode_frame, WireMsg};
use regemu_core::EmulationKind;
use regemu_fpsm::{ClientId, HighOp, ObjectId, ServerId, ServerNode, Topology};
use regemu_serve::{
    serve_tcp, ClientOptions, LiveClient, ServeError, ServerHandle, TcpTransport, Transport,
};
use regemu_workloads::conform::{check_history, merge_logs, ConformRecorder};
use regemu_workloads::ConsistencyCheck;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const K: usize = 8;
const F: usize = 1;
const N: usize = 3;
/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Untraced segments per run, each on a freshly booted cluster.
const SEGMENTS: u32 = 24;

fn params() -> Params {
    Params::new(K, F, N).expect("(8, 1, 3) is a valid point")
}

fn options() -> ClientOptions {
    ClientOptions {
        hold_servers: vec![0],
        ..ClientOptions::default()
    }
}

/// How long a segment's clients keep issuing operations.
#[derive(Clone, Copy)]
enum Budget {
    /// Until the segment's deadline.
    For(Duration),
    /// Exactly this many operations per client.
    Ops([u64; CLIENTS]),
}

/// What one client thread did.
#[derive(Default)]
struct ClientRun {
    latencies_us: Vec<f64>,
    attempted: u64,
    timeouts: u64,
    errors: u64,
}

/// What one segment did.
struct Segment {
    setup_s: f64,
    run_s: f64,
    /// Resident memory when the clients stopped (MiB).
    serving_rss_mb: Option<f64>,
    clients: Vec<ClientRun>,
    server_requests: u64,
    server_faults: u64,
    /// The conformance verdict failed, with the reason.
    nonconforming: Option<String>,
}

impl Segment {
    fn ops(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.latencies_us.len() as u64)
            .sum()
    }

    fn failures(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.timeouts + c.errors)
            .sum::<u64>()
            + self.server_faults
    }
}

fn topology() -> Topology {
    EmulationKind::SpaceOptimal
        .build(params())
        .topology()
        .clone()
}

fn boot(topology: &Topology) -> Result<Vec<ServerHandle>, ServeError> {
    let listen: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
    (0..N)
        .map(|s| serve_tcp(ServerNode::new(topology, ServerId::new(s)), listen, None))
        .collect()
}

/// Sum of `field` over the servers' counters.
fn server_total(handles: &[ServerHandle], field: fn(&regemu_core::wire::NodeStats) -> u64) -> u64 {
    handles.iter().map(|h| field(&h.stats())).sum()
}

/// Connects client `index`, waits for the start, then runs its budget.
#[allow(clippy::too_many_arguments)]
fn client(
    index: usize,
    seed: u64,
    addrs: &[SocketAddr],
    options: ClientOptions,
    recorder: Arc<ConformRecorder>,
    ready: &Barrier,
    go: &Barrier,
    budget: Budget,
    probe: Option<Arc<Probe>>,
) -> ClientRun {
    let mut run = ClientRun::default();
    let emulation = EmulationKind::SpaceOptimal.build(params());
    let mut protocol = emulation.writer_protocol(index);
    let mut transports: Vec<Option<Box<dyn Transport>>> = Vec::with_capacity(addrs.len());
    for (server, &addr) in addrs.iter().enumerate() {
        let transport = TcpTransport::connect(addr, options.connect_timeout)
            .ok()
            .map(|t| Box::new(t) as Box<dyn Transport>);
        transports.push(match (&probe, transport) {
            (Some(probe), Some(t)) => Some(TracedTransport::wrap(t, server, Arc::clone(probe))),
            (_, t) => t,
        });
    }
    if let Some(probe) = &probe {
        protocol = TracedProtocol::wrap(protocol, Arc::clone(probe));
    }
    let live = LiveClient::new(
        emulation.topology().clone(),
        ClientId::new(index),
        protocol,
        transports,
        options,
    );
    ready.wait();
    go.wait();
    let mut live = match live {
        Ok(live) => live.with_recorder(recorder, index),
        Err(_) => {
            run.errors += 1;
            return run;
        }
    };
    // Distinct values: the seed's bits above, the client and a counter below.
    let base = (derive_seed(seed, index as u64) & 0xFFFF_F000_0000_0000) | ((index as u64) << 40);
    let started = Instant::now();
    for i in 0u64.. {
        let more = match budget {
            Budget::For(d) => started.elapsed() < d,
            Budget::Ops(counts) => i < counts[index],
        };
        if !more {
            break;
        }
        let op = if i % 2 == 0 {
            HighOp::Write(base | (i / 2 + 1))
        } else {
            HighOp::Read
        };
        run.attempted += 1;
        let t = Instant::now();
        match live.run_op(op) {
            Ok(_) => run.latencies_us.push(t.elapsed().as_secs_f64() * 1e6),
            // A timed-out operation stays pending and poisons the client.
            Err(ServeError::Timeout { .. }) => {
                run.timeouts += 1;
                break;
            }
            Err(_) => {
                run.errors += 1;
                break;
            }
        }
    }
    run
}

/// Boots a cluster, runs the clients for `budget`, checks conformance and
/// shuts the cluster down.
fn segment(seed: u64, budget: Budget, probe: Option<&Arc<Probe>>) -> Result<Segment, String> {
    let t = Instant::now();
    let topology = topology();
    let handles = boot(&topology).map_err(|e| format!("boot: {e}"))?;
    let addrs: Vec<SocketAddr> = handles
        .iter()
        .map(|h| h.local_addr().expect("TCP servers have an address"))
        .collect();
    let recorder = Arc::new(ConformRecorder::new());
    let ready = Barrier::new(CLIENTS + 1);
    let go = Barrier::new(CLIENTS + 1);
    let client_probes: Vec<Option<Arc<Probe>>> =
        (0..CLIENTS).map(|_| probe.map(|_| Probe::new())).collect();
    let requests_before = server_total(&handles, |s| s.requests);
    let faults_before = server_total(&handles, |s| s.faults);
    let (setup_s, run_s, clients) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|index| {
                let (addrs, recorder, ready, go) = (&addrs, &recorder, &ready, &go);
                let probe = client_probes[index].clone();
                scope.spawn(move || {
                    client(
                        index,
                        seed,
                        addrs,
                        options(),
                        Arc::clone(recorder),
                        ready,
                        go,
                        budget,
                        probe,
                    )
                })
            })
            .collect();
        ready.wait();
        let setup_s = t.elapsed().as_secs_f64();
        go.wait();
        let started = Instant::now();
        let clients: Vec<ClientRun> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        (setup_s, started.elapsed().as_secs_f64(), clients)
    });
    // Resident memory at the end of the serving window, before the
    // conformance check (benchmark-side work) allocates anything.
    let serving_rss_mb = rss_mb();
    let server_requests = server_total(&handles, |s| s.requests) - requests_before;
    let server_faults = server_total(&handles, |s| s.faults) - faults_before;
    for handle in handles {
        handle.join().map_err(|e| format!("shutdown: {e}"))?;
    }
    if let Some(total) = probe {
        for p in client_probes.iter().flatten() {
            total.absorb(p);
        }
    }
    let history = merge_logs(&[recorder.to_log()]);
    let verdict = check_history(&history, ConsistencyCheck::WsRegular);
    let attempted: u64 = clients.iter().map(|c| c.attempted).sum();
    let nonconforming = if !verdict.is_consistent() || !verdict.agrees() {
        Some(format!("conformance: {verdict}"))
    } else if history.len() as u64 != attempted {
        Some(format!(
            "conformance history holds {} ops, {attempted} were attempted",
            history.len()
        ))
    } else {
        None
    };
    Ok(Segment {
        setup_s,
        run_s,
        serving_rss_mb,
        clients,
        server_requests,
        server_faults,
        nonconforming,
    })
}

/// Adds a segment's counts to the report and flags what went wrong.
fn account(report: &mut Report, seg: &Segment) {
    report.attempted += seg.clients.iter().map(|c| c.attempted).sum::<u64>();
    report.failed += seg.failures();
    if seg.failures() > 0 {
        report.wrong(format!(
            "{} timeouts, {} errors, {} server faults",
            seg.clients.iter().map(|c| c.timeouts).sum::<u64>(),
            seg.clients.iter().map(|c| c.errors).sum::<u64>(),
            seg.server_faults
        ));
    }
    if let Some(why) = &seg.nonconforming {
        report.wrong(why.clone());
    }
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return run_traced(args);
    }
    let mut report = Report::new();
    let (mut setups, mut rates, mut latencies_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut serving_rss: Vec<f64> = Vec::new();
    let length = args.seconds / SEGMENTS;
    for s in 0..SEGMENTS {
        let seed = derive_seed(args.seed, u64::from(s));
        match segment(seed, Budget::For(length), None) {
            Ok(seg) => {
                account(&mut report, &seg);
                setups.push(seg.setup_s);
                serving_rss.extend(seg.serving_rss_mb);
                rates.push(seg.ops() as f64 / seg.run_s);
                for c in seg.clients {
                    latencies_us.extend(c.latencies_us);
                }
            }
            Err(why) => {
                report.failed += 1;
                report.attempted += 1;
                report.wrong(why);
            }
        }
    }
    report.set("setup_s", median(&setups));
    // The service's own footprint: resident memory at the end of the first
    // serving window, before any conformance check (benchmark-side work
    // whose freed memory the allocator keeps) has run.
    if let Some(&first) = serving_rss.first() {
        report.set("peak_rss_mb", first);
    }
    // The clients wait on the held server's poll timer, not on the CPU, so
    // a plain median is steady.
    report.set("ops_per_s", median(&rates));
    latencies_us.sort_by(f64::total_cmp);
    report.set_percentile("lat_p50_us", &latencies_us, 0.5);
    report.set_percentile("lat_p90_us", &latencies_us, 0.9);
    report.note(format!(
        "{} ops over {SEGMENTS} segments of {CLIENTS} closed-loop clients; latency is one op",
        latencies_us.len()
    ));
    report
}

fn run_traced(args: &Args) -> Report {
    let mut report = Report::new();
    let total = Probe::new();
    let (mut untraced_s, mut traced_s, mut traced_unit_ns) = (0.0, 0.0, 0.0);
    let (mut ops, mut server_requests, mut server_faults, mut pairs) = (0u64, 0u64, 0u64, 0u64);
    let length = args.seconds / (2 * SEGMENTS);
    let started = Instant::now();
    while started.elapsed() < args.seconds {
        let seed = derive_seed(args.seed, pairs);
        pairs += 1;
        let untraced = match segment(seed, Budget::For(length), None) {
            Ok(seg) => seg,
            Err(why) => {
                report.wrong(why);
                continue;
            }
        };
        account(&mut report, &untraced);
        // The same inputs and op counts again, traced.
        let counts: [u64; CLIENTS] = std::array::from_fn(|i| untraced.clients[i].attempted);
        let probe = Probe::new();
        let traced = match segment(seed, Budget::Ops(counts), Some(&probe)) {
            Ok(seg) => seg,
            Err(why) => {
                report.wrong(why);
                continue;
            }
        };
        account(&mut report, &traced);
        for (i, c) in traced.clients.iter().enumerate() {
            if c.attempted != counts[i] {
                report.wrong(format!(
                    "traced client {i} attempted {} ops, untraced {}",
                    c.attempted, counts[i]
                ));
            }
        }
        untraced_s += untraced.run_s;
        traced_s += traced.run_s;
        traced_unit_ns += traced
            .clients
            .iter()
            .flat_map(|c| c.latencies_us.iter())
            .sum::<f64>()
            * 1e3;
        ops += traced.ops();
        server_requests += traced.server_requests;
        server_faults += traced.server_faults;
        total.absorb(&probe);
    }
    let ops_f = ops as f64;
    let sends = Probe::get(&total.sends) as f64;
    let recvs = Probe::get(&total.recvs) as f64;
    let hits = Probe::get(&total.recv_hits) as f64;
    let send_ns = Probe::get(&total.send_ns) as f64;
    let recv_ns = Probe::get(&total.recv_ns) as f64;
    let (encode_ns, decode_ns) = wire_replay(&total);
    let apply_ns = apply_replay(&total);
    let wire_ns = sends * encode_ns + hits * decode_ns;
    let proto_ns = total.proto_ns() as f64;
    report.set(
        "core.proto_calls_per_op",
        ratio(Probe::get(&total.proto_calls) as f64, ops_f),
    );
    report.set(
        "core.proto_ns_per_call",
        ratio(proto_ns, Probe::get(&total.proto_calls) as f64),
    );
    report.set("core.wire_ns_per_frame", (encode_ns + decode_ns) / 2.0);
    report.set("serve.recv_calls_per_op", ratio(recvs, ops_f));
    report.set("serve.recv_hit_ratio", ratio(hits, recvs));
    report.set("serve.recv_wait_us_per_op", ratio(recv_ns, ops_f) / 1e3);
    report.set("serve.send_ns_per_msg", ratio(send_ns, sends));
    report.set("serve.msgs_per_op", ratio(sends, ops_f));
    report.set(
        "serve.bytes_per_op",
        ratio(Probe::get(&total.send_bytes) as f64, ops_f),
    );
    report.set("serve.apply_ns_per_req", apply_ns);
    report.set(
        "serve.server_requests_per_op",
        ratio(server_requests as f64, ops_f),
    );
    report.set("serve.server_faults", server_faults as f64);
    // The traced unit: client-side op latency, summed over every op.
    crate::set_shares(
        &mut report,
        traced_unit_ns,
        &[
            ("self.core", proto_ns + wire_ns),
            ("self.serve", (send_ns + recv_ns - wire_ns).max(0.0)),
        ],
    );
    report.set("trace.overhead", ratio(traced_s, untraced_s) - 1.0);
    report.set("trace.unit_ms", ratio(traced_unit_ns, ops_f) / 1e6);
    report.note(format!(
        "{pairs} segment pairs: untraced for {:.2} s, then traced over the same op counts",
        length.as_secs_f64()
    ));
    report
}

/// Times encoding the sampled sent frames and decoding the sampled
/// received ones: `(ns per encode, ns per decode)`.
fn wire_replay(probe: &Probe) -> (f64, f64) {
    let sent: Vec<WireMsg> = probe
        .requests
        .lock()
        .expect("probe lock")
        .iter()
        .map(|(_, m)| *m)
        .collect();
    let received = probe.received.lock().expect("probe lock").clone();
    let t = Instant::now();
    for msg in &sent {
        std::hint::black_box(std::hint::black_box(msg).encode_frame());
    }
    let encode_ns = ratio(t.elapsed().as_nanos() as f64, sent.len() as f64);
    let frames: Vec<Vec<u8>> = received.iter().map(WireMsg::encode_frame).collect();
    let t = Instant::now();
    for frame in &frames {
        let decoded = decode_frame(std::hint::black_box(frame));
        std::hint::black_box(decoded.ok());
    }
    let decode_ns = ratio(t.elapsed().as_nanos() as f64, frames.len() as f64);
    (encode_ns, decode_ns)
}

/// Times `ServerNode::apply` over the sampled requests, each on a fresh
/// node of the server it was sent to: ns per request.
fn apply_replay(probe: &Probe) -> f64 {
    let topology = topology();
    let mut nodes: Vec<ServerNode> = (0..N)
        .map(|s| ServerNode::new(&topology, ServerId::new(s)))
        .collect();
    let requests: Vec<(usize, ObjectId, regemu_fpsm::BaseOp)> = probe
        .requests
        .lock()
        .expect("probe lock")
        .iter()
        .filter_map(|&(server, msg)| match msg {
            WireMsg::Request { object, op, .. } => {
                Some((server, ObjectId::new(object as usize), op))
            }
            _ => None,
        })
        .collect();
    let t = Instant::now();
    for (server, object, op) in &requests {
        std::hint::black_box(nodes[*server].apply(*object, op).ok());
    }
    ratio(t.elapsed().as_nanos() as f64, requests.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regemu_fpsm::HighResponse;
    use regemu_serve::serve_channel;

    /// A writer and a reader over in-process servers, optionally through
    /// the decorators: the responses they see.
    fn write_then_read(probe: Option<&Arc<Probe>>) -> Vec<HighResponse> {
        let topology = topology();
        let cluster: Vec<_> = (0..N)
            .map(|s| serve_channel(ServerNode::new(&topology, ServerId::new(s)), None).unwrap())
            .collect();
        let emulation = EmulationKind::SpaceOptimal.build(params());
        let connect = || -> Vec<Option<Box<dyn Transport>>> {
            cluster
                .iter()
                .enumerate()
                .map(|(server, (_, connector))| {
                    let t: Box<dyn Transport> = Box::new(connector.connect().unwrap());
                    Some(match probe {
                        Some(p) => TracedTransport::wrap(t, server, Arc::clone(p)),
                        None => t,
                    })
                })
                .collect()
        };
        let wrap = |protocol| match probe {
            Some(p) => TracedProtocol::wrap(protocol, Arc::clone(p)),
            None => protocol,
        };
        let mut responses = Vec::new();
        for (index, op) in [HighOp::Write(7), HighOp::Read].into_iter().enumerate() {
            let mut client = LiveClient::new(
                topology.clone(),
                ClientId::new(index),
                wrap(emulation.writer_protocol(index)),
                connect(),
                options(),
            )
            .unwrap();
            responses.push(client.run_op(op).unwrap());
        }
        for (handle, _) in cluster {
            handle.join().unwrap();
        }
        responses
    }

    #[test]
    fn traced_live_clients_see_the_same_responses() {
        let plain = write_then_read(None);
        let probe = Probe::new();
        let traced = write_then_read(Some(&probe));
        assert_eq!(plain, traced);
        assert_eq!(
            traced,
            vec![HighResponse::WriteAck, HighResponse::ReadValue(7)]
        );
        let sends = Probe::get(&probe.sends);
        assert!(sends > 0);
        assert_eq!(probe.requests.lock().unwrap().len() as u64, sends);
        assert!(Probe::get(&probe.recv_hits) > 0);
        assert!(Probe::get(&probe.recvs) >= Probe::get(&probe.recv_hits));
        assert!(Probe::get(&probe.proto_calls) >= 2);
        assert!(apply_replay(&probe) > 0.0);
        let (encode, decode) = wire_replay(&probe);
        assert!(encode > 0.0 && decode > 0.0);
    }
}

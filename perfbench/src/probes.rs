//! Fixed-count probes of single layers, timed from outside through their
//! public functions. They do not depend on the workload: each is the
//! layer's floor on this host, next to the workload's own spans, and the
//! noisy-host canary when an end-to-end number moves and no span does.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crossbeam::channel::bounded;
use crossbeam::deque::Worker;
use strand_core::{match_args, Frame, NodeId, SharedStore, Store, Term, VarId};
use strand_machine::{ForeignLib, MachineConfig, StoreHandle};
use strand_parallel::ResidentHandle;
use strand_parse::{compile_program, parse_program, parse_term};

use crate::metrics::Values;
use crate::stats::{median, percentile, us};

/// Store / channel / deque cycles per probe. 200 k keeps each probe under
/// ~50 ms and its store under ~10 MB, and is far past the point where the
/// per-cycle time stops depending on the count.
const CYCLES: u32 = 200_000;

/// Nanoseconds per cycle: median of three timings of `cycles` calls.
fn ns_per_cycle(cycles: u32, mut run: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_nanos() as f64 / f64::from(cycles)
        })
        .collect();
    median(&samples)
}

/// One `SharedStore` worker: allocate, bind and read back in its own
/// stripe, then read variable 0 of the *other* stripe — the cross-stripe
/// lock every remote dereference takes.
fn shared_cycles(store: &SharedStore, owner: u32, cycles: u32) {
    let remote = Term::Var(VarId::tagged(1 - owner, 0));
    for i in 0..cycles {
        let x = store.new_var(owner);
        store
            .bind(x, Term::int(i64::from(i)), 0, NodeId(owner))
            .expect("fresh variable binds");
        black_box(store.deref(&Term::Var(x)));
        black_box(store.deref(&remote));
    }
}

/// The probes every traced run takes: `strand-core`, `vendor/crossbeam`
/// and the request-line parse.
pub fn layer_floor(v: &mut Values) {
    v.set("host.parallelism", crate::stats::host_parallelism() as f64);

    v.set(
        "core.store_cycle_ns",
        ns_per_cycle(CYCLES, || {
            let mut s = Store::new();
            for i in 0..CYCLES {
                let x = s.new_var();
                s.bind(x, Term::int(i64::from(i)), 0, NodeId(0))
                    .expect("fresh variable binds");
                black_box(s.deref(&Term::Var(x)));
            }
        }),
    );
    // The same cycle through the enum the machine holds its store in: the
    // difference is the re-dispatch on every call.
    v.set(
        "core.handle_cycle_ns",
        ns_per_cycle(CYCLES, || {
            let mut s = StoreHandle::Local(Store::new());
            for i in 0..CYCLES {
                let x = s.new_var();
                s.bind(x, Term::int(i64::from(i)), 0, NodeId(0))
                    .expect("fresh variable binds");
                black_box(s.deref(&Term::Var(x)));
            }
        }),
    );
    let fresh_shared = || {
        let store = SharedStore::new(2);
        store.new_var(0);
        store.new_var(1);
        store
    };
    v.set(
        "core.shared_cycle_ns_1t",
        ns_per_cycle(CYCLES, || shared_cycles(&fresh_shared(), 0, CYCLES)),
    );
    // Two threads, one stripe each: what is added to the 1-thread figure
    // is stripe-lock wait and cache-line traffic.
    v.set(
        "core.shared_cycle_ns_2t",
        ns_per_cycle(CYCLES, || {
            let store = fresh_shared();
            std::thread::scope(|scope| {
                scope.spawn(|| shared_cycles(&store, 1, CYCLES));
                shared_cycles(&store, 0, CYCLES);
            });
        }),
    );

    let rule = compile_program(
        &parse_program("p(tree(Op, L, R), V) :- q(Op, L, R, V).").expect("probe rule parses"),
    )
    .expect("probe rule compiles");
    let rule = &rule.get("p", 2).expect("p/2 compiled").rules[0];
    let mut store = Store::new();
    let goal = [
        Term::tuple(
            "tree",
            vec![
                Term::int(3),
                Term::tuple("leaf", vec![Term::int(1)]),
                Term::tuple("leaf", vec![Term::int(2)]),
            ],
        ),
        Term::Var(store.new_var()),
    ];
    let mut frame = Frame::with_locals(rule.n_locals);
    v.set(
        "core.match_args_ns",
        ns_per_cycle(CYCLES, || {
            for _ in 0..CYCLES {
                frame.reset(rule.n_locals);
                black_box(match_args(&goal, &rule.head, &store, &mut frame));
            }
        }),
    );

    v.set(
        "parse.request_line_ns",
        ns_per_cycle(CYCLES, || {
            for _ in 0..CYCLES {
                black_box(parse_term(black_box("123456")).expect("an integer parses"));
            }
        }),
    );

    v.set(
        "channel.send_recv_ns_1t",
        ns_per_cycle(CYCLES, || {
            let (tx, rx) = bounded::<u64>(1024);
            for i in 0..CYCLES {
                tx.send(u64::from(i)).expect("receiver alive");
                black_box(rx.recv().expect("sender alive"));
            }
        }),
    );
    const ROUND_TRIPS: u32 = 5_000;
    // A cross-thread round trip, wake included: what every cross-shard hop
    // and every ingress wake rides on.
    v.set(
        "channel.pingpong_us_2t",
        ns_per_cycle(ROUND_TRIPS, || {
            let (to_peer, peer_in) = bounded::<u64>(1);
            let (to_us, us_in) = bounded::<u64>(1);
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    while let Ok(x) = peer_in.recv() {
                        if to_us.send(x).is_err() {
                            break;
                        }
                    }
                });
                for i in 0..ROUND_TRIPS {
                    to_peer.send(u64::from(i)).expect("peer alive");
                    black_box(us_in.recv().expect("peer alive"));
                }
                drop(to_peer);
            });
        }) / 1e3,
    );
    v.set(
        "deque.push_pop_ns",
        ns_per_cycle(CYCLES, || {
            let w = Worker::new_fifo();
            for i in 0..CYCLES {
                w.push(i);
                black_box(w.pop());
            }
        }),
    );
    v.set(
        "deque.steal_ns",
        ns_per_cycle(CYCLES, || {
            let w = Worker::new_fifo();
            let s = w.stealer();
            for i in 0..CYCLES {
                w.push(i);
                black_box(s.steal().success());
            }
        }),
    );
}

/// Wake → reduce → token quiescence → park on a resident fleet, with no
/// `strand-serve` in the way: inject one trivial goal, wait for idle.
pub fn wake_park(v: &mut Values) {
    const WAKES: usize = 2_000;
    let program = parse_program("boot.\ntick(X) :- X := 1.\n").expect("probe program parses");
    let cfg = MachineConfig::with_nodes(4).parallel(crate::batch::PAR_THREADS);
    let handle = ResidentHandle::start(&program, "boot", cfg, &ForeignLib::new())
        .expect("resident probe boots");
    assert!(
        handle.wait_idle(Duration::from_secs(30)),
        "probe never idled"
    );
    let mut ns = Vec::with_capacity(WAKES);
    for k in 0..WAKES {
        let t0 = Instant::now();
        handle.with_ingress(|m| {
            let x = Term::Var(m.store_mut().new_var());
            m.inject(Term::tuple("tick", vec![x]), 1 + (k % 4) as i64);
        });
        // `wait_idle` sleeps 200 µs between polls; yield instead so the
        // figure is the fleet's, not the poll's.
        while !handle.is_idle() {
            std::thread::yield_now();
        }
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    handle.shutdown().expect("resident probe shuts down");
    ns.sort_unstable();
    v.set("parallel.wake_park_us_p50", us(percentile(&ns, 0.5)));
}

/// A bare thread-per-connection line echo over loopback: the socket floor
/// under `strand-serve`, with the same client threads as the workloads.
pub fn loopback_echo(v: &mut Values, clients: usize) {
    const ROUND_TRIPS: usize = 4_000;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let start = Arc::new(Barrier::new(clients));
    let mut ns: Vec<u64> = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut echoes = Vec::new();
            for _ in 0..clients {
                let (stream, _) = listener.accept().expect("accept echo client");
                echoes.push(scope.spawn(move || {
                    let _ = stream.set_nodelay(true);
                    let mut writer = stream.try_clone().expect("clone echo stream");
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                        if writer.write_all(line.as_bytes()).is_err() {
                            break;
                        }
                        line.clear();
                    }
                }));
            }
        });
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let start = Arc::clone(&start);
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect to echo");
                    let _ = stream.set_nodelay(true);
                    let mut writer = stream.try_clone().expect("clone client stream");
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    let mut ns = Vec::with_capacity(ROUND_TRIPS);
                    start.wait();
                    for _ in 0..ROUND_TRIPS {
                        let t0 = Instant::now();
                        writer.write_all(b"123456\n").expect("echo write");
                        line.clear();
                        reader.read_line(&mut line).expect("echo read");
                        ns.push(t0.elapsed().as_nanos() as u64);
                    }
                    ns
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("echo client"))
            .collect()
    });
    ns.sort_unstable();
    v.set("net.loopback_echo_us_p50", us(percentile(&ns, 0.5)));
}

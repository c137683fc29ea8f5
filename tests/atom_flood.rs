//! A client cannot fill the symbol table (DESIGN.md §6 "Symbols", §9).
//!
//! Atoms are never freed, so every distinct name a client sends is pinned
//! for the life of the process. This test floods a resident service with
//! fresh names over its socket until `Atom::try_new` starts refusing them,
//! and checks the refusal is an `ERR` on a connection that keeps serving,
//! that growth stopped exactly at the untrusted limit, and that the reserve
//! above it is still there for the program's own names.
//!
//! The table is process-global, which is why this is a test binary of its
//! own with a single test: nothing else may intern while it counts.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use algorithmic_motifs::strand_core::atom::{table_len, CAPACITY, UNTRUSTED_RESERVE};
use algorithmic_motifs::strand_core::Atom;
use algorithmic_motifs::strand_serve::{serve, MotifService, ServeBackend, ServeConfig, ECHO_APP};

/// Fresh names per request line: ~9 KB, well under the 64 KiB cap.
const PER_REQUEST: usize = 1000;

#[test]
fn a_flood_of_fresh_atoms_is_refused_at_the_reserve_and_the_service_keeps_serving() {
    let cfg = ServeConfig {
        servers: 2,
        backend: ServeBackend::Parallel(1),
        ..ServeConfig::default()
    };
    let service = MotifService::start(ECHO_APP, cfg).expect("service boots");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("ephemeral addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let serve_thread = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || serve(listener, service, shutdown, Duration::from_secs(10)))
    };
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("client timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut ask = |request: &str| {
        writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send request");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        line.trim().to_string()
    };

    let limit = CAPACITY - UNTRUSTED_RESERVE;
    assert!(table_len() < limit / 2, "the program itself is small");
    let mut sent = 0usize;
    let refusal = loop {
        let names: Vec<String> = (sent..sent + PER_REQUEST)
            .map(|i| format!("f{i:07}"))
            .collect();
        sent += PER_REQUEST;
        let reply = ask(&format!("[{}]", names.join(",")));
        if !reply.starts_with("OK ") {
            break reply;
        }
        assert!(sent <= CAPACITY, "the table never refused: {sent} names in");
    };
    assert!(refusal.starts_with("ERR atom: "), "{refusal}");
    assert!(refusal.contains("full"), "{refusal}");
    assert_eq!(table_len(), limit, "growth stops exactly at the reserve");

    // Known names still work — the engine's own, and ones the flood got in.
    assert_eq!(ask("ok(f0000000, [yes, no])"), "OK ok(f0000000,[yes,no])");
    // New names keep being refused, one at a time, and nothing grows.
    for k in 0..3 {
        let reply = ask(&format!("never_seen_{k}"));
        assert!(reply.starts_with("ERR atom: "), "{reply}");
    }
    assert_eq!(ask("21"), "OK 21");
    assert_eq!(table_len(), limit);

    // The reserve is the program's: trusted interning still succeeds.
    let mine = Atom::new("flood_trusted_name");
    assert_eq!(mine.as_str(), "flood_trusted_name");
    assert_eq!(table_len(), limit + 1);

    drop((reader, writer));
    shutdown.store(true, Ordering::Release);
    let summary = serve_thread
        .join()
        .expect("serve loop joins")
        .expect("serve loop exits cleanly");
    assert_eq!(summary.report.metrics.sessions_closed, 1);
}

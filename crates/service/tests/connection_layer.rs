//! Reactor shutdown regression: a `/shutdown` arriving while hundreds
//! of keep-alive connections sit parked and several requests are in
//! flight must (a) answer every in-flight request, (b) close every
//! parked connection with a clean EOF — never counted as aborted — and
//! (c) let `Server::wait()` return within a bounded time.

use an5d::SerialBackend;
use an5d_service::{Client, HttpResponse, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const PARKED: usize = 200;
const IN_FLIGHT: usize = 6;

/// Send one request on a raw socket and read the complete response, so
/// the reactor parks the connection afterwards. (The keep-alive client
/// would transparently reconnect after shutdown, hiding the EOF we want
/// to observe.)
fn park(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /devices HTTP/1.1\r\n\r\n")
        .expect("send");
    // Read headers up to the blank line, then exactly Content-Length
    // body bytes, leaving the connection idle between requests.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).expect("read head"), 1);
        head.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&head);
    assert!(head.starts_with("HTTP/1.1 200"), "parked request: {head}");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("length header")
        .trim()
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read body");
    stream
}

#[test]
fn shutdown_answers_in_flight_requests_and_cleanly_closes_parked_connections() {
    let server = Server::start_with_backend(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            cache_capacity: 64,
            // Long enough that no parked connection is reaped by the
            // idle timer mid-test: only shutdown may close them.
            keep_alive_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
        Arc::new(SerialBackend),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    let mut client = Client::one_shot(addr);

    // Park a few hundred idle keep-alive connections.
    let parked: Vec<TcpStream> = (0..PARKED).map(|_| park(addr)).collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = server.state().metrics().connections().snapshot();
        if snap.parked >= PARKED as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {} of {PARKED} connections parked",
            snap.parked
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Launch in-flight work, then shut down while it is executing: with
    // 2 workers most of these sit in the dispatch queue, which shutdown
    // must drain, not drop.
    let body = r#"{"benchmark":"j2d5pt","interior":[128,128],"steps":12,
                   "config":{"bt":2,"bs":[48],"precision":"double"}}"#;
    let barrier = Arc::new(Barrier::new(IN_FLIGHT + 1));
    let in_flight: Vec<_> = (0..IN_FLIGHT)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                Client::one_shot(addr).post("/execute", body)
            })
        })
        .collect();
    barrier.wait();
    std::thread::sleep(Duration::from_millis(30));

    let shutdown_at = Instant::now();
    let HttpResponse { status, .. } = client.post("/shutdown", "").expect("shutdown request");
    assert_eq!(status, 200);

    // Every in-flight request is answered in full.
    for (index, thread) in in_flight.into_iter().enumerate() {
        let HttpResponse { status, body, .. } = thread
            .join()
            .unwrap()
            .unwrap_or_else(|e| panic!("in-flight request {index} dropped: {e}"));
        assert_eq!(status, 200, "in-flight request {index}: {body}");
        assert!(body.contains("\"checksum\""), "in-flight request {index}");
    }

    // The reactor sweeps the parked set: open connections reach zero
    // and none of the closes count as aborted (the streams were idle
    // between requests — clean closes by definition).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = server.state().metrics().connections().snapshot();
        if snap.open == 0 {
            assert_eq!(snap.parked, 0, "parked gauge must drain with open");
            assert_eq!(
                snap.aborted, 0,
                "shutdown closes are orderly, never aborted"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shutdown left {} connections open ({} parked)",
            snap.open,
            snap.parked
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // wait() must join reactor + workers within a bounded time.
    let done = Arc::new(AtomicBool::new(false));
    let waiter = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            server.wait();
            done.store(true, Ordering::SeqCst);
        })
    };
    let join_deadline = Instant::now() + Duration::from_secs(10);
    while !done.load(Ordering::SeqCst) {
        assert!(
            Instant::now() < join_deadline,
            "Server::wait() did not return within 10s of shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    waiter.join().unwrap();
    assert!(
        shutdown_at.elapsed() < Duration::from_secs(25),
        "shutdown took {:?}",
        shutdown_at.elapsed()
    );

    // Every parked socket sees EOF, not an error and not a hang.
    for (index, mut stream) in parked.into_iter().enumerate() {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut sink = [0u8; 16];
        match stream.read(&mut sink) {
            Ok(0) => {}
            Ok(n) => panic!("parked connection {index}: unexpected {n} bytes after shutdown"),
            Err(e) => panic!("parked connection {index}: expected clean EOF, got {e}"),
        }
    }
}

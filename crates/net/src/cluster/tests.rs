//! The wake-up paths: every blocking wait in the runtime has a test
//! that hangs if its wake-up is lost. A hang is caught by
//! [`under_watchdog`], which names the phase that stuck; nothing here
//! asserts that something was *fast*.

use super::*;
use pbc_consensus::run_real;
use std::io::Read;
use std::sync::atomic::AtomicUsize;

/// Node threads alive in this process (see [`spawn`]).
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Counts one node thread live from entry to exit.
pub(super) struct Live;

impl Live {
    pub(super) fn enter() -> Live {
        LIVE.fetch_add(1, Ordering::SeqCst);
        Live
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

fn live() -> usize {
    LIVE.load(Ordering::SeqCst)
}

/// `LIVE` is process-wide and `cargo test` runs tests on parallel
/// threads: every test that starts node threads holds this.
static SERIAL: Mutex<()> = Mutex::new(());

/// Far beyond anything a healthy run needs; only a lost wake-up gets
/// here.
const STUCK: Duration = Duration::from_secs(120);

/// What the test body is doing, for the watchdog's message.
#[derive(Clone, Default)]
struct Phase(Arc<Mutex<String>>);

impl Phase {
    fn at(&self, what: impl Into<String>) {
        *self.0.lock().unwrap() = what.into();
    }
}

/// Runs `body` on a thread of its own while this one is the watchdog:
/// a body that neither finishes nor panics within [`STUCK`] fails the
/// test with the phase it hung in, instead of hanging the run.
fn under_watchdog(body: impl FnOnce(&Phase) + Send + 'static) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(live(), 0, "an earlier test left node threads behind");
    let phase = Phase::default();
    let (done_tx, done_rx) = mpsc::channel();
    let worker = thread::spawn({
        let phase = phase.clone();
        move || {
            body(&phase);
            let _ = done_tx.send(());
        }
    });
    match done_rx.recv_timeout(STUCK) {
        Err(RecvTimeoutError::Timeout) => panic!("stuck in: {}", phase.0.lock().unwrap()),
        // Finished, or panicked (the sender dropped): join reports which.
        _ => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

fn pbft(n: usize, cfg: NetConfig) -> RealHandle<u64> {
    run_real::<u64, _>("pbft", n, NetRunner { cfg })
        .expect("pbft is wire-capable")
        .expect("localhost cluster boots")
}

/// Spins (yielding) until `cond` holds; the watchdog bounds it.
fn until(cond: impl Fn() -> bool) {
    while !cond() {
        thread::yield_now();
    }
}

#[test]
fn genesis_digest_separates_clusters() {
    let a = genesis_digest("pbft", 4, 1);
    assert_eq!(a, genesis_digest("pbft", 4, 1));
    assert_ne!(a, genesis_digest("pbft", 4, 2));
    assert_ne!(a, genesis_digest("pbft", 5, 1));
    assert_ne!(a, genesis_digest("ibft", 4, 1));
}

// ---- the decided feed ----

#[test]
fn feed_wait_returns_at_once_when_the_target_is_met() {
    let feed = Feed::<u64>::new();
    feed.publish(&[(0, 7, 0), (1, 8, 0)]);
    assert!(feed.wait(0, Duration::ZERO));
    assert!(feed.wait(2, Duration::ZERO));
    assert!(!feed.wait(3, Duration::ZERO));
}

#[test]
fn feed_wait_without_a_publication_lasts_the_whole_timeout() {
    let feed = Feed::<u64>::new();
    let timeout = Duration::from_millis(30);
    let t = Instant::now();
    assert!(!feed.wait(1, timeout));
    assert!(t.elapsed() >= timeout, "gave up after {:?}", t.elapsed());
}

#[test]
fn one_publication_wakes_waiters_on_different_targets() {
    let feed = Arc::new(Feed::<u64>::new());
    let (returned_tx, returned_rx) = mpsc::channel();
    let waiters: Vec<_> = [1usize, 2]
        .into_iter()
        .map(|target| {
            let (feed, returned) = (feed.clone(), returned_tx.clone());
            thread::spawn(move || {
                assert!(feed.wait(target, STUCK), "waiter for {target} timed out");
                returned.send(target).unwrap();
            })
        })
        .collect();
    // One entry satisfies the first waiter only: the second is woken by
    // the same notification, re-checks, and goes back to waiting.
    feed.publish(&[(0, 7, 0)]);
    assert_eq!(returned_rx.recv_timeout(STUCK), Ok(1));
    assert!(returned_rx.try_recv().is_err(), "one entry cannot satisfy a wait for two");
    feed.publish(&[(1, 8, 0)]);
    assert_eq!(returned_rx.recv_timeout(STUCK), Ok(2));
    for waiter in waiters {
        waiter.join().unwrap();
    }
}

// ---- stop reaches every thread, and every thread is joined ----

#[test]
fn no_node_thread_outlives_shutdown_or_a_kill_and_reboot() {
    under_watchdog(|phase| {
        phase.at("boot + decide");
        let mut cluster = pbft(4, NetConfig::default());
        cluster.submit(1);
        assert!(cluster.wait_all_decided(1, STUCK));
        assert!(live() > 0, "the counter must see the node threads");
        phase.at("shutdown");
        cluster.shutdown();
        assert_eq!(live(), 0, "shutdown must join every thread it started");

        phase.at("second boot + decide");
        let mut cluster = pbft(4, NetConfig::default());
        cluster.submit(1);
        assert!(cluster.wait_all_decided(1, STUCK));
        phase.at("kill(2)");
        cluster.kill(2);
        phase.at("reboot(2) + decide");
        cluster.reboot(2).expect("reboot binds a fresh listener");
        cluster.submit(2);
        for node in [0, 1, 3] {
            assert!(cluster.wait_decided(node, 2, STUCK), "node {node} stalled after the reboot");
        }
        phase.at("shutdown after reboot");
        cluster.shutdown();
        assert_eq!(live(), 0, "kill + reboot + shutdown must join every thread");
    });
}

#[test]
fn a_connection_that_never_says_hello_does_not_hold_kill() {
    under_watchdog(|phase| {
        phase.at("boot");
        let mut cluster = pbft(1, NetConfig::default());
        let mut silent = TcpStream::connect(cluster.addr(0)).expect("connect");
        // A one-node cluster is a listener and a node loop; the third
        // thread is the reader of the silent connection.
        phase.at("waiting for the reader thread to start");
        until(|| live() == 3);
        phase.at("kill(0) with a reader blocked on the silent connection");
        cluster.kill(0);
        assert_eq!(live(), 0, "the blocked reader must have been woken and joined");
        // Our end sees the node's shutdown: end of stream or a reset.
        phase.at("reading the silent connection's end");
        let mut byte = [0u8; 1];
        assert!(matches!(silent.read(&mut byte), Ok(0) | Err(_)));
    });
}

#[test]
fn kill_does_not_wait_out_a_dialer_backoff() {
    under_watchdog(|phase| {
        // A backoff no test run outlives: `shutdown` returns only if a
        // dialer waits it out on its channel, where stop reaches it.
        let forever = Duration::from_secs(24 * 3600);
        let cfg = NetConfig { backoff: forever, backoff_max: forever, ..NetConfig::default() };
        phase.at("boot + decide");
        let mut cluster = pbft(4, cfg);
        cluster.submit(0);
        assert!(cluster.wait_all_decided(1, STUCK));
        let dials_at_boot = cluster.stats().dials;
        phase.at("kill(3)");
        cluster.kill(3);
        // Traffic towards the dead node until all three survivors have
        // had a write fail and a re-dial refused: each is in backoff now.
        phase.at("driving the survivors' links to node 3 into backoff");
        let mut sent = 1;
        while cluster.stats().dials < dials_at_boot + 3 {
            cluster.submit(sent as u64);
            sent += 1;
            assert!(cluster.wait_decided(0, sent, STUCK), "the quorum of three must decide");
        }
        phase.at("shutdown with three dialers in backoff");
        cluster.shutdown();
        assert_eq!(live(), 0);
    });
}

#[test]
fn fifty_boots_lose_no_wakeup() {
    under_watchdog(|phase| {
        for round in 0..50u64 {
            phase.at(format!("round {round}: boot"));
            let mut cluster = pbft(4, NetConfig { seed: round, ..NetConfig::default() });
            phase.at(format!("round {round}: submit"));
            cluster.submit(round);
            phase.at(format!("round {round}: wait_all_decided"));
            assert!(cluster.wait_all_decided(1, STUCK), "round {round} did not decide");
            assert_eq!(cluster.decided(0)[0].1, round);
            phase.at(format!("round {round}: shutdown"));
            cluster.shutdown();
            assert_eq!(live(), 0, "round {round} left threads behind");
        }
    });
}

// ---- the dialer keeps what it could not send ----

/// A raw-socket stand-in for a peer node: accepts one connection and
/// answers the dialer's `Hello`.
fn accept_and_greet(listener: &TcpListener, genesis: u64) -> TcpStream {
    let (mut stream, _) = listener.accept().expect("accept");
    let hello = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("dialer's hello");
    assert_eq!(Hello::decode(&hello).expect("valid hello").genesis, genesis);
    let reply = Hello { genesis, node: 1 };
    write_frame(&mut stream, &reply.encode(), DEFAULT_MAX_FRAME).expect("hello reply");
    stream
}

fn numbered(k: u64) -> Frame {
    Arc::new(frame(&k.to_be_bytes(), DEFAULT_MAX_FRAME).expect("eight bytes fit"))
}

fn read_number(stream: &mut TcpStream) -> u64 {
    let body = read_frame(stream, DEFAULT_MAX_FRAME).expect("a numbered frame");
    u64::from_be_bytes(body.try_into().expect("eight bytes"))
}

#[test]
fn a_frame_in_hand_survives_the_peer_being_killed_and_rebooted() {
    under_watchdog(|phase| {
        let genesis = 0xFEED;
        let cfg = NetConfig {
            backoff: Duration::from_millis(2),
            backoff_max: Duration::from_millis(8),
            ..NetConfig::default()
        };
        let first = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addrs = Arc::new(Mutex::new(vec![
            "127.0.0.1:1".parse().expect("addr"), // node 0 is the dialer itself: never dialled
            first.local_addr().expect("addr"),
        ]));
        let (tx, rx) = mpsc::channel::<Frame>();
        let (conns, stats) = (Arc::new(Conns::default()), Arc::new(RealStats::default()));
        let dialer = {
            let (addrs, conns, stats) = (addrs.clone(), conns.clone(), stats.clone());
            spawn(move || dialer_loop(0, 1, addrs, rx, conns, genesis, cfg, stats))
        };

        phase.at("first connection");
        let mut peer = accept_and_greet(&first, genesis);
        tx.send(numbered(0)).unwrap();
        assert_eq!(read_number(&mut peer), 0);

        // The peer is killed between two submits. A write into the dead
        // socket may still succeed (the kernel takes the bytes; they are
        // lost to a reset, as on any TCP link), so frames go out until
        // one write fails and the re-dial is refused: the dialer is in
        // backoff, holding the frame whose write failed.
        phase.at("peer killed: sending until a write fails");
        drop(peer);
        drop(first);
        let mut queued = 1u64;
        while stats.snapshot().dials < 2 {
            tx.send(numbered(queued)).unwrap();
            queued += 1;
            thread::yield_now();
        }
        let taken_by_dead_sockets = stats.snapshot().frames_sent;
        // More arrive while it waits: buffered on the channel it waits on.
        for _ in 0..3 {
            tx.send(numbered(queued)).unwrap();
            queued += 1;
        }

        phase.at("peer rebooted on a fresh port: waiting for the re-dial");
        let second = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        addrs.lock().unwrap()[1] = second.local_addr().expect("addr");
        let mut peer = accept_and_greet(&second, genesis);
        let fence = queued;
        tx.send(numbered(fence)).unwrap();
        queued += 1;

        // Everything no socket had taken arrives, in order, starting with
        // the frame that was in hand when the write failed.
        phase.at("reading the flushed frames");
        let mut got = Vec::new();
        while got.last() != Some(&fence) {
            got.push(read_number(&mut peer));
        }
        assert_eq!(got, (taken_by_dead_sockets..=fence).collect::<Vec<_>>());
        // Each queued frame was taken by a socket exactly once. (The
        // dialer counts a write after making it, so the last count can
        // trail the read above.)
        phase.at("waiting for frames_sent to reach the number queued");
        until(|| stats.snapshot().frames_sent == queued);
        assert_eq!(stats.snapshot().reconnects, 1);

        phase.at("stopping the dialer by dropping its sender");
        drop(tx);
        dialer.join().unwrap();
        assert_eq!(live(), 0);
    });
}

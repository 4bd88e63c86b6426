//! The TCP cluster runtime: `OrderingActor`s over real sockets.
//!
//! One node is four kinds of thread stitched together with channels:
//!
//! * an **event loop** owning the actor — it receives decoded messages
//!   from an inbox channel, fires due timers from a
//!   [`TimerQueue`], and routes the actor's
//!   [`Effect`]s: `Send`/`Broadcast` become encoded frames pushed onto
//!   per-peer outbound channels (one encode per broadcast, shared
//!   behind an `Arc`), `Timer`/`CancelTimer` go to the timer queue, and
//!   self-delivery loops back through the inbox like any other message;
//! * a **listener** accepting inbound connections on `127.0.0.1:0`;
//! * per accepted connection, a **reader** that performs the
//!   [`Hello`] handshake, then decodes frames into actor messages;
//! * per peer, a **dialer/writer** that connects (and *re*connects,
//!   with exponential backoff) and pumps its outbound channel onto the
//!   socket.
//!
//! The actor code is byte-for-byte the code the simulator runs — it
//! sees the same `on_message`/`on_timer` callbacks and emits the same
//! effects; only the interpreter changed. That is the whole point:
//! a commit sequence produced here and one produced by the simulator
//! from the same seed can be compared row by row (`tests/real_net.rs`).
//!
//! Every thread blocks on the one event source it serves, and both its
//! work and its stop arrive through that source — no thread sleeps to
//! find out whether something happened. The node loop blocks on its
//! inbox (until the next timer deadline) and is stopped by an
//! `Event::Stop`; a dialer blocks on its outbound channel, also while
//! it waits out a backoff, and exits when the node loop drops the
//! sender; a reader blocks in `read` and is woken by `shutdown(Both)`
//! on the clone of its socket the node keeps registered; the listener
//! blocks in `accept` and is woken by a poke connection. A client
//! waiting for a decision blocks the same way, on the node's decided
//! feed. `kill` delivers the stop events and joins every thread the
//! node started, readers included (DESIGN.md §9 has the table). A
//! killed node's peers fall into their reconnect loops and the
//! surviving quorum keeps deciding — the liveness half of the §2.3.3
//! story, now observable on a real transport.

use crate::frame::{
    frame, read_frame, write_frame, Hello, WireError, CLIENT_NODE, DEFAULT_MAX_FRAME,
};
use crate::timer::TimerQueue;
use pbc_consensus::ordering::RealRuntime;
use pbc_consensus::wire::WireMsg;
use pbc_consensus::{ConsensusKind, OrderingActor, Payload};
use pbc_sim::actor::Effect;
use pbc_sim::{Context, NodeIdx, SimTime};
use pbc_store::write_full;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Config + stats
// ---------------------------------------------------------------------

/// Tuning knobs for a [`NetRunner`] cluster.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Seed folded into the genesis digest: two clusters with different
    /// seeds refuse each other's handshakes.
    pub seed: u64,
    /// Real duration of one logical tick ([`SimTime`] unit). Actor
    /// timeouts are specified in ticks; at the default 10 µs, PBFT's
    /// 50 000-tick progress timeout becomes 500 ms.
    pub tick: Duration,
    /// Frame-size cap enforced on both read and write.
    pub max_frame: usize,
    /// Initial reconnect backoff after a failed dial.
    pub backoff: Duration,
    /// Backoff ceiling (doubling stops here).
    pub backoff_max: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            seed: 0,
            tick: Duration::from_micros(10),
            max_frame: DEFAULT_MAX_FRAME,
            backoff: Duration::from_millis(20),
            backoff_max: Duration::from_millis(500),
        }
    }
}

/// Cumulative transport counters for a whole cluster (all nodes), all
/// monotone. Snapshot with [`RealHandle::stats`].
#[derive(Debug, Default)]
pub struct RealStats {
    dials: AtomicU64,
    reconnects: AtomicU64,
    handshakes_ok: AtomicU64,
    handshakes_rejected: AtomicU64,
    frames_sent: AtomicU64,
    frames_recv: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    decode_errors: AtomicU64,
    accept_errors: AtomicU64,
}

/// A point-in-time copy of [`RealStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RealStatsSnap {
    /// Connection attempts (initial dials and retries).
    pub dials: u64,
    /// Successful connections *after* a link's first one — each is a
    /// completed reconnect through the backoff path.
    pub reconnects: u64,
    /// Handshakes accepted (counted on both ends).
    pub handshakes_ok: u64,
    /// Handshakes refused: bad magic/version, wrong genesis, garbage.
    pub handshakes_rejected: u64,
    /// Message frames written to sockets.
    pub frames_sent: u64,
    /// Message frames decoded from sockets.
    pub frames_recv: u64,
    /// Bytes written (headers included).
    pub bytes_sent: u64,
    /// Bytes read (headers included).
    pub bytes_recv: u64,
    /// Frames that failed message decoding (connection dropped).
    pub decode_errors: u64,
    /// Inbound connections lost to a failed `accept` (or a socket that
    /// could not be registered); the listener keeps accepting.
    pub accept_errors: u64,
}

impl RealStats {
    fn snapshot(&self) -> RealStatsSnap {
        RealStatsSnap {
            dials: self.dials.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            handshakes_ok: self.handshakes_ok.load(Ordering::Relaxed),
            handshakes_rejected: self.handshakes_rejected.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_recv: self.frames_recv.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
        }
    }
}

/// Digest identifying one cluster: protocol registry name, size, and
/// seed, mixed splitmix-style. Handshakes carry it; mismatch refuses the
/// peer.
pub fn genesis_digest(protocol: &str, n: usize, seed: u64) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
    for b in protocol.bytes().chain((n as u64).to_be_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    }
    h
}

// ---------------------------------------------------------------------
// Node plumbing
// ---------------------------------------------------------------------

enum Event<M> {
    Deliver { from: NodeIdx, msg: M },
    Stop,
}

/// One encoded frame, shared by every peer link a broadcast goes to.
type Frame = Arc<Vec<u8>>;

/// A node's delivered log as its clients see it: `(seq, payload, decide
/// time)`, appended by the node loop, waited on by clients.
struct Feed<P> {
    log: Mutex<Vec<(u64, P, SimTime)>>,
    grew: Condvar,
}

impl<P: Clone> Feed<P> {
    fn new() -> Self {
        Feed { log: Mutex::new(Vec::new()), grew: Condvar::new() }
    }

    /// Appends newly delivered entries and wakes every waiter (they
    /// wait for different lengths, so each re-checks its own).
    fn publish(&self, entries: &[(u64, P, SimTime)]) {
        self.log.lock().expect("no panic under the feed lock").extend_from_slice(entries);
        self.grew.notify_all();
    }

    /// Blocks until the log holds `target` entries or `timeout` passes;
    /// true when it does.
    fn wait(&self, target: usize, timeout: Duration) -> bool {
        let log = self.log.lock().expect("no panic under the feed lock");
        let (_log, wait) = self
            .grew
            .wait_timeout_while(log, timeout, |log| log.len() < target)
            .expect("no panic under the feed lock");
        !wait.timed_out()
    }

    fn snapshot(&self) -> Vec<(u64, P, SimTime)> {
        self.log.lock().expect("no panic under the feed lock").clone()
    }
}

/// Every socket a node's threads may block on, so that stopping the
/// node is an event on each of them: [`Conns::close`] shuts every
/// registered clone down, which fails the blocked `read`/`write` on the
/// original, and refuses registration from then on — the listener and
/// the dialers learn that the node stopped from that refusal.
#[derive(Default)]
struct Conns {
    inner: Mutex<ConnsInner>,
}

#[derive(Default)]
struct ConnsInner {
    closed: bool,
    next_id: u64,
    open: HashMap<u64, TcpStream>,
}

/// Keeps one socket registered; dropping it (the owning thread is done
/// with the socket) releases the registry's clone.
struct ConnGuard {
    conns: Arc<Conns>,
    id: u64,
}

impl Conns {
    /// Every update leaves the registry valid, so a poisoned lock is
    /// recovered — `close` runs from `Drop`, which must not panic.
    fn lock(&self) -> MutexGuard<'_, ConnsInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a clone of `stream`. `Ok(None)` when the node has
    /// stopped; `Err` when the socket could not be cloned.
    fn register(self: &Arc<Self>, stream: &TcpStream) -> io::Result<Option<ConnGuard>> {
        let clone = stream.try_clone()?;
        let mut inner = self.lock();
        if inner.closed {
            return Ok(None);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.open.insert(id, clone);
        Ok(Some(ConnGuard { conns: self.clone(), id }))
    }

    fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        for (_, stream) in inner.open.drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.conns.lock().open.remove(&self.id);
    }
}

/// Starts one of a node's threads. Under test every such thread counts
/// itself live from entry to exit, which is how the tests see that
/// `kill` left none behind.
fn spawn(body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    thread::spawn(move || {
        #[cfg(test)]
        let _live = tests::Live::enter();
        body()
    })
}

struct Node<A: OrderingActor> {
    conns: Arc<Conns>,
    inbox: mpsc::Sender<Event<A::Msg>>,
    feed: Arc<Feed<A::Payload>>,
    /// The node loop and the dialers.
    joins: Vec<JoinHandle<()>>,
    /// The listener, which joins its readers before it returns.
    listener: Option<JoinHandle<()>>,
    down: bool,
}

/// Applies one callback's effects: encode-once fan-out to peer
/// channels, loopback through the inbox for self-delivery (self last,
/// matching the simulator's broadcast order), timer queue updates.
#[allow(clippy::too_many_arguments)]
fn route_effects<M: WireMsg + Send>(
    ctx: &mut Context<M>,
    timers: &mut TimerQueue,
    peers: &[Option<mpsc::Sender<Frame>>],
    self_tx: &mpsc::Sender<Event<M>>,
    id: NodeIdx,
    cfg: &NetConfig,
) {
    let encode = |msg: &M| frame(&msg.to_wire(), cfg.max_frame).ok().map(Arc::new);
    for effect in ctx.take_effects() {
        match effect {
            Effect::Send { to, msg } => {
                if to == id {
                    let _ = self_tx.send(Event::Deliver { from: id, msg });
                } else if let (Some(link), Some(bytes)) = (&peers[to], encode(&msg)) {
                    let _ = link.send(bytes);
                }
            }
            Effect::Broadcast { msg } => {
                if let Some(bytes) = encode(&msg) {
                    for (j, link) in peers.iter().enumerate() {
                        if j == id {
                            continue;
                        }
                        if let Some(link) = link {
                            let _ = link.send(bytes.clone());
                        }
                    }
                }
                let _ = self_tx.send(Event::Deliver { from: id, msg });
            }
            Effect::Timer { delay, id: tid } => {
                let ns = (cfg.tick.as_nanos() as u64).saturating_mul(delay);
                timers.arm(Instant::now(), Duration::from_nanos(ns), tid);
            }
            Effect::CancelTimer { id: tid } => timers.cancel(tid),
        }
    }
}

/// The event loop owning one actor: inbox messages, due timers, decided
/// publication. `ctx.now` advances on the monotonic clock, quantized to
/// `cfg.tick` — the real-time analogue of the simulator's event clock.
/// Returning drops the peer senders, which is what stops the dialers.
#[allow(clippy::too_many_arguments)]
fn node_loop<A>(
    mut actor: A,
    id: NodeIdx,
    n: usize,
    inbox_rx: mpsc::Receiver<Event<A::Msg>>,
    peers: Vec<Option<mpsc::Sender<Frame>>>,
    self_tx: mpsc::Sender<Event<A::Msg>>,
    feed: Arc<Feed<A::Payload>>,
    cfg: NetConfig,
    epoch: Instant,
) where
    A: OrderingActor,
    A::Msg: WireMsg + Send,
{
    let tick_ns = cfg.tick.as_nanos().max(1) as u64;
    let now_ticks = || (epoch.elapsed().as_nanos() as u64) / tick_ns;
    let mut timers = TimerQueue::new();
    let mut published = 0usize;

    let mut ctx = Context::standalone(now_ticks(), id, n);
    actor.on_start(&mut ctx);
    route_effects(&mut ctx, &mut timers, &peers, &self_tx, id, &cfg);

    // What follows every callback: route its effects, and publish a
    // decision the moment it exists — a client is blocked on the feed,
    // and whatever else is queued must not stand between it and the
    // wake-up.
    let mut settle = |actor: &A, ctx: &mut Context<A::Msg>, timers: &mut TimerQueue| {
        route_effects(ctx, timers, &peers, &self_tx, id, &cfg);
        let log = actor.log().delivered();
        if log.len() > published {
            feed.publish(&log[published..]);
            published = log.len();
        }
    };

    loop {
        let mut next = match timers.next_deadline() {
            Some(at) => inbox_rx.recv_timeout(at.saturating_duration_since(Instant::now())),
            None => inbox_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        // Handle what woke us, then whatever else is already queued.
        loop {
            match next {
                Ok(Event::Deliver { from, msg }) => {
                    ctx.now = now_ticks();
                    actor.on_message(from, &msg, &mut ctx);
                    settle(&actor, &mut ctx, &mut timers);
                }
                Ok(Event::Stop) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => break,
            }
            next = inbox_rx.try_recv().map_err(|_| RecvTimeoutError::Timeout);
        }
        while let Some(tid) = timers.pop_due(Instant::now()) {
            ctx.now = now_ticks();
            actor.on_timer(tid, &mut ctx);
            settle(&actor, &mut ctx, &mut timers);
        }
    }
}

/// Accept loop: a blocking `accept`, one reader thread per connection.
/// The stop event is a connection too — `kill` closes the registry and
/// then pokes this address, and the refused registration ends the loop.
/// An `accept` that fails while the node runs (`ECONNABORTED`,
/// `EMFILE`) loses that connection, not the listener. The readers are
/// joined here, so joining the listener joins them all.
#[allow(clippy::too_many_arguments)]
fn listener_loop<M: WireMsg + Send + 'static>(
    listener: TcpListener,
    my_id: NodeIdx,
    n: usize,
    inbox: mpsc::Sender<Event<M>>,
    conns: Arc<Conns>,
    genesis: u64,
    cfg: NetConfig,
    stats: Arc<RealStats>,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept().and_then(|(stream, _)| {
            let registered = conns.register(&stream)?;
            Ok((stream, registered))
        });
        match accepted {
            Ok((stream, Some(registered))) => {
                let (inbox, stats) = (inbox.clone(), stats.clone());
                readers.retain(|reader| !reader.is_finished());
                readers.push(spawn(move || {
                    reader_conn::<M>(stream, my_id, n, inbox, genesis, cfg, stats);
                    drop(registered);
                }));
            }
            Ok((_, None)) => break,
            Err(_) if conns.is_closed() => break,
            Err(_) => {
                stats.accept_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
}

/// One inbound connection: validate the handshake, answer it, then
/// decode frames into inbox messages until the peer goes away, the
/// node stops (the socket is shut down under the blocked read), or the
/// peer sends garbage (which drops the connection — a peer that frames
/// garbage once will do it again).
fn reader_conn<M: WireMsg + Send>(
    mut stream: TcpStream,
    my_id: NodeIdx,
    n: usize,
    inbox: mpsc::Sender<Event<M>>,
    genesis: u64,
    cfg: NetConfig,
    stats: Arc<RealStats>,
) {
    let _ = stream.set_nodelay(true);
    let hello = match read_frame(&mut stream, cfg.max_frame).and_then(|body| Hello::decode(&body)) {
        Ok(h) => h,
        Err(_) => {
            stats.handshakes_rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let from = match hello {
        Hello { genesis: g, .. } if g != genesis => {
            stats.handshakes_rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Clients appear as node 0, the simulator's submit convention.
        Hello { node: CLIENT_NODE, .. } => 0,
        Hello { node, .. } if (node as usize) < n => node as usize,
        _ => {
            stats.handshakes_rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let reply = Hello { genesis, node: my_id as u32 };
    if write_frame(&mut stream, &reply.encode(), cfg.max_frame).is_err() {
        return;
    }
    stats.handshakes_ok.fetch_add(1, Ordering::Relaxed);
    loop {
        match read_frame(&mut stream, cfg.max_frame) {
            Ok(body) => match M::from_wire(&body) {
                Some(msg) => {
                    stats.frames_recv.fetch_add(1, Ordering::Relaxed);
                    stats.bytes_recv.fetch_add(4 + body.len() as u64, Ordering::Relaxed);
                    if inbox.send(Event::Deliver { from, msg }).is_err() {
                        return;
                    }
                }
                None => {
                    stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            },
            Err(_) => return,
        }
    }
}

/// One dial attempt: connect, register the socket (so that a stop wakes
/// a handshake the peer never answers), exchange `Hello`s. `Err(())`
/// is a failed attempt to back off from; `Ok(None)` means the node has
/// stopped.
fn dial(
    my_id: NodeIdx,
    addr: SocketAddr,
    conns: &Arc<Conns>,
    genesis: u64,
    cfg: &NetConfig,
    stats: &RealStats,
) -> Result<Option<(TcpStream, ConnGuard)>, ()> {
    stats.dials.fetch_add(1, Ordering::Relaxed);
    let mut stream = TcpStream::connect(addr).map_err(drop)?;
    let _ = stream.set_nodelay(true);
    let Some(registered) = conns.register(&stream).map_err(drop)? else {
        return Ok(None);
    };
    let ours = Hello { genesis, node: my_id as u32 };
    let handshake = write_frame(&mut stream, &ours.encode(), cfg.max_frame)
        .and_then(|()| read_frame(&mut stream, cfg.max_frame))
        .and_then(|body| Hello::decode(&body))
        .and_then(|theirs| {
            if theirs.genesis == genesis {
                Ok(())
            } else {
                Err(WireError::GenesisMismatch { ours: genesis, theirs: theirs.genesis })
            }
        });
    match handshake {
        Ok(()) => {
            stats.handshakes_ok.fetch_add(1, Ordering::Relaxed);
            Ok(Some((stream, registered)))
        }
        Err(_) if conns.is_closed() => Ok(None),
        Err(_) => {
            stats.handshakes_rejected.fetch_add(1, Ordering::Relaxed);
            Err(())
        }
    }
}

/// Outbound link to one peer: dial (and re-dial with exponential
/// backoff), handshake, then pump the outbound channel onto the socket.
/// A frame leaves `unsent` only once a socket took all of it, so a
/// write failure abandons the connection, not the frame: it is the
/// first thing written after the re-dial, followed by whatever the
/// channel buffered while the peer was away. The backoff is waited out
/// on the channel, so the node loop going away (`Disconnected`) ends a
/// dialer at once wherever it is.
#[allow(clippy::too_many_arguments)]
fn dialer_loop(
    my_id: NodeIdx,
    peer: NodeIdx,
    addrs: Arc<Mutex<Vec<SocketAddr>>>,
    rx: mpsc::Receiver<Frame>,
    conns: Arc<Conns>,
    genesis: u64,
    cfg: NetConfig,
    stats: Arc<RealStats>,
) {
    let mut delay = cfg.backoff;
    let mut connected_before = false;
    let mut unsent: VecDeque<Frame> = VecDeque::new();
    'dial: loop {
        if conns.is_closed() {
            return;
        }
        let addr = addrs.lock().expect("addrs lock")[peer];
        let (mut stream, _registered) = match dial(my_id, addr, &conns, genesis, &cfg, &stats) {
            Ok(Some(link)) => link,
            Ok(None) => return,
            Err(()) => {
                let retry_at = Instant::now() + delay;
                delay = (delay * 2).min(cfg.backoff_max);
                loop {
                    match rx.recv_timeout(retry_at.saturating_duration_since(Instant::now())) {
                        Ok(bytes) => unsent.push_back(bytes),
                        Err(RecvTimeoutError::Timeout) => continue 'dial,
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
            }
        };
        if connected_before {
            stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        connected_before = true;
        delay = cfg.backoff;
        loop {
            if unsent.is_empty() {
                match rx.recv() {
                    Ok(bytes) => unsent.push_back(bytes),
                    Err(mpsc::RecvError) => return,
                }
            }
            if write_full(&mut stream, &unsent[0]).is_err() {
                continue 'dial; // peer gone: back to the dial loop
            }
            stats.frames_sent.fetch_add(1, Ordering::Relaxed);
            stats.bytes_sent.fetch_add(unsent[0].len() as u64, Ordering::Relaxed);
            unsent.pop_front();
        }
    }
}

// ---------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------

/// Object-safe cluster operations: everything [`RealHandle`] exposes,
/// with the actor type erased behind the impl.
trait ClusterOps<P: Payload>: Send {
    fn addr(&self, node: usize) -> SocketAddr;
    fn submit(&mut self, payload: P);
    fn decided(&self, node: usize) -> Vec<(u64, P, SimTime)>;
    fn wait_decided(&self, node: usize, target: usize, timeout: Duration) -> bool;
    fn kill(&mut self, node: usize);
    fn reboot(&mut self, node: usize) -> io::Result<()>;
    fn is_down(&self, node: usize) -> bool;
    fn shutdown(&mut self);
}

struct NetCluster<A: OrderingActor>
where
    A::Msg: WireMsg + Send,
{
    cfg: NetConfig,
    n: usize,
    genesis: u64,
    make: Box<dyn FnMut(NodeIdx) -> A + Send>,
    addrs: Arc<Mutex<Vec<SocketAddr>>>,
    nodes: Vec<Node<A>>,
    clients: Vec<Option<TcpStream>>,
    stats: Arc<RealStats>,
    epoch: Instant,
}

impl<A> NetCluster<A>
where
    A: OrderingActor + Send + 'static,
    A::Msg: WireMsg + Send,
{
    fn boot(
        cfg: NetConfig,
        n: usize,
        make: Box<dyn FnMut(NodeIdx) -> A + Send>,
        genesis: u64,
    ) -> io::Result<Self> {
        assert!(n > 0, "a cluster needs at least one node");
        // Bind every listener before any dialer starts: peers may dial
        // in any order once threads exist.
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let l = TcpListener::bind(("127.0.0.1", 0))?;
            addrs.push(l.local_addr()?);
            listeners.push(l);
        }
        let addrs = Arc::new(Mutex::new(addrs));
        let stats = Arc::new(RealStats::default());
        let epoch = Instant::now();
        let mut cluster = NetCluster {
            cfg,
            n,
            genesis,
            make: Box::new(make),
            addrs,
            nodes: Vec::new(),
            clients: (0..n).map(|_| None).collect(),
            stats,
            epoch,
        };
        for (i, listener) in listeners.into_iter().enumerate() {
            let actor = (cluster.make)(i);
            let node = cluster.spawn_node(i, actor, listener);
            cluster.nodes.push(node);
        }
        Ok(cluster)
    }

    fn spawn_node(&self, id: NodeIdx, actor: A, listener: TcpListener) -> Node<A> {
        let conns = Arc::new(Conns::default());
        let (inbox_tx, inbox_rx) = mpsc::channel::<Event<A::Msg>>();
        let feed = Arc::new(Feed::new());
        let mut joins = Vec::new();

        let mut peers: Vec<Option<mpsc::Sender<Frame>>> = Vec::with_capacity(self.n);
        for peer in 0..self.n {
            if peer == id {
                peers.push(None);
                continue;
            }
            let (tx, rx) = mpsc::channel::<Frame>();
            peers.push(Some(tx));
            let (addrs, conns, stats, cfg, genesis) =
                (self.addrs.clone(), conns.clone(), self.stats.clone(), self.cfg, self.genesis);
            joins.push(spawn(move || {
                dialer_loop(id, peer, addrs, rx, conns, genesis, cfg, stats);
            }));
        }

        let listener = {
            let (inbox, conns, stats, cfg, genesis, n) = (
                inbox_tx.clone(),
                conns.clone(),
                self.stats.clone(),
                self.cfg,
                self.genesis,
                self.n,
            );
            spawn(move || {
                listener_loop::<A::Msg>(listener, id, n, inbox, conns, genesis, cfg, stats);
            })
        };

        {
            let (self_tx, feed, cfg, epoch, n) =
                (inbox_tx.clone(), feed.clone(), self.cfg, self.epoch, self.n);
            joins.push(spawn(move || {
                node_loop(actor, id, n, inbox_rx, peers, self_tx, feed, cfg, epoch);
            }));
        }

        Node { conns, inbox: inbox_tx, feed, joins, listener: Some(listener), down: false }
    }

    /// Opens (or reuses) the client connection to `node` and sends one
    /// already-encoded message body as a frame.
    fn client_send(&mut self, node: usize, body: &[u8]) -> Result<(), WireError> {
        if self.clients[node].is_none() {
            let addr = self.addrs.lock().expect("addrs lock")[node];
            let mut stream = TcpStream::connect(addr).map_err(WireError::Io)?;
            stream.set_nodelay(true).ok();
            let hello = Hello { genesis: self.genesis, node: CLIENT_NODE };
            write_frame(&mut stream, &hello.encode(), self.cfg.max_frame)?;
            let reply =
                read_frame(&mut stream, self.cfg.max_frame).and_then(|b| Hello::decode(&b))?;
            if reply.genesis != self.genesis {
                return Err(WireError::GenesisMismatch {
                    ours: self.genesis,
                    theirs: reply.genesis,
                });
            }
            self.clients[node] = Some(stream);
        }
        let stream = self.clients[node].as_mut().expect("just ensured");
        write_frame(stream, body, self.cfg.max_frame)
    }
}

impl<A> ClusterOps<A::Payload> for NetCluster<A>
where
    A: OrderingActor + Send + 'static,
    A::Msg: WireMsg + Send,
{
    fn addr(&self, node: usize) -> SocketAddr {
        self.addrs.lock().expect("addrs lock")[node]
    }

    fn submit(&mut self, payload: A::Payload) {
        let body = A::request_msg(payload).to_wire();
        for node in 0..self.n {
            if self.nodes[node].down {
                continue;
            }
            if self.client_send(node, &body).is_err() {
                // Stale connection (peer restarted): one fresh attempt.
                self.clients[node] = None;
                let _ = self.client_send(node, &body);
            }
        }
    }

    fn decided(&self, node: usize) -> Vec<(u64, A::Payload, SimTime)> {
        self.nodes[node].feed.snapshot()
    }

    fn wait_decided(&self, node: usize, target: usize, timeout: Duration) -> bool {
        self.nodes[node].feed.wait(target, timeout)
    }

    fn kill(&mut self, node: usize) {
        if self.nodes[node].down {
            return;
        }
        let addr = self.addr(node);
        self.clients[node] = None;
        let node = &mut self.nodes[node];
        node.down = true;
        // One stop event per kind of thread. The node loop takes `Stop`
        // from its inbox and returns, which disconnects the dialers'
        // channels; closing the registry fails every blocked socket
        // read and write; the listener, blocked in `accept`, needs a
        // connection to see the closed registry.
        let _ = node.inbox.send(Event::Stop);
        node.conns.close();
        let poked = TcpStream::connect(addr).is_ok();
        for join in node.joins.drain(..) {
            let _ = join.join();
        }
        // A listener that could not be poked (no descriptor or port
        // left for the connection) stays in `accept`, detached, rather
        // than hang the caller.
        let listener = node.listener.take();
        if let (true, Some(listener)) = (poked, listener) {
            let _ = listener.join();
        }
    }

    fn reboot(&mut self, node: usize) -> io::Result<()> {
        assert!(self.nodes[node].down, "reboot targets a killed node");
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        self.addrs.lock().expect("addrs lock")[node] = listener.local_addr()?;
        let actor = (self.make)(node);
        self.nodes[node] = self.spawn_node(node, actor, listener);
        Ok(())
    }

    fn is_down(&self, node: usize) -> bool {
        self.nodes[node].down
    }

    fn shutdown(&mut self) {
        for node in 0..self.n {
            self.kill(node);
        }
    }
}

// ---------------------------------------------------------------------
// Public handle + runner
// ---------------------------------------------------------------------

/// A running TCP cluster, erased of its actor type. Dropping the handle
/// shuts the cluster down (stops and joins every node's threads).
pub struct RealHandle<P: Payload> {
    n: usize,
    stats: Arc<RealStats>,
    ops: Box<dyn ClusterOps<P>>,
}

impl<P: Payload + 'static> RealHandle<P> {
    /// Number of nodes (including killed ones).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate empty cluster (never built by
    /// [`NetRunner`], which rejects `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The listener address `node` currently accepts connections on
    /// (changes across a [`reboot`](RealHandle::reboot)).
    pub fn addr(&self, node: usize) -> std::net::SocketAddr {
        self.ops.addr(node)
    }

    /// Submits one payload: the client request fans in to every alive
    /// node over its client connection, like the simulator's `submit`.
    pub fn submit(&mut self, payload: P) {
        self.ops.submit(payload);
    }

    /// Snapshot of `node`'s in-order decided log: `(seq, payload,
    /// decide-time in ticks since cluster boot)`.
    pub fn decided(&self, node: usize) -> Vec<(u64, P, SimTime)> {
        self.ops.decided(node)
    }

    /// Stops a node: its threads exit and are joined, its sockets drop,
    /// and its peers fall into reconnect/backoff against it.
    pub fn kill(&mut self, node: usize) {
        self.ops.kill(node);
    }

    /// Boots a fresh actor for a killed node on a fresh port (peers
    /// pick the new address up on their next dial). The replacement
    /// starts with an empty log — a reboot is amnesia, like the
    /// simulator's `CrashAmnesia` without a durable store.
    pub fn reboot(&mut self, node: usize) -> io::Result<()> {
        self.ops.reboot(node)
    }

    /// Whether `node` is currently killed.
    pub fn is_down(&self, node: usize) -> bool {
        self.ops.is_down(node)
    }

    /// Blocks until `node` has at least `target` decided entries or
    /// `timeout` elapses; true on success. The node loop wakes the
    /// caller as soon as it delivers the entry.
    pub fn wait_decided(&self, node: usize, target: usize, timeout: Duration) -> bool {
        self.ops.wait_decided(node, target, timeout)
    }

    /// [`wait_decided`](RealHandle::wait_decided) across every alive
    /// node, all under one deadline.
    pub fn wait_all_decided(&self, target: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        (0..self.n).filter(|&i| !self.ops.is_down(i)).all(|i| {
            let left = deadline.saturating_duration_since(Instant::now());
            self.ops.wait_decided(i, target, left)
        })
    }

    /// Cumulative transport counters.
    pub fn stats(&self) -> RealStatsSnap {
        self.stats.snapshot()
    }

    /// Stops and joins every node. Also runs on drop.
    pub fn shutdown(&mut self) {
        self.ops.shutdown();
    }
}

impl<P: Payload> Drop for RealHandle<P> {
    fn drop(&mut self) {
        self.ops.shutdown();
    }
}

/// The deployment runtime: mounts a registry protocol's actors on
/// localhost TCP. Use through
/// [`run_real`](pbc_consensus::ordering::run_real):
///
/// ```no_run
/// use pbc_consensus::run_real;
/// use pbc_net::NetRunner;
/// use std::time::Duration;
///
/// let mut cluster = run_real::<u64, _>("pbft", 4, NetRunner::with_seed(7))
///     .expect("pbft is wire-capable")
///     .expect("localhost sockets");
/// cluster.submit(42);
/// assert!(cluster.wait_all_decided(1, Duration::from_secs(10)));
/// assert_eq!(cluster.decided(0)[0].1, 42);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct NetRunner {
    /// Transport tuning; `cfg.seed` keys the genesis digest.
    pub cfg: NetConfig,
}

impl NetRunner {
    /// A runner with default tuning and the given cluster seed.
    pub fn with_seed(seed: u64) -> Self {
        NetRunner { cfg: NetConfig { seed, ..NetConfig::default() } }
    }
}

impl<P: Payload + 'static> RealRuntime<P> for NetRunner {
    type Output = io::Result<RealHandle<P>>;

    fn mount<A, F>(self, kind: ConsensusKind, n: usize, make: F) -> io::Result<RealHandle<P>>
    where
        A: OrderingActor<Payload = P> + Send + 'static,
        A::Msg: WireMsg + Send,
        F: FnMut(NodeIdx) -> A + Send + 'static,
    {
        let genesis = genesis_digest(kind.registry_name(), n, self.cfg.seed);
        let cluster = NetCluster::<A>::boot(self.cfg, n, Box::new(make), genesis)?;
        let stats = cluster.stats.clone();
        Ok(RealHandle { n, stats, ops: Box::new(cluster) })
    }
}

#[cfg(test)]
mod tests;

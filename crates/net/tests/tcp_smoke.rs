//! Live-socket smoke tests: a real PBFT cluster on localhost TCP.
//!
//! These run the registry's actual `PbftReplica` actors under the
//! deployment runtime with a `u64` payload — the smallest end-to-end
//! proof that frames, handshakes, timers, and effect routing compose
//! into a working ordering service. The full sim-vs-TCP cross-check
//! (batch payloads, seals, node kill) lives in `tests/real_net.rs` at
//! the workspace root.

use pbc_consensus::run_real;
use pbc_net::{
    frame, genesis_digest, read_frame, write_frame, Hello, NetRunner, CLIENT_NODE,
    DEFAULT_MAX_FRAME,
};
use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);

#[test]
fn four_node_pbft_commits_over_tcp() {
    let mut cluster = run_real::<u64, _>("pbft", 4, NetRunner::with_seed(11))
        .expect("pbft is wire-capable")
        .expect("localhost cluster boots");
    for payload in [100u64, 200, 300] {
        cluster.submit(payload);
    }
    assert!(
        cluster.wait_all_decided(3, WAIT),
        "4-node pbft must commit 3 payloads over TCP; decided lens: {:?}",
        (0..4).map(|i| cluster.decided(i).len()).collect::<Vec<_>>()
    );
    // Every replica decided the same (seq, payload) sequence; decide
    // times are per-node wall clock and legitimately differ.
    let reference: Vec<(u64, u64)> =
        cluster.decided(0)[..3].iter().map(|&(seq, payload, _)| (seq, payload)).collect();
    assert_eq!(reference.iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![0, 1, 2]);
    let mut decided_payloads: Vec<u64> = reference.iter().map(|&(_, p)| p).collect();
    decided_payloads.sort_unstable();
    assert_eq!(decided_payloads, vec![100, 200, 300]);
    for node in 1..4 {
        let log: Vec<(u64, u64)> =
            cluster.decided(node)[..3].iter().map(|&(seq, payload, _)| (seq, payload)).collect();
        assert_eq!(log, reference, "replica {node} disagrees with replica 0");
    }
    let stats = cluster.stats();
    assert!(stats.handshakes_ok > 0, "peers must have completed handshakes");
    assert!(stats.frames_recv > 0, "protocol traffic must have flowed");
    assert_eq!(stats.decode_errors, 0, "no frame may have failed decoding");
}

#[test]
fn listener_rejects_wrong_genesis_and_garbage_handshakes() {
    let cluster = run_real::<u64, _>("pbft", 1, NetRunner::with_seed(42))
        .expect("pbft is wire-capable")
        .expect("single-node cluster boots");
    // A one-node cluster has no peer links, so the only accepted
    // handshakes are the ones we perform here.
    let addr = cluster.addr(0);

    // Correct genesis: the node answers with its own Hello.
    let genesis = genesis_digest("pbft", 1, 42);
    let mut good = TcpStream::connect(addr).expect("connect");
    let hello = Hello { genesis, node: CLIENT_NODE };
    write_frame(&mut good, &hello.encode(), DEFAULT_MAX_FRAME).expect("send hello");
    let reply = read_frame(&mut good, DEFAULT_MAX_FRAME).expect("hello reply");
    assert_eq!(Hello::decode(&reply).expect("valid reply").genesis, genesis);

    // Wrong genesis: no reply, connection dropped.
    let mut bad = TcpStream::connect(addr).expect("connect");
    let wrong = Hello { genesis: genesis ^ 1, node: CLIENT_NODE };
    write_frame(&mut bad, &wrong.encode(), DEFAULT_MAX_FRAME).expect("send hello");
    assert_connection_drops(&mut bad);

    // Garbage handshake: a framed payload that is not a Hello at all.
    let mut garbage = TcpStream::connect(addr).expect("connect");
    let junk = frame(b"not a handshake", DEFAULT_MAX_FRAME).expect("frame junk");
    std::io::Write::write_all(&mut garbage, &junk).expect("send junk");
    assert_connection_drops(&mut garbage);

    let stats = cluster.stats();
    assert!(
        stats.handshakes_rejected >= 2,
        "both bad handshakes must be counted, got {}",
        stats.handshakes_rejected
    );
}

#[test]
fn ibft_node_refuses_the_pbft_genesis() {
    // Both protocols run `PbftReplica`: with the same size and seed, only
    // the registry name keeps an IBFT node out of a PBFT cluster.
    let cluster = run_real::<u64, _>("ibft", 1, NetRunner::with_seed(42))
        .expect("ibft is wire-capable")
        .expect("single-node cluster boots");
    let addr = cluster.addr(0);

    let mut stranger = TcpStream::connect(addr).expect("connect");
    let pbft = Hello { genesis: genesis_digest("pbft", 1, 42), node: CLIENT_NODE };
    write_frame(&mut stranger, &pbft.encode(), DEFAULT_MAX_FRAME).expect("send hello");
    assert_connection_drops(&mut stranger);

    let genesis = genesis_digest("ibft", 1, 42);
    let mut member = TcpStream::connect(addr).expect("connect");
    let hello = Hello { genesis, node: CLIENT_NODE };
    write_frame(&mut member, &hello.encode(), DEFAULT_MAX_FRAME).expect("send hello");
    let reply = read_frame(&mut member, DEFAULT_MAX_FRAME).expect("hello reply");
    assert_eq!(Hello::decode(&reply).expect("valid reply").genesis, genesis);
    assert_eq!(cluster.stats().handshakes_rejected, 1);
}

fn assert_connection_drops(stream: &mut TcpStream) {
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let mut buf = [0u8; 1];
    match stream.read(&mut buf) {
        Ok(0) => {}
        Ok(_) => panic!("node must not answer a rejected handshake"),
        Err(e) => panic!("expected clean close, got {e}"),
    }
}

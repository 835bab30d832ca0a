//! Property tests for the trusted components: the security invariants hold
//! under seeded random request streams.

use sep_components::component::TestIo;
use sep_components::fileserver::{request as fsreq, FileServer, FsClient};
use sep_components::guard::{Guard, ScriptedOfficer};
use sep_components::proto::{MsgReader, Status};
use sep_components::snfe::{Censor, CensorPolicy, Header, HEADER_LEN, HEADER_MAGIC};
use sep_model::rng::{cases, Case};
use sep_policy::level::{Classification, SecurityLevel};

fn level(rank: u8) -> SecurityLevel {
    SecurityLevel::plain(Classification::from_rank(rank % 4).unwrap())
}

/// A random request on one of eight files at a random level, from one of
/// three clients: (client, frame, whether it reads). Written data is tagged
/// with its level so leaks are recognizable: payload = [level_rank; 8].
fn random_req(c: &mut Case) -> (usize, Vec<u8>, bool) {
    let (name, l) = (format!("f{}", c.rng.below(8)), c.rng.below(4) as u8);
    let kind = c.rng.below(5);
    let frame = match kind {
        0 => fsreq::create(&name, level(l)),
        1 => fsreq::write(&name, level(l), &[l; 8]),
        2 => fsreq::read(&name, level(l)),
        3 => fsreq::delete(&name, level(l)),
        _ => fsreq::list(),
    };
    (c.rng.below(3), frame, kind == 2)
}

/// The MLS invariant: a client NEVER receives file contents written at a
/// level its own level does not dominate, no matter the request stream.
/// A leak needs a create, a write and a read of one file among 32 names
/// and levels, so it takes more cases than the other properties.
#[test]
fn fileserver_never_leaks_upward_content() {
    cases(0xF5, 256, |c| {
        let levels = [level(0), level(1), level(3)];
        let clients = levels.iter().enumerate().map(|(i, &level)| FsClient {
            name: format!("c{i}"),
            level,
            special_delete: false,
        });
        let mut fs = FileServer::new(clients.collect());
        for _ in 0..c.int(1, 59) {
            let (client, frame, reads) = random_req(c);
            let mut io = TestIo::new();
            io.push(&format!("c{client}.req"), &frame);
            io.run(&mut fs, 1);
            let responses = io.take_sent(&format!("c{client}.rsp"));
            assert_eq!(responses.len(), 1);
            let (status, payload) = fsreq::decode(&responses[0]);
            if status == Status::Ok && reads {
                // The data's provenance level must be dominated by the
                // reader's level.
                if let Some(&tag) = MsgReader::new(payload).bytes().unwrap().first() {
                    let reader = levels[client];
                    assert!(reader.dominates(&level(tag)), "{reader:?} read rank {tag}");
                }
            }
        }
    });
}

/// Whatever the censor is fed, its canonical output is always a well-formed
/// header with zero padding and in-bounds fields.
#[test]
fn censor_canonical_output_is_always_canonical() {
    cases(0xCE, 32, |c| {
        let mut censor = Censor::new(CensorPolicy::canonical());
        let mut io = TestIo::new();
        for _ in 0..c.int(1, 39) {
            let frame: Vec<u8> = (0..c.int(0, 13)).map(|_| c.int(0, 255) as u8).collect();
            io.push("red.in", &frame);
        }
        io.run(&mut censor, 1);
        for out in io.sent("black.out") {
            let h = Header::decode(out).expect("canonical output parses");
            assert_eq!((out.len(), out[0], h.pad), (HEADER_LEN, HEADER_MAGIC, 0));
            assert!(h.dst <= 3 && h.len <= 4096, "{h:?}");
        }
    });
}

/// The rate limit is a hard bound per window regardless of input volume.
#[test]
fn censor_rate_limit_is_hard() {
    cases(0x8A7E, 32, |c| {
        let (n, limit) = (c.int(1, 119), c.int(1, 7) as u32);
        let rate_limit = Some(limit);
        let mut censor = Censor::new(CensorPolicy {
            rate_limit,
            ..CensorPolicy::canonical()
        });
        let mut io = TestIo::new();
        let h = Header {
            seq: 0,
            len: 1,
            dst: 1,
            pad: 0,
        };
        for _ in 0..n {
            io.push("red.in", &h.encode());
        }
        io.run(&mut censor, 1); // all within one window
        assert!(io.sent("black.out").len() <= limit as usize);
    });
}

/// The guard releases exactly the officer-approved prefix, in order, and
/// nothing else ever reaches the LOW side.
#[test]
fn guard_releases_only_approved() {
    cases(0x6A, 32, |c| {
        let script: Vec<bool> = (0..c.int(1, 19)).map(|_| c.rng.bool()).collect();
        let mut guard = Guard::new(Box::new(ScriptedOfficer::new(&script)));
        let mut io = TestIo::new();
        let msgs: Vec<Vec<u8>> = (0..script.len() as u8).map(|i| vec![i, 0xEE]).collect();
        for m in &msgs {
            io.push("high.in", m);
        }
        io.run(&mut guard, script.len() as u64 + 2);
        let mut approved = script.iter();
        let mut expected = msgs.clone();
        expected.retain(|_| *approved.next().unwrap());
        assert_eq!(io.take_sent("low.out"), expected);
        assert_eq!(guard.released + guard.denied, script.len() as u64);
    });
}

/// CTR encryption never leaks 4-byte plaintext runs for plaintexts with
/// repeated structure: every byte value, at seeded lengths.
#[test]
fn cipher_hides_structured_plaintext() {
    use sep_components::snfe::xtea_ctr;
    cases(0xC7, 32, |c| {
        for byte in 0..=u8::MAX {
            let len = c.int(16, 63) as usize;
            let ct = xtea_ctr([1, 2, 3, 4], 99, &vec![byte; len]);
            assert_eq!(ct.len(), len);
            assert!(!ct.windows(4).any(|w| w == [byte; 4]), "{byte:#x} x {len}");
        }
    });
}

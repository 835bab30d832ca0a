//! The file server against its reference: the server that builds its
//! port names once, looks files up through a reused key and writes each
//! response into one reused buffer must answer every frame byte for byte
//! like `reference` below — the server as it was before that change, kept
//! unchanged apart from imports as the oracle.
//!
//! Both serve the same seeded stream of frames from three clients (a low
//! user, a high user and the printer holding the special-delete
//! privilege): all six opcodes, TAGGED envelopes with repeated ids,
//! malformed frames, names at several levels, DELETE followed by READ,
//! and LIST. After every round the responses, the file table, the audit
//! log and the counters must be equal.

use sep_components::component::TestIo;
use sep_components::fileserver::{op, request};
use sep_components::{FileServer, FsClient};
use sep_model::rng::SplitMix64;
use sep_policy::level::{Classification, SecurityLevel};

/// The oracle: the file server before its buffers were reused.
mod reference {
    use sep_components::component::{Component, ComponentIo};
    use sep_components::fileserver::{op, FsClient};
    use sep_components::proto::{MsgReader, MsgWriter, Status};
    use sep_policy::level::SecurityLevel;
    use std::any::Any;
    use std::collections::{BTreeMap, VecDeque};

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct FileRecord {
        level: SecurityLevel,
        data: Vec<u8>,
    }

    /// The multilevel secure file server.
    #[derive(Debug, Clone)]
    pub struct FileServer {
        clients: Vec<FsClient>,
        files: BTreeMap<(String, u8), FileRecord>, // key includes the level rank
        /// Cached responses for recently seen tagged request ids, per client
        /// (bounded by `dedup_window`, FIFO eviction).
        recent: BTreeMap<(usize, u64), Vec<u8>>,
        recent_order: VecDeque<(usize, u64)>,
        dedup_window: usize,
        /// Audit log of special-service exercises, host-inspectable.
        pub audit: Vec<String>,
        /// Requests *executed* (a replayed duplicate does not count — the
        /// exactly-once argument is `requests_served == unique ids seen`).
        pub requests_served: u64,
        /// Requests denied by policy.
        pub denials: u64,
        /// Tagged duplicates answered from the dedup cache, not re-executed.
        pub duplicates_replayed: u64,
    }

    impl FileServer {
        /// A file server with the given client sessions.
        pub fn new(clients: Vec<FsClient>) -> FileServer {
            FileServer {
                clients,
                files: BTreeMap::new(),
                recent: BTreeMap::new(),
                recent_order: VecDeque::new(),
                dedup_window: 0,
                audit: Vec::new(),
                requests_served: 0,
                denials: 0,
                duplicates_replayed: 0,
            }
        }

        /// Enables the bounded dedup window: the last `n` tagged responses per
        /// server are cached and replayed for repeated ids. The bound is the
        /// honesty of the exactly-once claim — a duplicate arriving after its
        /// id has been evicted re-executes, so clients must retire (stop
        /// retrying) well within `n` fresh requests.
        pub fn with_dedup_window(mut self, n: usize) -> FileServer {
            self.dedup_window = n;
            self
        }

        /// Host-side: the contents of a file, if it exists.
        pub fn host_file(&self, name: &str, level: SecurityLevel) -> Option<&[u8]> {
            self.files
                .get(&(name.to_string(), level.class.rank()))
                .filter(|f| f.level == level)
                .map(|f| f.data.as_slice())
        }

        /// Host-side: number of files stored.
        pub fn file_count(&self) -> usize {
            self.files.len()
        }

        /// Handles one frame, unwrapping a [`op::TAGGED`] envelope: repeated
        /// ids inside the dedup window replay the cached response verbatim —
        /// the request is *not* re-executed.
        fn handle_framed(&mut self, client: usize, frame: &[u8]) -> Vec<u8> {
            if frame.len() < 9 || frame[0] != op::TAGGED {
                return self.handle(client, frame);
            }
            let id = u64::from_le_bytes(frame[1..9].try_into().expect("8 id bytes"));
            if let Some(cached) = self.recent.get(&(client, id)) {
                self.duplicates_replayed += 1;
                return cached.clone();
            }
            let inner = self.handle(client, &frame[9..]);
            let mut out = Vec::with_capacity(9 + inner.len());
            out.extend_from_slice(&frame[..9]);
            out.extend_from_slice(&inner);
            if self.dedup_window > 0 {
                self.recent.insert((client, id), out.clone());
                self.recent_order.push_back((client, id));
                if self.recent_order.len() > self.dedup_window {
                    let oldest = self.recent_order.pop_front().expect("non-empty window");
                    self.recent.remove(&oldest);
                }
            }
            out
        }

        fn handle(&mut self, client: usize, frame: &[u8]) -> Vec<u8> {
            self.requests_served += 1;
            match self.dispatch(client, frame) {
                Ok(mut rsp) => {
                    let mut out = vec![Status::Ok.code()];
                    out.append(&mut rsp);
                    out
                }
                Err(status) => {
                    if status == Status::Denied {
                        self.denials += 1;
                    }
                    vec![status.code()]
                }
            }
        }

        fn dispatch(&mut self, client: usize, frame: &[u8]) -> Result<Vec<u8>, Status> {
            let me = self.clients[client].clone();
            let mut r = MsgReader::new(frame);
            let opcode = r.u8().map_err(|_| Status::Bad)?;
            match opcode {
                op::CREATE => {
                    let (name, level) = read_name_level(&mut r)?;
                    r.finish().map_err(|_| Status::Bad)?;
                    // Alter: the new file's level must dominate the client's.
                    if !level.dominates(&me.level) {
                        return Err(Status::Denied);
                    }
                    // Blind operations (the client cannot observe the target
                    // level) must not reveal namespace state: a collision with
                    // a higher-level file would otherwise be a HIGH→LOW storage
                    // channel, so the status is masked to Ok.
                    let blind = !me.level.dominates(&level);
                    let key = (name.clone(), level.class.rank());
                    if self.files.contains_key(&key) {
                        return if blind {
                            Ok(Vec::new())
                        } else {
                            Err(Status::Full)
                        };
                    }
                    self.files.insert(
                        key,
                        FileRecord {
                            level,
                            data: Vec::new(),
                        },
                    );
                    Ok(Vec::new())
                }
                op::WRITE | op::APPEND => {
                    let (name, level) = read_name_level(&mut r)?;
                    let data = r.bytes().map_err(|_| Status::Bad)?.to_vec();
                    r.finish().map_err(|_| Status::Bad)?;
                    if !level.dominates(&me.level) {
                        return Err(Status::Denied);
                    }
                    // Mask existence on blind alters (see CREATE above).
                    let blind = !me.level.dominates(&level);
                    let rec = match self
                        .files
                        .get_mut(&(name, level.class.rank()))
                        .filter(|f| f.level == level)
                    {
                        Some(rec) => rec,
                        None if blind => return Ok(Vec::new()),
                        None => return Err(Status::NotFound),
                    };
                    if opcode == op::WRITE {
                        rec.data = data;
                    } else {
                        rec.data.extend_from_slice(&data);
                    }
                    Ok(Vec::new())
                }
                op::READ => {
                    let (name, level) = read_name_level(&mut r)?;
                    r.finish().map_err(|_| Status::Bad)?;
                    // Observe: the client's level must dominate the file's.
                    if !me.level.dominates(&level) {
                        return Err(Status::Denied);
                    }
                    let rec = self
                        .files
                        .get(&(name, level.class.rank()))
                        .filter(|f| f.level == level)
                        .ok_or(Status::NotFound)?;
                    let mut w = MsgWriter::new();
                    w.bytes(&rec.data);
                    Ok(w.finish())
                }
                op::DELETE => {
                    let (name, level) = read_name_level(&mut r)?;
                    r.finish().map_err(|_| Status::Bad)?;
                    let permitted =
                        level == me.level || (me.special_delete && name.starts_with("spool/"));
                    if !permitted {
                        return Err(Status::Denied);
                    }
                    if me.special_delete && level != me.level {
                        self.audit.push(format!(
                            "special-delete by {} of {} at {}",
                            me.name, name, level
                        ));
                    }
                    self.files
                        .remove(&(name, level.class.rank()))
                        .ok_or(Status::NotFound)?;
                    Ok(Vec::new())
                }
                op::LIST => {
                    r.finish().map_err(|_| Status::Bad)?;
                    let mut w = MsgWriter::new();
                    let visible: Vec<_> = self
                        .files
                        .iter()
                        .filter(|(_, f)| me.level.dominates(&f.level))
                        .collect();
                    w.u16(visible.len() as u16);
                    for ((name, _), f) in visible {
                        w.str(name);
                        w.u8(f.level.class.rank());
                    }
                    Ok(w.finish())
                }
                _ => Err(Status::Bad),
            }
        }
    }

    /// Reads a `name level_rank` pair common to most requests.
    fn read_name_level(r: &mut MsgReader<'_>) -> Result<(String, SecurityLevel), Status> {
        let name = r.str().map_err(|_| Status::Bad)?.to_string();
        let rank = r.u8().map_err(|_| Status::Bad)?;
        let class = sep_policy::level::Classification::from_rank(rank).ok_or(Status::Bad)?;
        Ok((name, SecurityLevel::plain(class)))
    }

    impl Component for FileServer {
        fn name(&self) -> &str {
            "file-server"
        }

        fn step(&mut self, io: &mut dyn ComponentIo) {
            for client in 0..self.clients.len() {
                let req_port = format!("c{client}.req");
                let rsp_port = format!("c{client}.rsp");
                while let Some(frame) = io.recv(&req_port) {
                    let rsp = self.handle_framed(client, &frame);
                    io.send(&rsp_port, &rsp);
                }
            }
        }

        // It only answers frames: with none arriving, nothing happens.
        fn quiet_rounds(&self, _round: u64) -> u64 {
            u64::MAX
        }

        fn advance(&mut self, _round: u64, _n: u64) {}

        fn boxed_clone(&self) -> Box<dyn Component> {
            Box::new(self.clone())
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }
}

/// The clients: a low user, a high user, and the printer with the
/// special-delete privilege.
fn clients() -> Vec<FsClient> {
    let client = |name: &str, class, special_delete| FsClient {
        name: name.to_string(),
        level: SecurityLevel::plain(class),
        special_delete,
    };
    vec![
        client("low", Classification::Unclassified, false),
        client("high", Classification::Secret, false),
        client("printer", Classification::Secret, true),
    ]
}

/// Names the stream draws from: plain files, spool files the printer may
/// delete at any level, an empty name and one longer than the key buffer
/// has held before.
const NAMES: [&str; 6] = [
    "memo",
    "plans",
    "spool/job1",
    "spool/job2",
    "",
    "a/rather/longer/file/name/than/the/others",
];

fn level(rng: &mut SplitMix64) -> SecurityLevel {
    let rank = rng.below(Classification::ALL.len());
    SecurityLevel::plain(Classification::ALL[rank])
}

/// One well-formed request of any of the six opcodes.
fn request(rng: &mut SplitMix64) -> Vec<u8> {
    let name = NAMES[rng.below(NAMES.len())];
    let level = level(rng);
    let data: Vec<u8> = (0..rng.below(12)).map(|_| rng.below(256) as u8).collect();
    match rng.below(12) {
        0..=2 => request::create(name, level),
        3 => request::write(name, level, &data),
        4..=5 => request::append(name, level, &data),
        6..=8 => request::read(name, level),
        9..=10 => request::delete(name, level),
        _ => request::list(),
    }
}

/// A malformed frame: a request cut short, one with trailing bytes, an
/// unknown opcode, a level rank no classification has, random bytes, or
/// nothing at all.
fn malformed(rng: &mut SplitMix64) -> Vec<u8> {
    let mut frame = request(rng);
    match rng.below(6) {
        0 => {
            let keep = rng.below(frame.len());
            frame.truncate(keep);
        }
        1 => frame.push(rng.below(256) as u8),
        2 => frame[0] = 7 + rng.below(249) as u8,
        3 => {
            frame = request::read("memo", SecurityLevel::unclassified());
            *frame.last_mut().expect("a READ ends with its level") = 9;
        }
        4 => frame = (0..rng.below(16)).map(|_| rng.below(256) as u8).collect(),
        _ => frame.clear(),
    }
    frame
}

/// The next frame of the stream: mostly plain requests, some malformed,
/// and a third wrapped in TAGGED envelopes whose ids repeat (the same id
/// may come back with a different request inside).
fn frame(rng: &mut SplitMix64) -> Vec<u8> {
    let inner = if rng.below(10) == 0 {
        malformed(rng)
    } else {
        request(rng)
    };
    match rng.below(6) {
        0 | 1 => request::tagged(rng.below(8) as u64, &inner),
        // An envelope too short to carry an id is served as a plain frame.
        2 if rng.below(4) == 0 => vec![op::TAGGED; rng.below(9)],
        _ => inner,
    }
}

/// Everything the host can see of a file server.
#[derive(Debug, PartialEq)]
struct Seen {
    file_count: usize,
    files: Vec<Option<Vec<u8>>>,
    audit: Vec<String>,
    requests_served: u64,
    denials: u64,
    duplicates_replayed: u64,
}

fn seen_new(fs: &FileServer) -> Seen {
    Seen {
        file_count: fs.file_count(),
        files: every_file(|name, level| fs.host_file(name, level).map(<[u8]>::to_vec)),
        audit: fs.audit.clone(),
        requests_served: fs.requests_served,
        denials: fs.denials,
        duplicates_replayed: fs.duplicates_replayed,
    }
}

fn seen_reference(fs: &reference::FileServer) -> Seen {
    Seen {
        file_count: fs.file_count(),
        files: every_file(|name, level| fs.host_file(name, level).map(<[u8]>::to_vec)),
        audit: fs.audit.clone(),
        requests_served: fs.requests_served,
        denials: fs.denials,
        duplicates_replayed: fs.duplicates_replayed,
    }
}

/// `host_file` of every name at every level.
fn every_file(f: impl Fn(&str, SecurityLevel) -> Option<Vec<u8>>) -> Vec<Option<Vec<u8>>> {
    NAMES
        .iter()
        .flat_map(|name| {
            Classification::ALL
                .iter()
                .map(|&class| f(name, SecurityLevel::plain(class)))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Serves `rounds` rounds of the stream seeded by `seed` on both servers
/// and compares them after every round. Returns the responses' status
/// bytes and what the host sees at the end, so the caller can check the
/// stream reached every outcome.
fn lockstep(seed: u64, rounds: u64, dedup_window: usize) -> (Vec<u8>, Seen) {
    let mut rng = SplitMix64::new(seed);
    let mut new = FileServer::new(clients()).with_dedup_window(dedup_window);
    let mut old = reference::FileServer::new(clients()).with_dedup_window(dedup_window);
    let (mut new_io, mut old_io) = (TestIo::new(), TestIo::new());
    let mut statuses = Vec::new();
    for round in 0..rounds {
        for _ in 0..rng.below(5) {
            let port = format!("c{}.req", rng.below(3));
            let f = frame(&mut rng);
            new_io.push(&port, &f);
            old_io.push(&port, &f);
        }
        new_io.run(&mut new, 1);
        old_io.run(&mut old, 1);
        for client in 0..3 {
            let port = format!("c{client}.rsp");
            let (got, want) = (new_io.take_sent(&port), old_io.take_sent(&port));
            assert_eq!(got, want, "seed {seed:#x}, round {round}: {port} differs");
            statuses.extend(got.iter().map(|rsp| {
                let inner = request::untag(rsp).map_or(rsp.as_slice(), |(_, inner)| inner);
                inner.first().copied().unwrap_or(u8::MAX)
            }));
        }
        assert_eq!(
            seen_new(&new),
            seen_reference(&old),
            "seed {seed:#x}, round {round}"
        );
    }
    (statuses, seen_new(&new))
}

#[test]
fn a_seeded_stream_is_served_like_the_reference() {
    let (statuses, seen) = lockstep(0xF11E, 3_000, 4);
    // Every status the server can answer came up: Ok, Denied, NotFound,
    // Bad and Full.
    for code in 0..=4 {
        assert!(statuses.contains(&code), "no response with status {code}");
    }
    assert!(seen.duplicates_replayed > 0, "no TAGGED id was replayed");
    assert!(!seen.audit.is_empty(), "no special delete across levels");
    assert!(seen.denials > 0 && seen.file_count > 0);
}

#[test]
fn a_seeded_stream_without_a_dedup_window_is_served_like_the_reference() {
    lockstep(0x0DED, 2_000, 0);
}

#[test]
fn delete_then_read_and_one_name_at_two_levels_match_the_reference() {
    let low = SecurityLevel::unclassified();
    let high = SecurityLevel::plain(Classification::Secret);
    let script: [(usize, Vec<u8>); 9] = [
        (0, request::create("report", low)),
        (1, request::create("report", high)),
        (0, request::append("report", low, b"low words")),
        (1, request::append("report", high, b"high words")),
        (1, request::list()),
        (0, request::delete("report", low)),
        (0, request::read("report", low)),
        (1, request::read("report", high)),
        (2, request::tagged(5, &request::delete("report", high))),
    ];
    let mut new = FileServer::new(clients());
    let mut old = reference::FileServer::new(clients());
    let (mut new_io, mut old_io) = (TestIo::new(), TestIo::new());
    for (client, req) in &script {
        let (req_port, rsp_port) = (format!("c{client}.req"), format!("c{client}.rsp"));
        new_io.push(&req_port, req);
        old_io.push(&req_port, req);
        new_io.run(&mut new, 1);
        old_io.run(&mut old, 1);
        assert_eq!(new_io.take_sent(&rsp_port), old_io.take_sent(&rsp_port));
        assert_eq!(seen_new(&new), seen_reference(&old));
    }
    assert_eq!(new.file_count(), 0);
}

//! The multilevel secure file-server of the paper's §2.
//!
//! > "Provided that single component adheres to and enforces the multilevel
//! > security policy, the security of the rest of the system follows from
//! > the physical separation of its components."
//!
//! Files are identified by *(name, level)* — carrying the level explicitly
//! in every request keeps the namespace free of the existence-inference
//! channels that a flat namespace would open. Per request the server
//! enforces:
//!
//! * **read** (`READ`, `LIST`): the client's level must dominate the
//!   file's;
//! * **alter** (`CREATE`, `WRITE`, `APPEND`): the file's level must
//!   dominate the client's;
//! * **delete**: levels must be equal — *except* for clients holding the
//!   printer-server's **special service** privilege, which may delete spool
//!   files of any classification. That privilege is exactly the paper's
//!   point: a concrete, stated, auditable service, not a kernel dispensation
//!   to flout the ★-property.
//!
//! Each client owns a dedicated pair of ports (`c{i}.req`, `c{i}.rsp`) —
//! the "dedicated communication line" of the idealized design.

use crate::component::{Component, ComponentIo};
use crate::proto::{MsgReader, MsgWriter, Status};
use sep_policy::level::SecurityLevel;
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

/// Request opcodes.
pub mod op {
    /// `CREATE name level` — create an empty file.
    pub const CREATE: u8 = 0;
    /// `WRITE name level data` — replace contents (blind alter).
    pub const WRITE: u8 = 1;
    /// `APPEND name level data` — extend contents (blind alter).
    pub const APPEND: u8 = 2;
    /// `READ name level` — fetch contents.
    pub const READ: u8 = 3;
    /// `DELETE name level` — remove the file.
    pub const DELETE: u8 = 4;
    /// `LIST` — enumerate files the client may observe.
    pub const LIST: u8 = 5;
    /// `TAGGED id:u64le inner-request` — an idempotent envelope: the
    /// response repeats the envelope, and a server with a dedup window
    /// replays the cached response for a repeated id instead of
    /// re-executing (exactly-once under client retry).
    pub const TAGGED: u8 = 6;
}

/// A registered client of the file server.
#[derive(Debug, Clone)]
pub struct FsClient {
    /// Display name (for the audit log).
    pub name: String,
    /// The session level (fixed; supplied by the authentication service).
    pub level: SecurityLevel,
    /// The printer-server's special privilege: delete spool files of any
    /// classification. Every exercise is audited.
    pub special_delete: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct FileRecord {
    level: SecurityLevel,
    data: Vec<u8>,
}

/// The multilevel secure file server.
#[derive(Debug, Clone)]
pub struct FileServer {
    clients: Vec<FsClient>,
    /// Each client's `c{i}.req` and `c{i}.rsp` port names, built once.
    ports: Vec<(String, String)>,
    files: BTreeMap<(String, u8), FileRecord>, // key includes the level rank
    /// The key a request looks its file up by, reused so that only CREATE
    /// allocates a name.
    key: (String, u8),
    /// The response being built, reused across requests.
    rsp: Vec<u8>,
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
        let ports = (0..clients.len())
            .map(|i| (format!("c{i}.req"), format!("c{i}.rsp")))
            .collect();
        FileServer {
            clients,
            ports,
            files: BTreeMap::new(),
            key: (String::new(), 0),
            rsp: Vec::new(),
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

    /// Replaces `out` with the response to one frame, unwrapping a
    /// [`op::TAGGED`] envelope: repeated ids inside the dedup window replay
    /// the cached response verbatim — the request is *not* re-executed.
    fn respond(&mut self, client: usize, frame: &[u8], out: &mut Vec<u8>) {
        out.clear();
        let Some((id, inner)) = request::untag(frame) else {
            return self.handle(client, frame, out);
        };
        if let Some(cached) = self.recent.get(&(client, id)) {
            self.duplicates_replayed += 1;
            out.extend_from_slice(cached);
            return;
        }
        out.extend_from_slice(&frame[..9]);
        self.handle(client, inner, out);
        if self.dedup_window > 0 {
            self.recent.insert((client, id), out.clone());
            self.recent_order.push_back((client, id));
            if self.recent_order.len() > self.dedup_window {
                let oldest = self.recent_order.pop_front().expect("non-empty window");
                self.recent.remove(&oldest);
            }
        }
    }

    /// Executes one request, appending its status byte and then its
    /// payload to `out`.
    fn handle(&mut self, client: usize, frame: &[u8], out: &mut Vec<u8>) {
        self.requests_served += 1;
        let at = out.len();
        out.push(Status::Ok.code());
        if let Err(status) = self.dispatch(client, frame, out) {
            if status == Status::Denied {
                self.denials += 1;
            }
            out.truncate(at);
            out.push(status.code());
        }
    }

    /// Executes one request, appending its payload, if it has one, to
    /// `out`.
    fn dispatch(&mut self, client: usize, frame: &[u8], out: &mut Vec<u8>) -> Result<(), Status> {
        let (mine, special) = (
            self.clients[client].level,
            self.clients[client].special_delete,
        );
        let mut r = MsgReader::new(frame);
        let opcode = r.u8().map_err(|_| Status::Bad)?;
        match opcode {
            op::CREATE => {
                let (name, level) = read_name_level(&mut r)?;
                r.finish().map_err(|_| Status::Bad)?;
                // Alter: the new file's level must dominate the client's.
                if !level.dominates(&mine) {
                    return Err(Status::Denied);
                }
                // Blind operations (the client cannot observe the target
                // level) must not reveal namespace state: a collision with
                // a higher-level file would otherwise be a HIGH→LOW storage
                // channel, so the status is masked to Ok.
                let blind = !mine.dominates(&level);
                if self
                    .files
                    .contains_key(lookup_key(&mut self.key, name, level))
                {
                    return if blind { Ok(()) } else { Err(Status::Full) };
                }
                self.files.insert(
                    (name.to_string(), level.class.rank()),
                    FileRecord {
                        level,
                        data: Vec::new(),
                    },
                );
                Ok(())
            }
            op::WRITE | op::APPEND => {
                let (name, level) = read_name_level(&mut r)?;
                let data = r.bytes().map_err(|_| Status::Bad)?;
                r.finish().map_err(|_| Status::Bad)?;
                if !level.dominates(&mine) {
                    return Err(Status::Denied);
                }
                // Mask existence on blind alters (see CREATE above).
                let blind = !mine.dominates(&level);
                let rec = match self
                    .files
                    .get_mut(lookup_key(&mut self.key, name, level))
                    .filter(|f| f.level == level)
                {
                    Some(rec) => rec,
                    None if blind => return Ok(()),
                    None => return Err(Status::NotFound),
                };
                if opcode == op::WRITE {
                    rec.data.clear();
                }
                rec.data.extend_from_slice(data);
                Ok(())
            }
            op::READ => {
                let (name, level) = read_name_level(&mut r)?;
                r.finish().map_err(|_| Status::Bad)?;
                // Observe: the client's level must dominate the file's.
                if !mine.dominates(&level) {
                    return Err(Status::Denied);
                }
                let rec = self
                    .files
                    .get(lookup_key(&mut self.key, name, level))
                    .filter(|f| f.level == level)
                    .ok_or(Status::NotFound)?;
                let mut w = MsgWriter::append_to(std::mem::take(out));
                w.bytes(&rec.data);
                *out = w.finish();
                Ok(())
            }
            op::DELETE => {
                let (name, level) = read_name_level(&mut r)?;
                r.finish().map_err(|_| Status::Bad)?;
                let permitted = level == mine || (special && name.starts_with("spool/"));
                if !permitted {
                    return Err(Status::Denied);
                }
                if special && level != mine {
                    self.audit.push(format!(
                        "special-delete by {} of {} at {}",
                        self.clients[client].name, name, level
                    ));
                }
                self.files
                    .remove(lookup_key(&mut self.key, name, level))
                    .ok_or(Status::NotFound)?;
                Ok(())
            }
            op::LIST => {
                r.finish().map_err(|_| Status::Bad)?;
                let mut w = MsgWriter::append_to(std::mem::take(out));
                let visible: Vec<_> = self
                    .files
                    .iter()
                    .filter(|(_, f)| mine.dominates(&f.level))
                    .collect();
                w.u16(visible.len() as u16);
                for ((name, _), f) in visible {
                    w.str(name);
                    w.u8(f.level.class.rank());
                }
                *out = w.finish();
                Ok(())
            }
            _ => Err(Status::Bad),
        }
    }
}

/// Reads a `name level_rank` pair common to most requests.
fn read_name_level<'a>(r: &mut MsgReader<'a>) -> Result<(&'a str, SecurityLevel), Status> {
    let name = r.str().map_err(|_| Status::Bad)?;
    let rank = r.u8().map_err(|_| Status::Bad)?;
    let class = sep_policy::level::Classification::from_rank(rank).ok_or(Status::Bad)?;
    Ok((name, SecurityLevel::plain(class)))
}

/// Refills the server's reused lookup `key` with `(name, level rank)`.
fn lookup_key<'k>(key: &'k mut (String, u8), name: &str, level: SecurityLevel) -> &'k (String, u8) {
    key.0.clear();
    key.0.push_str(name);
    key.1 = level.class.rank();
    key
}

impl Component for FileServer {
    fn name(&self) -> &str {
        "file-server"
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        let mut rsp = std::mem::take(&mut self.rsp);
        for client in 0..self.clients.len() {
            while let Some(frame) = io.recv(&self.ports[client].0) {
                self.respond(client, &frame, &mut rsp);
                io.send(&self.ports[client].1, &rsp);
                io.recycle(frame);
            }
        }
        self.rsp = rsp;
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

/// Client-side request encoders (used by other components, the examples,
/// and the tests).
pub mod request {
    use super::*;

    /// Appends a `name level_rank` request, then `data` if it has one.
    fn name_level(
        out: &mut Vec<u8>,
        opcode: u8,
        name: &str,
        level: SecurityLevel,
        data: Option<&[u8]>,
    ) {
        let mut w = MsgWriter::append_to(std::mem::take(out));
        w.u8(opcode).str(name).u8(level.class.rank());
        if let Some(data) = data {
            w.bytes(data);
        }
        *out = w.finish();
    }

    /// Appends `CREATE` to `out`.
    pub fn create_into(out: &mut Vec<u8>, name: &str, level: SecurityLevel) {
        name_level(out, op::CREATE, name, level, None);
    }

    /// Appends `APPEND` to `out`.
    pub fn append_into(out: &mut Vec<u8>, name: &str, level: SecurityLevel, data: &[u8]) {
        name_level(out, op::APPEND, name, level, Some(data));
    }

    /// Appends `READ` to `out`.
    pub fn read_into(out: &mut Vec<u8>, name: &str, level: SecurityLevel) {
        name_level(out, op::READ, name, level, None);
    }

    /// Encodes `CREATE`.
    pub fn create(name: &str, level: SecurityLevel) -> Vec<u8> {
        let mut out = Vec::new();
        create_into(&mut out, name, level);
        out
    }

    /// Encodes `WRITE`.
    pub fn write(name: &str, level: SecurityLevel, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        name_level(&mut out, op::WRITE, name, level, Some(data));
        out
    }

    /// Encodes `APPEND`.
    pub fn append(name: &str, level: SecurityLevel, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        append_into(&mut out, name, level, data);
        out
    }

    /// Encodes `READ`.
    pub fn read(name: &str, level: SecurityLevel) -> Vec<u8> {
        let mut out = Vec::new();
        read_into(&mut out, name, level);
        out
    }

    /// Encodes `DELETE`.
    pub fn delete(name: &str, level: SecurityLevel) -> Vec<u8> {
        let mut out = Vec::new();
        name_level(&mut out, op::DELETE, name, level, None);
        out
    }

    /// Encodes `LIST`.
    pub fn list() -> Vec<u8> {
        MsgWriter::with_op(op::LIST).finish()
    }

    /// Wraps a request in an idempotent [`op::TAGGED`] envelope.
    pub fn tagged(id: u64, inner: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + inner.len());
        out.push(op::TAGGED);
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(inner);
        out
    }

    /// Splits a [`op::TAGGED`] envelope (request or response) into the id
    /// and the inner frame.
    pub fn untag(frame: &[u8]) -> Option<(u64, &[u8])> {
        if frame.len() < 9 || frame[0] != op::TAGGED {
            return None;
        }
        let id = u64::from_le_bytes(frame[1..9].try_into().ok()?);
        Some((id, &frame[9..]))
    }

    /// Decodes a response's status byte and payload.
    pub fn decode(rsp: &[u8]) -> (Status, &[u8]) {
        let status = rsp
            .first()
            .and_then(|&c| Status::from_code(c))
            .unwrap_or(Status::Bad);
        (status, rsp.get(1..).unwrap_or(&[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::TestIo;
    use sep_policy::level::Classification;

    fn secret() -> SecurityLevel {
        SecurityLevel::plain(Classification::Secret)
    }

    fn unclass() -> SecurityLevel {
        SecurityLevel::plain(Classification::Unclassified)
    }

    /// Clients: 0 = low user, 1 = high user, 2 = printer (special).
    fn server() -> FileServer {
        FileServer::new(vec![
            FsClient {
                name: "low".into(),
                level: unclass(),
                special_delete: false,
            },
            FsClient {
                name: "high".into(),
                level: secret(),
                special_delete: false,
            },
            FsClient {
                name: "printer".into(),
                level: secret(),
                special_delete: true,
            },
        ])
    }

    fn one_round(fs: &mut FileServer, client: usize, req: Vec<u8>) -> (Status, Vec<u8>) {
        let mut io = TestIo::new();
        io.push(&format!("c{client}.req"), &req);
        io.run(fs, 1);
        let rsp = io.take_sent(&format!("c{client}.rsp"));
        assert_eq!(rsp.len(), 1);
        let (status, payload) = request::decode(&rsp[0]);
        (status, payload.to_vec())
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = server();
        assert_eq!(
            one_round(&mut fs, 0, request::create("memo", unclass())).0,
            Status::Ok
        );
        assert_eq!(
            one_round(&mut fs, 0, request::write("memo", unclass(), b"hello")).0,
            Status::Ok
        );
        let (status, payload) = one_round(&mut fs, 0, request::read("memo", unclass()));
        assert_eq!(status, Status::Ok);
        let mut r = MsgReader::new(&payload);
        assert_eq!(r.bytes().unwrap(), b"hello");
    }

    #[test]
    fn read_up_is_denied() {
        let mut fs = server();
        one_round(&mut fs, 1, request::create("plans", secret()));
        one_round(
            &mut fs,
            1,
            request::write("plans", secret(), b"attack at dawn"),
        );
        let (status, _) = one_round(&mut fs, 0, request::read("plans", secret()));
        assert_eq!(status, Status::Denied);
        assert!(fs.denials > 0);
    }

    #[test]
    fn write_down_is_denied_append_up_is_allowed() {
        let mut fs = server();
        one_round(&mut fs, 0, request::create("box", unclass()));
        // High user cannot alter a low file...
        assert_eq!(
            one_round(&mut fs, 1, request::write("box", unclass(), b"x")).0,
            Status::Denied
        );
        // ...but a low user can blindly append to a high file.
        one_round(&mut fs, 1, request::create("dropbox", secret()));
        assert_eq!(
            one_round(&mut fs, 0, request::append("dropbox", secret(), b"tip")).0,
            Status::Ok
        );
        assert_eq!(fs.host_file("dropbox", secret()).unwrap(), b"tip");
    }

    #[test]
    fn list_shows_only_dominated_levels() {
        let mut fs = server();
        one_round(&mut fs, 0, request::create("lowfile", unclass()));
        one_round(&mut fs, 1, request::create("highfile", secret()));
        let (status, payload) = one_round(&mut fs, 0, request::list());
        assert_eq!(status, Status::Ok);
        let mut r = MsgReader::new(&payload);
        assert_eq!(r.u16().unwrap(), 1);
        assert_eq!(r.str().unwrap(), "lowfile");
    }

    #[test]
    fn delete_requires_equal_level() {
        let mut fs = server();
        one_round(&mut fs, 0, request::create("junk", unclass()));
        // High user cannot delete the low file (write-down)...
        assert_eq!(
            one_round(&mut fs, 1, request::delete("junk", unclass())).0,
            Status::Denied
        );
        // ...the owner level can.
        assert_eq!(
            one_round(&mut fs, 0, request::delete("junk", unclass())).0,
            Status::Ok
        );
    }

    #[test]
    fn special_service_deletes_spool_files_across_levels_with_audit() {
        let mut fs = server();
        one_round(&mut fs, 0, request::create("spool/job1", unclass()));
        // The printer (special) deletes the low spool file despite running
        // high — the paper's spooler problem, solved as a stated service.
        assert_eq!(
            one_round(&mut fs, 2, request::delete("spool/job1", unclass())).0,
            Status::Ok
        );
        assert_eq!(fs.audit.len(), 1);
        assert!(fs.audit[0].contains("spool/job1"));
        // The special privilege does NOT extend to non-spool files.
        one_round(&mut fs, 0, request::create("private", unclass()));
        assert_eq!(
            one_round(&mut fs, 2, request::delete("private", unclass())).0,
            Status::Denied
        );
    }

    #[test]
    fn same_name_different_levels_coexist() {
        let mut fs = server();
        one_round(&mut fs, 0, request::create("report", unclass()));
        assert_eq!(
            one_round(&mut fs, 1, request::create("report", secret())).0,
            Status::Ok
        );
        assert_eq!(fs.file_count(), 2);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let mut fs = server();
        assert_eq!(one_round(&mut fs, 0, vec![op::READ, 0xFF]).0, Status::Bad);
        assert_eq!(one_round(&mut fs, 0, vec![99]).0, Status::Bad);
        assert_eq!(one_round(&mut fs, 0, vec![]).0, Status::Bad);
    }

    #[test]
    fn blind_up_statuses_are_masked() {
        // LOW's blind operations against the HIGH namespace return Ok
        // whether or not the high file exists — no storage channel.
        let mut fs = server();
        assert_eq!(
            one_round(&mut fs, 0, request::write("ghost", secret(), b"x")).0,
            Status::Ok,
            "blind write to a missing high file is masked"
        );
        one_round(&mut fs, 1, request::create("plans", secret()));
        assert_eq!(
            one_round(&mut fs, 0, request::create("plans", secret())).0,
            Status::Ok,
            "blind create collision is masked"
        );
        // The collision did not clobber the high file.
        assert!(fs.host_file("plans", secret()).is_some());
        // Same-level operations still report errors faithfully.
        one_round(&mut fs, 0, request::create("mine", unclass()));
        assert_eq!(
            one_round(&mut fs, 0, request::create("mine", unclass())).0,
            Status::Full
        );
        assert_eq!(
            one_round(&mut fs, 0, request::write("missing", unclass(), b"x")).0,
            Status::NotFound
        );
    }

    #[test]
    fn create_duplicate_is_refused() {
        let mut fs = server();
        one_round(&mut fs, 0, request::create("x", unclass()));
        assert_eq!(
            one_round(&mut fs, 0, request::create("x", unclass())).0,
            Status::Full
        );
    }

    #[test]
    fn tagged_duplicate_replays_without_reexecuting() {
        let mut fs = server().with_dedup_window(8);
        let req = request::tagged(42, &request::create("once", unclass()));
        let mut io = TestIo::new();
        io.push("c0.req", &req);
        io.push("c0.req", &req); // a client retry of the same id
        io.run(&mut fs, 1);
        let rsps = io.take_sent("c0.rsp");
        assert_eq!(rsps.len(), 2, "every copy gets a response");
        assert_eq!(rsps[0], rsps[1], "the duplicate is the cached response");
        let (id, inner) = request::untag(&rsps[0]).expect("tagged response");
        assert_eq!(id, 42);
        assert_eq!(request::decode(inner).0, Status::Ok);
        // Executed once: one file, one serve, one replay — no Full error
        // from a re-executed create.
        assert_eq!(fs.file_count(), 1);
        assert_eq!(fs.requests_served, 1);
        assert_eq!(fs.duplicates_replayed, 1);
    }

    #[test]
    fn tagged_append_duplicate_commits_once() {
        let mut fs = server().with_dedup_window(8);
        one_round(&mut fs, 0, request::create("log", unclass()));
        let req = request::tagged(7, &request::append("log", unclass(), b"entry"));
        let mut io = TestIo::new();
        io.push("c0.req", &req);
        io.push("c0.req", &req);
        io.push("c0.req", &req);
        io.run(&mut fs, 1);
        assert_eq!(
            fs.host_file("log", unclass()).unwrap(),
            b"entry",
            "a retried append must not double-commit"
        );
        assert_eq!(fs.duplicates_replayed, 2);
    }

    #[test]
    fn dedup_window_is_bounded_fifo() {
        let mut fs = server().with_dedup_window(2);
        let mut io = TestIo::new();
        for id in 0..3u64 {
            let name = format!("f{id}");
            io.push(
                "c0.req",
                &request::tagged(id, &request::create(&name, unclass())),
            );
        }
        io.run(&mut fs, 1);
        // Id 0 has been evicted (window 2): a late duplicate re-executes
        // and sees the honest Full error instead of the cached Ok.
        io.push(
            "c0.req",
            &request::tagged(0, &request::create("f0", unclass())),
        );
        io.run(&mut fs, 1);
        let rsps = io.take_sent("c0.rsp");
        let (_, inner) = request::untag(rsps.last().unwrap()).unwrap();
        assert_eq!(request::decode(inner).0, Status::Full);
        assert_eq!(fs.duplicates_replayed, 0);
    }

    #[test]
    fn tagged_without_dedup_window_executes_every_copy() {
        let mut fs = server();
        let req = request::tagged(1, &request::create("x", unclass()));
        let mut io = TestIo::new();
        io.push("c0.req", &req);
        io.push("c0.req", &req);
        io.run(&mut fs, 1);
        assert_eq!(fs.requests_served, 2, "no window, no dedup");
        assert_eq!(fs.duplicates_replayed, 0);
    }

    #[test]
    fn dedup_cache_is_per_client() {
        // Client ids are independent spaces: the same id from two clients
        // must not collide in the cache.
        let mut fs = server().with_dedup_window(8);
        let mut io = TestIo::new();
        io.push(
            "c0.req",
            &request::tagged(9, &request::create("a", unclass())),
        );
        io.push(
            "c1.req",
            &request::tagged(9, &request::create("b", secret())),
        );
        io.run(&mut fs, 1);
        assert_eq!(fs.requests_served, 2);
        assert_eq!(fs.duplicates_replayed, 0);
        assert_eq!(fs.file_count(), 2);
    }
}

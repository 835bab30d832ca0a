//! Seeded traffic generation: client populations as components.
//!
//! A [`LoadGen`] simulates a whole population of file-server and Guard
//! clients behind one node — thousands to millions of users, each request
//! attributed to a user drawn from a seeded [`SplitMix64`]. It is an
//! ordinary [`Component`], so it runs inside a kernel regime like any
//! trusted service and its traffic leaves the node through the gateway like
//! anyone else's. Request latency is measured in rounds, from issue to the
//! matching response, into a [`LatencyHistogram`].
//!
//! Two pacing modes ([`LoopMode`]):
//!
//! * **Open** — requests arrive at a fixed expected rate regardless of
//!   responses (an arrival process; overload shows up as queue growth).
//! * **Closed** — a window of outstanding requests; each response releases
//!   the next (think-time-free closed loop; overload shows up as latency).
//!
//! A list of [`BurstPhase`]s scales either mode over time — the diurnal
//! schedule of the experiment plan. Phases cycle, so a two-phase
//! quiet/burst plan is a square wave.
//!
//! A *round* here is one of the generator's own steps: the round counter
//! its component port reports. Hosted in a kernel regime, that is one
//! scheduler slot of the generator, not a network round: on a 64-slot node
//! whose only other regime is the uplink it is 32 rounds per network round,
//! so a 60-round phase lasts under two network rounds.

use crate::metrics::LatencyHistogram;
use sep_components::component::{Component, ComponentIo};
use sep_components::fileserver::request;
use sep_components::proto::Status;
use sep_model::rng::SplitMix64;
use sep_policy::level::SecurityLevel;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write;

/// Request pacing.
#[derive(Debug, Clone, Copy)]
pub enum LoopMode {
    /// Open loop: an expected `rate_milli`/1000 requests per round,
    /// accumulated exactly (integer carry, no drift).
    Open {
        /// Requests per round, ×1000.
        rate_milli: u64,
    },
    /// Closed loop: at most `window` requests outstanding.
    Closed {
        /// Outstanding-request window.
        window: u64,
    },
}

/// One phase of the burst schedule.
#[derive(Debug, Clone, Copy)]
pub struct BurstPhase {
    /// Phase length in rounds (the generator's own steps; see the module
    /// docs).
    pub rounds: u64,
    /// Load level applied during the phase, ×1000 (1000 = nominal,
    /// 0 = idle, 2000 = double).
    pub level_pm: u64,
}

/// Workload mix in per-mille (must sum to 1000).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadMix {
    /// File reads.
    pub read_pm: u64,
    /// File creates/appends.
    pub write_pm: u64,
    /// Guard advisory round-trips.
    pub guard_pm: u64,
}

impl WorkloadMix {
    /// A read/write mix with no Guard traffic.
    pub fn rw(read_pm: u64, write_pm: u64) -> WorkloadMix {
        WorkloadMix {
            read_pm,
            write_pm,
            guard_pm: 0,
        }
    }

    fn validate(&self) {
        assert_eq!(
            self.read_pm + self.write_pm + self.guard_pm,
            1000,
            "workload mix must sum to 1000 per mille"
        );
    }
}

/// End-to-end retry policy: requests carry idempotent ids
/// ([`request::tagged`]) and are retransmitted, same id, until a response
/// arrives — so a server reboot loses nothing the client won't replay, and
/// the server's dedup window keeps the replay from committing twice.
/// Timeouts count rounds, the generator's own steps (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct RetryCfg {
    /// Rounds before the first retransmit of an unanswered request.
    pub timeout: u64,
    /// Backoff cap: the retry interval saturates at
    /// `timeout << backoff_shift_cap` rounds.
    pub backoff_shift_cap: u32,
}

impl Default for RetryCfg {
    fn default() -> Self {
        RetryCfg {
            timeout: 16,
            backoff_shift_cap: 4,
        }
    }
}

/// Configuration for one generator (one node's population).
#[derive(Debug, Clone)]
pub struct LoadGenCfg {
    /// RNG seed (user draws, op draws).
    pub seed: u64,
    /// Population size: requests are attributed to users `0..users`.
    pub users: u64,
    /// Pacing mode.
    pub mode: LoopMode,
    /// Operation mix.
    pub mix: WorkloadMix,
    /// Burst schedule; empty = constant nominal load.
    pub phases: Vec<BurstPhase>,
    /// The session level every simulated user runs at.
    pub level: SecurityLevel,
    /// End-to-end retry with idempotent request ids (`None` = classic
    /// fire-and-forget matching, responses paired FIFO).
    pub retry: Option<RetryCfg>,
}

/// One unanswered tagged request, kept for retransmission.
#[derive(Debug, Clone)]
struct PendingReq {
    /// Round the request was first issued (latency is end-to-end across
    /// retries).
    issued: u64,
    /// Round of the next retransmit, unless a response comes first.
    due: u64,
    attempts: u32,
    /// The exact tagged frame — a retry resends it byte-identical, same
    /// id, so the server can deduplicate.
    frame: Vec<u8>,
}

impl PendingReq {
    /// Records a send at `round`: the next retransmit waits
    /// `timeout << attempts` rounds, the shift capped.
    fn sent(&mut self, rc: RetryCfg, round: u64) {
        self.due = round + (rc.timeout << self.attempts.min(rc.backoff_shift_cap));
    }
}

/// Retry mode's unanswered requests on one port, by id, plus an index of
/// their due rounds, so a round finds its expired retries without scanning
/// every pending request.
#[derive(Debug, Clone, Default)]
struct RetryBook {
    pending: BTreeMap<u64, PendingReq>,
    /// `(due, id)` of every pending request.
    due: BTreeSet<(u64, u64)>,
}

impl RetryBook {
    fn len(&self) -> usize {
        self.pending.len()
    }

    fn insert(&mut self, id: u64, p: PendingReq) {
        self.due.insert((p.due, id));
        self.pending.insert(id, p);
    }

    /// Takes an answered request out of the book.
    fn remove(&mut self, id: u64) -> Option<PendingReq> {
        let p = self.pending.remove(&id)?;
        self.due.remove(&(p.due, id));
        Some(p)
    }

    /// The earliest due round, if anything is pending.
    fn next_due(&self) -> Option<u64> {
        self.due.first().map(|&(due, _)| due)
    }

    /// The ids due at or before `round`, ascending.
    fn expired(&self, round: u64) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .due
            .range(..=(round, u64::MAX))
            .map(|&(_, id)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The frame of pending request `id`.
    fn frame(&self, id: u64) -> &[u8] {
        &self.pending[&id].frame
    }

    /// Reschedules request `id` after a retransmit at `round`.
    fn resent(&mut self, id: u64, rc: RetryCfg, round: u64) {
        let p = self
            .pending
            .get_mut(&id)
            .expect("resent request is pending");
        self.due.remove(&(p.due, id));
        p.attempts = p.attempts.saturating_add(1);
        p.sent(rc, round);
        self.due.insert((p.due, id));
    }
}

/// A seeded client population as a component: issues file-server and
/// Guard requests, measures round-trip latency, and (with
/// [`RetryCfg`]) retries unanswered requests with capped exponential
/// backoff under idempotent request ids. Ports: `fs.req`/`fs.rsp` to a
/// file server, `guard.req`/`guard.rsp` through a Guard (only used when
/// the mix has Guard traffic). Rounds, phase lengths and retry timeouts
/// all count the generator's own steps (see the module docs).
#[derive(Debug, Clone)]
pub struct LoadGen {
    name: String,
    cfg: LoadGenCfg,
    rng: SplitMix64,
    carry_milli: u64,
    created: u64,
    fs_pending: VecDeque<u64>,
    guard_pending: VecDeque<u64>,
    /// Retry mode: unanswered requests, per port.
    fs_retry: RetryBook,
    guard_retry: RetryBook,
    next_id: u64,
    /// The file name or advisory, and the frame, of the request being
    /// issued: buffers reused from request to request.
    text: String,
    frame: Vec<u8>,
    /// Issue-to-response latency, in rounds.
    pub hist: LatencyHistogram,
    /// Requests issued onto the wire.
    pub issued: u64,
    /// Responses received.
    pub completed: u64,
    /// Responses carrying a policy denial.
    pub denied: u64,
    /// Responses carrying any non-Ok, non-Denied status.
    pub errored: u64,
    /// Sends refused by the local channel (node-side back-pressure).
    pub send_rejected: u64,
    /// Retransmissions of unanswered requests (retry mode).
    pub retried: u64,
    /// Responses for ids no longer pending — duplicates of an answer
    /// already counted (retry mode). Never double-completed.
    pub dup_responses: u64,
}

impl LoadGen {
    /// A generator named `name` (also its regime/trace name).
    pub fn new(name: &str, cfg: LoadGenCfg) -> LoadGen {
        cfg.mix.validate();
        LoadGen {
            name: name.to_string(),
            rng: SplitMix64::new(cfg.seed),
            cfg,
            carry_milli: 0,
            created: 0,
            fs_pending: VecDeque::new(),
            guard_pending: VecDeque::new(),
            fs_retry: RetryBook::default(),
            guard_retry: RetryBook::default(),
            next_id: 1,
            text: String::new(),
            frame: Vec::new(),
            hist: LatencyHistogram::new(),
            issued: 0,
            completed: 0,
            denied: 0,
            errored: 0,
            send_rejected: 0,
            retried: 0,
            dup_responses: 0,
        }
    }

    /// Requests currently outstanding.
    pub fn outstanding(&self) -> u64 {
        (self.fs_pending.len()
            + self.guard_pending.len()
            + self.fs_retry.len()
            + self.guard_retry.len()) as u64
    }

    /// Visits the burst schedule from `round` on as `(rounds, level_pm)`
    /// runs — the rest of the current phase, then whole phases, cycling —
    /// until `f` returns false. An empty schedule is one endless run at
    /// nominal load.
    fn for_each_run(&self, round: u64, mut f: impl FnMut(u64, u64) -> bool) {
        let phases = &self.cfg.phases;
        let total: u64 = phases.iter().map(|p| p.rounds).sum();
        if total == 0 {
            f(u64::MAX, 1000);
            return;
        }
        let (mut i, mut r) = (0, round % total);
        while r >= phases[i].rounds {
            r -= phases[i].rounds;
            i += 1;
        }
        let mut len = phases[i].rounds - r;
        while f(len, phases[i].level_pm) {
            i = (i + 1) % phases.len();
            len = phases[i].rounds;
        }
    }

    /// The burst level in effect at `round` (phases cycle).
    fn level_pm(&self, round: u64) -> u64 {
        let mut level = 1000;
        self.for_each_run(round, |_, l| {
            level = l;
            false
        });
        level
    }

    /// How many rounds from `round` on issue nothing while no response
    /// arrives: in closed loop the window can reopen only at a phase
    /// boundary, in open loop once the carry reaches a whole request.
    /// Walks at most one cycle of phases past the current one, so a long
    /// window may be under-reported, never over-reported.
    fn quota_free_rounds(&self, round: u64) -> u64 {
        let outstanding = self.outstanding();
        let (mut quiet, mut carry, mut runs, mut ended) = (0u64, self.carry_milli, 0, false);
        self.for_each_run(round, |len, level| {
            runs += 1;
            // The quiet rounds at the start of this run, and the carry
            // each of its rounds adds.
            let (free, step) = match self.cfg.mode {
                LoopMode::Closed { window } if window * level / 1000 > outstanding => (0, 0),
                LoopMode::Closed { .. } => (len, 0),
                LoopMode::Open { rate_milli } => match rate_milli * level / 1000 {
                    0 => (len, 0),
                    step => (((999 - carry) / step).min(len), step),
                },
            };
            if free < len {
                quiet += free;
                ended = true;
                return false;
            }
            carry += len * step;
            quiet = quiet.saturating_add(len);
            runs <= self.cfg.phases.len()
        });
        // A whole cycle that neither issues nor moves the carry repeats
        // forever.
        if ended || carry != self.carry_milli {
            quiet
        } else {
            u64::MAX
        }
    }

    /// How many requests to issue this round.
    fn quota(&mut self, round: u64) -> u64 {
        let level = self.level_pm(round);
        match self.cfg.mode {
            LoopMode::Open { rate_milli } => {
                self.carry_milli += rate_milli * level / 1000;
                let n = self.carry_milli / 1000;
                self.carry_milli %= 1000;
                n
            }
            LoopMode::Closed { window } => {
                let w = window * level / 1000;
                w.saturating_sub(self.outstanding())
            }
        }
    }

    /// Sends one request, through the tagged-retry machinery when retry is
    /// configured. Returns whether the send was accepted.
    fn dispatch(
        &mut self,
        io: &mut dyn ComponentIo,
        round: u64,
        port: &str,
        inner: &[u8],
        guard: bool,
    ) -> bool {
        if let Some(rc) = self.cfg.retry {
            let id = self.next_id;
            let frame = request::tagged(id, inner);
            if io.send(port, &frame) {
                self.next_id += 1;
                let mut p = PendingReq {
                    issued: round,
                    due: round,
                    attempts: 0,
                    frame,
                };
                p.sent(rc, round);
                if guard {
                    self.guard_retry.insert(id, p);
                } else {
                    self.fs_retry.insert(id, p);
                }
                self.issued += 1;
                true
            } else {
                self.send_rejected += 1;
                false
            }
        } else if io.send(port, inner) {
            if guard {
                self.guard_pending.push_back(round);
            } else {
                self.fs_pending.push_back(round);
            }
            self.issued += 1;
            true
        } else {
            self.send_rejected += 1;
            false
        }
    }

    fn issue_one(&mut self, io: &mut dyn ComponentIo, round: u64) {
        // Draws happen unconditionally so the request stream is a pure
        // function of the seed, independent of transient back-pressure.
        let uid = self.rng.below(self.cfg.users.max(1) as usize) as u64;
        let roll = self.rng.below(1000) as u64;
        let sub = self.rng.bool();
        let (mix, level) = (self.cfg.mix, self.cfg.level);
        let mut text = std::mem::take(&mut self.text);
        let mut frame = std::mem::take(&mut self.frame);
        text.clear();
        frame.clear();
        if roll < mix.guard_pm {
            let _ = write!(text, "advisory u{uid} n{}", self.issued);
            self.dispatch(io, round, "guard.req", text.as_bytes(), true);
        } else if roll < mix.guard_pm + mix.write_pm || self.created == 0 {
            // Writes alternate between creating a fresh file and appending
            // user data to an existing one (first write must create).
            let creating = sub || self.created == 0;
            if creating {
                let _ = write!(text, "{}/f{}", self.name, self.created);
                request::create_into(&mut frame, &text, level);
            } else {
                let pick = self.rng.below(self.created as usize) as u64;
                let _ = write!(text, "{}/f{pick}", self.name);
                request::append_into(&mut frame, &text, level, &uid.to_le_bytes());
            }
            if self.dispatch(io, round, "fs.req", &frame, false) && creating {
                self.created += 1;
            }
        } else {
            let pick = self.rng.below(self.created as usize) as u64;
            let _ = write!(text, "{}/f{pick}", self.name);
            request::read_into(&mut frame, &text, level);
            self.dispatch(io, round, "fs.req", &frame, false);
        }
        (self.text, self.frame) = (text, frame);
    }

    /// Retransmits unanswered tagged requests whose backoff has expired,
    /// byte-identical frames with the same id.
    fn retransmit(&mut self, io: &mut dyn ComponentIo, round: u64) {
        let Some(rc) = self.cfg.retry else { return };
        for guard in [false, true] {
            let (book, port) = if guard {
                (&mut self.guard_retry, "guard.req")
            } else {
                (&mut self.fs_retry, "fs.req")
            };
            if book.next_due().is_none_or(|due| due > round) {
                continue;
            }
            for id in book.expired(round) {
                if io.send(port, book.frame(id)) {
                    book.resent(id, rc, round);
                    self.retried += 1;
                }
                // A refused send is back-pressure, not failure: the entry
                // stays pending and expires again next round.
            }
        }
    }

    fn complete(&mut self, round: u64, issued_at: u64, status: Option<Status>) {
        self.hist.record(round.saturating_sub(issued_at));
        self.completed += 1;
        match status {
            Some(Status::Ok) | None => {}
            Some(Status::Denied) => self.denied += 1,
            Some(_) => self.errored += 1,
        }
    }
}

impl Component for LoadGen {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        let round = io.round();
        let retrying = self.cfg.retry.is_some();
        // Responses first: in closed loop they release this round's quota.
        while let Some(rsp) = io.recv("fs.rsp") {
            if retrying {
                // Match by id, not arrival order: retries mean a response
                // can be duplicated or arrive after its sibling.
                match request::untag(&rsp).and_then(|(id, inner)| {
                    self.fs_retry.remove(id).map(|p| (p.issued, inner.to_vec()))
                }) {
                    Some((issued, inner)) => {
                        let (status, _) = request::decode(&inner);
                        self.complete(round, issued, Some(status));
                    }
                    None => self.dup_responses += 1,
                }
            } else if let Some(t) = self.fs_pending.pop_front() {
                let (status, _) = request::decode(&rsp);
                self.complete(round, t, Some(status));
            }
            io.recycle(rsp);
        }
        while let Some(rsp) = io.recv("guard.rsp") {
            if retrying {
                // The guard pipeline echoes the advisory verbatim, tagged
                // envelope included, so the id survives the round trip.
                match request::untag(&rsp).and_then(|(id, _)| self.guard_retry.remove(id)) {
                    Some(p) => self.complete(round, p.issued, None),
                    None => self.dup_responses += 1,
                }
            } else if let Some(t) = self.guard_pending.pop_front() {
                self.complete(round, t, None);
            }
            io.recycle(rsp);
        }
        self.retransmit(io, round);
        let quota = self.quota(round);
        for _ in 0..quota {
            self.issue_one(io, round);
        }
    }

    fn boxed_clone(&self) -> Box<dyn Component> {
        Box::new(self.clone())
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    /// Quiet until the first retry falls due or the quota next issues.
    fn quiet_rounds(&self, round: u64) -> u64 {
        let retry = [&self.fs_retry, &self.guard_retry]
            .into_iter()
            .filter_map(RetryBook::next_due)
            .min()
            .map_or(u64::MAX, |due| due.saturating_sub(round));
        retry.min(self.quota_free_rounds(round))
    }

    /// Quiet rounds change only the open-loop carry.
    fn advance(&mut self, round: u64, n: u64) {
        let LoopMode::Open { rate_milli } = self.cfg.mode else {
            return;
        };
        let (mut left, mut carry) = (n, self.carry_milli);
        self.for_each_run(round, |len, level| {
            let k = len.min(left);
            carry += k * (rate_milli * level / 1000);
            left -= k;
            left > 0
        });
        self.carry_milli = carry;
    }
}

/// Echoes `in` to `out` — the trivially trusted high-side service behind a
/// Guard in fleet topologies (every advisory comes straight back and must
/// pass the watch officer's review on the way down).
#[derive(Debug, Clone)]
pub struct Reflector {
    name: String,
    /// Frames reflected.
    pub reflected: u64,
}

impl Reflector {
    /// A reflector named `name`.
    pub fn new(name: &str) -> Reflector {
        Reflector {
            name: name.to_string(),
            reflected: 0,
        }
    }
}

impl Component for Reflector {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        while let Some(m) = io.recv("in") {
            io.send("out", &m);
            io.recycle(m);
            self.reflected += 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use sep_components::component::TestIo;
    use sep_components::fileserver::op;
    use sep_components::proto::MsgReader;

    fn cfg(mode: LoopMode) -> LoadGenCfg {
        LoadGenCfg {
            seed: 7,
            users: 1000,
            mode,
            mix: WorkloadMix::rw(600, 400),
            phases: Vec::new(),
            level: SecurityLevel::unclassified(),
            retry: None,
        }
    }

    #[test]
    fn frames_equal_the_request_encoders_for_the_same_name() {
        let mut c = cfg(LoopMode::Open { rate_milli: 3000 });
        c.mix = WorkloadMix {
            read_pm: 500,
            write_pm: 400,
            guard_pm: 100,
        };
        let level = c.level;
        let mut lg = LoadGen::new("lg7", c);
        let mut io = TestIo::new();
        io.run(&mut lg, 200);
        let (mut counts, mut created) = ([0u32; 3], 0);
        for frame in io.take_sent("fs.req") {
            let mut r = MsgReader::new(&frame);
            let opcode = r.u8().unwrap();
            let name = r.str().unwrap();
            let file: u64 = name
                .strip_prefix("lg7/f")
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("not a generated file name: {name:?}"));
            let (kind, want) = match opcode {
                op::CREATE => {
                    assert_eq!(file, created, "creates number files in order");
                    created += 1;
                    (0, request::create(name, level))
                }
                op::APPEND => {
                    assert!(file < created);
                    r.u8().unwrap();
                    let uid = r.bytes().unwrap();
                    assert!(u64::from_le_bytes(uid.try_into().unwrap()) < 1000);
                    (1, request::append(name, level, uid))
                }
                op::READ => {
                    assert!(file < created);
                    (2, request::read(name, level))
                }
                other => panic!("unexpected opcode {other}"),
            };
            assert_eq!(frame, want);
            counts[kind] += 1;
        }
        assert!(counts.iter().all(|&n| n > 20), "{counts:?}");
        let mut last = None;
        for frame in io.take_sent("guard.req") {
            let text = String::from_utf8(frame).unwrap();
            let (uid, n) = text
                .strip_prefix("advisory u")
                .and_then(|rest| rest.split_once(" n"))
                .unwrap_or_else(|| panic!("not an advisory: {text:?}"));
            assert!(uid.parse::<u64>().unwrap() < 1000);
            let n: u64 = n.parse().unwrap();
            assert!(last < Some(n), "advisories number the requests issued");
            last = Some(n);
        }
        assert!(last.is_some(), "no guard traffic");
    }

    #[test]
    fn open_loop_rate_accumulates_exactly() {
        let mut lg = LoadGen::new("lg", cfg(LoopMode::Open { rate_milli: 2500 }));
        let mut io = TestIo::new();
        io.run(&mut lg, 4);
        // 2.5 requests/round for 4 rounds = exactly 10.
        assert_eq!(lg.issued, 10);
        assert_eq!(io.take_sent("fs.req").len(), 10);
    }

    #[test]
    fn closed_loop_caps_outstanding_at_the_window() {
        let mut lg = LoadGen::new("lg", cfg(LoopMode::Closed { window: 3 }));
        let mut io = TestIo::new();
        io.run(&mut lg, 5);
        assert_eq!(lg.issued, 3, "no responses, so the window pins issuance");
        assert_eq!(lg.outstanding(), 3);
    }

    #[test]
    fn responses_release_the_window_and_land_in_the_histogram() {
        let mut lg = LoadGen::new("lg", cfg(LoopMode::Closed { window: 2 }));
        let mut io = TestIo::new();
        io.run(&mut lg, 1);
        assert_eq!(lg.issued, 2);
        io.push("fs.rsp", &[Status::Ok.code()]);
        io.push("fs.rsp", &[Status::Denied.code()]);
        io.run(&mut lg, 1);
        assert_eq!(lg.completed, 2);
        assert_eq!(lg.denied, 1);
        assert_eq!(lg.hist.count, 2);
        assert_eq!(lg.issued, 4, "freed window refills");
    }

    #[test]
    fn burst_phases_cycle_as_a_square_wave() {
        let mut c = cfg(LoopMode::Open { rate_milli: 1000 });
        c.phases = vec![
            BurstPhase {
                rounds: 2,
                level_pm: 0,
            },
            BurstPhase {
                rounds: 2,
                level_pm: 2000,
            },
        ];
        let mut lg = LoadGen::new("lg", c);
        let mut io = TestIo::new();
        io.run(&mut lg, 4);
        // Rounds 0–1 idle, rounds 2–3 at 2 req/round.
        assert_eq!(lg.issued, 4);
        io.run(&mut lg, 4);
        assert_eq!(lg.issued, 8, "the schedule repeats");
    }

    #[test]
    fn first_fs_request_is_always_a_create() {
        let mut lg = LoadGen::new("lg", cfg(LoopMode::Closed { window: 1 }));
        let mut io = TestIo::new();
        io.run(&mut lg, 1);
        let sent = io.take_sent("fs.req");
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0][0], op::CREATE);
    }

    fn retry_cfg(mode: LoopMode, timeout: u64) -> LoadGenCfg {
        let mut c = cfg(mode);
        c.retry = Some(RetryCfg {
            timeout,
            backoff_shift_cap: 3,
        });
        c
    }

    #[test]
    fn retry_mode_tags_requests_with_unique_ids() {
        let mut lg = LoadGen::new("lg", retry_cfg(LoopMode::Open { rate_milli: 3000 }, 8));
        let mut io = TestIo::new();
        io.run(&mut lg, 2);
        let sent = io.take_sent("fs.req");
        assert_eq!(sent.len(), 6);
        let ids: Vec<u64> = sent
            .iter()
            .map(|f| request::untag(f).expect("tagged").0)
            .collect();
        let unique: std::collections::BTreeSet<u64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "ids must be unique");
    }

    #[test]
    fn unanswered_request_retries_with_the_same_frame_and_backs_off() {
        let mut lg = LoadGen::new("lg", retry_cfg(LoopMode::Closed { window: 1 }, 4));
        let mut io = TestIo::new();
        io.run(&mut lg, 1); // round 0: issue
        let first = io.take_sent("fs.req");
        assert_eq!(first.len(), 1);
        // Rounds 1..4: inside the timeout, nothing resent.
        io.run(&mut lg, 3);
        assert!(io.take_sent("fs.req").is_empty());
        assert_eq!(lg.retried, 0);
        // Round 4: timeout expires, one byte-identical resend.
        io.run(&mut lg, 1);
        let resent = io.take_sent("fs.req");
        assert_eq!(resent, first, "retry must repeat the same tagged frame");
        assert_eq!(lg.retried, 1);
        assert_eq!(lg.issued, 1, "a retry is not a new request");
        // Backoff doubled: next resend at round 4 + 8 = 12.
        io.run(&mut lg, 7);
        assert_eq!(lg.retried, 1);
        io.run(&mut lg, 1);
        assert_eq!(lg.retried, 2);
    }

    #[test]
    fn retry_backoff_saturates_at_the_cap() {
        let mut lg = LoadGen::new("lg", retry_cfg(LoopMode::Closed { window: 1 }, 1));
        let mut io = TestIo::new();
        // Run long enough for many expiries; with timeout=1, cap=3 the
        // gaps go 1, 2, 4, 8, 8, 8, ... — so by round 48 there must be
        // exactly 4 + (48 - 15) / 8 = 8 resends, and one more by 56.
        io.run(&mut lg, 49);
        assert_eq!(lg.retried, 8, "capped backoff schedule");
        io.run(&mut lg, 8);
        assert_eq!(lg.retried, 9, "interval stays flat at timeout << cap");
    }

    #[test]
    fn response_completes_by_id_and_duplicates_are_ignored() {
        let mut lg = LoadGen::new("lg", retry_cfg(LoopMode::Closed { window: 2 }, 4));
        let mut io = TestIo::new();
        io.run(&mut lg, 1);
        let sent = io.take_sent("fs.req");
        assert_eq!(sent.len(), 2);
        let (id1, _) = request::untag(&sent[1]).unwrap();
        // Answer the *second* request first (out of order), twice.
        let rsp = request::tagged(id1, &[Status::Ok.code()]);
        io.push("fs.rsp", &rsp);
        io.push("fs.rsp", &rsp);
        io.run(&mut lg, 1);
        assert_eq!(lg.completed, 1, "one completion per id");
        assert_eq!(lg.dup_responses, 1, "the duplicate is counted, not matched");
        assert_eq!(lg.outstanding(), 2, "window refilled by the completion");
    }

    #[test]
    fn same_seed_same_request_stream() {
        let mk = || {
            let mut lg = LoadGen::new("lg", cfg(LoopMode::Open { rate_milli: 3000 }));
            let mut io = TestIo::new();
            io.run(&mut lg, 20);
            io.take_sent("fs.req")
        };
        assert_eq!(mk(), mk());
    }
}

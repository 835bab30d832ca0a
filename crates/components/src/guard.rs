//! The ACCAT Guard.
//!
//! > "Messages from the LOW system to the HIGH one are allowed through the
//! > Guard without hindrance, but messages from HIGH to LOW must be
//! > displayed to a human 'Security Watch Officer' who has to decide whether
//! > they may be declassified."
//!
//! The Guard supports flow in *both* directions with *different* rules per
//! direction — the paper's demonstration that a single system-wide policy
//! (and hence a conventional kernel) is the wrong tool. Here it is a single
//! trusted component with four dedicated lines: `low.in`, `low.out`,
//! `high.in`, `high.out`. The Security Watch Officer is a pluggable
//! [`WatchOfficer`]; every decision is recorded in the audit log.

use crate::component::{Component, ComponentIo};
use std::any::Any;
use std::collections::VecDeque;

/// The officer's decision on one HIGH→LOW message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Release the message (possibly rewritten) to LOW.
    Release(Vec<u8>),
    /// Refuse declassification.
    Deny,
    /// No decision yet (the officer is thinking); ask again next round.
    Defer,
}

/// The Security Watch Officer interface.
pub trait WatchOfficer: Send + Sync {
    /// Reviews one message proposed for declassification.
    fn review(&mut self, message: &[u8]) -> Decision;

    /// Object-safe clone.
    fn boxed_clone(&self) -> Box<dyn WatchOfficer>;
}

impl Clone for Box<dyn WatchOfficer> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// An officer who releases everything (for throughput baselines).
#[derive(Debug, Clone)]
pub struct ApproveAll;

impl WatchOfficer for ApproveAll {
    fn review(&mut self, message: &[u8]) -> Decision {
        Decision::Release(message.to_vec())
    }

    fn boxed_clone(&self) -> Box<dyn WatchOfficer> {
        Box::new(self.clone())
    }
}

/// An officer who refuses everything.
#[derive(Debug, Clone)]
pub struct DenyAll;

impl WatchOfficer for DenyAll {
    fn review(&mut self, _message: &[u8]) -> Decision {
        Decision::Deny
    }

    fn boxed_clone(&self) -> Box<dyn WatchOfficer> {
        Box::new(self.clone())
    }
}

/// An officer with a dirty-word list: messages containing any listed word
/// are denied; everything else is released unchanged.
#[derive(Debug, Clone)]
pub struct DirtyWordOfficer {
    words: Vec<Vec<u8>>,
}

impl DirtyWordOfficer {
    /// An officer refusing messages that contain any of `words`.
    pub fn new(words: &[&str]) -> DirtyWordOfficer {
        DirtyWordOfficer {
            words: words.iter().map(|w| w.as_bytes().to_vec()).collect(),
        }
    }
}

impl WatchOfficer for DirtyWordOfficer {
    fn review(&mut self, message: &[u8]) -> Decision {
        for w in &self.words {
            if message.windows(w.len().max(1)).any(|win| win == &w[..]) {
                return Decision::Deny;
            }
        }
        Decision::Release(message.to_vec())
    }

    fn boxed_clone(&self) -> Box<dyn WatchOfficer> {
        Box::new(self.clone())
    }
}

/// An officer driven by a script of decisions (deterministic experiments).
#[derive(Debug, Clone)]
pub struct ScriptedOfficer {
    decisions: VecDeque<bool>,
}

impl ScriptedOfficer {
    /// `true` entries release, `false` deny; an exhausted script defers.
    pub fn new(decisions: &[bool]) -> ScriptedOfficer {
        ScriptedOfficer {
            decisions: decisions.iter().copied().collect(),
        }
    }
}

impl WatchOfficer for ScriptedOfficer {
    fn review(&mut self, message: &[u8]) -> Decision {
        match self.decisions.pop_front() {
            Some(true) => Decision::Release(message.to_vec()),
            Some(false) => Decision::Deny,
            None => Decision::Defer,
        }
    }

    fn boxed_clone(&self) -> Box<dyn WatchOfficer> {
        Box::new(self.clone())
    }
}

/// One audit-log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEntry {
    /// A LOW→HIGH message passed (length only; contents are HIGH's business).
    PassedUp(usize),
    /// The officer released a HIGH→LOW message.
    Released(Vec<u8>),
    /// The officer denied a HIGH→LOW message.
    Denied(Vec<u8>),
}

/// The Guard component.
pub struct Guard {
    officer: Box<dyn WatchOfficer>,
    review_queue: VecDeque<Vec<u8>>,
    /// The audit log (host-inspectable).
    pub audit: Vec<AuditEntry>,
    /// Messages passed LOW→HIGH.
    pub passed_up: u64,
    /// Messages released HIGH→LOW.
    pub released: u64,
    /// Messages denied HIGH→LOW.
    pub denied: u64,
}

impl Clone for Guard {
    fn clone(&self) -> Self {
        Guard {
            officer: self.officer.clone(),
            review_queue: self.review_queue.clone(),
            audit: self.audit.clone(),
            passed_up: self.passed_up,
            released: self.released,
            denied: self.denied,
        }
    }
}

impl Guard {
    /// A guard with the given watch officer.
    pub fn new(officer: Box<dyn WatchOfficer>) -> Guard {
        Guard {
            officer,
            review_queue: VecDeque::new(),
            audit: Vec::new(),
            passed_up: 0,
            released: 0,
            denied: 0,
        }
    }

    /// Messages awaiting the officer.
    pub fn pending_review(&self) -> usize {
        self.review_queue.len()
    }
}

impl Component for Guard {
    fn name(&self) -> &str {
        "guard"
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        // LOW → HIGH: unhindered.
        while let Some(msg) = io.recv("low.in") {
            self.audit.push(AuditEntry::PassedUp(msg.len()));
            self.passed_up += 1;
            io.send("high.out", &msg);
            io.recycle(msg);
        }
        // HIGH → LOW: queue for review.
        while let Some(msg) = io.recv("high.in") {
            self.review_queue.push_back(msg);
        }
        // The officer reviews at most one message per round (a human).
        if let Some(msg) = self.review_queue.front() {
            match self.officer.review(msg) {
                Decision::Release(text) => {
                    if let Some(msg) = self.review_queue.pop_front() {
                        io.recycle(msg);
                    }
                    self.audit.push(AuditEntry::Released(text.clone()));
                    self.released += 1;
                    io.send("low.out", &text);
                }
                Decision::Deny => {
                    if let Some(msg) = self.review_queue.pop_front() {
                        self.audit.push(AuditEntry::Denied(msg));
                    }
                    self.denied += 1;
                }
                Decision::Defer => {}
            }
        }
    }

    // The officer is consulted every round while a message awaits review.
    fn quiet_rounds(&self, _round: u64) -> u64 {
        if self.review_queue.is_empty() {
            u64::MAX
        } else {
            0
        }
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
    use crate::component::TestIo;

    #[test]
    fn low_to_high_is_unhindered() {
        let mut g = Guard::new(Box::new(DenyAll));
        let mut io = TestIo::new();
        io.push("low.in", b"request for data");
        io.push("low.in", b"another");
        io.run(&mut g, 1);
        assert_eq!(io.sent("high.out").len(), 2);
        assert_eq!(g.passed_up, 2);
    }

    #[test]
    fn high_to_low_requires_release() {
        let mut g = Guard::new(Box::new(DenyAll));
        let mut io = TestIo::new();
        io.push("high.in", b"classified answer");
        io.run(&mut g, 3);
        assert!(
            io.sent("low.out").is_empty(),
            "nothing leaks without approval"
        );
        assert_eq!(g.denied, 1);
        assert!(matches!(g.audit.last(), Some(AuditEntry::Denied(_))));
    }

    #[test]
    fn approved_messages_flow_down() {
        let mut g = Guard::new(Box::new(ApproveAll));
        let mut io = TestIo::new();
        io.push("high.in", b"releasable summary");
        io.run(&mut g, 2);
        assert_eq!(io.sent("low.out"), &[b"releasable summary".to_vec()]);
        assert_eq!(g.released, 1);
    }

    #[test]
    fn officer_reviews_one_message_per_round() {
        let mut g = Guard::new(Box::new(ApproveAll));
        let mut io = TestIo::new();
        for i in 0..3u8 {
            io.push("high.in", &[i]);
        }
        io.run(&mut g, 1);
        assert_eq!(io.sent("low.out").len(), 1);
        io.run(&mut g, 2);
        assert_eq!(io.sent("low.out").len(), 3);
    }

    #[test]
    fn dirty_word_officer_screens_content() {
        let mut g = Guard::new(Box::new(DirtyWordOfficer::new(&["SECRET", "NOFORN"])));
        let mut io = TestIo::new();
        io.push("high.in", b"weather is fine");
        io.push("high.in", b"the SECRET plan");
        io.run(&mut g, 3);
        assert_eq!(io.sent("low.out"), &[b"weather is fine".to_vec()]);
        assert_eq!(g.denied, 1);
        assert_eq!(g.released, 1);
    }

    #[test]
    fn scripted_officer_defers_when_script_runs_out() {
        let mut g = Guard::new(Box::new(ScriptedOfficer::new(&[true, false])));
        let mut io = TestIo::new();
        for i in 0..3u8 {
            io.push("high.in", &[i]);
        }
        io.run(&mut g, 5);
        assert_eq!(g.released, 1);
        assert_eq!(g.denied, 1);
        assert_eq!(g.pending_review(), 1, "third message waits forever");
    }
}

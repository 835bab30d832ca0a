//! Small utility components: traffic sources and sinks.

use crate::component::{Component, ComponentIo};
use std::any::Any;
use std::collections::VecDeque;

/// Emits a scripted sequence of frames on port `out`, one per round.
#[derive(Debug, Clone)]
pub struct Source {
    name: String,
    frames: VecDeque<Vec<u8>>,
}

impl Source {
    /// A source that will emit `frames` in order.
    pub fn new(name: &str, frames: Vec<Vec<u8>>) -> Source {
        Source {
            name: name.to_string(),
            frames: frames.into(),
        }
    }

    /// Frames not yet emitted.
    pub fn remaining(&self) -> usize {
        self.frames.len()
    }
}

impl Component for Source {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        if let Some(frame) = self.frames.front() {
            if io.send("out", frame) {
                self.frames.pop_front();
            }
        }
    }

    // Every round offers the next frame until the script runs out.
    fn quiet_rounds(&self, _round: u64) -> u64 {
        if self.frames.is_empty() {
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

/// Collects every frame arriving on port `in`.
#[derive(Debug, Clone)]
pub struct Sink {
    name: String,
    /// Everything received, in order.
    pub received: Vec<Vec<u8>>,
}

impl Sink {
    /// An empty sink.
    pub fn new(name: &str) -> Sink {
        Sink {
            name: name.to_string(),
            received: Vec::new(),
        }
    }
}

impl Component for Sink {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        while let Some(frame) = io.recv("in") {
            self.received.push(frame);
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
    use crate::component::TestIo;

    #[test]
    fn source_emits_one_frame_per_round() {
        let mut s = Source::new("src", vec![b"a".to_vec(), b"b".to_vec()]);
        let mut io = TestIo::new();
        io.run(&mut s, 3);
        assert_eq!(io.sent("out"), &[b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn sink_collects_everything() {
        let mut s = Sink::new("snk");
        let mut io = TestIo::new();
        io.push("in", b"x");
        io.push("in", b"y");
        io.run(&mut s, 1);
        assert_eq!(s.received, vec![b"x".to_vec(), b"y".to_vec()]);
    }
}

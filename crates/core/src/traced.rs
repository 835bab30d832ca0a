//! Observation tracing for components.
//!
//! [`Traced`] wraps any component and records every frame it receives and
//! sends, per port. The log is shared through an [`Arc`] handle so the host
//! can read it after the system (network or kernel) has consumed the
//! component. Cloning a traced component (as the kernel's verification
//! machinery does) shares the log; tracing is a measurement instrument, not
//! part of the modelled state.

use sep_components::component::{Component, ComponentIo};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// A shared per-port observation log: key `"port/dir"` (dir = `rx`/`tx`),
/// value the ordered frames.
///
/// Internally an `Arc<Mutex<..>>` (rather than `Rc<RefCell<..>>`) so that
/// traced components remain `Send + Sync` and can ride inside kernel states
/// handled by the parallel separability checker. The `borrow`/`borrow_mut`
/// accessors keep the original single-threaded call-site idiom.
#[derive(Clone, Default)]
pub struct PortLog(Arc<Mutex<BTreeMap<String, Vec<Vec<u8>>>>>);

impl PortLog {
    /// An empty shared log.
    pub fn new() -> PortLog {
        PortLog::default()
    }

    /// Locks the log for reading.
    pub fn borrow(&self) -> MutexGuard<'_, BTreeMap<String, Vec<Vec<u8>>>> {
        self.0.lock().expect("port log lock poisoned")
    }

    /// Locks the log for writing.
    pub fn borrow_mut(&self) -> MutexGuard<'_, BTreeMap<String, Vec<Vec<u8>>>> {
        self.0.lock().expect("port log lock poisoned")
    }
}

/// A tracing wrapper around a component.
pub struct Traced {
    inner: Box<dyn Component>,
    log: PortLog,
}

impl Traced {
    /// Wraps `inner`, returning the wrapper and the shared log handle.
    pub fn new(inner: Box<dyn Component>) -> (Box<Traced>, PortLog) {
        let log = PortLog::new();
        (
            Box::new(Traced {
                inner,
                log: log.clone(),
            }),
            log,
        )
    }
}

impl Component for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        let mut tio = TracedIo { io, log: &self.log };
        self.inner.step(&mut tio);
    }

    fn boxed_clone(&self) -> Box<dyn Component> {
        Box::new(Traced {
            inner: self.inner.boxed_clone(),
            log: self.log.clone(),
        })
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

struct TracedIo<'a> {
    io: &'a mut dyn ComponentIo,
    log: &'a PortLog,
}

impl ComponentIo for TracedIo<'_> {
    fn recv(&mut self, port: &str) -> Option<Vec<u8>> {
        let frame = self.io.recv(port)?;
        self.log
            .borrow_mut()
            .entry(format!("{port}/rx"))
            .or_default()
            .push(frame.clone());
        Some(frame)
    }

    fn send(&mut self, port: &str, msg: &[u8]) -> bool {
        let ok = self.io.send(port, msg);
        if ok {
            self.log
                .borrow_mut()
                .entry(format!("{port}/tx"))
                .or_default()
                .push(msg.to_vec());
        }
        ok
    }

    fn round(&self) -> u64 {
        self.io.round()
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        self.io.recycle(frame);
    }
}

/// Compares two port logs; returns the first differing key and index.
pub fn logs_equal(a: &PortLog, b: &PortLog) -> Result<(), String> {
    let a = a.borrow();
    let b = b.borrow();
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for key in keys {
        let empty = Vec::new();
        let xa = a.get(key).unwrap_or(&empty);
        let xb = b.get(key).unwrap_or(&empty);
        if xa != xb {
            let idx = xa
                .iter()
                .zip(xb.iter())
                .position(|(x, y)| x != y)
                .unwrap_or_else(|| xa.len().min(xb.len()));
            return Err(format!(
                "stream {key} diverges at frame {idx} ({} vs {} frames)",
                xa.len(),
                xb.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sep_components::component::TestIo;
    use sep_components::util::Sink;

    #[test]
    fn traced_records_rx_and_tx() {
        let (mut traced, log) = Traced::new(Box::new(Sink::new("s")));
        let mut io = TestIo::new();
        io.push("in", b"abc");
        io.run(traced.as_mut(), 1);
        let l = log.borrow();
        assert_eq!(l.get("in/rx").unwrap(), &vec![b"abc".to_vec()]);
    }

    #[test]
    fn logs_equal_detects_divergence() {
        let (mut t1, l1) = Traced::new(Box::new(Sink::new("s")));
        let (mut t2, l2) = Traced::new(Box::new(Sink::new("s")));
        let mut io1 = TestIo::new();
        io1.push("in", b"same");
        io1.run(t1.as_mut(), 1);
        let mut io2 = TestIo::new();
        io2.push("in", b"same");
        io2.run(t2.as_mut(), 1);
        assert!(logs_equal(&l1, &l2).is_ok());
        io2.push("in", b"extra");
        io2.run(t2.as_mut(), 1);
        assert!(logs_equal(&l1, &l2).is_err());
    }

    #[test]
    fn clone_shares_the_log() {
        let (traced, log) = Traced::new(Box::new(Sink::new("s")));
        let mut copy = traced.boxed_clone();
        let mut io = TestIo::new();
        io.push("in", b"x");
        io.run(copy.as_mut(), 1);
        // The original wrapper's handle sees the clone's observations.
        let _ = traced.name();
        assert_eq!(log.borrow().get("in/rx").unwrap().len(), 1);
    }
}

//! Recycled frame buffers carry no history.
//!
//! Frames circulate: kernels copy sends into spare buffers that components
//! gave back, and the round executor builds ARQ frames in buffers its pool
//! took back. A receiver can read a frame's capacity, so recycling must
//! keep every capacity a function of the frame's length — never of which
//! earlier frame the buffer carried. A probe component records the length
//! and capacity of every frame it receives, behind a lossy ARQ pair and
//! behind a guard pipeline's local channels, at one and at two workers.

use sep_components::guard::ApproveAll;
use sep_components::util::Source;
use sep_components::{Component, ComponentIo, Guard};
use sep_fault::LossModel;
use sep_fleet::{
    Fleet, FleetTopology, LinkSpec, LoadGen, LoadGenCfg, LoopMode, NodeSpec, WorkloadMix,
};
use sep_model::bufpool::FRAME_CAP;
use sep_model::rng::SplitMix64;
use sep_policy::SecurityLevel;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Every (length, capacity) a probe saw.
type Seen = Arc<Mutex<Vec<(usize, usize)>>>;

/// Records every frame arriving on `in`, echoes it on `out` when asked,
/// and gives the buffer back.
#[derive(Clone)]
struct Probe {
    name: String,
    echo: bool,
    seen: Seen,
}

impl Probe {
    fn new(name: &str, echo: bool) -> (Probe, Seen) {
        let seen = Seen::default();
        let probe = Probe {
            name: name.to_string(),
            echo,
            seen: Arc::clone(&seen),
        };
        (probe, seen)
    }
}

impl Component for Probe {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        while let Some(frame) = io.recv("in") {
            self.seen
                .lock()
                .expect("probe log")
                .push((frame.len(), frame.capacity()));
            if self.echo {
                io.send("out", &frame);
            }
            io.recycle(frame);
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

fn lossy(seed: u64) -> LossModel {
    LossModel::new(seed)
        .with_drop(150)
        .with_duplicate(100)
        .with_corrupt(50)
        .with_reorder(100)
}

/// Every capacity a probe saw, by frame length; asserts each length came
/// with exactly one capacity.
fn capacity_by_length(label: &str, seen: &Seen) -> BTreeMap<usize, usize> {
    let mut caps: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for &(len, cap) in seen.lock().expect("probe log").iter() {
        caps.entry(len).or_default().insert(cap);
    }
    assert!(!caps.is_empty(), "{label}: the probe saw no frame");
    caps.into_iter()
        .map(|(len, caps)| {
            assert_eq!(
                caps.len(),
                1,
                "{label}: {len}-byte frames arrived with capacities {caps:?}"
            );
            (len, caps.into_iter().next().unwrap_or_default())
        })
        .collect()
}

/// A source node streaming frames of every length from 0 to 130 bytes to
/// an echoing probe and back to a second probe, over two reliable links
/// that drop, duplicate, corrupt and reorder.
fn arq_pair(workers: usize) -> (Seen, Seen) {
    let mut rng = SplitMix64::new(0xCA9);
    let frames = (0..1_200)
        .map(|i| (0..i % 131).map(|_| rng.next_u64() as u8).collect())
        .collect();
    let (echo, far) = Probe::new("echo", true);
    let (back, near) = Probe::new("back", false);
    let mut top = FleetTopology::new();
    let src = top.node(
        NodeSpec::new("src")
            .component(Box::new(Source::new("source", frames)))
            .component(Box::new(back))
            .output(0, "out", "out")
            .input("back", 1, "in"),
    );
    let dst = top.node(
        NodeSpec::new("dst")
            .component(Box::new(echo))
            .input("in", 0, "in")
            .output(0, "out", "out"),
    );
    top.link(
        LinkSpec::new(src, "out", dst, "in")
            .reliable()
            .loss(lossy(1))
            .ack_loss(lossy(2)),
    );
    top.link(
        LinkSpec::new(dst, "out", src, "back")
            .reliable()
            .loss(lossy(3))
            .ack_loss(lossy(4)),
    );
    let mut fleet = Fleet::build(top);
    fleet.set_tracing(false);
    fleet.set_workers(workers);
    fleet.run_rounds(3_000);
    (far, near)
}

#[test]
fn frames_behind_a_lossy_arq_pair_have_capacities_set_by_their_lengths() {
    let mut by_workers = Vec::new();
    for workers in [1, 2] {
        let (far, near) = arq_pair(workers);
        let far = capacity_by_length("echo probe", &far);
        let near = capacity_by_length("back probe", &near);
        assert_eq!(far.len(), 131, "every length crossed the link");
        // Short frames ride pooled buffers, long ones exact buffers.
        assert_eq!(far.get(&0), Some(&FRAME_CAP));
        assert!(far.get(&130).is_some_and(|&cap| cap > FRAME_CAP));
        by_workers.push((far, near));
    }
    assert!(
        by_workers[0] == by_workers[1],
        "a worker's own pool changed a capacity"
    );
}

/// A closed-loop client of a guard whose high side is an echoing probe:
/// advisories cross a lossy ARQ link, then the guard node's local
/// channels.
fn guard_pipeline(workers: usize) -> Seen {
    let cfg = LoadGenCfg {
        seed: 0x6A4D,
        users: 200,
        mode: LoopMode::Closed { window: 4 },
        mix: WorkloadMix {
            read_pm: 0,
            write_pm: 0,
            guard_pm: 1000,
        },
        phases: Vec::new(),
        level: SecurityLevel::unclassified(),
        retry: None,
    };
    let (probe, seen) = Probe::new("high", true);
    let mut top = FleetTopology::new();
    let lg = top.node(
        NodeSpec::new("lg0")
            .component(Box::new(LoadGen::new("lg0", cfg)))
            .output(0, "guard.req", "guard.req")
            .input("guard.rsp", 0, "guard.rsp"),
    );
    let g = top.node(
        NodeSpec::new("guard0")
            .component(Box::new(Guard::new(Box::new(ApproveAll))))
            .component(Box::new(probe))
            .local(0, "high.out", 1, "in", 8)
            .local(1, "out", 0, "high.in", 8)
            .input("low.in", 0, "low.in")
            .output(0, "low.out", "low.out"),
    );
    top.link(
        LinkSpec::new(lg, "guard.req", g, "low.in")
            .reliable()
            .loss(lossy(5))
            .ack_loss(lossy(6)),
    );
    top.link(
        LinkSpec::new(g, "low.out", lg, "guard.rsp")
            .reliable()
            .loss(lossy(7))
            .ack_loss(lossy(8)),
    );
    let mut fleet = Fleet::build(top);
    fleet.set_tracing(false);
    fleet.set_workers(workers);
    fleet.run_rounds(400);
    assert!(fleet.loadgen_totals().completed > 100);
    seen
}

#[test]
fn frames_through_a_guard_pipeline_have_capacities_set_by_their_lengths() {
    let one = capacity_by_length("guard probe", &guard_pipeline(1));
    let two = capacity_by_length("guard probe", &guard_pipeline(2));
    assert!(one.values().all(|&cap| cap == FRAME_CAP), "{one:?}");
    assert_eq!(one, two);
}

//! The quiet-window contract of every component the fleet hosts.
//!
//! From SplitMix64-seeded states, reached by driving each component with
//! seeded input, `advance(round, n)` on a clone must equal `n` rounds on
//! ports that deliver nothing, and those rounds must send nothing, for
//! every `n` up to `min(quiet_rounds(round), 512)`. The kernel's native
//! batches (`SeparationKernel::step_n`) rely on exactly this when they jump
//! a regime's idle steps. The load generator's windows are checked to
//! cross burst-phase boundaries and to end where a retry falls due.

use sep_components::component::{Component, TestIo};
use sep_components::fileserver::request;
use sep_components::guard::{ApproveAll, DenyAll, ScriptedOfficer, WatchOfficer};
use sep_components::snfe::{BlackComponent, Censor, CensorPolicy, CryptoBox, Header, RedComponent};
use sep_components::util::{Sink, Source};
use sep_components::{FileServer, FsClient, Guard};
use sep_fleet::{BurstPhase, LoadGen, LoadGenCfg, LoopMode, Reflector, RetryCfg, WorkloadMix};
use sep_model::rng::SplitMix64;
use sep_policy::SecurityLevel;
use std::collections::VecDeque;
use std::fmt::Debug;

/// Seeded states per component family.
const STATES: u64 = 16;

/// Longest jump checked from one state.
const MAX_JUMP: u64 = 512;

/// Longest seeded warm-up, in rounds.
const MAX_WARM: usize = 300;

/// Consecutive idle windows checked from each seeded state.
const WINDOWS: usize = 4;

/// What a contract run saw of the windows it checked.
#[derive(Default)]
struct Seen {
    /// States whose window held at least one round.
    quiet: u64,
    /// Load generator windows whose last round, or the round after, lies
    /// in another burst phase than their first.
    crossed_phase: u64,
    /// Load generator windows followed by a retransmit.
    ended_in_retry: u64,
}

/// A built component and its burst schedule (empty unless it is a load
/// generator).
type Made = (Box<dyn Component>, Vec<BurstPhase>);

/// Frames a component sent that have not been answered, with their ports.
type Unanswered = VecDeque<(String, Vec<u8>)>;

/// One component family: how to build a seeded instance (with its burst
/// schedule, for load generators), how to feed it a round of seeded input
/// (given everything it has sent and not yet had answered), and how to
/// render its whole state for comparison.
struct Family {
    name: &'static str,
    make: fn(&mut SplitMix64) -> Made,
    feed: fn(&mut SplitMix64, &mut TestIo, &mut Unanswered),
    state: fn(&mut dyn Component) -> String,
}

fn debug_state<T: Debug + 'static>(c: &mut dyn Component) -> String {
    format!("{:?}", c.as_any().downcast_mut::<T>().expect("family type"))
}

fn guard_state(c: &mut dyn Component) -> String {
    let g = c.as_any().downcast_mut::<Guard>().expect("a guard");
    format!(
        "{:?} {} {} {} {}",
        g.audit,
        g.passed_up,
        g.released,
        g.denied,
        g.pending_review()
    )
}

/// Pushes up to `max` frames made by `frame` onto `port`.
fn push_some(
    rng: &mut SplitMix64,
    io: &mut TestIo,
    port: &str,
    max: usize,
    frame: &dyn Fn(&mut SplitMix64) -> Vec<u8>,
) {
    for _ in 0..rng.below(max + 1) {
        let f = frame(rng);
        io.push(port, &f);
    }
}

fn no_feed(_: &mut SplitMix64, _: &mut TestIo, _: &mut Unanswered) {}

fn bytes(rng: &mut SplitMix64) -> Vec<u8> {
    (0..rng.below(12)).map(|_| rng.below(256) as u8).collect()
}

// ---------------------------------------------------------------------
// Load generators.
// ---------------------------------------------------------------------

fn random_phases(rng: &mut SplitMix64, levels: &[u64]) -> Vec<BurstPhase> {
    (0..1 + rng.below(3))
        .map(|_| BurstPhase {
            rounds: 3 + rng.below(40) as u64,
            level_pm: levels[rng.below(levels.len())],
        })
        .collect()
}

fn loadgen(rng: &mut SplitMix64, mode: LoopMode, retry: Option<RetryCfg>) -> Made {
    let guard_pm = [0, 100, 500][rng.below(3)] as u64;
    let cfg = LoadGenCfg {
        seed: rng.next_u64(),
        users: 1 + rng.below(5000) as u64,
        mode,
        mix: WorkloadMix {
            read_pm: 600 - guard_pm / 2,
            write_pm: 400 - guard_pm / 2,
            guard_pm,
        },
        phases: random_phases(rng, &[0, 250, 500, 1000, 1500, 2000]),
        level: SecurityLevel::unclassified(),
        retry,
    };
    let phases = cfg.phases.clone();
    (Box::new(LoadGen::new("lg", cfg)), phases)
}

fn closed_loadgen(rng: &mut SplitMix64) -> Made {
    let window = 1 + rng.below(12) as u64;
    loadgen(rng, LoopMode::Closed { window }, None)
}

/// Mostly under one request a round, so the carry spans several rounds.
fn open_loadgen(rng: &mut SplitMix64) -> Made {
    let rate_milli = 20 + rng.below(600) as u64;
    loadgen(rng, LoopMode::Open { rate_milli }, None)
}

fn retrying_loadgen(rng: &mut SplitMix64) -> Made {
    let mode = if rng.bool() {
        LoopMode::Closed {
            window: 1 + rng.below(8) as u64,
        }
    } else {
        LoopMode::Open {
            rate_milli: 50 + rng.below(600) as u64,
        }
    };
    let retry = RetryCfg {
        timeout: 1 + rng.below(20) as u64,
        backoff_shift_cap: rng.below(5) as u32,
    };
    loadgen(rng, mode, Some(retry))
}

/// Answers the generator's oldest requests: echoes some (the Guard path
/// does exactly that; the generator reads a file-server status from the
/// first byte), loses some and repeats some.
fn answer_requests(rng: &mut SplitMix64, io: &mut TestIo, sent: &mut Unanswered) {
    for _ in 0..rng.below(4) {
        let Some((port, frame)) = sent.pop_front() else {
            return;
        };
        let reply = if port == "fs.req" {
            "fs.rsp"
        } else {
            "guard.rsp"
        };
        match rng.below(8) {
            0 => {}
            1 => {
                io.push(reply, &frame);
                io.push(reply, &frame);
            }
            _ => io.push(reply, &frame),
        }
    }
}

// ---------------------------------------------------------------------
// The other components.
// ---------------------------------------------------------------------

fn file_server(rng: &mut SplitMix64) -> Made {
    let clients = (0..2)
        .map(|i| FsClient {
            name: format!("c{i}"),
            level: SecurityLevel::unclassified(),
            special_delete: false,
        })
        .collect();
    let window = [0, 4, 16][rng.below(3)];
    (
        Box::new(FileServer::new(clients).with_dedup_window(window)),
        Vec::new(),
    )
}

fn fs_requests(rng: &mut SplitMix64, io: &mut TestIo, _: &mut Unanswered) {
    let level = SecurityLevel::unclassified();
    let port = ["c0.req", "c1.req"][rng.below(2)];
    push_some(rng, io, port, 2, &|rng| {
        let name = format!("f{}", rng.below(4));
        let inner = match rng.below(3) {
            0 => request::create(&name, level),
            1 => request::append(&name, level, &bytes(rng)),
            _ => request::read(&name, level),
        };
        if rng.bool() {
            request::tagged(rng.below(6) as u64, &inner)
        } else {
            inner
        }
    });
}

fn guard(rng: &mut SplitMix64) -> Made {
    let officer: Box<dyn WatchOfficer> = match rng.below(3) {
        0 => Box::new(ApproveAll),
        1 => Box::new(DenyAll),
        _ => {
            let script: Vec<bool> = (0..rng.below(12)).map(|_| rng.bool()).collect();
            Box::new(ScriptedOfficer::new(&script))
        }
    };
    (Box::new(Guard::new(officer)), Vec::new())
}

fn guard_traffic(rng: &mut SplitMix64, io: &mut TestIo, _: &mut Unanswered) {
    push_some(rng, io, "low.in", 2, &bytes);
    push_some(rng, io, "high.in", 2, &bytes);
}

fn frames_in(rng: &mut SplitMix64, io: &mut TestIo, _: &mut Unanswered) {
    push_some(rng, io, "in", 2, &bytes);
}

fn host_frames(rng: &mut SplitMix64, io: &mut TestIo, _: &mut Unanswered) {
    push_some(rng, io, "host.in", 2, &bytes);
}

fn source(rng: &mut SplitMix64) -> Made {
    let frames = (0..rng.below(40)).map(|_| bytes(rng)).collect();
    (Box::new(Source::new("src", frames)), Vec::new())
}

fn censor(rng: &mut SplitMix64) -> Made {
    let policy = [
        CensorPolicy::off(),
        CensorPolicy::format_only(),
        CensorPolicy::canonical(),
        CensorPolicy::strict(),
    ][rng.below(4)];
    (Box::new(Censor::new(policy)), Vec::new())
}

fn header(rng: &mut SplitMix64) -> Vec<u8> {
    Header {
        seq: rng.below(6) as u16,
        len: rng.below(5000) as u16,
        dst: rng.below(5) as u8,
        pad: rng.below(2) as u8,
    }
    .encode()
    .to_vec()
}

fn bypass_traffic(rng: &mut SplitMix64, io: &mut TestIo, _: &mut Unanswered) {
    push_some(rng, io, "red.in", 3, &|rng| {
        if rng.bool() {
            header(rng)
        } else {
            bytes(rng)
        }
    });
}

fn black_traffic(rng: &mut SplitMix64, io: &mut TestIo, _: &mut Unanswered) {
    push_some(rng, io, "bypass.in", 2, &|rng| {
        if rng.below(4) > 0 {
            header(rng)
        } else {
            bytes(rng)
        }
    });
    push_some(rng, io, "crypto.in", 2, &|rng| {
        let mut p = (rng.below(6) as u16).to_le_bytes().to_vec();
        p.extend(bytes(rng));
        p
    });
}

// ---------------------------------------------------------------------
// The contract.
// ---------------------------------------------------------------------

/// The burst phase `round` falls in, for a load generator's schedule.
fn phase_at(phases: &[BurstPhase], round: u64) -> usize {
    let total: u64 = phases.iter().map(|p| p.rounds).sum();
    let mut r = round % total.max(1);
    phases
        .iter()
        .position(|p| {
            let inside = r < p.rounds;
            r = r.saturating_sub(p.rounds);
            inside
        })
        .unwrap_or(0)
}

/// Checks the contract from `STATES` seeded states of one family, and from
/// the states that follow each of them through `WINDOWS` idle windows;
/// for load generators, also notes how the windows lie and end.
fn check(family: &Family, loadgen: bool) -> Seen {
    let mut seen = Seen::default();
    for seed in 0..STATES {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0_FFEE);
        let (mut c, phases) = (family.make)(&mut rng);
        let mut io = TestIo::new();
        let mut unanswered = VecDeque::new();
        for _ in 0..rng.below(MAX_WARM + 1) {
            (family.feed)(&mut rng, &mut io, &mut unanswered);
            io.run(c.as_mut(), 1);
            for (port, frames) in std::mem::take(&mut io.outbox) {
                unanswered.extend(frames.into_iter().map(|f| (port.clone(), f)));
            }
        }
        let mut idle = TestIo::new();
        idle.now = io.now;
        for _ in 0..WINDOWS {
            let round = idle.now;
            let quiet = c.quiet_rounds(round);
            let jumps = quiet.min(MAX_JUMP);
            let ctx = format!(
                "{} / seed {seed} / round {round} / window {quiet}",
                family.name
            );
            let mut stepped = c.boxed_clone();
            for n in 0..=jumps {
                if n > 0 {
                    idle.run(stepped.as_mut(), 1);
                }
                assert!(
                    idle.outbox.is_empty(),
                    "{ctx}: round {} of the window sent {:?}",
                    round + n - 1,
                    idle.outbox
                );
                let mut jumped = c.boxed_clone();
                jumped.advance(round, n);
                assert_eq!(
                    (family.state)(jumped.as_mut()),
                    (family.state)(stepped.as_mut()),
                    "{ctx}: advance({n}) differs from {n} idle rounds"
                );
            }
            seen.quiet += u64::from(jumps > 0);
            // The round after the window, which may act.
            let retried_before = loadgen.then(|| retried(stepped.as_mut()));
            idle.run(stepped.as_mut(), 1);
            idle.outbox.clear();
            if let Some(before) = retried_before {
                let crossed = phase_at(&phases, round) != phase_at(&phases, round + jumps);
                seen.crossed_phase += u64::from(jumps > 0 && crossed);
                seen.ended_in_retry += u64::from(retried(stepped.as_mut()) > before);
            }
            c = stepped;
        }
    }
    seen
}

fn retried(c: &mut dyn Component) -> u64 {
    c.as_any()
        .downcast_mut::<LoadGen>()
        .expect("a load generator")
        .retried
}

#[test]
fn closed_loop_load_generator_windows_reopen_only_at_phase_boundaries() {
    let family = Family {
        name: "closed-loop load generator",
        make: closed_loadgen,
        feed: answer_requests,
        state: debug_state::<LoadGen>,
    };
    let seen = check(&family, true);
    assert!(
        seen.quiet > 0 && seen.crossed_phase > 0,
        "no window crossed a phase"
    );
}

#[test]
fn open_loop_load_generator_windows_follow_the_carry() {
    let family = Family {
        name: "open-loop load generator",
        make: open_loadgen,
        feed: answer_requests,
        state: debug_state::<LoadGen>,
    };
    let seen = check(&family, true);
    assert!(
        seen.quiet > 0 && seen.crossed_phase > 0,
        "no window crossed a phase"
    );
}

#[test]
fn retrying_load_generator_windows_end_at_due_retries() {
    let family = Family {
        name: "retrying load generator",
        make: retrying_loadgen,
        feed: answer_requests,
        state: debug_state::<LoadGen>,
    };
    let seen = check(&family, true);
    assert!(seen.ended_in_retry > 0, "no window ended at a due retry");
    assert!(seen.crossed_phase > 0, "no window crossed a phase");
}

#[test]
fn idle_servers_and_pipes_advance_like_idle_rounds() {
    let families = [
        Family {
            name: "file server",
            make: file_server,
            feed: fs_requests,
            state: debug_state::<FileServer>,
        },
        Family {
            name: "guard",
            make: guard,
            feed: guard_traffic,
            state: guard_state,
        },
        Family {
            name: "reflector",
            make: |_| (Box::new(Reflector::new("refl")), Vec::new()),
            feed: frames_in,
            state: debug_state::<Reflector>,
        },
        Family {
            name: "sink",
            make: |_| (Box::new(Sink::new("sink")), Vec::new()),
            feed: frames_in,
            state: debug_state::<Sink>,
        },
        Family {
            name: "source",
            make: source,
            feed: no_feed,
            state: debug_state::<Source>,
        },
        Family {
            name: "red",
            make: |rng| (Box::new(RedComponent::new(rng.below(4) as u8)), Vec::new()),
            feed: host_frames,
            state: debug_state::<RedComponent>,
        },
        Family {
            name: "crypto",
            make: |rng| {
                let key = [rng.next_u64() as u32, 2, 3, 4];
                (Box::new(CryptoBox::new(key)), Vec::new())
            },
            feed: frames_in,
            state: debug_state::<CryptoBox>,
        },
        Family {
            name: "censor",
            make: censor,
            feed: bypass_traffic,
            state: debug_state::<Censor>,
        },
        Family {
            name: "black",
            make: |_| (Box::new(BlackComponent::new()), Vec::new()),
            feed: black_traffic,
            state: debug_state::<BlackComponent>,
        },
    ];
    for family in &families {
        let seen = check(family, false);
        assert!(seen.quiet > 0, "{}: no seeded state was quiet", family.name);
    }
}

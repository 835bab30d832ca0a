//! End-to-end separation-kernel tests: regimes in real machine code.

use sep_kernel::config::{DeviceSpec, KernelConfig, Mutation, RegimeSpec, SchedPolicy};
use sep_kernel::kernel::{KernelError, SeparationKernel};
use sep_kernel::regime::{FaultCause, RegimeStatus};
use sep_machine::asm::assemble;
use sep_machine::exec::Trap;

/// Reads a word from a regime's partition at a label of its program.
fn partition_word(k: &SeparationKernel, regime: usize, source: &str, label: &str) -> u16 {
    let prog = assemble(source).unwrap();
    let addr = prog.symbol(label).expect("label exists");
    k.machine
        .mem
        .read_word(k.regimes[regime].partition_base + addr as u32)
}

const COUNTER_A: &str = "
start:  INC counter
        TRAP 0          ; SWAP
        BR start
counter: .word 0
";

const COUNTER_B: &str = "
start:  ADD #2, counter
        TRAP 0
        BR start
counter: .word 0
";

#[test]
fn regimes_interleave_round_robin() {
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("a", COUNTER_A),
        RegimeSpec::assembly("b", COUNTER_B),
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(200);
    let a = partition_word(&k, 0, COUNTER_A, "counter");
    let b = partition_word(&k, 1, COUNTER_B, "counter");
    assert!(a > 10, "a progressed: {a}");
    assert!(b > 20, "b progressed: {b}");
    // b counts by 2, a by 1, same number of turns: b ≈ 2a.
    assert!((b as i32 - 2 * a as i32).abs() <= 2, "a={a} b={b}");
    assert!(k.stats.swaps > 20);
}

#[test]
fn partitions_are_isolated() {
    // Regime a writes a recognizable pattern through its whole partition
    // reach; regime b's partition must be untouched.
    let writer = "
        MOV #0o1000, R1
loop:   MOV #0o5252, (R1)+
        CMP R1, #0o2000
        BNE loop
        TRAP 0
        HALT
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("writer", writer),
        RegimeSpec::assembly("victim", COUNTER_B),
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    let victim_base = k.regimes[1].partition_base;
    let before: Vec<u8> = k.machine.mem.range(victim_base + 0o1000, 0o1000).to_vec();
    k.run(2000);
    // Writer wrote only its own partition.
    let after: Vec<u8> = k.machine.mem.range(victim_base + 0o1000, 0o1000).to_vec();
    assert_eq!(before, after);
    assert_eq!(
        k.machine
            .mem
            .read_word(k.regimes[0].partition_base + 0o1000),
        0o5252
    );
}

#[test]
fn out_of_partition_access_faults_and_system_continues() {
    let prober = "
        MOV @#0o20000, R1   ; segment 1: unmapped
        HALT
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("prober", prober),
        RegimeSpec::assembly("worker", COUNTER_A),
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(100);
    assert!(matches!(
        k.regimes[0].status,
        RegimeStatus::Faulted(FaultCause::Trap(Trap::Mmu(_)))
    ));
    // The worker keeps running.
    assert!(partition_word(&k, 1, COUNTER_A, "counter") > 5);
}

#[test]
fn overlap_mutation_exposes_neighbour_memory() {
    // With the OverlapPartitions sabotage, the same probe *succeeds* and
    // reads the neighbour's counter.
    let prog_b = COUNTER_A;
    let b_counter = assemble(prog_b).unwrap().symbol("counter").unwrap();
    let prober = format!(
        "
loop:   MOV @#{}, R1    ; neighbour's counter via overlapped segment 1
        TRAP 0
        BR loop
",
        0o20000 + b_counter
    );
    let mut cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("prober", &prober),
        RegimeSpec::assembly("worker", prog_b),
    ]);
    cfg.mutation = Mutation::OverlapPartitions;
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(400);
    assert_eq!(k.regimes[0].status, RegimeStatus::Ready);
    let stolen = k.machine.cpu.r[1].max(k.regimes[0].save.r[1]);
    assert!(stolen > 0, "prober read the neighbour's counter: {stolen}");
}

#[test]
fn channel_messages_flow_between_regimes() {
    // Sender transmits the bytes 1..=4 as a message; receiver polls RECV
    // until it gets it, then stores the bytes.
    let sender = "
        MOV #0, R0        ; channel 0
        MOV #msg, R1
        MOV #4, R2
        TRAP 1            ; SEND
        TRAP 0            ; SWAP forever after
loop:   TRAP 0
        BR loop
msg:    .byte 1, 2, 3, 4
";
    let receiver = "
again:  MOV #0, R0
        MOV #buf, R1
        MOV #16, R2
        TRAP 2            ; RECV
        TST R0
        BEQ done          ; status Ok
        TRAP 0            ; not yet: yield and retry
        BR again
done:   HALT
buf:    .blkw 8
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("sender", sender),
        RegimeSpec::assembly("receiver", receiver),
    ])
    .with_channel(0, 1, 4);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(500);
    assert_eq!(k.stats.messages_sent, 1);
    let buf = assemble(receiver).unwrap().symbol("buf").unwrap();
    let base = k.regimes[1].partition_base + buf as u32;
    assert_eq!(&*k.machine.mem.range(base, 4), &[1, 2, 3, 4]);
    assert!(matches!(
        k.regimes[1].status,
        RegimeStatus::Faulted(FaultCause::Trap(Trap::Halt))
    ));
}

#[test]
fn channels_enforce_their_endpoints() {
    // The receiver tries to SEND on a channel where it is not the sender.
    let cheater = "
        MOV #0, R0
        MOV #data, R1
        MOV #2, R2
        TRAP 1            ; SEND on a channel we do not own
        MOV R0, result
        HALT
data:   .word 0o7777
result: .word 0
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("owner", COUNTER_A),
        RegimeSpec::assembly("cheater", cheater),
    ])
    .with_channel(0, 1, 4); // cheater (regime 1) is the *receiver*
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(200);
    // Status Invalid = 3.
    assert_eq!(partition_word(&k, 1, cheater, "result"), 3);
    assert_eq!(k.stats.messages_sent, 0);
}

#[test]
fn serial_devices_live_in_the_regime_window() {
    // The regime polls its own serial line (XCSR at window +4) and echoes
    // two input bytes.
    let echo = "
        MOV #0o160000, R4   ; RCSR
        MOV #2, R3
next:   BIT #0o200, (R4)
        BEQ next
        MOVB 2(R4), R2      ; RBUF
wait:   BIT #0o200, 4(R4)   ; XCSR
        BEQ wait
        MOVB R2, 6(R4)      ; XBUF
        SOB R3, next
        HALT
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("echo", echo).with_device(DeviceSpec::Serial)
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.host_send_serial(0, b"hi");
    k.run(400);
    assert_eq!(k.host_take_serial_output(0), b"hi");
}

#[test]
fn interrupts_vector_through_the_regime_table() {
    // A clock regime: vector table slot 0 at 0o100 points at a handler that
    // increments a counter and returns with RTI.
    let clocked = "
        BR start
        .org 0o100
        .word handler, 0    ; slot 0: clock handler, entry cc 0
        .org 0o200
start:  MOV #0o160000, R4
        MOV #0o100, (R4)    ; LKS: interrupt enable
loop:   BR loop
handler: INC ticks
        RTI
ticks:  .word 0
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("clocked", clocked).with_device(DeviceSpec::Clock { period: 10 })
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(300);
    let ticks = partition_word(&k, 0, clocked, "ticks");
    assert!(ticks >= 2, "handler ran: {ticks}");
    assert!(k.stats.interrupts_delivered >= 2);
    assert_eq!(k.regimes[0].status, RegimeStatus::Ready);
}

#[test]
fn wait_sleeps_until_interrupt() {
    let sleeper = "
        BR start
        .org 0o100
        .word handler, 0
        .org 0o200
start:  MOV #0o160000, R4
        MOV #0o100, (R4)    ; clock interrupts on
        WAIT
        INC awake           ; resumed after the handler returned
        HALT
handler: RTI
awake:  .word 0
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("sleeper", sleeper).with_device(DeviceSpec::Clock { period: 20 })
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(200);
    assert_eq!(partition_word(&k, 0, sleeper, "awake"), 1);
    assert!(
        k.stats.idle_steps > 0,
        "the kernel idled while the regime slept"
    );
}

#[test]
fn misrouted_interrupts_reach_the_wrong_regime() {
    let clocked = "
        MOV #0o160000, R4
        MOV #0o100, (R4)
loop:   BR loop
";
    let mut cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("owner", clocked).with_device(DeviceSpec::Clock { period: 10 }),
        RegimeSpec::assembly("bystander", COUNTER_A),
    ]);
    cfg.mutation = Mutation::MisrouteInterrupts;
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(50);
    assert!(
        !k.regimes[1].pending_irqs.is_empty()
            || k.stats.interrupts_delivered > 0
            || k.stats.interrupts_discarded > 0,
        "bystander received the owner's interrupts"
    );
    assert!(k.regimes[0].pending_irqs.is_empty());
}

#[test]
fn dma_devices_are_refused_at_boot() {
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("a", "HALT").with_device(DeviceSpec::DmaDisk)
    ]);
    assert!(matches!(
        SeparationKernel::boot(cfg),
        Err(KernelError::DmaExcluded { .. })
    ));
}

#[test]
fn faulted_everything_reports_all_stopped() {
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("a", "HALT"),
        RegimeSpec::assembly("b", "HALT"),
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    assert!(k.run_until_stopped(100));
}

#[test]
fn myid_syscall_reports_identity() {
    let prog = "
        TRAP 4
        MOV R0, myid
        HALT
myid:   .word 0o7777
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("zero", prog),
        RegimeSpec::assembly("one", prog),
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(50);
    assert_eq!(partition_word(&k, 0, prog, "myid"), 0);
    assert_eq!(partition_word(&k, 1, prog, "myid"), 1);
}

#[test]
fn quantum_preempts_spinners() {
    let spinner = "loop: INC counter\n BR loop\ncounter: .word 0";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("a", spinner),
        RegimeSpec::assembly("b", spinner),
    ])
    .with_sched(SchedPolicy::FixedTimeSlice {
        quantum: 16,
        padded: false,
    });
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(400);
    // Without preemption regime b would starve; with it both progress.
    assert!(partition_word(&k, 0, spinner, "counter") > 10);
    assert!(partition_word(&k, 1, spinner, "counter") > 10);
}

#[test]
fn leaked_condition_codes_cross_the_swap() {
    // Regime a sets carry then swaps; regime b stores the carry it sees at
    // entry to its turn.
    let setter = "
loop:   SEC
        TRAP 0
        BR loop
";
    let reader = "
loop:   BCS saw_carry
        TRAP 0
        BR loop
saw_carry: INC leaked
        TRAP 0
        CLC
        BR loop
leaked: .word 0
";
    for (mutation, expect_leak) in [
        (Mutation::None, false),
        (Mutation::LeakConditionCodes, true),
    ] {
        let mut cfg = KernelConfig::new(vec![
            RegimeSpec::assembly("setter", setter),
            RegimeSpec::assembly("reader", reader),
        ]);
        cfg.mutation = mutation;
        let mut k = SeparationKernel::boot(cfg).unwrap();
        k.run(400);
        let leaked = partition_word(&k, 1, reader, "leaked") > 0;
        assert_eq!(leaked, expect_leak, "mutation {mutation:?}");
    }
}

#[test]
fn emt_is_a_fault_not_a_service() {
    // The SUE's kernel-call vehicle is TRAP; EMT is reserved and stops the
    // regime, isolating whatever used it.
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("bad", "EMT 1"),
        RegimeSpec::assembly("good", COUNTER_A),
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(100);
    assert!(matches!(
        k.regimes[0].status,
        RegimeStatus::Faulted(FaultCause::Trap(Trap::Emt(1)))
    ));
    assert!(partition_word(&k, 1, COUNTER_A, "counter") > 5);
}

#[test]
fn unknown_trap_numbers_fault_the_regime() {
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("bad", "TRAP 77"),
        RegimeSpec::assembly("good", COUNTER_A),
    ]);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(100);
    assert!(matches!(
        k.regimes[0].status,
        RegimeStatus::Faulted(FaultCause::Trap(Trap::TrapInstr(77)))
    ));
}

#[test]
fn poll_reports_queue_depth_to_the_sender() {
    let sender = "
        MOV #0, R0
        MOV #msg, R1
        MOV #2, R2
        TRAP 1          ; SEND one message
        MOV #0, R0
        TRAP 3          ; POLL
        MOV R0, depth
        HALT
msg:    .word 0o777
depth:  .word 0
";
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("sender", sender),
        RegimeSpec::assembly("receiver", COUNTER_A),
    ])
    .with_channel(0, 1, 4);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(100);
    assert_eq!(partition_word(&k, 0, sender, "depth"), 1);
}

//! The device framework and the machine's standard peripherals.
//!
//! Every device occupies a range of word registers in the I/O page. Because
//! the MMU protects device registers exactly like memory, a device can be
//! assigned wholesale to a regime by mapping its registers into that
//! regime's address space — the SUE's I/O architecture. Devices raise
//! vectored interrupt requests; the machine surfaces them to the kernel,
//! which forwards them to the owning regime.
//!
//! DMA is modelled — and excluded by default — via [`DmaOp`]: a DMA-capable
//! device ([`dma::DmaDisk`]) asks the machine to move bytes using *physical*
//! addresses, evading the MMU entirely. The SUE's answer was to ban DMA; the
//! machine reproduces both the ban and (when configured permissively) the
//! threat.

use crate::types::{PhysAddr, Word};
use core::any::Any;
use core::fmt;

pub mod clock;
pub mod crypto;
pub mod dma;
pub mod printer;
pub mod serial;

/// A pending interrupt request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InterruptRequest {
    /// Interrupt vector address (in kernel space on a real machine).
    pub vector: Word,
    /// Bus request priority (4–7 conventionally).
    pub priority: u8,
}

/// A DMA transfer requested by a device: performed on *physical* memory,
/// bypassing the MMU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmaOp {
    /// Write these bytes to physical memory at `addr`.
    WriteMem {
        /// Destination physical address.
        addr: PhysAddr,
        /// Bytes to store.
        data: Vec<u8>,
    },
    /// Read `len` bytes of physical memory at `addr` into the device (the
    /// machine calls [`Device::dma_complete`] with the data).
    ReadMem {
        /// Source physical address.
        addr: PhysAddr,
        /// Number of bytes.
        len: u32,
    },
}

/// A memory-mapped peripheral.
///
/// `Send + Sync` because device state rides inside cloned kernels that the
/// parallel separability checker moves across worker threads; devices are
/// plain data and every implementation in this workspace satisfies the
/// bounds structurally.
pub trait Device: Send + Sync {
    /// Display name.
    fn name(&self) -> &str;

    /// First byte address of the register block (must be in the I/O page
    /// and even).
    fn base(&self) -> PhysAddr;

    /// Length of the register block in bytes (even).
    fn reg_len(&self) -> u32;

    /// Reads the word register at byte `offset` from `base`.
    fn read_reg(&mut self, offset: u32) -> Word;

    /// Writes the word register at byte `offset` from `base`.
    fn write_reg(&mut self, offset: u32, value: Word);

    /// Advances device time by one machine step.
    fn tick(&mut self);

    /// How many of the coming ticks are *quiet*: they change no
    /// register-visible state, raise or latch no interrupt, and request no
    /// DMA. The machine runs that many instructions in one batch and pays
    /// the owed ticks with [`Device::advance`]. Must be 0 while an
    /// interrupt is latched. The default, 0, keeps a device on the
    /// one-step-at-a-time path.
    fn quiet_ticks(&self) -> u64 {
        0
    }

    /// Advances device time by `n` ticks. Must equal `n` calls of
    /// [`Device::tick`] whenever `n <= self.quiet_ticks()`.
    fn advance(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// The device's pending interrupt, if any.
    fn pending(&self) -> Option<InterruptRequest>;

    /// Clears the pending interrupt (called when the kernel fields it).
    fn acknowledge(&mut self);

    /// Appends a stable snapshot of device state, for machine-state
    /// equality, to `out`, after whatever `out` already holds.
    ///
    /// The snapshot must capture everything that influences the device's
    /// future register values and interrupts, and must be *bounded*:
    /// host-side record-keeping (paper trays, transmitted-byte logs, total
    /// tick counters) is excluded so that cyclic device behaviour yields
    /// cyclic snapshots. Callers that snapshot many devices reuse one
    /// buffer across them.
    fn snapshot_into(&self, out: &mut Vec<Word>);

    /// The [`Device::snapshot_into`] snapshot in a vector of its own.
    fn snapshot(&self) -> Vec<Word> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// Restores the device to a previously snapshotted state (the inverse
    /// of [`Device::snapshot`]). Host-side record-keeping is reset.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot is malformed or the device does not support
    /// restoration.
    fn restore(&mut self, snapshot: &[Word]);

    /// Clones the device (object-safe clone).
    fn boxed_clone(&self) -> Box<dyn Device>;

    /// Dynamic access for host-side test harnesses.
    fn as_any(&mut self) -> &mut dyn Any;

    /// A DMA transfer the device wants performed this step (None for the
    /// well-behaved majority).
    fn dma_request(&mut self) -> Option<DmaOp> {
        None
    }

    /// Completion callback for [`DmaOp::ReadMem`].
    fn dma_complete(&mut self, _data: Vec<u8>) {}
}

/// The set of devices attached to a machine.
pub struct DeviceSet {
    devices: Vec<Box<dyn Device>>,
}

impl fmt::Debug for DeviceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.devices.iter().map(|d| d.name()))
            .finish()
    }
}

impl Clone for DeviceSet {
    fn clone(&self) -> Self {
        DeviceSet {
            devices: self.devices.iter().map(|d| d.boxed_clone()).collect(),
        }
    }
}

impl Default for DeviceSet {
    fn default() -> Self {
        DeviceSet::new()
    }
}

impl DeviceSet {
    /// An empty device set.
    pub fn new() -> DeviceSet {
        DeviceSet {
            devices: Vec::new(),
        }
    }

    /// Attaches a device, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if the device's register block overlaps an existing one or
    /// lies outside the I/O page.
    pub fn attach(&mut self, dev: Box<dyn Device>) -> usize {
        let (b, l) = (dev.base(), dev.reg_len());
        assert!(
            b >= crate::mem::IO_BASE && b + l <= crate::mem::PHYS_SIZE,
            "device {} registers outside the I/O page",
            dev.name()
        );
        assert_eq!(b % 2, 0, "device base must be even");
        for d in &self.devices {
            let (db, dl) = (d.base(), d.reg_len());
            assert!(
                b + l <= db || db + dl <= b,
                "device {} overlaps {}",
                dev.name(),
                d.name()
            );
        }
        self.devices.push(dev);
        self.devices.len() - 1
    }

    /// Number of attached devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when no devices are attached.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device whose registers contain `addr`, if any.
    pub fn by_addr(&mut self, addr: PhysAddr) -> Option<&mut Box<dyn Device>> {
        self.devices
            .iter_mut()
            .find(|d| addr >= d.base() && addr < d.base() + d.reg_len())
    }

    /// The device at an index.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut Box<dyn Device>> {
        self.devices.get_mut(index)
    }

    /// Shared access to the device at an index.
    pub fn get(&self, index: usize) -> Option<&dyn Device> {
        self.devices.get(index).map(|d| d.as_ref())
    }

    /// Typed access to a device by index.
    pub fn downcast_mut<T: Device + 'static>(&mut self, index: usize) -> Option<&mut T> {
        self.devices.get_mut(index)?.as_any().downcast_mut::<T>()
    }

    /// Ticks every device.
    pub fn tick_all(&mut self) {
        for d in &mut self.devices {
            d.tick();
        }
    }

    /// The coming ticks that are quiet on every device (see
    /// [`Device::quiet_ticks`]); unbounded when no device is attached.
    pub(crate) fn quiet_ticks(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.quiet_ticks())
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Advances every device by `n` ticks (see [`Device::advance`]).
    pub(crate) fn advance(&mut self, n: u64) {
        for d in &mut self.devices {
            d.advance(n);
        }
    }

    /// The highest-priority pending interrupt strictly above `level`,
    /// together with its device index. Ties break by device order.
    pub fn highest_pending(&self, level: u8) -> Option<(usize, InterruptRequest)> {
        self.devices
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.pending().map(|irq| (i, irq)))
            .filter(|(_, irq)| irq.priority > level)
            .max_by_key(|(i, irq)| (irq.priority, usize::MAX - i))
    }

    /// Collects DMA requests from all devices (index, op).
    pub fn collect_dma(&mut self) -> Vec<(usize, DmaOp)> {
        self.devices
            .iter_mut()
            .enumerate()
            .filter_map(|(i, d)| d.dma_request().map(|op| (i, op)))
            .collect()
    }

    /// Snapshots of every device's state, in attach order.
    pub fn snapshots(&self) -> Vec<Vec<Word>> {
        self.devices.iter().map(|d| d.snapshot()).collect()
    }

    /// Iterates over the devices.
    pub fn iter(&self) -> impl Iterator<Item = &Box<dyn Device>> {
        self.devices.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::serial::SerialLine;
    use super::*;

    fn serial_at(base: PhysAddr, vector: Word) -> Box<dyn Device> {
        Box::new(SerialLine::new("tty", base, vector, 4))
    }

    #[test]
    fn attach_and_lookup_by_address() {
        let mut set = DeviceSet::new();
        let idx = set.attach(serial_at(0o777560, 0o60));
        assert_eq!(idx, 0);
        assert!(set.by_addr(0o777560).is_some());
        assert!(set.by_addr(0o777566).is_some());
        assert!(set.by_addr(0o777570).is_none());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_devices_panic() {
        let mut set = DeviceSet::new();
        set.attach(serial_at(0o777560, 0o60));
        set.attach(serial_at(0o777564, 0o70));
    }

    #[test]
    #[should_panic(expected = "outside the I/O page")]
    fn device_outside_io_page_panics() {
        let mut set = DeviceSet::new();
        set.attach(serial_at(0o1000, 0o60));
    }

    #[test]
    fn highest_pending_respects_priority_level() {
        let mut set = DeviceSet::new();
        let a = set.attach(serial_at(0o777560, 0o60));
        set.downcast_mut::<SerialLine>(a).unwrap().host_send(b"x");
        set.downcast_mut::<SerialLine>(a)
            .unwrap()
            .set_rx_interrupt(true);
        set.tick_all();
        assert!(set.highest_pending(3).is_some());
        assert!(set.highest_pending(4).is_none());
        assert!(set.highest_pending(7).is_none());
    }

    #[test]
    fn only_clock_and_serial_report_quiet_ticks() {
        use super::clock::LineClock;
        use super::crypto::CryptoUnit;
        use super::dma::DmaDisk;
        use super::printer::LinePrinter;
        let stepped: [Box<dyn Device>; 3] = [
            Box::new(LinePrinter::new(0o760000, 0o200)),
            Box::new(CryptoUnit::new(0o761000, 0o210)),
            Box::new(DmaDisk::new(0o762000, 0o220)),
        ];
        for d in &stepped {
            assert_eq!(
                d.quiet_ticks(),
                0,
                "{} must step one tick at a time",
                d.name()
            );
        }
        let mut set = DeviceSet::new();
        assert_eq!(set.quiet_ticks(), u64::MAX, "no device, no limit");
        set.attach(serial_at(0o777560, 0o60));
        assert_eq!(set.quiet_ticks(), u64::MAX);
        set.attach(Box::new(LineClock::new(0o777546, 0o100, 10)));
        assert_eq!(
            set.quiet_ticks(),
            9,
            "the set is as quiet as its least quiet device"
        );
        for d in stepped {
            set.attach(d);
        }
        assert_eq!(set.quiet_ticks(), 0);
    }

    #[test]
    fn snapshot_into_appends_exactly_the_snapshot() {
        use super::clock::LineClock;
        use super::crypto::CryptoUnit;
        use super::dma::DmaDisk;
        use super::printer::LinePrinter;
        let mut serial = SerialLine::new("tty", 0o777560, 0o60, 4);
        serial.host_send(b"ab");
        let mut clock = LineClock::new(0o777546, 0o100, 3);
        clock.write_reg(0, 0o100);
        let mut printer = LinePrinter::new(0o760000, 0o200);
        printer.write_reg(2, b'x' as Word);
        let mut crypto = CryptoUnit::new(0o761000, 0o210);
        crypto.write_reg(2, 0o1234);
        crypto.write_reg(18, 0o4321);
        let mut devices: [Box<dyn Device>; 5] = [
            Box::new(serial),
            Box::new(clock),
            Box::new(printer),
            Box::new(crypto),
            Box::new(DmaDisk::new(0o762000, 0o220)),
        ];
        for d in &mut devices {
            d.tick();
            let snap = d.snapshot();
            assert!(!snap.is_empty(), "{}", d.name());
            let mut out = vec![0o7, 0o70];
            d.snapshot_into(&mut out);
            assert_eq!(out[..2], [0o7, 0o70], "{} touched what it found", d.name());
            assert_eq!(out[2..], snap[..], "{} appended another snapshot", d.name());
        }
    }

    #[test]
    fn clone_preserves_device_state() {
        let mut set = DeviceSet::new();
        let a = set.attach(serial_at(0o777560, 0o60));
        set.downcast_mut::<SerialLine>(a)
            .unwrap()
            .host_send(b"hello");
        let mut copy = set.clone();
        assert_eq!(copy.snapshots(), set.snapshots());
        // Mutating the copy does not affect the original.
        copy.downcast_mut::<SerialLine>(a).unwrap().host_send(b"!");
        assert_ne!(copy.snapshots(), set.snapshots());
    }
}

//! SMBus/i2c bus emulation.
//!
//! The paper's fan driver talks to the ADT7467 through the i2c protocol; we
//! reproduce that control path so the "driver" layer (`unitherm-hwmon`)
//! exercises real addressed register transactions instead of poking the fan
//! model directly. A bus carries one device at a fixed 7-bit address and
//! keeps transaction accounting and NACK fault injection; the device's
//! registers live elsewhere (the ADT7467's in its node's physics slot) and
//! come with each transaction.

/// Error raised by a device while handling a register access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// The register address is not implemented by the device.
    InvalidRegister(u8),
    /// The register exists but is read-only.
    ReadOnlyRegister(u8),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::InvalidRegister(r) => write!(f, "invalid register 0x{r:02x}"),
            DeviceError::ReadOnlyRegister(r) => write!(f, "register 0x{r:02x} is read-only"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Error raised by a bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum I2cError {
    /// No device acknowledged the address.
    NoDevice {
        /// The unacknowledged 7-bit address.
        addr: u8,
    },
    /// The device NACKed the transaction (injected fault).
    Nack {
        /// The NACKing 7-bit address.
        addr: u8,
    },
    /// The device rejected the register access.
    Device(DeviceError),
}

impl std::fmt::Display for I2cError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            I2cError::NoDevice { addr } => write!(f, "no device at address 0x{addr:02x}"),
            I2cError::Nack { addr } => write!(f, "device 0x{addr:02x} NACKed"),
            I2cError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for I2cError {}

impl From<DeviceError> for I2cError {
    fn from(e: DeviceError) -> Self {
        I2cError::Device(e)
    }
}

/// A device that speaks the SMBus byte-register protocol.
pub trait SmbusDevice {
    /// Reads one register byte.
    fn read_byte(&mut self, reg: u8) -> Result<u8, DeviceError>;
    /// Writes one register byte.
    fn write_byte(&mut self, reg: u8, value: u8) -> Result<(), DeviceError>;
}

/// Counters describing bus traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Successful byte reads.
    pub reads: u64,
    /// Successful byte writes.
    pub writes: u64,
    /// Failed transactions (NACKs, missing devices, device errors).
    pub errors: u64,
}

/// An i2c bus with one SMBus device at a fixed address: the address, the
/// NACK latch and the traffic counters. Each transaction is handed the
/// device it reaches.
#[derive(Debug)]
pub struct I2cBus {
    addr: u8,
    nacking: bool,
    stats: BusStats,
}

impl I2cBus {
    /// A bus whose device answers at a 7-bit address.
    ///
    /// # Panics
    /// Panics if the address is outside the 7-bit range — a wiring bug, not
    /// a runtime condition.
    pub fn new(addr: u8) -> Self {
        assert!(addr <= 0x7F, "i2c addresses are 7-bit, got 0x{addr:02x}");
        Self { addr, nacking: false, stats: BusStats::default() }
    }

    /// Routes one transaction to the device, or fails it as a missing
    /// address or an injected NACK.
    fn transact<D: SmbusDevice, T>(
        &mut self,
        device: &mut D,
        addr: u8,
        op: impl FnOnce(&mut D) -> Result<T, DeviceError>,
    ) -> Result<T, I2cError> {
        let result = if addr != self.addr {
            Err(I2cError::NoDevice { addr })
        } else if self.nacking {
            Err(I2cError::Nack { addr })
        } else {
            op(device).map_err(I2cError::from)
        };
        if result.is_err() {
            self.stats.errors += 1;
        }
        result
    }

    /// Reads one register byte from `device`, addressed at `addr`.
    pub fn read_byte<D: SmbusDevice>(
        &mut self,
        device: &mut D,
        addr: u8,
        reg: u8,
    ) -> Result<u8, I2cError> {
        let v = self.transact(device, addr, |d| d.read_byte(reg))?;
        self.stats.reads += 1;
        Ok(v)
    }

    /// Writes one register byte to `device`, addressed at `addr`.
    pub fn write_byte<D: SmbusDevice>(
        &mut self,
        device: &mut D,
        addr: u8,
        reg: u8,
        value: u8,
    ) -> Result<(), I2cError> {
        self.transact(device, addr, |d| d.write_byte(reg, value))?;
        self.stats.writes += 1;
        Ok(())
    }

    /// Enables or disables NACK injection for the device.
    pub fn inject_nack(&mut self, enabled: bool) {
        self.nacking = enabled;
    }

    /// Transaction counters.
    pub fn stats(&self) -> BusStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trivial 4-register RAM device for bus tests.
    #[derive(Debug)]
    struct RamDevice {
        regs: [u8; 4],
    }

    impl SmbusDevice for RamDevice {
        fn read_byte(&mut self, reg: u8) -> Result<u8, DeviceError> {
            self.regs.get(reg as usize).copied().ok_or(DeviceError::InvalidRegister(reg))
        }
        fn write_byte(&mut self, reg: u8, value: u8) -> Result<(), DeviceError> {
            if reg == 3 {
                return Err(DeviceError::ReadOnlyRegister(reg));
            }
            *self.regs.get_mut(reg as usize).ok_or(DeviceError::InvalidRegister(reg))? = value;
            Ok(())
        }
    }

    fn bus_with_ram() -> (I2cBus, RamDevice) {
        (I2cBus::new(0x2E), RamDevice { regs: [0; 4] })
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mut bus, mut ram) = bus_with_ram();
        bus.write_byte(&mut ram, 0x2E, 1, 0xAB).unwrap();
        assert_eq!(bus.read_byte(&mut ram, 0x2E, 1), Ok(0xAB));
        assert_eq!(ram.regs[1], 0xAB);
        assert_eq!(bus.stats(), BusStats { reads: 1, writes: 1, errors: 0 });
    }

    #[test]
    fn missing_device_errors() {
        let (mut bus, mut ram) = bus_with_ram();
        assert_eq!(bus.read_byte(&mut ram, 0x10, 0), Err(I2cError::NoDevice { addr: 0x10 }));
        assert_eq!(bus.write_byte(&mut ram, 0x10, 0, 1), Err(I2cError::NoDevice { addr: 0x10 }));
        assert_eq!(bus.stats(), BusStats { reads: 0, writes: 0, errors: 2 });
    }

    #[test]
    fn invalid_register_propagates() {
        let (mut bus, mut ram) = bus_with_ram();
        assert_eq!(
            bus.read_byte(&mut ram, 0x2E, 99),
            Err(I2cError::Device(DeviceError::InvalidRegister(99)))
        );
        assert_eq!(
            bus.write_byte(&mut ram, 0x2E, 3, 1),
            Err(I2cError::Device(DeviceError::ReadOnlyRegister(3)))
        );
        assert_eq!(bus.stats().errors, 2);
    }

    #[test]
    fn nack_injection_blocks_and_recovers() {
        let (mut bus, mut ram) = bus_with_ram();
        bus.inject_nack(true);
        assert_eq!(bus.read_byte(&mut ram, 0x2E, 0), Err(I2cError::Nack { addr: 0x2E }));
        assert_eq!(bus.write_byte(&mut ram, 0x2E, 0, 1), Err(I2cError::Nack { addr: 0x2E }));
        assert_eq!(
            bus.read_byte(&mut ram, 0x10, 0),
            Err(I2cError::NoDevice { addr: 0x10 }),
            "a NACKing device does not answer for other addresses"
        );
        bus.inject_nack(false);
        assert!(bus.read_byte(&mut ram, 0x2E, 0).is_ok());
    }

    #[test]
    #[should_panic(expected = "7-bit")]
    fn eight_bit_address_panics() {
        let _ = I2cBus::new(0x80);
    }
}

//! The 82-bit compressed NMP instruction (paper §4.2).
//!
//! ReCross encodes every NMP request into one 82-bit instruction carried
//! over the C/A pins (plus idle DQ pins in two-stage mode). Field layout:
//!
//! | field    | bits | meaning |
//! |----------|------|---------|
//! | opcode   | 3    | reduction operation |
//! | ddr_cmd  | 3    | DDR command (ACT / RD / PRE) |
//! | addr     | 34   | physical address of the target vector |
//! | vsize    | 3    | log2 of DRAM reads per vector |
//! | weight   | 32   | f32 weight for weighted summation |
//! | batchTag | 1    | groups instructions of one embedding op |
//! | lastTag  | 1    | last instruction of a batch (results return) |
//! | BGTag    | 1    | vector is *below* rank level (G- or B-region) |
//! | bankTag  | 1    | vector is at bank level (B-region), valid iff BGTag |
//! | reserved | 3    | padding to 82 bits |

/// Total instruction width in bits: the width the engine prices the
/// instruction channel with.
pub const INSTRUCTION_BITS: u32 = recross_nmp::engine::NMP_INST_BITS;

/// Reduction opcode (3 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Opcode {
    /// Plain element-wise summation.
    Sum = 0,
    /// Weighted summation (the paper's default, as in RecNMP/TRiM).
    #[default]
    WeightedSum = 1,
    /// Average pooling.
    Average = 2,
    /// Concatenation (no reduction; vectors stream out).
    Concat = 3,
    /// Quantized (int8) summation.
    QuantizedSum = 4,
}

impl Opcode {
    fn from_bits(b: u64) -> Option<Self> {
        Some(match b {
            0 => Opcode::Sum,
            1 => Opcode::WeightedSum,
            2 => Opcode::Average,
            3 => Opcode::Concat,
            4 => Opcode::QuantizedSum,
            _ => return None,
        })
    }
}

/// DDR command field (3 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DdrCmd {
    /// Row activation.
    Act = 0,
    /// Column read (vsize bursts).
    #[default]
    Rd = 1,
    /// Precharge.
    Pre = 2,
}

impl DdrCmd {
    fn from_bits(b: u64) -> Option<Self> {
        Some(match b {
            0 => DdrCmd::Act,
            1 => DdrCmd::Rd,
            2 => DdrCmd::Pre,
            _ => return None,
        })
    }
}

/// A decoded NMP instruction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NmpInstruction {
    /// Reduction operation.
    pub opcode: Opcode,
    /// DDR command.
    pub ddr_cmd: DdrCmd,
    /// 34-bit physical address (vector start).
    pub addr: u64,
    /// log2(DRAM reads per vector), 3 bits (vector of `2^vsize` bursts).
    pub vsize: u8,
    /// Weight for weighted summation.
    pub weight: f32,
    /// Batch grouping tag.
    pub batch_tag: bool,
    /// Marks the last instruction of a batch.
    pub last_tag: bool,
    /// Set when the vector lives below rank level (G- or B-region).
    pub bg_tag: bool,
    /// Set when the vector lives at bank level; only valid with `bg_tag`.
    pub bank_tag: bool,
}

/// Error decoding an instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown opcode bits.
    BadOpcode,
    /// Unknown DDR command bits.
    BadDdrCmd,
    /// Reserved bits were not zero.
    BadReserved,
    /// bankTag set without BGTag (§4.2: bankTag valid iff BGTag).
    BankTagWithoutBgTag,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            DecodeError::BadOpcode => "unknown opcode",
            DecodeError::BadDdrCmd => "unknown DDR command",
            DecodeError::BadReserved => "reserved bits set",
            DecodeError::BankTagWithoutBgTag => "bankTag set without BGTag",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DecodeError {}

impl NmpInstruction {
    /// Encodes to an 82-bit word (returned in the low bits of a `u128`).
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds 34 bits, `vsize` exceeds 3 bits, or
    /// `bank_tag` is set without `bg_tag`.
    pub fn encode(&self) -> u128 {
        assert!(self.addr < (1u64 << 34), "addr exceeds 34 bits");
        assert!(self.vsize < 8, "vsize exceeds 3 bits");
        assert!(
            self.bg_tag || !self.bank_tag,
            "bankTag is only valid when BGTag is set"
        );
        let mut w: u128 = 0;
        let mut shift = 0u32;
        let mut put = |val: u128, bits: u32| {
            w |= val << shift;
            shift += bits;
        };
        put(self.opcode as u128, 3);
        put(self.ddr_cmd as u128, 3);
        put(u128::from(self.addr), 34);
        put(u128::from(self.vsize), 3);
        put(u128::from(self.weight.to_bits()), 32);
        put(u128::from(self.batch_tag), 1);
        put(u128::from(self.last_tag), 1);
        put(u128::from(self.bg_tag), 1);
        put(u128::from(self.bank_tag), 1);
        put(0, 3); // reserved
        debug_assert_eq!(shift, INSTRUCTION_BITS);
        w
    }

    /// Decodes an 82-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed fields.
    pub fn decode(w: u128) -> Result<Self, DecodeError> {
        let mut shift = 0u32;
        let mut take = |bits: u32| -> u64 {
            let v = ((w >> shift) & ((1u128 << bits) - 1)) as u64;
            shift += bits;
            v
        };
        let opcode = Opcode::from_bits(take(3)).ok_or(DecodeError::BadOpcode)?;
        let ddr_cmd = DdrCmd::from_bits(take(3)).ok_or(DecodeError::BadDdrCmd)?;
        let addr = take(34);
        let vsize = take(3) as u8;
        let weight = f32::from_bits(take(32) as u32);
        let batch_tag = take(1) != 0;
        let last_tag = take(1) != 0;
        let bg_tag = take(1) != 0;
        let bank_tag = take(1) != 0;
        if take(3) != 0 {
            return Err(DecodeError::BadReserved);
        }
        if w >> INSTRUCTION_BITS != 0 {
            return Err(DecodeError::BadReserved);
        }
        if bank_tag && !bg_tag {
            return Err(DecodeError::BankTagWithoutBgTag);
        }
        Ok(Self {
            opcode,
            ddr_cmd,
            addr,
            vsize,
            weight,
            batch_tag,
            last_tag,
            bg_tag,
            bank_tag,
        })
    }

    /// The NMP level this instruction is dispatched to, per the
    /// BGTag/bankTag co-determination of §4.2.
    pub fn nmp_level(&self) -> NmpLevel {
        match (self.bg_tag, self.bank_tag) {
            (false, _) => NmpLevel::Rank,
            (true, false) => NmpLevel::BankGroup,
            (true, true) => NmpLevel::Bank,
        }
    }
}

/// The three ReCross NMP levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NmpLevel {
    /// Rank-level PE (R-region).
    Rank,
    /// Bank-group-level PE (G-region).
    BankGroup,
    /// Subarray-parallel bank-level PE (B-region).
    Bank,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NmpInstruction {
        NmpInstruction {
            opcode: Opcode::WeightedSum,
            ddr_cmd: DdrCmd::Rd,
            addr: 0x2_2334_5566,
            vsize: 2,
            weight: 1.25,
            batch_tag: true,
            last_tag: false,
            bg_tag: true,
            bank_tag: true,
        }
    }

    #[test]
    fn roundtrip() {
        let inst = sample();
        let decoded = NmpInstruction::decode(inst.encode()).unwrap();
        assert_eq!(decoded, inst);
    }

    #[test]
    fn width_is_82_bits() {
        assert_eq!(INSTRUCTION_BITS, 82);
        let w = sample().encode();
        assert_eq!(w >> INSTRUCTION_BITS, 0);
        // High tags occupy the very top bits below reserved.
        assert!(w >> (INSTRUCTION_BITS - 4) != 0);
    }

    #[test]
    fn level_dispatch() {
        let mut i = sample();
        i.bg_tag = false;
        i.bank_tag = false;
        assert_eq!(i.nmp_level(), NmpLevel::Rank);
        i.bg_tag = true;
        assert_eq!(i.nmp_level(), NmpLevel::BankGroup);
        i.bank_tag = true;
        assert_eq!(i.nmp_level(), NmpLevel::Bank);
    }

    #[test]
    fn rejects_bad_tag_combination() {
        let mut i = sample();
        i.bg_tag = true;
        i.bank_tag = true;
        let mut w = i.encode();
        // Bit offsets: opcode 0, ddr 3, addr 6, vsize 40, weight 43,
        // batch 75, last 76, bg 77, bank 78. Clear BGTag (bit 77).
        w &= !(1u128 << 77);
        assert_eq!(
            NmpInstruction::decode(w),
            Err(DecodeError::BankTagWithoutBgTag)
        );
    }

    #[test]
    fn rejects_reserved_bits() {
        let w = sample().encode() | (1u128 << 81);
        assert_eq!(NmpInstruction::decode(w), Err(DecodeError::BadReserved));
    }

    #[test]
    fn rejects_bad_opcode() {
        let w = sample().encode() | 0b111;
        assert_eq!(NmpInstruction::decode(w), Err(DecodeError::BadOpcode));
    }

    #[test]
    #[should_panic(expected = "addr exceeds 34 bits")]
    fn encode_validates_addr() {
        let mut i = sample();
        i.addr = 1 << 34;
        i.encode();
    }

    #[test]
    fn weight_bit_exact() {
        for w in [0.0f32, -1.5, f32::MAX, f32::MIN_POSITIVE] {
            let mut i = sample();
            i.weight = w;
            let d = NmpInstruction::decode(i.encode()).unwrap();
            assert_eq!(d.weight.to_bits(), w.to_bits());
        }
    }
}

//! Stable binary serialization for fingerprinted artifacts.
//!
//! The persistent artifact cache (`ipcp-core::diskcache`) stores
//! analysis results across process lifetimes, so their encoding must be
//! *stable*: independent of pointer width, hash-map iteration order, and
//! allocation layout. This module provides a small hand-rolled codec —
//! the workspace carries no serde — built from two pieces:
//!
//! * [`ByteWriter`] / [`ByteReader`] — append-only little-endian byte
//!   streams with bounds-checked reads,
//! * the [`Wire`] trait — `encode`/`decode` implementations for the
//!   primitives, the standard containers the analyses use (`Vec`,
//!   `Option`, `BTreeMap`, `String`), and every IR type that appears in
//!   an [`crate::Program`].
//!
//! Decoding is *total*: any byte sequence either decodes to a value or
//! returns a [`WireError`]; no input panics. The cache layers a
//! checksum over the payload, so decode errors only arise from format
//! or version skew — both of which quarantine the entry rather than
//! crash the analysis.

use crate::ids::{BlockId, GlobalId, ProcId, VarId};
use crate::instr::{CallArg, Instr, Operand, Terminator, TrapKind};
use crate::procedure::{Block, Procedure, VarDecl, VarKind};
use crate::program::{GlobalVar, Program};
use ipcp_lang::ast::{Base, BinOp, ProcKind, Shape, Ty, UnOp};
use std::collections::BTreeMap;
use std::fmt;

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value did.
    Truncated,
    /// An enum tag byte held no known variant.
    BadTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix exceeds the remaining input — a corrupt or
    /// hostile stream; failing early bounds allocation.
    BadLength,
    /// A string's bytes were not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the top-level value was decoded.
    TrailingBytes,
    /// The bytes decoded, but into a value its type never holds (an
    /// unsorted table, an over-sized expression).
    NonCanonical {
        /// Which type was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("input truncated"),
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag:#04x} for {what}"),
            WireError::BadLength => f.write_str("length prefix exceeds input"),
            WireError::BadUtf8 => f.write_str("invalid UTF-8 in string"),
            WireError::TrailingBytes => f.write_str("trailing bytes after value"),
            WireError::NonCanonical { what } => write!(f, "non-canonical {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Where [`Wire::encode`] writes: a byte buffer ([`ByteWriter`]) for
/// payloads, or a streaming hasher ([`crate::fingerprint::Fnv1a`]) for
/// fingerprints, so cache keys hash exactly the bytes a payload would
/// hold without materializing them.
pub trait WireSink {
    /// Appends raw bytes.
    fn bytes(&mut self, bytes: &[u8]);

    /// Appends one byte.
    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// An append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far, borrowed.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

impl WireSink for ByteWriter {
    fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
}

/// A bounds-checked little-endian byte source.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Consumes a length prefix, rejecting values that could not
    /// possibly fit in the remaining input (every element needs at least
    /// one byte), so corrupt streams fail before allocating.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::BadLength`].
    pub fn length_prefix(&mut self) -> Result<usize, WireError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(WireError::BadLength);
        }
        Ok(n as usize)
    }
}

/// Stable binary encode/decode for one type.
pub trait Wire: Sized {
    /// Appends this value's encoding to `w`.
    fn encode<W: WireSink>(&self, w: &mut W);

    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// A [`WireError`] describing the first malformation found.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value into a fresh byte vector.
pub fn encode_to_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes exactly one value spanning all of `bytes`.
///
/// # Errors
///
/// A [`WireError`]; [`WireError::TrailingBytes`] when input remains
/// after the value.
pub fn decode_from_slice<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = ByteReader::new(bytes);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes);
    }
    Ok(value)
}

// ---- primitives ---------------------------------------------------------

impl Wire for u8 {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u8(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

impl Wire for u32 {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u32(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

// A fingerprint: low word first.
impl Wire for u128 {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u64(*self as u64);
        w.u64((*self >> 64) as u64);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let lo = r.u64()?;
        Ok(u128::from(lo) | u128::from(r.u64()?) << 64)
    }
}

impl Wire for i64 {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u64(*self as u64);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(r.u64()? as i64)
    }
}

impl Wire for f64 {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u64(self.to_bits());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

// `usize` travels as `u64` so 32- and 64-bit builds interoperate.
impl Wire for usize {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u64(*self as u64);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.u64()?).map_err(|_| WireError::BadLength)
    }
}

impl Wire for bool {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u8(u8::from(*self));
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl Wire for String {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u64(self.len() as u64);
        w.bytes(self.as_bytes());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let n = r.length_prefix()?;
        let bytes = r.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u64(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let n = r.length_prefix()?;
        // Reserve no more bytes than the input has left: a hostile
        // prefix can claim one element per remaining byte, and elements
        // are larger in memory than on the wire.
        let room = r.remaining() / std::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity(n.min(room));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode<W: WireSink>(&self, w: &mut W) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u64(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let n = r.length_prefix()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// ---- id newtypes --------------------------------------------------------

macro_rules! wire_id {
    ($($name:ident),*) => {
        $(impl Wire for $name {
            fn encode<W: WireSink>(&self, w: &mut W) {
                w.u32(self.0);
            }
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                Ok($name(r.u32()?))
            }
        })*
    };
}

wire_id!(ProcId, BlockId, VarId, GlobalId);

// ---- fieldless enums ----------------------------------------------------

macro_rules! wire_enum {
    ($name:ident { $($variant:ident = $tag:literal),* $(,)? }) => {
        impl Wire for $name {
            fn encode<W: WireSink>(&self, w: &mut W) {
                w.u8(match self {
                    $($name::$variant => $tag,)*
                });
            }
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                match r.u8()? {
                    $($tag => Ok($name::$variant),)*
                    tag => Err(WireError::BadTag {
                        what: stringify!($name),
                        tag,
                    }),
                }
            }
        }
    };
}

wire_enum!(Base {
    Int = 0,
    Real = 1,
});
wire_enum!(ProcKind {
    Subroutine = 0,
    Function = 1,
    Main = 2,
});
wire_enum!(UnOp {
    Neg = 0,
    Not = 1,
});
wire_enum!(BinOp {
    Add = 0,
    Sub = 1,
    Mul = 2,
    Div = 3,
    Rem = 4,
    Eq = 5,
    Ne = 6,
    Lt = 7,
    Le = 8,
    Gt = 9,
    Ge = 10,
    And = 11,
    Or = 12,
});
wire_enum!(TrapKind {
    ZeroStep = 0,
    Unreachable = 1,
});

// ---- language / IR structs ----------------------------------------------

impl Wire for Shape {
    fn encode<W: WireSink>(&self, w: &mut W) {
        match self {
            Shape::Scalar => w.u8(0),
            Shape::Array(len) => {
                w.u8(1);
                len.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Shape::Scalar),
            1 => Ok(Shape::Array(Option::<u32>::decode(r)?)),
            tag => Err(WireError::BadTag { what: "Shape", tag }),
        }
    }
}

impl Wire for Ty {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.base.encode(w);
        self.shape.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Ty {
            base: Base::decode(r)?,
            shape: Shape::decode(r)?,
        })
    }
}

impl Wire for VarKind {
    fn encode<W: WireSink>(&self, w: &mut W) {
        match self {
            VarKind::Formal(i) => {
                w.u8(0);
                w.u32(*i);
            }
            VarKind::Global(g) => {
                w.u8(1);
                g.encode(w);
            }
            VarKind::Local => w.u8(2),
            VarKind::Temp => w.u8(3),
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(VarKind::Formal(r.u32()?)),
            1 => Ok(VarKind::Global(GlobalId::decode(r)?)),
            2 => Ok(VarKind::Local),
            3 => Ok(VarKind::Temp),
            tag => Err(WireError::BadTag {
                what: "VarKind",
                tag,
            }),
        }
    }
}

impl Wire for VarDecl {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.name.encode(w);
        self.ty.encode(w);
        self.kind.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(VarDecl {
            name: String::decode(r)?,
            ty: Ty::decode(r)?,
            kind: VarKind::decode(r)?,
        })
    }
}

impl Wire for Operand {
    fn encode<W: WireSink>(&self, w: &mut W) {
        match self {
            Operand::Const(c) => {
                w.u8(0);
                c.encode(w);
            }
            Operand::RealConst(c) => {
                w.u8(1);
                c.encode(w);
            }
            Operand::Var(v) => {
                w.u8(2);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Operand::Const(i64::decode(r)?)),
            1 => Ok(Operand::RealConst(f64::decode(r)?)),
            2 => Ok(Operand::Var(VarId::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "Operand",
                tag,
            }),
        }
    }
}

impl Wire for CallArg {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.value.encode(w);
        self.by_ref.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(CallArg {
            value: Operand::decode(r)?,
            by_ref: bool::decode(r)?,
        })
    }
}

impl Wire for Instr {
    fn encode<W: WireSink>(&self, w: &mut W) {
        match self {
            Instr::Copy { dst, src } => {
                w.u8(0);
                dst.encode(w);
                src.encode(w);
            }
            Instr::Unary { dst, op, src } => {
                w.u8(1);
                dst.encode(w);
                op.encode(w);
                src.encode(w);
            }
            Instr::Binary { dst, op, lhs, rhs } => {
                w.u8(2);
                dst.encode(w);
                op.encode(w);
                lhs.encode(w);
                rhs.encode(w);
            }
            Instr::IntToReal { dst, src } => {
                w.u8(3);
                dst.encode(w);
                src.encode(w);
            }
            Instr::Load { dst, arr, index } => {
                w.u8(4);
                dst.encode(w);
                arr.encode(w);
                index.encode(w);
            }
            Instr::Store { arr, index, value } => {
                w.u8(5);
                arr.encode(w);
                index.encode(w);
                value.encode(w);
            }
            Instr::Call { callee, args, dst } => {
                w.u8(6);
                callee.encode(w);
                args.encode(w);
                dst.encode(w);
            }
            Instr::Read { dst } => {
                w.u8(7);
                dst.encode(w);
            }
            Instr::Print { value } => {
                w.u8(8);
                value.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Instr::Copy {
                dst: VarId::decode(r)?,
                src: Operand::decode(r)?,
            },
            1 => Instr::Unary {
                dst: VarId::decode(r)?,
                op: UnOp::decode(r)?,
                src: Operand::decode(r)?,
            },
            2 => Instr::Binary {
                dst: VarId::decode(r)?,
                op: BinOp::decode(r)?,
                lhs: Operand::decode(r)?,
                rhs: Operand::decode(r)?,
            },
            3 => Instr::IntToReal {
                dst: VarId::decode(r)?,
                src: Operand::decode(r)?,
            },
            4 => Instr::Load {
                dst: VarId::decode(r)?,
                arr: VarId::decode(r)?,
                index: Operand::decode(r)?,
            },
            5 => Instr::Store {
                arr: VarId::decode(r)?,
                index: Operand::decode(r)?,
                value: Operand::decode(r)?,
            },
            6 => Instr::Call {
                callee: ProcId::decode(r)?,
                args: Vec::<CallArg>::decode(r)?,
                dst: Option::<VarId>::decode(r)?,
            },
            7 => Instr::Read {
                dst: VarId::decode(r)?,
            },
            8 => Instr::Print {
                value: Operand::decode(r)?,
            },
            tag => return Err(WireError::BadTag { what: "Instr", tag }),
        })
    }
}

impl Wire for Terminator {
    fn encode<W: WireSink>(&self, w: &mut W) {
        match self {
            Terminator::Jump(b) => {
                w.u8(0);
                b.encode(w);
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                w.u8(1);
                cond.encode(w);
                then_bb.encode(w);
                else_bb.encode(w);
            }
            Terminator::Return(v) => {
                w.u8(2);
                v.encode(w);
            }
            Terminator::Trap(k) => {
                w.u8(3);
                k.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Terminator::Jump(BlockId::decode(r)?),
            1 => Terminator::Branch {
                cond: Operand::decode(r)?,
                then_bb: BlockId::decode(r)?,
                else_bb: BlockId::decode(r)?,
            },
            2 => Terminator::Return(Option::<Operand>::decode(r)?),
            3 => Terminator::Trap(TrapKind::decode(r)?),
            tag => {
                return Err(WireError::BadTag {
                    what: "Terminator",
                    tag,
                })
            }
        })
    }
}

impl Wire for Block {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.instrs.encode(w);
        self.term.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Block {
            instrs: Vec::<Instr>::decode(r)?,
            term: Terminator::decode(r)?,
        })
    }
}

impl Wire for Procedure {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.name.encode(w);
        self.kind.encode(w);
        self.vars.encode(w);
        self.num_formals.encode(w);
        self.blocks.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Procedure {
            name: String::decode(r)?,
            kind: ProcKind::decode(r)?,
            vars: Vec::<VarDecl>::decode(r)?,
            num_formals: r.u32()?,
            blocks: Vec::<Block>::decode(r)?,
        })
    }
}

impl Wire for GlobalVar {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.name.encode(w);
        self.ty.encode(w);
        self.init.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(GlobalVar {
            name: String::decode(r)?,
            ty: Ty::decode(r)?,
            init: Option::<i64>::decode(r)?,
        })
    }
}

impl Wire for Program {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.globals.encode(w);
        self.procs.encode(w);
        self.main.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Program {
            globals: Vec::<GlobalVar>::decode(r)?,
            procs: Vec::<Procedure>::decode(r)?,
            main: ProcId::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        let back: T = decode_from_slice(&bytes).expect("roundtrip decodes");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(3.5f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip(String::from("héllo\nworld"));
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Option::<i64>::None);
        roundtrip(Some(42i64));
        roundtrip(BTreeMap::from([(1u32, String::from("a"))]));
        roundtrip((String::from("x"), 7u64));
    }

    #[test]
    fn nan_payload_is_preserved() {
        let bits = 0x7ff8_0000_dead_beefu64;
        let bytes = encode_to_vec(&f64::from_bits(bits));
        let back: f64 = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn program_roundtrips_and_is_stable() {
        let src = "\
global n = 4\n\
proc f(a)\n  x = a * 2\n  print(x + n)\nend\n\
main\n  do i = 1, 3\n    call f(i)\n  end\n  print(1.5)\nend\n";
        let program = crate::compile_to_ir(src).expect("compiles");
        let bytes = encode_to_vec(&program);
        let back: Program = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(back, program);
        // Stability: encoding the same value twice is byte-identical.
        assert_eq!(bytes, encode_to_vec(&back));
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let program = crate::compile_to_ir("main\nprint(1)\nend\n").unwrap();
        let bytes = encode_to_vec(&program);
        for n in 0..bytes.len() {
            let r = decode_from_slice::<Program>(&bytes[..n]);
            assert!(r.is_err(), "prefix of {n} bytes decoded");
        }
    }

    #[test]
    fn bad_tags_and_lengths_are_rejected() {
        assert_eq!(
            decode_from_slice::<bool>(&[9]),
            Err(WireError::BadTag {
                what: "bool",
                tag: 9
            })
        );
        // Length prefix far beyond the input fails before allocating.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            decode_from_slice::<Vec<u64>>(&bytes),
            Err(WireError::BadLength)
        );
        // Trailing garbage after a whole value is detected.
        let mut bytes = encode_to_vec(&7u64);
        bytes.push(0);
        assert_eq!(
            decode_from_slice::<u64>(&bytes),
            Err(WireError::TrailingBytes)
        );
        // Non-UTF-8 string bytes are rejected.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(decode_from_slice::<String>(&bytes), Err(WireError::BadUtf8));
    }

    #[test]
    fn every_instr_variant_roundtrips() {
        let instrs = vec![
            Instr::Copy {
                dst: VarId(0),
                src: Operand::Const(1),
            },
            Instr::Unary {
                dst: VarId(1),
                op: UnOp::Not,
                src: Operand::Var(VarId(0)),
            },
            Instr::Binary {
                dst: VarId(2),
                op: BinOp::Rem,
                lhs: Operand::Const(7),
                rhs: Operand::Var(VarId(1)),
            },
            Instr::IntToReal {
                dst: VarId(3),
                src: Operand::Const(2),
            },
            Instr::Load {
                dst: VarId(4),
                arr: VarId(5),
                index: Operand::Const(1),
            },
            Instr::Store {
                arr: VarId(5),
                index: Operand::Const(2),
                value: Operand::RealConst(0.5),
            },
            Instr::Call {
                callee: ProcId(1),
                args: vec![
                    CallArg::by_ref(VarId(0)),
                    CallArg::by_value(Operand::Const(3)),
                ],
                dst: Some(VarId(6)),
            },
            Instr::Read { dst: VarId(7) },
            Instr::Print {
                value: Operand::Var(VarId(7)),
            },
        ];
        roundtrip(instrs);
        let terms = vec![
            Terminator::Jump(BlockId(1)),
            Terminator::Branch {
                cond: Operand::Var(VarId(0)),
                then_bb: BlockId(1),
                else_bb: BlockId(2),
            },
            Terminator::Return(Some(Operand::Const(0))),
            Terminator::Return(None),
            Terminator::Trap(TrapKind::ZeroStep),
            Terminator::Trap(TrapKind::Unreachable),
        ];
        roundtrip(terms);
    }
}

//! Versioned binary codec for [`EvalRequest`] / [`EvalReport`], and the
//! byte-level toolkit ([`Enc`], [`Dec`], [`CodecError`], the [`Wire`]
//! trait) the explorer's `Snapshot` format is built on too — one reader,
//! one writer, one error, one place that knows each struct's field order.
//!
//! The discipline: a fixed magic + version header (plus, here, a kind byte
//! separating requests from reports), little-endian fixed-width integers,
//! `f64` as IEEE-754 bits, one tag byte per enum/`Option`, and
//! length-prefixed strings and lists. Encoding is a pure
//! function of the value, so `encode → decode → encode` is byte-identical
//! — which is what lets a multi-host driver ship requests over any byte
//! transport, and lets CI pin a report file with `cmp`. Decoding validates
//! everything it reads and returns a [`CodecError`] — never panics — on
//! truncated or corrupt input.
//!
//! Every wire type implements [`Wire`]: `put` writes the value and `get`
//! reads back exactly what `put` wrote. Each layout is written once, as a
//! list both directions are derived from: a struct's
//! [`wire_struct!`](crate::wire_struct) field list in wire order, and an
//! enum's (or an `Option`'s) `wire_enum!` variant list, a tag byte per
//! variant followed by that variant's fields. Only these layouts are
//! written by hand, each for a reason a list cannot express:
//!
//! - the explorer's `DataflowSet` is a bitmask that decoding validates,
//!   and its `DesignPoint` stores `feasible` as a checked byte;
//! - [`EvalRequest`] carries a private layer-key memo that is not on the
//!   wire (its [`as_view`](EvalRequest::as_view) lends the keys), so
//!   decoding builds it through `EvalRequest::new(..).with_*`;
//! - `TechModel`'s `put` writes `tech_fields`, the list the session's
//!   cache-key fingerprints share.

use crate::objective::{BaseObjective, Objective, Objectives};
use crate::session::{CostSummary, EvalReport, EvalRequest, LayerReport, Provenance};
use lego_model::{
    CompressedFormat, DensityModel, HwConfig, LayerSparsity, MacroArea, SparseAccel, SparseHw,
    SpatialMapping, TechModel,
};
use lego_sim::{EnergyBreakdown, LayerPerf, ModelPerf};
use lego_workloads::{Layer, LayerKind, Model, Nonlinear};
use std::fmt;
use std::sync::Arc;

/// File magic: identifies a LEGO evaluation codec payload.
const MAGIC: &[u8; 8] = b"LEGOEVAL";
/// Current codec version. Version 2 added the per-request cache-warmth
/// counters (`cache_hits`/`cache_misses`) to [`Provenance`]; version 3
/// added the session-minted `request_id`.
pub const VERSION: u8 = 3;
/// Kind byte for an encoded [`EvalRequest`].
const KIND_REQUEST: u8 = 1;
/// Kind byte for an encoded [`EvalReport`].
const KIND_REPORT: u8 = 2;

/// Why a payload failed to decode (or to reach disk).
#[derive(Debug)]
pub enum CodecError {
    /// Input ended before the field starting at byte `at` was complete.
    Truncated {
        /// Offset of the incomplete field.
        at: usize,
        /// Bytes the field still needed.
        needed: usize,
    },
    /// The payload does not start with the expected format magic.
    BadMagic,
    /// The codec version byte is not one this build understands.
    UnsupportedVersion(u8),
    /// The kind byte does not match what the caller asked to decode.
    WrongKind {
        /// The kind the decoder expected.
        expected: u8,
        /// The kind byte found in the payload.
        found: u8,
    },
    /// An enum/option tag byte held an undefined value.
    InvalidTag {
        /// Which field was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
    /// Well-formed data followed by garbage.
    TrailingBytes(usize),
    /// A framed payload's checksum did not match its bytes.
    ChecksumMismatch,
    /// A frame header announced a payload larger than the receiver's
    /// configured limit.
    FrameTooLarge {
        /// The announced payload length.
        len: usize,
        /// The receiver's limit.
        max: usize,
    },
    /// Reading or writing the payload file failed.
    Io(std::io::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { at, needed } => {
                write!(
                    f,
                    "payload truncated: needed {needed} more bytes at offset {at}"
                )
            }
            CodecError::BadMagic => write!(f, "not a LEGO payload of this kind (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported codec version {v}")
            }
            CodecError::WrongKind { expected, found } => {
                write!(f, "payload kind {found:#04x}, expected {expected:#04x}")
            }
            CodecError::InvalidTag { what, tag } => write!(f, "invalid {what} tag {tag:#04x}"),
            CodecError::InvalidUtf8 => write!(f, "payload string is not valid UTF-8"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the payload"),
            CodecError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            CodecError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
            CodecError::Io(e) => write!(f, "payload I/O failed: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> CodecError {
        CodecError::Io(e)
    }
}

/// Little-endian byte writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A writer whose buffer already holds room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(n),
        }
    }
    /// Starts a payload: the format's magic followed by its version byte.
    pub fn header(&mut self, magic: &[u8; 8], version: u8) {
        self.bytes(magic);
        self.u8(version);
    }
    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
    /// Raw bytes, no length prefix.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }
    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// A little-endian `i64`.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
    /// An `f64` as its IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// A `u32` byte length, then the UTF-8 bytes.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a byte slice: every method
/// returns [`CodecError::Truncated`] instead of reading past the end.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { buf: bytes, pos: 0 }
    }
    /// Checks what [`Enc::header`] wrote: the magic, then exactly `version`.
    pub fn header(&mut self, magic: &[u8; 8], version: u8) -> Result<(), CodecError> {
        if self.bytes(magic.len())? != magic {
            return Err(CodecError::BadMagic);
        }
        match self.u8()? {
            v if v == version => Ok(()),
            v => Err(CodecError::UnsupportedVersion(v)),
        }
    }
    /// The next `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let at = self.pos;
        let end = at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                self.pos = end;
                Ok(&self.buf[at..end])
            }
            None => Err(CodecError::Truncated {
                at,
                needed: n - (self.buf.len() - at),
            }),
        }
    }
    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }
    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("2 bytes"),
        ))
    }
    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }
    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }
    /// A little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }
    /// An `f64` as its IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A `u32` byte length, then that many UTF-8 bytes.
    #[inline]
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }
    /// Errors with [`CodecError::TrailingBytes`] unless every byte was read.
    pub fn done(&self) -> Result<(), CodecError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

/// A value with one wire layout: [`Wire::put`] writes it and
/// [`Wire::get`] reads back exactly what `put` wrote.
pub trait Wire: Sized {
    /// Appends the value's bytes.
    fn put(&self, e: &mut Enc);
    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or corrupt input.
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError>;
}

/// Derives [`Wire`] for structs from one field list each, in wire order:
/// `put` writes the fields in that order and `get` reads them back in
/// the same order. Every field's type must be [`Wire`], and the list must
/// name every field.
///
/// ```
/// use lego_eval::codec::{Dec, Enc, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: i64,
///     label: String,
/// }
/// lego_eval::wire_struct! { Point { x, label } }
///
/// let p = Point { x: 3, label: "a".into() };
/// let mut e = Enc::default();
/// p.put(&mut e);
/// let bytes = e.into_bytes();
/// assert_eq!(Point::get(&mut Dec::new(&bytes)).unwrap(), p);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),+ $(,)? })+) => {$(
        impl $crate::codec::Wire for $ty {
            #[inline]
            fn put(&self, e: &mut $crate::codec::Enc) {
                $($crate::codec::Wire::put(&self.$field, e);)+
            }
            #[inline]
            fn get(
                d: &mut $crate::codec::Dec<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                ::std::result::Result::Ok($ty {
                    $($field: $crate::codec::Wire::get(d)?,)+
                })
            }
        }
    )+};
}

/// Fixed-width scalars, through the [`Enc`]/[`Dec`] method of the same name.
macro_rules! wire_scalar {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, e: &mut Enc) {
                e.$ty(*self);
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                d.$ty()
            }
        }
    )+};
}

wire_scalar!(u8, u16, u32, u64, i64, f64);

/// Derives [`Wire`] for enums from one variant list each: `tag =>
/// Variant`, with a tuple variant's bindings or a struct variant's fields
/// in wire order. `put` writes the tag byte, then the variant's fields in
/// list order; `get` reads them back in the same order, and any other tag
/// is [`CodecError::InvalidTag`] named by the list's label. `put`'s match
/// is exhaustive, so a variant missing from the list does not compile. The
/// expansion names variants `Self::Variant`, so the type may be any type,
/// `Option<T>` included.
macro_rules! wire_enum {
    ($($ty:ty => $what:literal {
        $($tag:literal => $var:ident $(($($t:ident),+))? $({ $($f:ident),+ })?),+ $(,)?
    })+) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, e: &mut Enc) {
                match self {
                    $(Self::$var $(($($t),+))? $({ $($f),+ })? => {
                        e.u8($tag);
                        $($($t.put(e);)+)?
                        $($($f.put(e);)+)?
                    })+
                }
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                match d.u8()? {
                    $($tag => {
                        $($(let $t = Wire::get(d)?;)+)?
                        $($(let $f = Wire::get(d)?;)+)?
                        Ok(Self::$var $(($($t),+))? $({ $($f),+ })?)
                    })+
                    tag => Err(CodecError::InvalidTag { what: $what, tag }),
                }
            }
        }
    )+};
}

wire_enum! {
    LayerKind => "layer kind" {
        0 => Gemm { m, n, k },
        1 => Conv { n, ic, oc, oh, ow, kh, kw, stride },
        2 => DwConv { n, c, oh, ow, kh, kw, stride },
        3 => Attention { heads, seq_q, seq_kv, dk, dv },
    }
    DensityModel => "density model" {
        0 => Dense,
        1 => Uniform { permille },
        2 => StructuredNM { n, m },
    }
    Objective => "objective" {
        0 => Base(base),
        1 => Penalized { base, area_budget, power_budget, weight },
        2 => Lexicographic,
    }
    SpatialMapping => "spatial mapping" {
        0 => GemmMN, 1 => GemmKN, 2 => ConvIcOc, 3 => ConvOhOw, 4 => ConvKhOh,
    }
    SparseAccel => "sparse feature" { 0 => None, 1 => Gating, 2 => Skipping }
    CompressedFormat => "compressed format" { 0 => Dense, 1 => Bitmask, 2 => Rle, 3 => Csr }
    Nonlinear => "nonlinear kind" { 0 => Activation, 1 => Softmax, 2 => Normalization }
    BaseObjective => "base objective" { 0 => Edp, 1 => Edap, 2 => Latency, 3 => Energy }
    Option<i64> => "i64 option" { 0 => None, 1 => Some(v) }
    Option<f64> => "f64 option" { 0 => None, 1 => Some(v) }
}

impl Wire for String {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.str(self);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.str()
    }
}

impl Wire for Arc<str> {
    #[inline]
    fn put(&self, e: &mut Enc) {
        e.str(self);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(d.str()?.into())
    }
}

/// The shared value's own layout: sharing never shows in the bytes.
impl<T: Wire> Wire for Arc<T> {
    #[inline]
    fn put(&self, e: &mut Enc) {
        (**self).put(e);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        T::get(d).map(Arc::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
        self.1.put(e);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

/// A `u32` count, then each element.
impl<T: Wire> Wire for Vec<T> {
    // Not `#[inline]`: one out-of-line loop per element type, with the
    // element's `put` inlined into it, measured fastest on reports.
    fn put(&self, e: &mut Enc) {
        e.u32(self.len() as u32);
        for v in self {
            v.put(e);
        }
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.u32()?;
        // Never trust a wire length for allocation: corrupt input could
        // name a multi-gigabyte count. Grow as elements actually decode.
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(T::get(d)?);
        }
        Ok(out)
    }
}

wire_struct! {
    Model { name, layers }
    Layer { name, kind, count, nonlinear, sparsity }
    LayerSparsity { weights, inputs, outputs }
    HwConfig { array, clusters, buffer_kb, dram_gbps, num_ppus, dataflows, static_mw, dynamic_mw }
    EnergyBreakdown { mac_pj, sram_pj, dram_pj, noc_pj, static_pj, ppu_pj, sparse_pj }
    LayerPerf {
        cycles, utilization, macs, dram_bytes, l1_accesses, ppu_cycles, noc_cycles, energy,
        mapping,
    }
    ModelPerf { cycles, ops, gops, watts, gops_per_watt, utilization, ppu_fraction, instr_gbps }
    EvalReport { per_layer, model, cost, provenance }
    LayerReport { name, count, perf, weight_format, input_format }
    CostSummary { objectives, area, peak_power_mw, objective, score }
    Objectives { latency_cycles, energy_pj, area_um2 }
    MacroArea { array_um2, sram_um2, noc_um2, ppu_um2 }
    SparseHw { accel }
    Provenance {
        version, codec_version, request_fingerprint, hw_key, cache_hits, cache_misses,
        request_id,
    }
}

/// The authoritative [`TechModel`] field list, in wire order — shared by
/// the codec and the session's cache-key fingerprinting so a future field
/// cannot be serialized but silently missed in cache keys (or vice
/// versa).
pub(crate) fn tech_fields(t: &TechModel) -> [f64; 11] {
    [
        t.ff_area_um2,
        t.lut_area_um2,
        t.mult_area_um2_per_bit2,
        t.mux_area_um2_per_bit,
        t.ff_energy_pj,
        t.add_energy_pj_per_bit,
        t.mult_energy_pj_per_bit2,
        t.static_uw_per_um2,
        t.dram_pj_per_byte,
        t.noc_pj_per_byte_hop,
        t.freq_ghz,
    ]
}

impl Wire for TechModel {
    fn put(&self, e: &mut Enc) {
        for v in tech_fields(self) {
            e.f64(v);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(TechModel {
            ff_area_um2: d.f64()?,
            lut_area_um2: d.f64()?,
            mult_area_um2_per_bit2: d.f64()?,
            mux_area_um2_per_bit: d.f64()?,
            ff_energy_pj: d.f64()?,
            add_energy_pj_per_bit: d.f64()?,
            mult_energy_pj_per_bit2: d.f64()?,
            static_uw_per_um2: d.f64()?,
            dram_pj_per_byte: d.f64()?,
            noc_pj_per_byte_hop: d.f64()?,
            freq_ghz: d.f64()?,
        })
    }
}

impl Wire for EvalRequest {
    fn put(&self, e: &mut Enc) {
        self.workload.put(e);
        self.hw.put(e);
        self.sparse.put(e);
        self.tech.put(e);
        self.objective.put(e);
        self.tile_cap.put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        // Receivers are evaluated before arguments, so this reads the
        // fields in wire order.
        Ok(EvalRequest::new(Model::get(d)?, HwConfig::get(d)?)
            .with_sparse(SparseHw::get(d)?)
            .with_tech(TechModel::get(d)?)
            .with_objective(Objective::get(d)?)
            .with_tile_cap(Option::get(d)?))
    }
}

/// A whole payload: header, kind byte, then `value`.
fn encode_payload<T: Wire>(kind: u8, value: &T) -> Vec<u8> {
    let mut e = Enc::default();
    e.header(MAGIC, VERSION);
    e.u8(kind);
    value.put(&mut e);
    e.into_bytes()
}

/// Reads what [`encode_payload`] wrote, validating magic, version, kind,
/// every enum tag, and that the input ends exactly where the value does.
fn decode_payload<T: Wire>(kind: u8, bytes: &[u8]) -> Result<T, CodecError> {
    let mut d = Dec::new(bytes);
    d.header(MAGIC, VERSION)?;
    let found = d.u8()?;
    if found != kind {
        return Err(CodecError::WrongKind {
            expected: kind,
            found,
        });
    }
    let value = T::get(&mut d)?;
    d.done()?;
    Ok(value)
}

impl EvalRequest {
    /// Encodes the request to its canonical byte representation
    /// (`encode → decode → encode` is byte-identical).
    pub fn encode(&self) -> Vec<u8> {
        encode_payload(KIND_REQUEST, self)
    }

    /// Decodes a request, validating magic, version, kind, every enum tag,
    /// and that the input ends exactly where the data does.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] describing the first problem found;
    /// truncated or corrupt input never panics.
    pub fn decode(bytes: &[u8]) -> Result<EvalRequest, CodecError> {
        decode_payload(KIND_REQUEST, bytes)
    }

    /// Writes the encoded request to a file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    pub fn write_to(&self, path: &std::path::Path) -> Result<(), CodecError> {
        std::fs::write(path, self.encode()).map_err(CodecError::Io)
    }

    /// Reads and decodes a request from a file.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Io`] if the file cannot be read, or the codec
    /// error if its contents are invalid.
    pub fn read_from(path: &std::path::Path) -> Result<EvalRequest, CodecError> {
        EvalRequest::decode(&std::fs::read(path).map_err(CodecError::Io)?)
    }
}

impl EvalReport {
    /// Encodes the report to its canonical byte representation
    /// (`encode → decode → encode` is byte-identical).
    pub fn encode(&self) -> Vec<u8> {
        encode_payload(KIND_REPORT, self)
    }

    /// Decodes a report, validating magic, version, kind, every enum tag,
    /// and that the input ends exactly where the data does.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] describing the first problem found;
    /// truncated or corrupt input never panics.
    pub fn decode(bytes: &[u8]) -> Result<EvalReport, CodecError> {
        decode_payload(KIND_REPORT, bytes)
    }

    /// Writes the encoded report to a file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    pub fn write_to(&self, path: &std::path::Path) -> Result<(), CodecError> {
        std::fs::write(path, self.encode()).map_err(CodecError::Io)
    }

    /// Reads and decodes a report from a file.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Io`] if the file cannot be read, or the codec
    /// error if its contents are invalid.
    pub fn read_from(path: &std::path::Path) -> Result<EvalReport, CodecError> {
        EvalReport::decode(&std::fs::read(path).map_err(CodecError::Io)?)
    }
}

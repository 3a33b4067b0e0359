//! Versioned binary codec for [`EvalRequest`] / [`EvalReport`], and the
//! byte-level toolkit ([`Enc`], [`Dec`], [`CodecError`], the
//! [`LayerPerf`]/[`ModelPerf`] field codecs) the explorer's `Snapshot`
//! format is built on too — one reader, one writer, one error, one place
//! that knows each struct's field order.
//!
//! The discipline: a fixed magic + version header (plus, here, a kind byte
//! separating requests from reports), little-endian fixed-width integers,
//! `f64` as IEEE-754 bits, one tag byte per enum/`Option`, and
//! length-prefixed counts. Encoding is a pure
//! function of the value, so `encode → decode → encode` is byte-identical
//! — which is what lets a multi-host driver ship requests over any byte
//! transport, and lets CI pin a report file with `cmp`. Decoding validates
//! everything it reads and returns a [`CodecError`] — never panics — on
//! truncated or corrupt input.

use crate::objective::{BaseObjective, Objective, Objectives};
use crate::session::{CostSummary, EvalReport, EvalRequest, LayerReport, Provenance};
use lego_model::{CompressedFormat, MacroArea, SparseAccel, SparseHw, SpatialMapping, TechModel};
use lego_sim::{EnergyBreakdown, HwConfig, LayerPerf, ModelPerf};
use lego_workloads::{DensityModel, Layer, LayerKind, LayerSparsity, Model, Nonlinear};
use std::fmt;

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

/// Every spatial dataflow the simulator knows, in canonical wire order.
pub const ALL_MAPPINGS: [SpatialMapping; 5] = [
    SpatialMapping::GemmMN,
    SpatialMapping::GemmKN,
    SpatialMapping::ConvIcOc,
    SpatialMapping::ConvOhOw,
    SpatialMapping::ConvKhOh,
];

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
    /// Tag byte `0` for `None`, `1` + the value for `Some`.
    #[inline]
    pub fn opt_i64(&mut self, v: Option<i64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.i64(x);
            }
        }
    }
    /// Tag byte `0` for `None`, `1` + the value for `Some`.
    #[inline]
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
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
    /// What [`Enc::opt_i64`] wrote.
    #[inline]
    pub fn opt_i64(&mut self) -> Result<Option<i64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.i64()?)),
            tag => Err(CodecError::InvalidTag {
                what: "i64 option",
                tag,
            }),
        }
    }
    /// What [`Enc::opt_f64`] wrote.
    #[inline]
    pub fn opt_f64(&mut self) -> Result<Option<f64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            tag => Err(CodecError::InvalidTag {
                what: "f64 option",
                tag,
            }),
        }
    }
    /// Errors with [`CodecError::TrailingBytes`] unless every byte was read.
    pub fn done(&self) -> Result<(), CodecError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

fn header(e: &mut Enc, kind: u8) {
    e.header(MAGIC, VERSION);
    e.u8(kind);
}

fn check_header(d: &mut Dec<'_>, kind: u8) -> Result<(), CodecError> {
    d.header(MAGIC, VERSION)?;
    let found = d.u8()?;
    if found != kind {
        return Err(CodecError::WrongKind {
            expected: kind,
            found,
        });
    }
    Ok(())
}

/// The wire tag of an enum value: its index in the canonical list `all`.
///
/// # Panics
///
/// If `value` is not in `all` — a variant was added without a wire tag.
pub fn tag_of<T: PartialEq + Copy>(all: &[T], value: T, what: &'static str) -> u8 {
    all.iter()
        .position(|v| *v == value)
        .unwrap_or_else(|| panic!("unknown {what} variant"))
        .try_into()
        .expect("small tag")
}

/// The enum value a wire tag names, or [`CodecError::InvalidTag`].
pub fn from_tag<T: Copy>(all: &[T], tag: u8, what: &'static str) -> Result<T, CodecError> {
    all.get(tag as usize)
        .copied()
        .ok_or(CodecError::InvalidTag { what, tag })
}

fn encode_density(e: &mut Enc, d: DensityModel) {
    match d {
        DensityModel::Dense => e.u8(0),
        DensityModel::Uniform { permille } => {
            e.u8(1);
            e.u16(permille);
        }
        DensityModel::StructuredNM { n, m } => {
            e.u8(2);
            e.u8(n);
            e.u8(m);
        }
    }
}

fn decode_density(d: &mut Dec<'_>) -> Result<DensityModel, CodecError> {
    match d.u8()? {
        0 => Ok(DensityModel::Dense),
        1 => Ok(DensityModel::Uniform { permille: d.u16()? }),
        2 => Ok(DensityModel::StructuredNM {
            n: d.u8()?,
            m: d.u8()?,
        }),
        tag => Err(CodecError::InvalidTag {
            what: "density model",
            tag,
        }),
    }
}

fn encode_layer(e: &mut Enc, l: &Layer) {
    e.str(&l.name);
    match l.kind {
        LayerKind::Gemm { m, n, k } => {
            e.u8(0);
            e.i64(m);
            e.i64(n);
            e.i64(k);
        }
        LayerKind::Conv {
            n,
            ic,
            oc,
            oh,
            ow,
            kh,
            kw,
            stride,
        } => {
            e.u8(1);
            for v in [n, ic, oc, oh, ow, kh, kw, stride] {
                e.i64(v);
            }
        }
        LayerKind::DwConv {
            n,
            c,
            oh,
            ow,
            kh,
            kw,
            stride,
        } => {
            e.u8(2);
            for v in [n, c, oh, ow, kh, kw, stride] {
                e.i64(v);
            }
        }
        LayerKind::Attention {
            heads,
            seq_q,
            seq_kv,
            dk,
            dv,
        } => {
            e.u8(3);
            for v in [heads, seq_q, seq_kv, dk, dv] {
                e.i64(v);
            }
        }
    }
    e.i64(l.count);
    e.u32(l.nonlinear.len() as u32);
    for &(kind, elems) in &l.nonlinear {
        e.u8(match kind {
            Nonlinear::Activation => 0,
            Nonlinear::Softmax => 1,
            Nonlinear::Normalization => 2,
        });
        e.i64(elems);
    }
    encode_density(e, l.sparsity.weights);
    encode_density(e, l.sparsity.inputs);
    encode_density(e, l.sparsity.outputs);
}

fn decode_layer(d: &mut Dec<'_>) -> Result<Layer, CodecError> {
    let name = d.str()?;
    let kind = match d.u8()? {
        0 => LayerKind::Gemm {
            m: d.i64()?,
            n: d.i64()?,
            k: d.i64()?,
        },
        1 => LayerKind::Conv {
            n: d.i64()?,
            ic: d.i64()?,
            oc: d.i64()?,
            oh: d.i64()?,
            ow: d.i64()?,
            kh: d.i64()?,
            kw: d.i64()?,
            stride: d.i64()?,
        },
        2 => LayerKind::DwConv {
            n: d.i64()?,
            c: d.i64()?,
            oh: d.i64()?,
            ow: d.i64()?,
            kh: d.i64()?,
            kw: d.i64()?,
            stride: d.i64()?,
        },
        3 => LayerKind::Attention {
            heads: d.i64()?,
            seq_q: d.i64()?,
            seq_kv: d.i64()?,
            dk: d.i64()?,
            dv: d.i64()?,
        },
        tag => {
            return Err(CodecError::InvalidTag {
                what: "layer kind",
                tag,
            })
        }
    };
    let count = d.i64()?;
    let n_nonlinear = d.u32()?;
    // Never trust a wire length for allocation: corrupt input could
    // name a multi-gigabyte count. Grow as elements actually decode.
    let mut nonlinear = Vec::new();
    for _ in 0..n_nonlinear {
        let kind = match d.u8()? {
            0 => Nonlinear::Activation,
            1 => Nonlinear::Softmax,
            2 => Nonlinear::Normalization,
            tag => {
                return Err(CodecError::InvalidTag {
                    what: "nonlinear kind",
                    tag,
                })
            }
        };
        nonlinear.push((kind, d.i64()?));
    }
    let sparsity = LayerSparsity {
        weights: decode_density(d)?,
        inputs: decode_density(d)?,
        outputs: decode_density(d)?,
    };
    let mut layer = Layer::new(name, kind).repeat(count).with_sparsity(sparsity);
    layer.nonlinear = nonlinear;
    Ok(layer)
}

fn encode_hw(e: &mut Enc, hw: &HwConfig) {
    e.i64(hw.array.0);
    e.i64(hw.array.1);
    e.u32(hw.clusters.0);
    e.u32(hw.clusters.1);
    e.u64(hw.buffer_kb);
    e.f64(hw.dram_gbps);
    e.i64(hw.num_ppus);
    e.u32(hw.dataflows.len() as u32);
    for &m in &hw.dataflows {
        e.u8(tag_of(&ALL_MAPPINGS, m, "spatial mapping"));
    }
    e.f64(hw.static_mw);
    e.f64(hw.dynamic_mw);
}

fn decode_hw(d: &mut Dec<'_>) -> Result<HwConfig, CodecError> {
    let array = (d.i64()?, d.i64()?);
    let clusters = (d.u32()?, d.u32()?);
    let buffer_kb = d.u64()?;
    let dram_gbps = d.f64()?;
    let num_ppus = d.i64()?;
    let n_dataflows = d.u32()?;
    let mut dataflows = Vec::new();
    for _ in 0..n_dataflows {
        let tag = d.u8()?;
        dataflows.push(from_tag(&ALL_MAPPINGS, tag, "spatial mapping")?);
    }
    Ok(HwConfig {
        array,
        clusters,
        buffer_kb,
        dram_gbps,
        num_ppus,
        dataflows,
        static_mw: d.f64()?,
        dynamic_mw: d.f64()?,
    })
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

fn encode_tech(e: &mut Enc, t: &TechModel) {
    for v in tech_fields(t) {
        e.f64(v);
    }
}

fn decode_tech(d: &mut Dec<'_>) -> Result<TechModel, CodecError> {
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

fn encode_objective(e: &mut Enc, o: &Objective) {
    let base_tag = |b: BaseObjective| match b {
        BaseObjective::Edp => 0u8,
        BaseObjective::Edap => 1,
        BaseObjective::Latency => 2,
        BaseObjective::Energy => 3,
    };
    match *o {
        Objective::Base(base) => {
            e.u8(0);
            e.u8(base_tag(base));
        }
        Objective::Penalized {
            base,
            area_budget,
            power_budget,
            weight,
        } => {
            e.u8(1);
            e.u8(base_tag(base));
            e.opt_f64(area_budget);
            e.opt_f64(power_budget);
            e.f64(weight);
        }
        Objective::Lexicographic => e.u8(2),
    }
}

fn decode_base_objective(d: &mut Dec<'_>) -> Result<BaseObjective, CodecError> {
    match d.u8()? {
        0 => Ok(BaseObjective::Edp),
        1 => Ok(BaseObjective::Edap),
        2 => Ok(BaseObjective::Latency),
        3 => Ok(BaseObjective::Energy),
        tag => Err(CodecError::InvalidTag {
            what: "base objective",
            tag,
        }),
    }
}

fn decode_objective(d: &mut Dec<'_>) -> Result<Objective, CodecError> {
    match d.u8()? {
        0 => Ok(Objective::Base(decode_base_objective(d)?)),
        1 => Ok(Objective::Penalized {
            base: decode_base_objective(d)?,
            area_budget: d.opt_f64()?,
            power_budget: d.opt_f64()?,
            weight: d.f64()?,
        }),
        2 => Ok(Objective::Lexicographic),
        tag => Err(CodecError::InvalidTag {
            what: "objective",
            tag,
        }),
    }
}

/// Writes every [`LayerPerf`] field in wire order.
pub fn encode_layer_perf(e: &mut Enc, p: &LayerPerf) {
    e.i64(p.cycles);
    e.f64(p.utilization);
    e.i64(p.macs);
    e.i64(p.dram_bytes);
    e.i64(p.l1_accesses);
    e.i64(p.ppu_cycles);
    e.i64(p.noc_cycles);
    e.f64(p.energy.mac_pj);
    e.f64(p.energy.sram_pj);
    e.f64(p.energy.dram_pj);
    e.f64(p.energy.noc_pj);
    e.f64(p.energy.static_pj);
    e.f64(p.energy.ppu_pj);
    e.f64(p.energy.sparse_pj);
    e.u8(tag_of(&ALL_MAPPINGS, p.mapping, "spatial mapping"));
}

/// Reads what [`encode_layer_perf`] wrote.
pub fn decode_layer_perf(d: &mut Dec<'_>) -> Result<LayerPerf, CodecError> {
    let cycles = d.i64()?;
    let utilization = d.f64()?;
    let macs = d.i64()?;
    let dram_bytes = d.i64()?;
    let l1_accesses = d.i64()?;
    let ppu_cycles = d.i64()?;
    let noc_cycles = d.i64()?;
    let energy = EnergyBreakdown {
        mac_pj: d.f64()?,
        sram_pj: d.f64()?,
        dram_pj: d.f64()?,
        noc_pj: d.f64()?,
        static_pj: d.f64()?,
        ppu_pj: d.f64()?,
        sparse_pj: d.f64()?,
    };
    let tag = d.u8()?;
    let mapping = from_tag(&ALL_MAPPINGS, tag, "spatial mapping")?;
    Ok(LayerPerf {
        cycles,
        utilization,
        macs,
        dram_bytes,
        l1_accesses,
        ppu_cycles,
        noc_cycles,
        energy,
        mapping,
    })
}

/// Writes every [`ModelPerf`] field in wire order.
pub fn encode_model_perf(e: &mut Enc, p: &ModelPerf) {
    e.i64(p.cycles);
    e.i64(p.ops);
    e.f64(p.gops);
    e.f64(p.watts);
    e.f64(p.gops_per_watt);
    e.f64(p.utilization);
    e.f64(p.ppu_fraction);
    e.f64(p.instr_gbps);
}

/// Reads what [`encode_model_perf`] wrote.
pub fn decode_model_perf(d: &mut Dec<'_>) -> Result<ModelPerf, CodecError> {
    Ok(ModelPerf {
        cycles: d.i64()?,
        ops: d.i64()?,
        gops: d.f64()?,
        watts: d.f64()?,
        gops_per_watt: d.f64()?,
        utilization: d.f64()?,
        ppu_fraction: d.f64()?,
        instr_gbps: d.f64()?,
    })
}

impl EvalRequest {
    /// Encodes the request to its canonical byte representation
    /// (`encode → decode → encode` is byte-identical).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        header(&mut e, KIND_REQUEST);
        e.str(&self.workload.name);
        e.u32(self.workload.layers.len() as u32);
        for layer in &self.workload.layers {
            encode_layer(&mut e, layer);
        }
        encode_hw(&mut e, &self.hw);
        e.u8(tag_of(
            &SparseAccel::ALL,
            self.sparse.accel,
            "sparse feature",
        ));
        encode_tech(&mut e, &self.tech);
        encode_objective(&mut e, &self.objective);
        e.opt_i64(self.tile_cap);
        e.into_bytes()
    }

    /// Decodes a request, validating magic, version, kind, every enum tag,
    /// and that the input ends exactly where the data does.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] describing the first problem found;
    /// truncated or corrupt input never panics.
    pub fn decode(bytes: &[u8]) -> Result<EvalRequest, CodecError> {
        let mut d = Dec::new(bytes);
        check_header(&mut d, KIND_REQUEST)?;
        let name = d.str()?;
        let n_layers = d.u32()?;
        let mut layers = Vec::new();
        for _ in 0..n_layers {
            layers.push(decode_layer(&mut d)?);
        }
        let workload = Model { name, layers };
        let hw = decode_hw(&mut d)?;
        let accel_tag = d.u8()?;
        let sparse =
            SparseHw::with_accel(from_tag(&SparseAccel::ALL, accel_tag, "sparse feature")?);
        let tech = decode_tech(&mut d)?;
        let objective = decode_objective(&mut d)?;
        let tile_cap = d.opt_i64()?;
        d.done()?;
        let request = EvalRequest::new(workload, hw)
            .with_sparse(sparse)
            .with_tech(tech)
            .with_objective(objective)
            .with_tile_cap(tile_cap);
        Ok(request)
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
        let mut e = Enc::default();
        header(&mut e, KIND_REPORT);
        e.u32(self.per_layer.len() as u32);
        for l in &self.per_layer {
            e.str(&l.name);
            e.i64(l.count);
            encode_layer_perf(&mut e, &l.perf);
            e.u8(tag_of(
                &CompressedFormat::ALL,
                l.weight_format,
                "compressed format",
            ));
            e.u8(tag_of(
                &CompressedFormat::ALL,
                l.input_format,
                "compressed format",
            ));
        }
        encode_model_perf(&mut e, &self.model);
        e.f64(self.cost.objectives.latency_cycles);
        e.f64(self.cost.objectives.energy_pj);
        e.f64(self.cost.objectives.area_um2);
        e.f64(self.cost.area.array_um2);
        e.f64(self.cost.area.sram_um2);
        e.f64(self.cost.area.noc_um2);
        e.f64(self.cost.area.ppu_um2);
        e.f64(self.cost.peak_power_mw);
        encode_objective(&mut e, &self.cost.objective);
        e.f64(self.cost.score);
        e.str(&self.provenance.version);
        e.u8(self.provenance.codec_version);
        e.u64(self.provenance.request_fingerprint);
        e.u64(self.provenance.hw_key);
        e.u64(self.provenance.cache_hits);
        e.u64(self.provenance.cache_misses);
        e.u64(self.provenance.request_id);
        e.into_bytes()
    }

    /// Decodes a report, validating magic, version, kind, every enum tag,
    /// and that the input ends exactly where the data does.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] describing the first problem found;
    /// truncated or corrupt input never panics.
    pub fn decode(bytes: &[u8]) -> Result<EvalReport, CodecError> {
        let mut d = Dec::new(bytes);
        check_header(&mut d, KIND_REPORT)?;
        let n_layers = d.u32()?;
        let mut per_layer = Vec::new();
        for _ in 0..n_layers {
            let name = d.str()?;
            let count = d.i64()?;
            let perf = decode_layer_perf(&mut d)?;
            let w_tag = d.u8()?;
            let weight_format = from_tag(&CompressedFormat::ALL, w_tag, "compressed format")?;
            let i_tag = d.u8()?;
            let input_format = from_tag(&CompressedFormat::ALL, i_tag, "compressed format")?;
            per_layer.push(LayerReport {
                name: name.into(),
                count,
                perf,
                weight_format,
                input_format,
            });
        }
        let model = decode_model_perf(&mut d)?;
        let objectives = Objectives {
            latency_cycles: d.f64()?,
            energy_pj: d.f64()?,
            area_um2: d.f64()?,
        };
        let area = MacroArea {
            array_um2: d.f64()?,
            sram_um2: d.f64()?,
            noc_um2: d.f64()?,
            ppu_um2: d.f64()?,
        };
        let peak_power_mw = d.f64()?;
        let objective = decode_objective(&mut d)?;
        let score = d.f64()?;
        let (version, codec_version) = (d.str()?, d.u8()?);
        let provenance = Provenance {
            version,
            codec_version,
            request_fingerprint: d.u64()?,
            hw_key: d.u64()?,
            cache_hits: d.u64()?,
            cache_misses: d.u64()?,
            request_id: d.u64()?,
        };
        d.done()?;
        Ok(EvalReport {
            per_layer,
            model,
            cost: CostSummary {
                objectives,
                area,
                peak_power_mw,
                objective,
                score,
            },
            provenance,
        })
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

//! Durable warm state: a versioned, std-only binary snapshot of the
//! [`EngineCache`]'s four persisted maps (every map but the reports,
//! whose per-layer rows are rebuilt from the cycle map on demand).
//!
//! A long-running `repro serve` process (or a `repro dse` sweep) pays the
//! cold synthesis/sampling cost exactly once — and then loses it with the
//! process. Snapshots make that warm state survive restarts and seed
//! fresh replicas: [`save`] writes every memoized entry to disk
//! atomically (temp + rename), [`load`] imports it back, and a replayed
//! workload reads ≈100% hit rate from the first query.
//!
//! ## Format
//!
//! ```text
//! magic   "TPECACHE"                      8 bytes
//! version u32 LE                          strict-rejected on mismatch
//! layout  u64 LE fnv1a(LAYOUT_DESCRIPTOR) strict-rejected on mismatch
//! counts  4 × u64 LE                      records / prices / cycles / models
//! entries fixed-layout, sorted            see below
//! check   u64 LE fnv1a(payload)           over version..entries
//! ```
//!
//! Entries are fixed-layout little-endian: enums as one-byte codes from
//! the explicit tables below (exhaustive matches, so adding a variant
//! fails to compile until the codec — and `LAYOUT_DESCRIPTOR` — is
//! updated), `Option` as a presence byte, `f64` via `to_bits`, `usize`
//! widened to `u64`. Model entries carry variable-length strings (a `u64`
//! byte length + UTF-8 bytes), still strictly length-checked against the
//! payload; they hold a model's aggregates only, never its per-layer rows
//! (the cache's reports map, which keeps rows, is not persisted).
//! Each map's layout is one `EntryCodec` implementation on its key type;
//! one generic section writer and reader serve all four maps. Within
//! each map the encoded entries are sorted by their byte representation:
//! shard hashing ([`std::hash::DefaultHasher`]) is not stable across
//! processes, so canonical ordering is what makes a snapshot of the same
//! cache contents **byte-identical** wherever it is written. [`decode`]
//! stages every section before [`load`] imports anything, so a rejected
//! file leaves the cache untouched.
//!
//! ## Versioning policy
//!
//! Any change to an entry layout, an enum table, or the header bumps
//! [`SNAPSHOT_VERSION`] (and the descriptor hash catches what a forgotten
//! bump would miss). There is no migration path by design: a snapshot is
//! a cache, not a database — a rejected file costs one cold sweep, while
//! a misdecoded file would silently poison every result derived from it.
//! Rejections are counted on `ctr_snapshot_rejected` and surface as
//! empty-with-warning at every call site, never as a panic.

use std::path::Path;
use std::sync::{Arc, OnceLock};

use tpe_arith::encode::EncodingKind;
use tpe_arith::Precision;
use tpe_core::arch::PeStyle;
use tpe_sim::array::ClassicArch;

use crate::cache::{
    CacheContents, CycleKey, EngineCache, ModelKey, PeKey, PeRecord, PriceKey, SerialLayerRecord,
};
use crate::caps::CycleModel;
use crate::report::ModelRecord;
use crate::spec::{Bound, EnginePrice};
use crate::Fnv1a;

/// Format version; bumped on any layout change (see the module docs for
/// the no-migration policy). v2 added the whole-model report map (a
/// fourth count + entry section); v3 added the memory corner to the
/// price/model keys and the roofline fields (bytes, intensity, bound) to
/// layer rows and model aggregates; v4 dropped the per-layer rows from
/// model entries. v1–v3 snapshots are strict-rejected.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Leading magic bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"TPECACHE";

/// Human-readable spelling of the entire entry layout *and* the enum
/// code tables; its fnv1a hash rides in the header so a snapshot written
/// under any other layout is rejected even if the version was not bumped.
const LAYOUT_DESCRIPTOR: &str = "v4;\
     pe=style:u8,dense:opt(u8),in_pe_enc:opt(u8),prec:u32x3,freq_mhz:u32,node_dnm:u32;\
     pe_rec=opt(area:f64,active_uw:f64,idle_uw:f64,lanes:u32);\
     price=style:u8,dense:opt(u8),enc:u8,prec:u32x3,freq_mhz:u32,node_dnm:u32,\
     sram_kib:u32,sram_bw:u32,dram_bw:u32;\
     price_rec=opt(area:f64,e_active:f64,e_idle:f64,instances:f64,lanes_total:f64,peak_tops:f64);\
     cycle=style:u8,enc:u8,a_bits:u32,m:u64,n:u64,k:u64,repeats:u64,seed:u64,\
     max_rounds:u64,max_operands:u64,model:u8;\
     cycle_rec=cycles:f64,busy_sum:f64,busy_min:f64,busy_max:f64,rounds:f64,columns:u32;\
     model_key=style:u8,dense:opt(u8),enc:u8,prec:u32x3,freq_mhz:u32,node_dnm:u32,\
     model:str,layers_hash:u64,seed:u64,max_rounds:u64,max_operands:u64,cycle_model:u8,\
     sram_kib:u32,sram_bw:u32,dram_bw:u32;\
     model_rec=model:str,total_macs:u64,cycles:f64,delay_us:f64,energy_uj:f64,util:f64,\
     area:f64,peak_tops:f64,bytes:f64,intensity:f64,bound:u8,busy_sum:f64;\
     str=len:u64,utf8;\
     styles=mac,opt1,opt2,opt3,opt4c,opt4e;archs=tpu,ascend,trapezoid,flexflow;\
     encs=mbe,ent,csd,bsc,bsm;models=sampled,analytic;bounds=compute,sram,dram";

/// What a completed save/load reports (the `snapshot` serve op and the
/// CLI echo these; `BENCH_snapshot.json` archives them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Entries across the four maps.
    pub entries: usize,
    /// Encoded size in bytes.
    pub bytes: usize,
}

// ---------------------------------------------------------------------
// Enum code tables. The `*_code` matches are exhaustive: a new variant
// fails to compile here, forcing a deliberate LAYOUT_DESCRIPTOR + version
// decision instead of a silent wire change. Decoding searches the type's
// full variant list for the one with the code, so each table is written
// once.

fn style_code(s: PeStyle) -> u8 {
    match s {
        PeStyle::TraditionalMac => 0,
        PeStyle::Opt1 => 1,
        PeStyle::Opt2 => 2,
        PeStyle::Opt3 => 3,
        PeStyle::Opt4C => 4,
        PeStyle::Opt4E => 5,
    }
}

fn arch_code(a: ClassicArch) -> u8 {
    match a {
        ClassicArch::Tpu => 0,
        ClassicArch::Ascend => 1,
        ClassicArch::Trapezoid => 2,
        ClassicArch::FlexFlow => 3,
    }
}

fn encoding_code(e: EncodingKind) -> u8 {
    match e {
        EncodingKind::Mbe => 0,
        EncodingKind::EnT => 1,
        EncodingKind::Csd => 2,
        EncodingKind::BitSerialComplement => 3,
        EncodingKind::BitSerialSignMagnitude => 4,
    }
}

fn model_code(m: CycleModel) -> u8 {
    match m {
        CycleModel::Sampled => 0,
        CycleModel::Analytic => 1,
    }
}

fn bound_code(b: Bound) -> u8 {
    match b {
        Bound::Compute => 0,
        Bound::Sram => 1,
        Bound::Dram => 2,
    }
}

const BOUNDS: [Bound; 3] = [Bound::Compute, Bound::Sram, Bound::Dram];

// ---------------------------------------------------------------------
// Little-endian writer/reader over flat byte buffers.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    for v in vs {
        put_u64(out, v.to_bits());
    }
}

/// An `Option` as a presence byte, then the value if present.
fn put_opt<T>(out: &mut Vec<u8>, value: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    out.push(u8::from(value.is_some()));
    if let Some(v) = value {
        put(out, v);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Sequential reader with truncation-safe takes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated snapshot (wanted {n} bytes at {})", self.pos))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "usize overflow in snapshot".to_string())
    }

    /// Reads [`put_opt`]'s presence byte, then the value if present.
    fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            other => Err(format!("bad presence byte {other}")),
        }
    }

    /// A one-byte enum code: the variant of `all` that `code_of` maps
    /// to it.
    fn code<T: Copy>(&mut self, all: &[T], code_of: fn(T) -> u8) -> Result<T, String> {
        let code = self.u8()?;
        all.iter()
            .copied()
            .find(|&v| code_of(v) == code)
            .ok_or_else(|| format!("bad {} code {code}", std::any::type_name::<T>()))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| "invalid UTF-8 in snapshot string".to_string())
    }
}

// ---------------------------------------------------------------------
// Per-entry codecs.

/// How one map's `(key, value)` entries are laid out (the
/// `LAYOUT_DESCRIPTOR` spells each one), implemented once per map's key
/// type.
trait EntryCodec: Sized {
    /// The memoized value type of the key's map.
    type Value;
    /// Appends the entry's encoding to `out`.
    fn encode(&self, value: &Self::Value, out: &mut Vec<u8>);
    /// Reads one entry back.
    fn decode(r: &mut Reader) -> Result<(Self, Self::Value), String>;
}

/// One map's section: its entries encoded and sorted by their bytes (see
/// the module docs).
fn write_section<K: EntryCodec>(entries: &[(K, K::Value)]) -> Vec<u8> {
    let mut encoded: Vec<Vec<u8>> = entries
        .iter()
        .map(|(key, value)| {
            let mut e = Vec::new();
            key.encode(value, &mut e);
            e
        })
        .collect();
    encoded.sort_unstable();
    encoded.concat()
}

/// Reads one map's section of `count` entries. The vector grows with the
/// entries actually read, so a corrupt but checksum-colliding count
/// cannot balloon allocation.
fn read_section<K: EntryCodec>(r: &mut Reader, count: usize) -> Result<Vec<(K, K::Value)>, String> {
    (0..count).map(|_| K::decode(r)).collect()
}

fn put_precision(out: &mut Vec<u8>, p: Precision) {
    put_u32(out, p.a_bits);
    put_u32(out, p.b_bits);
    put_u32(out, p.acc_bits);
}

fn read_precision(r: &mut Reader) -> Result<Precision, String> {
    Ok(Precision {
        a_bits: r.u32()?,
        b_bits: r.u32()?,
        acc_bits: r.u32()?,
    })
}

/// The compute half of an engine key (price and model keys lead with it;
/// the memory corner follows at the end of each).
fn put_engine(out: &mut Vec<u8>, key: &PriceKey) {
    out.push(style_code(key.style));
    put_opt(out, key.dense, |out, a| out.push(arch_code(a)));
    out.push(encoding_code(key.encoding));
    put_precision(out, key.precision);
    put_u32(out, key.freq_mhz);
    put_u32(out, key.node_dnm);
}

fn put_memory(out: &mut Vec<u8>, key: &PriceKey) {
    put_u32(out, key.sram_kib);
    put_u32(out, key.sram_bw);
    put_u32(out, key.dram_bw);
}

/// Reads [`put_engine`]'s fields; the memory corner stays unbounded until
/// [`read_memory`] fills it in.
fn read_engine(r: &mut Reader) -> Result<PriceKey, String> {
    Ok(PriceKey {
        style: r.code(&PeStyle::ALL, style_code)?,
        dense: r.opt(|r| r.code(&ClassicArch::ALL, arch_code))?,
        encoding: r.code(&EncodingKind::ALL, encoding_code)?,
        precision: read_precision(r)?,
        freq_mhz: r.u32()?,
        node_dnm: r.u32()?,
        sram_kib: 0,
        sram_bw: 0,
        dram_bw: 0,
    })
}

fn read_memory(r: &mut Reader, key: &mut PriceKey) -> Result<(), String> {
    key.sram_kib = r.u32()?;
    key.sram_bw = r.u32()?;
    key.dram_bw = r.u32()?;
    Ok(())
}

impl EntryCodec for PeKey {
    type Value = Option<PeRecord>;
    fn encode(&self, rec: &Option<PeRecord>, out: &mut Vec<u8>) {
        out.push(style_code(self.style));
        put_opt(out, self.dense, |out, a| out.push(arch_code(a)));
        put_opt(out, self.in_pe_encoding, |out, e| {
            out.push(encoding_code(e))
        });
        put_precision(out, self.precision);
        put_u32(out, self.freq_mhz);
        put_u32(out, self.node_dnm);
        put_opt(out, rec.as_ref(), |out, rec| {
            put_f64s(out, &[rec.area_um2, rec.active_power_uw, rec.idle_power_uw]);
            put_u32(out, rec.lanes);
        });
    }

    fn decode(r: &mut Reader) -> Result<(Self, Option<PeRecord>), String> {
        let key = PeKey {
            style: r.code(&PeStyle::ALL, style_code)?,
            dense: r.opt(|r| r.code(&ClassicArch::ALL, arch_code))?,
            in_pe_encoding: r.opt(|r| r.code(&EncodingKind::ALL, encoding_code))?,
            precision: read_precision(r)?,
            freq_mhz: r.u32()?,
            node_dnm: r.u32()?,
        };
        let rec = r.opt(|r| {
            Ok(PeRecord {
                area_um2: r.f64()?,
                active_power_uw: r.f64()?,
                idle_power_uw: r.f64()?,
                lanes: r.u32()?,
            })
        })?;
        Ok((key, rec))
    }
}

impl EntryCodec for PriceKey {
    type Value = Option<EnginePrice>;
    fn encode(&self, price: &Option<EnginePrice>, out: &mut Vec<u8>) {
        put_engine(out, self);
        put_memory(out, self);
        put_opt(out, price.as_ref(), |out, p| {
            put_f64s(out, &[p.area_um2, p.e_active_fj, p.e_idle_fj]);
            put_f64s(out, &[p.instances, p.lanes_total, p.peak_tops]);
        });
    }

    fn decode(r: &mut Reader) -> Result<(Self, Option<EnginePrice>), String> {
        let mut key = read_engine(r)?;
        read_memory(r, &mut key)?;
        let price = r.opt(|r| {
            Ok(EnginePrice {
                area_um2: r.f64()?,
                e_active_fj: r.f64()?,
                e_idle_fj: r.f64()?,
                instances: r.f64()?,
                lanes_total: r.f64()?,
                peak_tops: r.f64()?,
            })
        })?;
        Ok((key, price))
    }
}

impl EntryCodec for CycleKey {
    type Value = SerialLayerRecord;
    fn encode(&self, rec: &SerialLayerRecord, out: &mut Vec<u8>) {
        out.push(style_code(self.style));
        out.push(encoding_code(self.encoding));
        put_u32(out, self.a_bits);
        put_u64(out, self.m as u64);
        put_u64(out, self.n as u64);
        put_u64(out, self.k as u64);
        put_u64(out, self.repeats as u64);
        put_u64(out, self.seed);
        put_u64(out, self.max_rounds as u64);
        put_u64(out, self.max_operands as u64);
        out.push(model_code(self.model));
        put_f64s(out, &[rec.cycles, rec.busy_sum, rec.busy_min]);
        put_f64s(out, &[rec.busy_max, rec.rounds]);
        put_u32(out, rec.columns);
    }

    fn decode(r: &mut Reader) -> Result<(Self, SerialLayerRecord), String> {
        let key = CycleKey {
            style: r.code(&PeStyle::ALL, style_code)?,
            encoding: r.code(&EncodingKind::ALL, encoding_code)?,
            a_bits: r.u32()?,
            m: r.usize()?,
            n: r.usize()?,
            k: r.usize()?,
            repeats: r.usize()?,
            seed: r.u64()?,
            max_rounds: r.usize()?,
            max_operands: r.usize()?,
            model: r.code(&CycleModel::ALL, model_code)?,
        };
        let rec = SerialLayerRecord {
            cycles: r.f64()?,
            busy_sum: r.f64()?,
            busy_min: r.f64()?,
            busy_max: r.f64()?,
            rounds: r.f64()?,
            columns: r.u32()?,
        };
        Ok((key, rec))
    }
}

impl EntryCodec for ModelKey {
    type Value = ModelRecord;
    fn encode(&self, rec: &ModelRecord, out: &mut Vec<u8>) {
        put_engine(out, &self.engine);
        put_str(out, &self.model);
        put_u64(out, self.layers_hash);
        put_u64(out, self.seed);
        put_u64(out, self.max_rounds as u64);
        put_u64(out, self.max_operands as u64);
        out.push(model_code(self.cycle_model));
        put_memory(out, &self.engine);
        put_str(out, &rec.model);
        put_u64(out, rec.total_macs);
        put_f64s(out, &[rec.cycles, rec.delay_us, rec.energy_uj]);
        put_f64s(out, &[rec.utilization, rec.area_um2, rec.peak_tops]);
        put_f64s(out, &[rec.bytes_moved, rec.intensity_ops_per_byte]);
        out.push(bound_code(rec.bound));
        put_f64s(out, &[rec.busy_sum]);
    }

    fn decode(r: &mut Reader) -> Result<(Self, ModelRecord), String> {
        let mut key = ModelKey {
            engine: read_engine(r)?,
            model: r.str()?,
            layers_hash: r.u64()?,
            seed: r.u64()?,
            max_rounds: r.usize()?,
            max_operands: r.usize()?,
            cycle_model: r.code(&CycleModel::ALL, model_code)?,
        };
        read_memory(r, &mut key.engine)?;
        let rec = ModelRecord {
            model: r.str()?.into(),
            total_macs: r.u64()?,
            cycles: r.f64()?,
            delay_us: r.f64()?,
            energy_uj: r.f64()?,
            utilization: r.f64()?,
            area_um2: r.f64()?,
            peak_tops: r.f64()?,
            bytes_moved: r.f64()?,
            intensity_ops_per_byte: r.f64()?,
            bound: r.code(&BOUNDS, bound_code)?,
            busy_sum: r.f64()?,
        };
        Ok((key, rec))
    }
}

/// Encodes exported cache contents into the versioned snapshot format,
/// one section per map, its entries sorted by their encoded bytes.
pub fn encode(contents: &CacheContents) -> Vec<u8> {
    let sections = [
        (contents.records.len(), write_section(&contents.records)),
        (contents.prices.len(), write_section(&contents.prices)),
        (contents.cycles.len(), write_section(&contents.cycles)),
        (contents.models.len(), write_section(&contents.models)),
    ];
    let body: usize = sections.iter().map(|(_, bytes)| bytes.len()).sum();
    let mut out = Vec::with_capacity(56 + body + 8);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u64(&mut out, Fnv1a::hash(LAYOUT_DESCRIPTOR.as_bytes()));
    for (count, _) in &sections {
        put_u64(&mut out, *count as u64);
    }
    for (_, bytes) in &sections {
        out.extend_from_slice(bytes);
    }
    let checksum = Fnv1a::hash(&out[SNAPSHOT_MAGIC.len()..]);
    put_u64(&mut out, checksum);
    out
}

/// Decodes a snapshot, strict-rejecting anything that is not byte-exact:
/// wrong magic, version or layout hash, bad checksum, truncation, unknown
/// enum codes, or trailing garbage. Every section is staged into the
/// returned [`CacheContents`] before anything is imported, so a rejected
/// snapshot costs a cold sweep; a tolerated one could poison every
/// derived result.
pub fn decode(bytes: &[u8]) -> Result<CacheContents, String> {
    let mut r = Reader::new(bytes);
    if r.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
        return Err("not a TPECACHE snapshot (bad magic)".to_string());
    }
    if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
        return Err("truncated snapshot (no checksum)".to_string());
    }
    let payload_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[payload_end..].try_into().unwrap());
    let actual = Fnv1a::hash(&bytes[SNAPSHOT_MAGIC.len()..payload_end]);
    if stored != actual {
        return Err(format!(
            "snapshot checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        ));
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot version {version} != supported {SNAPSHOT_VERSION} (no migration: \
             re-warm and re-save)"
        ));
    }
    let layout = r.u64()?;
    let expected = Fnv1a::hash(LAYOUT_DESCRIPTOR.as_bytes());
    if layout != expected {
        return Err(format!(
            "snapshot layout hash {layout:#018x} != expected {expected:#018x} \
             (written by an incompatible build)"
        ));
    }
    let [n_records, n_prices, n_cycles, n_models] =
        [r.usize()?, r.usize()?, r.usize()?, r.usize()?];
    let contents = CacheContents {
        records: read_section(&mut r, n_records)?,
        prices: read_section(&mut r, n_prices)?,
        cycles: read_section(&mut r, n_cycles)?,
        models: read_section(&mut r, n_models)?,
    };
    if r.pos != payload_end {
        return Err(format!(
            "snapshot has {} trailing bytes after the last entry",
            payload_end - r.pos
        ));
    }
    Ok(contents)
}

/// Persistence metrics, registered once on the global registry: save and
/// load wall-clock spans, the entry count of the last snapshot touched
/// (`gauge_snapshot_entries` in the metrics op), and strict-reject count
/// (`ctr_snapshot_rejected`).
struct SnapObs {
    save_ns: Arc<tpe_obs::Histogram>,
    load_ns: Arc<tpe_obs::Histogram>,
    entries: Arc<tpe_obs::Gauge>,
    rejected: Arc<tpe_obs::Counter>,
}

fn snap_obs() -> &'static SnapObs {
    static OBS: OnceLock<SnapObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = tpe_obs::Registry::global();
        SnapObs {
            save_ns: reg.histogram("snapshot_save_ns"),
            load_ns: reg.histogram("snapshot_load_ns"),
            entries: reg.gauge("snapshot_entries"),
            rejected: reg.counter("snapshot_rejected"),
        }
    })
}

/// Exports `cache` and writes the snapshot to `path` atomically: the
/// bytes land in `<path>.tmp` first and are renamed into place, so a
/// concurrent reader (or a crash mid-write) sees either the old complete
/// snapshot or the new one, never a torn file.
pub fn save(cache: &EngineCache, path: &Path) -> Result<SnapshotInfo, String> {
    let obs = snap_obs();
    let _span = obs.save_ns.span();
    let contents = cache.export();
    let entries = contents.len();
    let bytes = encode(&contents);
    let tmp = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    };
    std::fs::write(&tmp, &bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("rename {} -> {}: {e}", tmp.display(), path.display())
    })?;
    obs.entries.set(entries as i64);
    Ok(SnapshotInfo {
        entries,
        bytes: bytes.len(),
    })
}

/// Loads a snapshot from `path` into `cache` (first insert wins; see
/// [`EngineCache::import`]). A missing file is `Ok(None)` — a fresh
/// fleet member, not an error. Any other failure (unreadable, corrupt,
/// truncated, wrong version/layout) is a strict reject: counted on
/// `ctr_snapshot_rejected` and returned as `Err` so callers warn and
/// continue cold — results are never poisoned, and nothing panics.
pub fn load(cache: &EngineCache, path: &Path) -> Result<Option<SnapshotInfo>, String> {
    let obs = snap_obs();
    let _span = obs.load_ns.span();
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            obs.rejected.inc();
            return Err(format!("read {}: {e}", path.display()));
        }
    };
    let contents = decode(&bytes).map_err(|e| {
        obs.rejected.inc();
        format!("{}: {e}", path.display())
    })?;
    let info = SnapshotInfo {
        entries: contents.len(),
        bytes: bytes.len(),
    };
    obs.entries.set(info.entries as i64);
    cache.import(contents);
    Ok(Some(info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caps::SampleProfile;
    use crate::eval::Evaluator;
    use crate::spec::EngineSpec;
    use crate::workload::SweepWorkload;
    use tpe_workloads::{models, LayerShape};

    /// Warm a cache through the real evaluator: feasible + infeasible
    /// prices, sampled serial-cycle records, and a whole-model record.
    fn warmed() -> EngineCache {
        let cache = EngineCache::new();
        let layer = SweepWorkload::Layer(LayerShape::new("snap", 32, 64, 128, 1));
        for spec in [
            EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0),
            EngineSpec::serial(PeStyle::Opt3, EncodingKind::Csd, 1.5),
            EngineSpec::dense(PeStyle::Opt1, ClassicArch::Tpu, 1.5),
            EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 2.0), // walls
        ] {
            let _ = Evaluator::new(&cache).metrics(&spec, &layer, 7);
        }
        let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0);
        Evaluator::new(&cache)
            .model_report(&spec, &models::resnet18(), 7)
            .expect("feasible");
        assert!(!cache.is_empty());
        assert!(cache.models_len() > 0);
        cache
    }

    fn sorted_contents(cache: &EngineCache) -> Vec<u8> {
        encode(&cache.export())
    }

    /// The v4 bytes are pinned: a fixed cache warmed through the
    /// evaluator — all four maps, a cached infeasibility, a finite memory
    /// corner, analytic records and a layer precision override — encodes
    /// to one recorded length and hash. A codec refactor that moves a
    /// single byte fails here.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let cache = warmed();
        let edge = crate::spec::MemorySpec::edge();
        let analytic = Evaluator::new(&cache).with_cycle_model(CycleModel::Analytic);
        let serial = EngineSpec::serial(PeStyle::Opt4C, EncodingKind::Mbe, 2.0)
            .with_precision(Precision::W4)
            .with_memory(edge);
        let layer = SweepWorkload::Layer(LayerShape::new("pin", 16, 48, 96, 2));
        analytic.metrics(&serial, &layer, 3).expect("feasible");
        analytic
            .model_report(&serial, &models::resnet18_quantized(), 3)
            .expect("feasible");
        let dense = EngineSpec::dense(PeStyle::Opt2, ClassicArch::Ascend, 1.0).with_memory(edge);
        let net = SweepWorkload::Model(models::mobilenet_v2());
        Evaluator::new(&cache)
            .metrics(&dense, &net, 5)
            .expect("feasible");

        let contents = cache.export();
        assert!(contents.prices.iter().any(|(_, p)| p.is_none()));
        assert!(contents.prices.iter().any(|(k, _)| k.sram_kib != 0));
        assert!(contents
            .cycles
            .iter()
            .any(|(k, _)| k.model == CycleModel::Analytic));
        assert_eq!(contents.models.len(), 3);
        let bytes = encode(&contents);
        assert_eq!(
            (bytes.len(), Fnv1a::hash(&bytes)),
            (4_573, 0x4d13_7341_0283_04c7),
            "the v4 snapshot bytes moved"
        );
    }

    #[test]
    fn snapshot_round_trips_including_infeasible_entries() {
        let cache = warmed();
        let contents = cache.export();
        assert!(
            contents.prices.iter().any(|(_, p)| p.is_none()),
            "the walled MAC corner must export as a cached infeasibility"
        );
        let decoded = decode(&encode(&contents)).unwrap();
        assert_eq!(decoded.len(), contents.len());
        // Import into a fresh cache: identical contents, byte-identical
        // re-encoding, and lookups hit without recomputing.
        let fresh = EngineCache::new();
        fresh.import(decoded);
        assert_eq!(sorted_contents(&fresh), sorted_contents(&cache));
        assert_eq!(fresh.entry_count(), cache.entry_count());
        assert_eq!(fresh.stats(), crate::cache::CacheStats::default());
    }

    #[test]
    fn encoding_is_deterministic_across_insert_orders() {
        let cache = warmed();
        let mut contents = cache.export();
        let bytes = encode(&contents);
        contents.records.reverse();
        contents.prices.reverse();
        contents.cycles.reverse();
        assert_eq!(encode(&contents), bytes, "entry order must not matter");
    }

    #[test]
    fn corrupt_truncated_and_future_snapshots_are_rejected() {
        let bytes = encode(&warmed().export());
        // Single-byte corruption anywhere in the payload.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xff;
        assert!(decode(&corrupt).unwrap_err().contains("checksum"));
        // Truncation at every interesting boundary.
        for cut in [0, 4, SNAPSHOT_MAGIC.len(), bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must reject");
        }
        // Version bump (checksum re-stamped so the version check itself
        // is what rejects).
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        let end = future.len() - 8;
        let sum = Fnv1a::hash(&future[SNAPSHOT_MAGIC.len()..end]);
        future[end..].copy_from_slice(&sum.to_le_bytes());
        assert!(decode(&future).unwrap_err().contains("version"));
        // Layout-hash drift, same re-stamping.
        let mut drifted = bytes.clone();
        drifted[12] ^= 0x01;
        let sum = Fnv1a::hash(&drifted[SNAPSHOT_MAGIC.len()..end]);
        drifted[end..].copy_from_slice(&sum.to_le_bytes());
        assert!(decode(&drifted).unwrap_err().contains("layout"));
        // Wrong magic.
        let mut alien = bytes;
        alien[0] = b'X';
        assert!(decode(&alien).unwrap_err().contains("magic"));
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let cache = warmed();
        let dir = std::env::temp_dir().join(format!("tpe-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tpecache");

        let info = save(&cache, &path).unwrap();
        assert_eq!(info.entries, cache.entry_count());
        assert!(info.bytes > 0);
        assert!(!path.with_extension("tpecache.tmp").exists());

        let fresh = EngineCache::new();
        let loaded = load(&fresh, &path).unwrap().expect("file exists");
        assert_eq!(loaded, info);
        assert_eq!(sorted_contents(&fresh), sorted_contents(&cache));

        // A warm lookup after import is a hit, not a recompute.
        let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0);
        let layer = SweepWorkload::Layer(LayerShape::new("snap", 32, 64, 128, 1));
        let a = Evaluator::new(&cache).metrics(&spec, &layer, 7);
        let b = Evaluator::new(&fresh).metrics(&spec, &layer, 7);
        assert_eq!(a, b, "imported state must answer identically");
        let stats = fresh.stats();
        assert_eq!(stats.misses(), 0, "replay must be all hits: {stats:?}");
        assert!(stats.hits() > 0);

        // Missing file: fresh fleet member, not an error.
        assert_eq!(load(&fresh, &dir.join("absent")).unwrap(), None);

        // Corrupt file on disk: strict reject, cache untouched.
        let mut bad = std::fs::read(&path).unwrap();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        let before = EngineCache::new();
        assert!(load(&before, &path).is_err());
        assert!(before.is_empty(), "rejected snapshot must not leak entries");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sampled_and_analytic_cycle_records_both_round_trip() {
        let cache = EngineCache::new();
        let spec = EngineSpec::serial(PeStyle::Opt4C, EncodingKind::EnT, 2.0);
        let layer = LayerShape::new("l", 16, 16, 64, 2);
        for profile in [SampleProfile::Quick.caps(), {
            let mut caps = SampleProfile::Quick.caps();
            caps.model = CycleModel::Analytic;
            caps
        }] {
            let key = CycleKey::of(&spec, &layer, 11, profile);
            cache.serial_record(key, || SerialLayerRecord {
                cycles: 42.0,
                busy_sum: 40.0,
                busy_min: 0.5,
                busy_max: 1.0,
                rounds: 2.0,
                columns: 32,
            });
        }
        let decoded = decode(&encode(&cache.export())).unwrap();
        assert_eq!(decoded.cycles.len(), 2);
        let models: Vec<CycleModel> = decoded.cycles.iter().map(|(k, _)| k.model).collect();
        assert!(models.contains(&CycleModel::Sampled));
        assert!(models.contains(&CycleModel::Analytic));
    }

    #[test]
    fn model_records_round_trip_and_replay_answers_from_the_model_map() {
        let cache = EngineCache::new();
        let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0);
        let net = models::resnet18();
        let report = Evaluator::new(&cache)
            .model_report(&spec, &net, 7)
            .expect("feasible");

        let decoded = decode(&encode(&cache.export())).unwrap();
        assert_eq!(decoded.models.len(), 1, "one whole-model record");

        let fresh = EngineCache::new();
        fresh.import(decoded);
        let before = fresh.stats();
        let replay = Evaluator::new(&fresh)
            .model_totals(&spec, &net, 7)
            .expect("feasible");
        assert_eq!(
            replay, report.totals,
            "imported model map must answer identically"
        );
        let delta = fresh.stats().since(&before);
        assert_eq!(
            (delta.model_hits, delta.model_misses),
            (1, 0),
            "replay must be a pure model-map hit"
        );
        assert_eq!(delta.cycle_lookups, 0, "no per-layer rewalk on replay");

        // The rows were not persisted: a report rebuilds them from the
        // imported cycle records without sampling anything.
        let rebuilt = Evaluator::new(&fresh)
            .model_report(&spec, &net, 7)
            .expect("feasible");
        assert_eq!(rebuilt, report);
        let delta = fresh.stats().since(&before);
        assert_eq!(delta.misses(), delta.report_misses, "{delta:?}");
    }

    #[test]
    fn model_section_corruption_and_old_versions_are_rejected() {
        let bytes = encode(&warmed().export());
        let end = bytes.len() - 8;

        // Flip a byte inside the model section (it is the last section
        // before the checksum): checksum rejects.
        let mut corrupt = bytes.clone();
        corrupt[end - 16] ^= 0xff;
        assert!(decode(&corrupt).unwrap_err().contains("checksum"));

        // Shrink the model section (drop bytes just before the trailer)
        // and re-stamp the checksum so the structural validation is what
        // rejects the short model entry.
        let mut short: Vec<u8> = bytes[..end - 16].to_vec();
        short.extend_from_slice(&[0u8; 8]); // placeholder trailer
        let sum_end = short.len() - 8;
        let sum = Fnv1a::hash(&short[SNAPSHOT_MAGIC.len()..sum_end]);
        short[sum_end..].copy_from_slice(&sum.to_le_bytes());
        assert!(decode(&short).is_err(), "truncated model entry must reject");

        // Older layouts are strict-rejected by version, not silently
        // half-imported: the pre-model-map v1, the pre-memory v2 (whose
        // price/model keys have no corner and whose rows carry no
        // roofline fields) and v3 (whose model entries carry rows) alike.
        for old in [1u32, 2, 3] {
            let mut stale = bytes.clone();
            stale[8..12].copy_from_slice(&old.to_le_bytes());
            let sum = Fnv1a::hash(&stale[SNAPSHOT_MAGIC.len()..end]);
            stale[end..].copy_from_slice(&sum.to_le_bytes());
            assert!(
                decode(&stale).unwrap_err().contains("version"),
                "v{old} must be rejected by the version check"
            );
        }
    }

    /// A snapshot written by a v3 build — here an empty cache's: header,
    /// the v3 layout hash, four zero counts, checksum — is rejected by
    /// version before any section is read.
    #[test]
    fn v3_snapshot_bytes_are_rejected() {
        const V3_LAYOUT_HASH: u64 = 0x7f60_a7fc_45b4_48af;
        let mut v3 = SNAPSHOT_MAGIC.to_vec();
        put_u32(&mut v3, 3);
        put_u64(&mut v3, V3_LAYOUT_HASH);
        for _ in 0..4 {
            put_u64(&mut v3, 0);
        }
        let sum = Fnv1a::hash(&v3[SNAPSHOT_MAGIC.len()..]);
        assert_eq!(sum, 0xf2fa_5a7e_c2fd_dc9a, "the checksum a v3 build writes");
        put_u64(&mut v3, sum);
        let err = decode(&v3).unwrap_err();
        assert!(err.contains("version 3 != supported 4"), "{err}");
        let cache = EngineCache::new();
        let dir = std::env::temp_dir().join(format!("tpe-snap-v3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v3.tpecache");
        std::fs::write(&path, &v3).unwrap();
        assert!(load(&cache, &path).is_err());
        assert!(cache.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Output digests and the pinned digests they are checked against.
//!
//! A cell's digest is FNV-1a 64 over the exact bits of its `StatsSnapshot`
//! and of any probe output it carries, so a record served from the store
//! and one computed afresh digest alike only if they agree bit for bit.

use dtn_bench::RunRecord;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// The digest of one cell's outputs.
pub fn digest(record: &RunRecord) -> u64 {
    let s = &record.stats;
    let mut h = Fnv::new();
    for v in [
        s.created,
        s.delivered,
        s.duplicate_deliveries,
        s.relayed,
        s.aborted,
        s.drops_buffer,
        s.drops_ttl,
        s.drops_protocol,
        s.refused,
        s.control_bytes,
        s.hops_sum,
    ] {
        h.u64(v);
    }
    h.f64(s.latency_sum);
    if let Some(ts) = &record.timeseries {
        h.bytes(b"timeseries");
        h.f64(ts.dt);
        for p in &ts.samples {
            h.f64(p.t);
            for v in [
                p.created,
                p.delivered,
                p.relayed,
                p.dropped,
                p.buffered_bytes,
                p.buffered_msgs,
            ] {
                h.u64(v);
            }
        }
    }
    if let Some(lat) = &record.latency {
        h.bytes(b"latency");
        h.u64(lat.count);
        for v in [lat.p50, lat.p95, lat.p99, lat.max] {
            h.f64(v);
        }
        for &b in &lat.buckets {
            h.u64(b);
        }
    }
    h.0
}

/// The name a cell is pinned under: protocol, scenario, horizon and seed,
/// which identify a cell within one workload.
pub fn cell_name(record: &RunRecord) -> String {
    format!(
        "{} {} {}s {}",
        record.protocol, record.scenario, record.duration, record.seed
    )
}

/// Pinned digests of one workload, by cell name.
pub struct Pins {
    path: PathBuf,
    by_cell: BTreeMap<String, u64>,
}

impl Pins {
    /// Loads `path`; a missing file is an empty pin set.
    pub fn load(path: &Path) -> Result<Pins, String> {
        let mut pins = Pins {
            path: path.to_path_buf(),
            by_cell: BTreeMap::new(),
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(pins),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        for (i, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let (cell, hex) = line.rsplit_once(' ').ok_or_else(|| {
                format!("{}:{}: expected `<cell> <digest>`", path.display(), i + 1)
            })?;
            let d = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            pins.by_cell.insert(cell.to_string(), d);
        }
        Ok(pins)
    }

    /// The pinned digest of `cell`, if pinned.
    pub fn get(&self, cell: &str) -> Option<u64> {
        self.by_cell.get(cell).copied()
    }

    /// Pins `records`, replacing earlier pins of the same cells, and writes
    /// the file back.
    pub fn pin_and_save(&mut self, records: &[RunRecord]) -> Result<(), String> {
        for r in records {
            self.by_cell.insert(cell_name(r), digest(r));
        }
        let mut out = String::from(
            "# Pinned output digests: <protocol> <scenario> <horizon> <seed> <FNV-1a 64 of stats and probes>\n",
        );
        for (cell, d) in &self.by_cell {
            out.push_str(&format!("{cell} {d:016x}\n"));
        }
        std::fs::write(&self.path, out).map_err(|e| format!("{}: {e}", self.path.display()))
    }
}

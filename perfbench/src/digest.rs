//! FNV-1a digests of simulated outputs, and a `Write` sink that counts
//! and hashes a streamed trace without keeping it.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use recross_nmp::RunReport;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one string.
pub fn of_str(s: &str) -> u64 {
    Fnv::default().bytes(s.as_bytes()).finish()
}

/// Digest of the simulated fields of closed-loop run reports, in order.
/// The command vector is left out: the offline runs do not record it.
pub fn of_run_reports(reports: &[RunReport]) -> u64 {
    let mut h = Fnv::default();
    for r in reports {
        h.bytes(r.name.as_bytes())
            .u64(r.cycles)
            .f64(r.ns)
            .u64(r.lookups)
            .u64(r.ops);
        let e = &r.energy;
        h.f64(e.act_pj)
            .f64(e.rd_wr_pj)
            .f64(e.io_pj)
            .f64(e.pe_pj)
            .f64(e.static_pj);
        let c = &r.counters;
        h.u64(c.activations)
            .u64(c.refreshes)
            .u64(c.rd_wr_bits)
            .u64(c.io_bits)
            .u64(c.fp_adds)
            .u64(c.fp_muls);
        let i = &r.imbalance;
        h.f64(i.mean).f64(i.p50).f64(i.p90).f64(i.max);
        h.f64(r.row_hit_rate).u64(r.node_loads.len() as u64);
        for &l in &r.node_loads {
            h.u64(l);
        }
        h.u64(r.cache_hits);
        for l in [&r.op_latency, &r.batch_latency] {
            h.f64(l.mean).u64(l.p50).u64(l.p90).u64(l.p99).u64(l.max);
        }
    }
    h.finish()
}

/// A cloneable writer that keeps only the byte count and the FNV-1a digest
/// of everything written to it.
#[derive(Debug, Clone, Default)]
pub struct CountingHasher(Rc<RefCell<(u64, Fnv)>>);

impl CountingHasher {
    /// `(bytes written, digest of those bytes)`.
    pub fn totals(&self) -> (u64, u64) {
        let inner = self.0.borrow();
        (inner.0, inner.1.finish())
    }
}

impl Write for CountingHasher {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut inner = self.0.borrow_mut();
        inner.0 += buf.len() as u64;
        inner.1.bytes(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(of_str(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of_str("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of_str("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn counting_hasher_sees_split_writes_as_one_stream() {
        let mut w = CountingHasher::default();
        let probe = w.clone();
        w.write_all(b"foo").unwrap();
        w.write_all(b"bar").unwrap();
        assert_eq!(probe.totals(), (6, of_str("foobar")));
    }
}

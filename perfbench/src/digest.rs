//! Output digests and the pinned reference tables.
//!
//! Every operation's result is reduced to a 64-bit FNV-1a digest over a
//! *fixed* list of `SimStats` fields plus the energy breakdown. The list is
//! fixed on purpose: a change that adds statistics leaves the digest alone,
//! while a change to any listed number shows.
//!
//! A pinned table maps `(benchmark workload, operation label)` to the
//! program the operation ran (its content hash) and a value. An entry
//! applies only when the program matches, so entries for the fixed assembly
//! kernels apply at every seed, and entries for the seeded synthetic
//! programs only at the seed they were pinned with.

use pre_sim::RunResult;
use std::collections::HashMap;
use std::fmt::Write as _;

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds the little-endian bytes of `v`.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The digest of one result: simulated time, committed work, mispredicts,
/// the cache and DRAM counters, runahead activity, the store checksum and
/// the six energy components (as IEEE-754 bits).
pub fn digest(result: &RunResult) -> u64 {
    let s = &result.stats;
    let e = &result.energy;
    let mut h = Fnv::default();
    for v in [
        s.cycles,
        s.committed_uops,
        s.committed_loads,
        s.committed_stores,
        s.mispredicted_branches,
        s.l1i_accesses,
        s.l1i_misses,
        s.l1d_accesses,
        s.l1d_misses,
        s.l2_accesses,
        s.l2_misses,
        s.l3_accesses,
        s.l3_misses,
        s.dram_reads,
        s.dram_writes,
        s.dram_row_hits,
        s.dram_row_misses,
        s.runahead_entries,
        s.runahead_uops_executed,
        s.store_checksum,
        e.core_dynamic_nj.to_bits(),
        e.runahead_structures_nj.to_bits(),
        e.cache_dynamic_nj.to_bits(),
        e.dram_dynamic_nj.to_bits(),
        e.core_static_nj.to_bits(),
        e.dram_static_nj.to_bits(),
    ] {
        h.u64(v);
    }
    h.finish()
}

/// What a pinned table says about one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// An entry for this operation and program.
    Pinned(u64),
    /// No entry, or one pinned for another program (another seed).
    Unpinned,
}

/// A pinned reference table: `workload<TAB>label<TAB>program<TAB>value`
/// lines (hashes and values in hex), `#` comments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    entries: HashMap<(String, String), (u64, u64)>,
}

impl Table {
    /// Parses the text format.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Table, String> {
        let mut entries = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let parsed = match fields.as_slice() {
                [w, label, program, value, ..] => u64::from_str_radix(program, 16)
                    .ok()
                    .zip(u64::from_str_radix(value, 16).ok())
                    .map(|pv| ((w.to_string(), label.to_string()), pv)),
                _ => None,
            };
            let (key, pv) = parsed.ok_or_else(|| format!("line {}: `{line}`", n + 1))?;
            entries.insert(key, pv);
        }
        Ok(Table { entries })
    }

    /// Adds or replaces an entry.
    pub fn insert(&mut self, workload: &str, label: &str, program: u64, value: u64) {
        self.entries
            .insert((workload.to_string(), label.to_string()), (program, value));
    }

    /// The entry for `(workload, label)` if it was pinned for `program`.
    pub fn get(&self, workload: &str, label: &str, program: u64) -> Lookup {
        match self.entries.get(&(workload.to_string(), label.to_string())) {
            Some(&(p, value)) if p == program => Lookup::Pinned(value),
            _ => Lookup::Unpinned,
        }
    }

    /// Renders the table (sorted, so regenerating it diffs cleanly), with
    /// `header` as leading comment lines and `note(value)` as a trailing
    /// human-readable column.
    pub fn render(&self, header: &str, note: impl Fn(u64) -> String) -> String {
        let mut rows: Vec<_> = self.entries.iter().collect();
        rows.sort();
        let mut out = String::new();
        for line in header.lines() {
            let _ = writeln!(out, "# {line}");
        }
        for ((w, label), (program, value)) in rows {
            let _ = write!(out, "{w}\t{label}\t{program:016x}\t{value:016x}");
            let note = note(*value);
            if !note.is_empty() {
                let _ = write!(out, "\t{note}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of the 8 bytes of 0u64.
        let mut h = Fnv::default();
        h.u64(0);
        let mut want: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            want = want.wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(h.finish(), want);
    }

    #[test]
    fn table_roundtrips_and_matches_only_the_pinned_program() {
        let mut t = Table::default();
        t.insert("matrix-mixed", "mcf-like_pre", 0xabc, 0x1234);
        t.insert(
            "sweep-cache",
            "p1 lbm-like_pre-emq emq=192 rob=128",
            0xdef,
            7,
        );
        let text = t.render("pinned\nby test", |v| format!("v={v}"));
        assert!(text.starts_with("# pinned\n# by test\n"));
        let back = Table::parse(&text).unwrap();
        assert_eq!(back, t);
        assert_eq!(
            back.get("matrix-mixed", "mcf-like_pre", 0xabc),
            Lookup::Pinned(0x1234)
        );
        assert_eq!(
            back.get("matrix-mixed", "mcf-like_pre", 0xabd),
            Lookup::Unpinned
        );
        assert_eq!(
            back.get("matrix-mixed", "lbm-like_pre", 0xabc),
            Lookup::Unpinned
        );
        assert_eq!(
            back.get("sweep-cache", "p1 lbm-like_pre-emq emq=192 rob=128", 0xdef),
            Lookup::Pinned(7)
        );
        assert!(Table::parse("a\tb\tzz\t1").is_err());
        assert!(Table::parse("a\tb").is_err());
    }
}

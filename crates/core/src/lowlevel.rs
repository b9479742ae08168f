//! Conventional-definition ("low-level") data-race counting.
//!
//! §4.1 motivates use-free races by counting plain conflicting-access
//! races in a 30-second ConnectBot trace: **1,664** under the relaxed
//! event order, "and most of them are not harmful bugs". This module
//! reproduces that measurement: it counts *racy statement pairs* — two
//! accesses to the same variable, at least one a write, in different
//! tasks, unordered under a given causality model — deduplicated by
//! code site so repeated dynamic instances of the same statements count
//! once.

use std::collections::{HashMap, HashSet};

use cafa_engine::AnalysisSession;
use cafa_hb::{CausalityConfig, HbError};
use cafa_trace::{NameId, OpRef, Record, Trace, VarId};

/// One access site: the accessing code position, approximated by the
/// task's handler/thread name (distinct handlers are distinct code) plus
/// the instruction address when the record carries one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Site {
    name: NameId,
    pc: u32,
    write: bool,
}

/// Summary of a low-level race count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LowLevelSummary {
    /// Racy statement pairs found.
    pub racy_pairs: usize,
    /// Variables with at least one racy pair.
    pub racy_vars: usize,
    /// Dynamic instance pairs examined.
    pub pairs_checked: usize,
    /// Variables whose site pairs hit the per-pair instance cap, so
    /// additional races there may exist.
    pub truncated_vars: Vec<VarId>,
}

/// Per-site-pair instance budget: how many dynamic instance pairs are
/// examined before giving up on proving a site pair racy.
const INSTANCES_PER_SITE: usize = 8;

/// Counts conventional-definition races in `trace` under `config`.
///
/// With [`CausalityConfig::cafa`] this reproduces the §4.1 measurement
/// (thousands of mostly-benign races); with
/// [`CausalityConfig::conventional`] it shows what a thread-based
/// detector would report.
///
/// # Errors
///
/// Returns [`HbError`] if the happens-before model cannot be built or
/// its queries derive a cyclic relation.
pub fn count_races(trace: &Trace, config: CausalityConfig) -> Result<LowLevelSummary, HbError> {
    let session = AnalysisSession::new(trace);
    count_races_with(&session, config)
}

/// Like [`count_races`], but over a shared [`AnalysisSession`] so the
/// happens-before model is reused across counters and the detector.
///
/// # Errors
///
/// Returns [`HbError`] if the happens-before model cannot be built or
/// its queries derive a cyclic relation.
pub fn count_races_with(
    session: &AnalysisSession<'_>,
    config: CausalityConfig,
) -> Result<LowLevelSummary, HbError> {
    let trace = session.trace();
    let model = session.model(config)?;

    // Group accesses per variable and site.
    #[derive(Default)]
    struct VarAccesses {
        sites: HashMap<Site, Vec<OpRef>>,
        has_write: bool,
    }
    let mut vars: HashMap<VarId, VarAccesses> = HashMap::new();
    for (at, r) in trace.iter_ops() {
        let (var, write, pc) = match *r {
            Record::Read { var } => (var, false, 0),
            Record::Write { var } => (var, true, 0),
            Record::ObjRead { var, pc, .. } => (var, false, pc.addr()),
            Record::ObjWrite { var, pc, .. } => (var, true, pc.addr()),
            _ => continue,
        };
        let name = trace.task(at.task).name;
        let entry = vars.entry(var).or_default();
        entry.has_write |= write;
        let insts = entry.sites.entry(Site { name, pc, write }).or_default();
        if insts.len() < INSTANCES_PER_SITE {
            insts.push(at);
        }
    }

    let mut summary = LowLevelSummary::default();
    let mut racy_site_pairs: HashSet<(VarId, Site, Site)> = HashSet::new();

    let mut var_list: Vec<(&VarId, &VarAccesses)> = vars.iter().collect();
    var_list.sort_by_key(|(v, _)| **v);
    for (&var, va) in var_list {
        if !va.has_write || va.sites.len() < 2 {
            continue;
        }
        let mut sites: Vec<(&Site, &Vec<OpRef>)> = va.sites.iter().collect();
        sites.sort_by_key(|(s, _)| **s);
        let mut var_is_racy = false;
        for i in 0..sites.len() {
            // j == i covers two dynamic instances of the same statement
            // in different tasks (e.g. the same writer handler run
            // twice concurrently).
            for j in i..sites.len() {
                let (sa, ia) = sites[i];
                let (sb, ib) = sites[j];
                if !sa.write && !sb.write {
                    continue;
                }
                let mut racy = false;
                'outer: for &a in ia {
                    for &b in ib {
                        if a.task == b.task {
                            continue;
                        }
                        summary.pairs_checked += 1;
                        if !model.happens_before(a, b) && !model.happens_before(b, a) {
                            racy = true;
                            break 'outer;
                        }
                    }
                }
                // A "not racy" verdict is only proven if the recorded
                // instances cover the site pair; when a site list hit
                // the per-site cap, unrecorded instances could still
                // race, so the verdict is partial and must be flagged.
                let capped = ia.len() == INSTANCES_PER_SITE || ib.len() == INSTANCES_PER_SITE;
                if !racy && capped && !summary.truncated_vars.contains(&var) {
                    summary.truncated_vars.push(var);
                }
                if racy {
                    racy_site_pairs.insert((var, *sa, *sb));
                    var_is_racy = true;
                }
            }
        }
        if var_is_racy {
            summary.racy_vars += 1;
        }
    }
    summary.racy_pairs = racy_site_pairs.len();
    model.check()?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafa_trace::TraceBuilder;

    /// Figure 2's ConnectBot pattern: onPause writes, onLayout reads —
    /// a read-write race under CAFA that the conventional model hides.
    #[test]
    fn figure2_read_write_race_counts_under_cafa_only() {
        let mut b = TraceBuilder::new("ConnectBot");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t1 = b.add_thread(p, "s1");
        let t2 = b.add_thread(p, "s2");
        let resize_allowed = VarId::new(0);
        let pause = b.post(t1, q, "onPause", 0);
        let layout = b.post(t2, q, "onLayout", 0);
        b.process_event(pause);
        b.write(pause, resize_allowed);
        b.process_event(layout);
        b.read(layout, resize_allowed);
        let trace = b.finish().unwrap();

        let cafa = count_races(&trace, CausalityConfig::cafa()).unwrap();
        assert_eq!(cafa.racy_pairs, 1);
        assert_eq!(cafa.racy_vars, 1);

        let conv = count_races(&trace, CausalityConfig::conventional()).unwrap();
        assert_eq!(conv.racy_pairs, 0);
    }

    #[test]
    fn read_read_pairs_never_race() {
        let mut b = TraceBuilder::new("t");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t1 = b.add_thread(p, "s1");
        let t2 = b.add_thread(p, "s2");
        let v = VarId::new(0);
        let e1 = b.post(t1, q, "r1", 0);
        let e2 = b.post(t2, q, "r2", 0);
        b.process_event(e1);
        b.read(e1, v);
        b.process_event(e2);
        b.read(e2, v);
        let trace = b.finish().unwrap();
        let s = count_races(&trace, CausalityConfig::cafa()).unwrap();
        assert_eq!(s.racy_pairs, 0);
    }

    #[test]
    fn repeated_instances_count_once() {
        let mut b = TraceBuilder::new("t");
        let p = b.add_process();
        let q = b.add_queue(p);
        let v = VarId::new(0);
        for i in 0..6 {
            let t = b.add_thread(p, &format!("s{i}"));
            // Same handler names each round: one writer site, one
            // reader site.
            let w = b.post(t, q, "writer", 0);
            b.process_event(w);
            b.write(w, v);
            let r = b.post(t, q, "reader", 0);
            b.process_event(r);
            b.read(r, v);
        }
        let trace = b.finish().unwrap();
        let s = count_races(&trace, CausalityConfig::cafa()).unwrap();
        // writer-vs-reader and writer-vs-writer.
        assert_eq!(s.racy_pairs, 2);
        assert_eq!(s.racy_vars, 1);
        assert!(s.truncated_vars.is_empty());
    }

    #[test]
    fn ordered_accesses_do_not_race() {
        let mut b = TraceBuilder::new("t");
        let p = b.add_process();
        let t = b.add_thread(p, "main");
        let v = VarId::new(0);
        b.write(t, v);
        let w = b.fork(t, p, "child");
        b.read(w, v);
        let trace = b.finish().unwrap();
        let s = count_races(&trace, CausalityConfig::cafa()).unwrap();
        assert_eq!(s.racy_pairs, 0);
        assert!(s.pairs_checked > 0);
    }
}

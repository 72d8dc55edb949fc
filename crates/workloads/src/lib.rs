//! The §8 evaluation workloads of the paper, written in the model's
//! calculus with the same access-ordering structure as the paper's
//! C++/Rust/assembly sources: three spinlocks (SLA/SLC/SLR), a ticket
//! lock (TL), producer–consumer queues (PCS/PCM), the Treiber stack
//! (STC/STR), the Michael-Scott queue (QU — including the §8 buggy
//! variant), and the Chase-Lev deque (DQ).
//!
//! Each [`Workload`] bundles the program, its genuinely-shared locations
//! (for the §7 optimisation), a loop bound, and a *checker* that flags
//! incorrect final states (mutual-exclusion violations, lost or
//! uninitialised elements) — the "incorrect states" the paper's tool
//! reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chase_lev;
pub mod michael_scott;
pub mod pc_queue;
pub mod spinlock;
pub mod ticket_lock;
pub mod treiber;
pub mod util;

pub use chase_lev::chase_lev;
pub use michael_scott::{michael_scott, qu_init, Variant};
pub use pc_queue::{pcm, pcs};
pub use spinlock::{sla, slc, slr};
pub use ticket_lock::ticket_lock;
pub use treiber::{stc, str_stack, Ops};
pub use util::{Checker, Workload};

use promising_core::{Loc, Val};
use std::collections::BTreeMap;

/// Build a workload from a paper-style spec string:
/// `SLA-7`, `SLC-3`, `SLR-2`, `TL-3`, `PCS-2-2`, `PCM-1-1-1`,
/// `STC-100-010-010`, `STR(opt)-210-011-000`, `QU(buggy)-100-010-000`,
/// `DQ(opt)-110-1-0`.
pub fn by_spec(spec: &str) -> Option<Workload> {
    let (family, rest) = spec.split_once('-')?;
    let (family, tag) = match family.find('(') {
        Some(i) => (
            &family[..i],
            family[i..].trim_matches(|c| c == '(' || c == ')'),
        ),
        None => (family, ""),
    };
    let optimised = tag == "opt";
    let parts: Vec<&str> = rest.split('-').collect();
    match family {
        "SLA" => Some(sla(parts.first()?.parse().ok()?)),
        "SLC" => Some(slc(parts.first()?.parse().ok()?)),
        "SLR" => Some(slr(parts.first()?.parse().ok()?)),
        "TL" => Some(ticket_lock(parts.first()?.parse().ok()?)),
        "PCS" => Some(pcs(
            parts.first()?.parse().ok()?,
            parts.get(1)?.parse().ok()?,
        )),
        "PCM" => Some(pcm(
            parts.first()?.parse().ok()?,
            parts.get(1)?.parse().ok()?,
            parts.get(2)?.parse().ok()?,
        )),
        "STC" | "STR" => {
            let specs: Vec<Ops> = parts.iter().map(|p| Ops::parse(p)).collect::<Option<_>>()?;
            Some(if family == "STC" {
                stc(&specs, optimised)
            } else {
                str_stack(&specs, optimised)
            })
        }
        "QU" => {
            let specs: Vec<Ops> = parts.iter().map(|p| Ops::parse(p)).collect::<Option<_>>()?;
            let variant = match tag {
                "opt" => Variant::Optimised,
                "buggy" => Variant::Buggy,
                _ => Variant::Conservative,
            };
            Some(michael_scott(&specs, variant))
        }
        "DQ" => {
            let owner = Ops::parse(parts.first()?)?;
            Some(chase_lev(
                owner,
                parts.get(1)?.parse().ok()?,
                parts.get(2)?.parse().ok()?,
                optimised,
            ))
        }
        _ => None,
    }
}

/// The initial memory a workload needs (only QU requires one: head/tail
/// point at the dummy node).
pub fn init_for(w: &Workload) -> BTreeMap<Loc, Val> {
    if w.family == "QU" {
        qu_init()
    } else {
        BTreeMap::new()
    }
}

/// The ten Table 1 rows: one representative instance per family.
pub fn table1_rows() -> Vec<Workload> {
    vec![
        sla(2),
        slc(2),
        slr(2),
        pcs(3, 3),
        pcm(3, 3, 3),
        ticket_lock(3),
        stc(&[Ops(1, 0, 0), Ops(0, 1, 0), Ops(0, 1, 0)], false),
        str_stack(&[Ops(1, 0, 0), Ops(0, 1, 0), Ops(0, 1, 0)], false),
        chase_lev(Ops(1, 1, 0), 1, 0, false),
        michael_scott(
            &[Ops(1, 0, 0), Ops(0, 1, 0), Ops(0, 0, 0)],
            Variant::Conservative,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_spec_parses_every_family() {
        for spec in [
            "SLA-7",
            "SLC-3",
            "SLR-2",
            "TL-3",
            "PCS-2-2",
            "PCM-1-1-1",
            "STC-100-010-010",
            "STR-210-011-000",
            "STC(opt)-100-010-000",
            "QU-100-010-000",
            "QU(opt)-100-000-000",
            "QU(buggy)-100-010-000",
            "DQ-110-1-0",
            "DQ(opt)-211-2-1",
        ] {
            let w = by_spec(spec).unwrap_or_else(|| panic!("spec `{spec}` must parse"));
            assert!(w.num_threads() >= 1);
        }
    }

    #[test]
    fn by_spec_rejects_nonsense() {
        assert!(by_spec("XX-1").is_none());
        assert!(by_spec("SLA").is_none());
        assert!(by_spec("STC-9").is_none());
    }

    #[test]
    fn spec_round_trips_name() {
        for spec in ["SLA-3", "PCS-2-2", "STC-100-010-010", "DQ-110-1-0"] {
            assert_eq!(by_spec(spec).expect("parses").name, spec);
        }
    }

    #[test]
    fn table1_has_ten_families() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 10);
        let families: std::collections::BTreeSet<&str> = rows.iter().map(|w| w.family).collect();
        assert_eq!(families.len(), 10);
    }
}

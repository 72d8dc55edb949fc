//! Benchmark-harness support: table formatting and timing helpers shared
//! by the table-regenerating binaries (see DESIGN.md §4 for the
//! experiment index), plus the pre-optimisation [`legacy`] explorers used
//! as the perf-trajectory baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod legacy;
pub mod table;

pub use batch::{
    cache_key, run_campaign, verdict_db, write_verdict_db, BatchConfig, CampaignReport,
    ResultCache, Tier, TierBudgets, VerdictRecord,
};
pub use legacy::explore_promise_first_legacy;
pub use table::{
    fmt_duration, host_cpus, json_secs, parse_worker_list, sweep_cell_text, sweep_json,
    worker_mode, SweepCell, Table,
};

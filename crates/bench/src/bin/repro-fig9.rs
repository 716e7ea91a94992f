//! Regenerates Fig. 9 of the paper: the percentage of rows in one bank
//! that experience at least one RowHammer bit flip under the vendor's
//! custom access pattern, for all 45 modules.
//!
//! Usage: repro-fig9 [--rows N] [--samples N] [--windows N] [--modules A5,...]
//!                   [--threads N] [--faults none|mild|hostile] [--fault-seed N]
//!                   [--metrics-out PATH] [--trace-out PATH] [--trace-chrome PATH]
//!                   [--trace-rows SPEC]

use utrr_bench::{attack_columns_par, RunContext};

fn main() {
    let ctx = RunContext::from_env();
    let rows: u32 = ctx.num("--rows").unwrap_or(2_048);
    let samples: u32 = ctx.num("--samples").unwrap_or(48);
    let windows: u32 = ctx.num("--windows").unwrap_or(2);
    let config = ctx.eval_config(samples, windows, rows);

    println!("# Fig. 9 reproduction — % vulnerable DRAM rows per module");
    println!("# ({samples} sampled victim positions per bank, {rows} rows/bank, {windows} refresh windows)");
    ctx.print_fault_banner();
    println!();
    println!("  module  version    measured   paper        0%        50%       100%");

    let modules = ctx.modules();
    // One worker-pool task per module; rows print in catalog order.
    let sweeps = attack_columns_par(&modules, &config, &ctx.pool);

    let mut fully_vulnerable = 0u32;
    let mut total = 0u32;
    for (spec, sweep) in modules.iter().zip(&sweeps) {
        let pct = sweep.vulnerable_pct();
        let bar_len = (pct / 2.5) as usize;
        println!(
            "  {:<7} {:<9} {:>6.1}%   {:>4.1}–{:>5.1}%  |{:<40}|",
            spec.id,
            spec.trr_version,
            pct,
            spec.paper_vulnerable_pct.0,
            spec.paper_vulnerable_pct.1,
            "#".repeat(bar_len.min(40)),
        );
        total += 1;
        if pct > 99.0 {
            fully_vulnerable += 1;
        }
    }
    println!();
    println!(
        "# {fully_vulnerable}/{total} modules above 99% (paper: 21 of 45 above 99.9%); every module shows bit flips"
    );

    ctx.finish(None);
}

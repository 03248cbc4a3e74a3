//! Regenerates every simulated figure of the paper from one grid of
//! runs: Fig. 1's performance column, Figs. 6, 7, 8, 9 and 10, the §VII
//! energy study and the ablations.
//!
//! ```text
//! cargo run -p dve-bench --bin figures --release            # results/figures.txt
//! cargo run -p dve-bench --bin figures --release -- smoke   # results/figures_smoke.txt
//! ```
//!
//! Each section requests the cells it reads from one [`Grid`], which
//! simulates every distinct cell once on all cores; the report is the
//! same at any core count. `DVE_OPS` sets the full run length; smoke
//! runs [`SMOKE_OPS`].
//!
//! The paper's structure claims that this reproduction holds at both
//! lengths are gated: the run fails when one stops holding. The claims
//! EXPERIMENTS.md lists as deviations are written into the report as
//! `deviation:` lines with their measured numbers.

use dve::config::{Scheme, SystemConfig};
use dve::system::RunResult;
use dve_bench::gate::{smoke, write_report, Gate, HarnessError};
use dve_bench::grid::Grid;
use dve_bench::{grouped, header, ops_from_env, profile, row, speedups, workload_seed};
use dve_coherence::engine::ReplicationScope;
use dve_dram::energy::system_edp;
use dve_reliability::capacity::fig1_capacity_points;
use dve_reliability::fit::ThermalMapping;
use dve_reliability::model::ReliabilityModel;
use dve_sim::stats::geomean;
use dve_sim::time::Nanos;
use dve_workloads::{catalog, TraceGenerator};
use std::fmt::{self, Write as _};
use std::process::ExitCode;

/// Measured memory operations per thread in `figures smoke`.
const SMOKE_OPS: u64 = 5_000;

/// The report text plus the gated claims, checked once it is written.
#[derive(Default)]
struct Report {
    text: String,
    claims: Vec<(bool, String)>,
}

impl fmt::Write for Report {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.text.push_str(s);
        Ok(())
    }
}

impl Report {
    /// A paper claim the reproduction holds: the run fails without it.
    fn claim(&mut self, holds: bool, what: &str, measured: String) {
        self.claims.push((holds, format!("{what} ({measured})")));
    }

    /// A paper claim the reproduction does not hold (EXPERIMENTS.md
    /// lists it): reported with its numbers whenever it fails.
    fn deviation(&mut self, holds: bool, what: &str, measured: String) -> fmt::Result {
        if holds {
            return Ok(());
        }
        writeln!(self, "deviation: {what} (measured {measured})")
    }

    /// A table with one row per catalog workload and one `{:.3}` column
    /// per series, then a blank line.
    fn table(&mut self, title: &str, cols: &[&str], series: &[Vec<f64>]) -> fmt::Result {
        writeln!(self, "{}", header(title, cols))?;
        for (i, p) in catalog().iter().enumerate() {
            let cells: Vec<String> = series.iter().map(|s| format!("{:.3}", s[i])).collect();
            writeln!(self, "{}", row(p.name, &cells))?;
        }
        writeln!(self)
    }
}

/// Renders one section from the grid's results, in request order.
type Section = Box<dyn FnOnce(&[RunResult], &mut Report) -> fmt::Result>;

fn pct(x: f64) -> f64 {
    (x - 1.0) * 100.0
}

/// Per-workload `over.cycles / runs.cycles`, and their geomean as a
/// percentage change.
fn cycle_ratios(runs: &[RunResult], over: &[RunResult]) -> (f64, Vec<f64>) {
    let ratio = |(v, o): (&RunResult, &RunResult)| o.cycles as f64 / v.cycles as f64;
    let ratios: Vec<f64> = runs.iter().zip(over).map(ratio).collect();
    (pct(geomean(&ratios)), ratios)
}

fn fig1(grid: &mut Grid) -> Section {
    let base = grid.all(Scheme::BaselineNuma, |_| {});
    let dynamic = grid.all(Scheme::DveDynamic, |_| {});
    Box::new(move |r, out| {
        let m = ReliabilityModel::paper_defaults();
        let (ck, dve) = (m.chipkill().due, m.dve_tsd(ThermalMapping::Identity).due);
        // Performance: Dvé's dynamic scheme against baseline NUMA.
        let perf = pct(grouped(&speedups(&r[dynamic], &r[base])).all20);
        let (a, b, c) = ("DUE rate (/1e9 hr)", "performance", "effective capacity");
        writeln!(out, "Fig. 1: DRAM reliability design points\n")?;
        writeln!(
            out,
            "scheme     {a:>22} {b:>18} {c:>20}\n{}",
            "-".repeat(74)
        )?;
        // SEC-DED cannot correct chip failures at all: its uncorrectable
        // rate for the chip-granularity fault model is the single-chip
        // failure rate itself. The capacity points come in this order.
        let rows = [
            ("SEC-DED", "(chip faults DUE)".into(), "~baseline".into()),
            ("Chipkill", format!("{ck:.3e}"), "-2..-3% (quoted)".into()),
            ("Dve+TSD", format!("{dve:.3e}"), format!("{perf:.1}%")),
        ];
        for ((name, due, perf), point) in rows.iter().zip(fig1_capacity_points()) {
            let cap = point.effective * 100.0;
            writeln!(out, "{name:<10} {due:>22} {perf:>18} {cap:>19.2}%")?;
        }
        let ratio = ck / dve;
        writeln!(
            out,
            "\nDvé: {ratio:.1}x lower DUE than Chipkill, +{perf:.1}% performance (all-20 geomean),\n\
             capacity overhead applies only while replication is enabled (on-demand)."
        )
    })
}

fn fig6(grid: &mut Grid) -> Section {
    let base = grid.all(Scheme::BaselineNuma, |_| {});
    let mirror = grid.all(Scheme::IntelMirrorPlus, |_| {});
    let allow = grid.all(Scheme::DveAllow, |_| {});
    let deny = grid.all(Scheme::DveDeny, |_| {});
    let dynamic = grid.all(Scheme::DveDynamic, |_| {});
    Box::new(move |r, out| {
        let series = [mirror, allow, deny, dynamic].map(|c| speedups(&r[c], &r[base.clone()]));
        let cols = ["intel-mirror++", "allow", "deny", "dynamic"];
        out.table("Fig. 6: speedup over baseline NUMA", &cols, &series)?;
        for (name, s) in cols.iter().zip(&series) {
            let g = grouped(s);
            let [t10, t15, a20] = [g.top10, g.top15, g.all20].map(pct);
            writeln!(
                out,
                "{name:<16} geomean: top-10 {t10:+.1}%  top-15 {t15:+.1}%  all-20 {a20:+.1}%"
            )?;
        }
        // The paper's headline claims, checked on our reproduction:
        let [s_mirror, s_allow, s_deny, s_dyn] = &series;
        let named: Vec<bool> = catalog().iter().map(|p| p.paper_deny_winner()).collect();
        let deny_winners = (0..20)
            .filter(|&i| named[i] && s_deny[i] >= s_allow[i])
            .count();
        let dyn_picks = (0..20).filter(|&i| s_dyn[i] >= s_allow[i].max(s_deny[i]) * 0.97);
        let dyn_picks = dyn_picks.count();
        let slower = |i: &usize| s_allow[*i] < 0.995 || s_deny[*i] < 0.995 || s_dyn[*i] < 0.995;
        let regressions = (0..20).filter(slower).count();
        let g_mirror = grouped(s_mirror).all20;
        let vs_allow = pct(grouped(s_allow).all20 / g_mirror);
        let vs_deny = pct(grouped(s_deny).all20 / g_mirror);
        let vs = format!("allow {vs_allow:+.1}%, deny {vs_deny:+.1}%");
        writeln!(
            out,
            "\ndeny-protocol winners among the paper's 10 named benchmarks: {deny_winners}/10\n\
             dynamic within 3% of the better static protocol: {dyn_picks}/20\n\
             workloads slower than baseline under any Dvé scheme: {regressions}/20 (paper: 0)\n\
             Dvé vs Intel-mirroring++ (all-20): {vs} (paper: +9%, +13%)"
        )?;

        let what = "Fig. 6: deny wins the paper's 10 named workloads";
        out.claim(deny_winners == 10, what, format!("{deny_winners}/10"));
        let what = "Fig. 6: Dvé beats Intel-mirroring++ all-20";
        out.claim(vs_allow > 0.0 && vs_deny > 0.0, what, vs);
        let what = "Fig. 6: dynamic within 3% of the better static protocol on every workload";
        out.deviation(dyn_picks == 20, what, format!("{dyn_picks}/20"))?;
        let what = "Fig. 6: no workload slower than baseline under any Dvé scheme";
        out.deviation(regressions == 0, what, format!("{regressions}/20"))
    })
}

fn fig7(grid: &mut Grid) -> Section {
    let base = grid.all(Scheme::BaselineNuma, |_| {});
    Box::new(move |r, out| {
        let base = &r[base];
        let series = [0, 1, 2, 3].map(|k| base.iter().map(|r| r.class_fractions[k]).collect());
        let title = "Fig. 7: sharing pattern at the home directory (fractions)";
        let cols = ["private-read", "read-only", "read/write", "private-rw"];
        out.table(title, &cols, &series)?;
        let deny_wins = catalog().into_iter().map(|p| p.paper_deny_winner());
        let rule_ok = deny_wins
            .zip(&series[3])
            .filter(|&(d, &f)| d != (f > 0.46))
            .count();
        let rule = "workloads where the >46% private-rw rule predicts the allow/deny winner";
        writeln!(out, "{rule}: {rule_ok}/20")
    })
}

fn fig8(grid: &mut Grid) -> Section {
    let base = grid.all(Scheme::BaselineNuma, |_| {});
    let allow = grid.all(Scheme::DveAllow, |_| {});
    let deny = grid.all(Scheme::DveDeny, |_| {});
    Box::new(move |r, out| {
        let base = &r[base];
        let norm = |runs: &[RunResult]| -> Vec<f64> {
            let zipped = runs.iter().zip(base);
            zipped
                .map(|(v, b)| v.traffic.normalized_to(&b.traffic))
                .collect()
        };
        let series = [norm(&r[allow]), norm(&r[deny.clone()])];
        let title = "Fig. 8: inter-socket traffic normalized to NUMA";
        out.table(title, &["allow", "deny"], &series)?;
        let cut = |v: &[f64]| (1.0 - v.iter().sum::<f64>() / v.len() as f64) * 100.0;
        let (a, d) = (cut(&series[0]), cut(&series[1]));
        // Correlation between traffic reduction and speedup (deny).
        let reductions: Vec<f64> = series[1].iter().map(|n| 1.0 - n).collect();
        let corr = pearson(&reductions, &speedups(&r[deny], base));
        writeln!(
            out,
            "average traffic reduction: allow {a:.1}%  deny {d:.1}%  (paper: 38%, 35%)\n\
             correlation(traffic reduction, speedup) for deny: {corr:.2} (paper: positive)"
        )?;
        let what = "Fig. 8: deny's traffic reduction correlates positively with speedup";
        out.claim(corr > 0.0, what, format!("{corr:.2}"));
        Ok(())
    })
}

fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let vx: f64 = x.iter().map(|a| (a - mx).powi(2)).sum();
    let vy: f64 = y.iter().map(|b| (b - my).powi(2)).sum();
    cov / (vx.sqrt() * vy.sqrt())
}

/// Fig. 9's five columns at one LLC size: `None` is Table II's 8 MB,
/// `Some(bytes)` a scaled-down LLC with the replica directory scaled by
/// the same factor so the structures keep their relative reach.
///
/// The paper's 20-billion-operation traces cycle the 8 MB LLC many
/// times, so re-reads reach the replica directory and its capacity
/// matters. Our statistical clones run ~10^5 operations per thread; at
/// that scale the LLC retains most of the reusable footprint and the
/// capacity gradient compresses. The companion run at 1 MB exposes the
/// directory-reach mechanism at a tractable trace length (see
/// EXPERIMENTS.md).
fn fig9(grid: &mut Grid, llc_bytes: Option<usize>) -> Section {
    let (small, large, fig) = match llc_bytes {
        None => (2048, 4096, "Fig. 9 (8 MB LLC)"),
        Some(_) => (256, 512, "Fig. 9 (1 MB LLC)"),
    };
    let scale = move |c: &mut SystemConfig| {
        if let Some(b) = llc_bytes {
            c.engine.llc_bytes = b;
        }
        c.engine.replica_dir_entries = Some(small);
    };
    let base = grid.all(Scheme::BaselineNuma, scale);
    let allow2k = grid.all(Scheme::DveAllow, scale);
    let allow4k = grid.all(Scheme::DveAllow, |c| {
        scale(c);
        c.engine.replica_dir_entries = Some(large);
    });
    let coarse = grid.all(Scheme::DveAllow, |c| {
        scale(c);
        c.engine.replica_region_lines = 16;
    });
    let oracle = grid.all(Scheme::DveAllow, |c| {
        scale(c);
        c.engine.replica_dir_entries = None;
        c.engine.free_installs = true;
    });
    Box::new(move |r, out| {
        if llc_bytes.is_some() {
            let companion = "companion run: LLC scaled to 1 MB to expose directory reach";
            writeln!(out, "--- {companion} ---")?;
        }
        let series = [allow2k, allow4k, coarse, oracle].map(|c| speedups(&r[c], &r[base.clone()]));
        let cols = ["allow-2K", "allow-4K", "coarse-grain", "oracle"];
        out.table(
            "Fig. 9: allow-protocol optimizations (speedup over NUMA)",
            &cols,
            &series,
        )?;
        let g = series.each_ref().map(|s| grouped(s));
        for (name, g) in cols.iter().zip(&g) {
            let [t10, a20] = [g.top10, g.all20].map(pct);
            writeln!(
                out,
                "{name:<14} geomean: top-10 {t10:+.1}%  all-20 {a20:+.1}%"
            )?;
        }
        let [g2k, g4k, gco, gor] = g;
        let (t10, a20) = (pct(gor.top10 / g2k.top10), pct(gor.all20 / g2k.all20));
        let paper = "(paper: +18.3%, +10.8%)";
        writeln!(
            out,
            "\noracle over default allow: top-10 {t10:+.1}%, all-20 {a20:+.1}% {paper}"
        )?;

        let what = format!("{fig}: the oracle is at least the default allow all-20");
        out.claim(a20 >= 0.0, &what, format!("{a20:+.1}%"));
        let (d4k, dco) = (pct(g4k.all20 / g2k.all20), pct(gco.all20 / g2k.all20));
        let what = format!("{fig}: the larger replica directory beats the default all-20");
        out.deviation(d4k > 0.0, &what, format!("{d4k:+.1}%; paper +1.7%"))?;
        let what = format!("{fig}: coarse-grain tracking is a net loss all-20");
        out.deviation(dco < 0.0, &what, format!("{dco:+.1}%; paper -1.7%"))
    })
}

fn fig10(grid: &mut Grid) -> Section {
    let latencies = [30u64, 50, 60];
    let cells = latencies.map(|ns| {
        let link = move |c: &mut SystemConfig| c.link_latency = Nanos(ns);
        [Scheme::BaselineNuma, Scheme::DveAllow, Scheme::DveDeny].map(|s| grid.all(s, link))
    });
    Box::new(move |r, out| {
        let [a, b, c, d, e] = ["latency", "scheme", "top-10", "top-15", "all-20"];
        writeln!(out, "Fig. 10: geomean speedup vs inter-socket latency")?;
        writeln!(out, "{a:<10} {b:>7} {c:>16} {d:>16} {e:>16}")?;
        writeln!(out, "{}", "-".repeat(70))?;
        // all20[scheme][latency], allow then deny.
        let mut all20 = [[0.0f64; 3]; 2];
        for (li, (ns, [base, allow, deny])) in latencies.into_iter().zip(cells).enumerate() {
            for (si, (name, runs)) in [("allow", allow), ("deny", deny)].into_iter().enumerate() {
                let g = grouped(&speedups(&r[runs], &r[base.clone()]));
                let [t10, t15, a20] = [g.top10, g.top15, g.all20].map(pct);
                let lat = format!("{ns} ns");
                writeln!(
                    out,
                    "{lat:<10} {name:>7} {t10:>15.1}% {t15:>15.1}% {a20:>15.1}%"
                )?;
                all20[si][li] = g.all20;
            }
        }
        // The paper's claim: benefits increase with latency.
        let grows = |g: [f64; 3]| g[0] < g[1] && g[1] < g[2];
        let trend = |g: [f64; 3]| g.map(|x| format!("{:+.1}%", pct(x))).join(" -> ");
        let [allow, deny] = all20;
        let what = "Fig. 10: deny's all-20 gain grows 30 -> 50 -> 60 ns";
        out.claim(grows(deny), what, trend(deny));
        let what = "Fig. 10: allow's all-20 gain grows 30 -> 50 -> 60 ns";
        out.deviation(grows(allow), what, trend(allow))
    })
}

fn energy(grid: &mut Grid) -> Section {
    let base = grid.all(Scheme::BaselineNuma, |_| {});
    let allow = grid.all(Scheme::DveAllow, |_| {});
    let deny = grid.all(Scheme::DveDeny, |_| {});
    Box::new(move |r, out| {
        const MEM_FRACTION: f64 = 0.18;
        let base = &r[base];
        // Memory EDP and system EDP of each run, normalized to baseline.
        let mem = |runs: &[RunResult]| -> Vec<f64> {
            runs.iter()
                .zip(base)
                .map(|(v, b)| v.mem_edp / b.mem_edp)
                .collect()
        };
        let sys = |runs: &[RunResult]| -> Vec<f64> {
            let edp = |b: &RunResult, v: &RunResult| {
                let (bj, bs) = (b.mem_energy_joules, b.seconds);
                system_edp(bj, bs, v.mem_energy_joules, v.seconds, MEM_FRACTION)
            };
            runs.iter()
                .zip(base)
                .map(|(v, b)| edp(b, v) / edp(b, b))
                .collect()
        };
        let (allow, deny) = (&r[allow], &r[deny]);
        let series = [mem(allow), mem(deny), sys(allow), sys(deny)];
        let cols = ["mem allow", "mem deny", "sys allow", "sys deny"];
        out.table(
            "Energy (§VII): EDP normalized to baseline NUMA",
            &cols,
            &series,
        )?;
        let [ma, md, sa, sd] = series.each_ref().map(|s| pct(geomean(s)));
        let intense = ["backprop", "graph500", "fft"];
        let mem_deny = catalog().into_iter().zip(&series[1]);
        let improved = mem_deny
            .filter(|(p, &d)| intense.contains(&p.name) && d < 1.2)
            .count();
        writeln!(
            out,
            "memory-EDP geomean: allow {ma:+.1}%  deny {md:+.1}%   (paper: +43%, +37%)\n\
             system-EDP geomean: allow {sa:+.1}%  deny {sd:+.1}%   (paper: -6%, -12%)\n\
             memory-intensive workloads (backprop/graph500/fft) with small or negative \
             mem-EDP overhead: {improved}/3"
        )?;
        let what = "§VII: mem-EDP overhead is small or negative on backprop, graph500 and fft";
        out.deviation(improved == 3, what, format!("{improved}/3"))?;
        let what = "§VII: system-EDP falls below baseline NUMA";
        out.deviation(
            sa < 0.0 && sd < 0.0,
            what,
            format!("allow {sa:+.1}%, deny {sd:+.1}%"),
        )
    })
}

fn ablations(grid: &mut Grid) -> Section {
    let base = grid.all(Scheme::BaselineNuma, |_| {});
    let spec_on = grid.all(Scheme::DveAllow, |_| {});
    let spec_off = grid.all(Scheme::DveAllow, |c| c.speculative = false);
    let degraded = grid.all(Scheme::DveDeny, |c| c.degraded = true);
    let hammer = [Scheme::BaselineNuma, Scheme::DveDeny].map(|s| grid.cell("graph500", s, |_| {}));
    let ideal = grid.all(Scheme::DveDeny, |_| {});
    let entries = [32_768usize, 262_144];
    let cached =
        entries.map(|n| grid.all(Scheme::DveDeny, |c| c.engine.dir_cache_entries = Some(n)));
    // Selective replication: only xsbench's shared pools are replicated.
    let xsbench = profile("xsbench");
    let gen = TraceGenerator::new(&xsbench, 16, workload_seed(xsbench.name));
    let shared_lines = gen.layout().shared_ro + gen.layout().shared_rw;
    let shared_pct = shared_lines as f64 / gen.span_lines() as f64 * 100.0;
    let pages = (0..shared_lines.div_ceil(64)).collect();
    let x_base = grid.cell(xsbench.name, Scheme::BaselineNuma, |_| {});
    let x_full = grid.cell(xsbench.name, Scheme::DveDeny, |_| {});
    let x_partial = grid.cell(xsbench.name, Scheme::DveDeny, |c| {
        c.engine.replication_scope = ReplicationScope::Pages(pages);
    });

    Box::new(move |r, out| {
        // ---- 1. Speculative replica access ----------------------------
        let base = &r[base];
        let g_on = grouped(&speedups(&r[spec_on], base));
        let g_off = grouped(&speedups(&r[spec_off], base));
        writeln!(out, "=== Ablations ===")?;
        writeln!(out, "1. speculative replica access (allow protocol):")?;
        for (label, g) in [("ON ", g_on), ("OFF", g_off)] {
            let [t10, a20] = [g.top10, g.all20].map(pct);
            writeln!(out, "   spec {label}: top-10 {t10:+.1}%  all-20 {a20:+.1}%")?;
        }
        let worth = pct(g_on.all20 / g_off.all20);
        let paper = "(paper: latency benefits outweigh bandwidth loss)";
        writeln!(out, "   -> speculation worth {worth:+.1}% all-20 {paper}")?;
        let what = "Ablation 1: speculative replica access is worth more than 0";
        out.claim(worth > 0.0, what, format!("{worth:+.1}% all-20"));

        // ---- 2. Degraded mode -----------------------------------------
        let (g, ratios) = cycle_ratios(&r[degraded], base);
        let worst = pct(ratios.iter().copied().fold(f64::INFINITY, f64::min));
        writeln!(
            out,
            "\n2. degraded mode (deny protocol, replicas out of service):\n   \
             geomean vs baseline NUMA: {g:+.2}% (paper §V-E: \"comparable to baseline NUMA\")\n   \
             worst workload: {worst:+.2}%"
        )?;
        let what = "Ablation 2: degraded mode is within ±1% of baseline NUMA";
        out.claim(g.abs() <= 1.0, what, format!("{g:+.2}% geomean"));

        // ---- 3. Row-hammer exposure -----------------------------------
        let [b_acts, d_acts] = hammer.map(|i| r[i].max_row_activations);
        let [b_dram, d_dram] =
            hammer.map(|i| r[i].dram_rows.0 + r[i].dram_rows.1 + r[i].dram_rows.2);
        writeln!(
            out,
            "\n3. row-hammer exposure (max per-row activations in a refresh window):\n   \
             baseline-numa  max row activations = {b_acts:>6} ({b_dram} DRAM accesses)\n   \
             dve-deny       max row activations = {d_acts:>6} ({d_dram} DRAM accesses)\n   \
             -> replication spreads activations over twice the rows (§III)."
        )?;
        let what = "Ablation 3: deny's worst row activations are below baseline's on graph500";
        out.claim(d_acts < b_acts, what, format!("{d_acts} vs {b_acts}"));

        // ---- 4. On-chip directory cache (§V-A) ------------------------
        writeln!(
            out,
            "\n4. on-chip directory cache (full in-memory directory, cached entries):"
        )?;
        for (n, cells) in entries.into_iter().zip(cached) {
            let (g, _) = cycle_ratios(&r[cells], &r[ideal.clone()]);
            writeln!(
                out,
                "   {n:>7}-entry cache vs ideal SRAM directory: {g:+.2}% geomean"
            )?;
        }
        writeln!(
            out,
            "   -> entry-fetch misses cost one DRAM access each (Table II's design)."
        )?;

        // ---- 5. Selective replication (§V-D) --------------------------
        let full = pct(r[x_full].speedup_over(&r[x_base]));
        let partial = pct(r[x_partial].speedup_over(&r[x_base]));
        writeln!(
            out,
            "\n5. selective replication (only the shared pools are replicated):\n   \
             full replication   : {full:+.1}% speedup, 100.0% of pages replicated\n   \
             shared pools only  : {partial:+.1}% speedup, {shared_pct:.1}% of pages replicated"
        )?;
        out.write_str(
            r#"   -> "applications may require reliability for only a small region of
      memory" (§II-B): a sliver of the capacity buys most of the gain
      on lookup-table workloads, and unmapped pages fall back to a
      single copy seamlessly (§III).
"#,
        )
    })
}

fn main() -> Result<ExitCode, HarnessError> {
    let smoke = smoke()?;
    let ops = if smoke { SMOKE_OPS } else { ops_from_env() };
    let mut grid = Grid::new(ops);
    let sections = [
        fig1(&mut grid),
        fig6(&mut grid),
        fig7(&mut grid),
        fig8(&mut grid),
        fig9(&mut grid, None),
        fig9(&mut grid, Some(1024 * 1024)),
        fig10(&mut grid),
        energy(&mut grid),
        ablations(&mut grid),
    ];
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let started = std::time::Instant::now();
    let run = grid.run(workers);
    let (requested, secs) = (run.results.len(), started.elapsed().as_secs_f64());
    let simulated = run.simulated;
    eprintln!("figures: {requested} runs requested, {simulated} simulated, {workers} workers, {secs:.1} s");

    let mut report = Report::default();
    let intro = format!("Paper figures at {ops} measured memory ops per thread (+10% warm-up)\n");
    report.text.push_str(&intro);
    for section in sections {
        report.text.push('\n');
        section(&run.results, &mut report).expect("writing to a String cannot fail");
    }
    print!("{}", report.text);
    let path = if smoke {
        "results/figures_smoke.txt"
    } else {
        "results/figures.txt"
    };
    write_report(path, &report.text)?;

    let mut gate = Gate::new();
    for (holds, what) in report.claims {
        gate.check(holds, what);
    }
    Ok(gate.finish("figures"))
}
